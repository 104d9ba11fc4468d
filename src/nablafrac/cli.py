"""Command-line front end: thin, deterministic wrappers over the library.

Exit codes: 0 success, 2 invalid parameters (a non-finite initial value or
scan range among them), malformed input, an unwritable output path, a size
too large to allocate or a range axis of more than 10^4 points, 3 input too
short for the requested operator, 4 singular step while solving,
5 result overflowed.  Output is written by :mod:`nablafrac.formats`: CSV
with 17 significant digits, JSON in the shortest form that reads back to
the same float64.  Identical invocations produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import replace

import click

from . import __version__
from .formats import (
    read_grid_csv,
    write_document,
    write_grid_csv,
    write_scan_csv,
    write_table,
    write_trace_csv,
    write_trace_json,
)
from .grid import (
    DivergentSolutionError,
    DomainTooShortError,
    GridFunction,
    _require_finite,
    nabla_diff,
    nabla_frac_diff_composed,
    nabla_frac_diff_direct,
    nabla_sum,
)
from .monomial import monomial_sequence
from .solver import (
    FirstOrderForm,
    LinearProblem,
    SingularStepError,
    solve_general,
)
from .stability import compare_orders, stability_scan

# coefficient presets: a one-liner for the oscillation-vs-decay comparison
# (c = 2 with --form on_u_t) and for the constant-vs-decay one (c = 0)
COEFFICIENT_PRESETS = {
    "demo-oscillation": 2.0,
    "demo-constant": 0.0,
}


# errors with their own exit code, looked up by isinstance (NumPy
# raises a subclass of MemoryError); any other ValueError exits 2
_EXIT_CODES = {DomainTooShortError: 3, SingularStepError: 4, DivergentSolutionError: 5, MemoryError: 2}

# the most points of a start:stop:step axis; each c point costs a scan its
# own block inverse and trace
_MAX_AXIS_POINTS = 10**4

# the operators of apply that take an order, in the order --op lists them
_OPERATORS = {"sum": nabla_sum, "diff-direct": nabla_frac_diff_direct, "diff-composed": nabla_frac_diff_composed}

# options that several commands share
_C_OPTION = click.option("--c", "c_spec", required=True, help="Coefficient: constant, preset, or CSV path.")
_U0_OPTION = click.option("--u0", type=float, default=1.0, show_default=True, help="Initial value u(base).")
_BASE_OPTION = click.option("--base", type=int, default=0, show_default=True, help="Initial grid point a.")
_FORM_OPTION = click.option(
    "--form",
    type=click.Choice([f.value for f in FirstOrderForm]),
    default=FirstOrderForm.ON_U_LAG.value,
    show_default=True,
    help="Right-hand-side form: coefficient times u(t-1) or times u(t).",
)
_FORMAT_OPTION = click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True, help="Output format."
)
_OUTPUT_OPTION = click.option("--output", "-o", default="-", help="Output path ('-' for stdout).")


@contextlib.contextmanager
def _library_errors():
    """Turn library errors raised inside the block into the documented exit codes."""
    try:
        yield
    except tuple(_EXIT_CODES) as exc:
        error = click.ClickException(str(exc))
        error.exit_code = next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
        raise error from None
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def _read_grid(path: str) -> GridFunction:
    """Read a grid CSV; a malformed file is a usage error naming the path."""
    with open(path, "r") as stream:
        try:
            return read_grid_csv(stream)
        except ValueError as exc:
            raise click.UsageError(f"{path}: {exc}") from None


@contextlib.contextmanager
def _open_outputs(*paths: str):
    """Open every output path ('-' is stdout) before any is written; an unwritable one exits 2.

    Files open without truncation and are emptied once all of them opened,
    so a failed open neither leaves a new file behind nor empties an old one.
    """
    with contextlib.ExitStack() as stack:
        streams, created = [], []
        for path in paths:
            new = path != "-" and not os.path.lexists(path)
            try:
                streams.append(stack.enter_context(click.open_file(path, "a")))
            except OSError as exc:
                stack.close()
                for done in created:
                    os.remove(done)
                raise click.UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
            if new:
                created.append(path)
        for path, stream in zip(paths, streams):
            if path != "-" and os.path.isfile(path):
                stream.seek(0)
                stream.truncate()
        yield streams


def _resolve_coefficients(spec: str, base: int):
    """A coefficient spec is a constant, a preset name, or a grid CSV path."""
    if spec in COEFFICIENT_PRESETS:
        return COEFFICIENT_PRESETS[spec]
    with contextlib.suppress(ValueError):
        return float(spec)
    try:
        grid = _read_grid(spec)
    except OSError as exc:
        raise click.UsageError(
            f"coefficient spec {spec!r} is not a number, a preset "
            f"({', '.join(sorted(COEFFICIENT_PRESETS))}), or a readable CSV file: {exc}"
        ) from None
    if grid.base != base + 1:
        raise click.UsageError(
            f"coefficient CSV must start at index base+1 = {base + 1}, got {grid.base}"
        )
    return grid.values


def _parse_axis(spec: str, name: str) -> list[float]:
    try:
        if ":" in spec:
            parts = [float(x) for x in spec.split(":")]
            if len(parts) != 3:
                raise ValueError("expected start:stop:step")
            start, stop, step = parts
            if step <= 0:
                raise ValueError("step must be positive")
            span = (stop - start) / step
            if not all(map(math.isfinite, (start, stop, step, span))):
                raise ValueError("start, stop, step and the step count must be finite")
            count = int(math.floor(span + 1e-9))
            if count < 0:
                raise ValueError("stop lies before start")
            if count >= _MAX_AXIS_POINTS:
                raise ValueError(f"a range takes at most {_MAX_AXIS_POINTS} points, got {count + 1:.6g}")
            return [round(start + i * step, 12) for i in range(count + 1)]
        return [float(x) for x in spec.split(",")]
    except ValueError as exc:
        raise click.UsageError(f"{name} spec {spec!r}: {exc}") from None


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Discrete nabla fractional calculus toolkit."""


@main.command("monomial")
@click.option("--mu", type=float, required=True, help="Monomial order.")
@click.option(
    "--n-max", type=click.IntRange(min=0), required=True, help="Largest offset to emit."
)
@_OUTPUT_OPTION
@_FORMAT_OPTION
def monomial_cmd(mu: float, n_max: int, output: str, fmt: str) -> None:
    """Emit the Taylor monomial values at offsets 0..N-MAX as n,value rows."""
    with _library_errors():
        values = monomial_sequence(mu, n_max)
        _require_finite(values, 0)
    with _open_outputs(output) as (stream,):
        if fmt == "json":
            write_document(stream, "monomial_sequence", mu=mu, n=range(n_max + 1), value=values)
        else:
            write_table(stream, "n,value", range(n_max + 1), values)


@main.command("apply")
@click.option(
    "--op",
    type=click.Choice([*_OPERATORS, "nabla"]),
    required=True,
    help="Operator to apply.",
)
@click.option("--nu", type=float, default=None, help="Order (required except for nabla).")
@click.option(
    "--input", "input_path", required=True, type=click.Path(exists=True, dir_okay=False), help="Grid CSV to read."
)
@_OUTPUT_OPTION
@_FORMAT_OPTION
def apply_cmd(op: str, nu: float | None, input_path: str, output: str, fmt: str) -> None:
    """Apply a nabla operator to a grid CSV (header index,value).

    The output records the result's first defined index in a '# base=' comment
    line and re-ingests as apply input unchanged.
    """
    if op != "nabla" and nu is None:
        raise click.UsageError(f"--nu is required for --op {op}")
    if op == "nabla" and nu is not None:
        raise click.UsageError("--nu does not apply to --op nabla, which has order 1")
    grid = _read_grid(input_path)
    with _library_errors():
        result = nabla_diff(grid) if op == "nabla" else _OPERATORS[op](grid, nu)
    with _open_outputs(output) as (stream,):
        if fmt == "json":
            index = range(result.base, result.last + 1)
            fields = dict(op=op, nu=nu, base=result.base, index=index, value=result.values)
            write_document(stream, "operator_result", **fields)
        else:
            write_grid_csv(result, stream, record_base=True)


@main.command("solve")
@click.option("--nu", type=float, default=None, help="Fractional order in (0, 1).")
@_C_OPTION
@_U0_OPTION
@click.option(
    "--n-max", type=click.IntRange(min=1), default=100, show_default=True, help="Number of steps."
)
@_BASE_OPTION
@_FORM_OPTION
@click.option(
    "--order",
    type=click.Choice(["frac", "1"]),
    default="frac",
    show_default=True,
    help="Solve the fractional equation or its first-order comparison.",
)
@_OUTPUT_OPTION
@_FORMAT_OPTION
def solve_cmd(
    nu: float | None,
    c_spec: str,
    u0: float,
    n_max: int,
    base: int,
    form: str,
    order: str,
    output: str,
    fmt: str,
) -> None:
    """Step a linear initial value problem and emit its trace.

    Rows are n,t,u,residual,envelope where the residual re-applies the
    operator to the computed solution.
    """
    coeff = _resolve_coefficients(c_spec, base)
    with _library_errors():
        if order == "frac" and nu is None:
            raise click.UsageError("--nu is required for the fractional solve")
        # a given --nu is checked at either order
        problem = LinearProblem(nu, base, *FirstOrderForm(form).split(coeff), 0.0, u0)
        trace = solve_general(problem if order == "frac" else replace(problem, nu=None), n_max)
    with _open_outputs(output) as (stream,):
        if fmt == "json":
            write_trace_json(
                trace, stream, u0=u0, coefficients=c_spec, form=form, order=order
            )
        else:
            write_trace_csv(trace, stream)


@main.command("compare")
@click.option("--nu", type=float, required=True, help="Fractional order in (0, 1).")
@_C_OPTION
@_U0_OPTION
@click.option("--n-max", type=click.IntRange(min=20), default=5000, show_default=True, help="Number of steps.")
@_BASE_OPTION
@_FORM_OPTION
@_OUTPUT_OPTION
@click.option("--verdict", "-v", "verdict_path", default="-", help="Verdict JSON path ('-' for stdout).")
def compare_cmd(
    nu: float,
    c_spec: str,
    u0: float,
    n_max: int,
    base: int,
    form: str,
    output: str,
    verdict_path: str,
) -> None:
    """Solve first-order and fractional versions side by side.

    Writes an n,t,u_first_order,u_fractional CSV to --output and a JSON
    verdict with both decay classifications to --verdict.
    """
    coeff = _resolve_coefficients(c_spec, base)
    with _library_errors():
        comparison = compare_orders(coeff, nu, form, u0, n_max, base)
    with _open_outputs(output, verdict_path) as (table, verdict):
        first, frac = comparison.first_order, comparison.fractional
        n, t = range(len(first)), range(first.base, first.last + 1)
        write_table(table, "n,t,u_first_order,u_fractional", n, t, first.values, frac.values)
        # one path for both gets the table, then the verdict, as stdout does
        table.flush()
        write_document(verdict, **comparison.verdict())


@main.command("scan")
@click.option(
    "--nu-grid",
    default="0.1:0.9:0.1",
    show_default=True,
    help="Orders: comma list or start:stop:step.",
)
@click.option(
    "--c-grid",
    default="-2:0.5:0.05",
    show_default=True,
    help="Constant coefficients: comma list or start:stop:step.",
)
@click.option("--n-max", type=click.IntRange(min=20), default=2000, show_default=True, help="Steps per cell.")
@_OUTPUT_OPTION
def scan_cmd(nu_grid: str, c_grid: str, n_max: int, output: str) -> None:
    """Classify decay over a (nu, c) grid; emits nu,c,decay_class,tail_stat.

    Rows come in row-major order, nu outer and c inner.
    """
    nus = _parse_axis(nu_grid, "--nu-grid")
    cs = _parse_axis(c_grid, "--c-grid")
    with _library_errors():
        cells = stability_scan(nus, cs, n_max)
    with _open_outputs(output) as (stream,):
        write_scan_csv(cells, stream)


if __name__ == "__main__":
    main()
