"""The benchmark's three workloads, each a seeded cycle of requests.

A cycle is a list of :class:`Request`.  ``build(name, rng, workdir)`` writes
the cycle's input files into ``workdir`` and returns its requests; every
input comes from ``rng``, so the same generator state gives the same cycle.
Cycle sizes are fixed by the workload, so every cycle costs about the same
and a run of whole cycles has the same request mix for every seed.

``cli_mix`` sends the README's CLI requests in-process through
``nablafrac.cli.main``, ``scan`` the default ``nablafrac scan`` grid, and
``long_horizon`` long library solves; ``README.md`` lists each cycle's
requests, and ``BENCHMARK.json`` says why each workload was chosen.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

# the default scan grid, as ``nablafrac scan`` parses its default axes
DEFAULT_NU = [round(0.1 + i * 0.1, 12) for i in range(9)]
DEFAULT_C = [round(-2.0 + i * 0.05, 12) for i in range(51)]
SCAN_N_MAX = 2000
# orders per scan request: about 1 s of work, long enough to average over the
# sub-second swings in speed of a shared host, so request latencies are not
# bimodal and their median is steady
SCAN_ORDERS = 3
LONG_SIZES = (20000, 25000, 30000, 35000, 40000)
LONG_ORDERS = (0.75, 0.8, 0.9)
# seconds one cycle's requests took with nablafrac 0.1.0 on a 2-core x86-64
# container; a run sends round(--seconds / this) cycles
NOMINAL_CYCLE_S = {"cli_mix": 7.2, "scan": 3.5, "long_horizon": 4.9}


@dataclass
class Request:
    """One closed-loop request; ``check`` judges what ``run`` produced.

    ``check(result)`` returns (failed items, failed items that are known
    defects of nablafrac 0.1.0, points produced by passing items, reason or
    None).  A request that raises fails all its items; they are known
    defects only if the exception is one of ``known_raise``.
    """

    label: str
    layer: str  # root span layer: "cli" or "request"
    run: Callable[[], object]
    check: Callable[[object], tuple[int, int, int, str | None]]
    items: int = 1
    known_raise: tuple[type[BaseException], ...] = ()


# -- running -----------------------------------------------------------------


class ExitCode(RuntimeError):
    """A CLI request ended with a non-zero exit code and no exception."""

    def __init__(self, code) -> None:
        super().__init__(f"exit code {code}")
        self.code = code


def _cli(argv: list[str]) -> None:
    from nablafrac import cli

    try:
        code = cli.main(argv, standalone_mode=False)
    except SystemExit as exc:  # sys.exit inside a command; click passes it on
        code = exc.code
    if code not in (None, 0):
        raise ExitCode(code)


def _library(name: str, *args):
    import nablafrac

    # looked up at call time, so a traced run calls the wrapped binding
    return getattr(nablafrac, name)(*args)


def _one(reason: str | None, points: int) -> tuple[int, int, int, str | None]:
    return (1, 0, 0, reason) if reason else (0, 0, points, None)


# -- files -------------------------------------------------------------------


def _write_grid(path: Path, base: int, values) -> None:
    with open(path, "w") as stream:
        stream.write("index,value\n")
        for offset, value in enumerate(values):
            stream.write(f"{base + offset},{float(value)!r}\n")


def _rows(path: Path) -> tuple[list[str], np.ndarray]:
    """Comment lines and the numeric rows (header skipped) of a CSV output."""
    lines = Path(path).read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if ln and not ln.startswith("#")][1:]
    return comments, np.loadtxt(data, delimiter=",", ndmin=2)


def _grid_axis(rows: np.ndarray, base: int, count: int) -> str | None:
    if rows.shape[0] != count:
        return f"{rows.shape[0]} rows, expected {count}"
    if not (np.array_equal(rows[:, 0], np.arange(count)) and np.array_equal(rows[:, 1], base + np.arange(count))):
        return "n,t columns are not 0..N and base..base+N"
    return None


# -- cli_mix -----------------------------------------------------------------


def _check_trace_file(path, fmt, order, nu, u0, c, form, base, n_max):
    if fmt == "json":
        doc = json.loads(Path(path).read_text())
        rows = np.column_stack([doc["n"], doc["t"], doc["u"]])
        env = doc["envelope"]
    else:
        rows = _rows(path)[1]
        env = rows[:, 4] if order == "frac" else None
    reason = _grid_axis(rows, base, n_max + 1)
    if reason is None and order == "frac":
        reason = oracle.check_fractional_trace(rows[:, 2], nu, u0, c, form) or oracle.check_envelope(env, nu)
    elif reason is None:
        reason = oracle.check_first_order_trace(rows[:, 2], u0, c, form)
    return reason


def _solve(workdir: Path, tag: str, *, nu, c_spec, c, u0, n_max, base, form, order, fmt="csv"):
    out = workdir / f"{tag}.{fmt}"
    argv = ["solve", "--c", c_spec, "--u0", repr(u0), "--n-max", str(n_max), "--base", str(base)]
    argv += ["--form", form, "--order", order, "--format", fmt, "-o", str(out)]
    if nu is not None:
        argv += ["--nu", repr(nu)]

    def check(_):
        reason = _check_trace_file(out, fmt, order, nu, u0, c, form, base, n_max)
        return _one(reason, n_max + 1)

    return Request(f"solve:{tag}", "cli", partial(_cli, argv), check)


def _compare(workdir: Path, tag: str, *, nu, c_spec, c, u0, n_max, base, form):
    out, verdict = workdir / f"{tag}.csv", workdir / f"{tag}.json"
    argv = ["compare", "--nu", repr(nu), "--c", c_spec, "--u0", repr(u0), "--n-max", str(n_max)]
    argv += ["--base", str(base), "--form", form, "-o", str(out), "-v", str(verdict)]

    def check(_):
        rows = _rows(out)[1]
        reason = _grid_axis(rows, base, n_max + 1)
        if reason is None and json.loads(verdict.read_text()).get("kind") != "comparison_verdict":
            reason = "verdict JSON lacks kind comparison_verdict"
        reason = (
            reason
            or oracle.check_first_order_trace(rows[:, 2], u0, c, form)
            or oracle.check_fractional_trace(rows[:, 3], nu, u0, c, form)
        )
        return _one(reason, 2 * (n_max + 1))

    return Request(f"compare:{tag}", "cli", partial(_cli, argv), check)


def _apply(workdir: Path, op: str, nu, u_path: Path, base: int, u: np.ndarray):
    out = workdir / f"apply-{op}.csv"
    argv = ["apply", "--op", op, "--input", str(u_path), "-o", str(out)]
    if nu is not None:
        argv += ["--nu", repr(nu)]

    def check(_):
        comments, rows = _rows(out)
        got_base = int(comments[0].split("=", 1)[1]) if comments else None
        if rows.size and not np.array_equal(rows[:, 0], got_base + np.arange(rows.shape[0])):
            return _one("index column is not consecutive from the recorded base", 0)
        reason = oracle.check_apply(op, nu, base, u, got_base, rows[:, 1])
        return _one(reason, rows.shape[0])

    return Request(f"apply:{op}", "cli", partial(_cli, argv), check)


def _ends_cleanly(argv: list[str], out: Path) -> str:
    """Run a CLI request that may fail; "exit" if it ended in a clean error, else "trace"."""
    import click

    out.unlink(missing_ok=True)
    try:
        _cli(argv)
    except (click.ClickException, ExitCode):  # a documented exit code, no traceback
        return "exit"
    return "trace"


def _divergent(workdir: Path, *, n_max: int, nu: float = 0.1, c: float = -2.0, u0: float = 1.0):
    """The ROADMAP's divergent ``solve --nu 0.1 --c -2``, whose solution overflows.

    It passes when the CLI ends in a clean error, or writes a trace whose
    values up to the first non-finite step satisfy the equation.  A raw
    exception fails it; nablafrac 0.1.0's ``ValueError`` is the known defect.
    """
    out = workdir / "divergent.csv"
    argv = ["solve", "--c", repr(c), "--u0", repr(u0), "--n-max", str(n_max), "--base", "0"]
    argv += ["--form", "on_u_lag", "--order", "frac", "--format", "csv", "-o", str(out), "--nu", repr(nu)]

    def check(ended):
        if ended == "exit":
            return _one(None, 0)
        rows = _rows(out)[1]
        finite = rows.shape[0] if np.all(np.isfinite(rows[:, 2])) else int(np.argmin(np.isfinite(rows[:, 2])))
        reason = _grid_axis(rows[:finite], 0, finite) if finite <= n_max + 1 else f"{finite} rows"
        reason = reason or oracle.check_fractional_trace(rows[:finite, 2], nu, u0, c, "on_u_lag")
        return _one(reason, finite)

    return Request("solve:divergent", "cli", partial(_ends_cleanly, argv, out), check, known_raise=(ValueError,))


def cli_mix(rng: np.random.Generator, workdir: Path, n: int = 5000, n_divergent: int = 2000) -> list[Request]:
    def unit_nu() -> float:
        return float(rng.uniform(0.1, 0.9))

    def u0() -> float:
        return float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))

    def base() -> int:
        return int(rng.integers(-3, 4))

    u_base, u = base(), rng.uniform(-10.0, 10.0, n)
    u_path = workdir / "u.csv"
    _write_grid(u_path, u_base, u)
    # a per-step coefficient inside the criterion |c + nu| <= nu
    nu_csv, base_csv = unit_nu(), base()
    c_csv = -nu_csv + nu_csv * rng.uniform(-1.0, 1.0, n)
    c_path = workdir / "c.csv"
    _write_grid(c_path, base_csv + 1, c_csv)
    nu_const = unit_nu()
    c_const = float(-2.0 * nu_const * rng.uniform())
    c_first = float(-2.0 * rng.uniform())

    requests = [
        _solve(workdir, "frac-lag-const", nu=nu_const, c_spec=repr(c_const), c=c_const, u0=u0(),
               base=base(), form="on_u_lag", order="frac", n_max=n),
        _solve(workdir, "frac-lag-csv", nu=nu_csv, c_spec=str(c_path), c=c_csv, u0=u0(),
               base=base_csv, form="on_u_lag", order="frac", n_max=n),
        _solve(workdir, "frac-t-oscillation", nu=unit_nu(), c_spec="demo-oscillation", c=2.0, u0=u0(),
               base=base(), form="on_u_t", order="frac", fmt="json", n_max=n),
        _solve(workdir, "first-lag-const", nu=None, c_spec=repr(c_first), c=c_first, u0=u0(),
               base=base(), form="on_u_lag", order="1", n_max=n),
        _solve(workdir, "first-t-oscillation", nu=None, c_spec="demo-oscillation", c=2.0, u0=u0(),
               base=base(), form="on_u_t", order="1", n_max=n),
        _compare(workdir, "lag-constant", nu=unit_nu(), c_spec="demo-constant", c=0.0, u0=u0(),
                 base=base(), form="on_u_lag", n_max=n),
        _compare(workdir, "t-oscillation", nu=unit_nu(), c_spec="demo-oscillation", c=2.0, u0=u0(),
                 base=base(), form="on_u_t", n_max=n),
        _apply(workdir, "sum", float(rng.uniform(0.1, 1.9)), u_path, u_base, u),
        _apply(workdir, "diff-direct", float(rng.uniform(0.1, 1.9)), u_path, u_base, u),
        _apply(workdir, "diff-composed", float(rng.uniform(0.1, 1.9)), u_path, u_base, u),
        _apply(workdir, "nabla", None, u_path, u_base, u),
        _divergent(workdir, n_max=n_divergent),
    ]
    return [requests[i] for i in rng.permutation(len(requests))]


# -- scan --------------------------------------------------------------------


def _scan_block(workdir: Path, nus: list[float], cs: list[float], n_max: int, reference) -> Request:
    """One ``scan`` request over the orders ``nus`` and every coefficient in ``cs``."""
    out = workdir / f"scan-{nus[0]!r}.csv"
    argv = ["scan", "--nu-grid", ",".join(map(repr, nus)), "--c-grid", ",".join(map(repr, cs))]
    argv += ["--n-max", str(n_max), "-o", str(out)]
    cells = [(nu, c) for nu in nus for c in cs]
    wanted = {cell: reference[cell][0] for cell in cells}
    overflows = {cell for cell in cells if reference[cell][1]}

    def check(_):
        with open(out, newline="") as stream:
            got = {(float(r["nu"]), float(r["c"])): r["decay_class"] for r in csv.DictReader(stream)}
        bad = oracle.scan_mismatches(got, wanted)
        # nablafrac 0.1.0 labels overflowing cells bounded_nonvanishing
        known = sum(cell in overflows and got.get(cell) == "bounded_nonvanishing" for cell in bad)
        reason = f"{len(bad)} cells differ from the reference, e.g. {bad[0]}" if bad else None
        return len(bad), known, (len(wanted) - len(bad)) * (n_max + 1), reason

    return Request(f"scan:nu={','.join(map(repr, nus))}", "cli", partial(_cli, argv), check, items=len(wanted))


def scan(
    rng: np.random.Generator,
    workdir: Path,
    nus: list[float] = DEFAULT_NU,
    cs: list[float] = DEFAULT_C,
    n_max: int = SCAN_N_MAX,
) -> list[Request]:
    """The default scan grid as requests of SCAN_ORDERS orders each, orders and coefficients in a seeded order."""
    reference = oracle.load_scan_reference()
    order_nu = [nus[i] for i in rng.permutation(len(nus))]
    order_c = [cs[i] for i in rng.permutation(len(cs))]
    return [
        _scan_block(workdir, order_nu[i : i + SCAN_ORDERS], order_c, n_max, reference)
        for i in range(0, len(order_nu), SCAN_ORDERS)
    ]


# -- long_horizon ------------------------------------------------------------


def _check_long(name: str, nu: float, c, result):
    report = result if name == "bound_check" else None
    values = result.values if report is not None else result
    reason = oracle.check_fractional_trace(values, nu, 1.0, c, "on_u_lag") or oracle.check_bound(values, nu)
    if reason is None and report is not None:
        reason = oracle.check_envelope(report.envelope, nu)
        if reason is None and not (np.all(report.criterion_holds) and np.all(report.bound_ok)):
            reason = "report denies the criterion or the bound"
    return _one(reason, np.asarray(values).size)


def long_horizon(rng: np.random.Generator, workdir: Path, sizes=LONG_SIZES) -> list[Request]:
    requests = []
    for n in sizes:
        for name in ("bound_check", "mittag_leffler_seq"):
            nu = float(rng.choice(LONG_ORDERS))
            # a constant or per-step draws, both inside the criterion |c + nu| <= nu
            if rng.uniform() < 0.5:
                c = float(-2.0 * nu * rng.uniform())
            else:
                c = -nu + nu * rng.uniform(-1.0, 1.0, n)
            run = partial(_library, name, c, nu, n)
            requests.append(Request(name, "request", run, partial(_check_long, name, nu, c)))
    return [requests[i] for i in rng.permutation(len(requests))]


WORKLOADS = {"cli_mix": cli_mix, "scan": scan, "long_horizon": long_horizon}

# sizes for the self-test and the warm-up cycle; the scan cells include the
# overflowing cell (0.1, -2.0) and two that classify correctly
TINY = {
    "cli_mix": dict(n=60, n_divergent=2000),
    "scan": dict(nus=[0.1, 0.5], cs=[-2.0, -0.5], n_max=SCAN_N_MAX),
    "long_horizon": dict(sizes=(300,)),
}
