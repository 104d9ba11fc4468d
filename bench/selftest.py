"""Self-test of the benchmark harness, at tiny sizes (a few seconds).

Run from the root of a checkout:

    python3 bench/selftest.py

It checks that every workload runs end to end with no failure but the known
defects of nablafrac 0.1.0; that the output checks accept the library's
answers and reject a perturbed trace, operator result and scan class, and
that such a wrong answer makes the run incorrect; that the divergent request
passes on a clean error or a checked trace and fails on a raw exception;
that span self times add up to each traced request's wall time; that
the counts repeat exactly; that the benchmark's own weight rows agree with
the exact rational oracle; and that the benchmark fails without a result in a
directory holding only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracle
import run
import workloads
from spans import Tracer

SEED = 7
passed = 0


def expect(condition: bool, message: str) -> None:
    global passed
    if not condition:
        raise AssertionError(message)
    passed += 1


def tiny(name: str, seed: int = SEED) -> list[workloads.Request]:
    return run.cycle(name, seed, 0, **workloads.TINY[name])


def check_end_to_end() -> None:
    for name in workloads.WORKLOADS:
        tally = run.Tally()
        requests = tiny(name)
        for request in requests:
            tally.run(request)
        expect(tally.attempted == sum(r.items for r in requests), f"{name}: attempted count")
        expect(tally.latencies, f"{name}: no request completed")
        expect(tally.correct, f"{name}: failures other than the known defects: {dict(tally.reasons)}")


def _output(request: workloads.Request) -> Path:
    argv = request.run.args[0]
    return Path(argv[argv.index("-o") + 1])


def check_rejects_perturbed() -> None:
    requests = {r.label: r for r in tiny("cli_mix")}
    for label, column in (("solve:frac-lag-const", 2), ("solve:first-lag-const", 2), ("apply:diff-direct", 1)):
        request = requests[label]
        request.run()
        expect(request.check(None)[:2] == (0, 0), f"{label}: the library's answer is rejected")
        out = _output(request)
        lines = out.read_text().splitlines()
        rows = [i for i, line in enumerate(lines) if line[:1].isdigit() or line[:1] == "-"]
        fields = lines[rows[7]].split(",")
        fields[column] = repr(float(fields[column]) * (1 + 1e-6) + 1e-9)
        lines[rows[7]] = ",".join(fields)
        out.write_text("\n".join(lines) + "\n")
        expect(request.check(None)[:2] == (1, 0), f"{label}: a perturbed output passes the check")

    scans = tiny("scan")
    for scan in scans:
        scan.run()
    scan = next((r for r in scans if ",tends_to_zero," in _output(r).read_text()), None)
    expect(scan is not None, "scan: no tends_to_zero cell to perturb")
    failed, known = scan.check(None)[:2]
    out = _output(scan)
    text = out.read_text()
    out.write_text(text.replace(",tends_to_zero,", ",bounded_nonvanishing,", 1))
    expect(scan.check(None)[:2] == (failed + 1, known), "scan: a wrong class passes the check")


def _divergent_trace(nu: float, c: float, steps: int) -> np.ndarray:
    """u(0..steps) of the divergent equation, stepped in float64 until it overflows."""
    w = oracle.direct_weights(nu, steps + 1)
    u = np.zeros(steps + 1)
    u[0] = 1.0
    with np.errstate(all="ignore"):
        for n in range(1, steps + 1):
            u[n] = c * u[n - 1] - np.dot(w[n:0:-1], u[:n])
    return u


def check_divergent() -> None:
    (request,) = [r for r in tiny("cli_mix") if r.label == "solve:divergent"]
    out = _output(request)
    argv = request.run.args[0]
    steps = int(argv[argv.index("--n-max") + 1])
    u = _divergent_trace(0.1, -2.0, steps)
    expect(not np.all(np.isfinite(u)), "the divergent trace does not overflow")
    expect(request.check("exit")[:2] == (0, 0), "divergent: a clean error exit fails")
    for truncated in (False, True):
        values = u[: int(np.argmin(np.isfinite(u)))] if truncated else u
        out.write_text("n,t,u\n" + "".join(f"{n},{n},{v!r}\n" for n, v in enumerate(map(float, values))))
        expect(request.check("trace")[:2] == (0, 0), f"divergent: a correct trace fails (truncated={truncated})")
    values[-2] *= 1 + 1e-6  # the tolerance scales with the largest value
    out.write_text("n,t,u\n" + "".join(f"{n},{n},{v!r}\n" for n, v in enumerate(map(float, values))))
    expect(request.check("trace")[:2] == (1, 0), "divergent: a perturbed trace passes")

    import click

    real_cli = workloads._cli
    try:
        for exc, known, failed in (
            (click.ClickException("diverges at n = 300"), False, 0),
            (workloads.ExitCode(3), False, 0),
            (ValueError("non-finite"), True, 1),
            (RuntimeError("other"), False, 1),
        ):
            def raising(argv, exc=exc):
                raise exc

            workloads._cli = raising
            tally = run.Tally()
            tally.run(request)
            expect((tally.failed, tally.correct) == (failed, failed == 0 or known),
                   f"divergent: {exc!r} gives failed {tally.failed}, correct {tally.correct}")
    finally:
        workloads._cli = real_cli


def check_span_sums() -> None:
    tracer = Tracer()
    tally = run.Tally()
    walls = []
    tracer.install()
    try:
        for request in tiny("cli_mix") + tiny("long_horizon") + tiny("scan"):
            walls.append(tally.run(request, tracer))
    finally:
        tracer.uninstall()
    by_request = tracer.self_times(key=lambda span: span[6])
    for rid, wall in enumerate(walls):
        remainder = wall - by_request[rid]
        expect(0.0 <= remainder <= 1e-3 + 0.01 * wall, f"request {rid}: self times miss {remainder:.6f} s of {wall:.6f} s")
    expect(all(span[4] is not None for span in tracer.spans), "a span was never closed")


def check_counts_repeat() -> None:
    seen = []
    for _ in range(2):
        tracer, tally = Tracer(), run.Tally()
        tracer.install()
        try:
            for name in workloads.WORKLOADS:
                for request in tiny(name):
                    tally.run(request, tracer)
        finally:
            tracer.uninstall()
        seen.append((dict(tracer.counts), tracer.calls()))
    expect(seen[0] == seen[1], f"counts differ between runs of one seed: {seen}")
    expect(seen[0][0].get("grid.terms", 0) > 0 and seen[0][0].get("stability.cells", 0) == 4, "counts missing")


def check_oracle_rows() -> None:
    from nablafrac.exact import oracle_monomial, oracle_weight_row

    for nu in (Fraction(1, 4), Fraction(3, 4), Fraction(3, 2)):
        want = np.array([float(w) for w in oracle_weight_row(nu, 40)])
        got = oracle.direct_weights(float(nu), 40)
        expect(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) <= 1e-14, f"weights at nu = {nu}")
        want = np.array([float(oracle_monomial(nu - 1, k)) for k in range(1, 41)])
        got = oracle.envelope(float(nu), 40)
        expect(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) <= 1e-14, f"envelope at nu = {nu}")
    rng = np.random.default_rng(SEED)
    for n in (2, 3, 1000, 4097):
        w, v = oracle.direct_weights(0.8, n), rng.uniform(-1.0, 1.0, n)
        worst = np.max(np.abs(oracle.convolve_head(w, v) - np.convolve(w, v)[:n]))
        expect(worst <= 1e-13, f"FFT convolution off by {worst:.3e} at n = {n}")


def check_bare_directory() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, bare / bench.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    cmd = json.loads((bare / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        cmd + ["--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0, "the benchmark succeeded without the library")
    expect(not done.stdout.strip(), f"the benchmark printed a result without the library: {done.stdout!r}")


def main() -> int:
    run.load_library()
    try:
        for check in (check_end_to_end, check_rejects_perturbed, check_divergent, check_span_sums,
                      check_counts_repeat, check_oracle_rows, check_bare_directory):
            check()
            print(f"ok   {check.__name__}")
    finally:
        shutil.rmtree(run.OUT / f"work-{run.os.getpid()}", ignore_errors=True)
    print(f"selftest: {passed} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
