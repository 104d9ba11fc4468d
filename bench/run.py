"""Closed-loop benchmark of nablafrac: end-to-end metrics, or per-layer ones when traced.

Run from the root of a nablafrac checkout (the library is imported from
``src``; nothing needs installing):

    python3 bench/run.py --workload cli_mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client in one process and one thread sends the next request only after
the previous one completes; BLAS threads are pinned to 1 here, before NumPy
loads.  A run sends whole cycles of the workload (see ``workloads.py``): as
many as took ``--seconds`` seconds when the benchmark was defined, so every
run sends the same requests.  Each output is checked by ``oracle.py``
outside the timed region.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``README.md`` defines
every metric.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NABLA_FRAC_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import workloads
from spans import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_SAMPLES = 9
WARMUP_CYCLE = 2**31 - 1
# per-layer counts, computed from array sizes, reported per traced pass
COUNTS = (
    "grid.terms", "solver.steps", "solver.history_terms", "solver.nonfinite_traces",
    "stability.cells", "io.bytes_read", "io.bytes_written",
)
IMPORT_PROBE = "import time; t = time.perf_counter(); import nablafrac.cli; print(time.perf_counter() - t)"


def load_library() -> None:
    """Import nablafrac from this checkout's ``src``, or exit non-zero."""
    init = SRC / "nablafrac" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} is missing; run from the root of a nablafrac checkout")
    sys.path.insert(0, str(SRC))
    import nablafrac.cli

    if Path(nablafrac.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported nablafrac from {nablafrac.__file__}, not {init}")


def import_times(count: int) -> list[float]:
    """Seconds each of ``count`` fresh interpreters takes to import nablafrac.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout))
    return samples


@dataclass
class Tally:
    """What a run's requests did.  Failed items add no time, latency or points.

    ``known`` counts the failed items that are known defects of nablafrac
    0.1.0 (README.md); any other failed item makes the run incorrect.
    """

    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    known: int = 0
    points: int = 0
    busy: float = 0.0
    reasons: Counter = field(default_factory=Counter)

    @property
    def correct(self) -> bool:
        return self.failed == self.known

    def run(self, request: workloads.Request, tracer: Tracer | None = None) -> float:
        """Send one request, time it, check it; returns its wall time."""
        start = time.perf_counter()
        try:
            if tracer is None:
                result = request.run()
            else:
                with tracer.request(f"{request.layer}.{request.label}", request.layer):
                    result = request.run()
        except Exception as exc:  # the failure is the measurement
            elapsed = time.perf_counter() - start
            failed, points, reason = request.items, 0, f"{type(exc).__name__}: {exc}"
            known = failed if isinstance(exc, request.known_raise) else 0
        else:
            elapsed = time.perf_counter() - start
            try:
                failed, known, points, reason = request.check(result)
            except Exception as exc:
                failed, known, points, reason = request.items, 0, 0, f"check failed: {type(exc).__name__}: {exc}"
        self.attempted += request.items
        self.failed += failed
        self.known += known
        self.points += points
        if failed < request.items:
            self.busy += elapsed
            self.latencies.append(elapsed)
        if reason:
            self.reasons[f"{request.label}: {reason.splitlines()[0][:160]}"] += 1
        return elapsed


def cycle(name: str, seed: int, index: int, **sizes) -> list[workloads.Request]:
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](np.random.default_rng([seed, index]), workdir, **sizes)


def cycle_count(name: str, seconds: float) -> int:
    """Whole cycles that took ``seconds`` when the benchmark was defined (README.md).

    The count depends only on ``seconds``, never on how fast this run goes, so
    every run of a workload sends the same requests and its tail percentile
    and counts repeat; a faster program finishes the same work sooner.
    """
    return max(1, round(seconds / workloads.NOMINAL_CYCLE_S[name]))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no percentile has ten beyond it; the maximum
    (percentile 100) is reported instead.
    """
    xs = sorted(latencies)
    if len(xs) > 10:
        return xs[-11], 100.0 * (len(xs) - 10) / len(xs)
    return xs[-1], 100.0


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(name: str, seed: int, seconds: float) -> tuple[Tally, dict, list[str]]:
    # a tiny cycle first, so lazy set-up in the process is not timed
    for request in cycle(name, seed, WARMUP_CYCLE, **workloads.TINY[name]):
        Tally().run(request)
    tally, cycles = Tally(), cycle_count(name, seconds)
    # import samples are spread over the run, so one slow spell of the machine
    # does not set the median
    setup: list[float] = []
    for index in range(cycles):
        setup += import_times(-(-SETUP_SAMPLES // cycles))
        for request in cycle(name, seed, index):
            tally.run(request)
    if not tally.latencies:
        raise SystemExit(f"error: every {name} request failed: {dict(tally.reasons)}")
    tail_value, tail_pct = tail(tally.latencies)
    samples = len(tally.latencies)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "points_per_s": _metric(tally.points / tally.busy, "1/s"),
        "req_s.p50": _metric(statistics.median(tally.latencies), "s"),
        "req_s.tail": _metric(tail_value, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": _metric((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    notes = [
        f"{cycles} cycles; {samples} latency samples over {tally.busy:.3f} s of passing requests",
        f"req_s.p50 is the median of {samples} samples; req_s.tail is p{tail_pct:.1f} of them",
        f"setup_s is the median of {len(setup)} fresh imports",
        f"fail_ratio {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.6f}"
        f" ({tally.known} known defects of nablafrac 0.1.0)",
    ]
    return tally, metrics, notes


def _io_kind(span) -> str | None:
    if span[2] != "io":
        return None
    return "read" if span[1].split(".", 1)[1].startswith("read_") else "write"


def per_layer(name: str, seed: int, seconds: float) -> tuple[Tally, dict, list[str]]:
    """Alternate untraced and traced passes of cycle 0, as many pairs as fit ``seconds``.

    Every pass runs the same requests, so counts per pass repeat exactly; the
    untraced passes give the base of ``trace.overhead_ratio``.
    """
    tally, tracer = Tally(), Tracer()
    untraced = traced = 0.0
    passes = cycle_count(name, seconds / 2)
    t0 = time.perf_counter()
    for _ in range(passes):
        untraced += sum(tally.run(r) for r in cycle(name, seed, 0))
        requests = cycle(name, seed, 0)
        tracer.install()
        try:
            traced += sum(tally.run(r, tracer) for r in requests)
        finally:
            tracer.uninstall()
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.dump(spans_path, t0)

    self_s = {k: v / passes for k, v in tracer.self_times().items()}
    io_s = {k: v / passes for k, v in tracer.self_times(_io_kind).items()}
    calls, counts = tracer.calls(), tracer.counts
    metrics = {}
    for layer in ("grid", "solver", "stability", "monomial"):
        metrics[f"{layer}.calls"] = _metric(calls[layer] / passes, "count")
        metrics[f"{layer}.self_s"] = _metric(self_s.get(layer, 0.0), "s")
    for key in COUNTS:
        metrics[key] = _metric(counts[key] / passes, "bytes" if key.startswith("io.") else "count")
    grid_s = self_s.get("grid", 0.0)
    metrics["grid.terms_per_s"] = _metric(counts["grid.terms"] / passes / grid_s if grid_s else 0.0, "1/s")
    rows = counts["monomial.rows"] / calls["monomial"] if calls["monomial"] else 0.0
    metrics["monomial.row_reuse_ratio"] = _metric(rows, "ratio")
    metrics["io.read_s"] = _metric(io_s.get("read", 0.0), "s")
    metrics["io.write_s"] = _metric(io_s.get("write", 0.0), "s")
    metrics["cli.self_s"] = _metric(self_s.get("cli", 0.0), "s")
    metrics["trace.overhead_ratio"] = _metric(traced / untraced, "ratio")
    notes = [
        f"{passes} untraced and {passes} traced passes of cycle 0; values are per traced pass",
        f"spans written to {spans_path.relative_to(ROOT)}",
    ]
    return tally, metrics, notes


def machine() -> str:
    return (
        f"nproc {os.cpu_count()}; python {platform.python_version()}; numpy {np.__version__}; "
        f"click {metadata.version('click')}; BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}"
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    tally, metrics, notes = (per_layer if trace else end_to_end)(name, seed, seconds)
    print(f"== {name} seed {seed} ({'per-layer' if trace else 'end-to-end'}); {machine()}")
    for key, m in metrics.items():
        print(f"  {key:26s} {m['value']:<22.10g} {m['unit']}")
    for note in notes:
        print(f"  # {note}")
    for reason, times in tally.reasons.most_common(5):
        print(f"  ! {times} x {reason}", file=sys.stderr)
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def run_all(args: argparse.Namespace) -> dict:
    """Every workload in a fresh child process, so each peak_rss_mb is its own."""
    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with code {done.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_library()
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(OUT / f"work-{os.getpid()}", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
