"""What holds across OpenBLAS kernels (README, "Numerical notes").

A DYNAMIC_ARCH OpenBLAS picks its kernel when it loads, and
``OPENBLAS_CORETYPE`` overrides the pick.  One child process per kernel
computes the catalogue below, and the test compares it with the catalogue
of this process, under the kernel it loaded.
"""

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nablafrac
from nablafrac import (
    GridFunction,
    mittag_leffler_seq,
    nabla_frac_diff_composed,
    nabla_frac_diff_direct,
    nabla_sum,
    solve_first_order,
    solve_lagged,
    stability_scan,
)

# each kernel a child runs, with the CPU flag its instructions need
_KERNELS = {"Haswell": "avx2", "SandyBridge": "avx", "Katmai": "sse"}
# byte-identical under every kernel: long-double heads and Python-float steps
_BYTES = ("nabla_sum", "diff_direct", "diff_composed", "first_order")
# each column within this share of its own max|u|
_SPREAD = 1e-14


def _catalogue() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(43)
    u = GridFunction(3, rng.standard_normal(600))
    c = rng.uniform(-1.2, -0.2, (2000, 3))
    scan = stability_scan((0.3, 0.6, 0.9), (-1.5, -0.5, 0.0, 0.1, 0.3), 400)
    return {
        "nabla_sum": nabla_sum(u, 0.7).values,
        "diff_direct": nabla_frac_diff_direct(u, 0.7).values,
        "diff_composed": nabla_frac_diff_composed(u, 0.7).values,
        "first_order": solve_first_order(-0.5, "on_u_lag", 1.0, 600).values,
        "fractional": solve_lagged(c[:, 0], 0.8, 1.0, 2000).values,
        "batch": mittag_leffler_seq(c, 0.6, 2000),
        "classes": np.array([cell.decay_class.value for cell in scan]),
    }


def _broken_promises(want: dict, got: dict) -> list[str]:
    broken = [name for name in _BYTES if want[name].tobytes() != got[name].tobytes()]
    for name in ("fractional", "batch"):
        spread = np.max(np.abs(got[name] - want[name]), axis=0) / np.max(np.abs(want[name]), axis=0)
        if not (spread <= _SPREAD).all():
            broken.append(f"{name} moved by {np.max(spread):.3g} of max|u|")
    if not np.array_equal(want["classes"], got["classes"]):
        broken.append("classes")
    return broken


def _kernels() -> list[str]:
    """The kernels to run, or a skip that says why there are none."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if "openblas" not in blas.get("name", "") or "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip(f"NumPy's BLAS is {blas.get('name')!r}, not a DYNAMIC_ARCH OpenBLAS")
    try:
        flags = next(line for line in Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("flags"))
    except (OSError, StopIteration):
        pytest.skip("no CPU flags to pick kernels by")
    kernels = [kernel for kernel, flag in _KERNELS.items() if flag in flags.split()]
    if not kernels:
        pytest.skip(f"the CPU runs none of the kernels {', '.join(_KERNELS)}")
    return kernels


def test_kernels_keep_the_documented_promises():
    kernels = _kernels()
    want = _catalogue()
    code = (
        f"import sys, numpy as np; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
        "from test_kernels import _catalogue; np.savez(sys.stdout.buffer, **_catalogue())"
    )
    src = str(Path(nablafrac.__file__).parents[1])
    children = {
        kernel: subprocess.Popen(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": kernel, "OPENBLAS_VERBOSE": "2"},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for kernel in kernels
    }
    broken = {}
    try:
        for kernel, child in children.items():
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, err.decode()
            # OpenBLAS loads another core for a name it does not know or does
            # not build (Prescott loads Katmai), and prints the one it loaded
            core = re.search(r"^Core: (\S+)", err.decode(), re.MULTILINE)
            loaded = core[1] if core else "(none printed)"
            assert loaded.lower() == kernel.lower(), f"OPENBLAS_CORETYPE={kernel} loaded core {loaded}"
            with np.load(io.BytesIO(out)) as got:
                broken[kernel] = _broken_promises(want, got)
    finally:
        for child in children.values():
            child.kill()
            child.wait()
    assert broken == {kernel: [] for kernel in kernels}
