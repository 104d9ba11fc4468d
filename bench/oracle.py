"""Output checks that do not call the library.

Every reference here is rebuilt from the definitions with the benchmark's own
weight rows, convolved by ``np.convolve`` or, for fractional traces, by FFT:

* the direct weights w(1) = 1, w(k+1) = w(k) (k - nu - 1) / k;
* the fractional-sum kernel h(1) = 1, h(k+1) = h(k) (k + nu - 1) / k;
* the envelope H_{nu-1} at offsets 1, 2, ..., which is that same kernel.

A fractional trace u(a), ..., u(a+N) passes when it satisfies its own
equation, sum_{j<=n} w(n-j+1) u(j) = rhs(n) for n = 1..N, with a residual below
``RESIDUAL_TOL`` times max(|u0|, max |u|): the 1e-9 residual bound of
acceptance 4, scaled by the trace's magnitude the way acceptance 4 scales its
comparisons; these rows and convolutions are float64.  The trace residual is
convolved by FFT: its rounding error, about 1e-16 x log2(N) x ||w|| ||u||, stays
below 1e-12 x max |u| at N = 40000, far under the tolerance, and it costs
O(N log N) where ``np.convolve`` costs O(N^2), which at the long horizons
outlasts the timed requests.  A first-order trace
must satisfy its one-step recurrence to the same tolerance.  Operator results
must match a direct convolution, done in extended precision, to ``APPLY_TOL``
relative (floor 1), as in acceptance 2.  Scan classes are compared with
``scan_reference.csv``.

Each check returns None when the output passes, else a short reason.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

RESIDUAL_TOL = 1e-9
APPLY_TOL = 1e-10
ENVELOPE_TOL = 1e-10
BOUND_SLACK = 1e-12
SCAN_REFERENCE = Path(__file__).with_name("scan_reference.csv")


def recurrence_row(mu: float, length: int, dtype=np.float64) -> np.ndarray:
    """h(1), ..., h(length) of h(1) = 1, h(k+1) = h(k) (k + mu) / k."""
    k = np.arange(1, length, dtype=dtype)
    return np.concatenate(([dtype(1)], np.cumprod((k + dtype(mu)) / k)))


def direct_weights(nu: float, length: int, dtype=np.float64) -> np.ndarray:
    return recurrence_row(-nu - 1.0, length, dtype)


def envelope(nu: float, length: int, dtype=np.float64) -> np.ndarray:
    return recurrence_row(nu - 1.0, length, dtype)


def _residual_problem(u: np.ndarray, u0: float, lhs, c, form: str) -> str | None:
    """Compare lhs(n), n = 1..N, with c(n) u(n-1) (on_u_lag) or c(n) u(n) (on_u_t)."""
    if u.size < 2:
        return f"trace has {u.size} values"
    if not np.all(np.isfinite(u)):
        return f"non-finite value at n = {int(np.argmin(np.isfinite(u)))}"
    if u[0] != u0:
        return f"u(a) = {u[0]!r}, expected {u0!r}"
    c = np.broadcast_to(np.asarray(c, dtype=float), (u.size - 1,))
    rhs = c * (u[:-1] if form == "on_u_lag" else u[1:])
    worst = float(np.max(np.abs(lhs(u) - rhs)))
    tol = RESIDUAL_TOL * max(abs(u0), float(np.max(np.abs(u))))
    return None if worst <= tol else f"residual {worst:.3e} > {tol:.3e}"


def convolve_head(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The first len(v) terms of the linear convolution w * v, by FFT.

    v is scaled by a power of two near its largest value, exactly, so a trace
    close to the float64 limit does not overflow inside the transform.
    """
    exponent = np.frexp(np.max(np.abs(v)))[1]
    size = 1 << (w.size + v.size - 2).bit_length()
    head = np.fft.irfft(np.fft.rfft(w, size) * np.fft.rfft(np.ldexp(v, -exponent), size), size)[: v.size]
    return np.ldexp(head, exponent)


def check_fractional_trace(u, nu: float, u0: float, c, form: str) -> str | None:
    """u(a..a+N) against its equation sum_j w(n-j+1) u(j) = rhs(n)."""
    u = np.asarray(u, dtype=float)
    return _residual_problem(u, u0, lambda v: convolve_head(direct_weights(nu, v.size), v)[1:], c, form)


def check_first_order_trace(u, u0: float, c, form: str) -> str | None:
    """u against its one-step recurrence u(n) - u(n-1) = rhs(n)."""
    return _residual_problem(np.asarray(u, dtype=float), u0, np.diff, c, form)


def check_envelope(got, nu: float) -> str | None:
    got = np.asarray(got, dtype=float)
    want = envelope(nu, got.size)
    worst = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))
    return None if worst <= ENVELOPE_TOL else f"envelope off by {worst:.3e}"


def check_bound(values, nu: float) -> str | None:
    """|E(a+n)| <= H_{nu-1}(a+n, rho(a)) + slack, which the criterion guarantees."""
    values = np.asarray(values, dtype=float)
    env = envelope(nu, values.size)
    over = np.abs(values) > env + BOUND_SLACK * (1.0 + env)
    return None if not over.any() else f"bound broken at n = {int(np.argmax(over))}"


def expected_apply(op: str, nu: float | None, base: int, u: np.ndarray) -> tuple[int, np.ndarray]:
    """Base and values of ``nablafrac apply --op op`` on samples u(base), ...

    Rows and convolutions run in extended precision: at 5000 points a float64
    convolution of a growing sum kernel is itself off by up to 1e-10
    relative, the whole tolerance.
    """
    if op == "nabla":
        return base + 1, np.diff(u)
    if op == "diff-composed" and float(nu).is_integer():
        return base + int(nu), np.diff(u, int(nu))
    ext = np.asarray(u, dtype=np.longdouble)
    if op == "diff-direct":
        return base, np.convolve(direct_weights(nu, u.size, np.longdouble), ext)[: u.size].astype(float)
    # the order-s sum lives on {base-1, ...}: 0 there, then the H_{s-1} convolution
    order = int(np.ceil(nu)) if op == "diff-composed" else 0
    s = order - nu if order else nu
    summed = np.concatenate(([0.0], np.convolve(envelope(s, u.size, np.longdouble), ext)[: u.size]))
    if op == "sum":
        return base - 1, summed.astype(float)
    return base - 1 + order, np.diff(summed, order).astype(float)


def check_apply(op: str, nu: float | None, base: int, u, got_base: int, got) -> str | None:
    want_base, want = expected_apply(op, nu, base, np.asarray(u, dtype=float))
    got = np.asarray(got, dtype=float)
    if got_base != want_base or got.size != want.size:
        return f"domain base {got_base} size {got.size}, expected base {want_base} size {want.size}"
    worst = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))
    return None if worst <= APPLY_TOL else f"relative error {worst:.3e} > {APPLY_TOL:g}"


def load_scan_reference(path: Path = SCAN_REFERENCE) -> dict[tuple[float, float], tuple[str, bool]]:
    """(class, whether its trace overflows) of every reference cell."""
    with open(path, newline="") as stream:
        return {
            (float(r["nu"]), float(r["c"])): (r["decay_class"], r["overflows"] == "1")
            for r in csv.DictReader(stream)
        }


def scan_mismatches(
    got: dict[tuple[float, float], str], reference: dict[tuple[float, float], str]
) -> list[tuple[float, float]]:
    """Reference cells whose class is missing from or different in ``got``."""
    return [cell for cell, want in reference.items() if got.get(cell) != want]
