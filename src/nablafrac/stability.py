"""Stability criterion, envelope bound, decay classification, order comparison.

For the lagged fractional equation of order 0 < nu < 1 the per-step
criterion |c(t) + nu| <= nu guarantees the envelope bound

    |E(t)| <= H_{nu-1}(t, rho(a))    for all t in N_a,

and the envelope tends to 0, so every solution does too.  The bound is tight:
c = 0 gives E equal to the envelope exactly.  ``bound_check`` verifies the
bound pointwise with slack 1e-12 * (1 + envelope) to absorb float rounding.

Finite traces cannot witness a limit, so decay classification is a windowed
heuristic with fixed thresholds: compared with the initial window and the
global maximum, the last window must drop below 0.5x the initial window's
maximum and 0.1x the global maximum to classify ``tends_to_zero``, and a
last-window maximum above 10x the first sample, or any non-finite sample
(an overflowed trace), classifies ``unbounded``.
``bound_check``, ``compare_orders`` and ``stability_scan`` take both the
class and the tail of every trace over the default window, a tenth of the
trace; only ``decay_classify`` and ``tail_exponent`` take the caller's
window.  Algebraic tails n^(nu-1) are slow, so classification runs want
n_max >= 2000; close to nu = 1 no desk-scale horizon can pass the 0.1x
clause (the envelope decays like n^(-0.1) at nu = 0.9).

The module steps equations through public solver functions only: each
report steps :func:`mittag_leffler_seq` or a solve, and a scan steps each
order as one batch (see :func:`stability_scan`).
A batch given to ``bound_check``, or to the solves behind
``compare_orders``, is refused with a ``ValueError`` before it is stepped.

``tail_stat`` reports the measured algebraic tail exponent: the log-log
slope of |u(n)| over the last window (about nu - 1 for envelope-like traces,
0 for oscillating or constant ones).  It is the least-squares slope in
closed form, masked to the window's usable points (see
:func:`tail_exponent`), with no ``np.polyfit`` and so no LAPACK call.  It is
diagnostic only; no acceptance claim is made about it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Sequence

import math

import numpy as np

from .grid import _integral
from .solver import (
    CoefficientLike,
    FirstOrderForm,
    LinearProblem,
    SolutionTrace,
    _check_unit_order,
    coefficient_array,
    envelope_sequence,
    mittag_leffler_seq,
    solve_general,
)

__all__ = [
    "BOUND_SLACK",
    "DecayClass",
    "OrderComparison",
    "ScanCell",
    "StabilityReport",
    "bound_check",
    "compare_orders",
    "criterion_check",
    "decay_classify",
    "default_window",
    "stability_scan",
    "tail_exponent",
]

BOUND_SLACK = 1e-12


class DecayClass(str, enum.Enum):
    TENDS_TO_ZERO = "tends_to_zero"
    BOUNDED_NONVANISHING = "bounded_nonvanishing"
    UNBOUNDED = "unbounded"


def default_window(trace_len: int) -> int:
    """Default classification window: a tenth of the trace, at least 1."""
    return max(1, trace_len // 10)


def _default_evidence(trace: np.ndarray) -> tuple[DecayClass | list[DecayClass], float | np.ndarray]:
    """The decay class and the tail of a trace over the default window.

    An (n, k) batch gives a list of k classes and an array of k tails, as
    :func:`decay_classify` and :func:`tail_exponent` give them.
    """
    window = default_window(len(trace))
    return decay_classify(trace, window), tail_exponent(trace, window)


def criterion_check(c: CoefficientLike, nu: float) -> np.ndarray:
    """Per-step booleans for |c(t) + nu| <= nu.

    For constant c this is the interval test -2 nu <= c <= 0.  Scalars give a
    single-element result.
    """
    _check_unit_order(nu)
    arr = np.atleast_1d(np.asarray(c, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"coefficients must be scalar or one-dimensional, got shape {arr.shape}")
    return np.abs(arr + nu) <= nu


def _columns(trace: Sequence[float] | np.ndarray) -> tuple[np.ndarray, bool]:
    """The trace as an (n, k) array of k columns, and whether it was one column.

    The array keeps its signs and is the caller's float64 array itself, not
    a copy: the classifiers take |u| of the windows they read, never of the
    whole batch.
    """
    arr = np.asarray(trace, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError(f"trace must be one-dimensional or (n, k), got shape {arr.shape}")
    return (arr[:, None], True) if arr.ndim == 1 else (arr, False)


def decay_classify(
    trace: Sequence[float] | np.ndarray, window: int
) -> DecayClass | list[DecayClass]:
    """Windowed decay classification with fixed thresholds (scale invariant).

    The trace must span at least two windows.  An identically zero trace
    classifies tends_to_zero; a trace with a non-finite sample, unbounded.
    An (n, k) trace holds k traces as columns and gives a list of k
    classes, each the class of its column alone.  ``window`` is an integer:
    2.0 or ``np.int64(2)`` is taken as 2, and 2.5 raises ``ValueError``.
    """
    arr, single = _columns(trace)
    # an integral float or NumPy integer is its int, as a base is
    window = _integral(window, "window")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if len(arr) < 2 * window:
        raise ValueError(f"trace of length {len(arr)} is shorter than two windows of {window}")
    # max |u| as the larger of max u and -min u: exact, nan wherever a
    # column holds a nan and inf wherever it holds an inf, as the maximum of
    # |u| is, with no copy of the batch
    global_max = np.maximum(arr.max(axis=0), -arr.min(axis=0))
    last_max = np.abs(arr[-window:]).max(axis=0)
    head_max = np.abs(arr[:window]).max(axis=0)
    first = np.abs(arr[0])
    first = np.where(first > 0.0, first, global_max)
    # a non-finite column's maxima may be nan, which compare false: the
    # finiteness of its global maximum alone decides it
    unbounded = ~np.isfinite(global_max) | (last_max > 10.0 * first)
    vanishing = (global_max == 0.0) | ((last_max < 0.5 * head_max) & (last_max < 0.1 * global_max))
    classes = [
        DecayClass.UNBOUNDED if up else
        DecayClass.TENDS_TO_ZERO if down else DecayClass.BOUNDED_NONVANISHING
        for up, down in zip(unbounded.tolist(), vanishing.tolist())
    ]
    return classes[0] if single else classes


def tail_exponent(trace: Sequence[float] | np.ndarray, window: int) -> float | np.ndarray:
    """Log-log slope of |u(n)| over the last window; nan when undefined.

    A window with a non-finite sample (inf or nan) gives nan: an overflowed
    trace has no algebraic tail.  Otherwise zero samples and the n = 0
    sample are excluded, and at least two usable points are needed for a
    slope.  An (n, k) trace gives an array of k slopes, one per column.
    ``window`` is an integer, taken as :func:`decay_classify` takes it.

    The slope is the least-squares one in closed form, each column about
    its own means over its usable points, x = log n and y = log |u(n)|:
    sum (x - mean x)(y - mean y) / sum (x - mean x)^2.  An excluded point
    enters every sum as an exact zero.  Each column is reduced as one
    contiguous row, so a batch gives each column, bit for bit, what its own
    call gives.
    """
    arr, single = _columns(trace)
    window = _integral(window, "window")
    if window < 1 or len(arr) < window:
        raise ValueError(f"window {window} does not fit a trace of length {len(arr)}")
    n = np.arange(len(arr))[-window:]
    # |u| over the window, its columns as contiguous rows
    v = np.abs(arr[-window:].T, order="C")
    usable = (v > 0.0) & (n > 0)
    count = usable.sum(axis=1)
    # log 1 = 0 fills every excluded point
    x = np.log(np.where(usable, n, 1))
    y = np.log(np.where(usable, v, 1.0))
    # a column with fewer than two usable points divides 0 by 0, and one
    # with an inf sample subtracts inf from inf
    with np.errstate(invalid="ignore"):
        dx = x - (x.sum(axis=1) / count)[:, None]
        dx[~usable] = 0.0
        slopes = (dx * (y - (y.sum(axis=1) / count)[:, None])).sum(axis=1) / (dx * dx).sum(axis=1)
    slopes[~np.isfinite(v).all(axis=1) | (count < 2)] = np.nan
    return float(slopes[0]) if single else slopes


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Criterion, bound, and classification diagnostics for one solve.

    Each array is indexed by the offset n = t - a from the solve's base a,
    which the report does not name: every bound holds for any base.
    """

    nu: float
    criterion_holds: np.ndarray
    bound_ok: np.ndarray
    decay_class: DecayClass
    tail_stat: float
    values: np.ndarray
    envelope: np.ndarray

    def __post_init__(self) -> None:
        # the report owns its arrays, so they are frozen in place, not copied
        for arr in (self.criterion_holds, self.bound_ok, self.values, self.envelope):
            arr.setflags(write=False)

    @property
    def criterion_all(self) -> bool:
        return bool(np.all(self.criterion_holds))

    @property
    def bound_all(self) -> bool:
        return bool(np.all(self.bound_ok))


def bound_check(c: CoefficientLike, nu: float, n_max: int) -> StabilityReport:
    """Run the lagged equation and check the envelope bound pointwise.

    bound_ok[n] tests |E(a+n)| <= H_{nu-1}(a+n, rho(a)) + 1e-12 (1 + H).
    When criterion_holds is all true, bound_ok must be all true; the converse
    does not hold (the criterion is sufficient, not necessary).  The values
    are :func:`mittag_leffler_seq`'s and the envelope is
    :func:`envelope_sequence`'s, both from offset 0; neither depends on the
    base a.  The decay class and the tail are taken over the default window.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    # the criterion refuses a batch before anything is stepped
    criterion_holds = criterion_check(coefficient_array(c, n_max), nu)
    values = mittag_leffler_seq(c, nu, n_max)
    envelope = envelope_sequence(nu, n_max)
    bound_ok = np.abs(values) <= envelope + BOUND_SLACK * (1.0 + envelope)
    decay_class, tail_stat = _default_evidence(values)
    return StabilityReport(
        nu=nu,
        criterion_holds=criterion_holds,
        bound_ok=bound_ok,
        decay_class=decay_class,
        tail_stat=tail_stat,
        values=values,
        envelope=envelope,
    )


@dataclass(frozen=True, eq=False)
class OrderComparison:
    """First-order and fractional solves of the same coefficient, side by side."""

    nu: float
    form: FirstOrderForm
    first_order: SolutionTrace
    fractional: SolutionTrace
    first_order_class: DecayClass
    fractional_class: DecayClass
    first_order_tail: float
    fractional_tail: float

    def verdict(self) -> dict:
        return {
            "kind": "comparison_verdict",
            "nu": self.nu,
            "form": self.form.value,
            "first_order": self.first_order_class.value,
            "fractional": self.fractional_class.value,
            "first_order_tail": _none_if_nan(self.first_order_tail),
            "fractional_tail": _none_if_nan(self.fractional_tail),
        }


def compare_orders(
    c: CoefficientLike,
    nu: float,
    form: FirstOrderForm | str,
    u0: float,
    n_max: int,
    base: int = 0,
) -> OrderComparison:
    """Solve one problem at two orders: the classical nabla and order ``nu``.

    The problem keeps the right-hand side of ``form``: ``on_u_lag`` is the
    lagged equation, ``on_u_t`` the undelayed one (p = c).  Its first-order
    trace is the same problem with order None.  Both decay classes and
    tails are taken over the default window.
    """
    form = FirstOrderForm(form)
    problem = LinearProblem(nu, base, *form.split(c), 0.0, u0)
    first = solve_general(replace(problem, nu=None), n_max)
    frac = solve_general(problem, n_max)
    first_order_class, first_order_tail = _default_evidence(first.values)
    fractional_class, fractional_tail = _default_evidence(frac.values)
    return OrderComparison(
        nu=nu,
        form=form,
        first_order=first,
        fractional=frac,
        first_order_class=first_order_class,
        fractional_class=fractional_class,
        first_order_tail=first_order_tail,
        fractional_tail=fractional_tail,
    )


@dataclass(frozen=True)
class ScanCell:
    """One (nu, c) cell of a stability scan."""

    nu: float
    c: float
    decay_class: DecayClass
    tail_stat: float


def stability_scan(nu_grid: Sequence[float], c_grid: Sequence[float], n_max: int) -> list[ScanCell]:
    """Classify the constant-coefficient lagged equation over a (nu, c) grid.

    All coefficients of one order are stepped as one batch: one
    :func:`mittag_leffler_seq` call on the (n_max, k) array whose every
    row is the c grid, a broadcast view of one row.  The batch shares the
    stepping core's history merges and micro-blocks, and each column
    solves its micro-blocks with its own block inverse, formed once per
    order.  Each column gets the values its own call would give it, up to
    the order of the sums.  The order's traces are then classified by one
    :func:`decay_classify` call and fitted by one :func:`tail_exponent`
    call on the (n_max + 1, k) batch, which give each trace bit for bit
    the class and the tail that calls on that trace alone give.  Every
    trace is classified and fitted over the default window.  Cells are
    returned in row-major order (nu outer, c inner).

    One order's batch is the largest array a scan holds: the merges
    transform a few of its columns at a time, and the classifiers take
    |u| of the windows they read only, so an order peaks at about 2.2
    times its batch, the block inverses and one merge chunk beside it.
    """
    nus = [float(nu) for nu in nu_grid]
    for nu in nus:
        _check_unit_order(nu)
    cs = coefficient_array(c_grid, len(c_grid))
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    # one row of memory for every order; a 2-D c grid makes a 3-D batch,
    # which mittag_leffler_seq refuses before it steps
    coeffs = np.broadcast_to(cs, (n_max,) + cs.shape)
    cells = []
    for nu in nus:
        # this order's traces are freed when the call returns, before the
        # next order steps its own
        classes, tails = _default_evidence(mittag_leffler_seq(coeffs, nu, n_max))
        cells += map(ScanCell, [nu] * len(cs), cs.tolist(), classes, tails.tolist())
    return cells


def _none_if_nan(x: float) -> float | None:
    return None if math.isnan(x) else float(x)

