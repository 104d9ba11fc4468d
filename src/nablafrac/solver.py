"""Method-of-steps solvers for linear nabla fractional difference equations.

All equations here use an order 0 < nu < 1 and are based at rho(a) = a - 1,
so the unknown lives on N_a = {a, a+1, ...} with a prescribed initial value
u(a) = u0.  The lagged model problem

    (nabla^nu_{rho(a)} u)(t) = c(t) u(t - 1),    t in N_{a+1},

unwinds, via the direct convolution form of the operator (whose lag-1 weight
is exactly 1), into the explicit step equation

    u(t) = c(t) u(t - 1) - sum_{s=a}^{t-1} H_{-nu-1}(t, rho(s)) u(s).

The normalized solution (u0 = 1) is the discrete Mittag-Leffler-type
sequence produced by :func:`mittag_leffler_seq`; by linearity every solution
is u0 times it, which the suite checks as the representation identity.  The
general form adds an undelayed term and a forcing,

    (nabla^nu_{rho(a)} u)(t) = p(t) u(t) + q(t) u(t - 1) + g(t),

and each step divides by the pivot 1 - p(t); a pivot within 1e-13 of zero
raises :class:`SingularStepError`.  A solve that overflows raises
:class:`DivergentSolutionError` at the first non-finite step, while
:func:`mittag_leffler_seq` returns such traces as they are.

First-order comparison equations come in two right-hand-side forms that are
deliberately kept separate, since they produce different solutions:
``on_u_lag`` is (nabla u)(t) = c(t) u(t-1) with step factor 1 + c(t), and
``on_u_t`` is (nabla u)(t) = c(t) u(t) with step factor 1/(1 - c(t)).
:meth:`FirstOrderForm.split` maps c onto (p, q), so both forms are the
general equation with the classical nabla on the left.  Its weight row
(1, -1) is the nu = 1 member of the direct weights, the coefficients of
(1 - z)^nu: the lag-2 weight -1 folds into q and no history term remains.
One stepping core serves both orders.

Every returned :class:`SolutionTrace` carries per-step residuals obtained by
re-applying the appropriate difference operator to the computed solution (for
the fractional solves this is the grid_ops direct form with the solution
mounted at index a, i.e. on N_{rho(a)+1}), plus the decay envelope
H_{nu-1}(t, rho(a)) for fractional solves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence, Union

import math

import numpy as np

from .grid import GridFunction, _require_finite, nabla_diff, nabla_frac_diff_direct
from .monomial import convolution_weights, monomial_sequence

__all__ = [
    "SINGULAR_PIVOT_TOL",
    "FirstOrderForm",
    "LinearProblem",
    "SingularStepError",
    "SolutionTrace",
    "coefficient_array",
    "envelope_sequence",
    "mittag_leffler_seq",
    "solve_lagged",
    "solve_general",
    "solve_first_order",
]

SINGULAR_PIVOT_TOL = 1e-13

CoefficientLike = Union[float, Sequence[float], np.ndarray]


class SingularStepError(RuntimeError):
    """A stepping pivot 1 - p(t) fell within SINGULAR_PIVOT_TOL of zero."""

    def __init__(self, t: int, pivot: float):
        super().__init__(
            f"singular step at t = {t}: |1 - p(t)| = {abs(pivot):.3e} "
            f"is below {SINGULAR_PIVOT_TOL:g}"
        )
        self.t = t
        self.pivot = pivot


class FirstOrderForm(str, enum.Enum):
    """Right-hand-side form of the first-order comparison equation."""

    ON_U_LAG = "on_u_lag"
    ON_U_T = "on_u_t"

    def split(self, c: CoefficientLike) -> tuple[CoefficientLike, CoefficientLike]:
        """The (p, q) of the right-hand side p(t) u(t) + q(t) u(t-1) for c."""
        return (0.0, c) if self is FirstOrderForm.ON_U_LAG else (c, 0.0)


def _check_unit_order(nu: float) -> None:
    if not math.isfinite(nu) or not 0.0 < nu < 1.0:
        raise ValueError(f"order must lie strictly in (0, 1), got {nu}")


def coefficient_array(c: CoefficientLike, n_max: int) -> np.ndarray:
    """Normalize a scalar or sequence coefficient to an array of length n_max.

    Entry i corresponds to the step at t = a + 1 + i.  A sequence must supply
    at least n_max finite entries; scalars broadcast.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    arr = np.asarray(c, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n_max, float(arr))
    elif arr.ndim == 1:
        if arr.size < n_max:
            raise ValueError(f"coefficient sequence has {arr.size} entries, need {n_max}")
        arr = arr[:n_max].astype(float)
    else:
        raise ValueError(f"coefficients must be scalar or one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coefficients must be finite")
    return arr


def envelope_sequence(nu: float, n_max: int) -> np.ndarray:
    """Decay envelope H_{nu-1}(a + n, rho(a)) for n = 0..n_max (offset n + 1).

    For 0 < nu < 1 it is positive, strictly decreasing and tends to 0 like
    n^(nu-1).
    """
    _check_unit_order(nu)
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    return monomial_sequence(nu - 1.0, n_max + 1)[1:]


def _solve_steps(
    p: np.ndarray,
    q: np.ndarray,
    g: np.ndarray,
    nu: float | None,
    u0: float,
    base: int,
) -> np.ndarray:
    """The stepping core, time-major: ``u[n]`` is the solution at offset n.

    Coefficients have shape (n_max,) or, to step k independent problems at
    once, (n_max, k); ``u`` then has shape (n_max + 1, k).  ``nu=None`` steps
    the classical nabla, whose lag-2 weight -1 is folded into q.  For
    fractional orders the history sum is one BLAS dot product per step (a
    vector-matrix product for k columns).
    """
    pivots = 1.0 - p
    singular = np.argwhere(np.abs(pivots) < SINGULAR_PIVOT_TOL)
    if singular.size:
        first = tuple(singular[0])
        raise SingularStepError(base + 1 + int(first[0]), float(pivots[first]))
    n_max = len(q)
    if nu is None:
        q = q + 1.0
    else:
        weights = convolution_weights(nu, n_max + 1)
    u = np.empty((n_max + 1,) + np.shape(q)[1:], dtype=float)
    u[0] = u0
    # an overflowing trace is reported by its callers (DivergentSolutionError,
    # or the scan's unbounded class), not by NumPy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_max + 1):
            step = q[n - 1] * u[n - 1] + g[n - 1]
            if nu is not None:
                # history term sum_{s=a}^{t-1} w(t - s + 1) u(s); lags n+1 down to 2
                step = step - np.dot(weights[n:0:-1], u[:n])
            u[n] = step / pivots[n - 1]
    return u


def mittag_leffler_seq(
    c: CoefficientLike, nu: float, n_max: int, base: int = 0
) -> np.ndarray:
    """Discrete Mittag-Leffler-type sequence for the lagged equation.

    Defined by E(a) = 1 and, for t in N_{a+1},

        E(t) = c(t) E(t - 1) - sum_{s=a}^{t-1} H_{-nu-1}(t, rho(s)) E(s).

    Values depend only on offsets, never on ``base`` (translation
    invariance); the base parameter exists so callers can keep their grids
    aligned.  Returns the values at offsets 0..n_max.
    """
    _check_unit_order(nu)
    carr = coefficient_array(c, n_max)
    zeros = np.zeros(n_max)
    return _solve_steps(zeros, carr, zeros, nu, 1.0, base)


@dataclass(frozen=True, eq=False)
class SolutionTrace:
    """Solution values on {base, ..., base + n_max} with diagnostics.

    ``residuals[n]`` is the absolute defect of the governing equation at
    t = base + n (0 at n = 0, where the initial condition sits instead).
    ``envelope`` and ``nu`` are None for first-order solves.
    """

    base: int
    values: np.ndarray
    residuals: np.ndarray
    envelope: np.ndarray | None
    nu: float | None

    def __post_init__(self) -> None:
        for name in ("values", "residuals") + (("envelope",) if self.envelope is not None else ()):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))


@dataclass(frozen=True, eq=False)
class LinearProblem:
    """General linear lagged problem based at rho(base).

    Coefficients may be scalars or sequences over t = base+1, base+2, ...;
    they are normalized at solve time, so a problem can be solved for any
    horizon its sequences cover.
    """

    nu: float
    base: int
    p: CoefficientLike
    q: CoefficientLike
    g: CoefficientLike
    u0: float

    def __post_init__(self) -> None:
        _check_unit_order(self.nu)


def _solve(
    p: CoefficientLike,
    q: CoefficientLike,
    g: CoefficientLike,
    nu: float | None,
    u0: float,
    n_max: int,
    base: int,
) -> SolutionTrace:
    """Solve (nabla^nu u)(t) = p(t)u(t) + q(t)u(t-1) + g(t); nu=None is the classical nabla."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    p, q, g = (coefficient_array(x, n_max) for x in (p, q, g))
    u = _solve_steps(p, q, g, nu, u0, base)
    _require_finite(u, base)
    # independent re-application; the direct operator based at rho(base)
    # consumes the solution mounted on N_base = N_{rho(base)+1}, and only its
    # last n_max values (t = base+1, ...) are equations, as with nabla_diff
    grid = GridFunction(base, u)
    applied = nabla_diff(grid) if nu is None else nabla_frac_diff_direct(grid, nu)
    residuals = np.zeros(u.size)
    residuals[1:] = np.abs(applied.values[-n_max:] - (p * u[1:] + q * u[:-1] + g))
    envelope = None if nu is None else envelope_sequence(nu, n_max)
    return SolutionTrace(base, u, residuals, envelope, nu)


def solve_lagged(
    c: CoefficientLike, nu: float, u0: float, n_max: int, base: int = 0
) -> SolutionTrace:
    """Solve (nabla^nu_{rho(a)} u)(t) = c(t) u(t-1), u(a) = u0, a = base."""
    _check_unit_order(nu)
    return _solve(0.0, c, 0.0, nu, u0, n_max, base)


def solve_general(problem: LinearProblem, n_max: int) -> SolutionTrace:
    """Solve (nabla^nu_{rho(a)} u)(t) = p(t)u(t) + q(t)u(t-1) + g(t), u(a) = u0.

    Each step solves for u(t) through the pivot 1 - p(t); raises
    :class:`SingularStepError` when the pivot is numerically zero and
    :class:`DivergentSolutionError` when the solution overflows.  With
    p = 0, g = 0 this reduces exactly (bit for bit) to :func:`solve_lagged`.
    """
    return _solve(problem.p, problem.q, problem.g, problem.nu, problem.u0, n_max, problem.base)


def solve_first_order(
    c: CoefficientLike,
    form: FirstOrderForm | str,
    u0: float,
    n_max: int,
    base: int = 0,
    g: CoefficientLike | None = None,
) -> SolutionTrace:
    """Solve the first-order comparison equation in the requested form.

    ``on_u_lag`` steps u(t) = (1 + c(t)) u(t-1) + g(t); ``on_u_t`` steps
    u(t) = (u(t-1) + g(t)) / (1 - c(t)) and raises SingularStepError when
    1 - c(t) is numerically zero.  The classical nabla sees only the previous
    point: memory 2, against the fractional operators' full memory.
    """
    p, q = FirstOrderForm(form).split(c)
    return _solve(p, q, 0.0 if g is None else g, None, u0, n_max, base)
