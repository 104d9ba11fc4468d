"""Exact-rational twins of the floating-point kernels.

Every recurrence in this package is closed over the rationals: the monomial
rows multiply by (k + mu)/k, the operators are causal convolutions with
those rows, and the stepper divides by 1 - p(t).  Running the same
recurrences with :class:`fractions.Fraction` therefore gives exact reference
values, which the test suite freezes and compares against the float64
implementations.

Each object has one exact kernel.  One recurrence forms every row: the
weights of the direct difference (order -nu - 1) and the fractional sum's
kernel (order nu - 1); :func:`oracle_monomial`'s closed form is its
independent check.  One causal convolution applies the sum and the direct
difference.  One stepper, :func:`oracle_solve`, steps the lagged equation at
a fractional order or, with ``nu`` None, at the classical nabla, whose row
is 1, -1, 0, ...: the Mittag-Leffler-type sequence is
``oracle_solve(nu, 0, c, 0, 1, n)`` and the first-order step
u(t) = (1 + c) u(t-1) + g is ``oracle_solve(None, 0, c, g, u0, n)``.

These functions are deliberately small-n tools: rational numerators and
denominators grow quickly, so ``oracle_solve`` enforces a cost guard.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

__all__ = [
    "oracle_monomial",
    "oracle_weight_row",
    "oracle_nabla_diff_n",
    "oracle_nabla_sum",
    "oracle_frac_diff_direct",
    "oracle_frac_diff_composed",
    "oracle_solve",
]

RationalLike = Fraction | int

SOLVE_COST_GUARD = 100


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, float):
        raise TypeError("oracle inputs must be exact rationals, not floats")
    return Fraction(x)


def oracle_monomial(mu: RationalLike, n: int) -> Fraction:
    """Exact h(n) with h(0) = 0, h(1) = 1, h(k+1) = h(k)(k + mu)/k.

    With mu = m/d, h(n) is the product of (k d + m) over the product of k d for
    k = 1..n-1, formed as two integers and reduced once, so long offsets cost
    big-integer products instead of a gcd per step.  It is the closed form
    that checks the rows of :func:`_row`.
    """
    mu = _as_fraction(mu)
    if mu < 0 and mu.denominator == 1:
        raise ValueError(f"order {mu} is a negative integer; the recurrence degenerates")
    if n < 0:
        raise ValueError(f"offset must be nonnegative, got {n}")
    if n == 0:
        return Fraction(0)
    m, d = mu.numerator, mu.denominator
    return Fraction(math.prod(k * d + m for k in range(1, n)), math.factorial(n - 1) * d ** (n - 1))


def _row(mu: Fraction, n: int) -> list[Fraction]:
    """h(1), ..., h(n) of the monomial recurrence, one step at a time."""
    row = [Fraction(1)]
    for k in range(1, n):
        row.append(row[-1] * (k + mu) / k)
    return row[:n]


def _convolve(kernel: list[Fraction], v: list[Fraction]) -> list[Fraction]:
    """The causal convolution: entry m is the sum of kernel[m - j] v[j] over j <= m."""
    return [sum(kernel[m - j] * v[j] for j in range(m + 1)) for m in range(len(v))]


def oracle_weight_row(nu: RationalLike, max_lag: int) -> list[Fraction]:
    """Exact weights at lags 1..max_lag: the row of order -nu - 1."""
    return _row(-_as_fraction(nu) - 1, max_lag)


def oracle_nabla_diff_n(values: Sequence[RationalLike], order: int) -> list[Fraction]:
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    out = [_as_fraction(v) for v in values]
    for _ in range(order):
        if len(out) < 2:
            raise ValueError("not enough points for the difference")
        out = [out[i] - out[i - 1] for i in range(1, len(out))]
    return out


def oracle_nabla_sum(values: Sequence[RationalLike], nu: RationalLike) -> list[Fraction]:
    """Exact fractional sum; input on {a+1, ...}, output on {a, ...} with 0 first."""
    nu = _as_fraction(nu)
    if nu <= 0:
        raise ValueError(f"fractional sum needs a positive order, got {nu}")
    v = [_as_fraction(x) for x in values]
    return [Fraction(0)] + _convolve(_row(nu - 1, len(v)), v)


def oracle_frac_diff_direct(values: Sequence[RationalLike], nu: RationalLike) -> list[Fraction]:
    """Exact direct-form difference; input on {a+1, ...}, output on {a+1, ...}."""
    nu = _as_fraction(nu)
    if nu <= 0 or nu.denominator == 1:
        raise ValueError(f"direct form needs a positive non-integer order, got {nu}")
    v = [_as_fraction(x) for x in values]
    return _convolve(oracle_weight_row(nu, len(v)), v)


def oracle_frac_diff_composed(
    values: Sequence[RationalLike], nu: RationalLike
) -> tuple[int, list[Fraction]]:
    """Exact composed-form difference.

    Returns ``(first_offset, out)`` where ``first_offset`` is the offset of
    the first output point from the operator base point a (the input covers
    offsets 1..len(values)).
    """
    nu = _as_fraction(nu)
    if nu <= 0:
        raise ValueError(f"order must be positive, got {nu}")
    if nu.denominator == 1:
        order = int(nu)
        return order + 1, oracle_nabla_diff_n(values, order)
    order = math.ceil(nu)
    inner = oracle_nabla_sum(values, order - nu)
    return order, oracle_nabla_diff_n(inner, order)


def _coefficients(c: RationalLike | Sequence[RationalLike], n_max: int) -> list[Fraction]:
    if isinstance(c, (Fraction, int)):
        return [_as_fraction(c)] * n_max
    out = [_as_fraction(x) for x in c]
    if len(out) < n_max:
        raise ValueError(f"coefficient sequence has {len(out)} entries, need {n_max}")
    return out[:n_max]


def oracle_solve(
    nu: RationalLike | None,
    p: RationalLike | Sequence[RationalLike],
    q: RationalLike | Sequence[RationalLike],
    g: RationalLike | Sequence[RationalLike],
    u0: RationalLike,
    n_max: int,
) -> list[Fraction]:
    """Exact method-of-steps solve of the general lagged linear equation.

    Steps nabla^nu u(t) = p(t) u(t) + q(t) u(t-1) + g(t) from u(a) = u0 at an
    order 0 < nu < 1 or, with ``nu`` None, at the classical nabla, through
    the order-1 row 1, -1, 0, ...  Guarded at n_max <= 100: rational bit
    sizes grow superlinearly.  Raises on an exactly singular step
    1 - p(t) = 0.
    """
    if n_max > SOLVE_COST_GUARD:
        raise ValueError(f"n_max = {n_max} exceeds the oracle cost guard {SOLVE_COST_GUARD}")
    if nu is not None and not 0 < _as_fraction(nu) < 1:
        raise ValueError(f"order must lie in (0, 1), got {nu}")
    pp, qq, gg = (_coefficients(x, n_max) for x in (p, q, g))
    w = oracle_weight_row(1 if nu is None else nu, n_max + 1)
    u = [_as_fraction(u0)]
    for n in range(1, n_max + 1):
        pivot = 1 - pp[n - 1]
        if pivot == 0:
            raise ValueError(f"singular step at offset {n}: 1 - p(t) = 0")
        inner = sum(w[n - k] * u[k] for k in range(n))
        u.append((qq[n - 1] * u[n - 1] + gg[n - 1] - inner) / pivot)
    return u
