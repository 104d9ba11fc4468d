"""Exact-rational twins of the floating-point kernels.

Every recurrence in this package is closed over the rationals: the monomial
recurrence multiplies by (k + mu)/k, the operators are finite convolutions,
and the steppers divide by 1 - p(t).  Running the same recurrences with
:class:`fractions.Fraction` therefore gives exact reference values, which the
test suite freezes and compares against the float64 implementations.

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
    "oracle_mittag_leffler",
    "oracle_solve",
    "oracle_first_order",
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
    big-integer products instead of a gcd per step.
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


def oracle_weight_row(nu: RationalLike, max_lag: int) -> list[Fraction]:
    """Exact weights at lags 1..max_lag."""
    mu = -_as_fraction(nu) - 1
    row = [Fraction(1)]
    for k in range(1, max_lag):
        row.append(row[-1] * (k + mu) / k)
    return row[:max_lag]


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
    v = [_as_fraction(x) for x in values]
    kernel = [oracle_monomial(_as_fraction(nu) - 1, lag) for lag in range(1, len(v) + 1)]
    out = [Fraction(0)]
    for k in range(1, len(v) + 1):
        out.append(sum(kernel[k - j - 1] * v[j] for j in range(k)))
    return out


def oracle_frac_diff_direct(values: Sequence[RationalLike], nu: RationalLike) -> list[Fraction]:
    """Exact direct-form difference; input on {a+1, ...}, output on {a+1, ...}."""
    nu = _as_fraction(nu)
    if nu <= 0 or nu.denominator == 1:
        raise ValueError(f"direct form needs a positive non-integer order, got {nu}")
    v = [_as_fraction(x) for x in values]
    w = oracle_weight_row(nu, len(v))
    return [sum(w[m - i] * v[i] for i in range(m + 1)) for m in range(len(v))]


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


def oracle_mittag_leffler(
    c: RationalLike | Sequence[RationalLike], nu: RationalLike, n_max: int
) -> list[Fraction]:
    """Exact Mittag-Leffler-type sequence: E(0) = 1 and the lagged recursion."""
    nu = _as_fraction(nu)
    if not 0 < nu < 1:
        raise ValueError(f"order must lie in (0, 1), got {nu}")
    coeff = _coefficients(c, n_max)
    w = oracle_weight_row(nu, n_max + 1)
    seq = [Fraction(1)]
    for n in range(1, n_max + 1):
        inner = sum(w[n - k] * seq[k] for k in range(n))
        seq.append(coeff[n - 1] * seq[n - 1] - inner)
    return seq


def oracle_solve(
    nu: RationalLike,
    p: RationalLike | Sequence[RationalLike],
    q: RationalLike | Sequence[RationalLike],
    g: RationalLike | Sequence[RationalLike],
    u0: RationalLike,
    n_max: int,
) -> list[Fraction]:
    """Exact method-of-steps solve of the general lagged linear equation.

    Guarded at n_max <= 100: rational bit sizes grow superlinearly.
    Raises on an exactly singular step 1 - p(t) = 0.
    """
    if n_max > SOLVE_COST_GUARD:
        raise ValueError(f"n_max = {n_max} exceeds the oracle cost guard {SOLVE_COST_GUARD}")
    nu = _as_fraction(nu)
    if not 0 < nu < 1:
        raise ValueError(f"order must lie in (0, 1), got {nu}")
    pp = _coefficients(p, n_max)
    qq = _coefficients(q, n_max)
    gg = _coefficients(g, n_max)
    w = oracle_weight_row(nu, n_max + 1)
    u = [_as_fraction(u0)]
    for n in range(1, n_max + 1):
        pivot = 1 - pp[n - 1]
        if pivot == 0:
            raise ValueError(f"singular step at offset {n}: 1 - p(t) = 0")
        inner = sum(w[n - k] * u[k] for k in range(n))
        u.append((qq[n - 1] * u[n - 1] + gg[n - 1] - inner) / pivot)
    return u


def oracle_first_order(
    c: RationalLike | Sequence[RationalLike],
    form: str,
    u0: RationalLike,
    n_max: int,
    g: RationalLike | Sequence[RationalLike] = 0,
) -> list[Fraction]:
    """Exact first-order stepping for both right-hand-side forms."""
    coeff = _coefficients(c, n_max)
    force = _coefficients(g, n_max)
    u = [_as_fraction(u0)]
    for n in range(1, n_max + 1):
        if form == "on_u_lag":
            u.append((1 + coeff[n - 1]) * u[n - 1] + force[n - 1])
        elif form == "on_u_t":
            pivot = 1 - coeff[n - 1]
            if pivot == 0:
                raise ValueError(f"singular step at offset {n}: 1 - c(t) = 0")
            u.append((u[n - 1] + force[n - 1]) / pivot)
        else:
            raise ValueError(f"unknown form {form!r}")
    return u
