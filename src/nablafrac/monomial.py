"""Nabla fractional Taylor monomials on integer half-lines.

The monomial of order ``mu`` based at ``a`` is the rising-factorial power

    H_mu(t, a) = Gamma(t - a + mu) / (Gamma(t - a) * Gamma(mu + 1)),

the discrete analogue of (t - a)^mu / Gamma(mu + 1).  Its value depends only
on the integer offset n = t - a.  Two conventions apply throughout:

* H_mu(a, a) = 0 for every order (offset 0), and
* H_mu is the zero function when mu is a negative integer.

Nothing here calls a gamma function.  All values come from the multiplicative
recurrence

    h(1) = 1,        h(k + 1) = h(k) * (k + mu) / k,

which is algebraically equal to the gamma ratio, never overflows at the
offsets this package touches, and has no poles to step around.  The
recurrence runs in extended precision internally so the returned float64
values stay correctly rounded even when the sequence grows like n^mu.

The convolution weights of the direct Riemann-Liouville difference of order
``nu`` are the monomials of order -nu - 1: weight(lag) = H_{-nu-1} at offset
``lag``.  For 0 < nu < 1 the lag-1 weight is exactly 1, the lag-2 weight is
exactly -nu, and every weight at lag >= 2 is strictly negative, which is what
makes the stability bound in :mod:`nablafrac.stability` work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MonomialParams",
    "monomial_value",
    "monomial_at",
    "monomial_limit_value",
    "monomial_sequence",
    "monomial_limit_sequence",
    "monomial_tail",
    "convolution_weight",
    "convolution_weights",
]


def _is_negative_integer(mu: float) -> bool:
    return mu < 0 and float(mu).is_integer()


def _check_order(mu: float) -> None:
    if not math.isfinite(mu):
        raise ValueError(f"monomial order must be finite, got {mu}")


def _recurrence_tail(mu: float, n_max: int) -> np.ndarray:
    """Raw recurrence values h(1), ..., h(n_max), with no order conventions."""
    if n_max < 1:
        return np.empty(0, dtype=float)
    out = np.empty(n_max, dtype=np.longdouble)
    out[0] = 1.0
    k = np.arange(1, n_max, dtype=np.longdouble)
    np.cumprod((k + np.longdouble(mu)) / k, out=out[1:])
    return out.astype(float)


@dataclass(frozen=True)
class MonomialParams:
    """Order/offset pair identifying the value H_mu(a + n, a)."""

    mu: float
    n: int

    def __post_init__(self) -> None:
        _check_order(self.mu)
        if self.n < 0:
            raise ValueError(f"offset must be nonnegative, got {self.n}")


def monomial_value(params: MonomialParams) -> float:
    """Evaluate H_mu(a + n, a) under the standard conventions.

    Offset 0 gives 0 for every order, and a negative integer order gives 0.
    """
    return float(monomial_sequence(params.mu, params.n)[-1])


def monomial_at(mu: float, t: int, a: int) -> float:
    """Evaluate H_mu(t, a) for t >= a; values depend only on t - a."""
    if t < a:
        raise ValueError(f"t = {t} lies before the base point {a}")
    return monomial_value(MonomialParams(mu, t - a))


def monomial_limit_value(mu: float, n: int) -> float:
    """The recurrence continuation of the monomial at order mu.

    Identical to :func:`monomial_value` except at negative integer orders,
    where the blanket zero convention is replaced by the limiting values of
    the recurrence: order -1 gives 1, 0, 0, ...; order -2 gives 1, -1, 0, ...
    This is the reference the power rule holds against at every offset; the
    zero convention only matches it from offset 2 on.
    """
    return float(monomial_limit_sequence(mu, n)[-1])


def monomial_sequence(mu: float, n_max: int) -> np.ndarray:
    """Values H_mu(a + n, a) for n = 0..n_max under the standard conventions."""
    out = monomial_limit_sequence(mu, n_max)
    if _is_negative_integer(mu):
        out[:] = 0.0
    return out


def monomial_limit_sequence(mu: float, n_max: int) -> np.ndarray:
    """Recurrence-continuation values for n = 0..n_max (see monomial_limit_value)."""
    _check_order(mu)
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    return np.concatenate(([0.0], _recurrence_tail(mu, n_max)))


def convolution_weight(nu: float, lag: int) -> float:
    """Weight of the direct order-nu difference at the given lag (H_{-nu-1}).

    For non-integer nu the lag-1 weight is exactly 1, the lag-2 weight is
    exactly -nu, and when 0 < nu < 1 every weight at lag >= 2 is strictly
    negative.  The order -nu-1 is formed in extended precision so the lag-2
    identity holds to the last bit even when nu itself is not dyadic.
    """
    return float(convolution_weights(nu, lag)[-1])


def convolution_weights(nu: float, max_lag: int) -> np.ndarray:
    """Weights at lags 1..max_lag of the direct order-nu difference."""
    _check_order(nu)
    if nu <= 0:
        raise ValueError(f"order must be positive, got {nu}")
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    if float(nu).is_integer():
        return np.zeros(max_lag, dtype=float)
    return _recurrence_tail(-np.longdouble(nu) - 1.0, max_lag)


def monomial_tail(mu: float, n_max: int) -> np.ndarray:
    """The sequence H_{mu-1}(a + n, a), n = 1..n_max, for 0 < mu < 1.

    In that order range the tail is positive, nonincreasing, and tends to 0
    like n^(mu-1); the boundary orders 0 and 1 are excluded because the decay
    statement fails there (the order-1 tail is constant).
    """
    if not 0.0 < mu < 1.0:
        raise ValueError(f"tail order must lie strictly in (0, 1), got {mu}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return _recurrence_tail(mu - 1.0, n_max)
