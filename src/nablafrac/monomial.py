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

which is algebraically equal to the gamma ratio and has no poles to step
around.  Each call forms one order's row by one ``np.cumprod`` in
``np.longdouble``, rounded to float64 once at the end.  The rows are not
always correctly rounded.  They were checked against the exact rationals
of :func:`nablafrac.exact.oracle_monomial` at 10 orders from -1.75 to 4.9
and 110 offsets up to 40000, with x86-64's 80-bit long double.  The values
up to offset 1000 were correctly rounded, and the others within 1 ulp up
to offset 5000, 2 ulps up to 10000 and 7 ulps up to 40000.  The same
recurrence in float64, as where ``np.longdouble`` is 64-bit, was off by
about 100 ulps at offset 1000 and 1000-2000 ulps at 40000 (orders 0.3 and
2.7).  A compensated float64 product would round every value correctly
(ROADMAP.md, direction 2).  A value past the float64 range is inf, as in
``monomial_sequence(1e308, 3)`` or ``monomial_sequence(400.0, 40000)``;
the callers report it.

The decay envelope H_{nu-1} and the fractional sum's kernel take the
recurrence continuation (:func:`monomial_limit_sequence`), not the zero
convention: an order nu so small that nu - 1 rounds to -1 gives them
1, 0, 0, ..., their order-0 limit.

The convolution weights of the direct Riemann-Liouville difference of order
``nu`` are the monomials of order -nu - 1: weight(lag) = H_{-nu-1} at offset
``lag``; their signs (see :func:`convolution_weights`) are what makes the
stability bound in :mod:`nablafrac.stability` work.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

__all__ = [
    "monomial_sequence",
    "monomial_limit_sequence",
    "convolution_weights",
]


def _scalar(value, name: str, kind: str) -> numbers.Real:
    """``value`` as a real scalar: the first step of :func:`_integral` and :func:`_real`.

    A NumPy scalar or 0-d array is judged as its Python value.  Anything
    that is not a ``numbers.Real`` (a string, None, a sequence, a
    ``Decimal``, a complex) raises ``TypeError: {name} must be {kind}``.
    """
    if isinstance(value, (np.ndarray, np.generic)) and value.ndim == 0:
        value = value.item()
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be {kind}, got {value!r}")
    return value


def _integral(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int: the one check of every count and index argument.

    An int, a bool (0 or 1, as Python takes it), an integral float, or a
    NumPy scalar or 0-d array of one is returned as its int: 2.0,
    ``np.int64(2)`` and ``np.array(2.0)`` are 2.  A real that is not an
    integer (2.5, nan, inf) raises ``ValueError``, and anything else (a
    string, None, a sequence, a complex) ``TypeError``, both saying
    ``{name} must be an integer``.  A value below ``minimum`` raises
    ``ValueError``: ``{name} must be >= {minimum}``.  Nothing of the size
    that ``value`` names is formed, so a count too large to allocate fails
    where its array is made.
    """
    value = _scalar(value, name, "an integer")
    if not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _real(value, name: str, low: float = -math.inf, high: float = math.inf) -> float:
    """``value`` as a Python float in (low, high): the one check of every order and ``u0``.

    A real, or a NumPy scalar or 0-d array of one, is rounded to float64
    once: ``np.float32(0.1)`` is ``float(np.float32(0.1))`` and
    ``Fraction(1, 2)`` is 0.5.  A value outside the open interval (nan, or
    an int too large for a float, among them) raises ``ValueError`` naming
    the argument: ``{name} must be finite`` when unbounded, ``must be
    positive and finite`` when bounded below by 0 only, and otherwise
    ``must lie strictly in (low, high)``.  Anything that is not a real
    raises ``TypeError``: ``{name} must be a real number``.
    """
    value = _scalar(value, name, "a real number")
    # an int or a fraction past the float range is an infinity here, where
    # float() would raise OverflowError; nan fails the comparison and stays nan
    x = (math.inf if value > 0 else -math.inf) if abs(value) > sys.float_info.max else float(value)
    if not low < x < high:
        words = "be finite" if low == -math.inf else "be positive and finite" if high == math.inf else None
        raise ValueError(f"{name} must {words or f'lie strictly in ({low:g}, {high:g})'}, got {x}")
    return x


def _real_array(values, name: str) -> np.ndarray:
    """``values`` as a float64 array: the one check of every array argument.

    Bool, integer and float arrays, and scalars and sequences of such
    numbers, are taken; a float64 array is returned as it is, not copied,
    so a broadcast view stays one.  Any other dtype (strings, complex, or
    objects such as None, ``Decimal`` or an int past 64 bits) raises
    ``TypeError: {name} must be real numbers``.  Shape and finiteness are
    the caller's to check.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        raise TypeError(f"{name} must be real numbers, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def _is_negative_integer(mu: float) -> bool:
    return mu < 0 and float(mu).is_integer()


def _recurrence_tail(mu: float, n_max: int) -> np.ndarray:
    """Raw recurrence values h(1), ..., h(n_max), with no order conventions."""
    if n_max < 1:
        return np.empty(0, dtype=float)
    out = np.empty(n_max, dtype=np.longdouble)
    out[0] = 1.0
    k = np.arange(1, n_max, dtype=np.longdouble)
    # the ratios (k + mu) / k, formed in place: no temporary long-double row
    ratios = np.add(k, np.longdouble(mu), out=out[1:])
    ratios /= k
    # a value past the float64 range, or past the long double one, becomes
    # inf, which callers report
    with np.errstate(over="ignore"):
        np.cumprod(ratios, out=ratios)
        return out.astype(float)


def monomial_sequence(mu: float, n_max: int) -> np.ndarray:
    """Values H_mu(a + n, a) for n = 0..n_max under the standard conventions.

    Offset 0 gives 0 for every order, and a negative integer order gives 0 at
    every offset.
    """
    out = monomial_limit_sequence(mu, n_max)
    if _is_negative_integer(mu):
        out[:] = 0.0
    return out


def monomial_limit_sequence(mu: float, n_max: int) -> np.ndarray:
    """The recurrence continuation of the monomial for n = 0..n_max.

    Identical to :func:`monomial_sequence` except at negative integer orders,
    where the blanket zero convention is replaced by the limiting values of
    the recurrence: order -1 gives 0, 1, 0, 0, ...; order -2 gives
    0, 1, -1, 0, ...  This is the reference the power rule holds against at
    every offset; the zero convention only matches it from offset 2 on.
    """
    mu = _real(mu, "monomial order")
    return np.concatenate(([0.0], _recurrence_tail(mu, _integral(n_max, "n_max", 0))))


def convolution_weights(nu: float, max_lag: int) -> np.ndarray:
    """Weights at lags 1..max_lag of the direct order-nu difference (H_{-nu-1}).

    For non-integer nu the lag-1 weight is exactly 1, the lag-2 weight is
    exactly -nu, and when 0 < nu < 1 every weight at lag >= 2 is strictly
    negative.  The order -nu-1 is formed in extended precision so the lag-2
    identity holds to the last bit even when nu itself is not dyadic.
    """
    nu = _real(nu, "order", 0.0)
    max_lag = _integral(max_lag, "max_lag", 1)
    if nu.is_integer():
        return np.zeros(max_lag, dtype=float)
    return _recurrence_tail(-np.longdouble(nu) - 1.0, max_lag)
