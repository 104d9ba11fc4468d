"""Grid functions on integer half-lines and the nabla operators acting on them.

A :class:`GridFunction` stores samples u(base), u(base+1), ... together with
the explicit ``base`` index; nothing is ever zero-filled implicitly.  Every
operator returns a GridFunction based at its first defined point.  The
fractional operators follow the usual convention that the input lives on
N_{a+1} = {a+1, a+2, ...} where ``a = u.base - 1`` is the operator's base
point:

* ``nabla_sum`` (order nu > 0) returns values on N_a, with the conventional
  value 0 at a itself;
* ``nabla_frac_diff_direct`` (order nu > 0 non-integer) is the one-shot
  convolution with the H_{-nu-1} weight row, defined on N_{a+1};
* ``nabla_frac_diff_composed`` is the N-th classical difference of the
  (N - nu)-th sum, N = ceil(nu), defined on N_{a+N}; an exactly integer nu
  routes to the classical difference of the given samples.

Direct and composed agree on their common domain; the suite checks this both
in floating point and in exact rational arithmetic.

Because the direct weight row is nonzero at every lag for non-integer nu,
the value (nabla^nu u)(t) depends on every sample u(a+1), ..., u(t): the
operator has full memory t - a, in contrast to the two-point classical
nabla.  Each operator output is therefore one causal convolution, of which
only the first n terms, the head, are formed (:func:`_convolve_head`):

* Near/far split.  One ``np.convolve`` of the first ``_BLOCK`` (256)
  weights with all of the input sums every lag below ``_BLOCK``.  An input
  of at most ``_BLOCK`` points has no other lag, so its head is that one
  ``np.convolve``, bit-identical to the unsplit convolution.
* Block-causal merges.  At every multiple e of ``_BLOCK``, with 2^i the
  largest power of two dividing e / ``_BLOCK``, the last ``_BLOCK * 2^i``
  points before e add their lags from ``_BLOCK`` on to the next as many
  points, or to those left before n, by one real FFT (:func:`_far_lags`).
  Each earlier block meets each later one at exactly one merge, no output
  reads a later input, and the head costs O(n log^2 n) beyond the near
  lags' O(256 n).  The solver's stepping core runs the same merge on the
  same schedule over its history, on leaves of 512 points.
* Transform length.  A merge of b points into the next b transforms 2b
  points.  The last merge, which feeds only the count points left, takes
  the smallest 2^k, 3 * 2^k or 5 * 2^k of at least b + count points,
  never more than 2b: 5120 points at n = 5000, not 8192.
* Accumulation dtype.  The operators sum in ``np.longdouble``: products,
  sums and the FFTs carry its precision (NumPy >= 2.0 transforms long
  double natively), and only the final values are rounded to float64.  A
  head longer than ``_BLOCK`` agrees with the unsplit one to the
  long-double FFT's rounding, far below float64's.  A solve's residual
  column runs the same head in float64.
* Power-of-two scaling.  A dtype with float64's exponent range (float64,
  or a 64-bit ``np.longdouble``) sums the input scaled by a power of two,
  its largest magnitude in [1/2, 1), and scales the result back, both
  exact but for subnormals, so an input near overflow keeps its merges
  finite.  A wider long double needs no scaling.

An output that overflows float64 raises :class:`DivergentSolutionError` at
its first non-finite point, not a warning.  No output reads a weight past
its own lag, even one that overflowed: the kernel rows of large orders can
pass float64's range, and a merge holding such a weight would spread it
over all of its outputs, so the head stops short of the first non-finite
weight, and the output at its lag is its own non-finite sum.  The first
non-finite point is then the unsplit convolution's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .monomial import _integral, _is_negative_integer, _real, _real_array, _recurrence_tail, convolution_weights

__all__ = [
    "DivergentSolutionError",
    "DomainTooShortError",
    "GridFunction",
    "nabla_diff",
    "nabla_diff_n",
    "nabla_sum",
    "nabla_frac_diff_direct",
    "nabla_frac_diff_composed",
    "power_rule_check",
]

# the near/far split of the heads, and their smallest merge block
_BLOCK = 256


class DomainTooShortError(ValueError):
    """The input grid function has too few points for the requested operator."""


class DivergentSolutionError(RuntimeError):
    """A result's values overflowed; ``t`` is the first non-finite grid point."""

    def __init__(self, t: int, value: float):
        super().__init__(f"result diverged at t = {t}: value {value} is not finite")
        self.t = t
        self.value = value


def _require_finite(values: np.ndarray, base: int) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DivergentSolutionError(base + int(bad[0]), float(values[bad[0]]))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real samples u(base), u(base+1), ..., u(base + len - 1).

    Operators return this type too, with ``base`` at the first grid point
    where their output is defined, and a solve returns its subclass
    :class:`~nablafrac.solver.SolutionTrace`.  ``base`` is an integer, taken
    as every count and index is (README, "Library quick tour").  ``values``
    is a read-only float64 copy, finite, one-dimensional and not empty.
    """

    base: int
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", _integral(self.base, "base"))
        values = np.array(_real_array(self.values, "grid values"))
        if values.ndim != 1:
            raise ValueError(f"grid values must be one-dimensional, got shape {values.shape}")
        if values.size < 1:
            raise ValueError("grid values must contain at least one value")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite everywhere")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def last(self) -> int:
        return self.base + len(self) - 1

    def value_at(self, t: int) -> float:
        """u(t).

        ``t`` is an integer, taken as ``base`` is.  A t outside the domain
        raises ``IndexError``: a grid function is never zero-extended.
        """
        t = _integral(t, "t")
        if not self.base <= t <= self.last:
            raise IndexError(
                f"t = {t} outside the domain [{self.base}, {self.last}]; "
                "grid functions are never zero-extended"
            )
        return float(self.values[t - self.base])


def _transform_length(b: int, count: int) -> int:
    """The FFT length of a merge: the smallest 2^k, 3 * 2^k or 5 * 2^k of at least b + count."""
    need = b + count
    return min(f << (-(-need // f) - 1).bit_length() for f in (1, 3, 5))


def _far_lags(
    source: np.ndarray, weights: np.ndarray, near: int, count: int, spectra: dict
) -> np.ndarray:
    """The far lags of a block of b points at the ``count`` <= b points after it.

    Entry i is sum_j weights[b + i - j] source[j] over the lags
    b + i - j >= ``near``: the history that ``source`` adds to the point i
    after its end.  ``weights[d]`` is the weight at lag d, and a lag past
    its end weighs 0.  It is one real FFT of length L =
    :func:`_transform_length` along axis 0, so a (b, k) source is k columns
    at once, in the dtype of the inputs.  The kernel is ``weights[1:L]``
    with the lags below ``near`` zeroed, so the product's entry b - 1 + i
    holds lag b + i - j, at most b - 1 + ``count`` < L, and the circular
    wrap of the product's tail lands only on its first b - 2 entries, which
    are dropped.  The kernel depends on L alone, so ``spectra`` caches its
    spectrum by L, for one weight row, one ``near`` and one ``source.ndim``.
    """
    b = len(source)
    size = _transform_length(b, count)
    kernel = spectra.get(size)
    if kernel is None:
        lags = weights[1:size].copy()
        lags[: near - 1] = 0
        kernel = spectra[size] = np.fft.rfft(lags, size).reshape((-1,) + (1,) * (source.ndim - 1))
        # not held through the transforms below, which set a merge's peak
        del lags
    # in place where it can be, and a caller's scaled copy of the source
    # freed before the inverse: the spectrum and the inverse's output, each
    # about the source and its outputs together, are a merge's largest
    # temporaries
    spectrum = np.fft.rfft(source, size, axis=0)
    del source
    spectrum *= kernel
    return np.fft.irfft(spectrum, size, axis=0)[b - 1 : b - 1 + count]


@np.errstate(over="ignore", invalid="ignore")
def _convolve_head(kernel: np.ndarray, v: np.ndarray, dtype=np.longdouble) -> np.ndarray:
    """First ``v.size`` terms of the convolution kernel * v, summed in ``dtype``.

    Entry m is sum_{j<=m} kernel[m - j] v[j], by the near/far split and the
    block-causal merges of the module notes.  The result is rounded to
    float64; an entry beyond its range rounds to inf, which the caller's
    ``_require_finite`` reports.  A ``dtype`` with float64's exponent range
    sums v scaled by a power of two, so that the merges of an input near
    overflow stay finite.  A kernel whose row overflowed has a first
    non-finite weight, at lag L: the entries before L are the head of the
    finite weights, entry L is its own sum and non-finite, and the entries
    past it are nan.
    """
    n = v.size
    kernel = kernel[:n]
    # m is the lag of the first non-finite weight, if the row overflowed
    finite = np.isfinite(kernel)
    m = n if finite.all() else int(finite.argmin())
    scaled = np.finfo(dtype).maxexp <= 1024
    if scaled:
        _, exponent = np.frexp(np.max(np.abs(v)))
        v = np.ldexp(v, -exponent)
    kernel, v = kernel.astype(dtype), v.astype(dtype)
    out = np.convolve(kernel[: min(_BLOCK, m)], v[:m])[:m]
    spectra: dict = {}
    for e in range(_BLOCK, m, _BLOCK):
        blocks = e // _BLOCK
        b = _BLOCK * (blocks & -blocks)
        out[e : e + b] += _far_lags(v[e - b : e], kernel[:m], _BLOCK, min(b, m - e), spectra)
    if m < n:
        out = np.concatenate((out, [kernel[m::-1].dot(v[: m + 1])], np.full(n - m - 1, np.nan)))
    out = out.astype(float)
    return np.ldexp(out, exponent, out=out) if scaled else out


def nabla_diff(u: GridFunction) -> GridFunction:
    """Backward difference u(t) - u(t-1), defined on {base+1, ...}.

    It is :func:`nabla_diff_n` of order 1.
    """
    return nabla_diff_n(u, 1)


@np.errstate(over="ignore", invalid="ignore")
def nabla_diff_n(u: GridFunction, order: int) -> GridFunction:
    """N-fold backward difference, defined on {base+N, ...}."""
    order = _integral(order, "order", 1)
    if len(u) < order + 1:
        raise DomainTooShortError(
            f"order-{order} difference needs at least {order + 1} points, got {len(u)}"
        )
    values = np.diff(u.values, order)
    _require_finite(values, u.base + order)
    return GridFunction(u.base + order, values)


def nabla_sum(u: GridFunction, nu: float) -> GridFunction:
    """Fractional sum of order nu, based at a = u.base - 1.

    The result lives on {a, a+1, ...} and is 0 at a by convention.  Kernel
    row: H_{nu-1}(t, rho(s)) at lag t - s + 1, convolved with the samples in
    long double (see the module notes).  The row is the recurrence
    continuation, so an order so small that nu - 1 rounds to -1 gives the
    kernel 1, 0, 0, ... and the sum is the identity, its order-0 limit.
    """
    nu = _real(nu, "order", 0.0)
    # kernel[lag - 1] = H_{nu-1} at offset lag
    kernel = _recurrence_tail(nu - 1.0, len(u))
    out = np.concatenate(([0.0], _convolve_head(kernel, u.values)))
    _require_finite(out, u.base - 1)
    return GridFunction(u.base - 1, out)


def nabla_frac_diff_direct(u: GridFunction, nu: float) -> GridFunction:
    """Direct-form Riemann-Liouville difference, based at a = u.base - 1.

    One-shot convolution with the H_{-nu-1} weight row, in long double (see
    the module notes), defined on {a+1, ...} = {u.base, ...}.  Requires a
    positive non-integer order; the weight row degenerates to zero at integer
    orders, where the composed or classical path must be used instead.
    """
    nu = _real(nu, "order", 0.0)
    if nu.is_integer():
        raise ValueError(
            f"direct form is undefined at integer order {nu}; "
            "use the composed form or the classical difference"
        )
    out = _convolve_head(convolution_weights(nu, len(u)), u.values)
    _require_finite(out, u.base)
    return GridFunction(u.base, out)


def nabla_frac_diff_composed(u: GridFunction, nu: float) -> GridFunction:
    """Composed-form Riemann-Liouville difference, based at a = u.base - 1.

    N-th classical difference of the (N - nu)-th sum, N = ceil(nu), defined
    on {a+N, ...}.  An exactly integer order routes to the classical N-fold
    difference of the given samples (defined on {u.base + N, ...}).
    """
    nu = _real(nu, "order", 0.0)
    if nu.is_integer():
        return nabla_diff_n(u, int(nu))
    order = math.ceil(nu)
    if len(u) < order:
        raise DomainTooShortError(
            f"composed order-{nu} difference needs at least {order} points, got {len(u)}"
        )
    return nabla_diff_n(nabla_sum(u, order - nu), order)


def power_rule_check(mu: float, nu: float, n_max: int) -> float:
    """Max deviation of nabla^nu H_mu from H_{mu-nu} over offsets 1..n_max.

    Applies the direct difference to sampled H_mu(., a) and compares with the
    recurrence-continuation reference for order mu - nu, which carries the
    limiting lag-1 value when mu - nu is a negative integer (the zero
    convention only holds from offset 2 there).
    """
    mu = _real(mu, "monomial order")
    if _is_negative_integer(mu):
        raise ValueError(f"sampled order must not be a negative integer, got mu = {mu}")
    n_max = _integral(n_max, "n_max", 1)
    samples = _recurrence_tail(mu, n_max)
    applied = nabla_frac_diff_direct(GridFunction(1, samples), nu)
    # the order as the direct difference took it
    reference = _recurrence_tail(mu - _real(nu, "order", 0.0), n_max)
    return float(np.max(np.abs(applied.values - reference)))

