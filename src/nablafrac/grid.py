"""Grid functions on integer half-lines and the nabla operators acting on them.

A :class:`GridFunction` stores samples u(base), u(base+1), ... together with
the explicit ``base`` index; nothing is ever zero-filled implicitly.  Every
operator returns a GridFunction based at its first defined point
(``OperatorResult`` is an alias kept for older imports).  The fractional
operators follow the usual convention that the input lives on
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
nabla.  Each operator output is therefore one whole convolution, computed by
a single ``np.convolve`` in ``np.longdouble``: products and running sums
carry the extended precision and only the final values are rounded to
float64.  Where ``np.longdouble`` is itself 64-bit, this is a plain float64
convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .monomial import (
    convolution_weights,
    monomial_limit_sequence,
    monomial_sequence,
)

__all__ = [
    "DomainTooShortError",
    "GridCsvError",
    "GridFunction",
    "OperatorResult",
    "nabla_diff",
    "nabla_diff_n",
    "nabla_sum",
    "nabla_frac_diff_direct",
    "nabla_frac_diff_composed",
    "power_rule_check",
    "read_grid_csv",
    "write_grid_csv",
]


class DomainTooShortError(ValueError):
    """The input grid function has too few points for the requested operator."""


class GridCsvError(ValueError):
    """A grid CSV stream is malformed; the message names the offending line."""


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"grid values must be one-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError("grid values must contain at least one value")
    if not np.all(np.isfinite(arr)):
        raise ValueError("grid values must be finite everywhere")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real samples u(base), u(base+1), ..., u(base + len - 1).

    Operators return this type too, with ``base`` at the first grid point
    where their output is defined.
    """

    base: int
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", int(self.base))
        object.__setattr__(self, "values", _frozen_array(self.values))

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def last(self) -> int:
        return self.base + len(self) - 1

    def value_at(self, t: int) -> float:
        if not self.base <= t <= self.last:
            raise IndexError(
                f"t = {t} outside the domain [{self.base}, {self.last}]; "
                "grid functions are never zero-extended"
            )
        return float(self.values[t - self.base])

    def to_grid(self) -> GridFunction:
        """The same immutable samples; kept for code written against OperatorResult."""
        return self


# the public name of operator outputs; imports of it keep working
OperatorResult = GridFunction


def _check_positive_order(nu: float) -> None:
    if not math.isfinite(nu) or nu <= 0:
        raise ValueError(f"order must be positive and finite, got {nu}")


def _convolve_head(kernel: np.ndarray, v: np.ndarray) -> np.ndarray:
    """First ``v.size`` terms of the convolution kernel * v, in long double.

    Entry m is sum_{j<=m} kernel[m - j] v[j].  An entry beyond the float64
    range rounds to inf, which the caller's finiteness check reports.
    """
    full = np.convolve(kernel.astype(np.longdouble), v.astype(np.longdouble))
    return full[: v.size].astype(float)


def nabla_diff(u: GridFunction) -> GridFunction:
    """Backward difference u(t) - u(t-1), defined on {base+1, ...}."""
    if len(u) < 2:
        raise DomainTooShortError("nabla difference needs at least 2 points")
    return GridFunction(u.base + 1, np.diff(u.values))


def nabla_diff_n(u: GridFunction, order: int) -> GridFunction:
    """N-fold backward difference, defined on {base+N, ...}."""
    if order < 1:
        raise ValueError(f"difference order must be >= 1, got {order}")
    if len(u) < order + 1:
        raise DomainTooShortError(
            f"order-{order} difference needs at least {order + 1} points, got {len(u)}"
        )
    values = u.values
    for _ in range(order):
        values = np.diff(values)
    return GridFunction(u.base + order, values)


def nabla_sum(u: GridFunction, nu: float) -> GridFunction:
    """Fractional sum of order nu, based at a = u.base - 1.

    The result lives on {a, a+1, ...} and is 0 at a by convention.  Kernel
    row: H_{nu-1}(t, rho(s)) at lag t - s + 1, convolved with the samples in
    long double (see the module notes).
    """
    _check_positive_order(nu)
    # kernel[lag - 1] = H_{nu-1} at offset lag; nu - 1 is never a negative
    # integer for nu > 0, so no convention branch is live here
    kernel = monomial_sequence(nu - 1.0, len(u))[1:]
    out = np.concatenate(([0.0], _convolve_head(kernel, u.values)))
    return GridFunction(u.base - 1, out)


def nabla_frac_diff_direct(u: GridFunction, nu: float) -> GridFunction:
    """Direct-form Riemann-Liouville difference, based at a = u.base - 1.

    One-shot convolution with the H_{-nu-1} weight row, in long double (see
    the module notes), defined on {a+1, ...} = {u.base, ...}.  Requires a
    positive non-integer order; the weight row degenerates to zero at integer
    orders, where the composed or classical path must be used instead.
    """
    _check_positive_order(nu)
    if float(nu).is_integer():
        raise ValueError(
            f"direct form is undefined at integer order {nu}; "
            "use nabla_frac_diff_composed or nabla_diff_n"
        )
    weights = convolution_weights(nu, len(u))
    return GridFunction(u.base, _convolve_head(weights, u.values))


def nabla_frac_diff_composed(u: GridFunction, nu: float) -> GridFunction:
    """Composed-form Riemann-Liouville difference, based at a = u.base - 1.

    N-th classical difference of the (N - nu)-th sum, N = ceil(nu), defined
    on {a+N, ...}.  An exactly integer order routes to the classical N-fold
    difference of the given samples (defined on {u.base + N, ...}).
    """
    _check_positive_order(nu)
    if float(nu).is_integer():
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
    _check_positive_order(nu)
    if float(nu).is_integer():
        raise ValueError(f"power-rule check needs a non-integer order, got nu = {nu}")
    if not math.isfinite(mu) or (mu < 0 and float(mu).is_integer()):
        raise ValueError(f"sampled order must not be a negative integer, got mu = {mu}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    samples = monomial_limit_sequence(mu, n_max)[1:]
    applied = nabla_frac_diff_direct(GridFunction(1, samples), nu)
    reference = monomial_limit_sequence(mu - nu, n_max)[1:]
    return float(np.max(np.abs(applied.values - reference)))


def write_grid_csv(
    obj: GridFunction, stream: IO[str], *, record_base: bool = False
) -> None:
    """Write ``index,value`` rows; optionally record the base in a comment line.

    Values are written with 17 significant digits so identical inputs produce
    byte-identical files and parsing back is lossless.
    """
    if record_base:
        stream.write(f"# base={obj.base}\n")
    stream.write("index,value\n")
    for offset, value in enumerate(obj.values):
        stream.write(f"{obj.base + offset},{value:.17g}\n")


def read_grid_csv(stream: IO[str]) -> GridFunction:
    """Parse ``index,value`` rows into a GridFunction.

    Comment lines starting with ``#`` and blank lines are skipped, so output
    of :func:`write_grid_csv` round-trips.  Indices must be consecutive and
    ascending; errors name the offending line number.
    """
    base: int | None = None
    expected: int | None = None
    values: list[float] = []
    saw_header = False
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_header:
            if line.lower() != "index,value":
                raise GridCsvError(f"line {lineno}: expected header 'index,value', got {line!r}")
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise GridCsvError(f"line {lineno}: expected 'index,value', got {line!r}")
        try:
            index = int(parts[0])
        except ValueError:
            raise GridCsvError(f"line {lineno}: index {parts[0]!r} is not an integer") from None
        try:
            value = float(parts[1])
        except ValueError:
            raise GridCsvError(f"line {lineno}: value {parts[1]!r} is not a number") from None
        if not math.isfinite(value):
            raise GridCsvError(f"line {lineno}: value {parts[1]!r} is not finite")
        if base is None:
            base = index
        elif index != expected:
            raise GridCsvError(
                f"line {lineno}: index {index} breaks the consecutive run (expected {expected})"
            )
        expected = index + 1
        values.append(value)
    if not saw_header:
        raise GridCsvError("line 1: missing 'index,value' header")
    if base is None:
        raise GridCsvError("no data rows after the header")
    return GridFunction(base, values)
