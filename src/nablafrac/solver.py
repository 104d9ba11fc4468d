"""Method-of-steps solvers for linear nabla fractional difference equations.

All equations here use an order 0 < nu < 1 and are based at rho(a) = a - 1,
so the unknown lives on N_a = {a, a+1, ...} with a prescribed initial value
u(a) = u0.  The lagged model problem

    (nabla^nu_{rho(a)} u)(t) = c(t) u(t - 1),    t in N_{a+1},

unwinds, via the direct convolution form of the operator (whose lag-1 weight
is exactly 1), into the explicit step equation

    u(t) = c(t) u(t - 1) - sum_{s=a}^{t-1} H_{-nu-1}(t, rho(s)) u(s).

Every step reads all earlier samples (the memory property), so stepping with
one full-history sum per step costs O(n^2).  The stepping core,
:func:`_solve_steps`, costs O(n log^2 n) instead:

* Leaves.  The offsets fall into leaves of ``_LEAF`` (512) points.  A
  finished block adds its history beyond the ``_NEAR`` (64) nearest lags
  to the block after it by FFT convolution, ``grid._far_lags``, on the
  block-causal schedule of the grid operators' heads (see
  :mod:`nablafrac.grid`), ``_MERGE_COLUMNS`` (8) columns of a batch at a
  time.
* Crossing lags.  Every nearer or in-leaf lag is summed directly: each
  leaf but the first starts with one dense product of the lags of at most
  ``_NEAR`` that cross its edge.
* One trace-sized array.  The merges and the crossing products add into
  the rows of the trace not yet stepped, which start at zero: a row holds
  its pending history until its micro-block reads it and overwrites it
  with the solution, so the history has no array of its own.
* Micro-blocks.  A leaf advances m steps at a time, the first leaf from
  step 1, past u0, with m from :func:`_micro_size`.  One matrix product
  adds the leaf's history before the micro-block, and its own steps are
  one lower-triangular system, solved by an inverse formed before stepping
  (:func:`_block_inverses`) and one refinement step
  (:func:`_refined_solve`).  Both products take strided windows of one
  lag strip, at most ``_LEAF + 1`` lags wide, by ``np.matmul``, which
  hands BLAS the row stride and copies no operand.  No Python runs per
  step.
* Two outcomes per column.  Values that come out finite are kept: an
  overflow or inf - inf anywhere in the block products reaches them as inf
  or nan, so a finite value needs no margin below overflow.  The block
  products of a growing trace can overflow before its steps do, so a
  column finite before the block that comes out non-finite is redone by
  forward substitution (:func:`_substitute`), step by step, which alone
  finds its first non-finite step.  A column already non-finite stays so.
* Guarantees.  Solves of every length agree with the plain loop, one
  full-history dot product per step, to within 1e-14 max|u| on decaying
  solutions, and overflow at the same step.  They differ from it only in
  the order of their sums and the rounding of the block inverses and the
  FFTs.

The normalized solution (u0 = 1) is the discrete Mittag-Leffler-type
sequence produced by :func:`mittag_leffler_seq`; by linearity every solution
is u0 times it, which the suite checks as the representation identity.  The
general form adds an undelayed term and a forcing,

    (nabla^nu_{rho(a)} u)(t) = p(t) u(t) + q(t) u(t - 1) + g(t),

and each step divides by the pivot 1 - p(t); a pivot within 1e-13 of zero
raises :class:`SingularStepError` and a non-finite u0 a ``ValueError``.  A
solve that overflows raises :class:`DivergentSolutionError` at the first
non-finite step, while :func:`mittag_leffler_seq` returns such traces as
they are.

First-order comparison equations come in two right-hand-side forms that are
deliberately kept separate, since they produce different solutions:
``on_u_lag`` is (nabla u)(t) = c(t) u(t-1) with step factor 1 + c(t), and
``on_u_t`` is (nabla u)(t) = c(t) u(t) with step factor 1/(1 - c(t)).
:meth:`FirstOrderForm.split` maps c onto (p, q), so both forms are the
general equation with the classical nabla on the left: a
:class:`LinearProblem` of order None.  Its weight row (1, -1) is the
nu = 1 member of the direct weights, the coefficients of (1 - z)^nu: the
lag-2 weight -1 folds into q and no history term remains.  One problem
type, one solve body and one stepping core serve both orders.

Every returned :class:`SolutionTrace` carries a residual column: the
absolute defect of each step, from re-applying the difference operator to
the computed solution, independently of the stepping core.  A first-order
solve takes the classical difference of its trace, as :func:`nabla_diff`
does.  A fractional solve convolves the solution, mounted on
N_{rho(a)+1}, with the weight row it stepped with, by the grid operators'
head in float64: a defect needs no long double, and no term past the head
is formed.  Up to 256 points that is one float64 ``np.convolve``, bit for
bit.  Beyond, the low digits follow the order of the sums and the FFTs'
rounding, and on decaying solves the residuals agree with the long-double
operator's to within 1e-14 max|u|.  The float64 head's scaling keeps the
residuals of a finite trace near overflow finite.  At either order, a
re-application that still overflows raises :class:`DivergentSolutionError`
at its first non-finite point.  A fractional trace also carries the decay
envelope H_{nu-1}(t, rho(a)) of :func:`envelope_sequence`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence, Union

import math

import numpy as np

from .grid import GridFunction, _convolve_head, _far_lags, _integral, _require_finite
from .monomial import _recurrence_tail, convolution_weights

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

# the divide-and-conquer history of _solve_steps: points per leaf, and the
# lags that every step sums directly, also across a leaf boundary
_LEAF = 512
_NEAR = 64
# the columns of a batch that one far-lag merge transforms at once
_MERGE_COLUMNS = 8

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
    """Normalize a coefficient to an array of n_max steps along axis 0.

    Entry i corresponds to the step at t = a + 1 + i.  A sequence must supply
    at least n_max finite entries.  A scalar gives a read-only broadcast
    view of n_max entries, one value in memory.  An (n, k) array holds k
    problems as columns and gives (n_max, k).  A float64 sequence or batch
    is returned as a view, not a copy, so the scan's broadcast batch stays
    one row of memory.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    arr = np.asarray(c, dtype=float)
    if arr.ndim > 2:
        raise ValueError(f"coefficients must be scalar, one-dimensional or (n, k), got shape {arr.shape}")
    if arr.ndim and len(arr) < n_max:
        raise ValueError(f"coefficient sequence has {len(arr)} entries, need {n_max}")
    # min and max see any inf or nan and, unlike isfinite, form no
    # temporary the size of a batch; a scalar is checked before it is
    # broadcast, as a pass over its view would visit all n_max entries
    if not np.isfinite([arr.min(initial=0.0), arr.max(initial=0.0)]).all():
        raise ValueError("coefficients must be finite")
    return arr[:n_max] if arr.ndim else np.broadcast_to(arr, n_max)


def envelope_sequence(nu: float, n_max: int) -> np.ndarray:
    """Decay envelope H_{nu-1}(a + n, rho(a)) for n = 0..n_max (offset n + 1).

    For 0 < nu < 1 it is positive, strictly decreasing and tends to 0 like
    n^(nu-1).  It is the recurrence continuation of the monomial, with no
    zero convention: an order so small that nu - 1 rounds to -1 gives
    1, 0, 0, ..., the envelope's limit at order 0.
    """
    _check_unit_order(nu)
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    return _recurrence_tail(nu - 1.0, n_max + 1)


def _micro_size(q: np.ndarray, constant: bool) -> int:
    """Steps per micro-block of a fractional solve with coefficients ``q``.

    Each micro-block pays a few array operations whatever its size m (about
    17 us on one x86-64 core), plus products that grow with m, so the size
    is picked by what the products cost per block:

    * a batch, (n, k) coefficients: 32 steps.  Each of the k columns
      applies its own m x m inverse, k m^2 per block.
    * one problem with per-step coefficients: 64 steps.  Its inverses are
      formed per leaf, about m^3 / 3 per block by recursive doubling.
    * one problem with constant coefficients: 128 steps.  Its one inverse
      is formed once per solve, so only the fixed cost is left to amortize.

    A solve shorter than its size is one block, of the power of two that
    covers its steps, so a short solve forms no larger inverse than it
    reads.  Every size is a power of two, as :func:`_block_inverses` needs.
    """
    size = 32 if q.ndim > 1 else 128 if constant else 64
    return min(size, 1 << (len(q) - 1).bit_length())


def _block_inverses(
    coefficients: Sequence[np.ndarray], starts: range, toeplitz: np.ndarray
) -> np.ndarray:
    """Inverses of the matrices of the micro-blocks that start at ``starts``.

    ``coefficients`` is the per-step (pivots, q) of the solve, entry s - 1
    for step s, of shape (n_max,) or, for a batch, (n_max, k).  The block
    at start s covers the m = ``len(toeplitz)`` steps from s, m a power of
    two, and its lower-triangular m x m matrix is ``toeplitz +
    diag(pivots) - diag(q) S``: m steps of the general equation, with
    ``toeplitz`` the weights at lags 1..m-1 below the diagonal and S the
    shift one row down.  Steps past n_max only fill the last block's unused
    corner.  The result has shape (len(starts), m, m), or (len(starts), k,
    m, m) for a batch.  A constant-coefficient solve reuses the inverse of
    its first block, ``starts = range(1, 2)``, for every block.

    The inverses are built by recursive doubling,
    [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]], in place along
    the diagonal: each level pairs the finished blocks of h rows into blocks
    of 2h rows, where every C is the same Toeplitz block but for q at its
    lag-1 corner, so a level is two batched products over all blocks.
    """
    m = len(toeplitz)
    first, rows = starts[0] - 1, len(starts) * m
    chunks = []
    for c, fill in zip(coefficients, (1.0, 0.0)):
        chunk = c[first : first + rows]
        if len(chunk) < rows:
            chunk = np.concatenate((chunk, np.full((rows - len(chunk),) + chunk.shape[1:], fill)))
        chunk = chunk.reshape((len(starts), m) + chunk.shape[1:])
        # a batch's steps go last, as one problem's already are
        chunks.append(chunk if chunk.ndim == 2 else np.moveaxis(chunk, 1, -1))
    pivots, q = chunks
    inv = np.zeros(pivots.shape + (m,))
    flat, qs = inv.reshape(-1, m, m), q.reshape(-1, m)
    flat.reshape(-1, m * m)[:, :: m + 1] = 1.0 / pivots.reshape(-1, m)
    negated = -toeplitz
    stride, row, col = flat.strides
    h = 1
    while h < m:
        # the diagonal blocks of 2h rows, as a view of the inverses
        blocks = np.ndarray(
            (len(flat), m // (2 * h), 2 * h, 2 * h), buffer=flat,
            strides=(stride, 2 * h * (row + col), row, col),
        )
        a = blocks[..., :h, :h]
        # -C A: C holds the lags h + i - j, less q at its lag-1 corner
        ca = negated[h : 2 * h, :h] @ a
        ca[..., 0, :] += qs[:, h :: 2 * h, None] * a[..., h - 1, :]
        np.matmul(blocks[..., h:, h:], ca, out=blocks[..., h:, :h])
        h *= 2
    return inv


def _solve_block(inverse: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``inverse @ b`` for one problem, or column by column for a batch of inverses."""
    return inverse @ b if b.ndim == 1 else np.matmul(inverse, b.T[..., None])[..., 0].T


def _refined_solve(
    inverse: np.ndarray, toeplitz: np.ndarray, pivots: np.ndarray, q: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """One micro-block: x = L^-1 b and one refinement step x -= L^-1 (L x - b).

    The residual takes the in-block lags ``toeplitz``, the ``pivots`` and
    q u(t - 1) (``q`` for the steps after the first) each on its own, never
    the rounded entry w1 - q.
    """
    x = _solve_block(inverse, b)
    r = toeplitz @ x
    r += pivots * x
    r[1:] -= q * x[:-1]
    r -= b
    x -= _solve_block(inverse, r)
    return x


def _substitute(
    weights: np.ndarray, prev: float, q: np.ndarray, g: np.ndarray, pivots: np.ndarray, behind: np.ndarray
) -> np.ndarray:
    """One column of a micro-block by forward substitution, one step at a time.

    Entry i of ``q``, ``g``, ``pivots`` and ``behind`` (the lags reaching
    before the block) belongs to the block's step i, and ``prev`` is the
    value before the block.  The steps run in Python floats; only the
    in-block lags are one dot product each.
    """
    x = np.empty(len(behind))
    steps = zip(q.tolist(), g.tolist(), pivots.tolist(), behind.tolist())
    for i, (qn, gn, pn, hn) in enumerate(steps):
        near = float(weights[i:0:-1].dot(x[:i]))
        # the history parts are added first: near overflow, q u less one
        # part alone can overflow where the whole history keeps the step
        # finite
        prev = x[i] = (qn * prev + gn - (hn + near)) / pn
    return x


def _solve_steps(
    p: np.ndarray,
    q: np.ndarray,
    g: np.ndarray,
    weights: np.ndarray | None,
    u0: float,
    base: int,
) -> np.ndarray:
    """The stepping core, time-major: ``u[n]`` is the solution at offset n.

    Coefficients have shape (n_max,) or, to step k independent problems at
    once, (n_max, k); ``u`` then has shape (n_max + 1, k).  ``weights`` is
    the direct weight row ``convolution_weights(nu, n_max + 1)`` of a
    fractional order nu, formed once by the caller; ``weights=None`` steps
    the classical nabla for one problem, whose lag-2 weight -1 is folded
    into q; it has no history term.

    For fractional orders the history sum_{j<n} w[n - j] u[j] is split by
    divide and conquer (Hairer, Lubich and Schlichte, 1985), as the module
    notes lay out.  The FFT merges run the heads' schedule on ``_LEAF``
    points, see the grid module.  Choices the code does not show:

    * Lags up to ``_NEAR`` are summed directly, never by a merge.  The FFT's
      rounding scales with the norm of the kernel, which the first lags
      dominate (lag 1 weighs -nu), so this keeps that rounding from piling
      up over the slowly decaying memory of orders near 1.
    * Each column is scaled by its own power of two before a merge and back
      after it (exact), so a column near overflow neither overflows in the
      transform nor sets the scale of the others.
    * A merge runs on ``_MERGE_COLUMNS`` columns at a time, each chunk
      transformed and added into its own columns of ``u`` before the next
      is scaled, so a merge's spectrum and transform output are a fraction
      of the trace, not a trace each.  A column's transform is the same in
      any chunk, so the values do not depend on the chunk width; one
      problem is one chunk of one column.
    * The lag strip is a sliding view of the weights with a negative
      stride, which BLAS cannot take, so it is copied once per solve.  It
      keeps the ``back + m`` columns that micro-blocks read: ``back``, the
      first leaf's last block start, is the most leaf rows a block reads
      before it, ``_LEAF + 1 - m`` for a full leaf.  Each product then
      takes a window of it with ``@``: ``ndarray.dot`` would copy every
      window that is not contiguous first, up to 385 KiB a block, for the
      same bits.
    * ``u`` starts at zero and its unstepped rows are the pending history:
      merges and crossing products add into ``u[lo : lo + count]``, and a
      micro-block reads ``u[s:e]`` as its history before it writes the
      solution there.  A separate history array would add the same sums in
      the same order, so the values are the same bit for bit.
    """
    n_max = len(q)
    columns = np.shape(q)[1:]
    # p or g given as one column serves every column of a batch
    p, g = (x.reshape(x.shape + (1,) * (q.ndim - x.ndim)) for x in (p, g))
    # a p broadcast along the steps, as coefficient_array gives a scalar,
    # has its one row of pivots formed and checked, and broadcast in turn
    pivots = 1.0 - (p[:1] if p.strides[0] == 0 else p)
    singular = np.abs(pivots) < SINGULAR_PIVOT_TOL
    if singular.any():
        first = tuple(np.argwhere(singular)[0])
        raise SingularStepError(base + 1 + int(first[0]), float(pivots[first]))
    pivots = np.broadcast_to(pivots, p.shape)
    # rows not yet stepped hold their pending history (see the docstring)
    u = np.zeros((n_max + 1,) + columns)
    u[0] = u0
    # an overflowing trace is reported by its callers (DivergentSolutionError,
    # or the scan's unbounded class), not by NumPy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if weights is None:
            # one problem, stepped in Python floats
            prev = float(u0)
            for n, qn, gn, pn in zip(range(1, n_max + 1), (q + 1.0).tolist(), g.tolist(), pivots.tolist()):
                prev = (qn * prev + gn) / pn
                u[n] = prev
            return u
        if not n_max:
            return u
        # the block matrices depend on the coefficients alone: one inverse per
        # column serves every block of a constant-coefficient solve, per-step
        # coefficients get one stack of inverses per leaf
        constant = bool((p == p[0]).all() and (q == q[0]).all())
        m = _micro_size(q, constant)
        # every column of a batch gets its own rows of the coefficients
        pivots, q, g = np.broadcast_arrays(pivots, q, g)
        # back, the first leaf's last block start, is the most leaf rows a
        # micro-block reads before it (a later leaf's blocks start one row
        # earlier in their leaf).  reach[m + k] is the weight at lag k, 0 at
        # lags below 1 and past n_max
        back = range(1, min(n_max + 1, _LEAF), m)[-1]
        reach = np.zeros(back + 2 * m)
        reach[m + 1 : m + 1 + n_max] = weights[1 : back + m]
        # strip[i, t], the weight at lag back + i - t, takes u[s - back + t]
        # to step s + i; its last m columns, the lags i - j below the
        # diagonal, are the Toeplitz part of a micro-block's matrix
        strip = np.ndarray(
            (m, back + m), buffer=reach, offset=(back + m) * reach.itemsize,
            strides=(reach.itemsize, -reach.itemsize),
        ).copy()
        toeplitz = strip[:, back:]
        if n_max >= _LEAF:
            # crossing[i, t] takes u[lo - _NEAR + t] to step lo + i where the
            # lag _NEAR + i - t is at most _NEAR
            crossing = np.triu(weights[_NEAR + np.subtract.outer(np.arange(_NEAR), np.arange(_NEAR))])
        if constant:
            shared = _block_inverses((pivots, q), range(1, 2), toeplitz)[0]
        spectra: dict = {}
        # per-column views, in which one problem is a batch of one column
        u2, q2, g2, pivots2 = (c.reshape(len(c), -1) for c in (u, q, g, pivots))
        for lo in range(0, n_max + 1, _LEAF):
            hi = min(lo + _LEAF, n_max + 1)
            if lo:
                leaves = lo // _LEAF
                block = _LEAF * (leaves & -leaves)
                count = min(block, n_max + 1 - lo)
                # a few columns per merge, each scaled on its own (see the
                # docstring)
                for j in range(0, u2.shape[1], _MERGE_COLUMNS):
                    source = u2[lo - block : lo, j : j + _MERGE_COLUMNS]
                    _, exponent = np.frexp(np.max(np.abs(source), axis=0))
                    far = _far_lags(np.ldexp(source, -exponent), weights, _NEAR + 1, count, spectra)
                    u2[lo : lo + count, j : j + _MERGE_COLUMNS] += np.ldexp(far, exponent, out=far)
                    # the merge's transform buffer is not kept past its chunk
                    del far
                u[lo : lo + _NEAR] += crossing[: hi - lo].dot(u[lo - _NEAR : lo])
            # the first leaf's first micro-block starts at step 1, past u0
            starts = range(max(lo, 1), hi, m)
            inverses = [shared] * len(starts) if constant else _block_inverses((pivots, q), starts, toeplitz)
            for s, inverse in zip(starts, inverses):
                e = min(s + m, hi)
                inverse = inverse[..., : e - s, : e - s]
                # every lag reaching before the micro-block: the rows' pending
                # history and the leaf's lags before them
                behind = u[s:e] + strip[: e - s, back - (s - lo) : back] @ u[lo:s]
                b = g[s - 1 : e - 1] - behind
                b[0] += q[s - 1] * u[s - 1]
                block = (inverse, toeplitz[: e - s, : e - s], pivots[s - 1 : e - 1], q[s : e - 1])
                x = u[s:e] = _refined_solve(*block, b)
                # one test for the whole block first, as nearly every block
                # passes it and the per-column test costs a few more calls
                if np.isfinite(x).all():
                    continue
                # a column finite before the block that comes out non-finite
                # is redone step by step (the module notes' two outcomes); a
                # column already non-finite stays so, as every step reads its
                # whole history
                behind = behind.reshape(e - s, -1)
                for j in np.flatnonzero(np.isfinite(u2[s - 1]) & ~np.isfinite(u2[s:e]).all(axis=0)):
                    steps = (c[s - 1 : e - 1, j] for c in (q2, g2, pivots2))
                    u2[s:e, j] = _substitute(weights, float(u2[s - 1, j]), *steps, behind[:, j])
            # free this leaf's inverses before the next leaf builds its own
            del inverses, inverse
    return u


def mittag_leffler_seq(c: CoefficientLike, nu: float, n_max: int) -> np.ndarray:
    """Discrete Mittag-Leffler-type sequence for the lagged equation.

    Defined by E(a) = 1 and, for t in N_{a+1},

        E(t) = c(t) E(t - 1) - sum_{s=a}^{t-1} H_{-nu-1}(t, rho(s)) E(s).

    Values depend only on offsets, never on the base point a (translation
    invariance), so none is taken.  Returns the values at offsets 0..n_max.
    An (n_max, k) coefficient array holds k problems as columns and gives
    (n_max + 1, k): one batch of the stepping core, whose history merges
    and micro-blocks serve every column, and each column gets the values
    its own call would give, up to the order of the sums.  A trace that
    overflows is returned as it is.  The weight row is formed before the
    coefficients are checked, so a horizon too long to allocate raises
    ``MemoryError`` at once, not after a pass over every entry of a
    broadcast batch.
    """
    _check_unit_order(nu)
    # a negative n_max is refused by coefficient_array, with its own message
    weights = convolution_weights(nu, max(n_max, 0) + 1)
    carr = coefficient_array(c, n_max)
    zeros = coefficient_array(0.0, n_max)
    # the base only names the step of a singular pivot, and p = 0 has none
    return _solve_steps(zeros, carr, zeros, weights, 1.0, 0)


@dataclass(frozen=True, eq=False)
class SolutionTrace(GridFunction):
    """A solution on {base, ..., base + n_max}: a grid function with diagnostics.

    A solution lives on N_base as the operators' inputs do, so a trace is a
    :class:`~nablafrac.grid.GridFunction` with its base, values and checks:
    ``nabla_frac_diff_direct(trace, trace.nu)`` re-applies a fractional
    solve's own operator.  ``residuals[n]`` is the absolute defect of the
    governing equation at t = base + n (0 at n = 0, where the initial
    condition sits instead).  ``envelope`` and ``nu`` are None for
    first-order solves.  Every array is read-only.
    """

    residuals: np.ndarray
    envelope: np.ndarray | None
    nu: float | None

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("residuals",) + (("envelope",) if self.envelope is not None else ()):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))


@dataclass(frozen=True, eq=False)
class LinearProblem:
    """General linear lagged problem based at rho(base), at order ``nu``.

    ``nu`` None is the classical nabla, the first-order comparison equation;
    an order that is given must lie in (0, 1).  Coefficients may be scalars
    or sequences over t = base+1, base+2, ...; they are normalized at solve
    time, so a problem can be solved for any horizon its sequences cover.
    """

    nu: float | None
    base: int
    p: CoefficientLike
    q: CoefficientLike
    g: CoefficientLike
    u0: float

    def __post_init__(self) -> None:
        if self.nu is not None:
            _check_unit_order(self.nu)


def _solve(problem: LinearProblem, n_max: int) -> SolutionTrace:
    """The body of every solve: ``problem`` to a trace of n_max steps.

    The trace carries the residual column of the module notes.
    """
    nu, u0 = problem.nu, problem.u0
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not math.isfinite(u0):
        raise ValueError(f"u0 must be finite, got {u0}")
    base = _integral(problem.base, "base")
    p, q, g = (coefficient_array(x, n_max) for x in (problem.p, problem.q, problem.g))
    if max(p.ndim, q.ndim, g.ndim) > 1:
        raise ValueError("a solve takes scalar or one-dimensional coefficients; only mittag_leffler_seq steps a batch")
    # one weight row serves the stepping and the re-application
    weights = None if nu is None else convolution_weights(nu, n_max + 1)
    u = _solve_steps(p, q, g, weights, u0, base)
    _require_finite(u, base)
    # independent re-application at t = base+1, ...: the classical nabla,
    # or the direct operator based at rho(base) on the solution mounted on
    # N_base = N_{rho(base)+1}, whose float64 head (a defect needs no long
    # double) starts with the finite u0 at t = base
    with np.errstate(over="ignore", invalid="ignore"):
        applied = np.diff(u) if nu is None else _convolve_head(weights, u, float)[1:]
    _require_finite(applied, base + 1)
    residuals = np.zeros(u.size)
    residuals[1:] = np.abs(applied - (p * u[1:] + q * u[:-1] + g))
    envelope = None if nu is None else envelope_sequence(nu, n_max)
    return SolutionTrace(base, u, residuals, envelope, nu)


def solve_lagged(
    c: CoefficientLike, nu: float, u0: float, n_max: int, base: int = 0
) -> SolutionTrace:
    """Solve (nabla^nu_{rho(a)} u)(t) = c(t) u(t-1), u(a) = u0, a = base."""
    return _solve(LinearProblem(nu, base, 0.0, c, 0.0, u0), n_max)


def solve_general(problem: LinearProblem, n_max: int) -> SolutionTrace:
    """Solve (nabla^nu_{rho(a)} u)(t) = p(t)u(t) + q(t)u(t-1) + g(t), u(a) = u0.

    Order None solves the same equation with the classical nabla on the
    left, as :func:`solve_first_order` does.  Each step solves for u(t)
    through the pivot 1 - p(t); raises :class:`SingularStepError` when the
    pivot is numerically zero and :class:`DivergentSolutionError` when the
    solution overflows.  With p = 0, g = 0 this reduces exactly (bit for
    bit) to :func:`solve_lagged`.
    """
    return _solve(problem, n_max)


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
    point: memory 2, against the fractional operators' full memory.  It is
    the problem of order None with the (p, q) of :meth:`FirstOrderForm.split`.
    """
    p, q = FirstOrderForm(form).split(c)
    return _solve(LinearProblem(None, base, p, q, 0.0 if g is None else g, u0), n_max)
