"""Grid functions, nabla operators, and CSV serialization."""

import importlib
import io
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nablafrac
from nablafrac import (
    DivergentSolutionError,
    DomainTooShortError,
    GridFunction,
    convolution_weights,
    monomial_sequence,
    nabla_diff,
    nabla_diff_n,
    nabla_frac_diff_composed,
    nabla_frac_diff_direct,
    nabla_sum,
    power_rule_check,
)
from nablafrac.exact import (
    oracle_frac_diff_composed,
    oracle_frac_diff_direct,
    oracle_nabla_sum,
)
from nablafrac.formats import GridCsvError, read_grid_csv, write_grid_csv
from nablafrac.grid import _BLOCK, _convolve_head, _far_lags


def _common_domain_gap(direct, composed):
    """Max absolute gap between the two forms where both are defined."""
    shift = composed.base - direct.base
    assert shift >= 0
    tail = direct.values[shift:]
    assert tail.size == composed.values.size
    return float(np.max(np.abs(tail - composed.values)))


def _max_rel(got, want, floor=1.0):
    scale = np.maximum(np.abs(want), floor)
    return float(np.max(np.abs(np.asarray(got) - want) / scale))


def _fsum_rows(kernel, v):
    """Row-by-row reference convolution: entry m is fsum of kernel[m - j] v[j]."""
    return np.array([math.fsum(kernel[m::-1] * v[: m + 1]) for m in range(v.size)])


def _fsum_sum(v, nu):
    return np.concatenate(([0.0], _fsum_rows(monomial_sequence(nu - 1.0, v.size)[1:], v)))


# --- containers ---------------------------------------------------------


def test_grid_function_basics():
    u = GridFunction(3, [1.0, 2.0, 4.0])
    assert len(u) == 3
    assert u.base == 3
    assert u.last == 5
    assert u.value_at(4) == 2.0


def test_grid_function_is_immutable():
    u = GridFunction(0, [1.0, 2.0])
    with pytest.raises(ValueError):
        u.values[0] = 9.0


def test_grid_function_never_zero_extends():
    u = GridFunction(2, [1.0, 2.0])
    with pytest.raises(IndexError, match="zero-extended"):
        u.value_at(4)
    with pytest.raises(IndexError):
        u.value_at(1)


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(0, [])
    with pytest.raises(ValueError):
        GridFunction(0, [[1.0, 2.0]])
    with pytest.raises(ValueError):
        GridFunction(0, [1.0, float("nan")])


def test_grid_function_refuses_a_base_that_is_not_an_integer():
    # a fractional base used to be truncated without a word: 1.5 became 1
    for base in (1.5, -0.25, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="base must be an integer"):
            GridFunction(base, [1.0, 2.0])
    for base in (2.0, np.int64(2), np.float64(2.0)):
        u = GridFunction(base, [1.0, 2.0])
        assert type(u.base) is int and (u.base, u.last) == (2, 3)


# --- classical differences ----------------------------------------------


def test_nabla_diff_values_and_base():
    r = nabla_diff(GridFunction(1, [1.0, 4.0, 9.0, 16.0]))
    assert r.base == 2
    assert np.array_equal(r.values, [3.0, 5.0, 7.0])


def test_nabla_diff_of_constant_is_zero():
    r = nabla_diff(GridFunction(0, np.full(10, 2.5)))
    assert np.all(r.values == 0.0)


def test_nabla_diff_needs_two_points():
    with pytest.raises(DomainTooShortError):
        nabla_diff(GridFunction(0, [1.0]))


def test_nabla_diff_n_matches_iterated_diff():
    u = GridFunction(0, np.arange(8.0) ** 3)
    twice = nabla_diff(nabla_diff(u))
    r = nabla_diff_n(u, 2)
    assert r.base == twice.base == 2
    assert np.array_equal(r.values, twice.values)


def test_nabla_diff_n_validation():
    u = GridFunction(0, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        nabla_diff_n(u, 0)
    with pytest.raises(DomainTooShortError):
        nabla_diff_n(u, 3)


# --- fractional sum -----------------------------------------------------


def test_sum_order_one_is_cumulative():
    r = nabla_sum(GridFunction(1, np.ones(5)), 1.0)
    assert r.base == 0
    assert np.array_equal(r.values, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])


def test_sum_vanishes_at_its_base_point():
    r = nabla_sum(GridFunction(4, [7.0, 7.0]), 0.3)
    assert r.base == 3
    assert r.values[0] == 0.0


def test_sum_of_a_tiny_order_is_the_identity():
    # nu - 1 rounds to -1, whose recurrence row is 1, 0, 0, ...: the sum's
    # order-0 limit, not the zero function
    v = np.random.default_rng(5).uniform(-10.0, 10.0, 600)
    for nu in (1e-20, 2.0**-54):
        r = nabla_sum(GridFunction(2, v), nu)
        assert r.base == 1 and r.values[0] == 0.0
        assert float(np.max(np.abs(r.values[1:] - v))) <= 1e-15
    # an order whose nu - 1 is not -1 keeps its row, to the last bit
    want = _convolve_head(monomial_sequence(0.3 - 1.0, v.size)[1:], v)
    assert nabla_sum(GridFunction(2, v), 0.3).values[1:].tobytes() == want.tobytes()


def test_sum_power_rule():
    # sum of order nu sends H_mu to H_{mu+nu} at matching offsets
    mu, nu, n = 0.3, 0.7, 100
    u = GridFunction(1, monomial_sequence(mu, n)[1:])
    r = nabla_sum(u, nu)
    want = monomial_sequence(mu + nu, n)
    gap = np.abs(r.values - want) / np.maximum(1.0, np.abs(want))
    assert float(np.max(gap)) < 1e-13


def test_sum_rejects_nonpositive_order():
    u = GridFunction(1, [1.0, 2.0])
    with pytest.raises(ValueError):
        nabla_sum(u, 0.0)
    with pytest.raises(ValueError):
        nabla_sum(u, -0.5)


# --- fractional differences ---------------------------------------------


def test_direct_first_value_is_first_sample():
    # lag-1 weight is exactly 1
    u = GridFunction(1, [2.25, -1.0, 0.5])
    r = nabla_frac_diff_direct(u, 0.6)
    assert r.base == 1
    assert r.values[0] == 2.25


def test_direct_second_value_uses_minus_nu():
    nu = 0.4
    u = GridFunction(1, [3.0, 5.0])
    r = nabla_frac_diff_direct(u, nu)
    assert r.values[1] == pytest.approx(5.0 - nu * 3.0, rel=1e-15)
    assert convolution_weights(nu, 2)[-1] == -nu


def test_direct_rejects_integer_or_nonpositive_order():
    u = GridFunction(1, [1.0, 2.0, 3.0])
    for nu in (1.0, 2.0, 0.0, -0.5):
        with pytest.raises(ValueError):
            nabla_frac_diff_direct(u, nu)


def test_composed_equals_direct_fixed_orders():
    rng = np.random.default_rng(7)
    for nu in (0.3, 0.5, 0.9, 1.5, 2.7):
        u = GridFunction(1, rng.uniform(-5.0, 5.0, size=40))
        d = nabla_frac_diff_direct(u, nu)
        c = nabla_frac_diff_composed(u, nu)
        assert c.base == u.base - 1 + int(np.ceil(nu))
        assert _common_domain_gap(d, c) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    nu=st.sampled_from([0.25, 0.75, 1.5]),
    data=st.lists(st.floats(-5.0, 5.0), min_size=5, max_size=30),
)
def test_composed_equals_direct_property(nu, data):
    u = GridFunction(1, np.asarray(data))
    d = nabla_frac_diff_direct(u, nu)
    c = nabla_frac_diff_composed(u, nu)
    shift = c.base - d.base
    gap = np.abs(d.values[shift:] - c.values)
    floor = np.maximum(1.0, np.abs(d.values[shift:]))
    assert np.all(gap <= 1e-10 * floor)


def test_composed_integer_order_routes_to_classical():
    u = GridFunction(2, np.arange(10.0) ** 2)
    one = nabla_frac_diff_composed(u, 1.0)
    assert one.base == nabla_diff(u).base
    assert np.array_equal(one.values, nabla_diff(u).values)
    two = nabla_frac_diff_composed(u, 2.0)
    assert np.array_equal(two.values, nabla_diff_n(u, 2).values)


def test_composed_needs_enough_points():
    with pytest.raises(DomainTooShortError):
        nabla_frac_diff_composed(GridFunction(1, [1.0, 2.0]), 2.7)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=20),
    other=st.lists(st.floats(-5.0, 5.0), min_size=20, max_size=20),
    alpha=st.floats(-3.0, 3.0),
    beta=st.floats(-3.0, 3.0),
)
def test_direct_operator_is_linear(data, other, alpha, beta):
    u = np.asarray(data)
    v = np.asarray(other)[: u.size]
    lhs = nabla_frac_diff_direct(GridFunction(1, alpha * u + beta * v), 0.6).values
    rhs = (
        alpha * nabla_frac_diff_direct(GridFunction(1, u), 0.6).values
        + beta * nabla_frac_diff_direct(GridFunction(1, v), 0.6).values
    )
    assert np.all(np.abs(lhs - rhs) <= 1e-11 * (1.0 + abs(alpha) + abs(beta)))


def test_operators_are_translation_invariant():
    rng = np.random.default_rng(11)
    vals = rng.uniform(-2.0, 2.0, size=25)
    lo, hi = GridFunction(1, vals), GridFunction(11, vals)
    for op, kwargs in (
        (nabla_sum, {"nu": 0.4}),
        (nabla_frac_diff_direct, {"nu": 0.4}),
        (nabla_frac_diff_composed, {"nu": 1.6}),
    ):
        a, b = op(lo, **kwargs), op(hi, **kwargs)
        assert b.base - a.base == 10
        assert np.array_equal(a.values, b.values)


# --- blocked convolution head --------------------------------------------


def _full_head(kernel, v):
    """The unblocked head: one long-double np.convolve of all 2n - 1 terms, first n kept."""
    full = np.convolve(kernel.astype(np.longdouble), v.astype(np.longdouble))
    return full[: v.size].astype(float)


def _kernel(nu, n):
    # the direct weights below order 1, the growing sum kernel above it
    return convolution_weights(nu, n) if nu < 1 else monomial_sequence(nu - 1.0, n)[1:]


@pytest.mark.parametrize("nu", [0.3, 0.75, 1.5, 1.9])
def test_one_block_heads_are_bit_identical_to_the_full_convolution(nu):
    rng = np.random.default_rng(31)
    for n in (1, 2, 17, _BLOCK - 1, _BLOCK):
        v = rng.uniform(-1.0, 1.0, size=n)
        kernel = _kernel(nu, n)
        assert np.array_equal(_convolve_head(kernel, v), _full_head(kernel, v)), n


@pytest.mark.parametrize("nu", [0.3, 0.75, 1.5, 1.9])
@pytest.mark.parametrize(
    "n",
    # the edges of one block and of the two-block merges, and 5000, whose
    # last merge takes 5120 points where a whole one would take 8192
    [_BLOCK - 1, _BLOCK + 1, 3 * _BLOCK + 17, 2 * _BLOCK, 4 * _BLOCK + 1]
    + [2 * _BLOCK - 1, 2 * _BLOCK + 1, 6 * _BLOCK + 17, 4 * _BLOCK, 8 * _BLOCK + 1, 5000],
)
def test_blocked_heads_match_the_full_convolution(nu, n):
    # the long-double head, as the operators run it, and the float64 head of
    # the solve residuals, in units of the largest output
    v = np.random.default_rng(n).uniform(-1.0, 1.0, size=n)
    kernel = _kernel(nu, n)
    full = _full_head(kernel, v)
    assert _max_rel(_convolve_head(kernel, v), full) <= 1e-12
    assert np.max(np.abs(_convolve_head(kernel, v, float) - full)) <= 1e-13 * np.max(np.abs(full))


@pytest.mark.parametrize("nu", [0.5, 0.3])
@pytest.mark.parametrize("n", [2000, 5000])
def test_float64_heads_of_inputs_near_overflow_stay_finite(nu, n):
    # the sum kernel (order nu - 1) and the direct weights: unscaled, the
    # float64 merges overflow from point 512 on, while the long-double head
    # peaks near 3.5e306
    v = np.random.default_rng(n).uniform(-1e306, 1e306, size=n)
    for kernel in (monomial_sequence(nu - 1.0, n)[1:], convolution_weights(nu, n)):
        want = _convolve_head(kernel, v)
        got = _convolve_head(kernel, v, float)
        assert np.isfinite(want).all() and np.isfinite(got).all()
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _far_lags_loop(source, weights, near, count):
    """The far lags by their definition, one long-double sum over the sources per output."""
    b = len(source)
    lagged = np.zeros(2 * b, dtype=np.longdouble)
    lagged[near : len(weights)] = weights[near : 2 * b]
    source = source.astype(np.longdouble)
    out = np.empty((count,) + source.shape[1:], dtype=np.longdouble)
    for i in range(count):
        # source j reaches output i at lag b + i - j
        out[i] = lagged[b + i : i : -1].dot(source)
    return out


@pytest.mark.parametrize("dtype, bound", [(np.longdouble, 1e-18), (float, 1e-15)])
@pytest.mark.parametrize("near", [65, _BLOCK, 2 * _BLOCK])
@pytest.mark.parametrize("columns", [(), (3,)])
def test_far_lags_match_the_direct_sum(dtype, bound, near, columns):
    # one block of b = 512 points into the next b, and into the first 100
    # and 250 points of a last, partial block, whose weight row ends at the
    # last lag it needs; those merges transform 5 * 2^7 and 3 * 2^8 points,
    # the smallest such lengths of at least b + count.  The bound is
    # relative to the largest sum of |w| |x| at a point
    b, rng = 2 * _BLOCK, np.random.default_rng(near)
    source = rng.uniform(-1.0, 1.0, size=(b,) + columns).astype(dtype)
    for count, size in ((b, 2 * b), (100, 5 * 2**7), (250, 3 * 2**8)):
        weights = convolution_weights(0.7, b + count).astype(dtype)
        want = _far_lags_loop(source, weights, near, count)
        scale = np.max(_far_lags_loop(np.abs(source), np.abs(weights), near, count))
        spectra: dict = {}
        for _ in range(2):  # the second call reads the cached spectrum
            got = _far_lags(source, weights, near, count, spectra)
            assert got.shape == want.shape and got.dtype == dtype
            assert np.max(np.abs(got - want)) <= bound * scale
        # the kernel spectrum is cached by its transform length
        assert list(spectra) == [size]


def test_memory_crosses_block_edges():
    # a bump in block 1 reaches every later output, in later blocks too,
    # and no earlier one: the causal full memory beyond one block
    n, bump = 3 * _BLOCK, _BLOCK + 100
    vals = np.random.default_rng(37).uniform(-1.0, 1.0, size=n)
    bumped = vals.copy()
    bumped[bump] += 1.0
    d0 = nabla_frac_diff_direct(GridFunction(1, vals), 0.5).values
    d1 = nabla_frac_diff_direct(GridFunction(1, bumped), 0.5).values
    assert np.array_equal(d0[:bump], d1[:bump])
    assert np.all(d0[bump:] != d1[bump:])


@pytest.mark.parametrize(
    "n, bump",
    [
        (5000, 4900),  # in the last, partial block
        (5000, 2 * _BLOCK),  # offset 512, the first point the 2-block merge reaches
        (5000, 2 * _BLOCK - 1),  # the last input of that merge's source block
        (5000, 4 * _BLOCK),  # offset 1024, the first point the 4-block merge reaches
        (5000, 4 * _BLOCK - 1),  # the last input of that merge's source block
        (4 * _BLOCK + 1, 4 * _BLOCK),  # the last point, alone in its block
        (8 * _BLOCK + 1, 8 * _BLOCK),  # the same past the 8-block merge
    ],
)
def test_memory_stays_causal_across_fft_levels(n, bump):
    # the cross-block lags come from FFT merges of aligned blocks of
    # _BLOCK * 2^i points into the next as many: a bump
    # changes every output from its own point on and none before it
    vals = np.random.default_rng(41).uniform(-1.0, 1.0, size=n)
    bumped = vals.copy()
    bumped[bump] += 1.0
    d0 = nabla_frac_diff_direct(GridFunction(1, vals), 0.5).values
    d1 = nabla_frac_diff_direct(GridFunction(1, bumped), 0.5).values
    assert np.array_equal(d0[:bump], d1[:bump])
    assert np.all(d0[bump:] != d1[bump:])


# --- references ---------------------------------------------------------


@pytest.mark.parametrize("nu", [0.1, 0.5, 0.9, 1.3, 1.9])
def test_operators_match_the_fsum_row_loop(nu):
    # the long-double convolution against exact summation of float64 products
    v = np.random.default_rng(23).uniform(-1.0, 1.0, size=2000)
    u = GridFunction(1, v)
    assert _max_rel(nabla_sum(u, nu).values, _fsum_sum(v, nu)) <= 1e-11
    want = _fsum_rows(convolution_weights(nu, v.size), v)
    assert _max_rel(nabla_frac_diff_direct(u, nu).values, want) <= 1e-11
    order = math.ceil(nu)
    want = np.diff(_fsum_sum(v, order - nu), n=order)
    assert _max_rel(nabla_frac_diff_composed(u, nu).values, want) <= 1e-11


@pytest.mark.parametrize("nu", [F(1, 4), F(3, 4), F(5, 4), F(7, 4)])
def test_operators_match_the_exact_oracle(nu):
    n = 120
    exact_values = [F(int(k), 8) for k in np.random.default_rng(29).integers(-40, 41, size=n)]
    u = GridFunction(1, [float(x) for x in exact_values])

    def exact(values):
        return np.array([float(x) for x in values])

    want = exact(oracle_nabla_sum(exact_values, nu))
    assert _max_rel(nabla_sum(u, float(nu)).values, want) <= 1e-12
    want = exact(oracle_frac_diff_direct(exact_values, nu))
    assert _max_rel(nabla_frac_diff_direct(u, float(nu)).values, want) <= 1e-12
    first, composed = oracle_frac_diff_composed(exact_values, nu)
    got = nabla_frac_diff_composed(u, float(nu))
    assert got.base - (u.base - 1) == first
    assert _max_rel(got.values, exact(composed)) <= 1e-12


# --- power rule ---------------------------------------------------------


def test_power_rule_over_parameter_grid():
    for mu in (0.3, 1.0, 2.5):
        for nu in (0.2, 0.5, 0.9, 1.5):
            assert power_rule_check(mu, nu, 120) <= 1e-10, (mu, nu)


def test_power_rule_annihilation_beyond_first_offset():
    # H_{nu-1} maps to the order -1 limit: 1 at the first point, then zero
    for nu in (0.3, 0.5, 0.9):
        samples = monomial_sequence(nu - 1.0, 60)[1:]
        applied = nabla_frac_diff_direct(GridFunction(1, samples), nu)
        assert applied.values[0] == pytest.approx(1.0, abs=1e-12)
        assert float(np.max(np.abs(applied.values[1:]))) < 1e-12


def test_power_rule_check_validation():
    with pytest.raises(ValueError):
        power_rule_check(0.3, 1.0, 50)
    with pytest.raises(ValueError):
        power_rule_check(-2.0, 0.5, 50)
    with pytest.raises(ValueError):
        power_rule_check(0.3, 0.5, 0)


# --- memory -------------------------------------------------------------


def test_fractional_memory_is_full_classical_is_local():
    rng = np.random.default_rng(3)
    vals = rng.uniform(-1.0, 1.0, size=30)
    bumped = vals.copy()
    bumped[6] += 1.0  # perturb u at t = base + 6 = 7

    d0 = nabla_frac_diff_direct(GridFunction(1, vals), 0.5).values
    d1 = nabla_frac_diff_direct(GridFunction(1, bumped), 0.5).values
    changed = np.nonzero(d0 != d1)[0]
    assert np.array_equal(changed, np.arange(6, 30))

    n0 = nabla_diff(GridFunction(1, vals)).values
    n1 = nabla_diff(GridFunction(1, bumped)).values
    assert np.array_equal(np.nonzero(n0 != n1)[0], [5, 6])


@pytest.mark.parametrize(
    "operator, values, t",
    [
        (nabla_diff, [1.0, 1e308, -1e308], 3),
        (lambda u: nabla_diff_n(u, 2), [1.0, -1e308, 1e308], 3),
        (lambda u: nabla_frac_diff_direct(u, 1.5), [1.0, 1e308, -1e308], 3),
        (lambda u: nabla_frac_diff_composed(u, 1.5), [1.0, 1e308, -1e308], 3),
        (lambda u: nabla_sum(u, 1.5), [1e308, 1e308], 2),
    ],
    ids=["nabla", "nabla_2", "direct", "composed", "sum"],
)
def test_overflowing_output_raises_at_its_first_point(operator, values, t):
    # finite input, overflowing output: the named point, and no NumPy warning
    # (tier-1 turns a leaked RuntimeWarning into a failure)
    with pytest.raises(DivergentSolutionError) as info:
        operator(GridFunction(1, values))
    assert info.value.t == t
    assert not np.isfinite(info.value.value)


def _uniform(n, first=None, sign=1.0):
    v = sign * np.random.default_rng(0).uniform(-1.0, 1.0, size=n)
    if first is not None:
        v[0] = first
    return v


@pytest.mark.parametrize(
    "operator, nu, v",
    [
        # the sum's kernel row overflows at lag 685, its output first at 683
        ("sum", 400.5, np.ones(1000)),
        ("sum", 400.5, -np.ones(1000)),
        ("sum", 300.5, _uniform(2000)),
        # the direct weights overflow at lag 338: inf, -inf, and nan where
        # the weight meets v[0] = 0
        ("direct", 1200.5, _uniform(400)),
        ("direct", 1200.5, _uniform(400, sign=-1.0)),
        ("direct", 1200.5, _uniform(400, first=0.0)),
    ],
    ids=["sum-inf", "sum-minus-inf", "sum-merged", "direct-inf", "direct-minus-inf", "direct-nan"],
)
def test_an_overflowed_kernel_row_names_the_first_point_of_the_full_convolution(operator, nu, v):
    # an overflowed weight must not spread through the FFT merges to outputs
    # that never read it: the first non-finite point and its kind (inf, -inf
    # or nan) are those of the unsplit long-double convolution
    if operator == "sum":
        kernel, apply = monomial_sequence(nu - 1.0, v.size)[1:], nabla_sum
    else:
        kernel, apply = convolution_weights(nu, v.size), nabla_frac_diff_direct
    with np.errstate(over="ignore", invalid="ignore"):
        full = np.convolve(kernel.astype(np.longdouble), v.astype(np.longdouble))[: v.size].astype(float)
    first = int(np.flatnonzero(~np.isfinite(full))[0])
    with pytest.raises(DivergentSolutionError) as info:
        apply(GridFunction(1, v), nu)
    # both operators put the head's entry i at t = 1 + i
    assert info.value.t == 1 + first
    assert repr(info.value.value) == repr(float(full[first]))


# --- CSV ----------------------------------------------------------------


def test_package_reexports_the_formats_module():
    # the root holds exactly the submodules' public names, so a name deleted
    # from a submodule cannot survive as a root alias
    modules = {}
    for module_name in ("grid", "monomial", "solver", "stability", "formats"):
        module = modules[module_name] = importlib.import_module(f"nablafrac.{module_name}")
        for name in module.__all__:
            assert getattr(nablafrac, name) is getattr(module, name), (module_name, name)
    exported = {name for module in modules.values() for name in module.__all__}
    public = {name for name in vars(nablafrac) if not name.startswith("_")}
    # other tests import cli and exact, which binds them as attributes
    assert public - exported <= set(modules) | {"cli", "exact"}


def test_package_root_binds_no_oracle():
    # the exact oracles are imported from nablafrac.exact; the root neither
    # names them nor loads fractions
    code = (
        "import sys, nablafrac; "
        "print(hasattr(nablafrac, 'oracle_solve'), hasattr(nablafrac, 'exact'), 'fractions' in sys.modules); "
        "import nablafrac.exact; print(nablafrac.exact.oracle_solve.__name__)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(nablafrac.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == ["False", "False", "False", "oracle_solve"], done.stderr


def test_csv_round_trip_is_lossless():
    rng = np.random.default_rng(19)
    vals = np.concatenate([rng.uniform(-1e6, 1e6, 10), rng.uniform(-1e-6, 1e-6, 10)])
    u = GridFunction(-3, vals)
    buf = io.StringIO()
    write_grid_csv(u, buf)
    back = read_grid_csv(io.StringIO(buf.getvalue()))
    assert back.base == -3
    assert np.array_equal(back.values, u.values)


def test_csv_base_comment_round_trips():
    u = GridFunction(4, [1.0, 2.0])
    buf = io.StringIO()
    write_grid_csv(u, buf, record_base=True)
    text = buf.getvalue()
    assert text.startswith("# base=4\n")
    back = read_grid_csv(io.StringIO(text))
    assert back.base == 4


def test_csv_writer_is_deterministic():
    u = GridFunction(0, np.random.default_rng(2).uniform(-1, 1, 20))
    a, b = io.StringIO(), io.StringIO()
    write_grid_csv(u, a)
    write_grid_csv(u, b)
    assert a.getvalue() == b.getvalue()


def test_csv_reader_skips_comments_and_blanks():
    text = "# a comment\n\nIndex,Value\n# another\n5,1.5\n\n6,2.5\n"
    g = read_grid_csv(io.StringIO(text))
    assert g.base == 5
    assert np.array_equal(g.values, [1.5, 2.5])


def test_csv_reader_errors_name_the_line():
    with pytest.raises(GridCsvError, match="line 1"):
        read_grid_csv(io.StringIO("wrong,header\n1,2\n"))
    with pytest.raises(GridCsvError, match="line 2"):
        read_grid_csv(io.StringIO("index,value\nx,2\n"))
    with pytest.raises(GridCsvError, match="line 3"):
        read_grid_csv(io.StringIO("index,value\n1,2\n1.5,3\n"))
    with pytest.raises(GridCsvError, match="line 3"):
        read_grid_csv(io.StringIO("index,value\n1,2\n3,4\n"))
    with pytest.raises(GridCsvError, match="line 2"):
        read_grid_csv(io.StringIO("index,value\n1,nan\n"))
    with pytest.raises(GridCsvError, match="line 2"):
        read_grid_csv(io.StringIO("index,value\n1\n"))
    with pytest.raises(GridCsvError, match="header"):
        read_grid_csv(io.StringIO(""))
    with pytest.raises(GridCsvError, match="no data"):
        read_grid_csv(io.StringIO("index,value\n"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("# c\n\nwrong,header\n1,2\n", "line 3: expected header 'index,value', got 'wrong,header'"),
        ("index,value\n1,2\n 2 ,3\n1,2,3\n", "line 4: expected 'index,value', got '1,2,3'"),
        ("index,value\n1,2\n\n2.5,x\n", "line 4: index '2.5' is not an integer"),
        ("index,value\n1,2\n2, x\n3,4\n", "line 3: value ' x' is not a number"),
        ("index,value\n1,2\n2,-inf\n3,y\n", "line 3: value '-inf' is not finite"),
        ("index,value\n1,2\n# c\n5,3\nz,4\n", "line 4: index 5 breaks the consecutive run (expected 2)"),
        # rows of three and one fields whose tokens would pair up consecutively
        ("index,value\n1,5\n2,6,3\n7\n", "line 3: expected 'index,value', got '2,6,3'"),
        # within one row the checks run in order: index before value
        ("index,value\n1,2\nq,nan\n", "line 3: index 'q' is not an integer"),
    ],
)
def test_csv_reader_reports_the_first_bad_row(text, message):
    # the bulk parse reports the first malformed row, with the message of
    # the first check it fails, as a row-by-row parse would
    with pytest.raises(GridCsvError) as info:
        read_grid_csv(io.StringIO(text))
    assert str(info.value) == message


def test_csv_reader_parses_like_int_and_float():
    # tokens convert exactly as int() and float() read them: surrounding
    # blanks, signs, underscores, and indices past the int64 range
    big = 2**63
    text = f"index,value\n {big} , 1_0.5 \n+{big + 1},-0.1\n{big + 2},1e-320\n"
    g = read_grid_csv(io.StringIO(text))
    assert g.base == big
    assert g.values.tobytes() == np.array([10.5, -0.1, 1e-320]).tobytes()
