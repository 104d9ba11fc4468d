"""Grid functions, nabla operators, and CSV serialization."""

import io
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nablafrac import (
    DomainTooShortError,
    GridCsvError,
    GridFunction,
    convolution_weight,
    convolution_weights,
    monomial_sequence,
    nabla_diff,
    nabla_diff_n,
    nabla_frac_diff_composed,
    nabla_frac_diff_direct,
    nabla_sum,
    power_rule_check,
    read_grid_csv,
    write_grid_csv,
)
from nablafrac.exact import (
    oracle_frac_diff_composed,
    oracle_frac_diff_direct,
    oracle_nabla_sum,
)


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


def test_operator_result_to_grid():
    r = nabla_diff(GridFunction(5, [1.0, 3.0, 6.0]))
    g = r.to_grid()
    assert g.base == r.base == 6
    assert np.array_equal(g.values, r.values)
    assert r.value_at(6) == 2.0


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
    twice = nabla_diff(nabla_diff(u).to_grid())
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
    assert convolution_weight(nu, 2) == -nu


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


# --- CSV ----------------------------------------------------------------


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
