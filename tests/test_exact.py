"""Exact-rational reference implementations: frozen values and identities."""

from fractions import Fraction as F

import pytest

from nablafrac.exact import (
    SOLVE_COST_GUARD,
    oracle_first_order,
    oracle_frac_diff_composed,
    oracle_frac_diff_direct,
    oracle_mittag_leffler,
    oracle_monomial,
    oracle_nabla_diff_n,
    oracle_nabla_sum,
    oracle_solve,
    oracle_weight_row,
)

# deterministic little grid function with awkward denominators
VALUES = [F(k * k - 3, k + 2) for k in range(1, 21)]


def test_monomial_frozen_values():
    assert oracle_monomial(F(-1, 2), 0) == 0
    assert oracle_monomial(F(-1, 2), 1) == 1
    assert oracle_monomial(F(-1, 2), 2) == F(1, 2)
    assert oracle_monomial(F(-1, 2), 3) == F(3, 8)
    assert oracle_monomial(3, 4) == 20


def _monomial_by_steps(mu, n):
    """The recurrence one reduced step at a time, as the oracle once computed it."""
    value = F(0) if n == 0 else F(1)
    for k in range(1, n):
        value = value * (k + mu) / k
    return value


@pytest.mark.parametrize("mu", [F(-1, 2), F(7, 10), F(-13, 7), F(1, 1000), F(22, 3), F(0), F(3)])
def test_monomial_products_match_the_step_by_step_recurrence(mu):
    assert [oracle_monomial(mu, n) for n in range(60)] == [_monomial_by_steps(mu, n) for n in range(60)]


def test_monomial_closed_forms_at_a_long_offset():
    # h(n) is 1 for mu = 0, n for mu = 1 and n(n+1)/2 for mu = 2
    n = 5000
    assert oracle_monomial(0, n) == 1
    assert oracle_monomial(1, n) == n
    assert oracle_monomial(2, n) == n * (n + 1) // 2


def test_monomial_rejects_bad_input():
    with pytest.raises(ValueError):
        oracle_monomial(-2, 3)
    with pytest.raises(ValueError):
        oracle_monomial(F(-3), 1)
    with pytest.raises(ValueError):
        oracle_monomial(F(1, 2), -1)
    with pytest.raises(TypeError):
        oracle_monomial(0.5, 3)


def test_weight_row_consistency_and_frozen_value():
    nu = F(3, 10)
    row = oracle_weight_row(nu, 8)
    assert row == [oracle_monomial(-nu - 1, lag) for lag in range(1, 9)]
    assert row[0] == 1
    assert row[1] == -nu
    assert oracle_weight_row(nu, 5)[-1] == F(-3213, 80000)
    assert all(w < 0 for w in row[1:])


def test_sum_power_rule_is_exact():
    mu, nu = F(1, 3), F(1, 2)
    samples = [oracle_monomial(mu, j) for j in range(1, 26)]
    out = oracle_nabla_sum(samples, nu)
    assert out == [oracle_monomial(mu + nu, k) for k in range(26)]


def test_direct_power_rule_is_exact():
    mu, nu = F(5, 2), F(1, 2)
    samples = [oracle_monomial(mu, j) for j in range(1, 21)]
    out = oracle_frac_diff_direct(samples, nu)
    assert out == [oracle_monomial(mu - nu, m + 1) for m in range(20)]


def test_direct_annihilates_the_decay_monomial():
    # input H_{nu-1} maps to 1, 0, 0, ... (the order -1 recurrence limit)
    nu = F(2, 5)
    samples = [oracle_monomial(nu - 1, j) for j in range(1, 16)]
    out = oracle_frac_diff_direct(samples, nu)
    assert out[0] == 1
    assert all(v == 0 for v in out[1:])


def test_direct_rejects_integer_order():
    with pytest.raises(ValueError):
        oracle_frac_diff_direct(VALUES, F(2))
    with pytest.raises(ValueError):
        oracle_frac_diff_direct(VALUES, F(-1, 2))


def test_composed_equals_direct_on_common_domain():
    for nu in (F(1, 2), F(3, 2), F(27, 10)):
        direct = oracle_frac_diff_direct(VALUES, nu)
        first, composed = oracle_frac_diff_composed(VALUES, nu)
        for j, v in enumerate(composed):
            assert v == direct[first + j - 1], (nu, j)


def test_composed_integer_order_routes_to_classical():
    first, out = oracle_frac_diff_composed(VALUES, F(2))
    assert first == 3
    assert out == oracle_nabla_diff_n(VALUES, 2)


def test_mittag_leffler_zero_coefficient_prefix():
    # c = 0 gives the H_{nu-1} tail exactly: 1, 1/2, 3/8, 5/16, 35/128, 63/256
    seq = oracle_mittag_leffler(0, F(1, 2), 5)
    assert seq == [F(1), F(1, 2), F(3, 8), F(5, 16), F(35, 128), F(63, 256)]
    assert seq == [oracle_monomial(F(-1, 2), n + 1) for n in range(6)]


def test_mittag_leffler_first_step_formula():
    for c, nu in ((F(-1, 3), F(1, 2)), (F(2), F(3, 4)), (F(0), F(1, 4))):
        assert oracle_mittag_leffler(c, nu, 1)[1] == c + nu


def test_solve_representation_is_exact():
    c, nu, u0 = F(-2, 5), F(3, 4), F(3, 7)
    u = oracle_solve(nu, 0, c, 0, u0, 30)
    seq = oracle_mittag_leffler(c, nu, 30)
    assert u == [u0 * e for e in seq]


def test_solve_zero_initial_value():
    assert oracle_solve(F(1, 2), 0, F(1, 3), 0, 0, 10) == [F(0)] * 11


def test_exact_bound_holds_with_zero_slack():
    for c, nu in ((F(-1, 2), F(1, 2)), (F(-1, 4), F(1, 4)), (F(-3, 2), F(3, 4))):
        seq = oracle_mittag_leffler(c, nu, 60)
        for n, e in enumerate(seq):
            assert abs(e) <= oracle_monomial(nu - 1, n + 1), (c, nu, n)


def test_solve_cost_guard():
    with pytest.raises(ValueError):
        oracle_solve(F(1, 2), 0, 0, 0, 1, SOLVE_COST_GUARD + 1)


def test_solve_exactly_singular_pivot():
    with pytest.raises(ValueError, match="singular"):
        oracle_solve(F(1, 2), 1, 0, 0, 1, 5)


def test_first_order_oscillation_and_product_forms():
    assert oracle_first_order(2, "on_u_t", 1, 6) == [(-1) ** n for n in range(7)]
    assert oracle_first_order(F(-1, 2), "on_u_lag", 1, 5) == [F(1, 2 ** n) for n in range(6)]
    # constant forcing with c = 0 accumulates linearly
    assert oracle_first_order(0, "on_u_lag", F(3), 4, g=1) == [F(3 + n) for n in range(5)]


def test_first_order_singular_and_unknown_form():
    with pytest.raises(ValueError, match="singular"):
        oracle_first_order(1, "on_u_t", 1, 3)
    with pytest.raises(ValueError):
        oracle_first_order(0, "sideways", 1, 3)
