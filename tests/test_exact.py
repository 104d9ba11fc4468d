"""Exact-rational reference implementations: frozen values and identities."""

from fractions import Fraction as F

import pytest

from nablafrac.exact import (
    SOLVE_COST_GUARD,
    _row,
    oracle_frac_diff_composed,
    oracle_frac_diff_direct,
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


@pytest.mark.parametrize("mu", [F(-1, 2), F(7, 10), F(-13, 7), F(1, 1000), F(22, 3), F(0), F(3)])
def test_monomial_products_match_the_step_by_step_recurrence(mu):
    # the closed form checks the row recurrence the weights and the sum use
    assert [oracle_monomial(mu, n) for n in range(60)] == [0] + _row(mu, 59)


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
    # order 1, the classical nabla's row, which oracle_solve steps at nu=None
    assert oracle_weight_row(1, 6) == [1, -1, 0, 0, 0, 0]


@pytest.mark.parametrize("nu", [F(3, 10), F(7, 8)])
def test_weights_of_the_nearest_lags_sum_to_the_memory_monomial(nu):
    # the memory property, exactly: the weights at lags 1..L sum to H_{-nu}(L),
    # so the history past lag L weighs H_{-nu}(L)
    for lag in range(1, 61):
        assert sum(oracle_weight_row(nu, lag)) == oracle_monomial(-nu, lag), lag


def _zeros_in_the_closed_unit_disk(coefficients):
    """Zeros of the real polynomial sum(a_k z^k) with |z| <= 1, by the Schur-Cohn recursion.

    T p = a_0 p - a_d p*, with p* the reversed coefficients, has degree
    d - 1 and (T p)(0) = a_0^2 - a_d^2 =: gamma.  If every gamma is nonzero,
    no zero lies on the circle, and the zeros inside are as many as the
    negative running products of the gammas (Henrici, Applied and
    Computational Complex Analysis I, section 6.8).  Each T p is scaled by
    1 / |gamma|, which keeps the signs and stops the bit sizes doubling.
    """
    a, count, sign = list(coefficients), 0, 1
    while len(a) > 1:
        t = [a[0] * x - a[-1] * y for x, y in zip(a[:-1], a[:0:-1])]
        gamma = t[0]
        assert gamma != 0, "a zero on the unit circle, or a degenerate recursion"
        sign = sign if gamma > 0 else -sign
        count += sign < 0
        a = [x / abs(gamma) for x in t]
    return count


@pytest.mark.parametrize("nu", [F(3, 10), F(1, 2), F(7, 8)])
@pytest.mark.parametrize("lags", [4, 8, 16])
def test_the_cut_memory_decays_exactly_below_its_threshold(nu, lags):
    # cut to L lags, the lagged equation's symbol is P_L(z) = sum_{k<=L} w_k z^k - c z,
    # and its solution decays iff P_L has no zero in the closed unit disk;
    # P_L(1) = H_{-nu}(L+1) - c, so c = H_{-nu}(L+1) is the threshold
    w, h = oracle_weight_row(nu, lags + 1), oracle_monomial(-nu, lags + 1)
    for c, zeros in [
        (F(0), 0), (h / 2, 0), (h * F(999, 1000), 0), (F(-3, 10), 0),
        (h * F(1001, 1000), 1), (2 * h, 1), (F(1), 1),
    ]:
        assert _zeros_in_the_closed_unit_disk([w[0], w[1] - c, *w[2:]]) == zeros, c


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


def test_oracles_reject_bad_orders_and_short_inputs():
    with pytest.raises(ValueError, match="order must be >= 1, got 0"):
        oracle_nabla_diff_n(VALUES, 0)
    with pytest.raises(ValueError, match="not enough points for the difference"):
        oracle_nabla_diff_n([1], 1)
    with pytest.raises(ValueError, match="order must be positive, got 0"):
        oracle_frac_diff_composed(VALUES, 0)
    with pytest.raises(ValueError, match="coefficient sequence has 4 entries, need 5"):
        oracle_solve(F(1, 2), 0, [F(-1, 2)] * 4, 0, 1, 5)


def test_mittag_leffler_zero_coefficient_prefix():
    # c = 0 gives the H_{nu-1} tail exactly: 1, 1/2, 3/8, 5/16, 35/128, 63/256
    seq = oracle_solve(F(1, 2), 0, 0, 0, 1, 5)
    assert seq == [F(1), F(1, 2), F(3, 8), F(5, 16), F(35, 128), F(63, 256)]
    assert seq == [oracle_monomial(F(-1, 2), n + 1) for n in range(6)]


def test_mittag_leffler_first_step_formula():
    for c, nu in ((F(-1, 3), F(1, 2)), (F(2), F(3, 4)), (F(0), F(1, 4))):
        assert oracle_solve(nu, 0, c, 0, 1, 1)[1] == c + nu


def test_solve_representation_is_exact():
    # u = u0 E: the solve is linear in its initial value
    c, nu, u0 = F(-2, 5), F(3, 4), F(3, 7)
    u = oracle_solve(nu, 0, c, 0, u0, 30)
    seq = oracle_solve(nu, 0, c, 0, 1, 30)
    assert u == [u0 * e for e in seq]


def test_solve_zero_initial_value():
    assert oracle_solve(F(1, 2), 0, F(1, 3), 0, 0, 10) == [F(0)] * 11


def test_exact_bound_holds_with_zero_slack():
    for c, nu in ((F(-1, 2), F(1, 2)), (F(-1, 4), F(1, 4)), (F(-3, 2), F(3, 4))):
        seq = oracle_solve(nu, 0, c, 0, 1, 60)
        for n, e in enumerate(seq):
            assert abs(e) <= oracle_monomial(nu - 1, n + 1), (c, nu, n)


def test_solve_cost_guard():
    # the guard covers both orders
    for nu in (F(1, 2), None):
        with pytest.raises(ValueError, match="cost guard"):
            oracle_solve(nu, 0, 0, 0, 1, SOLVE_COST_GUARD + 1)


def test_solve_exactly_singular_pivot():
    # p = 1 at either order, and the first-order u(t) - u(t-1) = c u(t) at c = 1
    for nu in (F(1, 2), None):
        with pytest.raises(ValueError, match="singular"):
            oracle_solve(nu, 1, 0, 0, 1, 5)


def test_solve_refuses_orders_outside_the_unit_interval():
    for nu in (0, 1, F(3, 2), F(-1, 2)):
        with pytest.raises(ValueError, match="order must lie in"):
            oracle_solve(nu, 0, 0, 0, 1, 5)


def test_first_order_oscillation_and_product_forms():
    # u(t) - u(t-1) = c u(t) with c = 2 (p = c) flips the sign each step;
    # = c u(t-1) with c = -1/2 (q = c) halves it
    assert oracle_solve(None, 2, 0, 0, 1, 6) == [(-1) ** n for n in range(7)]
    assert oracle_solve(None, 0, F(-1, 2), 0, 1, 5) == [F(1, 2 ** n) for n in range(6)]
    # constant forcing with c = 0 accumulates linearly
    assert oracle_solve(None, 0, 0, 1, F(3), 4) == [F(3 + n) for n in range(5)]


def test_sum_refuses_orders_that_are_not_positive():
    for nu in (0, F(-1, 2), -1):
        with pytest.raises(ValueError, match="positive order"):
            oracle_nabla_sum(VALUES, nu)


def test_sum_kernel_row_matches_the_closed_form():
    # the sum of a unit impulse is its kernel: the row of order nu - 1
    nu = F(2, 7)
    impulse = [1] + [0] * 29
    assert oracle_nabla_sum(impulse, nu) == [0] + [oracle_monomial(nu - 1, lag) for lag in range(1, 31)]
