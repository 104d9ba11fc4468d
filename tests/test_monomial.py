"""Taylor monomial kernel: recurrence values, conventions, weights."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nablafrac import (
    convolution_weights,
    envelope_sequence,
    monomial_limit_sequence,
    monomial_sequence,
)
from nablafrac.exact import oracle_monomial


def _gamma_sign(x: float) -> float:
    # Gamma(x) is negative exactly when x < 0 and floor(x) is odd
    return -1.0 if x < 0 and math.floor(x) % 2 else 1.0


def _gamma_ratio(mu: float, n: int) -> float:
    # independent route through log-gamma: Gamma(n+mu) / (Gamma(n) Gamma(mu+1))
    sign = _gamma_sign(n + mu) * _gamma_sign(mu + 1.0)
    return sign * math.exp(math.lgamma(n + mu) - math.lgamma(n) - math.lgamma(mu + 1.0))


def test_first_offset_is_one_for_every_order():
    for mu in (-2.7, -0.5, 0.0, 0.3, 1.0, 4.2):
        assert monomial_sequence(mu, 1)[-1] == 1.0


def test_offset_zero_is_zero_for_every_order():
    for mu in (-3.0, -0.5, 0.0, 0.5, 2.0):
        assert monomial_sequence(mu, 0)[-1] == 0.0
    assert monomial_sequence(0.7, 10)[0] == 0.0


def test_negative_integer_order_vanishes_identically():
    assert np.all(monomial_sequence(-2.0, 8) == 0.0)
    assert monomial_sequence(-1.0, 5)[-1] == 0.0
    assert monomial_sequence(-3.0, 1)[-1] == 0.0
    # the direct weights at an integer order are the monomials of order -nu - 1
    assert np.array_equal(convolution_weights(2.0, 4), np.zeros(4))


def test_order_zero_is_the_unit_step():
    # h(k+1) = h(k) * k/k: constant 1 from offset 1 on
    seq = monomial_sequence(0.0, 6)
    assert np.array_equal(seq, [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])


def test_matches_log_gamma_route():
    for mu in (-1.5, -0.9, -0.5, -0.1, 0.3, 1.0, 2.5):
        for n in (1, 2, 3, 5, 10, 50, 200):
            got = monomial_sequence(mu, n)[-1]
            want = _gamma_ratio(mu, n)
            assert got == pytest.approx(want, rel=5e-12), (mu, n)


def test_matches_exact_oracle():
    for mu in (Fraction(1, 3), Fraction(-1, 2), Fraction(5, 2), Fraction(-7, 4)):
        for n in range(0, 41):
            got = monomial_sequence(float(mu), n)[-1]
            want = float(oracle_monomial(mu, n))
            assert got == pytest.approx(want, rel=1e-13, abs=1e-300), (mu, n)


def test_decay_order_fixture_values():
    # offsets 2 and 3 of the order nu-1 monomial are nu and nu(nu+1)/2
    for nu in (0.25, 0.5, 0.75):
        seq = monomial_sequence(nu - 1.0, 3)
        assert seq[1] == 1.0
        assert seq[2] == pytest.approx(nu, abs=1e-14)
        assert seq[3] == pytest.approx(nu * (nu + 1.0) / 2.0, abs=1e-14)


def test_half_order_tail_prefix():
    tail = envelope_sequence(0.5, 3)
    assert tail == pytest.approx([1.0, 0.5, 0.375, 0.3125], abs=1e-15)


def test_tail_is_positive_and_strictly_decreasing():
    for mu in (0.1, 0.5, 0.9):
        tail = envelope_sequence(mu, 499)
        assert np.all(tail > 0.0)
        assert np.all(np.diff(tail) < 0.0)


def test_tail_vanishes_at_depth():
    # exact cross-check at mu = 1/2: h(n) = (2n-3)!! / (2^(n-1) (n-1)!)
    n = 10_000
    value = float(envelope_sequence(0.5, n - 1)[-1])
    num = math.prod(range(1, 2 * n - 2, 2))
    den = 2 ** (n - 1) * math.factorial(n - 1)
    exact = float(Fraction(num, den))
    assert value == pytest.approx(exact, rel=1e-12)
    assert value < 0.1


def test_tail_rejects_boundary_orders():
    with pytest.raises(ValueError):
        envelope_sequence(0.0, 9)
    with pytest.raises(ValueError):
        envelope_sequence(1.0, 9)


def test_limit_reference_at_negative_integer_orders():
    assert np.array_equal(monomial_limit_sequence(-1.0, 4), [0.0, 1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(monomial_limit_sequence(-2.0, 4), [0.0, 1.0, -1.0, 0.0, 0.0])
    assert monomial_limit_sequence(-1.0, 1)[-1] == 1.0
    assert monomial_limit_sequence(-2.0, 2)[-1] == -1.0


def test_limit_reference_equals_standard_away_from_negative_integers():
    for mu in (-0.5, 0.3, 2.0):
        assert np.array_equal(monomial_limit_sequence(mu, 30), monomial_sequence(mu, 30))


def test_sequence_matches_scalar_evaluation():
    seq = monomial_sequence(0.3, 200)
    for n in range(26):
        assert np.array_equal(monomial_sequence(0.3, n), seq[: n + 1])


def test_weight_first_two_lags_are_exact():
    for nu in (0.2, 0.5, 0.8):
        assert convolution_weights(nu, 1)[-1] == 1.0
        assert convolution_weights(nu, 2)[-1] == -nu


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an 80-bit np.longdouble")
def test_the_lag_two_weight_is_minus_nu_wherever_its_order_fits_long_double():
    # -nu - 1 holds every bit of a float64 nu >= 2^-11 in a 64-bit
    # significand, so 1 + (-nu - 1) is exactly -nu; below 2^-11 the order
    # rounds, and the identity failed at orders up to 4.7e-4
    rng = np.random.default_rng(0)
    orders = np.concatenate(([2.0**-11], 2.0 ** rng.uniform(-11, 0, 2000), rng.uniform(1, 10, 2000)))
    for nu in orders.tolist():
        assert convolution_weights(nu, 2)[-1] == -nu, nu


def test_envelopes_of_small_order_hold_to_the_exact_monomial():
    # the envelope's order nu - 1 is rounded to float64, by up to 2^-54,
    # which moves the row by up to about 2^-54 / nu relative.  Over 4000
    # orders from 1e-3 to 1, offsets 1 to 41, the worst error measured was
    # 5.3e-14 (near 1e-3) and at most 0.67 of this bound
    rng = np.random.default_rng(0)
    for nu in np.concatenate(([1e-3], 10 ** rng.uniform(-3, 0, 100))).tolist():
        exact = [oracle_monomial(Fraction(nu) - 1, n) for n in range(1, 42)]
        error = max(abs(float(Fraction(x) / y - 1)) for x, y in zip(envelope_sequence(nu, 40).tolist(), exact))
        assert error <= 2.0**-53 / nu + 4e-16, nu


def test_weight_frozen_value():
    # lag-5 weight at nu = 0.3 is -3213/80000
    assert convolution_weights(0.3, 5)[-1] == pytest.approx(-0.0401625, abs=1e-15)


@given(
    nu=st.floats(0.01, 0.99),
    lag=st.integers(2, 80),
)
def test_weights_beyond_lag_one_are_strictly_negative(nu, lag):
    assert convolution_weights(nu, lag)[-1] < 0.0


def test_weight_row_matches_scalar_weights():
    nu = 0.7
    row = convolution_weights(nu, 60)
    assert row.shape == (60,)
    for lag in range(1, 61):
        assert np.array_equal(convolution_weights(nu, lag), row[:lag])


@pytest.mark.parametrize("nu", [0.01, 0.3, 0.875, 0.99])
def test_weight_partial_sums_are_the_memory_monomial(nu):
    # the float form of the exact identity sum(w[:L]) = H_{-nu}(L); with
    # x87 long-double rows the worst gap measured was 5.9e-15, at nu 0.01
    sums = np.cumsum(convolution_weights(nu, 5000))
    np.testing.assert_allclose(sums, monomial_sequence(-nu, 5000)[1:], rtol=0, atol=2e-14)


def test_weight_validation():
    with pytest.raises(ValueError):
        convolution_weights(0.5, 0)
    with pytest.raises(ValueError):
        convolution_weights(-0.5, 3)
    with pytest.raises(ValueError):
        convolution_weights(0.0, 3)


def test_params_validation():
    with pytest.raises(ValueError):
        monomial_sequence(0.5, -1)
    with pytest.raises(ValueError):
        monomial_sequence(float("nan"), 1)
    with pytest.raises(ValueError):
        monomial_sequence(float("inf"), 1)
    with pytest.raises(ValueError):
        monomial_limit_sequence(0.5, -2)
