"""Taylor monomial kernel: recurrence values, conventions, weights."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import gammaln, gammasgn

from nablafrac import (
    convolution_weights,
    envelope_sequence,
    monomial_limit_sequence,
    monomial_sequence,
)
from nablafrac.exact import oracle_monomial


def _gamma_ratio(mu: float, n: int) -> float:
    # independent route through log-gamma: Gamma(n+mu) / (Gamma(n) Gamma(mu+1))
    sign = gammasgn(n + mu) * gammasgn(mu + 1.0)
    return sign * math.exp(gammaln(n + mu) - gammaln(n) - gammaln(mu + 1.0))


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
