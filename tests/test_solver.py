"""Method-of-steps solvers: representation, defects, forms, serialization."""

import io
import json
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nablafrac import (
    DivergentSolutionError,
    FirstOrderForm,
    LinearProblem,
    SINGULAR_PIVOT_TOL,
    SingularStepError,
    coefficient_array,
    convolution_weights,
    envelope_sequence,
    mittag_leffler_seq,
    monomial_sequence,
    monomial_tail,
    solve_first_order,
    solve_general,
    solve_lagged,
    write_trace_csv,
    write_trace_json,
)
from nablafrac.exact import (
    oracle_first_order,
    oracle_mittag_leffler,
    oracle_solve,
)


def _rel_gap(got: np.ndarray, want: np.ndarray, floor: float = 1.0) -> float:
    scale = np.maximum(np.abs(want), floor)
    return float(np.max(np.abs(got - want) / scale))


# --- coefficient normalization ------------------------------------------


def test_coefficient_array_broadcasts_and_truncates():
    assert np.array_equal(coefficient_array(2.0, 4), [2.0, 2.0, 2.0, 2.0])
    assert np.array_equal(coefficient_array([1.0, 2.0, 3.0], 2), [1.0, 2.0])
    assert coefficient_array(1.0, 0).size == 0


def test_coefficient_array_validation():
    with pytest.raises(ValueError):
        coefficient_array([1.0], 3)
    with pytest.raises(ValueError):
        coefficient_array([[1.0, 2.0]], 2)
    with pytest.raises(ValueError):
        coefficient_array([1.0, float("inf")], 2)
    with pytest.raises(ValueError):
        coefficient_array(0.0, -1)


# --- Mittag-Leffler sequence --------------------------------------------


def test_envelope_matches_monomial_tail():
    env = envelope_sequence(0.5, 3)
    assert np.array_equal(env, monomial_tail(0.5, 4))
    assert env == pytest.approx([1.0, 0.5, 0.375, 0.3125], abs=1e-15)


def test_zero_coefficient_sequence_equals_envelope():
    for nu in (0.25, 0.5, 0.75):
        seq = mittag_leffler_seq(0.0, nu, 400)
        env = envelope_sequence(nu, 400)
        assert float(np.max(np.abs(seq - env))) <= 1e-12


def test_first_step_is_c_plus_nu():
    for c, nu in ((0.0, 0.5), (-0.7, 0.3), (2.0, 0.75)):
        seq = mittag_leffler_seq(c, nu, 1)
        assert seq[0] == 1.0
        assert seq[1] == pytest.approx(c + nu, abs=1e-15)


def test_sequence_matches_exact_oracle():
    # dyadic parameters are exactly representable, so the two paths see the
    # same numbers and differ only by float rounding
    seq = mittag_leffler_seq(-0.75, 0.25, 40)
    want = np.array([float(e) for e in oracle_mittag_leffler(F(-3, 4), F(1, 4), 40)])
    assert _rel_gap(seq, want) <= 1e-12


def test_sequence_validation():
    with pytest.raises(ValueError):
        mittag_leffler_seq(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        mittag_leffler_seq(0.0, 0.5, -1)


# --- lagged solve -------------------------------------------------------


def test_representation_identity_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(12):
        nu = rng.uniform(0.05, 0.95)
        c = rng.uniform(-2.0, 1.0, size=300)
        u0 = rng.uniform(-3.0, 3.0)
        trace = solve_lagged(c, nu, u0, 300)
        want = u0 * mittag_leffler_seq(c, nu, 300)
        scale = np.maximum(np.abs(want), max(abs(u0), 1e-30))
        assert float(np.max(np.abs(trace.values - want) / scale)) <= 1e-12


def test_initial_value_is_stored_exactly():
    trace = solve_lagged(-0.3, 0.5, 0.7, 10)
    assert trace.values[0] == 0.7
    assert trace.residuals[0] == 0.0
    assert trace.base == 0


def test_zero_initial_value_gives_zero_solution():
    trace = solve_lagged(-0.3, 0.5, 0.0, 50)
    assert np.all(trace.values == 0.0)
    assert np.all(trace.residuals == 0.0)


def test_defect_residuals_are_tiny():
    rng = np.random.default_rng(5)
    for _ in range(5):
        c = rng.uniform(-1.5, 0.5, size=200)
        trace = solve_lagged(c, 0.4, 1.0, 200)
        assert trace.max_residual <= 1e-9


def test_defect_residuals_stay_tiny_at_the_cli_horizon():
    # a decaying case (|c + nu| <= nu) over the README's --n-max 5000
    trace = solve_lagged(-0.3, 0.5, 1.0, 5000)
    assert abs(trace.values[-1]) < 1e-2
    assert trace.max_residual <= 1e-9


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(-8.0, 8.0).filter(lambda x: abs(x) > 1e-3))
def test_homogeneity_in_the_initial_value(lam):
    base = solve_lagged(-0.3, 0.6, 1.0, 60).values
    scaled = solve_lagged(-0.3, 0.6, lam, 60).values
    assert _rel_gap(scaled, lam * base, floor=abs(lam)) <= 1e-12


def test_trace_is_immutable():
    trace = solve_lagged(-0.3, 0.5, 1.0, 5)
    with pytest.raises(ValueError):
        trace.values[0] = 2.0
    assert len(trace) == 6


# --- general solve ------------------------------------------------------


def test_general_reduces_to_lagged_bit_for_bit():
    rng = np.random.default_rng(31)
    c = rng.uniform(-2.0, 0.5, size=150)
    lagged = solve_lagged(c, 0.35, 1.25, 150)
    general = solve_general(LinearProblem(0.35, 0, p=0.0, q=c, g=0.0, u0=1.25), 150)
    assert np.array_equal(general.values, lagged.values)
    assert np.array_equal(general.residuals, lagged.residuals)
    assert np.array_equal(general.envelope, lagged.envelope)


def test_general_forced_monomial_closed_form():
    # forcing with H_{mu-1}(t, rho(a)) is solved by
    # (u0 - 1) H_{nu-1} + H_{nu+mu-1} on the same offsets
    nu, mu, u0, n = 0.4, 0.3, 1.7, 120
    g = monomial_sequence(mu - 1.0, n + 2)[2:]
    trace = solve_general(LinearProblem(nu, 0, p=0.0, q=0.0, g=g, u0=u0), n)
    closed = (u0 - 1.0) * envelope_sequence(nu, n) + monomial_sequence(nu + mu - 1.0, n + 1)[1:]
    assert float(np.max(np.abs(trace.values - closed))) < 1e-10
    assert trace.max_residual < 1e-10


def test_general_undelayed_form_decays():
    # p = 2 keeps |1 - p| = 1; the solution alternates and decays
    trace = solve_general(LinearProblem(0.5, 0, p=2.0, q=0.0, g=0.0, u0=1.0), 500)
    assert abs(trace.values[-1]) < abs(trace.values[1])
    assert trace.max_residual <= 1e-9


def test_singular_pivot_raises_with_location():
    p = np.zeros(10)
    p[3] = 1.0
    with pytest.raises(SingularStepError) as info:
        solve_general(LinearProblem(0.5, 2, p=p, q=0.0, g=1.0, u0=1.0), 10)
    assert info.value.t == 2 + 4
    assert abs(info.value.pivot) < SINGULAR_PIVOT_TOL


def test_singular_pivot_keeps_its_sign():
    p = np.zeros(6)
    p[4] = 1.0 + 5e-14
    with pytest.raises(SingularStepError) as info:
        solve_general(LinearProblem(0.5, 0, p=p, q=0.0, g=0.0, u0=1.0), 6)
    assert info.value.t == 5
    assert -SINGULAR_PIVOT_TOL < info.value.pivot < 0.0


def test_divergent_solves_name_the_first_nonfinite_step():
    # the bare sequence keeps its overflowed tail; the solves refuse it, with
    # the error as the only signal (the suite fails on any RuntimeWarning)
    raw = mittag_leffler_seq(-2.0, 0.1, 2000)
    first = int(np.flatnonzero(~np.isfinite(raw))[0])
    solves = (
        lambda: solve_lagged(-2.0, 0.1, 1.0, 2000, base=3),
        lambda: solve_general(LinearProblem(0.1, 3, p=0.0, q=-2.0, g=0.0, u0=1.0), 2000),
    )
    for solve in solves:
        with pytest.raises(DivergentSolutionError) as info:
            solve()
        assert info.value.t == 3 + first
    with pytest.raises(DivergentSolutionError) as info:
        solve_first_order(1e200, FirstOrderForm.ON_U_LAG, 1.0, 5)
    assert info.value.t == 2
    assert isinstance(info.value, RuntimeError)
    assert "t = 2" in str(info.value)


def test_singular_threshold_is_sharp():
    near = np.full(5, 1.0 - 5e-14)
    with pytest.raises(SingularStepError):
        solve_general(LinearProblem(0.5, 0, p=near, q=0.0, g=1.0, u0=1.0), 5)
    safe = np.full(5, 1.0 - 1e-12)
    solve_general(LinearProblem(0.5, 0, p=safe, q=0.0, g=1.0, u0=1.0), 5)


def test_problem_validates_order():
    with pytest.raises(ValueError):
        LinearProblem(1.5, 0, p=0.0, q=0.0, g=0.0, u0=1.0)


# --- first-order forms --------------------------------------------------


def test_first_order_lag_form_is_a_product():
    rng = np.random.default_rng(41)
    c = rng.uniform(-1.8, 0.8, size=80)
    trace = solve_first_order(c, FirstOrderForm.ON_U_LAG, 2.0, 80)
    want = 2.0 * np.concatenate([[1.0], np.cumprod(1.0 + c)])
    assert _rel_gap(trace.values, want) <= 1e-13
    assert trace.envelope is None
    assert trace.nu is None


def test_first_order_lag_form_halving():
    trace = solve_first_order(-0.5, "on_u_lag", 1.0, 8)
    assert np.array_equal(trace.values, 0.5 ** np.arange(9))


def test_first_order_t_form_oscillates():
    trace = solve_first_order(2.0, "on_u_t", 1.0, 12)
    assert np.array_equal(trace.values, (-1.0) ** np.arange(13))
    assert trace.max_residual <= 1e-15


def test_first_order_constant_when_c_is_zero():
    for form in FirstOrderForm:
        trace = solve_first_order(0.0, form, 3.5, 20)
        assert np.all(trace.values == 3.5)


def test_first_order_t_form_singular():
    with pytest.raises(SingularStepError):
        solve_first_order(1.0, "on_u_t", 1.0, 5)
    # the lag form has no pivot, c = 1 just doubles
    trace = solve_first_order(1.0, "on_u_lag", 1.0, 5)
    assert np.array_equal(trace.values, 2.0 ** np.arange(6))


def test_first_order_forced_growth_family():
    # (nabla u)(t) = H_{mu-1}(t, rho(a)) is solved by (u0 - 1) + H_mu
    mu, u0, n = 0.5, 1.7, 400
    g = monomial_sequence(mu - 1.0, n + 2)[2:]
    trace = solve_first_order(0.0, "on_u_lag", u0, n, g=g)
    closed = (u0 - 1.0) + monomial_sequence(mu, n + 1)[1:]
    assert _rel_gap(trace.values, closed) <= 1e-12
    assert trace.values[-1] > 10.0 * abs(u0)


# --- oracle agreement ---------------------------------------------------


def test_general_solve_matches_exact_oracle():
    got = solve_general(
        LinearProblem(0.75, 0, p=0.25, q=-0.5, g=0.125, u0=1.5), 40
    ).values
    want = np.array(
        [float(v) for v in oracle_solve(F(3, 4), F(1, 4), F(-1, 2), F(1, 8), F(3, 2), 40)]
    )
    assert _rel_gap(got, want) <= 1e-12


def test_first_order_matches_exact_oracle():
    got = solve_first_order(-0.5, "on_u_lag", 1.0, 30).values
    want = np.array([float(v) for v in oracle_first_order(F(-1, 2), "on_u_lag", 1, 30)])
    assert _rel_gap(got, want) <= 1e-13
    got_t = solve_first_order(2.0, "on_u_t", 1.0, 30).values
    want_t = np.array([float(v) for v in oracle_first_order(2, "on_u_t", 1, 30)])
    assert np.array_equal(got_t, want_t)


# --- memory -------------------------------------------------------------


def test_coefficient_perturbation_propagates_forever():
    c = np.full(50, -0.3)
    bumped = c.copy()
    bumped[9] += 0.1  # the step at t = 10
    u0 = solve_lagged(c, 0.5, 1.0, 50).values
    u1 = solve_lagged(bumped, 0.5, 1.0, 50).values
    assert np.array_equal(u0[:10], u1[:10])
    assert np.all(u0[10:] != u1[10:])


def test_truncated_history_defect_only_for_the_fractional_operator():
    nu, c, n = 0.5, -0.3, 60
    trace = solve_lagged(c, nu, 1.0, n)
    u = trace.values
    w = convolution_weights(nu, n + 1)
    rhs = c * u[-2]
    full = float(np.dot(u, w[n::-1]))
    truncated = float(np.dot(u[-5:], w[4::-1]))
    assert abs(full - rhs) <= 1e-12
    # dropping history lags > 5 leaves a real defect: the operator needs it
    assert abs(truncated - rhs) > 1e-6

    first = solve_first_order(c, "on_u_lag", 1.0, n).values
    # the classical nabla already uses only the last two points
    assert abs((first[-1] - first[-2]) - c * first[-2]) <= 1e-14


# --- serialization ------------------------------------------------------


def test_trace_csv_format_and_determinism():
    trace = solve_lagged(-0.4, 0.5, 1.0, 6)
    a, b = io.StringIO(), io.StringIO()
    write_trace_csv(trace, a)
    write_trace_csv(trace, b)
    assert a.getvalue() == b.getvalue()
    lines = a.getvalue().strip().split("\n")
    assert lines[0] == "n,t,u,residual,envelope"
    assert len(lines) == 8
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"]
    assert float(first[2]) == 1.0


def test_trace_csv_envelope_is_nan_for_first_order():
    trace = solve_first_order(0.0, "on_u_lag", 1.0, 3)
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    for line in buf.getvalue().strip().split("\n")[1:]:
        assert line.endswith(",nan")


def test_trace_json_carries_metadata():
    trace = solve_lagged(-0.4, 0.5, 2.0, 4)
    buf = io.StringIO()
    write_trace_json(trace, buf, u0=2.0, coefficients="-0.4")
    doc = json.loads(buf.getvalue())
    assert doc["kind"] == "solution_trace"
    assert doc["nu"] == 0.5
    assert doc["u0"] == 2.0
    assert doc["coefficients"] == "-0.4"
    assert doc["u"] == [float(v) for v in trace.values]
    assert len(doc["envelope"]) == 5

    first = solve_first_order(0.0, "on_u_lag", 1.0, 3)
    buf = io.StringIO()
    write_trace_json(first, buf)
    doc = json.loads(buf.getvalue())
    assert doc["envelope"] is None
    assert doc["nu"] is None
