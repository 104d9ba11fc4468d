"""Method-of-steps solvers: representation, defects, forms, serialization."""

import gc
import io
import json
import tracemalloc
import weakref
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nablafrac import (
    DecayClass,
    DivergentSolutionError,
    FirstOrderForm,
    GridFunction,
    LinearProblem,
    SINGULAR_PIVOT_TOL,
    SingularStepError,
    bound_check,
    coefficient_array,
    convolution_weights,
    decay_classify,
    default_window,
    envelope_sequence,
    mittag_leffler_seq,
    monomial_sequence,
    nabla_diff,
    nabla_frac_diff_direct,
    solve_first_order,
    solve_general,
    solve_lagged,
    stability_scan,
)
from nablafrac import cli, solver
from nablafrac.exact import (
    SOLVE_COST_GUARD,
    oracle_first_order,
    oracle_mittag_leffler,
    oracle_solve,
)
from nablafrac.formats import write_trace_csv, write_trace_json
from nablafrac.grid import _BLOCK, _transform_length
from nablafrac.solver import _LEAF, _NEAR, _micro_size, _solve_steps


def _rel_gap(got: np.ndarray, want: np.ndarray, floor: float = 1.0) -> float:
    scale = np.maximum(np.abs(want), floor)
    return float(np.max(np.abs(got - want) / scale))


# --- coefficient normalization ------------------------------------------


def test_coefficient_array_broadcasts_and_truncates():
    assert np.array_equal(coefficient_array(2.0, 4), [2.0, 2.0, 2.0, 2.0])
    assert np.array_equal(coefficient_array([1.0, 2.0, 3.0], 2), [1.0, 2.0])
    assert coefficient_array(1.0, 0).size == 0
    # a batch, k problems as columns, is cut along its steps and not copied
    batch = np.broadcast_to([-0.5, 0.25, 0.0], (10, 3))
    cut = coefficient_array(batch, 6)
    assert cut.shape == (6, 3) and np.shares_memory(cut, batch)
    assert np.array_equal(cut, batch[:6])


def test_coefficient_array_validation():
    with pytest.raises(ValueError):
        coefficient_array([1.0], 3)
    with pytest.raises(ValueError):
        coefficient_array([[1.0, 2.0]], 2)
    with pytest.raises(ValueError):
        coefficient_array([1.0, float("inf")], 2)
    for bad in (np.nan, -np.inf):
        batch = np.full((3, 2), -0.5)
        batch[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            coefficient_array(batch, 2)
    with pytest.raises(ValueError):
        coefficient_array(0.0, -1)


# --- Mittag-Leffler sequence --------------------------------------------


def test_envelope_rejects_negative_n_max():
    assert envelope_sequence(0.5, 0).size == 1
    for n_max in (-1, -2):
        with pytest.raises(ValueError, match=f"got {n_max}$"):
            envelope_sequence(0.5, n_max)


@pytest.mark.parametrize("nu", [1e-20, 2.0**-54, 0.01, 1 / 3, 0.5, 0.99])
def test_every_envelope_is_the_envelope_sequence(nu):
    # the solves and bound_check carry envelope_sequence's row, to the last
    # bit, also at orders so small that nu - 1 rounds to -1
    want = envelope_sequence(nu, 300).tobytes()
    assert solve_lagged(-0.4 * nu, nu, 1.0, 300).envelope.tobytes() == want
    problem = LinearProblem(nu, 2, p=0.1, q=-0.4 * nu, g=0.01, u0=1.0)
    assert solve_general(problem, 300).envelope.tobytes() == want
    assert bound_check(-0.4 * nu, nu, 300).envelope.tobytes() == want
    # c = 0 gives E equal to the envelope, which at the tiny orders is the
    # order-0 limit 1, 0, 0, ...; a zero-convention envelope would deny it
    report = bound_check(0.0, nu, 50)
    assert report.criterion_all and report.bound_all


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
    # no step: the initial value alone, for one problem or a batch
    assert np.array_equal(mittag_leffler_seq(-0.5, 0.5, 0), [1.0])
    assert mittag_leffler_seq(np.zeros((0, 3)), 0.5, 0).shape == (1, 3)
    # a solve needs one step; the CLI's --n-max refuses 0 before the library sees it
    with pytest.raises(ValueError, match="n_max must be >= 1, got 0"):
        solve_lagged(-0.5, 0.5, 1.0, 0)
    with pytest.raises(ValueError, match="n_max must be >= 1, got 0"):
        solve_first_order(-0.5, "on_u_t", 1.0, 0)


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


@pytest.mark.parametrize("nu", [0.3, 0.9])
@pytest.mark.parametrize("n_max", [300, 5000])
def test_residuals_match_the_long_double_operator(nu, n_max):
    # the residual column against re-application by the grid operator (a
    # long-double convolution), on decaying solves with per-step p, q, g
    rng = np.random.default_rng(n_max)
    p = rng.uniform(-1.0, 0.0, size=n_max)
    q = rng.uniform(-2.0 * nu, 0.0, size=n_max)
    g = rng.uniform(-1.0, 1.0, size=n_max)
    trace = solve_general(LinearProblem(nu, 2, p=p, q=q, g=g, u0=1.5), n_max)
    u = trace.values
    applied = nabla_frac_diff_direct(trace, trace.nu).values
    want = np.abs(applied[1:] - (p * u[1:] + q * u[:-1] + g))
    assert trace.residuals[0] == 0.0
    assert np.max(np.abs(trace.residuals[1:] - want)) <= 1e-14 * np.max(np.abs(u))


def test_residuals_see_a_corrupted_step(monkeypatch):
    # the residual re-applies the operator independently of the stepping
    # core: a solution off by delta at one step shows a defect of delta there
    nu, c, n_max, step, delta = 0.5, -0.3, 3000, 1234, 1e-6
    clean = solve_lagged(c, nu, 1.0, n_max)
    core = solver._solve_steps

    def corrupted(*args):
        u = core(*args)
        u[step] += delta
        return u

    monkeypatch.setattr(solver, "_solve_steps", corrupted)
    trace = solve_lagged(c, nu, 1.0, n_max)
    assert np.max(clean.residuals) <= 1e-14
    assert np.max(trace.residuals[:step]) <= 1e-14
    assert trace.residuals[step] == pytest.approx(delta, rel=1e-6)
    assert trace.residuals[step + 1] == pytest.approx((nu + c) * delta, rel=1e-6)


@pytest.mark.parametrize(
    "n_max", [_BLOCK - 1, _BLOCK, 3 * _BLOCK + 17, 2 * _BLOCK - 1, 2 * _BLOCK, 6 * _BLOCK + 17]
)
def test_residual_head_is_one_convolution_up_to_a_block(n_max):
    # the residual re-applies the operator to the first n_max + 1 points in
    # float64, the lags below _BLOCK by one np.convolve: up to _BLOCK points
    # it is the head of one full np.convolve, bit for bit; beyond it only the
    # order of the sums changes, so it stays at the long-double operator's
    # defect
    nu = 0.6
    rng = np.random.default_rng(n_max)
    p = rng.uniform(-1.0, 0.0, size=n_max)
    q = rng.uniform(-2.0 * nu, 0.0, size=n_max)
    g = rng.uniform(-1.0, 1.0, size=n_max)
    trace = solve_general(LinearProblem(nu, 2, p=p, q=q, g=g, u0=1.5), n_max)
    u = trace.values
    _, exponent = np.frexp(np.max(np.abs(u)))
    full = np.convolve(convolution_weights(nu, n_max + 1), np.ldexp(u, -exponent))
    rhs = p * u[1:] + q * u[:-1] + g
    unblocked = np.abs(np.ldexp(full[1 : n_max + 1], exponent) - rhs)
    if n_max + 1 <= _BLOCK:
        assert np.array_equal(trace.residuals[1:], unblocked)
    applied = nabla_frac_diff_direct(trace, trace.nu).values
    want = np.abs(applied[1:] - rhs)
    assert np.max(np.abs(trace.residuals[1:] - want)) <= 1e-14 * np.max(np.abs(u))


def test_residuals_match_the_long_double_operator_far_past_a_block():
    # at 20000 points the residual's cross-block lags come from float64 FFTs
    # over six levels; it stays at the long-double re-application's defect
    nu, n_max = 0.7, 20000
    trace = solve_lagged(-0.4, nu, 1.0, n_max)
    u = trace.values
    applied = nabla_frac_diff_direct(trace, trace.nu).values
    want = np.abs(applied[1:] - (-0.4) * u[:-1])
    assert np.max(np.abs(trace.residuals[1:] - want)) <= 1e-14 * np.max(np.abs(u))


def test_residuals_stay_finite_near_overflow():
    # a finite trace near the float64 limit keeps finite residuals of its own
    # relative size (a solve that overflows is covered by the divergence
    # tests below)
    for u0 in (1e300, 1.7e308):
        trace = solve_lagged(-0.3, 0.5, u0, 5000)
        assert np.all(np.isfinite(trace.residuals))
        assert trace.max_residual <= 1e-14 * np.max(np.abs(trace.values))
    # u = (-1.5e308, 0.51e308) is finite, but the operator's value at the
    # step, u(1) + 0.9 * 1.5e308 = p u(1) + q u(0), is not
    problem = LinearProblem(0.9, 4, p=0.5, q=-1.07, g=0.0, u0=-1.5e308)
    with pytest.raises(DivergentSolutionError) as info:
        solve_general(problem, 1)
    assert info.value.t == 5


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(-8.0, 8.0).filter(lambda x: abs(x) > 1e-3))
def test_homogeneity_in_the_initial_value(lam):
    base = solve_lagged(-0.3, 0.6, 1.0, 60).values
    scaled = solve_lagged(-0.3, 0.6, lam, 60).values
    assert _rel_gap(scaled, lam * base, floor=abs(lam)) <= 1e-12


def test_trace_is_immutable():
    trace = solve_lagged(-0.3, 0.5, 1.0, 5)
    for name in ("values", "residuals", "envelope"):
        with pytest.raises(ValueError):
            getattr(trace, name)[0] = 2.0
    assert len(trace) == 6


def test_a_trace_is_a_grid_function():
    # a solution lives on N_base as the operators' inputs do: it has their
    # domain, and the operator of its own equation takes it as it is
    fractional = solve_lagged(-0.3, 0.5, 1.0, 5, base=2)
    first = solve_first_order(0.2, "on_u_t", 1.0, 5, base=2)
    for trace in (fractional, first):
        assert isinstance(trace, GridFunction)
        assert (trace.base, trace.last, len(trace)) == (2, 7, 6)
        assert trace.value_at(2) == 1.0 and trace.value_at(7) == trace.values[-1]
        with pytest.raises(IndexError, match="zero-extended"):
            trace.value_at(8)
    applied = nabla_frac_diff_direct(fractional, fractional.nu)
    assert applied.base == 2
    u = fractional.values
    assert np.max(np.abs(np.abs(applied.values[1:] + 0.3 * u[:-1]) - fractional.residuals[1:])) <= 1e-14
    assert np.array_equal(np.abs(nabla_diff(first).values - 0.2 * first.values[1:]), first.residuals[1:])


_SOLVES_AT_BASE = [
    lambda base: solve_lagged(-0.3, 0.5, 1.0, 3, base=base),
    lambda base: solve_general(LinearProblem(0.5, base, p=-0.1, q=-0.3, g=0.5, u0=1.0), 3),
    lambda base: solve_first_order(0.2, "on_u_lag", 1.0, 3, base=base),
    lambda base: solve_first_order(0.2, "on_u_t", 1.0, 3, base=base),
]


@pytest.mark.parametrize("solve", _SOLVES_AT_BASE, ids=["lagged", "general", "first-lag", "first-t"])
def test_solves_refuse_a_base_that_is_not_an_integer_before_stepping(monkeypatch, solve):
    # the trace of a solve at base 1.5 could not be written out
    stepped = []
    monkeypatch.setattr(solver, "_solve_steps", lambda *args: stepped.append(args))
    with pytest.raises(ValueError, match="base must be an integer"):
        solve(1.5)
    assert not stepped


@pytest.mark.parametrize("solve", _SOLVES_AT_BASE, ids=["lagged", "general", "first-lag", "first-t"])
def test_solves_take_an_integral_base_as_an_int(solve):
    want = io.StringIO()
    write_trace_csv(solve(2), want)
    for base in (2.0, np.int64(2)):
        trace = solve(base)
        assert type(trace.base) is int and trace.base == 2
        got = io.StringIO()
        write_trace_csv(trace, got)
        assert got.getvalue() == want.getvalue()


def test_report_is_immutable():
    # a write would leave bound_ok stale, so the report refuses it, as the trace does
    report = bound_check(-0.5, 0.5, 10)
    for name in ("criterion_holds", "bound_ok", "values", "envelope"):
        with pytest.raises(ValueError):
            getattr(report, name)[0] = 9.0
    assert report.values[0] == 1.0 and report.bound_all


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
    for nu in (1.5, 0.0, 1.0, float("nan")):
        with pytest.raises(ValueError):
            LinearProblem(nu, 0, p=0.0, q=0.0, g=0.0, u0=1.0)


def _outcome(solve):
    """A trace's base and bytes, or the type, step and message of its error."""
    try:
        trace = solve()
    except (SingularStepError, DivergentSolutionError) as exc:
        return type(exc), exc.t, str(exc)
    return trace.base, trace.values.tobytes(), trace.residuals.tobytes(), trace.envelope, trace.nu


@pytest.mark.parametrize("form", list(FirstOrderForm))
@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize(
    "case, error",
    [
        ("decaying", {}),
        # c = 1 at t = 9 is a zero pivot of on_u_t and a doubling of on_u_lag
        ("singular", {FirstOrderForm.ON_U_T: SingularStepError}),
        # a step factor near 1e12 or near 2: both forms overflow
        ("overflowing", dict.fromkeys(FirstOrderForm, DivergentSolutionError)),
    ],
    ids=["decaying", "singular", "overflowing"],
)
def test_a_problem_of_order_none_is_the_first_order_solve(form, forced, case, error):
    # the classical nabla is the general problem at order None, bit for bit,
    # at a base other than 0, and it fails at the same step with the same error
    n, rng = 1100, np.random.default_rng(43)
    c = {
        "decaying": rng.uniform(-1.5, 0.5, size=n),
        "singular": np.r_[rng.uniform(-1.5, 0.5, size=5), 1.0, rng.uniform(-1.5, 0.5, size=n - 6)],
        "overflowing": np.full(n, 1.0 - 1e-12),
    }[case]
    g = rng.uniform(-1.0, 1.0, size=n) if forced else None
    problem = LinearProblem(None, 3, *form.split(c), 0.0 if g is None else g, 2.0)
    got = _outcome(lambda: solve_general(problem, n))
    assert got == _outcome(lambda: solve_first_order(c, form, 2.0, n, 3, g))
    if form in error:
        assert got[0] is error[form]
    else:
        assert got[0] == 3 and got[3:] == (None, None)


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


def _first_order_loop(c, form, u0, n_max, base=0, g=None):
    """Both first-order forms stepped directly, an oracle apart from the shared core.

    Returns (values, residuals); residuals are None for a non-finite trace.
    """
    carr = coefficient_array(c, n_max)
    garr = coefficient_array(0.0 if g is None else g, n_max)
    u = np.empty(n_max + 1)
    u[0] = u0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_max + 1):
            if form == "on_u_lag":
                u[n] = (1.0 + carr[n - 1]) * u[n - 1] + garr[n - 1]
            else:
                pivot = 1.0 - carr[n - 1]
                if abs(pivot) < SINGULAR_PIVOT_TOL:
                    raise SingularStepError(base + n, pivot)
                u[n] = (u[n - 1] + garr[n - 1]) / pivot
    if not np.all(np.isfinite(u)):
        return u, None
    rhs = carr * (u[:-1] if form == "on_u_lag" else u[1:]) + garr
    return u, np.concatenate(([0.0], np.abs(np.diff(u) - rhs)))


def _first_nonfinite(values):
    bad = np.flatnonzero(~np.isfinite(values))
    return int(bad[0]) if bad.size else None


@pytest.mark.parametrize("form", [f.value for f in FirstOrderForm])
def test_first_order_matches_its_stepping_loop_bit_for_bit(form):
    rng = np.random.default_rng(43)
    # the longer horizon crosses leaf boundaries of the stepping core
    for n in (500, 2 * _LEAF + 300):
        c_steps = rng.uniform(-1.8, 0.8, size=n)
        g_steps = rng.normal(size=n)
        cases = [(c, g) for c in (-0.3, 0.4, 2.0, c_steps) for g in (None, 0.25, g_steps)]
        for c, g in cases:
            values, residuals = _first_order_loop(c, form, 1.3, n, base=2, g=g)
            if residuals is None:
                with pytest.raises(DivergentSolutionError) as info:
                    solve_first_order(c, form, 1.3, n, base=2, g=g)
                assert info.value.t == 2 + _first_nonfinite(values)
                continue
            trace = solve_first_order(c, form, 1.3, n, base=2, g=g)
            assert np.array_equal(trace.values, values)
            assert np.array_equal(trace.residuals, residuals)
            assert trace.envelope is None and trace.nu is None


def test_first_order_failures_match_its_stepping_loop():
    c = np.array([0.5, -0.5, 1.0 - 5e-14, 2.0])
    with pytest.raises(SingularStepError) as info:
        solve_first_order(c, "on_u_t", 1.0, 4, base=3)
    with pytest.raises(SingularStepError) as want:
        _first_order_loop(c, "on_u_t", 1.0, 4, base=3)
    assert (info.value.t, info.value.pivot) == (want.value.t, want.value.pivot)

    values, _ = _first_order_loop(1e200, "on_u_lag", 1.0, 5, base=3)
    first = int(np.flatnonzero(~np.isfinite(values))[0])
    with pytest.raises(DivergentSolutionError) as info:
        solve_first_order(1e200, "on_u_lag", 1.0, 5, base=3)
    assert info.value.t == 3 + first


# --- divide-and-conquer history ----------------------------------------


def _history_loop(p, q, g, nu, u0):
    """The plain stepping loop, one full-history dot product per step: O(n^2).

    The reference for the divide-and-conquer history of ``_solve_steps``;
    coefficients have shape (n_max,) or (n_max, k) as there.
    """
    n_max = len(q)
    weights = convolution_weights(nu, n_max + 1)
    pivots = 1.0 - p
    u = np.empty((n_max + 1,) + np.shape(q)[1:])
    u[0] = u0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_max + 1):
            step = q[n - 1] * u[n - 1] + g[n - 1]
            step = step - np.dot(weights[n:0:-1], u[:n])
            u[n] = step / pivots[n - 1]
    return u


@settings(max_examples=25, deadline=None)
@given(
    nu=st.floats(0.01, 0.99),
    n_max=st.one_of(st.integers(1, _LEAF - 1), st.integers(_LEAF, 3 * _LEAF)),
    columns=st.sampled_from([None, 3]),
    per_step=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    seed=st.integers(0, 2**32 - 1),
)
def test_fast_history_matches_the_plain_loop(nu, n_max, columns, per_step, seed):
    rng = np.random.default_rng(seed)
    shape = (n_max,) if columns is None else (n_max, columns)
    # decaying inputs: a damping p <= 0, the criterion |q + nu| <= nu and a
    # bounded forcing; a scalar coefficient is constant over the steps
    ranges = ((-1.0, 0.0), (-2.0 * nu, 0.0), (-1.0, 1.0))
    p, q, g = (
        rng.uniform(lo, hi, size=shape if steps else shape[1:]) * np.ones(shape)
        for (lo, hi), steps in zip(ranges, per_step)
    )
    u0 = rng.uniform(-2.0, 2.0)
    fast = _solve_steps(p, q, g, convolution_weights(nu, n_max + 1), u0, 0)
    loop = _history_loop(p, q, g, nu, u0)
    assert np.max(np.abs(fast - loop)) <= 1e-14 * np.max(np.abs(loop))


def _block_edges(m):
    """Horizons around the edges of micro-blocks of m steps.

    The steps advance m at a time, the first leaf's from step 1; these
    horizons end on the first step, around the middle of, inside, at the
    end of and one step past the first micro-block, at the first leaf's last
    step, one step into the next leaf, in the middle of and inside its first
    micro-block, just past the lags that cross the leaf edge, the same
    around the fourth leaf's end, where a merged block of four leaves
    starts, and a few steps after the merges of two and of eight leaves.
    """
    return (
        [1, m // 2 - 1, m // 2, m // 2 + 1, m - 1, m, m + 1]
        + [k * _LEAF + d for k in (1, 4) for d in (-1, 1, m // 2 - 1, m - 1, _NEAR + 1)]
        + [2 * _LEAF + 3, 8 * _LEAF + 3]
    )


# the three problem shapes and their micro-block sizes past the first leaf:
# one problem with per-step coefficients (None), a batch of three columns (3)
# and one problem with constant coefficients
_MICRO_SIZES = {
    None: _micro_size(np.zeros(_LEAF), False),
    3: _micro_size(np.zeros((_LEAF, 3)), False),
    "constant": _micro_size(np.zeros(_LEAF), True),
}


@pytest.mark.parametrize("n_max", sorted({n for m in _MICRO_SIZES.values() for n in _block_edges(m)}))
@pytest.mark.parametrize("columns", list(_MICRO_SIZES))
def test_micro_blocks_match_the_plain_loop_at_their_edges(n_max, columns):
    # every shape at the block edges of every size: its own, and the
    # others', which fall inside its blocks.  A horizon inside a micro-block
    # leaves a short last block, solved by the leading corner of its inverse
    rng = np.random.default_rng(n_max)
    shape = (n_max, columns) if columns == 3 else (n_max,)
    draws = None if columns == "constant" else shape
    nu = 0.7
    p = rng.uniform(-1.0, 0.0, size=draws) * np.ones(shape)
    q = rng.uniform(-2.0 * nu, 0.0, size=draws) * np.ones(shape)
    g = rng.uniform(-1.0, 1.0, size=draws) * np.ones(shape)
    fast = _solve_steps(p, q, g, convolution_weights(nu, n_max + 1), 1.5, 0)
    loop = _history_loop(p, q, g, nu, 1.5)
    assert np.max(np.abs(fast - loop)) <= 1e-14 * np.max(np.abs(loop))


def test_micro_blocks_keep_the_first_nonfinite_step():
    # at nu 0.1, c = -1.198 alternates in sign and overflows two steps into a
    # micro-block of the third leaf.  The step before it reads 1.48e308 and
    # the history that pulls the next value back below the float64 limit is
    # split between the block's earlier lags and its in-block lags, so the
    # two must be added before they are subtracted from q u(t-1)
    nu, c, n_max = 0.1, -1.198, 6100
    zeros = np.zeros(n_max)
    loop = _history_loop(zeros, np.full(n_max, c), zeros, nu, 1.0)
    first = _first_nonfinite(loop)
    coeffs = np.broadcast_to([c, -0.5], (n_max, 2))
    # not on the first step of a micro-block, alone or in the batch
    sizes = [_micro_size(np.full(n_max, c), True), _micro_size(coeffs, True)]
    assert first > 2 * _LEAF and all(first % _LEAF % m != 0 for m in sizes)
    weights = convolution_weights(nu, n_max + 1)
    assert _first_nonfinite(_solve_steps(zeros, np.full(n_max, c), zeros, weights, 1.0, 0)) == first
    batch = _solve_steps(zeros, coeffs, zeros, weights, 1.0, 0)
    assert [_first_nonfinite(column) for column in batch.T] == [first, None]
    with pytest.raises(DivergentSolutionError) as info:
        solve_lagged(c, nu, 1.0, n_max, base=3)
    assert info.value.t == 3 + first


def test_long_solves_keep_the_envelope_near_order_one():
    # c = 0 makes E the envelope exactly, the tight case of the bound.  Near
    # order 1 the memory decays slowly, so rounding in the merged history
    # accumulates over the whole horizon; the plain loop stays within 2e-14
    for nu in (0.9, 0.99):
        report = bound_check(0.0, nu, 40000)
        assert report.bound_all
        assert np.max(np.abs(report.values - report.envelope)) <= 5e-14


def test_fast_history_keeps_the_first_nonfinite_step_across_merges():
    # at nu 0.1, c = -4.5 overflows inside the first leaf, c = -2 after the
    # merge at offset 2 * _LEAF and c = -2.077 five steps after it, when the
    # merged block already nears overflow; c = -0.5 decays.  Each column's
    # transform input is scaled on its own, so neither the large block nor
    # the overflowed column moves a first non-finite step.
    nu, n_max = 0.1, 5000
    cs = np.array([-4.5, -2.0, -2.077, -0.5])
    zeros = np.zeros(n_max)
    coeffs = np.broadcast_to(cs, (n_max, cs.size))
    fast = _solve_steps(zeros, coeffs, zeros, convolution_weights(nu, n_max + 1), 1.0, 0)
    loop = _history_loop(zeros, coeffs, zeros, nu, 1.0)
    firsts = [_first_nonfinite(column) for column in loop.T]
    assert [_first_nonfinite(column) for column in fast.T] == firsts
    assert firsts[0] < _LEAF < 2 * _LEAF < firsts[2] < 2 * _LEAF + 10 < firsts[1]
    assert firsts[3] is None
    for c, first in zip(cs[:3], firsts):
        with pytest.raises(DivergentSolutionError) as info:
            solve_lagged(c, nu, 1.0, n_max, base=3)
        assert info.value.t == 3 + first
    assert np.all(np.isfinite(solve_lagged(cs[3], nu, 1.0, n_max).values))
    window = default_window(n_max + 1)
    want = [decay_classify(column, window) for column in loop.T]
    assert want == [DecayClass.UNBOUNDED] * 3 + [DecayClass.TENDS_TO_ZERO]
    assert [cell.decay_class for cell in stability_scan([nu], cs, n_max)] == want


def test_every_finite_default_scan_column_matches_the_plain_loop():
    # the scan steps each order's 51 coefficients as one batch of constant
    # columns, so each micro-block is solved with one inverse per column.
    # Geometric growth piles up any bias of the block solve step after step;
    # refining against the unfolded equations keeps every column that stays
    # finite close to the loop
    nus = cli._parse_axis("0.1:0.9:0.1", "--nu-grid")
    cs = cli._parse_axis("-2:0.5:0.05", "--c-grid")
    n_max = 2000
    zeros = np.zeros(n_max)
    coeffs = np.broadcast_to(cs, (n_max, len(cs)))
    checked = 0
    for nu in nus:
        fast = _solve_steps(zeros, coeffs, zeros, convolution_weights(nu, n_max + 1), 1.0, 0)
        loop = _history_loop(zeros, coeffs, zeros, nu, 1.0)
        finite = np.all(np.isfinite(loop), axis=0)
        assert np.array_equal(np.all(np.isfinite(fast), axis=0), finite)
        scale = np.max(np.abs(loop[:, finite]), axis=0)
        assert np.all(np.max(np.abs(fast[:, finite] - loop[:, finite]), axis=0) <= 5e-14 * scale)
        checked += int(finite.sum())
    assert checked > 400


@pytest.mark.parametrize("nu, c, n_max", [(0.5, -50.0, 300), (0.9, -1000.0, 200)])
def test_block_solves_near_overflow_fall_back_to_substitution(nu, c, n_max):
    # a fast-growing trace: the block inverse's entries grow like |c|^(m - 1),
    # so block products overflow steps before the values do.  Such a block is
    # redone step by step, for one problem and in a batch whose first
    # column dies before the second, next to a decaying column
    zeros = np.zeros(n_max)
    single = np.full(n_max, c)
    batch = np.broadcast_to([c, c / 2, -0.3], (n_max, 3))
    weights = convolution_weights(nu, n_max + 1)
    for coeffs in (single, batch):
        fast = _solve_steps(zeros, coeffs, zeros, weights, 1.0, 0).reshape(n_max + 1, -1)
        loop = _history_loop(zeros, coeffs, zeros, nu, 1.0).reshape(n_max + 1, -1)
        for got, want in zip(fast.T[:2], loop.T[:2]):
            first = _first_nonfinite(want)
            assert first is not None and _first_nonfinite(got) == first
            assert np.all(np.abs(got[:first] - want[:first]) <= 1e-14 * np.abs(want[:first]))
    assert _first_nonfinite(fast[:, 0]) < _first_nonfinite(fast[:, 1])
    assert np.max(np.abs(fast[:, 2] - loop[:, 2])) <= 1e-14 * np.max(np.abs(loop[:, 2]))


def _spy_substitute(monkeypatch):
    """Record the (prev, q) of every column that ``_substitute`` steps."""
    calls = []
    substitute = solver._substitute

    def spy(weights, prev, q, *rows):
        calls.append((prev, q))
        return substitute(weights, prev, q, *rows)

    monkeypatch.setattr(solver, "_substitute", spy)
    return calls


def test_block_solves_near_overflow_keep_every_finite_block(monkeypatch):
    # a slowly growing trace: at nu 0.1, c = -1.1 (just below -2^nu) spends
    # about 600 steps, four micro-blocks and more, between 2^1000 and
    # overflow.  Each of those blocks comes out finite and is kept; only the
    # block that overflows is redone step by step
    nu, c, n_max = 0.1, -1.1, 26000
    zeros, coeffs = np.zeros(n_max), np.full(n_max, c)
    calls = _spy_substitute(monkeypatch)
    fast = _solve_steps(zeros, coeffs, zeros, convolution_weights(nu, n_max + 1), 1.0, 0)
    loop = _history_loop(zeros, coeffs, zeros, nu, 1.0)
    first = _first_nonfinite(loop)
    assert first is not None and _first_nonfinite(fast) == first
    m = _micro_size(coeffs, True)
    assert np.sum(np.abs(loop[:first]) >= 2.0**1000) > 4 * m
    assert np.all(np.abs(fast[:first] - loop[:first]) <= 5e-14 * np.abs(loop[:first]))
    # the micro-block that holds the first non-finite step, from its leaf's
    # start (the first leaf's from step 1)
    lo = max(first // _LEAF * _LEAF, 1)
    start = lo + (first - lo) // m * m
    ((prev, steps),) = calls
    assert prev == fast[start - 1] and len(steps) == min(m, n_max + 1 - start, _LEAF - start % _LEAF)


def test_block_solves_near_overflow_substitute_only_the_columns_that_trip(monkeypatch):
    # the c = -50 column's block that holds its first non-finite step (182)
    # comes out non-finite, so it is substituted step by step, that column
    # alone; no later block redoes it, as the column is non-finite before
    # each of them.  The decaying column next to it keeps its block-solved
    # values
    nu, n_max = 0.5, 300
    zeros = np.zeros(n_max)
    coeffs = np.broadcast_to([-50.0, -0.3], (n_max, 2))
    calls = _spy_substitute(monkeypatch)
    fast = _solve_steps(zeros, coeffs, zeros, convolution_weights(nu, n_max + 1), 1.0, 0)
    loop = _history_loop(zeros, coeffs, zeros, nu, 1.0)
    assert len(calls) == 1
    assert all(np.ndim(prev) == 0 and np.all(q == -50.0) for prev, q in calls)
    assert _first_nonfinite(fast[:, 0]) == _first_nonfinite(loop[:, 0]) is not None
    assert np.max(np.abs(fast[:, 1] - loop[:, 1])) <= 1e-14 * np.max(np.abs(loop[:, 1]))


@pytest.mark.parametrize("nu", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_growing_solves_overflow_at_the_plain_loops_step(nu):
    # growing constant c of three kinds: just below -2^nu, which grows slowly
    # and so starts near overflow (u0 = 1e300) to overflow within the
    # horizon; c << -2, whose block inverses hold entries up to |c|^(m - 1)
    # (inf for c = -1000 alone); and c > 2^nu.
    # Each column overflows at the plain loop's step, alone and in one batch
    n_max = 1500
    zeros = np.zeros(n_max)
    slow = [-(2**nu) - 0.05, -(2**nu) - 0.2, 2**nu + 0.01]
    steep = [-3.0, -50.0, -1000.0, 2 * 2**nu]
    weights = convolution_weights(nu, n_max + 1)
    for u0, cs in ((1e300, slow), (1.0, steep)):
        coeffs = np.broadcast_to(cs, (n_max, len(cs)))
        firsts = [_first_nonfinite(column) for column in _history_loop(zeros, coeffs, zeros, nu, u0).T]
        assert None not in firsts
        batch = _solve_steps(zeros, coeffs, zeros, weights, u0, 0)
        assert [_first_nonfinite(column) for column in batch.T] == firsts
        alone = [_solve_steps(zeros, np.full(n_max, c), zeros, weights, u0, 0) for c in cs]
        assert [_first_nonfinite(column) for column in alone] == firsts
        if u0 == 1.0:
            # the public batch is the same core's batch, to the last bit
            public = mittag_leffler_seq(coeffs, nu, n_max)
            assert public.shape == (n_max + 1, len(cs)) and public.tobytes() == batch.tobytes()
            assert [_first_nonfinite(column) for column in public.T] == firsts


def test_a_shrunk_last_merge_matches_the_plain_loop():
    # at n_max 8700 the last merge adds the 8192 points before offset 8192
    # to the 509 after it by a transform of 5 * 2^11 points, not 2 * 8192:
    # decaying solves stay within 1e-14 max|u| of the loop, and a column
    # that overflows past the merge does so at the loop's step
    nu, n_max = 0.5, 8700
    assert _transform_length(8192, n_max + 1 - 8192) == 5 * 2**11
    zeros = np.zeros(n_max)
    weights = convolution_weights(nu, n_max + 1)
    rng = np.random.default_rng(87)
    per_step = rng.uniform(-2.0 * nu, 0.0, size=n_max)
    for q in (np.full(n_max, -0.5), per_step, np.broadcast_to([-0.3, -0.6, -0.95], (n_max, 3))):
        fast = _solve_steps(zeros, q, zeros, weights, 1.0, 0)
        loop = _history_loop(zeros, q, zeros, nu, 1.0)
        assert np.max(np.abs(fast - loop)) <= 1e-14 * np.max(np.abs(loop))
    # alone and next to a decaying column
    c = -(2**nu) - 0.05
    for q in (np.full(n_max, c), np.broadcast_to([c, -0.5], (n_max, 2))):
        fast = _solve_steps(zeros, q, zeros, weights, 1e140, 0).reshape(n_max + 1, -1)
        loop = _history_loop(zeros, q, zeros, nu, 1e140).reshape(n_max + 1, -1)
        first = _first_nonfinite(loop[:, 0])
        assert first is not None and first > 8192
        assert _first_nonfinite(fast[:, 0]) == first


_BATCH = np.full((10, 2), -0.25)


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve_lagged(_BATCH, 0.5, 1.0, 10),
        lambda: solve_general(LinearProblem(0.5, 0, p=_BATCH, q=-0.25, g=0.0, u0=1.0), 10),
        lambda: solve_general(LinearProblem(0.5, 0, p=0.0, q=_BATCH, g=0.0, u0=1.0), 10),
        lambda: solve_general(LinearProblem(0.5, 0, p=0.0, q=-0.25, g=_BATCH, u0=1.0), 10),
        lambda: solve_first_order(_BATCH, "on_u_lag", 1.0, 10),
        lambda: solve_first_order(-0.25, "on_u_t", 1.0, 10, g=_BATCH),
        lambda: bound_check(_BATCH, 0.5, 10),
        # k = n_max + 1 columns would broadcast against the envelope
        lambda: bound_check(np.full((10, 11), -0.25), 0.5, 10),
        lambda: mittag_leffler_seq(np.full((10, 2, 2), -0.25), 0.5, 10),
        lambda: mittag_leffler_seq(_BATCH[:9], 0.5, 10),
    ],
    ids=["lagged", "general-p", "general-q", "general-g", "first-order", "first-order-g",
         "bound", "bound-k-is-n-plus-1", "seq-3d", "seq-short-batch"],
)
def test_solves_refuse_batches_before_stepping(monkeypatch, call):
    # only mittag_leffler_seq steps a batch, and only an (n_max, k) one
    stepped = []
    monkeypatch.setattr(solver, "_solve_steps", lambda *args: stepped.append(args))
    with pytest.raises(ValueError):
        call()
    assert not stepped


def test_long_solves_free_their_buffers_without_the_cycle_collector():
    # a reference cycle through the stepping core would keep each solve's
    # solution, history and spectra alive until the cyclic collector ran
    gc.collect()
    gc.disable()
    try:
        solutions = [weakref.ref(mittag_leffler_seq(-0.5, 0.8, 20000)) for _ in range(10)]
        freed = [ref() is None for ref in solutions]
        cyclic = gc.collect()
    finally:
        gc.enable()
    assert all(freed)
    assert cyclic == 0


def test_batch_keeps_its_pending_history_in_the_trace():
    # the default scan grid's batch: the unstepped rows of the trace hold
    # the history, so the peak is the trace, the block inverses and one
    # chunk's merge transforms (2.22 traces; 3.94 when a merge transformed
    # every column at once), not a second trace-sized history array as well
    cs = np.round(np.arange(-2.0, 0.5001, 0.05), 10)
    coeffs = np.broadcast_to(cs, (2000, cs.size))
    mittag_leffler_seq(coeffs, 0.5, 2000)
    tracemalloc.start()
    try:
        trace = mittag_leffler_seq(coeffs, 0.5, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * trace.nbytes


@pytest.mark.parametrize("width", [1, 3, 64])
def test_merge_chunk_width_changes_no_value(monkeypatch, width):
    # each column is scaled and transformed on its own inside a chunk, so
    # the columns a merge takes at once change no value, bit for bit: a
    # batch of per-step coefficients with a column that grows to 1e217 and
    # one that overflows, and one problem, over the merges of 2100 points
    n_max = 2100
    ramp = np.linspace(-0.9, -0.1, n_max)
    coeffs = np.column_stack([ramp * (k + 1) / 9 for k in range(15)] + [np.full(n_max, 0.5), np.full(n_max, 40.0)])
    want = mittag_leffler_seq(coeffs, 0.6, n_max), mittag_leffler_seq(ramp, 0.6, n_max)
    assert solver._MERGE_COLUMNS not in (width, 1) and not np.isfinite(want[0][:, -1]).all()
    monkeypatch.setattr(solver, "_MERGE_COLUMNS", width)
    got = mittag_leffler_seq(coeffs, 0.6, n_max), mittag_leffler_seq(ramp, 0.6, n_max)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


# --- oracle agreement ---------------------------------------------------


def test_general_solve_matches_exact_oracle():
    # constant coefficients, then per-step dyadic ones (exact as floats); the
    # horizons end on and around the edge of the first micro-block where the
    # oracle reaches it (a constant problem's first block is longer)
    for constant in (True, False):
        m = _micro_size(np.zeros(SOLVE_COST_GUARD), constant)
        for n_max in (n for n in (1, m - 1, m, m + 1, 40, SOLVE_COST_GUARD) if n <= SOLVE_COST_GUARD):
            steps = range(n_max)
            p, q, g = (F(1, 4), F(-1, 2), F(1, 8)) if constant else (
                [F(-(k % 5), 8) for k in steps],
                [F(-1 - k % 3, 4) for k in steps],
                [F((-1) ** k, 2 ** (1 + k % 4)) for k in steps],
            )
            coeffs = (np.array(x, dtype=float) if isinstance(x, list) else float(x) for x in (p, q, g))
            got = solve_general(LinearProblem(0.75, 0, *coeffs, u0=1.5), n_max).values
            want = np.array([float(v) for v in oracle_solve(F(3, 4), p, q, g, F(3, 2), n_max)])
            assert _rel_gap(got, want) <= 1e-12, (n_max, p)


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
