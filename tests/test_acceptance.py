"""Acceptance suite: nine go/no-go checks with tolerances and time budgets.

Each test prints one ``ACCEPTANCE n: PASS`` line with its runtime; run with
``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the timing lines on
success).  Tolerances are fixed here on purpose; loosening them is a red flag,
not a fix.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
from click.testing import CliRunner

from nablafrac import (
    GridFunction,
    bound_check,
    convolution_weights,
    DecayClass,
    mittag_leffler_seq,
    monomial_sequence,
    nabla_diff,
    nabla_frac_diff_composed,
    nabla_frac_diff_direct,
    nabla_sum,
    power_rule_check,
    solve_first_order,
    solve_general,
    solve_lagged,
    LinearProblem,
)
from nablafrac.cli import main as cli_main
from nablafrac.exact import (
    oracle_frac_diff_composed,
    oracle_frac_diff_direct,
    oracle_monomial,
    oracle_nabla_sum,
    oracle_solve,
    oracle_weight_row,
)


@contextmanager
def _budget(number: int, label: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, (
        f"ACCEPTANCE {number} ({label}): over budget, {elapsed:.2f} s > {seconds:g} s"
    )
    print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.2f} s (budget {seconds:g} s)")


def _max_rel(got: np.ndarray, want: np.ndarray, floor: float = 1.0) -> float:
    scale = np.maximum(np.abs(want), floor)
    return float(np.max(np.abs(got - want) / scale))


def test_acceptance_1_monomial_fixtures():
    with _budget(1, "monomial fixtures", 1.0):
        for nu in (0.25, 0.5, 0.75):
            seq = monomial_sequence(nu - 1.0, 3)
            assert abs(seq[2] - nu) <= 1e-14
            assert abs(seq[3] - nu * (nu + 1.0) / 2.0) <= 1e-14


def test_acceptance_2_definition_equivalence():
    with _budget(2, "direct vs composed", 5.0):
        rng = np.random.default_rng(2024)
        for nu in (0.3, 0.5, 0.9, 1.5, 2.7):
            for _ in range(20):
                u = GridFunction(1, rng.uniform(-10.0, 10.0, size=100))
                d = nabla_frac_diff_direct(u, nu)
                c = nabla_frac_diff_composed(u, nu)
                shift = c.base - d.base
                assert _max_rel(d.values[shift:], c.values) <= 1e-10, nu


def test_acceptance_3_power_rule():
    with _budget(3, "power rule", 5.0):
        for mu in (0.3, 1.0, 2.5):
            for nu in (0.2, 0.5, 0.9, 1.5):
                assert power_rule_check(mu, nu, 200) <= 1e-10, (mu, nu)
        # annihilation: differencing H_{nu-1} at its own order leaves zero
        # from the second output point on
        for nu in (0.2, 0.5, 0.9):
            assert power_rule_check(nu - 1.0, nu, 200) <= 1e-10, nu
            samples = monomial_sequence(nu - 1.0, 200)[1:]
            applied = nabla_frac_diff_direct(GridFunction(1, samples), nu)
            assert float(np.max(np.abs(applied.values[1:]))) <= 1e-10, nu


def test_acceptance_4_solution_representation():
    with _budget(4, "representation u = u0 * E", 30.0):
        rng = np.random.default_rng(41)
        for _ in range(50):
            nu = rng.uniform(0.05, 0.95)
            c = rng.uniform(-2.0, 1.0, size=500)
            u0 = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
            trace = solve_lagged(c, nu, u0, 500)
            want = u0 * mittag_leffler_seq(c, nu, 500)
            scale = np.maximum(np.abs(want), abs(u0))
            assert float(np.max(np.abs(trace.values - want) / scale)) <= 1e-12
            assert trace.max_residual <= 1e-9


def test_acceptance_5_bound_and_decay():
    with _budget(5, "envelope bound and decay", 120.0):
        rng = np.random.default_rng(52)
        orders = (0.25, 0.5, 0.75)
        for k in range(100):
            nu = orders[k % 3]
            c = -nu + nu * rng.uniform(-1.0, 1.0, size=5000)
            report = bound_check(c, nu, 5000)
            assert report.criterion_all
            assert bool(np.all(report.bound_ok[:1001]))
            assert report.decay_class is DecayClass.TENDS_TO_ZERO, (k, nu)


def test_acceptance_6_exact_bound():
    with _budget(6, "exact rational bound", 60.0):
        orders = (F(1, 4), F(1, 2), F(3, 4))
        for k in range(10):
            nu = orders[k % 3]
            c = -2 * nu * F(k, 10)
            seq = oracle_solve(nu, 0, c, 0, 1, 60)
            for n, e in enumerate(seq):
                assert abs(e) <= oracle_monomial(nu - 1, n + 1), (k, n)


def test_acceptance_7_order_comparison_fixtures(tmp_path):
    with _budget(7, "first order vs fractional", 30.0):
        runner = CliRunner()
        fixtures = [
            ("demo-constant", "on_u_lag"),
            ("demo-oscillation", "on_u_t"),
        ]
        for preset, form in fixtures:
            verdict_path = tmp_path / f"{preset}.json"
            result = runner.invoke(
                cli_main,
                [
                    "compare",
                    "--nu", "0.5",
                    "--c", preset,
                    "--form", form,
                    "--n-max", "5000",
                    "-o", str(tmp_path / f"{preset}.csv"),
                    "-v", str(verdict_path),
                ],
            )
            assert result.exit_code == 0, result.output
            doc = json.loads(verdict_path.read_text())
            assert doc["first_order"] == "bounded_nonvanishing", preset
            assert doc["fractional"] == "tends_to_zero", preset


def test_acceptance_8_oracle_equivalence():
    with _budget(8, "float vs exact oracle", 30.0):
        tol = 1e-12
        n = 40

        for mu in (F(-1, 2), F(1, 3), F(5, 2), F(-7, 4)):
            got = monomial_sequence(float(mu), n)[1:]
            want = np.array([float(oracle_monomial(mu, k)) for k in range(1, n + 1)])
            assert _max_rel(got, want) <= tol, mu

        for nu in (F(1, 4), F(3, 4), F(3, 2)):
            got = convolution_weights(float(nu), n)
            want = np.array([float(w) for w in oracle_weight_row(nu, n)])
            assert _max_rel(got, want) <= tol, nu

        rational_values = [F(2 * j - 7, j + 3) for j in range(1, n + 1)]
        u = GridFunction(1, [float(v) for v in rational_values])

        got = nabla_sum(u, 0.5).values
        want = np.array([float(v) for v in oracle_nabla_sum(rational_values, F(1, 2))])
        assert _max_rel(got, want) <= tol

        got = nabla_frac_diff_direct(u, 0.75).values
        want = np.array(
            [float(v) for v in oracle_frac_diff_direct(rational_values, F(3, 4))]
        )
        assert _max_rel(got, want) <= tol

        first, exact_comp = oracle_frac_diff_composed(rational_values, F(3, 2))
        composed = nabla_frac_diff_composed(u, 1.5)
        assert composed.base - (u.base - 1) == first
        want = np.array([float(v) for v in exact_comp])
        assert _max_rel(composed.values, want) <= tol

        got = mittag_leffler_seq(float(F(-2, 5)), 0.5, n)
        want = np.array([float(e) for e in oracle_solve(F(1, 2), 0, F(-2, 5), 0, 1, n)])
        assert _max_rel(got, want) <= tol

        got = solve_general(
            LinearProblem(0.6, 0, p=float(F(1, 3)), q=-0.5, g=float(F(1, 7)), u0=1.25), n
        ).values
        want = np.array(
            [float(v) for v in oracle_solve(F(3, 5), F(1, 3), F(-1, 2), F(1, 7), F(5, 4), n)]
        )
        assert _max_rel(got, want) <= tol

        for c, form in ((F(-3, 7), "on_u_lag"), (F(5, 3), "on_u_t")):
            got = solve_first_order(float(c), form, 1.0, n).values
            p, q = (0, c) if form == "on_u_lag" else (c, 0)
            want = np.array([float(v) for v in oracle_solve(None, p, q, 0, 1, n)])
            assert _max_rel(got, want) <= tol, form


def test_acceptance_9_memory_property():
    with _budget(9, "memory property", 1.0):
        rng = np.random.default_rng(9)
        vals = rng.uniform(-1.0, 1.0, size=40)
        bumped = vals.copy()
        bumped[10] += 0.5  # perturb u at t = 11 on a base-1 grid

        d0 = nabla_frac_diff_direct(GridFunction(1, vals), 0.5).values
        d1 = nabla_frac_diff_direct(GridFunction(1, bumped), 0.5).values
        assert np.array_equal(np.nonzero(d0 != d1)[0], np.arange(10, 40))

        n0 = nabla_diff(GridFunction(1, vals)).values
        n1 = nabla_diff(GridFunction(1, bumped)).values
        assert np.array_equal(np.nonzero(n0 != n1)[0], [9, 10])
