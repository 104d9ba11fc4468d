"""Stability tooling: criterion, envelope bound, classification, scans."""

import dataclasses
import io
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import numpy.linalg._linalg
import pytest
from hypothesis import given, settings, strategies as st

from nablafrac import (
    BOUND_SLACK,
    DecayClass,
    LinearProblem,
    OrderComparison,
    StabilityReport,
    bound_check,
    coefficient_array,
    compare_orders,
    criterion_check,
    decay_classify,
    default_window,
    envelope_sequence,
    mittag_leffler_seq,
    monomial_sequence,
    solve_first_order,
    solve_general,
    solve_lagged,
    stability_scan,
    tail_exponent,
)
from nablafrac.formats import write_report_json, write_scan_csv

# classification fixtures: algebraic decay, oscillation, monomial growth
_DECAYING = envelope_sequence(0.5, 399)
_OSCILLATING = (-1.0) ** np.arange(400)
_GROWING = monomial_sequence(0.5, 400) + 1.0
_WINDOW = 40


# --- criterion ----------------------------------------------------------


def test_criterion_interval_for_constant_coefficients():
    for nu in (0.25, 0.5, 0.75):
        assert criterion_check(0.0, nu).all()
        assert criterion_check(-2.0 * nu, nu).all()  # boundary included
        assert criterion_check(-nu, nu).all()
        assert not criterion_check(0.01, nu).any()
        assert not criterion_check(-2.0 * nu - 0.01, nu).any()


def test_criterion_is_elementwise():
    got = criterion_check([-0.6, 0.01, -1.0, -1.01], 0.5)
    assert np.array_equal(got, [True, False, True, False])


def test_criterion_rejects_bad_order():
    with pytest.raises(ValueError):
        criterion_check(0.0, 1.0)
    with pytest.raises(ValueError):
        criterion_check(0.0, 0.0)


# --- classification -----------------------------------------------------


def test_default_window_is_a_tenth():
    assert default_window(2000) == 200
    assert default_window(9) == 1


def test_classify_decaying_trace():
    assert decay_classify(_DECAYING, _WINDOW) is DecayClass.TENDS_TO_ZERO
    long_tail = envelope_sequence(0.5, 1999)
    assert decay_classify(long_tail, 200) is DecayClass.TENDS_TO_ZERO


def test_classify_oscillating_trace():
    assert decay_classify(_OSCILLATING, _WINDOW) is DecayClass.BOUNDED_NONVANISHING


def test_classify_growing_trace():
    assert decay_classify(_GROWING, _WINDOW) is DecayClass.UNBOUNDED


def test_classify_degenerate_and_invalid():
    assert decay_classify(np.zeros(100), 10) is DecayClass.TENDS_TO_ZERO
    with pytest.raises(ValueError):
        decay_classify(np.ones(10), 6)  # shorter than two windows
    with pytest.raises(ValueError):
        decay_classify(np.ones(10), 0)


@settings(max_examples=50)
@given(lam=st.floats(-1e6, 1e6).filter(lambda x: abs(x) > 1e-9))
def test_classification_is_scale_invariant(lam):
    for trace in (_DECAYING, _OSCILLATING, _GROWING):
        assert decay_classify(lam * trace, _WINDOW) is decay_classify(trace, _WINDOW)


def test_tail_exponent_tracks_algebraic_decay():
    for nu in (0.3, 0.7):
        trace = envelope_sequence(nu, 2999)
        slope = tail_exponent(trace, 300)
        assert slope == pytest.approx(nu - 1.0, abs=0.02)


def test_tail_exponent_of_flat_oscillation_is_zero():
    assert abs(tail_exponent(_OSCILLATING, _WINDOW)) < 1e-8


def test_tail_exponent_degenerate_cases():
    assert np.isnan(tail_exponent(np.zeros(50), 10))
    with pytest.raises(ValueError):
        tail_exponent(np.ones(5), 10)


@pytest.mark.parametrize("n_max", [20, 2000])
def test_batched_classes_and_tails_match_per_column_calls(n_max):
    # the default scan grid, one (n_max + 1, 51) batch per order: the classes
    # are the same comparisons of the same maxima, and the batch fits each
    # column's tail as one row, as the per-column call does
    cs = np.round(np.arange(-2.0, 0.5001, 0.05), 10)
    win = default_window(n_max + 1)
    coeffs = np.broadcast_to(cs, (n_max, cs.size))
    for nu in np.round(np.arange(0.1, 0.95, 0.1), 10):
        traces = mittag_leffler_seq(coeffs, nu, n_max)
        classes = decay_classify(traces, win)
        tails = tail_exponent(traces, win)
        assert classes == [decay_classify(column, win) for column in traces.T]
        want = np.array([tail_exponent(column, win) for column in traces.T])
        assert tails.shape == want.shape and np.array_equal(np.isnan(tails), np.isnan(want))
        if n_max == 20:
            assert tails.tobytes() == want.tobytes()
        else:
            assert np.nanmax(np.abs(tails - want)) <= 1e-11


def test_batched_tails_fit_irregular_columns_on_their_own():
    # a zero sample in the window, an overflowed column (inf, then nan), an
    # inf sample, a nan sample and an all-zero column each leave the shared
    # fit, next to two clean columns, and give exactly what the 1-D call
    # gives: nan for the overflowed, the inf, the nan and the zero columns
    n, win = 400, 40
    zero_in_window = _DECAYING.copy()
    zero_in_window[-7] = 0.0
    overflowed = mittag_leffler_seq(-50.0, 0.5, n - 1)
    inf_in_window = _DECAYING.copy()
    inf_in_window[-5] = np.inf
    nan_in_window = _DECAYING.copy()
    nan_in_window[-3] = np.nan
    columns = [_DECAYING, zero_in_window, overflowed, inf_in_window, nan_in_window]
    columns += [np.zeros(n), _OSCILLATING]
    batch = np.stack(columns, axis=1)
    tails = tail_exponent(batch, win)
    assert tails.tobytes() == np.array([tail_exponent(column, win) for column in columns]).tobytes()
    assert np.array_equal(np.isnan(tails), [False, False, True, True, True, True, False])
    classes = decay_classify(batch, win)
    assert classes == [decay_classify(column, win) for column in columns]
    assert classes[2:4] == [DecayClass.UNBOUNDED] * 2 and classes[5] is DecayClass.TENDS_TO_ZERO


def _exact_tail(trace, window):
    """The least-squares slope, in rationals, of the float log n and log |u| that tail_exponent fits."""
    n = np.arange(len(trace))[-window:]
    v = np.abs(trace[-window:])
    keep = (v > 0.0) & (n > 0)
    x = [Fraction(t) for t in np.log(n[keep]).tolist()]
    y = [Fraction(t) for t in np.log(v[keep]).tolist()]
    xm, ym = sum(x) / len(x), sum(y) / len(y)
    return float(sum((a - xm) * (b - ym) for a, b in zip(x, y)) / sum((a - xm) ** 2 for a in x))


@pytest.mark.parametrize("nu", [0.1, 0.5, 0.9])
def test_tails_are_the_exact_least_squares_slope(nu):
    # the default scan grid at n_max 2000 (window 200), each column against
    # the rational slope of the same floats, where a fit through LAPACK was
    # off by up to 1e-13; the batch gives each column its own call's tail
    cs = np.round(np.arange(-2.0, 0.5001, 0.05), 10)
    traces = mittag_leffler_seq(np.broadcast_to(cs, (2000, cs.size)), nu, 2000)
    win = default_window(2001)
    tails = tail_exponent(traces, win)
    fitted = 0
    for tail, column in zip(tails, traces.T):
        if np.isfinite(column).all():
            fitted += 1
            want = _exact_tail(column, win)
            assert abs(tail - want) <= 1e-14 * abs(want), (nu, tail, want)
        else:
            assert np.isnan(tail)
    assert fitted >= 40
    assert tails.tobytes() == np.array([tail_exponent(column, win) for column in traces.T]).tobytes()


def test_tails_of_windows_with_zero_samples_are_exact():
    # 0.4^n underflows through the subnormals to zero inside the window;
    # zeros planted in a decaying trace leave the fit as well
    geometric = solve_first_order(-0.6, "on_u_lag", 1.0, 829).values
    holed = envelope_sequence(0.3, 2999)
    holed[-300::7] = 0.0
    cases = [(geometric, 83), (holed, 300), (holed, 3000)]
    # default-grid columns with zeros planted in their last window
    cs = np.round(np.arange(-2.0, 0.5001, 0.05), 10)
    traces = mittag_leffler_seq(np.broadcast_to(cs, (2000, cs.size)), 0.5, 2000)
    traces[-200::13] = 0.0
    win = default_window(2001)
    cases += [(column, win) for column in traces.T if np.isfinite(column).all()]
    for trace, window in cases:
        v = trace[-window:]
        assert (v == 0.0).any() and (v > 0.0).sum() >= 2
        want = _exact_tail(trace, window)
        assert want != 0.0
        assert abs(tail_exponent(trace, window) - want) <= 1e-14 * abs(want)


def test_tails_need_no_lapack(monkeypatch):
    class NoLapack:
        def __getattr__(self, name):
            raise AssertionError(f"LAPACK routine {name} called")

    # np.polyfit binds np.linalg.lstsq at import, so the LAPACK routines
    # behind every np.linalg function, lstsq's among them, are refused
    monkeypatch.setattr(numpy.linalg._linalg, "_umath_linalg", NoLapack())
    cells = stability_scan([0.3, 0.8], [-1.0, -0.2, 0.1], 400)
    assert sum(np.isfinite(cell.tail_stat) for cell in cells) >= 4
    assert np.isfinite(bound_check(-0.4, 0.5, 400).tail_stat)


def _abs_first(arr, window):
    """Classes and tails by the formulas that take |u| of the whole array first."""
    a = np.abs(arr)
    global_max = a.max(axis=0)
    last_max = a[-window:].max(axis=0)
    head_max = a[:window].max(axis=0)
    first = np.where(a[0] > 0.0, a[0], global_max)
    unbounded = ~np.isfinite(a).all(axis=0) | (last_max > 10.0 * first)
    vanishing = (global_max == 0.0) | ((last_max < 0.5 * head_max) & (last_max < 0.1 * global_max))
    classes = [
        DecayClass.UNBOUNDED if up else DecayClass.TENDS_TO_ZERO if down else DecayClass.BOUNDED_NONVANISHING
        for up, down in zip(unbounded, vanishing)
    ]
    n = np.arange(len(a))[-window:]
    v = np.ascontiguousarray(a[-window:].T)
    usable = (v > 0.0) & (n > 0)
    count = usable.sum(axis=1)
    x = np.log(np.where(usable, n, 1))
    y = np.log(np.where(usable, v, 1.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        dx = x - (x.sum(axis=1) / count)[:, None]
        dx[~usable] = 0.0
        tails = (dx * (y - (y.sum(axis=1) / count)[:, None])).sum(axis=1) / (dx * dx).sum(axis=1)
    tails[~np.isfinite(v).all(axis=1) | (count < 2)] = np.nan
    return classes, tails


def test_classes_and_tails_of_awkward_columns_match_the_abs_first_formulas():
    # signs, non-finite samples, zeros of both signs and subnormals, in the
    # head window, in the middle and in the last window: the maxima come
    # from max u and -min u and |u| of the windows only, which must give
    # what |u| of the whole array gave
    n, win = 300, 30
    tiny = np.nextafter(0.0, 1.0)

    def planted(i, value):
        column = _DECAYING[:n].copy()
        column[i] = value
        return column

    inf_then_nan = _DECAYING[:n].copy()
    inf_then_nan[100], inf_then_nan[n - 5] = np.inf, np.nan
    nan_then_inf = _DECAYING[:n].copy()
    nan_then_inf[100], nan_then_inf[150] = np.nan, -np.inf
    columns = [
        planted(150, np.nan), planted(150, np.inf), planted(150, -np.inf),
        planted(0, np.nan), planted(n - 1, -np.inf), inf_then_nan, nan_then_inf,
        -_DECAYING[:n], -(_GROWING[:n]), -np.ones(n), _OSCILLATING[:n] * -_DECAYING[:n],
        np.zeros(n), np.full(n, -0.0), np.where(np.arange(n) % 2, -0.0, 0.0),
        np.full(n, tiny), np.full(n, -tiny), tiny * _OSCILLATING[:n] * np.arange(n),
        np.concatenate(([1.0], np.full(n - 1, -tiny))), np.concatenate(([-0.0], np.full(n - 1, 1e-310))),
        _DECAYING[:n], _GROWING[:n],
    ]
    batch = np.stack(columns, axis=1)
    for window in (win, 1, n // 2):
        want_classes, want_tails = _abs_first(batch, window)
        classes, tails = decay_classify(batch, window), tail_exponent(batch, window)
        assert classes == want_classes == [decay_classify(column, window) for column in columns]
        assert tails.tobytes() == want_tails.tobytes()
        assert tails.tobytes() == np.array([tail_exponent(column, window) for column in columns]).tobytes()
    classes, tails = decay_classify(batch, win), tail_exponent(batch, win)
    assert classes[:7] == [DecayClass.UNBOUNDED] * 7
    assert classes[11:14] == [DecayClass.TENDS_TO_ZERO] * 3
    assert np.flatnonzero(np.isnan(tails[:7])).tolist() == [4, 5] and abs(tails[15]) < 1e-20


@pytest.mark.parametrize("func", [decay_classify, tail_exponent])
def test_windows_are_taken_as_ints_and_fractions_refused(func):
    # an integral float or NumPy integer is the int, as a base is
    want = func(_DECAYING, _WINDOW)
    for window in (float(_WINDOW), np.int64(_WINDOW), np.float32(_WINDOW)):
        assert func(_DECAYING, window) == want
    for window in (2.5, 40.25, np.float64(0.5), np.nan, np.inf):
        with pytest.raises(ValueError, match="window must be an integer, got"):
            func(_DECAYING, window)


def test_classification_allocates_a_fraction_of_the_batch():
    # the default scan grid's (2001, 51) batch: |u| is taken of the windows
    # read, not of the batch (1.13 and 1.64 batches beyond it when it was)
    cs = np.round(np.arange(-2.0, 0.5001, 0.05), 10)
    traces = mittag_leffler_seq(np.broadcast_to(cs, (2000, cs.size)), 0.5, 2000)
    win = default_window(2001)
    for func in (decay_classify, tail_exponent):
        func(traces, win)
        tracemalloc.start()
        try:
            func(traces, win)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * traces.nbytes, func.__name__


def test_one_scan_order_peaks_under_two_and_a_half_traces():
    # the merges transform a few columns at a time and the classifiers copy
    # no batch, so the trace itself, the block inverses and one chunk's
    # merge buffers are the peak (2.22 traces; 3.95 with whole-batch merges
    # and |u| of the batch)
    cs = np.round(np.arange(-2.0, 0.5001, 0.05), 10)
    trace_bytes = 2001 * cs.size * 8
    stability_scan([0.5], cs, 2000)
    for nu in (0.1, 0.5, 0.9):
        tracemalloc.start()
        try:
            stability_scan([nu], cs, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * trace_bytes, nu


def test_three_dimensional_traces_are_rejected():
    for func in (decay_classify, tail_exponent):
        with pytest.raises(ValueError, match="trace must be one-dimensional"):
            func(np.ones((40, 2, 2)), 10)


# --- envelope bound -----------------------------------------------------


def test_bound_holds_at_the_criterion_center():
    report = bound_check(-0.5, 0.5, 1000)
    assert report.criterion_all
    assert report.bound_all
    assert report.decay_class is DecayClass.TENDS_TO_ZERO
    assert report.values.size == report.envelope.size == 1001
    assert report.criterion_holds.size == 1000


def test_bound_holds_for_random_region_instances():
    rng = np.random.default_rng(77)
    for _ in range(25):
        nu = rng.choice([0.25, 0.5, 0.75])
        c = -nu + nu * rng.uniform(-1.0, 1.0, size=400)
        report = bound_check(c, nu, 400)
        assert report.criterion_all
        assert report.bound_all


def test_bound_is_tight_at_zero_coefficient():
    report = bound_check(0.0, 0.5, 500)
    gap = np.abs(np.abs(report.values) - report.envelope)
    assert float(np.max(gap)) <= 1e-12
    assert report.bound_all


def test_bound_slack_is_small():
    assert BOUND_SLACK == 1e-12


def test_report_json_document():
    report = bound_check(0.0, 0.5, 100)
    buf = io.StringIO()
    write_report_json(report, buf)
    doc = json.loads(buf.getvalue())
    assert list(doc) == [
        "kind", "nu", "criterion_holds", "bound_ok", "decay_class", "tail_stat", "values", "envelope",
    ]
    assert doc["kind"] == "stability_report"
    assert doc["nu"] == 0.5
    assert len(doc["values"]) == len(doc["envelope"]) == 101
    assert len(doc["criterion_holds"]) == 100
    assert all(doc["bound_ok"])
    assert doc["decay_class"] == "tends_to_zero"
    assert isinstance(doc["tail_stat"], float)


# --- order comparison ---------------------------------------------------


def test_compare_constant_coefficient_fixture():
    cmp = compare_orders(0.0, 0.5, "on_u_lag", 1.0, 2000)
    assert cmp.first_order_class is DecayClass.BOUNDED_NONVANISHING
    assert cmp.fractional_class is DecayClass.TENDS_TO_ZERO
    assert np.all(cmp.first_order.values == 1.0)
    v = cmp.verdict()
    assert v["kind"] == "comparison_verdict"
    assert v["form"] == "on_u_lag"
    assert v["first_order"] == "bounded_nonvanishing"
    assert v["fractional"] == "tends_to_zero"
    assert v["fractional_tail"] == pytest.approx(-0.5, abs=0.1)


def test_compare_oscillation_fixture():
    cmp = compare_orders(2.0, 0.5, "on_u_t", 1.0, 2000)
    assert np.array_equal(cmp.first_order.values, (-1.0) ** np.arange(2001))
    assert cmp.first_order_class is DecayClass.BOUNDED_NONVANISHING
    assert cmp.fractional_class is DecayClass.TENDS_TO_ZERO


def test_compare_where_both_orders_decay():
    cmp = compare_orders(-0.5, 0.5, "on_u_lag", 1.0, 2000)
    assert cmp.first_order_class is DecayClass.TENDS_TO_ZERO
    assert cmp.fractional_class is DecayClass.TENDS_TO_ZERO


def _same_trace(got, want):
    return (
        np.array_equal(got.values, want.values)
        and np.array_equal(got.residuals, want.residuals)
        and np.array_equal(got.envelope, want.envelope)
    )


@pytest.mark.parametrize("c", [-0.3, 2.0, np.linspace(-1.5, 0.4, 300)], ids=["-0.3", "2", "ramp"])
def test_compare_splits_the_coefficient_by_form(c):
    nu, base, u0, n = 0.6, 2, 1.5, 300
    lag = compare_orders(c, nu, "on_u_lag", u0, n, base).fractional
    assert _same_trace(lag, solve_lagged(c, nu, u0, n, base))
    undelayed = compare_orders(c, nu, "on_u_t", u0, n, base).fractional
    problem = LinearProblem(nu, base, p=c, q=0.0, g=0.0, u0=u0)
    assert _same_trace(undelayed, solve_general(problem, n))
    assert not np.array_equal(lag.values, undelayed.values)


def _same_fields(got, want):
    # every field, derived ones included: arrays and tails compare as values
    # (a nan tail equals a nan tail), classes and traces as objects
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, (np.ndarray, float)):
            assert np.array_equal(a, b, equal_nan=True), f.name
        else:
            assert a is b or a == b, f.name


@pytest.mark.parametrize("c", [-0.3, 0.2, np.linspace(-1.5, 0.4, 300)], ids=["-0.3", "0.2", "ramp"])
def test_results_built_by_hand_derive_what_the_library_derives(c):
    nu, n = 0.6, 300
    report = bound_check(c, nu, n)
    _same_fields(StabilityReport(nu, criterion_check(coefficient_array(c, n), nu), mittag_leffler_seq(c, nu, n)), report)
    comparison = compare_orders(c, nu, "on_u_t", 1.5, n, 2)
    by_hand = OrderComparison(comparison.form, comparison.first_order, comparison.fractional)
    _same_fields(by_hand, comparison)
    assert by_hand.verdict() == comparison.verdict()


def test_a_replaced_report_derives_from_its_new_values():
    # the class, the bound and the envelope follow the values, so a report
    # cannot carry a class its own values contradict
    report = bound_check(-0.5, 0.5, 400)
    grown = dataclasses.replace(report, values=monomial_sequence(0.5, 400) + 1.0)
    assert report.decay_class is DecayClass.TENDS_TO_ZERO and report.bound_all
    # u(a) = 1 meets the envelope's 1, and every later value exceeds it
    assert grown.decay_class is DecayClass.UNBOUNDED and grown.bound_ok.tolist() == [True] + [False] * 400
    np.testing.assert_array_equal(grown.envelope, envelope_sequence(0.5, 400))
    assert grown.tail_stat == tail_exponent(grown.values, default_window(401))


# --- scans --------------------------------------------------------------


def test_scan_region_cells_always_decay():
    nus = [0.25, 0.5]
    cs = [round(-1.5 + 0.15 * i, 10) for i in range(14)]
    cells = stability_scan(nus, cs, 2000)
    assert len(cells) == len(nus) * len(cs)
    # row-major: nu is the outer axis
    for i, cell in enumerate(cells):
        assert cell.nu == nus[i // len(cs)]
        assert cell.c == cs[i % len(cs)]
    for cell in cells:
        if -2.0 * cell.nu <= cell.c <= 0.0:
            assert cell.decay_class is DecayClass.TENDS_TO_ZERO, (cell.nu, cell.c)


def test_scan_slow_orders_need_longer_horizons():
    # at nu = 0.75 the envelope decays like n^(-1/4); the 10x-drop threshold
    # clears only around n = 5000, the horizon the acceptance run uses
    slow = stability_scan([0.75], [0.0], 2000)[0]
    assert slow.decay_class is DecayClass.BOUNDED_NONVANISHING
    long_run = stability_scan([0.75], [0.0], 5000)[0]
    assert long_run.decay_class is DecayClass.TENDS_TO_ZERO


def test_overflowing_cell_is_unbounded():
    # the trace overflows to inf and nan near n = 1090; nan maxima compare
    # false against every threshold, so only a finiteness test catches it
    cell = stability_scan([0.1], [-2.0], 2000)[0]
    report = bound_check(-2.0, 0.1, 2000)
    assert cell.decay_class is DecayClass.UNBOUNDED
    assert report.decay_class is DecayClass.UNBOUNDED


def test_scan_matches_per_cell_sequences():
    # decaying, bounded, growing and overflowing cells, stepped as one batch
    # per order against one mittag_leffler_seq call per cell
    nus, cs, n_max = [0.1, 0.5, 0.8], [-2.0, -0.5, 0.0, 0.3], 2000
    win = default_window(n_max + 1)
    cells = stability_scan(nus, cs, n_max)
    traces = [mittag_leffler_seq(cell.c, cell.nu, n_max) for cell in cells]
    assert [(cell.nu, cell.c) for cell in cells] == [(nu, c) for nu in nus for c in cs]
    assert {cell.decay_class for cell in cells} == set(DecayClass)
    assert any(not np.all(np.isfinite(values)) for values in traces)
    for cell, values in zip(cells, traces):
        assert cell.decay_class is decay_classify(values, win), (cell.nu, cell.c)
        want = tail_exponent(values, win)
        assert cell.tail_stat == pytest.approx(want, rel=1e-9, nan_ok=True), (cell.nu, cell.c)


def test_scan_validates_orders():
    with pytest.raises(ValueError):
        stability_scan([0.5, 1.0], [-0.5], 100)
    # classification needs two windows, so a trace of at least three points
    with pytest.raises(ValueError, match="n_max must be >= 2, got 1"):
        bound_check(-0.5, 0.5, 1)
    with pytest.raises(ValueError, match="n_max must be >= 2, got 1"):
        stability_scan([0.5], [-0.5], 1)
    # a grid of two or more dimensions is named; a 2-D c grid once reached
    # the stepping core as a 3-D batch, and each row of a 2-D nu grid was
    # refused as if it were one order
    with pytest.raises(ValueError, match=r"^c_grid must be one-dimensional, got shape \(2, 1\)$"):
        stability_scan([0.5], [[0.1], [0.2]], 20)
    with pytest.raises(ValueError, match=r"^nu_grid must be one-dimensional, got shape \(1, 1\)$"):
        stability_scan([[0.5]], [-0.5], 20)


def test_scan_holds_one_order_of_traces_at_a_time():
    # each order's (n_max + 1, 51) traces take 0.78 MB; a scan that kept one
    # order's traces alive while the next order steps would peak that much
    # above a one-order scan
    cs = np.round(np.arange(-2.0, 0.5001, 0.05), 10)
    stability_scan([0.5], cs, 2000)

    def peak(nus):
        tracemalloc.start()
        try:
            stability_scan(nus, cs, 2000)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak([0.2, 0.5, 0.8]) - peak([0.2]) <= 0.1 * 2**20


def test_scan_csv_format():
    cells = stability_scan([0.5], [-0.5, 0.25], 400)
    a, b = io.StringIO(), io.StringIO()
    write_scan_csv(cells, a)
    write_scan_csv(cells, b)
    assert a.getvalue() == b.getvalue()
    lines = a.getvalue().strip().split("\n")
    assert lines[0] == "nu,c,decay_class,tail_stat"
    assert len(lines) == 3
    assert lines[1].startswith("0.5,-0.5,tends_to_zero,")
