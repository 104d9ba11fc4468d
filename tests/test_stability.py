"""Stability tooling: criterion, envelope bound, classification, scans."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nablafrac import (
    BOUND_SLACK,
    DecayClass,
    bound_check,
    compare_orders,
    criterion_check,
    decay_classify,
    default_window,
    envelope_sequence,
    mittag_leffler_seq,
    monomial_sequence,
    stability_scan,
    tail_exponent,
    write_report_json,
    write_scan_csv,
)

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
