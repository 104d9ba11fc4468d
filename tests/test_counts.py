"""Every public count and index argument is taken by one integer contract.

An integral float, a NumPy scalar or a 0-d array is its int, byte for byte
in the results; a fractional or non-finite real raises ``ValueError``,
anything that is not a real ``TypeError``, both naming the argument; a value
below the argument's minimum raises ``ValueError``.
"""

import io
import json

import numpy as np
import pytest

from nablafrac import (
    GridFunction,
    LinearProblem,
    OrderComparison,
    SolutionTrace,
    StabilityReport,
    bound_check,
    coefficient_array,
    compare_orders,
    convolution_weights,
    decay_classify,
    default_window,
    envelope_sequence,
    mittag_leffler_seq,
    monomial_limit_sequence,
    monomial_sequence,
    nabla_diff_n,
    power_rule_check,
    solve_first_order,
    solve_general,
    solve_lagged,
    stability_scan,
    tail_exponent,
)
from nablafrac.formats import write_grid_csv, write_report_json, write_scan_csv, write_trace_csv

_SAMPLES = GridFunction(0, np.cos(np.arange(30.0)))
_DECAYING = envelope_sequence(0.5, 59)

# (id, name, minimum, call): call(value) with 20 as the argument is valid
_ARGUMENTS = [
    ("coefficient_array", "n_max", 0, lambda v: coefficient_array(0.3, v)),
    ("envelope_sequence", "n_max", 0, lambda v: envelope_sequence(0.5, v)),
    ("mittag_leffler_seq", "n_max", 0, lambda v: mittag_leffler_seq(-0.3, 0.5, v)),
    ("monomial_sequence", "n_max", 0, lambda v: monomial_sequence(0.5, v)),
    ("monomial_limit_sequence", "n_max", 0, lambda v: monomial_limit_sequence(-2.0, v)),
    ("solve_lagged", "n_max", 1, lambda v: solve_lagged(-0.3, 0.5, 1.0, v)),
    ("solve_general", "n_max", 1, lambda v: solve_general(LinearProblem(0.5, 0, -0.1, -0.3, 0.5, 1.0), v)),
    ("solve_first_order", "n_max", 1, lambda v: solve_first_order(0.2, "on_u_t", 1.0, v)),
    ("compare_orders", "n_max", 1, lambda v: compare_orders(-0.3, 0.5, "on_u_lag", 1.0, v)),
    ("power_rule_check", "n_max", 1, lambda v: power_rule_check(2.5, 0.5, v)),
    ("bound_check", "n_max", 2, lambda v: bound_check(-0.5, 0.5, v)),
    ("stability_scan", "n_max", 2, lambda v: stability_scan([0.5], [-0.5, 0.25], v)),
    ("convolution_weights", "max_lag", 1, lambda v: convolution_weights(0.5, v)),
    ("nabla_diff_n", "order", 1, lambda v: nabla_diff_n(_SAMPLES, v)),
    ("default_window", "trace_len", 0, default_window),
    ("decay_classify", "window", 1, lambda v: decay_classify(_DECAYING, v)),
    ("tail_exponent", "window", 1, lambda v: tail_exponent(_DECAYING, v)),
    ("solve_lagged-base", "base", None, lambda v: solve_lagged(-0.3, 0.5, 1.0, 4, base=v)),
    ("solve_general-base", "base", None, lambda v: solve_general(LinearProblem(None, v, 0.1, -0.3, 0.5, 1.0), 4)),
    ("solve_first_order-base", "base", None, lambda v: solve_first_order(0.2, "on_u_lag", 1.0, 4, base=v)),
    ("compare_orders-base", "base", None, lambda v: compare_orders(-0.3, 0.5, "on_u_t", 1.0, 4, base=v)),
    ("GridFunction-base", "base", None, lambda v: GridFunction(v, [1.0, 2.0])),
    ("value_at-t", "t", None, _SAMPLES.value_at),
]
_IDS = [case[0] for case in _ARGUMENTS]

_INTEGRAL = [20.0, np.int64(20), np.float32(20), np.float64(20), np.array(20)]
_FRACTIONAL = [2.5, np.nan, np.inf, -np.inf]
_NOT_REAL = ["20", None, [20], 1j]


def _text(write, obj) -> str:
    stream = io.StringIO()
    write(obj, stream)
    return stream.getvalue()


def _fingerprint(result):
    """The result's bytes and, for a scalar, its type; every base it stores is an int."""
    if isinstance(result, OrderComparison):
        return [_fingerprint(result.first_order), _fingerprint(result.fractional), json.dumps(result.verdict())]
    if isinstance(result, GridFunction):
        assert type(result.base) is int
        return _text(write_trace_csv if isinstance(result, SolutionTrace) else write_grid_csv, result)
    if isinstance(result, StabilityReport):
        return _text(write_report_json, result)
    if isinstance(result, list):
        return _text(write_scan_csv, result)
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    return type(result), repr(result)


@pytest.mark.parametrize("name, minimum, call", [case[1:] for case in _ARGUMENTS], ids=_IDS)
def test_integral_values_give_the_int_result(name, minimum, call):
    want = _fingerprint(call(20))
    for value in _INTEGRAL:
        assert _fingerprint(call(value)) == want, repr(value)


@pytest.mark.parametrize("name, minimum, call", [case[1:] for case in _ARGUMENTS], ids=_IDS)
def test_fractional_and_non_finite_values_are_refused(name, minimum, call):
    for value in _FRACTIONAL:
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
            call(value)


@pytest.mark.parametrize("name, minimum, call", [case[1:] for case in _ARGUMENTS], ids=_IDS)
def test_values_that_are_not_real_are_type_errors(name, minimum, call):
    for value in _NOT_REAL:
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got"):
            call(value)


@pytest.mark.parametrize(
    "name, minimum, call", [case[1:] for case in _ARGUMENTS if case[2] is not None],
    ids=[case[0] for case in _ARGUMENTS if case[2] is not None],
)
def test_values_below_the_minimum_are_refused(name, minimum, call):
    call(minimum)
    with pytest.raises(ValueError, match=f"^{name} must be >= {minimum}, got {minimum - 1}$"):
        call(minimum - 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda n: mittag_leffler_seq(-0.5, 0.5, n),
        lambda n: bound_check(-0.5, 0.5, n),
        lambda n: convolution_weights(0.5, n),
    ],
    ids=["mittag_leffler_seq", "bound_check", "convolution_weights"],
)
def test_counts_too_large_to_allocate_fail_at_their_array(call):
    # the check walks nothing of the size a count names: 1e15 fails where
    # its first array is made, as 10**15 does
    for n in (10**15, 1e15):
        with pytest.raises(MemoryError):
            call(n)


def test_a_huge_scalar_coefficient_is_a_broadcast_view():
    view = coefficient_array(0.3, 1e15)
    assert view.shape == (10**15,) and view.strides == (0,) and not view.flags.writeable
