"""Every public numeric argument is taken by one contract, table by table.

Counts and indices: an integral float, a NumPy scalar or a 0-d array is its
int, byte for byte in the results; a fractional or non-finite real raises
``ValueError``, anything that is not a real ``TypeError``, both naming the
argument; a value below the argument's minimum, or a count above
``sys.maxsize`` (one less where the result holds ``n_max + 1`` entries),
raises ``ValueError``.

Orders, ``u0``, coefficients, grid values, traces and the scan's grids: a
NumPy scalar or array gives the bytes of its Python value, and every value
the contract refuses, a ragged sequence among them, raises ``ValueError``
or ``TypeError`` naming the argument.  A completeness test holds the
tables to every parameter of the public functions.
"""

import inspect
import io
import json
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import nablafrac
from nablafrac import (
    DivergentSolutionError,
    GridFunction,
    LinearProblem,
    OrderComparison,
    ScanCell,
    SingularStepError,
    SolutionTrace,
    StabilityReport,
    bound_check,
    coefficient_array,
    compare_orders,
    convolution_weights,
    criterion_check,
    decay_classify,
    default_window,
    envelope_sequence,
    mittag_leffler_seq,
    monomial_limit_sequence,
    monomial_sequence,
    nabla_diff_n,
    nabla_frac_diff_composed,
    nabla_frac_diff_direct,
    nabla_sum,
    power_rule_check,
    solve_first_order,
    solve_general,
    solve_lagged,
    stability_scan,
    tail_exponent,
)
from nablafrac.formats import (
    write_grid_csv,
    write_report_json,
    write_scan_csv,
    write_trace_csv,
    write_trace_json,
)

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
    ("LinearProblem-base", "base", None, lambda v: solve_general(LinearProblem(0.5, v, 0.0, -0.3, 0.0, 1.0), 4)),
    ("value_at-t", "t", None, _SAMPLES.value_at),
]
_IDS = [case[0] for case in _ARGUMENTS]
# the counts: the rows with a minimum
_COUNTS = [case for case in _ARGUMENTS if case[2] is not None]

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


@pytest.mark.parametrize("name, minimum, call", [case[1:] for case in _COUNTS], ids=[case[0] for case in _COUNTS])
def test_values_below_the_minimum_are_refused(name, minimum, call):
    call(minimum)
    with pytest.raises(ValueError, match=f"^{name} must be >= {minimum}, got {minimum - 1}$"):
        call(minimum - 1)


# the counts whose row holds n_max + 1 entries, so that the largest they
# take is one below sys.maxsize
_ROWS_PAST_THE_COUNT = {"envelope_sequence", "mittag_leffler_seq"}


@pytest.mark.parametrize("key, name, minimum, call", _COUNTS, ids=[case[0] for case in _COUNTS])
def test_counts_past_the_largest_size_are_refused(key, name, minimum, call):
    # NumPy's own "Maximum allowed dimension exceeded" names no argument, nor
    # does a message about a count formed inside the call
    largest = sys.maxsize - (key in _ROWS_PAST_THE_COUNT)
    for value in (largest + 1, sys.maxsize + 1, 10**400):
        with pytest.raises(ValueError, match=f"^{name} must be <= {largest}$"):
            call(value)


def test_indices_take_any_int():
    u = GridFunction(sys.maxsize + 1, [1.0, 2.0])
    assert u.base == sys.maxsize + 1 and u.value_at(sys.maxsize + 2) == 2.0
    assert GridFunction(-(10**400), [1.0]).value_at(-(10**400)) == 1.0


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


# (id, word, call) for every order, u0, coefficient and array argument: id
# is "function-parameter", call(value) puts the value at that parameter with
# every other argument valid, and a refusal's message matches word.  A row
# ending in "-entry" takes the value as every entry of a sequence, the
# others the value as the whole argument.
_REALS = [
    ("solve_lagged-nu", "order", lambda v: solve_lagged(-0.3, v, 1.0, 20)),
    ("compare_orders-nu", "order", lambda v: compare_orders(-0.3, v, "on_u_lag", 1.0, 20)),
    ("mittag_leffler_seq-nu", "order", lambda v: mittag_leffler_seq(-0.3, v, 20)),
    ("envelope_sequence-nu", "order", lambda v: envelope_sequence(v, 20)),
    ("criterion_check-nu", "order", lambda v: criterion_check([-0.6, 0.01], v)),
    ("bound_check-nu", "order", lambda v: bound_check(-0.5, v, 20)),
    ("LinearProblem-nu", "order", lambda v: solve_general(LinearProblem(v, 0, 0.1, -0.3, 0.5, 1.0), 20)),
    ("nabla_sum-nu", "order", lambda v: nabla_sum(_SAMPLES, v)),
    ("nabla_frac_diff_direct-nu", "order", lambda v: nabla_frac_diff_direct(_SAMPLES, v)),
    ("nabla_frac_diff_composed-nu", "order", lambda v: nabla_frac_diff_composed(_SAMPLES, v)),
    ("convolution_weights-nu", "order", lambda v: convolution_weights(v, 20)),
    ("power_rule_check-nu", "order", lambda v: power_rule_check(2.5, v, 20)),
    ("monomial_sequence-mu", "order", lambda v: monomial_sequence(v, 20)),
    ("monomial_limit_sequence-mu", "order", lambda v: monomial_limit_sequence(v, 20)),
    ("power_rule_check-mu", "order", lambda v: power_rule_check(v, 0.5, 20)),
    ("solve_lagged-u0", "u0", lambda v: solve_lagged(-0.3, 0.5, v, 20)),
    ("solve_first_order-u0", "u0", lambda v: solve_first_order(0.2, "on_u_t", v, 20)),
    ("compare_orders-u0", "u0", lambda v: compare_orders(-0.3, 0.5, "on_u_t", v, 20)),
    ("LinearProblem-u0", "u0", lambda v: solve_general(LinearProblem(None, 0, 0.1, -0.3, 0.5, v), 20)),
    ("solve_lagged-c", "coefficient", lambda v: solve_lagged(v, 0.5, 1.0, 20)),
    ("solve_first_order-c", "coefficient", lambda v: solve_first_order(v, "on_u_lag", 1.0, 20)),
    ("solve_first_order-g", "coefficient", lambda v: solve_first_order(0.2, "on_u_t", 1.0, 20, g=v)),
    ("compare_orders-c", "coefficient", lambda v: compare_orders(v, 0.5, "on_u_lag", 1.0, 20)),
    ("mittag_leffler_seq-c", "coefficient", lambda v: mittag_leffler_seq(v, 0.5, 20)),
    ("bound_check-c", "coefficient", lambda v: bound_check(v, 0.5, 20)),
    ("criterion_check-c", "coefficient", lambda v: criterion_check(v, 0.5)),
    ("coefficient_array-c", "coefficient", lambda v: coefficient_array(v, 20)),
    ("coefficient_array-c-entry", "coefficient", lambda v: coefficient_array([v] * 20, 20)),
    ("LinearProblem-p", "coefficient", lambda v: solve_general(LinearProblem(0.5, 0, v, -0.3, 0.5, 1.0), 20)),
    ("LinearProblem-q", "coefficient", lambda v: solve_general(LinearProblem(0.5, 0, 0.1, v, 0.5, 1.0), 20)),
    ("LinearProblem-g", "coefficient", lambda v: solve_general(LinearProblem(0.5, 0, 0.1, -0.3, v, 1.0), 20)),
    ("GridFunction-values", "values", lambda v: GridFunction(0, v)),
    ("GridFunction-values-entry", "values", lambda v: GridFunction(0, [v] * 3)),
    ("decay_classify-trace", "trace", lambda v: decay_classify(v, 1)),
    ("decay_classify-trace-entry", "trace", lambda v: decay_classify([v] * 20, 1)),
    ("tail_exponent-trace", "trace", lambda v: tail_exponent(v, 1)),
    ("tail_exponent-trace-entry", "trace", lambda v: tail_exponent([v] * 20, 1)),
    ("stability_scan-nu_grid", "nu_grid", lambda v: stability_scan(v, [-0.5], 20)),
    ("stability_scan-nu_grid-entry", "nu_grid", lambda v: stability_scan([v], [-0.5], 20)),
    ("stability_scan-c_grid", "c_grid", lambda v: stability_scan([0.5], v, 20)),
    ("stability_scan-c_grid-entry", "c_grid", lambda v: stability_scan([0.5], [v], 20)),
]

# the kinds of ROADMAP direction 7, then a fraction, a Decimal, a long
# double, a list and a ragged list
_KINDS = [
    2, 2.0, np.int64(2), np.float32(0.1), 0.5, np.nan, np.inf, -np.inf, True, "0.5", None,
    np.array(0.5), np.array([[0.5]]), complex(0.5), 10**400,
    Fraction(1, 2), Decimal("0.5"), np.longdouble(0.1), [0.5], [[0.5, 0.5], [0.5]],
]

# outcomes of the equation at an accepted value: a pivot 1 - p of 0, or an
# overflow
_OUTCOMES = (SingularStepError, DivergentSolutionError)


def _python_value(value):
    """The Python value a NumPy kind or a fraction must give the bytes of, or None."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, Fraction)):
        return float(value)
    if isinstance(value, np.generic):
        return value.item()
    return None


def _orders(result):
    """The orders a result carries: a float each, or None for a first-order trace."""
    if isinstance(result, list) and result and isinstance(result[0], ScanCell):
        return [cell.nu for cell in result]
    return [result.nu] if isinstance(result, (SolutionTrace, StabilityReport, OrderComparison)) else []


@pytest.mark.parametrize("word, call", [case[1:] for case in _REALS], ids=[case[0] for case in _REALS])
def test_every_kind_is_taken_as_its_python_value_or_refused_by_name(word, call):
    for value in _KINDS:
        try:
            result = call(value)
        except _OUTCOMES:
            continue
        except (ValueError, TypeError) as exc:
            assert re.search(word, str(exc)), (repr(value), str(exc))
            continue
        # a first-order trace carries None
        assert all(nu is None or type(nu) is float for nu in _orders(result)), repr(value)
        twin = _python_value(value)
        if twin is not None:
            assert _fingerprint(result) == _fingerprint(call(twin)), repr(value)


def test_the_tables_cover_every_numeric_parameter():
    # every parameter of every public function, GridFunction and
    # LinearProblem is a row of a table or exempt, with its reason
    exempt = {
        "stream": "a text stream, read or written as it is",
        "kind": "a document kind, a string written as it is",
        "header": "a CSV header, a string written as it is",
        "record_base": "a flag of the writer",
        "form": "a FirstOrderForm or its name, refused by the enum itself",
        "u": "a GridFunction, whose base and values have rows",
        "problem": "a LinearProblem, whose fields have rows",
        "obj": "a result object",
        "report": "a result object",
        "cells": "result objects",
        "write_trace_csv-trace": "a result object",
        "write_trace_json-trace": "a result object",
    }
    rows = {case[0].removesuffix("-entry") for case in _REALS}
    rows |= {f"{case[0].split('-')[0]}-{case[1]}" for case in _ARGUMENTS}
    modules = [nablafrac.formats, nablafrac.grid, nablafrac.monomial, nablafrac.solver, nablafrac.stability]
    names = [name for module in modules for name in module.__all__]
    callables = [getattr(nablafrac, name) for name in names]
    callables = [f for f in callables if inspect.isfunction(f) or f in (GridFunction, LinearProblem)]
    assert len(callables) > 30
    missing = []
    for function in callables:
        for parameter in inspect.signature(function).parameters.values():
            if parameter.kind in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD):
                # **fields, **metadata and *columns are written as given
                continue
            key = f"{function.__name__}-{parameter.name}"
            if key not in rows and key not in exempt and parameter.name not in exempt:
                missing.append(key)
    assert not missing


def test_an_order_of_none_is_refused_where_the_order_is_fractional():
    for call in (
        lambda: solve_lagged(-0.3, None, 1.0, 20),
        lambda: compare_orders(-0.3, None, "on_u_lag", 1.0, 20),
    ):
        with pytest.raises(TypeError, match="^order must be a real number, got None$"):
            call()
    # None stays the classical nabla of a problem, and so of the first-order
    # solves: dyadic steps u(t) = (1 - 0.5) u(t - 1), exact
    want = "n,t,u,residual,envelope\n0,0,1,0,nan\n1,1,0.5,0,nan\n2,2,0.25,0,nan\n3,3,0.125,0,nan\n"
    assert _text(write_trace_csv, solve_general(LinearProblem(None, 0, 0.0, -0.5, 0.0, 1.0), 3)) == want
    assert _text(write_trace_csv, solve_first_order(-0.5, "on_u_lag", 1.0, 3)) == want


@pytest.mark.parametrize(
    "call",
    [
        lambda nu: envelope_sequence(nu, 300),
        lambda nu: nabla_sum(GridFunction(1, np.ones(300)), nu),
        lambda nu: nabla_frac_diff_composed(GridFunction(1, np.ones(300)), nu),
        lambda nu: convolution_weights(nu, 300),
        lambda nu: mittag_leffler_seq(-0.05, nu, 300),
    ],
    ids=["envelope_sequence", "nabla_sum", "nabla_frac_diff_composed", "convolution_weights", "mittag_leffler_seq"],
)
def test_a_float32_order_is_the_float_it_holds(call):
    # nu - 1 used to be formed in float32: the envelope was 2.2e-8 off
    assert _fingerprint(call(np.float32(0.1))) == _fingerprint(call(float(np.float32(0.1))))


@pytest.mark.parametrize("nu", [np.array(0.5), Fraction(1, 2)], ids=["0-d", "Fraction"])
def test_documents_write_the_checked_order(nu):
    trace = _text(write_trace_json, solve_lagged(-0.3, nu, 1.0, 20))
    report = _text(write_report_json, bound_check(-0.5, nu, 20))
    assert json.loads(trace)["nu"] == json.loads(report)["nu"] == 0.5
    assert trace == _text(write_trace_json, solve_lagged(-0.3, 0.5, 1.0, 20))


def test_values_past_the_float_range_are_value_errors():
    # taken as the infinity of their sign, however many digits they have
    with pytest.raises(ValueError, match="^u0 must be finite, got inf$"):
        solve_lagged(-0.3, 0.5, 10**400, 20)
    with pytest.raises(ValueError, match=r"^order must lie strictly in \(0, 1\), got inf$"):
        solve_lagged(-0.3, 10**5000, 1.0, 20)
    with pytest.raises(ValueError, match="^order must be positive and finite, got -inf$"):
        nabla_sum(_SAMPLES, -Fraction(10**400, 3))


# (id, message, call) for each shape and finiteness check of an array
# argument: call() is refused with the whole message
_ARRAY_REFUSALS = [
    ("coefficient_array-shape", "coefficients must be scalar, one-dimensional or (n, k), got shape (2, 2, 2)",
     lambda: coefficient_array(np.zeros((2, 2, 2)), 2)),
    ("criterion_check-shape", "coefficients must be scalar or one-dimensional, got shape (2, 2)",
     lambda: criterion_check(np.zeros((2, 2)), 0.5)),
    ("decay_classify-shape", "trace must be one-dimensional or (n, k), got shape ()", lambda: decay_classify(0.5, 1)),
    ("tail_exponent-shape", "trace must be one-dimensional or (n, k), got shape (2, 2, 2)",
     lambda: tail_exponent(np.zeros((2, 2, 2)), 1)),
    ("GridFunction-shape", "grid values must be one-dimensional, got shape (2, 2)",
     lambda: GridFunction(0, np.zeros((2, 2)))),
    ("coefficient_array-finite", "coefficients must be finite", lambda: coefficient_array(np.inf, 20)),
    ("coefficient_array-finite-batch", "coefficients must be finite",
     lambda: coefficient_array(np.full((20, 2), np.nan), 20)),
    # a sequence both short and non-finite is refused for its values
    ("coefficient_array-finite-short", "coefficients must be finite", lambda: coefficient_array([0.3, np.nan], 20)),
    ("coefficient_array-short", "coefficient sequence has 2 entries, need 20", lambda: coefficient_array([0.3] * 2, 20)),
    ("GridFunction-finite", "grid values must be finite", lambda: GridFunction(0, [1.0, -np.inf])),
    ("GridFunction-empty", "grid values must contain at least one value", lambda: GridFunction(0, [])),
    ("stability_scan-c_grid-finite", "c_grid must be finite", lambda: stability_scan([0.5], [np.nan], 20)),
]


@pytest.mark.parametrize(
    "message, call", [case[1:] for case in _ARRAY_REFUSALS], ids=[case[0] for case in _ARRAY_REFUSALS]
)
def test_array_refusals_name_the_argument_and_what_it_lacks(message, call):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_the_scan_refuses_grids_that_are_not_sequences_of_reals():
    # a scalar grid is refused for its shape, as every array argument is
    for name, nu_grid, c_grid in (("c_grid", [0.5], 0.1), ("nu_grid", 0.5, [0.1])):
        with pytest.raises(ValueError, match=rf"^{name} must be one-dimensional, got shape \(\)$"):
            stability_scan(nu_grid, c_grid, 20)
    with pytest.raises(TypeError, match="^nu_grid must be real numbers"):
        stability_scan(["0.5"], [-0.5], 20)
    with pytest.raises(TypeError, match="^c_grid must be real numbers"):
        stability_scan([0.5], ["-0.5"], 20)
    with pytest.raises(ValueError, match=r"^nu_grid order must lie strictly in \(0, 1\), got 1.5$"):
        stability_scan([0.5, 1.5], [-0.5], 20)
    # NumPy grids and entries are their Python values
    want = _text(write_scan_csv, stability_scan([0.5], [-0.5, 0.25], 20))
    assert _text(write_scan_csv, stability_scan(np.array([0.5]), [np.float64(-0.5), np.int64(0) + 0.25], 20)) == want
