"""Command-line interface: happy paths, exit codes, determinism."""

import io
import json
import warnings

import click
import numpy as np
import pytest
from click.testing import CliRunner

import nablafrac
from nablafrac import GridFunction
from nablafrac.cli import COEFFICIENT_PRESETS, main
from nablafrac.formats import read_grid_csv, write_grid_csv


@pytest.fixture()
def runner():
    return CliRunner()


def _write_grid(path, base, values):
    with open(path, "w") as stream:
        write_grid_csv(GridFunction(base, values), stream)


# --- monomial -----------------------------------------------------------


def test_monomial_half_order_fixture(runner):
    result = runner.invoke(main, ["monomial", "--mu", "-0.5", "--n-max", "3"])
    assert result.exit_code == 0
    assert result.output == "n,value\n0,0\n1,1\n2,0.5\n3,0.375\n"


def test_monomial_negative_integer_order_is_zero(runner):
    result = runner.invoke(main, ["monomial", "--mu", "-2", "--n-max", "4"])
    assert result.exit_code == 0
    values = [line.split(",")[1] for line in result.output.strip().split("\n")[1:]]
    assert values == ["0"] * 5


def test_monomial_json_document(runner):
    result = runner.invoke(main, ["monomial", "--mu", "0.5", "--n-max", "2", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["kind"] == "monomial_sequence"
    assert doc["mu"] == 0.5
    assert doc["n"] == [0, 1, 2]
    assert doc["value"][1] == 1.0


def test_monomial_rejects_bad_parameters(runner):
    assert runner.invoke(main, ["monomial", "--mu", "0.5", "--n-max", "-1"]).exit_code == 2
    assert runner.invoke(main, ["monomial", "--mu", "inf", "--n-max", "3"]).exit_code == 2


def test_monomial_overflow_exits_5_with_the_offset(runner, tmp_path):
    # H_mu(3, 0) = mu (mu + 1) / 2 passes the float64 range at mu = 1e308;
    # by offset 5000 the long-double recurrence overflows too
    out = tmp_path / "m.json"
    for n_max in ("3", "5000"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(
                main, ["monomial", "--mu", "1e308", "--n-max", n_max, "--format", "json", "-o", str(out)]
            )
        assert [str(w.message) for w in caught] == []
        assert result.exit_code == 5
        assert "diverged at t = 3:" in result.output
        assert not out.exists()


# --- apply --------------------------------------------------------------


def test_apply_sum_of_ones_counts(runner, tmp_path):
    path = tmp_path / "ones.csv"
    _write_grid(path, 1, np.ones(5))
    result = runner.invoke(main, ["apply", "--op", "sum", "--nu", "1", "--input", str(path)])
    assert result.exit_code == 0
    assert result.output == (
        "# base=0\nindex,value\n0,0\n1,1\n2,2\n3,3\n4,4\n5,5\n"
    )


def test_apply_sum_of_a_tiny_order_is_the_identity(runner, tmp_path):
    path = tmp_path / "u.csv"
    v = np.random.default_rng(6).uniform(-10.0, 10.0, 300)
    _write_grid(path, 1, v)
    for nu in ("1e-20", repr(2.0**-54)):
        result = runner.invoke(main, ["apply", "--op", "sum", "--nu", nu, "--input", str(path)])
        assert result.exit_code == 0
        rows = np.loadtxt(result.output.splitlines(), delimiter=",", skiprows=2)
        assert rows[0, 1] == 0.0
        assert float(np.max(np.abs(rows[1:, 1] - v))) <= 1e-15
    # other orders print the library's sum, byte for byte
    result = runner.invoke(main, ["apply", "--op", "sum", "--nu", "0.3", "--input", str(path)])
    want = io.StringIO()
    write_grid_csv(nablafrac.nabla_sum(GridFunction(1, v), 0.3), want, record_base=True)
    assert result.output == want.getvalue()


def test_apply_nabla_needs_no_order(runner, tmp_path):
    path = tmp_path / "g.csv"
    _write_grid(path, 0, [1.0, 3.0, 6.0])
    result = runner.invoke(main, ["apply", "--op", "nabla", "--input", str(path)])
    assert result.exit_code == 0
    assert "1,2\n2,3\n" in result.output


def test_apply_nabla_rejects_an_order(runner, tmp_path):
    # the classical nabla has order 1; a given --nu would be written into
    # the JSON document as if it had been used
    path = tmp_path / "g.csv"
    _write_grid(path, 0, [1.0, 3.0, 6.0])
    args = ["apply", "--op", "nabla", "--input", str(path), "--format", "json"]
    result = runner.invoke(main, args + ["--nu", "7"])
    assert result.exit_code == 2
    assert "--nu" in result.output
    assert "operator_result" not in result.output
    plain = runner.invoke(main, args)
    assert plain.exit_code == 0
    assert json.loads(plain.output)["nu"] is None


def test_apply_lists_its_operators_in_order(runner, tmp_path):
    path = tmp_path / "g.csv"
    _write_grid(path, 0, [1.0, 3.0, 6.0])
    result = runner.invoke(main, ["apply", "--op", "diff", "--nu", "0.5", "--input", str(path)])
    assert result.exit_code == 2
    assert "'diff' is not one of 'sum', 'diff-direct', 'diff-composed', 'nabla'" in result.output


def test_apply_output_reingests(runner, tmp_path):
    src = tmp_path / "src.csv"
    mid = tmp_path / "mid.csv"
    out = tmp_path / "out.csv"
    _write_grid(src, 1, np.arange(1.0, 9.0))
    r1 = runner.invoke(
        main, ["apply", "--op", "sum", "--nu", "0.5", "--input", str(src), "-o", str(mid)]
    )
    assert r1.exit_code == 0
    # the emitted file, base comment included, is valid apply input
    r2 = runner.invoke(main, ["apply", "--op", "nabla", "--input", str(mid), "-o", str(out)])
    assert r2.exit_code == 0
    with open(out) as stream:
        g = read_grid_csv(stream)
    assert g.base == 1


def test_apply_direct_and_composed_agree_below_order_one(runner, tmp_path):
    path = tmp_path / "u.csv"
    rng = np.random.default_rng(13)
    _write_grid(path, 1, rng.uniform(-2.0, 2.0, 30))
    outs = []
    for op in ("diff-direct", "diff-composed"):
        out = tmp_path / f"{op}.csv"
        result = runner.invoke(
            main, ["apply", "--op", op, "--nu", "0.5", "--input", str(path), "-o", str(out)]
        )
        assert result.exit_code == 0
        with open(out) as stream:
            outs.append(read_grid_csv(stream))
    assert outs[0].base == outs[1].base
    assert float(np.max(np.abs(outs[0].values - outs[1].values))) < 1e-10


def test_apply_json_document(runner, tmp_path):
    path = tmp_path / "u.csv"
    _write_grid(path, 1, [1.0, 2.0])
    result = runner.invoke(
        main,
        ["apply", "--op", "diff-direct", "--nu", "0.5", "--input", str(path), "--format", "json"],
    )
    doc = json.loads(result.output)
    assert doc["kind"] == "operator_result"
    assert doc["base"] == 1
    assert doc["index"] == [1, 2]
    assert doc["value"][0] == 1.0


def test_apply_parameter_errors(runner, tmp_path):
    path = tmp_path / "u.csv"
    _write_grid(path, 1, [1.0, 2.0, 3.0])
    assert runner.invoke(main, ["apply", "--op", "sum", "--input", str(path)]).exit_code == 2
    assert (
        runner.invoke(
            main, ["apply", "--op", "sum", "--nu", "-1", "--input", str(path)]
        ).exit_code
        == 2
    )
    assert (
        runner.invoke(
            main, ["apply", "--op", "diff-direct", "--nu", "2", "--input", str(path)]
        ).exit_code
        == 2
    )


def test_apply_integer_direct_order_names_the_forms(runner, tmp_path):
    path = tmp_path / "u.csv"
    _write_grid(path, 1, [1.0, 2.0, 3.0])
    result = runner.invoke(
        main, ["apply", "--op", "diff-direct", "--nu", "2", "--input", str(path)]
    )
    assert result.exit_code == 2
    assert "composed form or the classical difference" in result.output
    library_names = [
        name
        for name in dir(nablafrac)
        if not name.startswith("_") and callable(getattr(nablafrac, name))
    ]
    assert [name for name in library_names if name in result.output] == []


def test_apply_short_input_exits_3(runner, tmp_path):
    path = tmp_path / "short.csv"
    _write_grid(path, 1, [1.0, 2.0])
    result = runner.invoke(
        main, ["apply", "--op", "diff-composed", "--nu", "2.7", "--input", str(path)]
    )
    assert result.exit_code == 3


def test_apply_malformed_csv_exits_2_with_line(runner, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,value\n1,2\nbad,3\n")
    result = runner.invoke(main, ["apply", "--op", "nabla", "--input", str(path)])
    assert result.exit_code == 2
    assert "line 3" in result.output


@pytest.mark.parametrize(
    "op, rows, t",
    [
        (["--op", "nabla"], [1.0, 1e308, -1e308], 3),
        (["--op", "diff-direct", "--nu", "1.5"], [1.0, 1e308, -1e308], 3),
        (["--op", "diff-composed", "--nu", "1.5"], [1.0, 1e308, -1e308], 3),
        (["--op", "sum", "--nu", "1.5"], [1e308, 1e308], 2),
    ],
    ids=["nabla", "diff-direct", "diff-composed", "sum"],
)
def test_apply_overflow_exits_5_with_the_point(runner, tmp_path, op, rows, t):
    path = tmp_path / "big.csv"
    _write_grid(path, 1, rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["apply", *op, "--input", str(path)])
    assert [str(w.message) for w in caught] == []
    assert result.exit_code == 5
    assert f"diverged at t = {t}:" in result.output


# --- solve --------------------------------------------------------------


def test_solve_zero_coefficient_traces_the_envelope(runner):
    result = runner.invoke(main, ["solve", "--nu", "0.5", "--c", "0", "--n-max", "6"])
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0] == "n,t,u,residual,envelope"
    assert len(lines) == 8
    for line in lines[1:]:
        _, _, u, residual, envelope = line.split(",")
        assert float(u) == pytest.approx(float(envelope), rel=1e-12)
        assert abs(float(residual)) < 1e-12


def test_solve_output_is_deterministic(runner, tmp_path):
    args = ["solve", "--nu", "0.5", "--c", "-0.3", "--n-max", "50"]
    first = runner.invoke(main, args + ["-o", str(tmp_path / "a.csv")])
    second = runner.invoke(main, args + ["-o", str(tmp_path / "b.csv")])
    assert first.exit_code == second.exit_code == 0
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


def test_solve_coefficient_csv_matches_constant(runner, tmp_path):
    coeffs = tmp_path / "c.csv"
    _write_grid(coeffs, 1, np.full(40, -0.3))
    out_const = tmp_path / "const.csv"
    out_file = tmp_path / "file.csv"
    base_args = ["solve", "--nu", "0.5", "--n-max", "40"]
    assert runner.invoke(main, base_args + ["--c", "-0.3", "-o", str(out_const)]).exit_code == 0
    assert runner.invoke(main, base_args + ["--c", str(coeffs), "-o", str(out_file)]).exit_code == 0
    assert out_const.read_text() == out_file.read_text()


def test_grid_csv_with_a_byte_order_mark_reads_as_without(runner, tmp_path):
    # a spreadsheet's "CSV UTF-8" export starts with U+FEFF
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    _write_grid(plain, 1, np.linspace(-0.5, 0.1, 40))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for argv in (["apply", "--op", "sum", "--nu", "0.5", "--input"], ["solve", "--nu", "0.5", "--n-max", "40", "--c"]):
        want = runner.invoke(main, argv + [str(plain)])
        got = runner.invoke(main, argv + [str(marked)])
        assert want.exit_code == got.exit_code == 0, got.output
        assert got.output == want.output


def test_solve_coefficient_csv_alignment_errors(runner, tmp_path):
    wrong_base = tmp_path / "c0.csv"
    _write_grid(wrong_base, 0, np.full(40, -0.3))
    result = runner.invoke(
        main, ["solve", "--nu", "0.5", "--c", str(wrong_base), "--n-max", "40"]
    )
    assert result.exit_code == 2
    assert "base+1" in result.output

    short = tmp_path / "cshort.csv"
    _write_grid(short, 1, np.full(5, -0.3))
    result = runner.invoke(main, ["solve", "--nu", "0.5", "--c", str(short), "--n-max", "40"])
    assert result.exit_code == 2


def test_malformed_coefficient_csv_exits_2_with_line(runner, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,value\n1,0.1\nx,2\n")
    for command in ("solve", "compare"):
        result = runner.invoke(main, [command, "--nu", "0.5", "--c", str(path)])
        assert result.exit_code == 2, (command, result.output)
        assert f"{path}: line 3" in result.output


def test_solve_unknown_coefficient_spec(runner, tmp_path):
    result = runner.invoke(
        main, ["solve", "--nu", "0.5", "--c", str(tmp_path / "missing.csv")]
    )
    assert result.exit_code == 2
    for preset in COEFFICIENT_PRESETS:
        assert preset in result.output


def test_solve_first_order_preset_oscillates(runner):
    result = runner.invoke(
        main,
        ["solve", "--c", "demo-oscillation", "--form", "on_u_t", "--order", "1", "--n-max", "6"],
    )
    assert result.exit_code == 0
    us = [float(line.split(",")[2]) for line in result.output.strip().split("\n")[1:]]
    assert us == [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0]


def test_solve_json_metadata(runner):
    result = runner.invoke(
        main,
        ["solve", "--nu", "0.5", "--c", "demo-constant", "--n-max", "4", "--format", "json"],
    )
    doc = json.loads(result.output)
    assert doc["kind"] == "solution_trace"
    assert doc["coefficients"] == "demo-constant"
    assert doc["order"] == "frac"
    assert doc["u0"] == 1.0
    assert len(doc["u"]) == 5
    assert doc["envelope"] is not None

    first = runner.invoke(
        main, ["solve", "--c", "0", "--order", "1", "--n-max", "3", "--format", "json"]
    )
    assert json.loads(first.output)["envelope"] is None


@pytest.mark.parametrize("base", [9223372036854775800, 10**20])
def test_solve_json_axes_hold_any_base(runner, base):
    # past the int64 range the axes neither wrap nor raise, as in the CSV
    args = ["solve", "--nu", "0.5", "--c", "-0.3", "--n-max", "10", "--base", str(base)]
    csv = runner.invoke(main, args)
    doc = runner.invoke(main, args + ["--format", "json"])
    assert csv.exit_code == doc.exit_code == 0
    ts = [int(line.split(",")[1]) for line in csv.output.strip().split("\n")[1:]]
    assert json.loads(doc.output)["t"] == ts == list(range(base, base + 11))


def test_solve_singular_step_exits_4(runner):
    args = ["solve", "--c", "1.0", "--form", "on_u_t", "--n-max", "5"]
    assert runner.invoke(main, args + ["--order", "1"]).exit_code == 4
    assert runner.invoke(main, args + ["--nu", "0.5"]).exit_code == 4


def test_solve_divergence_exits_5_with_the_step(runner):
    solve = runner.invoke(main, ["solve", "--nu", "0.1", "--c", "-2", "--n-max", "2000"])
    assert solve.exit_code == 5
    assert "diverged at t = 1090" in solve.output
    compare = runner.invoke(main, ["compare", "--nu", "0.1", "--c", "-2", "--n-max", "2000"])
    assert compare.exit_code == 5


def test_solve_parameter_errors(runner):
    assert runner.invoke(main, ["solve", "--c", "0"]).exit_code == 2  # missing --nu
    assert runner.invoke(main, ["solve", "--nu", "1.5", "--c", "0"]).exit_code == 2
    assert runner.invoke(main, ["solve", "--nu", "0.5", "--c", "0", "--n-max", "0"]).exit_code == 2
    assert runner.invoke(main, ["solve", "--nu", "0.5", "--c", "inf"]).exit_code == 2


def test_solve_first_order_checks_nu(runner):
    args = ["solve", "--c", "-0.5", "--order", "1", "--n-max", "3"]
    result = runner.invoke(main, args + ["--nu", "7"])
    assert result.exit_code == 2
    assert "order must lie strictly in (0, 1), got 7.0" in result.output
    # an in-range --nu is checked and otherwise unused by the first-order solve
    assert runner.invoke(main, args + ["--nu", "0.5"]).output == runner.invoke(main, args).output


def test_n_max_errors_name_the_option(runner):
    cases = [
        (["monomial", "--mu", "0.5", "--n-max", "-1"], "-1 is not in the range x>=0"),
        (["solve", "--nu", "0.5", "--c", "0", "--n-max", "0"], "0 is not in the range x>=1"),
        (["compare", "--nu", "0.5", "--c", "0", "--n-max", "19"], "19 is not in the range x>=20"),
        (["scan", "--n-max", "5"], "5 is not in the range x>=20"),
    ]
    for args, message in cases:
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert f"Invalid value for '--n-max': {message}" in result.output


# --- compare ------------------------------------------------------------


def test_compare_writes_traces_and_verdict(runner, tmp_path):
    out = tmp_path / "traces.csv"
    verdict = tmp_path / "verdict.json"
    result = runner.invoke(
        main,
        [
            "compare",
            "--nu", "0.5",
            "--c", "demo-constant",
            "--n-max", "600",
            "-o", str(out),
            "-v", str(verdict),
        ],
    )
    assert result.exit_code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,t,u_first_order,u_fractional"
    assert len(lines) == 602
    assert lines[1].startswith("0,0,1,1")
    doc = json.loads(verdict.read_text())
    assert doc["first_order"] == "bounded_nonvanishing"
    assert doc["fractional"] == "tends_to_zero"


def test_compare_oscillation_preset(runner, tmp_path):
    verdict = tmp_path / "verdict.json"
    result = runner.invoke(
        main,
        [
            "compare",
            "--nu", "0.5",
            "--c", "demo-oscillation",
            "--form", "on_u_t",
            "--n-max", "600",
            "-o", str(tmp_path / "t.csv"),
            "-v", str(verdict),
        ],
    )
    assert result.exit_code == 0
    doc = json.loads(verdict.read_text())
    assert doc["first_order"] == "bounded_nonvanishing"
    assert doc["fractional"] == "tends_to_zero"
    assert doc["form"] == "on_u_t"


def test_compare_rejects_a_bad_order_before_solving(runner):
    # c = 1 makes the on_u_t first-order step singular (exit 4); the order
    # is checked first
    result = runner.invoke(main, ["compare", "--nu", "1.5", "--c", "1", "--form", "on_u_t"])
    assert result.exit_code == 2
    assert "order must lie strictly in (0, 1)" in result.output


def test_compare_rejects_tiny_horizons(runner):
    assert runner.invoke(main, ["compare", "--nu", "0.5", "--c", "0", "--n-max", "10"]).exit_code == 2


# --- scan ---------------------------------------------------------------


def test_scan_output_and_region(runner):
    result = runner.invoke(
        main,
        ["scan", "--nu-grid", "0.3,0.5", "--c-grid", "-0.5,0,0.4", "--n-max", "400"],
    )
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0] == "nu,c,decay_class,tail_stat"
    assert len(lines) == 7
    # row-major: the first three rows belong to nu = 0.3
    assert all(line.startswith("0.3,") for line in lines[1:4])
    for line in lines[1:]:
        nu, c, decay_class, _ = line.split(",")
        if -2.0 * float(nu) <= float(c) <= 0.0:
            assert decay_class == "tends_to_zero"


def test_scan_colon_axis_spec(runner):
    result = runner.invoke(
        main, ["scan", "--nu-grid", "0.5:0.9:0.2", "--c-grid", "-0.5", "--n-max", "200"]
    )
    assert result.exit_code == 0
    nus = [line.split(",")[0] for line in result.output.strip().split("\n")[1:]]
    assert nus == ["0.5", "0.7", "0.9"]


def test_scan_parameter_errors(runner):
    assert runner.invoke(main, ["scan", "--nu-grid", "0.5,1.0"]).exit_code == 2
    assert runner.invoke(main, ["scan", "--c-grid", "0:1"]).exit_code == 2
    assert runner.invoke(main, ["scan", "--c-grid", "0:1:-0.5"]).exit_code == 2
    result = runner.invoke(main, ["scan", "--c-grid", "1:0:0.5"])
    assert result.exit_code == 2 and "stop lies before start" in result.output
    assert runner.invoke(main, ["scan", "--c-grid", "a,b"]).exit_code == 2
    assert runner.invoke(main, ["scan", "--n-max", "5"]).exit_code == 2


def test_scan_rejects_infinite_range_parts(runner):
    # a range part or step count that is not finite once ended in an
    # OverflowError traceback from the step count
    for spec in ["0:inf:1", "-inf:0:1", "0:1:inf", "0:1:nan", "-1e308:1e308:1e-300"]:
        result = runner.invoke(main, ["scan", "--c-grid", spec, "--nu-grid", "0.5", "--n-max", "20"])
        assert result.exit_code == 2, spec
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"--c-grid spec '{spec}'" in result.output
        assert "must be finite" in result.output
    result = runner.invoke(main, ["scan", "--nu-grid", "0.1:inf:0.1", "--n-max", "20"])
    assert result.exit_code == 2
    assert "--nu-grid spec" in result.output


_HUGE = "1000000000000000"


@pytest.mark.parametrize(
    "argv",
    [
        ["monomial", "--mu", "0.5", "--n-max", _HUGE],
        ["solve", "--nu", "0.5", "--c", "-0.5", "--n-max", _HUGE],
        ["solve", "--order", "1", "--c", "-0.5", "--n-max", _HUGE],
        ["compare", "--nu", "0.5", "--c", "-0.5", "--n-max", _HUGE],
        # the scan once checked every entry of its broadcast batch first,
        # which did not end, before it allocated anything
        ["scan", "--nu-grid", "0.5", "--c-grid", "-0.5", "--n-max", _HUGE],
        # a range axis once became a list over range(10**300)
        ["scan", "--c-grid", "0:1:1e-300"],
    ],
    ids=["monomial", "solve", "solve-order-1", "compare", "scan-n-max", "scan-axis"],
)
def test_sizes_that_cannot_be_allocated_exit_2(runner, argv):
    # they once ended in a NumPy MemoryError traceback, or did not end
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Error:" in result.output and "Traceback" not in result.output


def test_non_finite_initial_values_are_invalid(runner):
    # they used to step into a non-finite u(0) and exit 5 as a divergence
    cases = [
        ["solve", "--nu", "0.5", "--c", "-0.3", "--u0", "nan"],
        ["solve", "--nu", "0.5", "--c", "-0.3", "--u0", "inf"],
        ["solve", "--c", "-0.3", "--order", "1", "--u0", "-inf"],
        ["compare", "--nu", "0.5", "--c", "-0.3", "--u0", "nan"],
    ]
    for args in cases:
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "u0 must be finite" in result.output
    for nan in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="u0 must be finite"):
            nablafrac.solve_lagged(-0.3, 0.5, nan, 10)
        with pytest.raises(ValueError, match="u0 must be finite"):
            nablafrac.solve_first_order(-0.3, "on_u_lag", nan, 10)


def test_unwritable_output_paths_exit_2_naming_the_path(runner, tmp_path):
    grid = tmp_path / "g.csv"
    _write_grid(grid, 1, [1.0, 2.0, 3.0])
    missing = str(tmp_path / "missing" / "x.csv")
    ok = str(tmp_path / "ok.csv")
    cases = [
        ["monomial", "--mu", "0.5", "--n-max", "3", "-o", missing],
        ["apply", "--op", "sum", "--nu", "0.5", "--input", str(grid), "-o", missing],
        ["solve", "--nu", "0.5", "--c", "-0.3", "--n-max", "30", "-o", missing],
        ["compare", "--nu", "0.5", "--c", "-0.3", "--n-max", "30", "-o", missing],
        ["compare", "--nu", "0.5", "--c", "-0.3", "--n-max", "30", "-o", ok, "-v", missing],
        ["scan", "--nu-grid", "0.5", "--c-grid", "-0.5", "--n-max", "20", "-o", missing],
    ]
    for args in cases:
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"cannot write {missing}" in result.output
    # a command that fails before its output still creates no file
    out = tmp_path / "never.csv"
    result = runner.invoke(main, ["solve", "--nu", "0.1", "--c", "-2", "--n-max", "2000", "-o", str(out)])
    assert result.exit_code == 5
    assert not out.exists()


def test_compare_opens_both_outputs_before_writing_either(runner, tmp_path):
    # an unwritable verdict path once left the traces CSV behind: now neither
    # output is written, an existing one keeps its bytes and a new one is
    # not created
    missing = str(tmp_path / "missing" / "v.json")
    args = ["compare", "--nu", "0.5", "--c", "-0.3", "--n-max", "30", "-v", missing]
    existing = tmp_path / "traces.csv"
    existing.write_bytes(b"kept,bytes\n1,2\n")
    result = runner.invoke(main, args + ["-o", str(existing)])
    assert result.exit_code == 2
    assert f"cannot write {missing}" in result.output
    assert existing.read_bytes() == b"kept,bytes\n1,2\n"
    new = tmp_path / "new.csv"
    result = runner.invoke(main, args + ["-o", str(new)])
    assert result.exit_code == 2
    assert f"cannot write {missing}" in result.output
    assert not new.exists()
    # a good pair of paths overwrites the existing file in full
    plain = args[:-2]
    result = runner.invoke(main, plain + ["-o", str(existing), "-v", str(tmp_path / "v.json")])
    assert result.exit_code == 0
    assert existing.read_text().startswith("n,t,u_first_order,u_fractional\n0,0,1,1\n")
    assert json.loads((tmp_path / "v.json").read_text())["kind"] == "comparison_verdict"
    # one path for both holds the table, then the verdict, as stdout does
    both = str(tmp_path / "both.txt")
    assert runner.invoke(main, plain + ["-o", both, "-v", both]).exit_code == 0
    assert open(both).read() == runner.invoke(main, plain).output


# --- exact bytes ----------------------------------------------------------

# exact output text, so that any change to a CSV or JSON layout shows here;
# compare and scan need n-max >= 20 for classification
_PINNED_OUTPUTS = [
    (
        ["monomial", "--mu", "0.5", "--n-max", "3", "--format", "json"],
        """\
{
  "kind": "monomial_sequence",
  "mu": 0.5,
  "n": [
    0,
    1,
    2,
    3
  ],
  "value": [
    0.0,
    1.0,
    1.5,
    1.875
  ]
}
""",
    ),
    (
        ["apply", "--op", "diff-direct", "--nu", "0.5", "--input", "INPUT", "--format", "json"],
        """\
{
  "kind": "operator_result",
  "op": "diff-direct",
  "nu": 0.5,
  "base": 1,
  "index": [
    1,
    2,
    3
  ],
  "value": [
    1.0,
    1.5,
    1.875
  ]
}
""",
    ),
    (
        ["apply", "--op", "sum", "--nu", "0.5", "--input", "INPUT"],
        """\
# base=0
index,value
0,0
1,1
2,2.5
3,4.375
""",
    ),
    (
        ["solve", "--nu", "0.5", "--c", "0", "--n-max", "3", "--format", "json"],
        """\
{
  "kind": "solution_trace",
  "base": 0,
  "nu": 0.5,
  "n": [
    0,
    1,
    2,
    3
  ],
  "t": [
    0,
    1,
    2,
    3
  ],
  "u": [
    1.0,
    0.5,
    0.375,
    0.3125
  ],
  "residual": [
    0.0,
    0.0,
    0.0,
    0.0
  ],
  "envelope": [
    1.0,
    0.5,
    0.375,
    0.3125
  ],
  "u0": 1.0,
  "coefficients": "0",
  "form": "on_u_lag",
  "order": "frac"
}
""",
    ),
    (
        ["solve", "--c", "-0.5", "--order", "1", "--n-max", "3"],
        """\
n,t,u,residual,envelope
0,0,1,0,nan
1,1,0.5,0,nan
2,2,0.25,0,nan
3,3,0.125,0,nan
""",
    ),
    (
        ["compare", "--nu", "0.5", "--c", "demo-constant", "--n-max", "20"],
        """\
n,t,u_first_order,u_fractional
0,0,1,1
1,1,1,0.5
2,2,1,0.375
3,3,1,0.3125
4,4,1,0.2734375
5,5,1,0.24609375
6,6,1,0.2255859375
7,7,1,0.20947265625
8,8,1,0.196380615234375
9,9,1,0.1854705810546875
10,10,1,0.17619705200195312
11,11,1,0.16818809509277344
12,12,1,0.16118025779724121
13,13,1,0.15498101711273193
14,14,1,0.14944598078727722
15,15,1,0.14446444809436798
16,16,1,0.13994993409141898
17,17,1,0.13583375955931842
18,18,1,0.13206059957155958
19,19,1,0.12858532063546591
20,20,1,0.12537068761957926
{
  "kind": "comparison_verdict",
  "nu": 0.5,
  "form": "on_u_lag",
  "first_order": "bounded_nonvanishing",
  "fractional": "bounded_nonvanishing",
  "first_order_tail": 0.0,
  "fractional_tail": -0.4935890409572688
}
""",
    ),
    (
        ["compare", "--nu", "0.5", "--c", "demo-oscillation", "--form", "on_u_t", "--n-max", "20"],
        """\
n,t,u_first_order,u_fractional
0,0,1,1
1,1,-1,-0.5
2,2,1,0.125
3,3,-1,-0.0625
4,4,1,0.0078125
5,5,-1,-0.01171875
6,6,1,-0.0029296875
7,7,-1,-0.00439453125
8,8,1,-0.002899169921875
9,9,-1,-0.0026702880859375
10,10,1,-0.002201080322265625
11,11,-1,-0.0019359588623046875
12,12,1,-0.0016906261444091797
13,13,-1,-0.0015028715133666992
14,14,1,-0.0013440549373626709
15,15,-1,-0.0012124925851821899
16,16,1,-0.0011006738059222698
17,17,-1,-0.0010051669087260962
18,18,1,-0.00092266435967758298
19,19,-1,-0.00085087152547203004
20,20,1,-0.00078792049680487253
{
  "kind": "comparison_verdict",
  "nu": 0.5,
  "form": "on_u_t",
  "first_order": "bounded_nonvanishing",
  "fractional": "tends_to_zero",
  "first_order_tail": 0.0,
  "fractional_tail": -1.4985186039006038
}
""",
    ),
    (
        ["scan", "--nu-grid", "0.3,0.6", "--c-grid", "-0.5,0.1", "--n-max", "20"],
        """\
nu,c,decay_class,tail_stat
0.3,-0.5,tends_to_zero,-1.0121797910390193
0.3,0.1,tends_to_zero,-0.52069084316271574
0.6,-0.5,tends_to_zero,-1.4325773272870415
0.6,0.1,bounded_nonvanishing,0.29979734477627679
""",
    ),
]


@pytest.mark.parametrize(
    "argv, expected",
    _PINNED_OUTPUTS,
    ids=["monomial-json", "apply-json", "apply-csv", "solve-json", "solve-first-order-csv",
         "compare", "compare-on-u-t", "scan"],
)
def test_outputs_are_pinned_byte_for_byte(runner, tmp_path, argv, expected):
    path = tmp_path / "u.csv"
    _write_grid(path, 1, [1.0, 2.0, 3.0])
    result = runner.invoke(main, [str(path) if arg == "INPUT" else arg for arg in argv])
    assert result.exit_code == 0
    assert result.output == expected


def test_every_option_has_help_text(runner):
    missing = [
        f"{command.name} {option.opts[0]}"
        for command in (main, *main.commands.values())
        for option in command.params
        if isinstance(option, click.Option) and not option.help
    ]
    assert missing == []
    for name in main.commands:
        result = runner.invoke(main, [name, "--help"])
        assert result.exit_code == 0 and "--output" in result.output


def test_version_flag(runner):
    assert runner.invoke(main, ["--version"]).exit_code == 0
