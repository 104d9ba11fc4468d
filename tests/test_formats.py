"""CSV and JSON writers byte for byte against the per-value writers they replaced, and the
grid CSV reader against a row-by-row parser."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import nablafrac.cli
import nablafrac.formats
from nablafrac.cli import main
from nablafrac.formats import (
    _CHUNK,
    GridCsvError,
    read_grid_csv,
    write_document,
    write_report_json,
    write_table,
    write_trace_json,
)
from nablafrac.grid import GridFunction
from nablafrac.solver import solve_lagged
from nablafrac.stability import bound_check, compare_orders


def _table_oracle(stream, header, *columns):
    """One row at a time: format(v, ".17g") for array columns, str for the rest."""
    cells = [
        (format(v, ".17g") for v in col.tolist()) if isinstance(col, np.ndarray) else map(str, col)
        for col in columns
    ]
    stream.write(header + "\n")
    stream.writelines(",".join(row) + "\n" for row in zip(*cells))


def _document_oracle(stream, kind, **fields):
    """json.dump with indent 2 and a trailing newline; arrays and ranges as lists."""
    lists = {
        k: v.tolist() if isinstance(v, np.ndarray) else list(v) if isinstance(v, range) else v
        for k, v in fields.items()
    }
    json.dump({"kind": kind, **lists}, stream, indent=2)
    stream.write("\n")


def _assert_same(new, old):
    """Fail with the first differing lines; pytest's full diff of long texts takes minutes."""
    if new != old:
        pairs = zip(new.splitlines(True), old.splitlines(True))
        first = next((pair for pair in pairs if pair[0] != pair[1]), (len(new), len(old)))
        pytest.fail(f"first difference (new, old): {first!r}")


def _text(writer, *args, **kwargs):
    stream = io.StringIO()
    writer(stream, *args, **kwargs)
    return stream.getvalue()


_SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1.7976931348623157e308]
floats = st.floats() | st.sampled_from(_SPECIAL)
ints = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([2**53 + 1, 2**62 + 3, -(2**60) - 1])
texts = st.text(max_size=8) | st.sampled_from(["é", "☃", "naïve,ok", "\x00\t\"", "𝜈"])
# row and item counts around the chunk edges, and a few small ones
counts = st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1]) | st.integers(0, 40)


def _column(draw, kind, n):
    """A column of n entries, tiled from a small drawn pool."""
    if kind == "range":
        start = draw(st.integers(-(2**70), 2**70))
        return range(start, start + n)
    element = {"float": floats, "bool": st.booleans(), "int": ints, "str": texts}[kind]
    pool = draw(st.lists(element, min_size=1, max_size=12))
    values = [pool[i % len(pool)] for i in range(n)]
    if kind == "str":
        return values
    if kind == "float" and draw(st.booleans()):
        return values  # a list of Python floats prints with str
    return np.array(values, dtype={"float": float, "bool": bool, "int": np.int64}[kind])


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(["float", "bool", "int", "str", "range"]), min_size=1, max_size=5))
    n = draw(counts)
    # one column may be shorter: rows stop at the shortest column
    lengths = [n] * len(kinds)
    if draw(st.booleans()):
        lengths[draw(st.integers(0, len(kinds) - 1))] = draw(counts)
    return [_column(draw, kind, m) for kind, m in zip(kinds, lengths)]


@st.composite
def documents(draw):
    scalars = st.none() | st.booleans() | ints | floats | texts
    fields = {}
    for i in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            fields[f"f{i}"] = draw(scalars)
        else:
            kind = draw(st.sampled_from(["float", "bool", "int", "str"]))
            column = _column(draw, kind, draw(counts))
            fields[f"f{i}" if draw(st.booleans()) else f"ключ{i}"] = (
                column.tolist() if draw(st.booleans()) and isinstance(column, np.ndarray) else column
            )
    return draw(texts), fields


@settings(max_examples=60, deadline=None)
@given(columns=tables(), header=texts)
# a non-ASCII str column, int64s that print through float, a range past 17 digits
@example(columns=[["é", "☃", "𝜈"], np.array([0.5, 2.0, -1e-300])], header="h")
@example(columns=[np.array([2**53 + 1, -(2**63)], dtype=np.int64)], header="h")
@example(columns=[range(10**20, 10**20 + 3), np.array([1.0, 2.0, 3.0])], header="h")
def test_write_table_matches_the_row_writer(columns, header):
    _assert_same(_text(write_table, header, *columns), _text(_table_oracle, header, *columns))


# --- the 17-digit float formatter ---------------------------------------------


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_any_bit_pattern_prints_as_percent_17g(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    _assert_same(_text(write_table, "x", values), _text(_table_oracle, "x", values))


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_certified_digits_are_the_correctly_rounded_ones(bits):
    values = np.abs(np.array(bits, dtype=np.uint64).view(np.float64))
    values = values[np.isfinite(values) & (values > 0)]
    k, digits, certain = nablafrac.formats._decimal(values)
    for value, k, digits in zip(values[certain].tolist(), k[certain].tolist(), digits[certain].tolist()):
        # '%.16e' rounds to 17 significant digits exactly
        mantissa, exponent = ("%.16e" % value).split("e")
        assert (digits, k) == (int(mantissa.replace(".", "")), int(exponent))


def test_a_million_random_bit_patterns_print_as_percent_17g():
    values = np.random.default_rng(21).integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
    _assert_same(_text(write_table, "x", values), _text(_table_oracle, "x", values))


def test_powers_of_ten_their_neighbours_and_the_extremes_print_as_percent_17g():
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    extremes = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0, -0.0]
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), extremes])
    values = np.concatenate([values, -values, [np.nan, -np.nan, np.inf, -np.inf]])
    _assert_same(_text(write_table, "x", values), _text(_table_oracle, "x", values))


@pytest.mark.parametrize(
    "value, tie", [(1234567890123456.75, True), (2251799813685247.25, True), (0.5, False), (2.5e-8, False)]
)
def test_exact_ties_take_the_fallback(value, tie):
    # a tie's x·10^(16 - k) ends in exactly .5, which the certified path leaves to '%.17g'
    values = np.array([value, -value])
    k, digits, certain = nablafrac.formats._decimal(np.abs(values))
    assert certain.all() != tie
    _assert_same(_text(write_table, "x", values), _text(_table_oracle, "x", values))


# --- the shortest float formatter ---------------------------------------------


def _assert_json_same(**fields):
    _assert_same(_text(write_document, "k", **fields), _text(_document_oracle, "k", **fields))


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_any_bit_pattern_prints_as_float_repr(bits):
    _assert_json_same(x=np.array(bits, dtype=np.uint64).view(np.float64))


def test_a_million_random_bit_patterns_print_as_float_repr():
    _assert_json_same(x=np.random.default_rng(21).integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64))


def test_powers_their_neighbours_and_the_extremes_print_as_float_repr():
    # a power of two's interval is a quarter ulp below it; repr changes layout at 1e-4 and 1e16
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024), [float(f"1e{e}") for e in range(-323, 309)]])
    edges = [5e-324, 2.2250738585072014e-308, 1e-5, 1e-4, 1e15, 1e16, 1e17]
    values = np.concatenate([powers, edges])
    neighbours = [np.nextafter(values, 0), np.nextafter(values, np.inf), [1.7976931348623157e308]]
    values = np.concatenate([values, *neighbours])
    # integral values print with ".0" up to 1e16
    integral = np.concatenate([np.arange(-3000.0, 3000.0), 2.0**53 + np.arange(-8.0, 9.0), 1e15 + np.arange(-8, 9)])
    values = np.concatenate([values, -values, integral, [0.1, 1 / 3, 0.0, -0.0, np.nan, np.inf, -np.inf]])
    _assert_json_same(x=values)


@pytest.mark.parametrize(
    "value, fallback",
    [
        (9007199254740994.0, True),
        (2.0**-24, True),
        (1e23, True),
        (1234567890123456.75, True),
        (0.5, False),
        (0.1, False),
        (1 / 3, False),
        (2.5e-8, False),
    ],
)
def test_interval_ends_and_halfway_candidates_take_the_fallback(value, fallback):
    # the 16-digit candidate above 2^53 + 2 is its interval end, and 1e23 is one itself
    # (a tie between two float64s that Python reads as this one); 2^-24's 17 digits end
    # in a 5, halfway between two 16-digit candidates; 1234567890123456.75 is a 17-digit tie
    values = np.array([value, -value])
    k, digits, certain = nablafrac.formats._decimal(np.abs(values), shortest=True)
    assert certain.all() != fallback
    _assert_json_same(x=values)


def test_other_arrays_keep_their_json_text():
    # float32 and float16 items print as the float64 they convert to, integers
    # within 17 digits in NumPy, and bools and larger integers through the encoder
    arrays = dict(
        f32=np.array([0.1, 1 / 3, 1e-8, 3e38, -0.0, np.nan, np.inf], np.float32),
        f16=np.array([0.1, 65504, -2.5, 6e-8], np.float16),
        u64=np.array([0, 1, 2**63, 2**64 - 1, 10**17 - 1], np.uint64),
        u64_small=np.array([0, 7, 10**17 - 1], np.uint64),
        b=np.array([True, False, True]),
        i64=np.array([10**17 - 1, -(10**17) + 1, 10**17, -(2**63), 2**63 - 1], np.int64),
        i64_small=np.array([10**17 - 1, -(10**17) + 1, 0, -1, 9], np.int64),
        i8=np.array([-128, 0, 127], np.int8),
    )
    for n in (0, 1, _CHUNK + 1):
        _assert_json_same(**{key: np.resize(value, n) for key, value in arrays.items()})


def test_documents_take_numpy_scalars():
    # a NumPy order reaches the trace, the report and the verdict as it was
    # given; each is written as the Python scalar it holds
    nu = np.float32(0.5)
    texts = [
        _text(lambda stream: write_trace_json(solve_lagged(-0.1, nu, 1.0, 5), stream)),
        _text(lambda stream: write_report_json(bound_check(-0.1, nu, 20), stream)),
        _text(write_document, **compare_orders(0.0, nu, "on_u_lag", 1.0, 20).verdict()),
    ]
    assert [json.loads(text)["nu"] for text in texts] == [0.5, 0.5, 0.5]
    fields = dict(i=np.int64(-3), b=np.bool_(True), f=np.float32(0.1), x=np.longdouble(1) / 3)
    fields["arr"] = np.array([0.5, 1.0], np.longdouble)
    text = _text(write_document, "k", **fields)
    want = dict(i=-3, b=True, f=float(np.float32(0.1)), x=1 / 3, arr=[0.5, 1.0])
    _assert_same(text, _text(_document_oracle, "k", **want))
    assert json.loads(text) == {"kind": "k", **want}


def test_importing_the_cli_builds_no_table_and_loads_no_fractions():
    # the tables are built on first use, so the CLI's start-up does not pay for them
    code = (
        "import sys, nablafrac.cli, nablafrac.formats as f; "
        "print(f._tables.cache_info().currsize, 'fractions' in sys.modules, 'decimal' in sys.modules)"
    )
    src = str(Path(nablafrac.formats.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == ["0", "False", "False"], done.stderr


@settings(max_examples=60, deadline=None)
@given(document=documents())
def test_write_document_matches_json_dump(document):
    kind, fields = document
    _assert_same(_text(write_document, kind, **fields), _text(_document_oracle, kind, **fields))


def test_special_values_print_as_before():
    u = np.array(_SPECIAL + [True])
    big = np.array([2**53 + 1, -(2**63)], dtype=np.int64)
    for n in (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1):
        columns = (range(n), np.resize(u, n), [repr(x) for x in np.resize(u, n).tolist()], np.resize(big, n))
        _assert_same(_text(write_table, "a,b,c,d", *columns), _text(_table_oracle, "a,b,c,d", *columns))
        fields = dict(x=None, y="naïve ☃", z=2**70, u=np.resize(u, n), b=np.resize(u, n) > 0, i=np.resize(big, n))
        _assert_same(_text(write_document, "k", **fields), _text(_document_oracle, "k", **fields))
        # json.dump takes no range; the writer lays one out as its list
        _assert_same(_text(write_document, "k", r=range(-3, n)), _text(_document_oracle, "k", r=list(range(-3, n))))


@pytest.mark.parametrize(
    "value", [[[1.0, 2.0]], [1.0, (2.0, 3.0)], [{"a": 1}], {"a": 1}, (1, 2), np.zeros((2, 2))]
)
def test_nested_values_raise_type_error(value):
    # the writer lays out flat documents only; anything nested would come out
    # in another layout than json.dump(indent=2), so it is refused
    with pytest.raises(TypeError):
        write_document(io.StringIO(), "k", values=value)
    with pytest.raises(TypeError):
        write_document(io.StringIO(), "k", ok=[1.0] * (_CHUNK + 1), values=value)


# --- CLI outputs at the README horizon --------------------------------------


def _outputs(tmp_path, argv, tag):
    paths = [tmp_path / f"{tag}.out", tmp_path / f"{tag}.verdict"]
    argv = [str(paths[0]) if a == "OUT" else str(paths[1]) if a == "VERDICT" else a for a in argv]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output
    return [path.read_bytes() for path in paths if path.exists()]


_CLI_CASES = {
    "solve-csv": ["solve", "--nu", "0.6", "--c", "-0.3", "--n-max", "5000", "-o", "OUT"],
    "solve-json": ["solve", "--nu", "0.6", "--c", "-0.3", "--n-max", "5000", "--format", "json", "-o", "OUT"],
    "solve-first-order-csv": ["solve", "--c", "-0.5", "--order", "1", "--n-max", "5000", "-o", "OUT"],
    "solve-first-order-json": [
        "solve", "--c", "-0.5", "--order", "1", "--n-max", "5000", "--format", "json", "-o", "OUT"
    ],
    "compare": ["compare", "--nu", "0.4", "--c", "-0.5", "--n-max", "5000", "-o", "OUT", "-v", "VERDICT"],
    "apply-csv": ["apply", "--op", "diff-direct", "--nu", "0.7", "--input", "INPUT", "-o", "OUT"],
    "apply-json": ["apply", "--op", "sum", "--nu", "1.5", "--input", "INPUT", "--format", "json", "-o", "OUT"],
    "monomial-json": ["monomial", "--mu", "0.5", "--n-max", "5000", "--format", "json", "-o", "OUT"],
    "scan": ["scan", "--nu-grid", "0.3,0.7", "--c-grid", "-1:0.2:0.3", "--n-max", "5000", "-o", "OUT"],
}


@pytest.mark.parametrize("argv", _CLI_CASES.values(), ids=_CLI_CASES.keys())
def test_cli_outputs_match_the_oracle_writers(tmp_path, monkeypatch, argv):
    grid = tmp_path / "input.csv"
    values = np.random.default_rng(5).uniform(-1.0, 1.0, size=5000)
    with open(grid, "w") as stream:
        _table_oracle(stream, "index,value", range(1, 5001), values)
    argv = [str(grid) if a == "INPUT" else a for a in argv]
    got = _outputs(tmp_path, argv, "new")
    # the CLI and the named writers call the oracles from here on
    for module in (nablafrac.formats, nablafrac.cli):
        monkeypatch.setattr(module, "write_table", _table_oracle)
        monkeypatch.setattr(module, "write_document", _document_oracle)
    want = _outputs(tmp_path, argv, "oracle")
    assert len(got) == len(want) >= 1
    for new, old in zip(got, want):
        _assert_same(new, old)


# --- grid CSV reader ----------------------------------------------------


def _read_rows(stream):
    """The reference reader: every line in order, converted by int() and float()."""
    header, indices, values = None, [], []
    for number, line in enumerate(stream.read().split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            if line.lower() != "index,value":
                raise GridCsvError(f"line {number}: expected header 'index,value', got {line!r}")
            header = line
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise GridCsvError(f"line {number}: expected 'index,value', got {line!r}")
        try:
            index = int(fields[0])
        except ValueError:
            raise GridCsvError(f"line {number}: index {fields[0]!r} is not an integer") from None
        try:
            value = float(fields[1])
        except ValueError:
            raise GridCsvError(f"line {number}: value {fields[1]!r} is not a number") from None
        if value != value or value in (float("inf"), float("-inf")):
            raise GridCsvError(f"line {number}: value {fields[1]!r} is not finite")
        if indices and index != indices[-1] + 1:
            raise GridCsvError(
                f"line {number}: index {index} breaks the consecutive run (expected {indices[-1] + 1})"
            )
        indices.append(index)
        values.append(value)
    if header is None:
        raise GridCsvError("line 1: missing 'index,value' header")
    if not values:
        raise GridCsvError("no data rows after the header")
    return GridFunction(indices[0], values)


def _outcome(read, text):
    try:
        grid = read(io.StringIO(text))
    except GridCsvError as exc:
        return "error", str(exc)
    return grid.base, grid.values.tobytes()


# whitespace that str.strip, int() and float() skip, some of which NumPy
# skips too; two are line breaks to str.splitlines but not to split("\n")
_PADDING = st.text(st.sampled_from(" \t\x0b\x0c\x85\xa0\u2028\u3000"), max_size=2)
# Arabic-Indic and fullwidth digits
_DIGITS = ["".join(map(chr, range(first, first + 10))) for first in (0x0660, 0xFF10)]
_GARBAGE = ["", "x", "1.5", "1e3", "0x1F", "1__0", "_1", "1_", "#", "nan#", "1 2", '"3"', "--1"]
# characters NumPy reads as blanks inside a field, and int() and float() refuse
_GARBAGE += ["\u0661x", "\x1c1", "1\x1f", "\u01fe1", "\u07611"]


def _respell(draw, text):
    """``text`` respelled as int() and float() still read it."""
    kind = draw(st.sampled_from(["plus", "underscore", "digits"]))
    if kind == "plus" and text[0] not in "+-":
        text = "+" + text
    elif kind == "underscore":
        # one separator between two digits
        spots = [i for i in range(1, len(text)) if text[i - 1].isdigit() and text[i].isdigit()]
        if spots:
            i = draw(st.sampled_from(spots))
            text = text[:i] + "_" + text[i:]
    elif kind == "digits":
        digits = draw(st.sampled_from(_DIGITS))
        text = "".join(digits[int(ch)] if ch.isdigit() else ch for ch in text)
    return draw(_PADDING) + text + draw(_PADDING)


_DEFECTS = ["index", "value", "nonfinite", "extra", "missing", "jump", "header", "hash", "cr"]


@st.composite
def grid_csv_texts(draw):
    """Grid CSV files in plain spellings that NumPy parses, or in the other
    spellings int() and float() take, half of them with one defect."""
    respelled = draw(st.booleans())
    defect = draw(st.sampled_from([None] * len(_DEFECTS) + _DEFECTS))
    filler = st.sampled_from(["", "# note", "#", "  ", "\t", " # indented", "\x0c", "\x1c"])
    lines = draw(st.lists(filler, max_size=3))
    header = draw(st.sampled_from(["index,value", "Index,Value", " INDEX,VALUE\t"]))
    if defect == "header":
        header = draw(st.sampled_from(["index;value", "i,v", "index,value,x"]))
    lines.append(header)
    # blank lines are all NumPy skips
    filler = filler if respelled else st.just("")
    big = 2**63 - 1
    near = st.integers(-50, 50)
    start = draw(near | near | st.integers(big - 5, big + 5) | st.integers(-big - 6, -big + 5))
    count = draw(st.integers(0 if defect else 1, 12))
    bad = draw(st.integers(0, max(count - 1, 0)))
    for k in range(count):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(filler))
        index = start + k + (draw(st.sampled_from([-1, 1, 2, -5])) if defect == "jump" and k >= bad else 0)
        value = draw(
            st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([0.0, -0.0, 5e-324, 1.5, -2.25, 1e300])
        )
        if respelled:
            index_text, value_text = _respell(draw, str(index)), _respell(draw, repr(value))
        else:
            pad = st.sampled_from(["", " ", "\t"])
            sign = draw(st.sampled_from(["", "+"])) if index >= 0 else ""
            index_text = draw(pad) + sign + str(index) + draw(pad)
            value_text = draw(pad) + repr(value) + draw(pad)
        if k == bad and defect == "index":
            index_text = draw(st.sampled_from(_GARBAGE))
        elif k == bad and defect == "value":
            value_text = draw(st.sampled_from(_GARBAGE))
        elif k == bad and defect == "nonfinite":
            value_text = draw(st.sampled_from(["nan", "inf", "-inf", "Infinity", " 1e400", "-nan"]))
        row = index_text + "," + value_text
        if k == bad and defect in ("extra", "missing", "hash", "cr"):
            row = {"extra": row + ",0", "missing": index_text, "hash": row + " #", "cr": row + "\r"}[defect]
        lines.append(row)
    lines += draw(st.lists(filler, max_size=2))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    # the last line's end is optional
    return text if draw(st.booleans()) else text[: -len(ends[-1])]


@settings(max_examples=200, deadline=None)
@given(text=grid_csv_texts())
def test_read_grid_csv_matches_the_row_by_row_reader(text):
    # the bulk parse and its fallback give the reference's GridFunction,
    # bit for bit, or its error message
    assert _outcome(read_grid_csv, text) == _outcome(_read_rows, text)


@pytest.mark.parametrize(
    "text",
    [
        # an int64 run that wraps: each difference is 1 modulo 2^64
        f"index,value\n{2**63 - 1},1\n{-(2**63)},2\n",
        "index,value\n1,2\n2,3",
        "index,value\n1,2\n2,-inf\n",
        "index,value\n1,2\r2,3\n",
        "index,value\n0,0.0\n1,\x1c1\n",
        "index,value\n\u01fe1,2\n",
        "index,value\n1,2\n\n   \n2,3\n",
        "index,value\n\n \n",
        "index,value",
    ],
)
def test_read_grid_csv_edge_cases_match_the_row_by_row_reader(text):
    assert _outcome(read_grid_csv, text) == _outcome(_read_rows, text)


def test_read_grid_csv_drops_one_leading_byte_order_mark(monkeypatch):
    # a spreadsheet's "CSV UTF-8" export starts with U+FEFF; the text after
    # it is still ASCII, so the bulk parse reads it, with no row-by-row pass
    text = "# note\nindex,value\n1,2.5\n2,-3\n"
    want = _outcome(read_grid_csv, text)
    monkeypatch.setattr(nablafrac.formats, "_parse_rows", None)
    assert _outcome(read_grid_csv, "\ufeff" + text) == want
    monkeypatch.undo()
    # only one leading mark is dropped, so a second one names the header
    assert _outcome(read_grid_csv, "\ufeff\ufeffindex,value\n1,2.5\n") == (
        "error", "line 1: expected header 'index,value', got '\\ufeffindex,value'"
    )
