"""CSV and JSON writers: byte for byte against the per-value writers they replaced."""

import io
import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import nablafrac.cli
import nablafrac.formats
from nablafrac.cli import main
from nablafrac.formats import _CHUNK, write_document, write_table


def _table_oracle(stream, header, *columns):
    """One row at a time: format(v, ".17g") for array columns, str for the rest."""
    cells = [
        (format(v, ".17g") for v in col.tolist()) if isinstance(col, np.ndarray) else map(str, col)
        for col in columns
    ]
    stream.write(header + "\n")
    stream.writelines(",".join(row) + "\n" for row in zip(*cells))


def _document_oracle(stream, kind, **fields):
    """json.dump with indent 2 and a trailing newline."""
    lists = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in fields.items()}
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
def test_write_table_matches_the_row_writer(columns, header):
    _assert_same(_text(write_table, header, *columns), _text(_table_oracle, header, *columns))


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
