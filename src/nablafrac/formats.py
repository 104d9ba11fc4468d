"""Readers and writers for every nablafrac document.

:func:`write_table` writes every CSV document: array columns print with 17
significant digits, so identical results give byte-identical files that parse
back losslessly, and other columns print with ``str`` (the scan passes its
axes as ``repr`` strings, so a requested nu of 0.3 reads back as ``0.3``).
:func:`write_document` writes every JSON document: ``kind`` first, arrays as
lists, indent 2 and a trailing newline, the layout of ``json.dump(indent=2)``.

Both format in bulk, one chunk of ``_CHUNK`` rows or list items at a time: a
CSV chunk is one ``%`` against a row template repeated per row (``'%.17g' % x``
is ``format(x, ".17g")``), and a JSON list chunk is one call of the C encoder
with the indented item separator.  Only one chunk's text is held at a time.
"""

from __future__ import annotations

import io
import json
import math
import warnings
from itertools import chain, islice
from typing import IO, Iterable, Sequence

import numpy as np

from .grid import GridFunction
from .solver import SolutionTrace
from .stability import ScanCell, StabilityReport, _none_if_nan

__all__ = [
    "GridCsvError",
    "dumps_fractions",
    "read_grid_csv",
    "write_document",
    "write_grid_csv",
    "write_report_json",
    "write_scan_csv",
    "write_table",
    "write_trace_csv",
    "write_trace_json",
]


class GridCsvError(ValueError):
    """A grid CSV stream is malformed; the message names the offending line."""


# rows of a CSV chunk, items of a JSON list chunk
_CHUNK = 1024
# the items of an indent-2 list one level down, as json.dump(indent=2) lays them out
_LIST_ENCODER = json.JSONEncoder(separators=(",\n    ", ": "))
# one parsed grid CSV row
_ROW = np.dtype([("index", np.int64), ("value", np.float64)])
# np.loadtxt reads the ASCII separators \x1c-\x1f, and many non-ASCII
# characters, as blanks inside a field, where int() and float() refuse them
_NOT_BULK = "#\x1c\x1d\x1e\x1f"


def write_table(stream: IO[str], header: str, *columns: Iterable) -> None:
    """Write a CSV document: the header line, then one row per column entry."""
    # rows stop at the shortest column; each chunk of rows is formatted by one
    # % against the flattened chunk, then written
    row = ",".join("%.17g" if isinstance(col, np.ndarray) else "%s" for col in columns) + "\n"
    rows = zip(*(col.tolist() if isinstance(col, np.ndarray) else col for col in columns))
    stream.write(header + "\n")
    while chunk := tuple(chain.from_iterable(islice(rows, _CHUNK))):
        stream.write(row * (len(chunk) // len(columns)) % chunk)


def _write_list(stream: IO[str], items) -> None:
    """Write a flat list, range or 1-D array as json.dump(indent=2) lays out a field's list."""
    if isinstance(items, np.ndarray) and items.ndim != 1:
        raise TypeError(f"write_document takes flat arrays, got shape {items.shape}")
    opening = "[\n    "
    for lo in range(0, len(items), _CHUNK):
        chunk = items[lo : lo + _CHUNK]
        chunk = chunk.tolist() if isinstance(chunk, np.ndarray) else list(chunk)
        if any(issubclass(t, (list, tuple, dict)) for t in set(map(type, chunk))):
            raise TypeError("write_document takes flat lists, got a nested value")
        stream.write(opening + _LIST_ENCODER.encode(chunk)[1:-1])
        opening = ",\n    "
    stream.write("[]" if opening == "[\n    " else "\n  ]")


def write_document(stream: IO[str], kind: str, **fields) -> None:
    """Write a JSON document: ``kind`` first, then the fields in order.

    Values are scalars, strings, None, or flat lists, ranges and 1-D arrays
    of them; a nested list or a dict raises ``TypeError``.
    """
    opening = "{\n  "
    for key, value in {"kind": kind, **fields}.items():
        stream.write(opening + json.dumps(key) + ": ")
        if isinstance(value, (list, range, np.ndarray)):
            _write_list(stream, value)
        elif isinstance(value, (tuple, dict)):
            raise TypeError(f"write_document takes flat fields, got {type(value).__name__} for {key!r}")
        else:
            stream.write(json.dumps(value))
        opening = ",\n  "
    stream.write("\n}\n")


def write_grid_csv(obj: GridFunction, stream: IO[str], *, record_base: bool = False) -> None:
    """Write ``index,value`` rows; optionally record the base in a comment line."""
    header = f"# base={obj.base}\nindex,value" if record_base else "index,value"
    write_table(stream, header, range(obj.base, obj.last + 1), obj.values)


def read_grid_csv(stream: IO[str]) -> GridFunction:
    """Parse ``index,value`` rows into a GridFunction.

    Comment lines starting with ``#`` and blank lines are skipped, so output
    of :func:`write_grid_csv` round-trips.  Indices must be consecutive and
    ascending; errors name the offending line number.

    After the header, the rows of an ASCII text are parsed in bulk by
    ``np.loadtxt`` into an int64 index and a float64 value, and checked by
    array comparisons: a non-empty body with no ``#`` and no separator
    character U+001C to U+001F, finite values and a consecutive index run.
    Anything NumPy rejects or the checks refuse goes to the row-by-row
    parse, which raises the error of the first bad row, or accepts what
    ``int`` and ``float`` read and NumPy does not: ``_`` digit separators,
    non-ASCII digits, whitespace-only lines and indices past int64.
    """
    text = stream.read()
    lines = io.StringIO(text)
    # the header is the first line that is neither blank nor a comment
    for number, line in enumerate(iter(lines.readline, ""), 1):
        header = line.strip()
        if header and header[0] != "#":
            break
    else:
        raise GridCsvError("line 1: missing 'index,value' header")
    if header.lower() != "index,value":
        raise GridCsvError(f"line {number}: expected header 'index,value', got {header!r}")
    start = lines.tell()
    if text.isascii() and all(text.find(c, start) < 0 for c in _NOT_BULK):
        try:
            # an empty body warns and gives no rows, which the checks refuse
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(lines, delimiter=",", comments=None, dtype=_ROW, ndmin=1)
        except ValueError:
            pass
        else:
            indices, values = rows["index"], rows["value"]
            # int64 differences wrap, so the run must also end above its start
            if (
                indices.size
                and np.isfinite(values).all()
                and (np.diff(indices) == 1).all()
                and indices[-1] >= indices[0]
            ):
                return GridFunction(int(indices[0]), values)
    lines.seek(start)
    return _parse_rows(lines, number + 1)


def _parse_rows(lines: Iterable[str], first: int) -> GridFunction:
    """The rows after the header, one at a time; ``first`` is the first line's number."""
    indices, values = [], []
    for number, line in enumerate(map(str.strip, lines), first):
        if line == "" or line[0] == "#":
            continue
        if line.count(",") != 1:
            raise GridCsvError(f"line {number}: expected 'index,value', got {line!r}")
        index_text, value_text = line.split(",")
        try:
            index = int(index_text)
        except ValueError:
            raise GridCsvError(f"line {number}: index {index_text!r} is not an integer") from None
        try:
            value = float(value_text)
        except ValueError:
            raise GridCsvError(f"line {number}: value {value_text!r} is not a number") from None
        if not math.isfinite(value):
            raise GridCsvError(f"line {number}: value {value_text!r} is not finite")
        if indices and index != indices[-1] + 1:
            expected = indices[-1] + 1
            raise GridCsvError(
                f"line {number}: index {index} breaks the consecutive run (expected {expected})"
            )
        indices.append(index)
        values.append(value)
    if not values:
        raise GridCsvError("no data rows after the header")
    return GridFunction(indices[0], values)


def write_trace_csv(trace: SolutionTrace, stream: IO[str]) -> None:
    """Write ``n,t,u,residual,envelope`` rows; first-order traces read ``nan`` as envelope."""
    n, t = range(len(trace)), range(trace.base, trace.base + len(trace))
    envelope = np.full(len(trace), np.nan) if trace.envelope is None else trace.envelope
    write_table(stream, "n,t,u,residual,envelope", n, t, trace.values, trace.residuals, envelope)


def write_trace_json(trace: SolutionTrace, stream: IO[str], **metadata) -> None:
    """Write the trace plus problem metadata as a JSON document."""
    fields = {
        "base": trace.base,
        "nu": trace.nu,
        "n": range(len(trace)),
        "t": range(trace.base, trace.base + len(trace)),
        "u": trace.values,
        "residual": trace.residuals,
        "envelope": trace.envelope,
    }
    write_document(stream, "solution_trace", **{**fields, **metadata})


def write_scan_csv(cells: Sequence[ScanCell], stream: IO[str]) -> None:
    """Write ``nu,c,decay_class,tail_stat`` rows, axes in ``repr`` form."""
    nus, cs = [repr(cell.nu) for cell in cells], [repr(cell.c) for cell in cells]
    classes = [cell.decay_class.value for cell in cells]
    tails = np.array([cell.tail_stat for cell in cells], dtype=float)
    write_table(stream, "nu,c,decay_class,tail_stat", nus, cs, classes, tails)


def write_report_json(report: StabilityReport, stream: IO[str]) -> None:
    """Write criterion, bound, and classification arrays as a JSON document."""
    fields = {
        "nu": report.nu,
        "base": report.base,
        "criterion_holds": report.criterion_holds,
        "bound_ok": report.bound_ok,
        "decay_class": report.decay_class.value,
        "tail_stat": _none_if_nan(report.tail_stat),
        "values": report.values,
        "envelope": report.envelope,
    }
    write_document(stream, "stability_report", **fields)


def dumps_fractions(obj) -> str:
    """Serialize nested fixtures with Fractions as "p/q" strings (cross-language reuse)."""
    as_text = "{0.numerator}/{0.denominator}".format
    return json.dumps(obj, indent=2, sort_keys=True, default=as_text)
