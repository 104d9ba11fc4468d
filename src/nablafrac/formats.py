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

import json
from itertools import chain, compress, count, islice, repeat
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

    The rows are parsed in bulk: the body is split on commas once, indices
    convert with ``int`` and values with one ``float`` array, and the checks
    are array comparisons.  Only a malformed stream pays for finding its
    first bad row, which gets the error the row-by-row checks would give:
    two fields, an integer index, a finite value, the consecutive run.
    """
    lines = list(map(str.strip, stream.read().split("\n")))
    kept = [line != "" and line[0] != "#" for line in lines]
    data = list(compress(lines, kept))
    if not data:
        raise GridCsvError("line 1: missing 'index,value' header")
    header, rows = data[0], data[1:]
    if header.lower() != "index,value":
        number = next(compress(count(1), kept))
        raise GridCsvError(f"line {number}: expected header 'index,value', got {header!r}")
    if not rows:
        raise GridCsvError("no data rows after the header")
    # the rows before the first without exactly one comma pair up in the tokens
    commas = np.fromiter(map(str.count, rows, repeat(",")), dtype=np.intp, count=len(rows))
    unpaired = np.flatnonzero(commas != 1)
    paired = int(unpaired[0]) if unpaired.size else len(rows)
    tokens = ",".join(rows[:paired]).split(",") if paired else []
    # each failure as (row, check order, message); the first row wins, then the first check
    failures = [] if paired == len(rows) else [(paired, 0, f"expected 'index,value', got {rows[paired]!r}")]
    try:
        indices = list(map(int, tokens[0::2]))
    except ValueError:
        bad = _first_rejected(int, tokens[0::2])
        failures.append((bad, 1, f"index {tokens[2 * bad]!r} is not an integer"))
        indices = list(map(int, tokens[: 2 * bad : 2]))
    try:
        values = np.array(tokens[1::2], dtype=float)
    except ValueError:
        bad = _first_rejected(float, tokens[1::2])
        failures.append((bad, 2, f"value {tokens[2 * bad + 1]!r} is not a number"))
        values = np.array(tokens[1 : 2 * bad : 2], dtype=float)
    infinite = np.flatnonzero(~np.isfinite(values))
    if infinite.size:
        bad = int(infinite[0])
        failures.append((bad, 3, f"value {tokens[2 * bad + 1]!r} is not finite"))
    if indices and indices != list(range(indices[0], indices[0] + len(indices))):
        bad = next(k for k, index in enumerate(indices) if index != indices[0] + k)
        expected = indices[bad - 1] + 1
        failures.append((bad, 4, f"index {indices[bad]} breaks the consecutive run (expected {expected})"))
    if failures:
        row, _, message = min(failures)
        # the data rows follow the header among the kept lines
        number = list(compress(count(1), kept))[row + 1]
        raise GridCsvError(f"line {number}: {message}")
    return GridFunction(indices[0], values)


def _first_rejected(convert, tokens: list[str]) -> int:
    """The position of the first token ``convert`` raises ValueError for, or len(tokens)."""
    for position, token in enumerate(tokens):
        try:
            convert(token)
        except ValueError:
            return position
    return len(tokens)


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
        "n": list(range(len(trace))),
        "t": list(range(trace.base, trace.base + len(trace))),
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
