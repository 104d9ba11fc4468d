"""Readers and writers for every nablafrac document.

:func:`write_table` writes every CSV document: array columns print as
``'%.17g' % x``, 17 significant digits, so identical results give
byte-identical files that parse back losslessly, and other columns print with
``str`` (the scan passes its axes as ``repr`` strings, so a requested nu of 0.3
reads back as ``0.3``).  :func:`write_document` writes every JSON document:
``kind`` first, arrays as lists, indent 2 and a trailing newline, the layout of
``json.dump(indent=2)``, with floats as ``float.__repr__``, the shortest form
that reads back to the same float64.

Both work one chunk of ``_CHUNK`` rows or list items at a time, and hold only
one chunk's text at a time.  A JSON list chunk is one call of the C encoder
with the indented item separator.

A CSV chunk whose columns are all numeric 1-D arrays or ranges within 17 digits
is formatted in NumPy, byte for byte as ``'%.17g' % x`` and ``str``.  Each
field is a column of uint32 words of ASCII bytes, 0 where unused: eight for a
float (sign, "0." and up to three zeros, 17 digits with one point slot, the
exponent), a sign word and up to five four-digit words for an integer.  The
chunk's words are transposed into rows with the separators, and one
``bytes.translate`` deletes the zeros.  A float's digits follow Grisu3's design
(Loitsch, *Printing floating-point numbers quickly and accurately*, PLDI 2010),
a fast path certified per element with an exact fallback: k comes from
``log10``, corrected once when y = |x|·10^(16 - k) falls outside
[10^16, 10^17); y is a double-double, Veltkamp's TwoProduct of |x| and 10^s
held as (hi, lo); the nearest integer D of y gives the 17 digits, through a
table of the 10000 four-digit groups.  The error of y is below 2^-45, so
``'%.17g' % x`` is left only the elements whose fraction is within 2^-30 of .5
(exact ties among them), whose y is a hair under 10^16, or whose |x| lies
outside [1e-290, 1e290] (subnormals among them); it stays the tests' oracle.
Zero, -0, nan and ±inf come from a small table.  The tables are built on first
use, from Python integers, so importing the CLI does not pay for them.  A
table with any other column is formatted by one ``%`` per chunk against a row
template repeated per row (``'%.17g' % x`` is ``format(x, ".17g")``).
"""

from __future__ import annotations

import functools
import io
import json
import math
import warnings
from itertools import chain, islice
from types import SimpleNamespace
from typing import IO, Collection, Iterable, Sequence

import numpy as np

from .grid import GridFunction
from .solver import SolutionTrace
from .stability import ScanCell, StabilityReport, _none_if_nan

__all__ = [
    "GridCsvError",
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
# the words of a field that hold its sign and of the separators
_MINUS, _COMMA, _NEWLINE = np.frombuffer(b"-\0\0\0,\0\0\0\n\0\0\0", np.uint32)
# one parsed grid CSV row
_ROW = np.dtype([("index", np.int64), ("value", np.float64)])
# np.loadtxt reads the ASCII separators \x1c-\x1f, and many non-ASCII
# characters, as blanks inside a field, where int() and float() refuse them
_NOT_BULK = "#\x1c\x1d\x1e\x1f"


def write_table(stream: IO[str], header: str, *columns: Collection) -> None:
    """Write a CSV document: the header line, then one row per column entry."""
    # rows stop at the shortest column; a chunk of rows is formatted, then written
    count = min(map(len, columns), default=0)
    fields = list(map(_fields, columns))
    stream.write(header + "\n")
    if all(fields):
        for lo in range(0, count, _CHUNK):
            stream.write(_text([f(lo, min(lo + _CHUNK, count)) for f in fields]))
        return
    # a table with other columns formats each chunk by one % against a row template
    row = ",".join("%.17g" if isinstance(col, np.ndarray) else "%s" for col in columns) + "\n"
    rows = zip(*(col.tolist() if isinstance(col, np.ndarray) else col for col in columns))
    while chunk := tuple(chain.from_iterable(islice(rows, _CHUNK))):
        stream.write(row * (len(chunk) // len(columns)) % chunk)


def _text(columns: list[np.ndarray]) -> str:
    """Columns of fields as CSV rows, ``,`` between the fields and a newline after each row."""
    # word rows that are 0 in every field are left out
    used = [words.any(axis=1) for words in columns]
    table = np.empty((columns[0].shape[1], sum(map(np.count_nonzero, used)) + len(columns)), np.uint32)
    at = 0
    for words, rows in zip(columns, used):
        count = np.count_nonzero(rows)
        table[:, at : at + count] = words[rows].T
        table[:, at + count] = _COMMA
        at += count + 1
    table[:, -1] = _NEWLINE
    # the table goes before the translate: at most two copies of the chunk are alive
    text = table.tobytes()
    del table
    return text.translate(None, b"\0").decode("ascii")


def _fields(column: Collection):
    """A function of (lo, hi) giving the fields of rows lo..hi, or None for the % path.

    Numeric 1-D arrays print as ``'%.17g' % float(x)``, ranges within 17 digits as ``str``.
    """
    if isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype.kind in "biuf":
        if column.dtype.itemsize <= 8:
            return lambda lo, hi: _float_words(np.asarray(column[lo:hi], np.float64))
    if isinstance(column, range) and (not column or max(abs(column[0]), abs(column[-1])) < 10**17):
        start, step = column.start, column.step
        return lambda lo, hi: _int_words(np.arange(start + lo * step, start + hi * step, step, dtype=np.int64))
    return None


def _words(text: bytes) -> np.ndarray:
    return np.frombuffer(text, np.uint32)


@functools.cache
def _tables() -> SimpleNamespace:
    """The formatter's tables, built on first use from Python integers, whose / and
    float() round correctly.

    ``scale``: 10^s for s = -274..308 as rows hi, hi's Veltkamp halves and lo.  Per
    four-digit group: ``digits``, its ASCII digits as a word; ``lead``, its leading
    zeros (20 for 0); ``end``, where its significant digits end (-16 for 0).  Per
    decimal exponent k = -330..330, ``exponent``: words 0, 1, 6 and 7 of a field,
    which hold "0." and up to three zeros below 1 and the exponent in exponent form.
    ``leading``: the first digit, with the point after it or not; ``keep`` and
    ``tail``: masks of the first and the last n bytes of a word; ``special``: the
    first words of 0, -0, nan, inf and -inf, the only words they use.
    """
    scale = np.empty((4, 583))
    for i, s in enumerate(range(-274, 309)):
        p, q = (10**s, 1) if s >= 0 else (1, 10**-s)
        hi = p / q
        num, den = hi.as_integer_ratio()
        c = 134217729.0 * (hi * 2.0**-50)
        upper = (c - (c - hi * 2.0**-50)) * 2.0**50
        scale[:, i] = hi, upper, hi - upper, (p * den - num * q) / (q * den)
    # the digits of 0000..9999, place by place
    ten = np.arange(10, dtype=np.uint8)
    places = np.array([np.tile(np.repeat(ten, 10**j), 10 ** (3 - j)) for j in (3, 2, 1, 0)])
    lead = np.repeat(np.array([3, 2, 1, 0], np.int8), [10, 90, 900, 9000])
    end = np.full(10000, 4, np.int8)
    for step in (10, 100, 1000):
        end[::step] -= 1
    lead[0], end[0] = 20, -16
    # a mask at index n + 20 keeps n bytes, n clipped to 0..4
    masks = [min(max(n, 0), 4) for n in range(-20, 25)]
    exponent = b"".join(
        b"\0" + (b"0.000"[: 1 - k] if -4 <= k < 0 else b"").ljust(7, b"\0")
        + b"\0" + (b"" if -4 <= k < 17 else b"e%+03d" % k).ljust(7, b"\0")
        for k in range(-330, 331)
    )
    tables = SimpleNamespace(
        scale=scale,
        digits=(np.ascontiguousarray(places.T) + ord("0")).view(np.uint32).ravel(),
        lead=lead,
        end=end,
        exponent=_words(exponent).reshape(-1, 4).T.copy(),
        leading=_words(b"".join(b"\0\0%c%s" % (48 + d, dot) for d in range(10) for dot in (b"\0", b"."))),
        keep=_words(b"".join(b"\xff" * n + b"\0" * (4 - n) for n in masks)),
        tail=_words(b"".join(b"\0" * (4 - n) + b"\xff" * n for n in masks)),
        special=_words(b"0\0\0\0-0\0\0nan\0inf\0-inf"),
    )
    # every caller shares them
    for table in vars(tables).values():
        table.flags.writeable = False
    return tables


def _groups(d: np.ndarray, count: int = 5) -> list[np.ndarray]:
    """The last ``count`` of the five four-digit groups of non-negative int64s below
    10^17, whose first group is a single digit; the first group returned holds the rest."""
    groups = []
    for place in (10**16, 10**12, 10**8, 10**4)[5 - count :]:
        groups.append(d // place)
        d = d - groups[-1] * place
    return groups + [d]


def _int_words(values: np.ndarray) -> np.ndarray:
    """``str`` of int64s within 17 digits: a sign word, then 17 digits in five words."""
    tables = _tables()
    magnitude = np.abs(values)
    # only the groups the largest value needs
    groups = _groups(magnitude, 1 + (len(str(magnitude.max(initial=0))) - 1) // 4)
    # the leading zeros go, the last digit stays
    first = functools.reduce(np.minimum, [4 * i + tables.lead[g] for i, g in enumerate(groups)])
    out = np.empty((1 + len(groups), values.size), np.uint32)
    out[0] = np.where(values < 0, _MINUS, 0)
    for i, g in enumerate(groups):
        out[i + 1] = tables.digits[g] & tables.tail[4 * i + 24 - np.minimum(first, 4 * len(groups) - 1)]
    return out


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a·10^(16 - k) as a double-double y + lo, |lo| <= ulp(y) / 2, to about 2^-100 relative."""
    hi, upper, lower, lo = (row.take(290 - k) for row in _tables().scale)
    product = a * hi
    c = 134217729.0 * a
    a_upper = c - (c - a)
    a_lower = a - a_upper
    error = ((a_upper * upper - product) + a_upper * lower + a_lower * upper) + a_lower * lower
    tail = error + a * lo
    y = product + tail
    return y, tail - (y - product)


def _float_words(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % x`` of each float64 as eight words of ASCII bytes, 0 where unused."""
    a = np.abs(x)
    finite = (a > 0) & (a < np.inf)
    if finite.all():
        return _finite_words(x, a)
    out = np.zeros((8, x.size), np.uint32)
    out[0] = _tables().special.take(np.where(np.isnan(x), 2, np.where(a == np.inf, 3, 0) + np.signbit(x)))
    if finite.any():
        out[:, finite] = _finite_words(x[finite], a[finite])
    return out


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exponent k and 17-digit integer D of finite non-zero a, a ~ D·10^(k - 16) with
    10^16 <= D < 10^17, and whether D is certainly ``a`` rounded to 17 digits."""
    # subnormals and exponents past 290 are not certified; a stand-in keeps k in the table
    certain = (a >= 1e-290) & (a <= 1e290)
    a = np.where(certain, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    y, lo = _scaled(a, k)
    # log10 can put k off by one next to a power of ten
    wrong = np.flatnonzero((y < 1e16) | (y >= 1e17))
    k[wrong] += np.where(y[wrong] < 1e16, -1, 1)
    y[wrong], lo[wrong] = _scaled(a[wrong], k[wrong])
    nearest = np.rint(lo)
    # y + lo is off by under 2^-45, so only a fraction near .5 (exact ties among
    # them) or a value a hair under 10^16 can round either way
    certain &= (np.abs(np.abs(lo - nearest) - 0.5) > 2.0**-30) & (y < 1e17) & ((y > 1e16) | (y == 1e16) & (lo >= 0))
    # an uncertain D is never read; 10^16 keeps every table index in range
    return k, np.where(certain, y.astype(np.int64) + nearest.astype(np.int64), 10**16), certain


def _finite_words(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The fields of finite non-zero x, a = |x|: certified digits, else ``'%.17g' % x``.

    Bytes 0-7 of a field hold the sign, "0." and up to three zeros, the first digit
    and a point; bytes 8-23 the other 16 digits; byte 24 the last digit when the point
    falls among them; bytes 25-29 the exponent.
    """
    tables = _tables()
    k, d, certain = _decimal(a)
    groups = _groups(d)
    # %g strips the zeros after the last significant digit but keeps a fixed
    # number's integer digits; the point follows digit k, or the first digit in
    # exponent form (below 1e-4 and from 1e17), when a digit follows it
    last = functools.reduce(np.maximum, [4 * i - 4 + tables.end[g] for i, g in enumerate(groups) if i], 0)
    fixed = (k >= -4) & (k < 17)
    shown = np.where(fixed, np.maximum(last, k), last)
    point = np.where(fixed, k, 0)
    out = np.empty((8, x.size), np.uint32)
    out[[0, 1, 6, 7]] = tables.exponent.take(k + 330, axis=1)
    out[0] |= np.where(x < 0, _MINUS, 0)
    out[1] |= tables.leading[2 * groups[0] + ((point == 0) & (last > 0))]
    for i in range(1, 5):
        out[i + 1] = tables.digits[groups[i]] & tables.keep[shown - 4 * i + 24]
    inner = np.flatnonzero((point > 0) & (point < last))
    if inner.size:
        # the point among the digits: the digits after it move one byte on
        rows, after = out[:, inner].T.copy().view(np.uint8), point[inner, None]
        place = np.arange(17)
        rows[:, 8:25] = np.where(place < after, rows[:, 8:25], np.where(place == after, ord("."), rows[:, 7:24]))
        out[:, inner] = rows.view(np.uint32).T
    for i in np.flatnonzero(~certain):
        out[:, i] = _words(("%.17g" % x[i]).encode().ljust(32, b"\0"))
    return out


def _write_list(stream: IO[str], items) -> None:
    """Write a flat list, range or 1-D array as json.dump(indent=2) lays out a field's list."""
    if isinstance(items, np.ndarray) and items.ndim != 1:
        raise TypeError(f"write_document takes flat arrays, got shape {items.shape}")
    # ranges and arrays of numbers cannot nest; lists and other arrays are checked
    flat = isinstance(items, range) or isinstance(items, np.ndarray) and items.dtype.kind in "biuf"
    opening = "[\n    "
    for lo in range(0, len(items), _CHUNK):
        chunk = items[lo : lo + _CHUNK]
        chunk = chunk.tolist() if isinstance(chunk, np.ndarray) else list(chunk)
        if not flat and any(issubclass(t, (list, tuple, dict)) for t in set(map(type, chunk))):
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
        "criterion_holds": report.criterion_holds,
        "bound_ok": report.bound_ok,
        "decay_class": report.decay_class.value,
        "tail_stat": _none_if_nan(report.tail_stat),
        "values": report.values,
        "envelope": report.envelope,
    }
    write_document(stream, "stability_report", **fields)
