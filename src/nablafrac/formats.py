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
one chunk's text at a time.  A CSV chunk whose columns are all numeric 1-D
arrays or ranges within 17 digits, and a JSON list that is a float array, an
integer array or a range within 17 digits, are formatted in NumPy, byte for
byte as ``'%.17g' % x``, ``float.__repr__`` and ``str``; a JSON list's items
are joined by the indented item separator.  Any other JSON list (bool arrays,
larger integers, Python lists) is one call of the C encoder per chunk.

Each field is a column of uint32 words of ASCII bytes, 0 where unused: eight
for a float (sign, "0." and up to three zeros, 17 digits with one point slot,
the exponent), a sign word and up to five four-digit words for an integer.  The
float columns of a chunk are formatted in one batch, so NumPy's per-call cost is
paid once a chunk.  The chunk's words are transposed into rows with the
separators, and one ``bytes.translate`` deletes the zeros.  A float's digits
follow Grisu3's design (Loitsch, *Printing floating-point numbers quickly and
accurately with integers*, PLDI 2010), a fast path certified per element with
an exact fallback: k comes from ``log10``, corrected once when
y = |x|·10^(16 - k) falls outside [10^16, 10^17); y is a double-double,
Veltkamp's TwoProduct of |x| and 10^s held as (hi, lo); the nearest integer D
of y gives the 17 digits, through a table of the 10000 four-digit groups.  The
error of y is below 2^-45, so the per-value formatter is left only the elements
whose fraction is within 2^-30 of .5 (exact ties among them), whose D misses
[10^16, 10^17) (y a hair under 10^16), or whose |x| lies outside
[1e-290, 1e290] (subnormals among them); it stays the tests' oracle.

``float.__repr__``'s shortest digits come from the same frame.  x's rounding
interval there is y ± ulp/2·10^(16 - k), ulp/4 on the low side when x is a
power of two, under 23 wide.  The candidates of 16 and 15 digits are the
multiples of 10 and 100 next to y: the shortest one strictly inside the
interval wins, the nearer of two.  At most one multiple of 100 fits, so one
inside is also the shortest candidate, and the layout strips its zeros.  A
candidate within 2^-30 of an interval end, or halfway between two, leaves the
element to ``float.__repr__``.  The layout is ``repr``'s: exponent form below
1e-4 and from 1e16, and ``.0`` after an integral fixed number.

Zero, -0, nan and ±inf come from a small table, as CSV and as JSON print them.
The tables are built on first use, from Python integers, so importing the CLI
does not pay for them.  A table with any other column is formatted by one
``%`` per chunk against a row template repeated per row (``'%.17g' % x`` is
``format(x, ".17g")``).
"""

from __future__ import annotations

import functools
import json
import math
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


def _python_scalar(x):
    """A NumPy scalar as the Python scalar JSON writes: a floating one as float."""
    if isinstance(x, np.generic):
        # np.longdouble(x).item() would stay a long double
        return float(x) if isinstance(x, np.floating) else x.item()
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


# rows of a CSV chunk, items of a JSON list chunk
_CHUNK = 1024
# the items of an indent-2 list one level down, as json.dump(indent=2) lays them out
_ITEM_SEPARATOR = ",\n    "
# writes every key, scalar and Python list chunk of a JSON document
_LIST_ENCODER = json.JSONEncoder(separators=(_ITEM_SEPARATOR, ": "), default=_python_scalar)
# the words of a field that hold its sign and of the separators
_MINUS, _COMMA, _NEWLINE = np.frombuffer(b"-\0\0\0,\0\0\0\n\0\0\0", np.uint32)
_ITEM_END = np.frombuffer(_ITEM_SEPARATOR.encode().ljust(8, b"\0"), np.uint32)
# the digit place before each four-digit group, the first group's place 0
_GROUP_AT = np.arange(0, 20, 4)[:, None]
# the places of a shorter candidate for repr's digits, in the 17-digit frame
_TENS = np.array([[10], [100]])
# one parsed grid CSV row
_ROW = np.dtype([("index", np.int64), ("value", np.float64)])
# np.loadtxt reads the ASCII separators \x1c-\x1f, and many non-ASCII
# characters, as blanks inside a field, where int() and float() refuse them
_NOT_BULK = "#\x1c\x1d\x1e\x1f"


def write_table(stream: IO[str], header: str, *columns: Collection) -> None:
    """Write a CSV document: the header line, then one row per column entry."""
    # rows stop at the shortest column; a chunk of rows is formatted, then written
    count = min(map(len, columns), default=0)
    values = list(map(_values, columns))
    stream.write(header + "\n")
    if all(values):
        for lo in range(0, count, _CHUNK):
            stream.write(_text(_fields([v(lo, min(lo + _CHUNK, count)) for v in values])))
        return
    # a table with other columns formats each chunk by one % against a row template
    row = ",".join("%.17g" if isinstance(col, np.ndarray) else "%s" for col in columns) + "\n"
    rows = zip(*(col.tolist() if isinstance(col, np.ndarray) else col for col in columns))
    while chunk := tuple(chain.from_iterable(islice(rows, _CHUNK))):
        stream.write(row * (len(chunk) // len(columns)) % chunk)


def _text(columns: list[np.ndarray], end: np.ndarray = _NEWLINE) -> str:
    """Columns of fields as rows, ``,`` between the fields and the words ``end`` after each row."""
    count = columns[0].shape[1]
    comma = np.broadcast_to(_COMMA, (1, count))
    # word rows that are 0 in every field are left out
    rows = [part for words in columns for part in (words[words.any(axis=1)], comma)]
    rows[-1] = np.broadcast_to(np.reshape(end, (-1, 1)), (np.size(end), count))
    table = np.concatenate(rows)
    # the table goes before the translate: at most two copies of the chunk are alive
    text = table.T.tobytes()
    del table
    return text.translate(None, b"\0").decode("ascii")


def _values(column: Collection, shortest: bool = False):
    """A function of (lo, hi) giving rows lo..hi as float64 or int64, or None for the % path.

    Numeric 1-D arrays print as ``'%.17g' % float(x)``, so they give float64, and
    ranges within 17 digits print as ``str``, so they give int64.  With ``shortest``,
    as JSON prints their items: float arrays give float64 (``float.__repr__``), integer
    arrays and ranges within 17 digits int64, and anything else None.
    """
    if isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype.itemsize <= 8:
        kind = column.dtype.kind
        if kind == "f" or kind in "biu" and not shortest:
            return lambda lo, hi: np.asarray(column[lo:hi], np.float64)
        if kind in "iu" and max(-int(column.min(initial=0)), int(column.max(initial=0))) < 10**17:
            return lambda lo, hi: np.asarray(column[lo:hi], np.int64)
    if isinstance(column, range) and (not column or max(abs(column[0]), abs(column[-1])) < 10**17):
        start, step = column.start, column.step
        return lambda lo, hi: np.arange(start + lo * step, start + hi * step, step, dtype=np.int64)
    return None


def _fields(values: list[np.ndarray], shortest: bool = False) -> list[np.ndarray]:
    """The fields of each column of a chunk: int64 as ``str``, all float64 columns
    in one batch."""
    floats = [v for v in values if v.dtype.kind == "f"]
    if floats:
        # the batch's (8, n) block of each float column, in column order
        blocks = iter(_float_words(np.concatenate(floats), shortest).reshape(8, len(floats), -1).transpose(1, 0, 2))
    return [next(blocks) if v.dtype.kind == "f" else _int_words(v) for v in values]


def _words(text: bytes) -> np.ndarray:
    return np.frombuffer(text, np.uint32)


@functools.cache
def _tables() -> SimpleNamespace:
    """The formatter's tables, built on first use from Python integers, whose / and
    float() round correctly.

    ``scale``: 10^s for s = -274..308 as rows hi, hi's Veltkamp halves and lo.  Per
    four-digit group: ``digits``, its ASCII digits as a word; ``lead``, its leading
    zeros (20 for 0); ``end``, where its significant digits end (-16 for 0).  Per
    decimal exponent k = -330..330, ``exponent``: a field's eight words with "0." and
    up to three zeros for k = -4..-1 and the exponent for k outside -4..0, so a fixed
    number takes the entry of min(k, 0).  ``leading``: the first digit, with the
    point after it or not; ``keep`` and ``tail``: masks of the first and the last n
    bytes of a word; ``special``: the fields of 0, -0, nan, inf and -inf as CSV and
    as JSON print them.
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
        b"\0" + (b"0.000"[: 1 - k] if -4 <= k < 0 else b"").ljust(23, b"\0")
        + b"\0" + (b"" if -4 <= k <= 0 else b"e%+03d" % k).ljust(7, b"\0")
        for k in range(-330, 331)
    )
    special = [["0", "-0", "nan", "inf", "-inf"], ["0.0", "-0.0", "NaN", "Infinity", "-Infinity"]]
    tables = SimpleNamespace(
        scale=scale,
        digits=(np.ascontiguousarray(places.T) + ord("0")).view(np.uint32).ravel(),
        lead=lead,
        end=end,
        exponent=_words(exponent).reshape(-1, 8).T.copy(),
        leading=_words(b"".join(b"\0\0%c%s" % (48 + d, dot) for d in range(10) for dot in (b"\0", b"."))),
        keep=_words(b"".join(b"\xff" * n + b"\0" * (4 - n) for n in masks)),
        tail=_words(b"".join(b"\0" * (4 - n) + b"\xff" * n for n in masks)),
        special=np.array([_words("".join(t.ljust(32, "\0") for t in row).encode()).reshape(5, 8).T for row in special]),
    )
    # every caller shares them
    for table in vars(tables).values():
        table.flags.writeable = False
    return tables


def _groups(d: np.ndarray, count: int = 5) -> np.ndarray:
    """The last ``count`` of the five four-digit groups of non-negative int64s below
    10^17, whose first group is a single digit, as rows; the first row holds the rest."""
    groups = []
    for place in (10**16, 10**12, 10**8, 10**4)[5 - count :]:
        groups.append(d // place)
        d = d - groups[-1] * place
    return np.array(groups + [d])


def _int_words(values: np.ndarray) -> np.ndarray:
    """``str`` of int64s within 17 digits: a sign word, then 17 digits in five words."""
    tables = _tables()
    magnitude = np.abs(values)
    # only the groups the largest value needs
    groups = _groups(magnitude, 1 + (len(str(magnitude.max(initial=0))) - 1) // 4)
    at = _GROUP_AT[: len(groups)]
    # the leading zeros go, the last digit stays
    first = np.minimum((tables.lead.take(groups) + at).min(axis=0), 4 * len(groups) - 1)
    out = np.empty((1 + len(groups), values.size), np.uint32)
    out[0] = np.where(values < 0, _MINUS, 0)
    out[1:] = tables.digits.take(groups) & tables.tail.take(at + 24 - first)
    return out


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a·10^(16 - k) as a double-double y + lo, |lo| <= ulp(y) / 2, to about 2^-100 relative."""
    hi, upper, lower, lo = _tables().scale.take(290 - k, axis=1)
    product = a * hi
    c = 134217729.0 * a
    a_upper = c - (c - a)
    a_lower = a - a_upper
    error = ((a_upper * upper - product) + a_upper * lower + a_lower * upper) + a_lower * lower
    tail = error + a * lo
    y = product + tail
    return y, tail - (y - product)


def _decimal(a: np.ndarray, shortest: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exponent k and 17-digit integer D of finite non-zero a, a ~ D·10^(k - 16) with
    10^16 <= D < 10^17, and whether D is certainly ``a`` rounded to 17 digits, or with
    ``shortest`` certainly ``float.__repr__``'s digits padded with zeros."""
    # subnormals and exponents past 290 are not certified; a stand-in at the
    # nearer end of that range keeps k in the table
    b = np.fmin(np.fmax(a, 1e-290), 1e290)
    certain = b == a
    k = np.floor(np.log10(b)).astype(np.int64)
    y, lo = _scaled(b, k)
    # log10 can put k off by one next to a power of ten
    wrong = np.flatnonzero((y < 1e16) | (y >= 1e17))
    if wrong.size:
        k[wrong] += np.where(y[wrong] < 1e16, -1, 1)
        y[wrong], lo[wrong] = _scaled(b[wrong], k[wrong])
    nearest = np.rint(lo)
    r = lo - nearest
    d = y.astype(np.int64) + nearest.astype(np.int64)
    # y + lo is off by under 2^-45, so only a fraction near .5 (exact ties among
    # them) can round either way; D + r must lie in [10^16, 10^17)
    certain &= (np.abs(r) < 0.5 - 2.0**-30) & (d < 10**17) & (d >= 10**16 + (r < 0))
    if shortest:
        _shorten(b, y, k, d, r, certain)
    # an uncertain D is never read; 10^16 keeps every table index in range
    return k, np.where(certain, d, 10**16), certain


def _shorten(
    a: np.ndarray, y: np.ndarray, k: np.ndarray, d: np.ndarray, r: np.ndarray, certain: np.ndarray
) -> None:
    """Shorten the digits D of a, y ~ a·10^(16 - k) = D + r, in place to those of
    ``float.__repr__`` (see the module docstring).  An element that a comparison
    within 2^-30 decides is no longer certain; a carry to 10^17 moves k up."""
    # the interval's half-widths: half an ulp of a is the power of two at or below a,
    # a's exponent bits, over 2^53; a quarter of an ulp below a power of two
    bits = a.view(np.uint64)
    power = bits & 0x7FF0000000000000
    above = (power - (53 << 52)).view(np.float64) * (y / a)
    below = np.where(bits == power, above / 2, above)
    # D - m is the multiple of 10 or 100 at or below D
    m = d % _TENS
    down = m + r
    # > 0: the multiple below inside, the multiple above inside, the one above nearer
    gap = np.empty((3, *down.shape))
    np.subtract(below, down, out=gap[0])
    np.subtract(down, _TENS - above, out=gap[1])
    np.subtract(down, _TENS / 2, out=gap[2])
    inside, up, nearer = gap > 0
    certain &= (np.abs(gap, out=gap) > 2.0**-30).all(axis=(0, 1))
    up &= ~inside | nearer
    inside |= up
    # now D - m is the candidate at each place
    m -= up * _TENS
    d -= np.where(inside[1], m[1], m[0] * inside[0])
    carry = d == 10**17
    k += carry
    d[carry] = 10**16


def _float_words(x: np.ndarray, shortest: bool = False) -> np.ndarray:
    """``'%.17g' % x``, or with ``shortest`` JSON's ``float.__repr__``, of each float64 as
    eight words of ASCII bytes, 0 where unused; zeros, nan and ±inf from a table."""
    a = np.abs(x)
    finite = (a > 0) & (a < np.inf)
    if finite.all():
        return _finite_words(x, a, shortest)
    kind = np.where(np.isnan(x), 2, 3 * np.isinf(x) + np.signbit(x))
    out = _tables().special[int(shortest)].take(kind, axis=1)
    if finite.any():
        out[:, finite] = _finite_words(x[finite], a[finite], shortest)
    return out


def _finite_words(x: np.ndarray, a: np.ndarray, shortest: bool) -> np.ndarray:
    """The fields of finite non-zero x, a = |x|: certified digits, else ``'%.17g' % x``
    or, with ``shortest``, ``float.__repr__(x)``.

    Bytes 0-7 of a field hold the sign, "0." and up to three zeros, the first digit
    and a point; bytes 8-23 the other 16 digits; byte 24 the last digit when the point
    falls among them; bytes 25-29 the exponent.
    """
    tables = _tables()
    k, d, certain = _decimal(a, shortest)
    groups = _groups(d)
    # %g strips the zeros after the last significant digit but keeps a fixed
    # number's integer digits; the point follows digit k, or the first digit in
    # exponent form (below 1e-4 and from 1e17), when a digit follows it; repr
    # takes exponent form from 1e16 and ends an integral fixed number in ".0"
    last = (tables.end.take(groups[1:]) + _GROUP_AT[:4]).max(axis=0, initial=0)
    fixed = (k >= -4) & (k < 17 - shortest)
    shown = np.where(fixed, np.maximum(last, k + shortest), last)
    point = np.where(fixed, k, 0)
    out = tables.exponent.take(np.where(fixed, np.minimum(k, 0), k) + 330, axis=1)
    out[0] |= np.where(x < 0, _MINUS, 0)
    out[1] |= tables.leading[2 * groups[0] + ((point == 0) & (shown > 0))]
    out[2:6] = tables.digits.take(groups[1:]) & tables.keep.take(shown + 20 - _GROUP_AT[:4])
    inner = np.flatnonzero((point > 0) & (point < shown))
    if inner.size:
        # the point among the digits: the digits after it move one byte on
        rows, after = out[:, inner].T.copy().view(np.uint8), point[inner, None]
        place = np.arange(17)
        rows[:, 8:25] = np.where(place < after, rows[:, 8:25], np.where(place == after, ord("."), rows[:, 7:24]))
        out[:, inner] = rows.view(np.uint32).T
    fallback = float.__repr__ if shortest else "%.17g".__mod__
    for i in np.flatnonzero(~certain):
        out[:, i] = _words(fallback(x[i]).encode().ljust(32, b"\0"))
    return out


def _write_list(stream: IO[str], items) -> None:
    """Write a flat list, range or 1-D array as json.dump(indent=2) lays out a field's list."""
    if isinstance(items, np.ndarray) and items.ndim != 1:
        raise TypeError(f"write_document takes flat arrays, got shape {items.shape}")
    # numbers in NumPy where they can be, the rest through the C encoder
    values = _values(items, shortest=True)
    # ranges and arrays of numbers cannot nest; lists and other arrays are checked
    flat = isinstance(items, range) or isinstance(items, np.ndarray) and items.dtype.kind in "biuf"
    opening = "[\n    "
    for lo in range(0, len(items), _CHUNK):
        if values:
            fields = _fields([values(lo, min(lo + _CHUNK, len(items)))], shortest=True)
            text = _text(fields, _ITEM_END)[: -len(_ITEM_SEPARATOR)]
        else:
            chunk = items[lo : lo + _CHUNK]
            chunk = chunk.tolist() if isinstance(chunk, np.ndarray) else list(chunk)
            if not flat and any(issubclass(t, (list, tuple, dict)) for t in set(map(type, chunk))):
                raise TypeError("write_document takes flat lists, got a nested value")
            text = _LIST_ENCODER.encode(chunk)[1:-1]
        stream.write(opening + text)
        opening = _ITEM_SEPARATOR
    stream.write("[]" if opening == "[\n    " else "\n  ]")


def write_document(stream: IO[str], kind: str, **fields) -> None:
    """Write a JSON document: ``kind`` first, then the fields in order.

    Values are scalars, strings, None, or flat lists, ranges and 1-D arrays
    of them; a nested list or a dict raises ``TypeError``.  A NumPy scalar
    is written as its Python scalar, a floating one of any width as a float.
    """
    opening = "{\n  "
    for key, value in {"kind": kind, **fields}.items():
        stream.write(opening + _LIST_ENCODER.encode(key) + ": ")
        if isinstance(value, (list, range, np.ndarray)):
            _write_list(stream, value)
        elif isinstance(value, (tuple, dict)):
            raise TypeError(f"write_document takes flat fields, got {type(value).__name__} for {key!r}")
        else:
            stream.write(_LIST_ENCODER.encode(value))
        opening = ",\n  "
    stream.write("\n}\n")


def write_grid_csv(obj: GridFunction, stream: IO[str], *, record_base: bool = False) -> None:
    """Write ``index,value`` rows; optionally record the base in a comment line."""
    header = f"# base={obj.base}\nindex,value" if record_base else "index,value"
    write_table(stream, header, range(obj.base, obj.last + 1), obj.values)


def read_grid_csv(stream: IO[str]) -> GridFunction:
    """Parse ``index,value`` rows into a GridFunction.

    Comment lines starting with ``#`` and blank lines are skipped, so output
    of :func:`write_grid_csv` round-trips, and one leading byte-order mark
    (U+FEFF) is dropped.  Indices must be consecutive and ascending; errors
    name the offending line number.

    After the header, the rows of an ASCII text are parsed in bulk by
    ``np.loadtxt`` into an int64 index and a float64 value, and checked by
    array comparisons: a body with a non-blank line, no ``#`` and no
    separator character U+001C to U+001F, finite values and a consecutive
    index run.
    Anything NumPy rejects or the checks refuse goes to the row-by-row
    parse, which raises the error of the first bad row, or accepts what
    ``int`` and ``float`` read and NumPy does not: ``_`` digit separators,
    non-ASCII digits, whitespace-only lines and indices past int64.
    """
    # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
    text = stream.read().removeprefix("\ufeff")
    lines = text.split("\n")
    # the header is the first line that is neither blank nor a comment
    for number, line in enumerate(lines, 1):
        header = line.strip()
        if header and header[0] != "#":
            break
    else:
        raise GridCsvError("line 1: missing 'index,value' header")
    if header.lower() != "index,value":
        raise GridCsvError(f"line {number}: expected header 'index,value', got {header!r}")
    body, start = lines[number:], len("\n".join(lines[:number]))
    # a blank body is left to the row-by-row parse, which refuses it
    if text.isascii() and all(text.find(c, start) < 0 for c in _NOT_BULK) and any(map(str.strip, body)):
        try:
            rows = np.loadtxt(body, delimiter=",", comments=None, dtype=_ROW, ndmin=1)
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
    return _parse_rows(body, number + 1)


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
    n, t = range(len(trace)), range(trace.base, trace.last + 1)
    envelope = np.full(len(trace), np.nan) if trace.envelope is None else trace.envelope
    write_table(stream, "n,t,u,residual,envelope", n, t, trace.values, trace.residuals, envelope)


def write_trace_json(trace: SolutionTrace, stream: IO[str], **metadata) -> None:
    """Write the trace plus problem metadata as a JSON document."""
    fields = {
        "base": trace.base,
        "nu": trace.nu,
        "n": range(len(trace)),
        "t": range(trace.base, trace.last + 1),
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
