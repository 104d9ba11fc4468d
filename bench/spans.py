"""Spans around every public nablafrac function, recorded from outside the library.

:class:`Tracer` replaces each public function at every module attribute that
binds it (``nablafrac.solver.convolution_weights`` as well as
``nablafrac.monomial.convolution_weights``), so a call made through any import
path opens a span.  The functions are found by walking the loaded nablafrac
modules, so a name that a later version removes is simply not wrapped.
``nablafrac.exact`` is the correctness oracle and is never wrapped.

A function's layer is the module that defines it, except that the public
readers and writers (``read_*``, ``write_*``) form the ``io`` layer.  The
harness opens one root span per request: layer ``cli`` for a CLI request, so
that ``cli`` self time is request wall minus library spans, and ``request``
for a direct library call.

Spans stay in memory as ``[id, name, layer, start, end, parent, request]``
and are written out by :meth:`Tracer.dump` when the run ends.  The wrappers
also record counts computed from argument and result sizes, which repeat
exactly for a given input.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager

import numpy as np

SOLVES = ("mittag_leffler_seq", "solve_lagged", "solve_general", "solve_first_order")


def _layer(fn) -> str:
    if fn.__name__.startswith(("read_", "write_")):
        return "io"
    return fn.__module__.rsplit(".", 1)[-1]


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (
            isinstance(obj, types.FunctionType)
            and not attr.startswith("_")
            and not obj.__name__.startswith("_")
            and obj.__module__.startswith("nablafrac.")
            and obj.__module__ != "nablafrac.exact"
        ):
            yield attr, obj


def _stream(args, method: str):
    return next((a for a in args if hasattr(a, method)), None)


class Tracer:
    """Span recorder for one traced run; single-threaded, like the benchmark."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._request = -1
        self._rows: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "nablafrac"]
        for module in modules:
            for attr, fn in list(_public_functions(module)):
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(fn)
                self._restore.append((module, attr, fn))
                setattr(module, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    # -- spans --------------------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, layer, time.perf_counter(), None, parent, self._request]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def request(self, name: str, layer: str):
        """Root span of one request; every span opened inside shares its id."""
        self._request += 1
        self._rows.clear()
        span = self._open(name, layer)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn):
        short = fn.__name__
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{short}"
        layer = _layer(fn)
        writer = layer == "io" and short.startswith("write_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            position = _stream(args, "write").tell() if writer else None
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self._count(short, layer, args, result, position)
            return result

        return traced

    def _count(self, fn: str, layer: str, args, result, position) -> None:
        """Counts from argument and result sizes; runs outside the span."""
        counts = self.counts
        if layer == "io":
            if position is None:
                counts["io.bytes_read"] += os.fstat(_stream(args, "read").fileno()).st_size
            else:
                counts["io.bytes_written"] += _stream(args, "write").tell() - position
        elif layer == "monomial":
            # one (function, order, length) row; reuse is counted per request
            key = (fn,) + tuple(args[:2])
            if key not in self._rows:
                self._rows.add(key)
                counts["monomial.rows"] += 1
        elif fn in ("nabla_sum", "nabla_frac_diff_direct"):
            # a length-L convolution computes L (L + 1) / 2 multiply-adds
            size = len(args[0])
            counts["grid.terms"] += size * (size + 1) // 2
        elif fn in SOLVES:
            values = np.asarray(getattr(result, "values", result), dtype=float)
            steps = values.size - 1
            counts["solver.steps"] += steps
            if fn != "solve_first_order":
                # step n dots the n earlier values with the weight row
                counts["solver.history_terms"] += steps * (steps + 1) // 2
            counts["solver.nonfinite_traces"] += int(not np.all(np.isfinite(values)))
        elif fn == "stability_scan":
            counts["stability.cells"] += len(result)

    # -- reduction ----------------------------------------------------------

    def self_times(self, key=lambda span: span[2]) -> dict:
        """Span time not covered by child spans, summed by ``key`` (default: layer).

        The benchmark is single-threaded, so child spans never overlap and the
        time they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[5] is not None:
                covered[span[5]] += span[4] - span[3]
        out: Counter = Counter()
        for span, child in zip(self.spans, covered):
            out[key(span)] += span[4] - span[3] - child
        return dict(out)

    def calls(self) -> Counter:
        return Counter(span[2] for span in self.spans if span[5] is not None)

    def dump(self, path: str, t0: float) -> None:
        """Write one JSON span per line, times in seconds from ``t0``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as stream:
            for sid, name, layer, start, end, parent, request in self.spans:
                stream.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "layer": layer,
                            "start": start - t0,
                            "end": end - t0,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )

