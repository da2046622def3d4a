"""In-memory span recording for the traced benchmark pass.

A span is (name, start, end, parent, point): `parent` is the index of the
enclosing span (-1 at the root) and `point` identifies the LER point or
algebra task the span belongs to. Spans are kept in a list and written out
once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracer stand-in for untraced passes: records nothing."""

    point = None

    def span(self, name):
        return _NULL


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, point]
        self.point = None  # point id stamped on spans opened from now on
        self._stack = [-1]

    def span(self, name):
        return _Span(self, name)

    def self_times(self, lo: int, hi: int) -> dict:
        """Per span name: (self seconds, span count) over spans[lo:hi].

        Self time is a span's duration minus the time its direct children
        cover; single-threaded spans nest, so the children never overlap.
        """
        spans = self.spans[lo:hi]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= lo:
                child[parent - lo] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for (name, start, end, _, _), c in zip(spans, child):
            acc = out[name]
            acc[0] += end - start - c
            acc[1] += 1
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path) -> None:
        """Write the spans as gzip-compressed JSON, times in integer
        nanoseconds since the first span started."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[name, round((start - t0) * 1e9), round((end - t0) * 1e9),
                 parent, point]
                for name, start, end, parent, point in self.spans]
        doc = {"fields": ["name", "start_ns", "end_ns", "parent", "point"],
               "spans": rows}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.spans)
        t.spans.append([self.name, perf_counter(), 0.0, t._stack[-1],
                        t.point])
        t._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.idx][2] = perf_counter()
        t._stack.pop()
        return False


@contextlib.contextmanager
def instrumented(tracer: Tracer, qualnames):
    """Route every gbx module's reference to each `module.function` in
    `qualnames` through a span of that name, and undo it on exit.

    Modules import each other's functions by name, so the wrapper replaces
    the function object wherever a gbx module namespace holds it.
    """
    wrappers = {}
    for qual in qualnames:
        mod_name, fn_name = qual.rsplit(".", 1)
        fn = getattr(sys.modules["gbx." + mod_name], fn_name)
        wrappers[id(fn)] = (fn, _wrap(tracer, qual, fn))
    patched = []
    for name, mod in list(sys.modules.items()):
        if name != "gbx" and not name.startswith("gbx."):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, val))
    try:
        yield
    finally:
        for mod, attr, val in patched:
            setattr(mod, attr, val)


def _wrap(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return traced
