"""Spans recorded from outside the package, around the calls the benchmark makes.

A span has a name, start, end, parent span and operation id.  Spans stay in
memory until the run ends.  NullTracer keeps the same call sites but records
nothing, for the passes whose end-to-end numbers are reported.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int
    detail: str | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._open: list[int] = []
        self._op_id = -1

    @contextlib.contextmanager
    def span(self, name: str, detail: str | None = None):
        if name == "op":
            self._op_id += 1
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self._op_id, detail)


class NullTracer:
    _null = contextlib.nullcontext()

    def span(self, name: str, detail: str | None = None):
        return self._null


def self_times(spans: list[Span], first: int = 0) -> dict[str, float]:
    """Per span name: summed duration minus the time its direct children cover.

    spans is a contiguous slice of Tracer.spans starting at index first.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    totals: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        totals[s.name] += (s.end - s.start) - covered[first + i]
    return dict(totals)
