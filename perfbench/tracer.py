"""Outside-in span tracer: timing wrappers around public entry points.

The wrappers are installed from the benchmark's own files, only for the
passes that are traced, and removed after each; nothing in the package
under test changes. Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    """One timed call. ``parent`` and ``root`` are indices into the span list.

    ``root`` identifies the benchmark operation the call belongs to, so the
    spans of one operation share it. ``value`` carries a count taken from
    the call's result where a layer reports one (e.g. Newton steps).
    """

    name: str
    start: float
    end: float
    parent: int | None
    root: int
    value: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; a span's parent is the span open when it started."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._targets = []

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        root = index if parent is None else self.spans[parent].root
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, root))
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, owner, attr, name, value_of=None):
        """Time ``owner.attr`` as span ``name`` while :meth:`installed`.

        ``value_of`` maps the call's result to the span's ``value``.
        """
        self._targets.append((owner, attr, name, value_of))

    def _timed(self, original, name, value_of):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if value_of is not None:
                self.spans[index].value = value_of(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every wrapped attribute by its timing wrapper, then restore it."""
        originals = []
        try:
            for owner, attr, name, value_of in self._targets:
                original = getattr(owner, attr)
                setattr(owner, attr, self._timed(original, name, value_of))
                originals.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def _covered(start, end, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total, reach = 0.0, start
    for a, b in clipped:
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - _covered(span.start, span.end, kids)
        for span, kids in zip(spans, children)
    ]


class SpanStats:
    """Per-name aggregates over the spans of operations named ``root_name``.

    Spans outside those operations (input parsing, correctness checks) are
    left out of every aggregate.
    """

    def __init__(self, spans, root_name):
        self.spans = list(spans)
        self.self_time = self_times(self.spans)
        self._kept = [self.spans[s.root].name == root_name for s in self.spans]

    def named(self, name):
        return [s for s, kept in zip(self.spans, self._kept) if kept and s.name == name]

    def count(self, name) -> int:
        return len(self.named(name))

    def total(self, name) -> float:
        return sum(s.duration for s in self.named(name))

    def median(self, name) -> float:
        durations = [s.duration for s in self.named(name)]
        return statistics.median(durations) if durations else 0.0

    def self_total(self, name) -> float:
        return sum(
            t for s, t, kept in zip(self.spans, self.self_time, self._kept)
            if kept and s.name == name
        )

    def child_count(self, parent_name, child_name) -> list[int]:
        """For every ``parent_name`` span, how many direct ``child_name`` children."""
        counts = {
            i: 0 for i, (s, kept) in enumerate(zip(self.spans, self._kept))
            if kept and s.name == parent_name
        }
        for s in self.spans:
            if s.name == child_name and s.parent in counts:
                counts[s.parent] += 1
        return list(counts.values())
