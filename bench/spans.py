"""Spans recorded from outside the program.

The tracer replaces a function where its caller looks it up (a module or
class attribute) with a wrapper that records a span: name, start, end and
the span that was open when it started. Spans stay in memory until the
caller writes them out. A span's self time is its duration minus the part
of that interval its children cover; children running on several threads
may overlap, so their intervals are merged before they are subtracted.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records spans for wrapped functions; `restore` undoes every wrap."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # a worker thread's first span belongs to whatever the main thread
        # is waiting in, e.g. simulate.run joining its thread pool
        return self._main_stack[-1] if self._main_stack else None

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), float("nan"), self._parent(stack)))
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] += amount

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Route `owner.attr` through a span named `name`.

        `hook(args, kwargs, result)` runs after the span closes, so counting
        work is not charged to the layer.
        """
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        setattr(owner, attr, kind(traced) if kind else traced)
        self._patched.append((owner, attr, raw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for idx, span in enumerate(spans):
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[idx]
            if c.end > span.start and c.start < span.end
        ]
        out.append(span.end - span.start - covered_length(clipped))
    return out


def by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed self time and summed duration."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        entry = out[span.name]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += span.end - span.start
    return dict(out)
