"""In-memory spans recorded from outside the program, and attribution.

A :class:`Tracer` wraps public methods on instances the benchmark built
(instance attributes shadow the class methods, so the program's own
internal calls through ``self.engine.<method>`` are caught too) and the
client's protocol round trips.  Each span is ``(name, start, end,
parent, ts)`` where ``parent`` is the index of the enclosing span or -1.
Spans stay in memory until :meth:`Tracer.dump` at exit.

A span's self time is its duration minus the part of its interval that
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

Span = tuple[str, float, float, int, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Any] = []  # a Span, or None while still open
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.ts = -1
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, index: int, parent: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.ts)

    def wrap(
        self,
        obj: Any,
        method: str,
        name: str,
        count: Callable[..., int] | None = None,
    ) -> None:
        """Record a span around every call of ``obj.<method>``; with
        ``count``, add ``count(*args)`` to ``counts[name]`` per call."""
        original = getattr(obj, method)

        def traced(*args: Any, **kwargs: Any) -> Any:
            index, parent = self._open()
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index, parent, name, start)
                if count is not None:
                    self.counts[name] += count(*args)

        setattr(obj, method, traced)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, parent, name, start)

    def finished(self) -> list[Span]:
        """Every span, once none is open (indices are parent links)."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        return self.spans

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.finished(), "counts": self.counts}))


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: defaultdict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name] += (end - start) - _covered(children.get(index, []), start, end)
    return dict(totals)


def durations(spans: list[Span], name: str) -> list[float]:
    return [end - start for span_name, start, end, _, _ in spans if span_name == name]
