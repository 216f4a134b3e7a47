"""Span recorder for the traced run.

Spans are taken from outside the program under test: context managers
and wrappers around its public calls, kept in memory as
``[name, cat, start_ns, end_ns, parent, window]`` rows (``parent`` is a
row index, -1 at the top) and written out as Chrome-trace JSON when the
run ends.  A layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterable, List

NAME, CAT, START, END, PARENT, WINDOW = range(6)


class Recorder:
    """Collects spans of one child process."""

    active = True

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Index of the measured window being recorded (-1: setup).
        self.window = -1

    @contextmanager
    def span(self, name: str, cat: str = "phase"):
        """Record a span that may contain other spans."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        row = [name, cat, time.perf_counter_ns(), 0, parent, self.window]
        self.spans.append(row)
        self._stack.append(index)
        try:
            yield
        finally:
            row[END] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, cat: str) -> Callable:
        """``fn`` recorded as a leaf span per call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append([name, cat, start, clock(),
                              stack[-1] if stack else -1, self.window])

        return traced


class NullRecorder:
    """The untraced run's recorder: records nothing, wraps nothing."""

    active = False
    window = -1

    def span(self, name: str, cat: str = "phase"):
        return nullcontext()

    def wrap(self, name: str, fn: Callable, cat: str) -> Callable:
        return fn


NULL = NullRecorder()


def self_times(spans: List[list]) -> List[int]:
    """Self nanoseconds per span: duration minus direct children."""
    out = [row[END] - row[START] for row in spans]
    for row in spans:
        if row[PARENT] >= 0:
            out[row[PARENT]] -= row[END] - row[START]
    return out


def self_time_by_name(spans: List[list]) -> Dict[str, float]:
    """Self seconds summed per span name."""
    totals: Dict[str, float] = {}
    for row, ns in zip(spans, self_times(spans)):
        totals[row[NAME]] = totals.get(row[NAME], 0.0) + ns / 1e9
    return totals


def chrome_trace(children: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Chrome-trace document (``chrome://tracing``, Perfetto) for the
    spans of several children; one pid per (workload, profile)."""
    events: List[Dict[str, Any]] = []
    for pid, child in enumerate(children, start=1):
        label = f"{child['workload']}[{child['profile']}]"
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_name", "args": {"name": label}})
        spans = child["spans"]
        origin = min((row[START] for row in spans), default=0)
        for index, row in enumerate(spans):
            events.append({
                "ph": "X", "pid": pid, "tid": 0, "name": row[NAME],
                "cat": row[CAT], "ts": (row[START] - origin) / 1e3,
                "dur": (row[END] - row[START]) / 1e3,
                "args": {"id": index, "parent": row[PARENT],
                         "window": row[WINDOW],
                         "workload": child["workload"],
                         "profile": child["profile"]}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
