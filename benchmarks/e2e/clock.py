"""The benchmark's host clock: CPU seconds at reference speed.

The simulator is single-threaded and never waits for anything, so its
cost is its CPU time (user + sys, ``time.process_time``).  On the
sandbox this was written on that is not enough: the box runs at one of
several speeds for seconds or minutes at a time (a neighbour on the
same physical core; 0.83x to 1.8x have been seen), and CPU time
stretches with it, so plain CPU seconds of one commit spread 4-24 %
between runs where the bounds need 8 % (README, *Noise and bounds*).
So a fixed *probe* — a short pure-Python loop — is timed right before
and after every timed region, and the region is divided by how much
slower than :data:`REF_PROBE_S` the probe ran.  A host time reported by
the benchmark is therefore "CPU seconds at reference speed"; the raw
readings, wall clock included, and the slowdown are kept beside it in
every result.

What the probe costs and cannot do: one sample jitters by about 5 %
(quartile range), two are averaged per region, and medians over windows
and sums over dozens of regions take that down below 1 %.  It runs in
the child's process, so a change to the program that evicts the
probe's few cache lines or grows the heap it allocates from can nudge
it; the recorded slowdown and raw readings are there to tell that from
weather.  And it is one loop: the part of a slowdown that hits the
simulator's code differently remains.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, NamedTuple, Sequence, Tuple

#: The probe's duration on the reference box when nothing else runs.
#: Pinned: changing it rescales every host metric.
REF_PROBE_S = 1.25e-3


def probe() -> float:
    """CPU seconds one run of the fixed reference loop takes right now."""
    start = time.process_time()
    table: dict = {}
    for i in range(20000):
        key = i & 255
        table[key] = table.get(key, 0) + i
    return time.process_time() - start


class Timing(NamedTuple):
    """One timed region, or several added up: raw CPU (user + sys) and
    wall seconds, and the slowdown (probe time over
    :data:`REF_PROBE_S`) they were measured under."""

    raw_cpu: float
    raw_wall: float
    slowdown: float

    @property
    def seconds(self) -> float:
        """CPU seconds at reference speed: the benchmark's host time."""
        return self.raw_cpu / self.slowdown

    @classmethod
    def total(cls, parts: Sequence["Timing"]) -> "Timing":
        """The sum of ``parts``: its ``seconds`` is the sum of theirs."""
        raw_cpu = sum(t.raw_cpu for t in parts)
        seconds = sum(t.seconds for t in parts)
        return cls(raw_cpu, sum(t.raw_wall for t in parts),
                   raw_cpu / seconds if seconds else 1.0)


def timed_each(thunks: Sequence[Callable[[], Any]]
               ) -> Tuple[List[Any], List[Timing]]:
    """Run each thunk between two probes (neighbours share one);
    returns their results and their timings.  The shorter a region, the
    closer its probes are to the work they calibrate, so callers cut
    long regions into several thunks."""
    results: List[Any] = []
    timings: List[Timing] = []
    before = probe()
    for thunk in thunks:
        cpu_start = time.process_time()
        start = time.perf_counter()
        results.append(thunk())
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        after = probe()
        timings.append(Timing(cpu, wall, (before + after) / (2 * REF_PROBE_S)))
        before = after
    return results, timings


def timed(thunk: Callable[[], Any]) -> Tuple[Any, Timing]:
    """:func:`timed_each` for a single region."""
    results, timings = timed_each([thunk])
    return results[0], timings[0]
