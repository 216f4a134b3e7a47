"""Virtual clock, kept in integer ticks and read in nanoseconds.

All latency in the simulator is virtual time accumulated on a
:class:`Clock`.  The clock is monotonic and deterministic: the same
sequence of operations always produces the same elapsed time, which is what
lets the benchmark harness reproduce the *shape* of the paper's latency
figures without real hardware.

Time is stored as Python ``int`` *ticks* of 10 ps
(:data:`TICKS_PER_NS` per nanosecond), so accumulation is exact and
order-independent.  Ticks are private to :mod:`repro.sim`: everything
outside reads nanoseconds (``ticks / TICKS_PER_NS``) and hands
nanoseconds in, which are rounded to the nearest tick.
"""

from __future__ import annotations

#: Ticks per virtual nanosecond (one tick = 10 ps).
TICKS_PER_NS = 100


def to_ticks(ns: float) -> int:
    """``ns`` rounded to the nearest tick."""
    return round(ns * TICKS_PER_NS)


class Clock:
    """Monotonic virtual clock measured in nanoseconds."""

    __slots__ = ("_ticks",)

    def __init__(self) -> None:
        self._ticks = 0

    @property
    def now_ns(self) -> float:
        """Current virtual time in nanoseconds."""
        return self._ticks / TICKS_PER_NS

    def capture_state(self) -> int:
        """Opaque, exactly comparable token for the current time (charge
        plans arm on it: same token, same clock)."""
        return self._ticks

