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

    def advance(self, ns: float) -> None:
        """Advance the clock by ``ns`` nanoseconds (must be >= 0)."""
        if ns < 0:
            raise ValueError(f"clock cannot run backwards ({ns} ns)")
        self._ticks += to_ticks(ns)

    def elapsed_since(self, start_ns: float) -> float:
        """Nanoseconds elapsed since ``start_ns`` (a prior ``now_ns``)."""
        return (self._ticks - to_ticks(start_ns)) / TICKS_PER_NS

    def capture_state(self) -> int:
        """Opaque, exactly comparable token for the current time (charge
        plans arm on it: same token, same clock)."""
        return self._ticks


class Ticker:
    """Virtual-time deadline poller for amortized background work.

    The simulator has no preemption: virtual time only moves when code
    charges costs.  Periodic work (such as the lazy-coherence sweep) is
    therefore *polled* — callers ask :meth:`due` at convenient points
    (e.g. syscall entry) and run one batch when the interval elapsed.
    """

    __slots__ = ("clock", "_interval", "_next")

    def __init__(self, clock: Clock, interval_ns: float):
        if interval_ns <= 0:
            raise ValueError(f"ticker interval must be > 0 ({interval_ns})")
        self.clock = clock
        self._interval = to_ticks(interval_ns)
        self._next = clock._ticks + self._interval

    def due(self) -> bool:
        """True when at least one interval elapsed since the last fire."""
        return self.clock._ticks >= self._next

    def fire(self) -> None:
        """Consume the deadline: schedule the next fire one interval out.

        Re-arms relative to *now* (not the missed deadline) so a long
        quiet period does not cause a burst of catch-up fires.
        """
        self._next = self.clock._ticks + self._interval

    def fires_within(self, ticks: int) -> bool:
        """True if advancing the clock by ``ticks`` would reach the deadline.

        ``ticks`` is a :attr:`repro.sim.costs.ChargeVector.ticks` total.
        Used by the charge-plan applier: a plan that covers a run of
        syscalls may only be applied when none of the covered sweeper
        polls would fire, i.e. when the whole covered advance stays
        strictly short of the deadline.  Conservative by construction:
        every poll inside the covered run happens at a time strictly
        below ``now + ticks``.
        """
        return self.clock._ticks + ticks >= self._next


class Stopwatch:
    """Context manager measuring virtual time spent inside a block."""

    __slots__ = ("_clock", "_start", "elapsed_ns")

    def __init__(self, clock: Clock):
        self._clock = clock
        self._start = 0
        self.elapsed_ns = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = self._clock._ticks
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed_ns = (self._clock._ticks - self._start) / TICKS_PER_NS
