"""Event counters for dcache behaviour.

The evaluation tables report hit rates and negative-dentry rates per
workload (Tables 1 and 2); benchmarks and tests read them from here.
"""

from __future__ import annotations

from typing import Dict


class Stats:
    """A bag of named monotonically increasing counters.

    Counter names used across the library:

    * ``lookup`` — path lookups requested (one per path-based syscall).
    * ``component_step`` — slowpath components walked.
    * ``dcache_hit`` / ``dcache_miss`` — per-component primary-table
      outcomes on the slowpath.
    * ``negative_hit`` — lookups answered by a negative dentry.
    * ``fastpath_hit`` / ``fastpath_miss`` — DLHT+PCC outcomes (optimized
      kernel only; a fastpath miss falls back to the slowpath).
    * ``pcc_hit`` / ``pcc_miss`` / ``pcc_stale`` — prefix-check cache.
    * ``fs_lookup`` — calls into the low-level file system (real misses).
    * ``disk_read`` — blocks fetched from the simulated device.
    * ``readdir_cached`` / ``readdir_fs`` — readdir served from the
      dcache vs the low-level FS.
    * ``dir_complete_set`` / ``dir_complete_broken`` — completeness flag
      transitions.
    * ``inval_dentry`` — dentries visited by coherence shootdowns.
    """

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def bump(self, name: str, by: int = 1) -> None:
        counters = self._counters
        counters[name] = counters.get(name, 0) + by

    def bump_many(self, deltas) -> None:
        """Bulk-merge counter deltas in one call.

        ``deltas`` is a mapping or an iterable of ``(name, delta)``
        pairs.  Integer addition is associative, so folding a whole
        delta set at once is exact — this is the hot-path form used by
        the charge-plan applier and the resolution memo's replay path
        instead of per-key :meth:`bump` loops.
        """
        counters = self._counters
        get = counters.get
        if isinstance(deltas, dict):
            deltas = deltas.items()
        for name, delta in deltas:
            counters[name] = get(name, 0) + delta

    def get(self, name: str) -> int:
        return self._counters.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        return dict(self._counters)

    def reset(self) -> None:
        self._counters.clear()

    # -- derived rates used by the Tables 1/2 harness -----------------------

    def hit_rate(self) -> float:
        """Fraction of lookups that never called the low-level FS."""
        lookups = self.get("lookup")
        if not lookups:
            return 1.0
        return 1.0 - min(1.0, self.get("fs_lookup") / lookups)

    def negative_rate(self) -> float:
        """Fraction of lookups answered by a negative dentry."""
        lookups = self.get("lookup")
        if not lookups:
            return 0.0
        return self.get("negative_hit") / lookups

    def fastpath_rate(self) -> float:
        """Fraction of lookups completing entirely on the fastpath."""
        lookups = self.get("lookup")
        if not lookups:
            return 0.0
        return self.get("fastpath_hit") / lookups

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._counters.items()))
        return f"Stats({inner})"
