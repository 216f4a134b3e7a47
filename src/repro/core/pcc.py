"""The Prefix Check Cache (§3.1, §4.1).

Each committed credential owns a PCC (``cred.pcc``, alive while a task
holds the cred, as ``put_cred`` frees it): a bounded LRU memo of dentries
whose prefix check (search permission from the task's root to the dentry,
including any LSM decision) this credential has recently passed.  Entries
record the dentry's sequence number at check time; any permission or
topology change along the path bumps the sequence (see
:mod:`repro.core.coherence`), so stale entries fail validation and the
lookup falls back to the slowpath.

The paper sizes the PCC at 64 KB with 16-byte entries; the default
capacity of 4096 entries matches that, and the benchmark for PCC
working-set sensitivity (§6.1: updatedb's gain drops from 29% to 16.5%
when the tree outgrows the PCC) sweeps this knob.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.sim.costs import CostModel
from repro.sim.stats import Stats
from repro.vfs.dentry import Dentry

#: Paper's configuration: 64 KB of 16-byte entries.
DEFAULT_CAPACITY = 64 * 1024 // 16


class PrefixCheckCache:
    """One credential's memoized prefix checks."""

    __slots__ = ("costs", "stats", "capacity", "_entries", "_probe")

    def __init__(self, costs: CostModel, stats: Stats,
                 capacity: int = DEFAULT_CAPACITY):
        self.costs = costs
        self.stats = stats
        self.capacity = capacity
        self._entries: "OrderedDict[int, tuple]" = OrderedDict()
        self._probe = costs.run((("perm", "pcc_probe"),))

    def probe(self, dentry: Dentry, min_epoch: int = 0) -> bool:
        """True when a valid (seq-current) prefix check is cached.

        ``min_epoch`` is the lazy kernel's validity floor: the entry must
        have been inserted at or after the highest epoch stamp on the
        dentry's ancestor chain.  An epoch-stale entry is *kept* — the
        caller may pass a conservative floor, and a later revalidation
        with real permission checks will overwrite it (eager mode always
        passes 0, so epoch never disqualifies there).  Charged to "perm".
        """
        self.costs.apply(self._probe)
        entry = self._entries.get(id(dentry))
        if entry is None:
            return self._miss("pcc_miss", dentry)
        if entry[0] is not dentry or dentry.dead or entry[1] != dentry.seq:
            del self._entries[id(dentry)]
            return self._miss("pcc_stale", dentry)
        if not self.check(dentry, min_epoch):
            return self._miss("pcc_epoch_stale", dentry)
        self.stats.bump("pcc_hit")
        return True

    def check(self, dentry: Dentry, min_epoch: int = 0) -> bool:
        """:meth:`probe`'s hit, uncharged and uncounted (the caller counts
        it); a miss touches nothing."""
        entry = self._entries.get(id(dentry))
        if entry is None or entry[0] is not dentry or dentry.dead \
                or entry[1] != dentry.seq or entry[2] < min_epoch:
            return False
        self._entries.move_to_end(id(dentry))
        rec = self.costs.recorder
        if rec is not None:
            rec.pcc.append((self, dentry, None))
        return True

    def _miss(self, counter: str, dentry: Dentry) -> bool:
        """Count a failed probe.  A recorded resolution rests on it as
        much as on a hit: the miss holds only while ``dentry``'s slot
        stays as it is."""
        self.stats.bump(counter)
        rec = self.costs.recorder
        if rec is not None:
            rec.misses.append((self, self._entries, id(dentry)))
        return False

    def insert(self, dentry: Dentry, epoch: int = 0) -> None:
        """Memoize that this cred passed the prefix check to ``dentry``."""
        self.insert_all((dentry,), epoch)

    def insert_all(self, dentries, epoch: int = 0) -> None:
        """:meth:`insert` each of ``dentries`` (one or more) in one pass."""
        costs = self.costs
        costs.charge("pcc_insert", times=len(dentries))
        rec = costs.recorder
        if rec is not None:
            rec.pcc.extend((self, dentry, epoch) for dentry in dentries)
        self._store_all(dentries, epoch)

    def store(self, dentry: Dentry, epoch: int) -> None:
        """The state change of :meth:`insert`, uncharged.

        The resolution memo calls it to repeat a recorded insert: the
        entry goes to MRU, and one past capacity is pushed out, as the
        insert would.
        """
        self._store_all((dentry,), epoch)

    def _store_all(self, dentries, epoch: int) -> None:
        entries = self._entries
        capacity = self.capacity
        for dentry in dentries:
            key = id(dentry)
            entries[key] = (dentry, dentry.seq, epoch)
            entries.move_to_end(key)
            while len(entries) > capacity:
                entries.popitem(last=False)

    def invalidate_all(self) -> None:
        """Flush (sequence-counter wraparound handling, §3.1); the
        caller ``costs.forget()``s, as a wrap breaks every seq pin."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class AdaptivePrefixCheckCache(PrefixCheckCache):
    """A PCC that grows with its working set (the paper's future work).

    §6.1: "We expect that a production system would dynamically resize
    the PCC up to a maximum working set; we leave investigating an
    appropriate policy ... for future work."  The policy here is simple
    and conservative: when the cache is full and has missed more than
    half its capacity since the last resize — the signature of a working
    set larger than the cache — double the capacity, up to a hard cap
    (16 × the default capacity; tests pass a smaller ``max_capacity``).
    """

    __slots__ = ("max_capacity", "_misses_since_resize")

    def __init__(self, costs: CostModel, stats: Stats,
                 capacity: int = DEFAULT_CAPACITY,
                 max_capacity: int = 16 * DEFAULT_CAPACITY):
        super().__init__(costs, stats, capacity)
        self.max_capacity = max_capacity
        self._misses_since_resize = 0

    def probe(self, dentry: Dentry, min_epoch: int = 0) -> bool:
        hit = super().probe(dentry, min_epoch)
        if not hit:
            self._misses_since_resize += 1
            self._maybe_grow()
        return hit

    def _maybe_grow(self) -> None:
        if (len(self._entries) >= self.capacity
                and self._misses_since_resize > self.capacity // 2
                and self.capacity < self.max_capacity):
            self.capacity = min(self.capacity * 2, self.max_capacity)
            self._misses_since_resize = 0
            self.stats.bump("pcc_grow")
