"""The Prefix Check Cache (§3.1, §4.1).

Each committed credential owns a PCC: a bounded LRU memo of dentries whose
prefix check (search permission from the task's root to the dentry,
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

    __slots__ = ("costs", "stats", "capacity", "_entries", "__weakref__")

    def __init__(self, costs: CostModel, stats: Stats,
                 capacity: int = DEFAULT_CAPACITY):
        self.costs = costs
        self.stats = stats
        self.capacity = capacity
        self._entries: "OrderedDict[int, tuple]" = OrderedDict()

    def probe(self, dentry: Dentry, min_epoch: int = 0) -> bool:
        """True when a valid (seq-current) prefix check is cached.

        ``min_epoch`` is the lazy kernel's validity floor: the entry must
        have been inserted at or after the highest epoch stamp on the
        dentry's ancestor chain.  An epoch-stale entry is *kept* — the
        caller may pass a conservative floor, and a later revalidation
        with real permission checks will overwrite it (eager mode always
        passes 0, so epoch never disqualifies there).
        """
        self.costs.charge("pcc_probe")
        entry = self._entries.get(id(dentry))
        if entry is None:
            return self._miss("pcc_miss", dentry)
        cached_dentry, cached_seq, cached_epoch = entry
        if (cached_dentry is not dentry or dentry.dead
                or cached_seq != dentry.seq):
            del self._entries[id(dentry)]
            return self._miss("pcc_stale", dentry)
        if cached_epoch < min_epoch:
            return self._miss("pcc_epoch_stale", dentry)
        self._entries.move_to_end(id(dentry))
        self.stats.bump("pcc_hit")
        rec = self.costs.recorder
        if rec is not None:
            rec.pcc.append((self, dentry, None))
        return True

    def _miss(self, counter: str, dentry: Dentry) -> bool:
        """Count a failed probe.  A recorded resolution rests on it as
        much as on a hit: a later :meth:`insert` of ``dentry`` must kill
        the recording (``ResolutionMemo.kill_miss``)."""
        self.stats.bump(counter)
        rec = self.costs.recorder
        if rec is not None:
            rec.misses.append((self, dentry))
        return False

    def insert(self, dentry: Dentry, epoch: int = 0) -> None:
        """Memoize that this cred passed the prefix check to ``dentry``."""
        costs = self.costs
        costs.charge("pcc_insert")
        rec = costs.recorder
        if rec is not None:
            rec.pcc.append((self, dentry, epoch))
        self.store(dentry, epoch)

    def store(self, dentry: Dentry, epoch: int) -> None:
        """The state change of :meth:`insert`, uncharged.

        The resolution memo calls it to repeat a recorded insert: the
        entry goes to MRU, recordings that rest on its absence die, and
        so do those that rest on an entry pushed out past capacity.
        """
        entries = self._entries
        key = id(dentry)
        entries[key] = (dentry, dentry.seq, epoch)
        entries.move_to_end(key)
        memo = self.costs.memo
        memo.kill_miss(self, dentry)
        while len(entries) > self.capacity:
            memo.kill(entries.popitem(last=False)[1][0])

    def invalidate_all(self) -> None:
        """Flush (sequence-counter wraparound handling, §3.1).

        Memo entries rest on PCC contents: the caller ``costs.forget()``s.
        """
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
    set larger than the cache — double the capacity, up to a hard cap.
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
