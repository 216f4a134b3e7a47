"""Coherence with permission and path changes (§3.2).

The optimized kernel trades slower mutations for faster lookups: before a
directory's permissions or position change, every cached descendant gets
its sequence counter bumped (invalidating all PCC entries that reference
it, without touching any PCC directly) and is evicted from its direct
lookup hash table.  A global *invalidation counter* is read before a
slowpath walk and checked before its results repopulate the caches, so a
walk that raced a mutation can never re-cache stale state.

Mutation cost therefore becomes linear in the cached subtree size — the
Figure 7 trade-off — charged here as ``inval_per_dentry``.

The ``optimized-lazy`` kernel keeps the lookup side but flips the
mutation side to *epoch-based lazy invalidation* (cf. Stage Lookup,
arXiv:2010.08741): a mutation bumps one global epoch and stamps the
mutated dentry with it — O(1), no subtree walk — and fastpath hits pay
for it instead, by checking that no dentry on their cached path carries
a stamp newer than the epoch snapshot captured when the entry was
populated.  Stale entries are revalidated or evicted on touch
(:mod:`repro.core.fastpath`), and :class:`LazySweeper` amortizes the
reclamation of never-touched stale entries so memory accounting stays
honest.  See ``docs/coherence.md`` for the staleness argument.
"""

from __future__ import annotations

import weakref
from typing import List

from repro.sim.costs import CostModel
from repro.sim.stats import Stats
from repro.vfs.dcache import DcacheHooks
from repro.vfs.dentry import Dentry

#: Sequence counters are 32-bit in the paper's prototype; wraparound
#: flushes every PCC and DLHT (§3.1).  Kept small enough to test.
SEQ_WRAP = 1 << 32


class Coherence:
    """Invalidation engine shared by all optimized-kernel components."""

    def __init__(self, costs: CostModel, stats: Stats, lazy: bool = False):
        self.costs = costs
        self.stats = stats
        #: Lazy mode: shootdowns stamp epochs instead of walking subtrees.
        self.lazy = lazy
        #: Global invalidation counter guarding slowpath repopulation.
        self.counter = 0
        #: Lazy mode's global epoch: bumped by every mutation that would
        #: have been an eager shootdown; per-dentry stamps come from it.
        self.epoch = 0
        #: Slowpath walks currently in flight (between a walk's ``begin``
        #: hook and its ``_apply``/``abandon``).  Mutations may only skip
        #: the global counter bump when nothing is mid-walk.
        self.walks_active = 0
        #: Monotonic dentry version source (reallocation staleness, §3.1).
        self._version_source = 0
        #: Weak references to every live PCC / DLHT (wraparound flush and
        #: the lazy sweep must reach them all, but must not keep caches of
        #: discarded namespaces or dead credentials alive forever).
        self._pcc_refs: List = []
        self._dlht_refs: List = []
        #: id(mountpoint dentry) -> mounted root dentries (a multiset:
        #: cloned namespaces register the same pair again).  Shootdowns
        #: descend through mountpoints so a permission change above a
        #: mount invalidates the memoized prefix checks inside it.
        self._mounts_on: dict = {}
        #: Resolution memo: flushed on seqcount wraparound and handed to
        #: every tracked PCC (set by the kernel when
        #: ``DcacheConfig.resolution_memo`` is on).
        self.memo = None
        #: Charge-plan registry to generation-bump on wraparound (set by
        #: the kernel; see :class:`repro.sim.costs.ChargePlanRegistry`).
        #: Deliberately NOT bumped by :meth:`bump_counter` — plan guards
        #: re-validate fd-table state at apply time, so per-pass
        #: structural mutations need no plan invalidation; the gen
        #: covers only out-of-band bulk flushes.
        self.plans = None

    # -- cache registry --------------------------------------------------------

    def track_pcc(self, pcc) -> None:
        self._pcc_refs.append(weakref.ref(pcc))
        # Memo recordings rest on PCC contents: the PCC reports its
        # inserts and evictions to the memo.
        pcc.memo = self.memo

    def track_dlht(self, dlht) -> None:
        self._dlht_refs.append(weakref.ref(dlht))

    @staticmethod
    def _live(refs: List) -> List:
        alive = []
        dead = False
        for ref in refs:
            obj = ref()
            if obj is None:
                dead = True
            else:
                alive.append(obj)
        if dead:
            refs[:] = [ref for ref in refs if ref() is not None]
        return alive

    @property
    def pccs(self) -> List:
        """Every live PCC (dead ones are pruned as a side effect)."""
        return self._live(self._pcc_refs)

    @property
    def dlhts(self) -> List:
        """Every live DLHT (dead ones are pruned as a side effect)."""
        return self._live(self._dlht_refs)

    # -- mount registry ---------------------------------------------------------

    def register_mount(self, mountpoint: Dentry, root: Dentry) -> None:
        self._mounts_on.setdefault(id(mountpoint), []).append(root)

    def unregister_mount(self, mountpoint: Dentry, root: Dentry) -> None:
        roots = self._mounts_on.get(id(mountpoint))
        if not roots:
            return
        # Match by identity: dentries are compared as tree nodes, and an
        # equality scan could drop a different namespace's registration
        # of the same (mountpoint, root) pair.
        for i, candidate in enumerate(roots):
            if candidate is root:
                del roots[i]
                break
        if not roots:
            del self._mounts_on[id(mountpoint)]

    # -- counter ---------------------------------------------------------------

    def read_counter(self) -> int:
        return self.counter

    def bump_counter(self) -> None:
        self.costs.charge("inval_counter_bump")
        self.counter += 1
        # No memo flush here: memoized resolutions snapshot the counter
        # (so non-steady entries lapse on their own), and steady entries
        # are covered by the dcache's scoped kills plus their per-dentry
        # seq / inode / signature pins.

    # -- shootdowns ----------------------------------------------------------------

    def _invalidate_one(self, dentry: Dentry) -> None:
        self.costs.charge("inval_per_dentry")
        self.stats.bump("inval_dentry")
        seq = dentry.seq + 1
        dentry.seq = seq
        if seq >= SEQ_WRAP:
            self.wraparound_flush()
        fast = dentry.fast
        if fast is not None:
            fast.invalidate()
            if fast.dlht is not None:
                fast.dlht.remove(dentry)

    def _invalidate_bulk(self, frontier: List[Dentry]) -> None:
        """Apply :meth:`_invalidate_one` to a collected frontier in bulk.

        One charge and one Stats bump cover the whole frontier (both are
        integer sums, so this is what N scalar calls would add up to).
        """
        n = len(frontier)
        self.costs.charge("inval_per_dentry", times=n)
        self.stats.bump_many((("inval_dentry", n),))
        wraps = 0
        for dentry in frontier:
            seq = dentry.seq + 1
            dentry.seq = seq
            if seq >= SEQ_WRAP:
                wraps += 1
            fast = dentry.fast
            if fast is not None:
                fast.invalidate()
                if fast.dlht is not None:
                    fast.dlht.remove(dentry)
        # Wraparound (32-bit seq space) is once-in-a-blue-moon; the flush
        # itself charges nothing, so deferring it past the loop is
        # observationally identical to the scalar walk firing it inline.
        for _ in range(wraps):
            self.wraparound_flush()

    def _lazy_stamp(self, dentry: Dentry) -> None:
        """O(1) lazy shootdown: advance the epoch, stamp the dentry.

        Descendants are untouched; their next fastpath hit observes the
        stamp on its ancestor chain and revalidates (or dies) then.  The
        dentry's own seq is bumped too so PCC entries *for this dentry*
        (whose memoized prefix runs through the mutated node's parent,
        not the node itself) still obey the eager staleness rule when the
        mutation moved or re-permissioned the node's parent directory —
        and, symmetrically, so reallocation staleness keeps working.
        """
        self.costs.charge("epoch_bump")
        self.stats.bump("lazy_epoch_bump")
        epoch = self.epoch + 1
        self.epoch = epoch
        dentry.epoch = epoch
        seq = dentry.seq + 1
        dentry.seq = seq
        if seq >= SEQ_WRAP:
            self.wraparound_flush()

    def shootdown_single(self, dentry: Dentry) -> None:
        """Invalidate one dentry (file chmod/chown, unlink, ...)."""
        if self.lazy:
            self._lazy_stamp(dentry)
        else:
            self._invalidate_one(dentry)
        self.bump_counter()

    def shootdown_subtree(self, dentry: Dentry,
                          include_self: bool = True) -> None:
        """Invalidate a dentry and all cached descendants.

        Eager mode walks the cached subtree — cost linear in its size
        (§3.2), descending through mountpoints so a prefix check memoized
        for a path that crosses a mount below the changed directory dies
        too.  Lazy mode stamps the one mutated dentry instead; descendant
        state (on either side of a mount boundary) stays in the tables
        and is revalidated on touch.

        The global counter bump is skipped when the eager walk found no
        cached fastpath state to invalidate *and* no slowpath walk is in
        flight — the bump exists to fence racing repopulation, and with
        nothing cached and nobody mid-walk there is nothing to fence.
        """
        if self.lazy:
            root = dentry if include_self else None
            if root is None:
                # Lexical include_self=False callers stamp the parent's
                # children; the paper's syscall layer always passes the
                # mutated dentry itself, but stay correct regardless.
                self.epoch += 1
                self.costs.charge("epoch_bump")
                self.stats.bump("lazy_epoch_bump")
                for child in dentry.children.values():
                    child.epoch = self.epoch
                    child.seq += 1
            else:
                self._lazy_stamp(root)
            self.bump_counter()
            return
        # Collect the frontier first (flat list, exact DFS order of the
        # old per-dentry recursive walk — invalidation mutates no tree
        # edges, so collect-then-apply visits the same dentries in the
        # same order), then shoot it down in one column-bound bulk pass.
        found_fast = 0
        visited = set()
        mounts = self._mounts_on
        stack = [dentry] if include_self else \
            list(dentry.children.values()) + \
            list(mounts.get(id(dentry), ()))
        frontier: List[Dentry] = []
        append = frontier.append
        while stack:
            current = stack.pop()
            ident = id(current)
            if ident in visited:
                continue
            visited.add(ident)
            if current.fast is not None:
                found_fast += 1
            append(current)
            stack.extend(current.children.values())
            roots = mounts.get(ident)
            if roots:
                stack.extend(roots)
        if frontier:
            self._invalidate_bulk(frontier)
        if found_fast == 0 and self.walks_active == 0:
            self.stats.bump("counter_bump_elided")
            return
        self.bump_counter()

    # -- wraparound ------------------------------------------------------------------

    def wraparound_flush(self) -> None:
        """Version wraparound: invalidate every active PCC and DLHT."""
        self.stats.bump("seq_wraparound_flush")
        for pcc in self.pccs:
            pcc.invalidate_all()
        for dlht in self.dlhts:
            dlht.flush()
        memo = self.memo
        if memo is not None:
            # A seq wrap breaks every memo entry's seqcount pins at once;
            # scoped kills cannot see it, so flush explicitly (even when
            # no PCC exists to do it as a side effect).
            memo.flush()
        if self.plans is not None:
            self.plans.bump_gen()


class LazySweeper:
    """Amortized reclamation of never-touched stale lazy entries.

    Touch-time revalidation only reaches entries that get probed again;
    an entry for a path nobody looks up anymore would sit in its DLHT
    (and its PCC) forever, which both leaks memory and makes
    ``sim/memory.py`` overstate live cache state.  The sweeper is polled
    from syscall entry (virtual time has no preemption) and, each time
    its :class:`~repro.sim.clock.Ticker` fires, examines one small batch
    of DLHT keys and PCC entries — discarding the stale, at a bounded
    per-syscall cost.
    """

    #: Virtual pause between sweep batches (1 ms of simulated time).
    INTERVAL_NS = 1_000_000.0
    #: Keys / entries examined per fire.
    BATCH = 64

    __slots__ = ("coherence", "fast", "ticker", "batch",
                 "_dlht_work", "_pcc_work", "pass_gen")

    def __init__(self, coherence: Coherence, fast, ticker,
                 batch: int = BATCH):
        self.coherence = coherence
        #: The kernel's FastLookup: owns the key-revalidation logic.
        self.fast = fast
        self.ticker = ticker
        self.batch = batch
        self._dlht_work: List = []  # (dlht_ref, [(key, dentry)...]) snapshots
        self._pcc_work: List = []   # (pcc_ref, [entry ids...]) snapshots
        #: Pass generation: bumped each time the DLHT worklist refills.
        #: A pass examines exactly the (key, dentry) entries that existed
        #: at refill time; a key reclaimed mid-pass by a shootdown and
        #: re-registered to a different dentry is *not* re-scanned (it
        #: was never part of this pass — see the identity guard below).
        self.pass_gen = 0

    def poll(self) -> None:
        if not self.ticker.due():
            return
        self.ticker.fire()
        self.sweep_once()

    def sweep_once(self) -> None:
        self._sweep_dlhts()
        self._sweep_pccs()

    def _sweep_dlhts(self) -> None:
        if not self._dlht_work:
            self.pass_gen += 1
            self._dlht_work = [(weakref.ref(dlht), list(dlht.items()))
                               for dlht in self.coherence.dlhts]
            if not self._dlht_work:
                return
        budget = self.batch
        while budget > 0 and self._dlht_work:
            dlht_ref, entries = self._dlht_work[-1]
            dlht = dlht_ref()
            if dlht is None or not entries:
                self._dlht_work.pop()
                continue
            while entries and budget > 0:
                key, dentry = entries.pop()
                budget -= 1
                # Identity guard: a shootdown landing mid-pass reclaims
                # entries whose keys are still in this snapshot; if the
                # slot was re-registered to a different dentry since the
                # refill, the snapshotted entry is gone and the fresh one
                # belongs to the next pass — re-scanning it here would
                # double-charge its validation.
                if dlht.peek(key) is not dentry:
                    continue
                if self.fast.sweep_key(dlht, key):
                    self.coherence.stats.bump("sweep_discard")

    def _sweep_pccs(self) -> None:
        if not self._pcc_work:
            self._pcc_work = [(weakref.ref(pcc), list(pcc._entries.keys()))
                              for pcc in self.coherence.pccs]
            if not self._pcc_work:
                return
        costs = self.coherence.costs
        budget = self.batch
        while budget > 0 and self._pcc_work:
            pcc_ref, ids = self._pcc_work[-1]
            pcc = pcc_ref()
            if pcc is None or not ids:
                self._pcc_work.pop()
                continue
            while ids and budget > 0:
                entry_id = ids.pop()
                budget -= 1
                costs.charge("lazy_validate")
                entry = pcc._entries.get(entry_id)
                if entry is None:
                    continue
                dentry, seq, _epoch = entry
                if dentry.dead or dentry.seq != seq:
                    del pcc._entries[entry_id]
                    self.coherence.stats.bump("sweep_discard")


class FastDcacheHooks(DcacheHooks):
    """Keeps the fastpath structures coherent with dcache transitions.

    The kernel sets ``self.dcache`` right after constructing the dcache
    (the two reference each other).
    """

    __slots__ = ("coherence", "dcache")

    def __init__(self, coherence: Coherence):
        self.coherence = coherence
        self.dcache = None

    def _drop_children(self, dentry: Dentry) -> None:
        if self.dcache is None:
            return
        # d_drop detaches each child from ``dentry.children`` as it goes,
        # so popping until empty avoids copying the dict per level (the
        # recursive d_drop does its own traversal below each child).
        children = dentry.children
        d_drop = self.dcache.d_drop
        while children:
            _name, child = children.popitem()
            d_drop(child)

    def on_evict(self, dentry: Dentry) -> None:
        self._remove_fast(dentry)

    def on_unhash(self, dentry: Dentry) -> None:
        self._remove_fast(dentry)

    @staticmethod
    def _remove_fast(dentry: Dentry) -> None:
        fast = dentry.fast
        if fast is not None:
            fast.invalidate()
            if fast.dlht is not None:
                fast.dlht.remove(dentry)

    def on_make_negative(self, dentry: Dentry) -> None:
        # A positive dentry turning negative keeps its DLHT entry (the
        # path now resolves to cached nonexistence) but loses children:
        # any stale stubs, aliases, or ENOTDIR negatives below it
        # describe paths that no longer mean anything.
        self._drop_children(dentry)

    def on_make_positive(self, dentry: Dentry) -> None:
        # §5.2: creating a file over a negative dentry evicts any deep
        # negative children cached below it.
        self._drop_children(dentry)
        # The negative dentry may have been a symlink before (unlink
        # keeps it registered for fast ENOENT); the stored target
        # signature described the *old* inode's target and must not
        # survive re-instantiation.
        if dentry.fast is not None:
            dentry.fast.link_target_state = None
