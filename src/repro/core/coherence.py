"""Coherence with permission and path changes (§3.2).

The DLHT and the PCC memoize one map — (namespace, credential, path) to
an outcome — and a *coherence policy* is the rule for when a memoized
answer may still be served.  The kernel constructs exactly one policy
and the fastpath (:mod:`repro.core.fastpath`) talks to it through one
narrow interface:

* ``shootdown_single(dentry)`` / ``shootdown_subtree(dentry)`` — what a
  mutation does before a dentry's (or a directory subtree's)
  permissions or position change;
* ``pos_state(task, pos, rebuild=None) -> (state, floor)`` — the hash
  state of a *trusted* position (start directory, ``..`` hop, walk
  anchor) and the epoch floor a PCC entry for it must carry;
* ``accept(task, ns, pcc, dentry, sig=None, anchor=None)`` — whether a
  DLHT probe hit may be served: its epoch floor, ``None`` (take the
  slowpath) or :data:`RETRY` (the probed key was discarded);
* ``on_miss(task, ns, pcc, start, comps, parent_state, floor)`` —
  whether a full-path probe miss may be completed from its cached parent
  instead of re-walking the prefix;
* ``epoch`` stamps what population inserts, and ``sweeper`` (or None) is
  polled from syscall entry.

:class:`EagerCoherence` is the paper's rule: a mutation bumps the
sequence counter of every cached descendant (invalidating all PCC
entries that reference it, without touching any PCC directly) and evicts
it from its DLHT, so mutation cost is linear in the cached subtree — the
Figure 7 trade-off, charged as ``inval_per_dentry`` — and whatever a
probe still finds is current.  :class:`~repro.core.epoch.EpochCoherence`
flips the trade (cf. Stage Lookup, arXiv:2010.08741): O(1) mutations,
and hits earn their answer on touch.  Under either, a global
*invalidation counter* is read before a slowpath walk and checked before
its results repopulate the caches, so a walk that raced a mutation can
never re-cache stale state.  See ``docs/coherence.md`` for the staleness
argument.
"""

from __future__ import annotations

import weakref
from typing import List

from repro.sim.costs import CostModel
from repro.sim.stats import Stats
from repro.vfs import path as vfspath
from repro.vfs.dcache import DcacheHooks
from repro.vfs.dentry import Dentry

#: Sequence counters are 32-bit in the paper's prototype; wraparound
#: flushes every PCC and DLHT (§3.1).  Kept small enough to test.
SEQ_WRAP = 1 << 32

#: ``accept`` verdict: validation discarded the probed key.  The slot is
#: free now, so the caller may retry trailing-component completion
#: before giving up and taking the slowpath.
RETRY = object()


def rootward(ns, mount, dentry):
    """Yield ``(dentry, mount)`` from a position up to the namespace root.

    Crosses mount boundaries: a mounted root is followed by its
    mountpoint in the parent mount (which contributes the name; the
    mounted root itself has none).  The last pair is the namespace root
    exactly when the position still has a canonical path — the walk
    stops short at a detached mount or an unparented dentry.
    """
    root_mount = ns.root_mount
    for _ in range(vfspath.PATH_MAX):
        yield dentry, mount
        if dentry is mount.root_dentry:
            if mount is root_mount:
                return
            mount, dentry = mount.parent, mount.mountpoint
            if mount is None:
                return
        else:
            dentry = dentry.parent
            if dentry is None:
                return


class Coherence:
    """What both policies share: cache and mount registries, the
    invalidation counter, and seqcount wraparound."""

    #: Whether DLHTs keep a dentry's old-path keys beside its primary
    #: registration (mutations that do not evict leave them behind).
    multi_key = False
    #: Background reclamation, polled from syscall entry (None: nothing
    #: stale is ever left behind to reclaim).
    sweeper = None

    def __init__(self, costs: CostModel, stats: Stats):
        self.costs = costs
        self.stats = stats
        #: Global invalidation counter guarding slowpath repopulation.
        self.counter = 0
        #: Global epoch: what population stamps on the entries it
        #: inserts.  Only :mod:`repro.core.epoch` ever advances it.
        self.epoch = 0
        #: Slowpath walks currently in flight (between a walk's ``begin``
        #: hook and its ``_apply``/``abandon``).  Mutations may only skip
        #: the global counter bump when nothing is mid-walk.
        self.walks_active = 0
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

    def bind(self, hasher, slow) -> None:
        """Meet the lookup engine's path hasher and slowpath walker
        (called once, by ``FastLookup.__init__``)."""

    # -- cache registry --------------------------------------------------------

    def track_pcc(self, pcc) -> None:
        self._pcc_refs.append(weakref.ref(pcc))

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

    def bump_counter(self) -> None:
        self.costs.charge("inval_counter_bump")
        self.counter += 1
        # No ``costs.forget()`` here: memoized resolutions snapshot the
        # counter (so non-steady entries lapse on their own), steady
        # entries are covered by the dcache's scoped kills plus their
        # per-dentry seq / inode / signature pins, and plan guards
        # re-validate fd-table state at apply time.

    # -- wraparound ------------------------------------------------------------------

    def wraparound_flush(self) -> None:
        """Version wraparound: invalidate every active PCC and DLHT."""
        self.stats.bump("seq_wraparound_flush")
        for pcc in self.pccs:
            pcc.invalidate_all()
        for dlht in self.dlhts:
            dlht.flush()
        # A wrap breaks every memo entry's seqcount pins at once and
        # renumbers the world under every captured plan; no scoped kill
        # sees it.
        self.costs.forget()


class EagerCoherence(Coherence):
    """The paper's policy: recursive shootdown at mutation time.

    Nothing stale survives a mutation, so a position's state is simply
    its stored hash state and a probe hit is accepted by one PCC probe.
    """

    # -- shootdowns ----------------------------------------------------------------

    def _invalidate_bulk(self, frontier: List[Dentry]) -> None:
        """Invalidate a collected frontier: bump each dentry's seq, drop
        its fast state and its DLHT registration.

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

    def shootdown_single(self, dentry: Dentry) -> None:
        """Invalidate one dentry (file chmod/chown, unlink, ...)."""
        self._invalidate_bulk([dentry])
        self.bump_counter()

    def shootdown_subtree(self, dentry: Dentry) -> None:
        """Invalidate a dentry and all cached descendants.

        Walks the cached subtree — cost linear in its size (§3.2) —
        descending through mountpoints so a prefix check memoized for a
        path that crosses a mount below the changed directory dies too.

        The global counter bump is skipped when the walk found no cached
        fastpath state to invalidate *and* no slowpath walk is in flight
        — the bump exists to fence racing repopulation, and with nothing
        cached and nobody mid-walk there is nothing to fence.
        """
        # Collect the frontier first (flat list, exact DFS order of the
        # old per-dentry recursive walk — invalidation mutates no tree
        # edges, so collect-then-apply visits the same dentries in the
        # same order), then shoot it down in one column-bound bulk pass.
        found_fast = 0
        visited = set()
        mounts = self._mounts_on
        stack = [dentry]
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
        self._invalidate_bulk(frontier)
        if found_fast == 0 and self.walks_active == 0:
            self.stats.bump("counter_bump_elided")
            return
        self.bump_counter()

    # -- the lookup side -----------------------------------------------------------

    def pos_state(self, task, pos, rebuild=None):
        """The position's stored hash state (floor 0: epochs never move).

        A shot-down position has none; ``rebuild`` — the engine's
        from-the-tree recompute, passed by a slowpath walk about to
        anchor its population here — restores it.
        """
        fast = pos.dentry.fast
        state = fast.hash_state if fast is not None else None
        if state is None and rebuild is not None:
            state = rebuild(task, pos)
        return state, 0

    def accept(self, task, ns, pcc, dentry, sig=None, anchor=None):
        """A hit is current by construction; it needs its prefix check."""
        with self.costs.scope("perm"):
            return 0 if pcc.probe(dentry) else None

    def on_miss(self, task, ns, pcc, start, comps, parent_state, floor):
        """A miss means not cached: the slowpath walk populates it."""
        return None


class FastDcacheHooks(DcacheHooks):
    """Keeps the fastpath structures coherent with dcache transitions.

    The kernel sets ``self.dcache`` right after constructing the dcache
    (the two reference each other).
    """

    __slots__ = ("dcache",)

    def __init__(self):
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

    def on_unhash(self, dentry: Dentry) -> None:
        fast = dentry.fast
        if fast is not None:
            fast.invalidate()
            if fast.dlht is not None:
                fast.dlht.remove(dentry)

    on_evict = on_unhash

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
