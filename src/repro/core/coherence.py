"""Coherence with permission and path changes (§3.2).

The DLHT and the PCC memoize one map — (namespace, credential, path) to
an outcome — and a *coherence policy* is the rule for when a memoized
answer may still be served.  The kernel constructs exactly one policy
and the fastpath (:mod:`repro.core.fastpath`) talks to it through one
narrow interface:

* ``shootdown_single(dentry)`` / ``shootdown_subtree(dentry)`` — what a
  mutation does before a dentry's (or a directory subtree's)
  permissions or position change;
* ``pos_state(task, pos, rebuild=False) -> (state, floor)`` — the hash
  state of a *trusted* position (start directory, ``..`` hop, walk
  anchor) and the epoch floor a PCC entry for it must carry; a slowpath
  walk about to anchor there passes ``rebuild=True``, and a position
  with no state is then rehashed from the tree (``rehash``);
* ``accept(task, ns, pcc, dentry, anchor=None)`` — whether a DLHT probe
  hit (the dentry's one key) may be served: its epoch floor, ``None``
  (take the slowpath) or :data:`RETRY` (the probed key was discarded);
* ``admit(ns, pcc, dentry)`` — ``accept``'s O(1) case alone,
  uncharged: the floor, or ``None`` with nothing touched;
* ``on_miss(task, ns, pcc, start, comps, parent_state, floor)`` —
  whether a full-path probe miss may be completed from its cached parent
  instead of re-walking the prefix (``None`` for a policy that never
  completes one);
* ``epoch`` stamps what population inserts.

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

from typing import Callable, List, Tuple

from repro.core.fastdentry import fast_of
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


def _subtree(dentry: Dentry) -> List[Dentry]:
    """``dentry`` and its cached descendants, depth first, children
    before mounted roots.

    A tree needs no visited set: each dentry has one parent.  Only a
    mount can reach a dentry twice (a bind mount of a directory below
    itself is a cycle), so the set starts at the first mountpoint, from
    the dentries collected so far.
    """
    frontier: List[Dentry] = []
    visited = None
    stack = [dentry]
    while stack:
        current = stack.pop()
        roots = current.mounted_roots
        if visited is None and roots:
            visited = set(map(id, frontier))
        if visited is not None:
            ident = id(current)
            if ident in visited:
                continue
            visited.add(ident)
            stack.extend(reversed(roots))
        frontier.append(current)
        stack.extend(reversed(current.children.values()))
    return frontier


class Coherence:
    """What both policies share: the invalidation counter, seqcount
    wraparound, which flushes the kernel's ``live_caches()``, and the
    charged rehash of a position's canonical path."""

    def __init__(self, costs: CostModel, stats: Stats,
                 live_caches: Callable[[], Tuple[List, List]]):
        self.costs = costs
        self.stats = stats
        self.live_caches = live_caches
        #: Global invalidation counter guarding slowpath repopulation.
        self.counter = 0
        #: Global epoch: what population stamps on the entries it
        #: inserts.  Only :mod:`repro.core.epoch` ever advances it.
        self.epoch = 0
        #: Slowpath walks currently in flight (between a walk's ``begin``
        #: hook and its ``_apply``/``abandon``).  Mutations may only skip
        #: the global counter bump when nothing is mid-walk.
        self.walks_active = 0

    def bind(self, hasher, slow) -> None:
        """Meet the lookup engine's path hasher and slowpath walker
        (called once, by ``FastLookup.__init__``): a rehash charges
        ``hasher``'s primitive, a re-proved prefix check ``slow.search``."""
        self.hasher = hasher
        self.slow = slow
        prim = hasher.cost_primitive
        self._hash = self.costs.run((("hash", prim),), prim)

    def rehash(self, pos, names: List[str]):
        """Hash ``pos``'s canonical path from its root-first ``names``
        (one charge for all of them) and store the state, the mount and
        the current epoch on the position's dentry.  Returns the state."""
        hasher = self.hasher
        if names:
            nbytes = sum(map(len, names)) + len(names) - 1
            self.costs.apply(self._hash, len(names), nbytes)
        state = hasher.extend_components(hasher.EMPTY, names)
        fast = fast_of(pos.dentry)
        fast.hash_state = state
        fast.mount = pos.mount
        fast.epoch_snapshot = self.epoch
        return state

    # -- counter ---------------------------------------------------------------

    def bump_counter(self) -> None:
        self.costs.charge("inval_counter_bump")
        self.counter += 1
        # No ``costs.forget()`` here: memoized resolutions snapshot the
        # counter (so non-steady entries lapse on their own), steady
        # entries are covered by their per-dentry seq / inode /
        # signature and absence pins, checked on read, and the charge
        # above moves the clock off every armed drain plan.

    # -- wraparound ------------------------------------------------------------------

    def wraparound_flush(self) -> None:
        """Version wraparound: invalidate every live PCC and DLHT."""
        self.stats.bump("seq_wraparound_flush")
        pccs, dlhts = self.live_caches()
        for pcc in pccs:
            pcc.invalidate_all()
        for dlht in dlhts:
            dlht.flush()
        # A wrap breaks every memo entry's seqcount pins at once and
        # renumbers the world under every captured plan; no per-entry
        # pin sees it.
        self.costs.forget()


class EagerCoherence(Coherence):
    """The paper's policy: recursive shootdown at mutation time.

    Nothing stale survives a mutation, so a position's state is simply
    its stored hash state and a probe hit is accepted by one PCC probe.
    """

    # -- shootdowns ----------------------------------------------------------------

    def _invalidate_bulk(self, frontier: List[Dentry]) -> int:
        """Invalidate a collected frontier: bump each dentry's seq, drop
        its fast state and its DLHT registration.  Returns how many of
        the dentries had fast state.

        One charge and one Stats bump cover the whole frontier (both are
        integer sums, so this is what N scalar calls would add up to).
        """
        n = len(frontier)
        self.costs.charge("inval_per_dentry", times=n)
        self.stats.bump_many((("inval_dentry", n),))
        wraps = found = 0
        for dentry in frontier:
            seq = dentry.seq + 1
            dentry.seq = seq
            if seq >= SEQ_WRAP:
                wraps += 1
            fast = dentry.fast
            if fast is not None:
                found += 1
                fast.hash_state = fast.link_target_state = None
                if fast.dlht is not None:
                    fast.dlht.remove(dentry)
        # Wraparound (32-bit seq space) is once-in-a-blue-moon; the flush
        # itself charges nothing, so deferring it past the loop is
        # observationally identical to the scalar walk firing it inline.
        for _ in range(wraps):
            self.wraparound_flush()
        return found

    def shootdown_single(self, dentry: Dentry) -> None:
        """Invalidate one dentry (file chmod/chown, unlink, ...)."""
        self._invalidate_bulk([dentry])
        self.bump_counter()

    def shootdown_subtree(self, dentry: Dentry) -> None:
        """Invalidate a dentry and all cached descendants.

        Walks the cached subtree — cost linear in its size (§3.2) —
        descending through mountpoints (``Dentry.mounted_roots``, every
        namespace's mounts) so a prefix check memoized for a path that
        crosses a mount below the changed directory dies too.

        The global counter bump is skipped when the walk found no cached
        fastpath state to invalidate *and* no slowpath walk is in flight
        — the bump exists to fence racing repopulation, and with nothing
        cached and nobody mid-walk there is nothing to fence.
        """
        # Collect the frontier first, then shoot it down in one bulk
        # pass (invalidation mutates no tree edges, so collect-then-apply
        # visits the same dentries in the same order as a recursive
        # per-dentry walk: depth first, children before mounted roots).
        found_fast = self._invalidate_bulk(_subtree(dentry))
        if found_fast == 0 and self.walks_active == 0:
            self.stats.bump("counter_bump_elided")
            return
        self.bump_counter()

    # -- the lookup side -----------------------------------------------------------

    def pos_state(self, task, pos, rebuild=False):
        """The position's stored hash state (floor 0: epochs never move).

        A shot-down position has none; with ``rebuild`` — a slowpath walk
        about to anchor its population here — it is rehashed from the
        tree (None when the position has no canonical path).
        """
        fast = pos.dentry.fast
        state = fast.hash_state if fast is not None else None
        if state is None and rebuild:
            names: List[str] = []
            for dentry, mount in rootward(task.ns, pos.mount, pos.dentry):
                if dentry is not mount.root_dentry:
                    if dentry.parent is None:
                        return None, 0
                    names.append(dentry.name)
            names.reverse()
            state = self.rehash(pos, names)
        return state, 0

    def accept(self, task, ns, pcc, dentry, anchor=None):
        """A hit is current by construction; it needs its prefix check."""
        return 0 if pcc.probe(dentry) else None

    def admit(self, ns, pcc, dentry):
        """:meth:`accept` on a cached prefix check, uncharged (else None)."""
        return 0 if pcc.check(dentry) else None

    #: A miss means not cached: the slowpath walk populates it.
    on_miss = None


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
