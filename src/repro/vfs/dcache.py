"""The baseline directory cache: primary hash table, LRU, eviction.

This is the Linux-style dcache of §2.2: dentries are tracked by (1) the
hierarchical tree (``Dentry.children``), (2) a hash table keyed by the
parent dentry's identity and the child name, and (3) an LRU list used to
shrink the cache.  The invariant that *every cached dentry's parents are
also cached* is maintained by evicting bottom-up (leaves only).

The optimized kernel (``repro.core``) registers :class:`DcacheHooks` so
that evictions and negativity transitions keep the DLHT, completeness
flags, and deep-negative children coherent without this module knowing
about them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.fs.base import FileSystem
from repro.sim.costs import CostModel
from repro.sim.stats import Stats
from repro.vfs.dentry import Dentry, NEG_ENOENT
from repro.vfs.inode import Inode, InodeTable

#: Fixed charge runs for ``d_lookup`` (one batched call per probe; the
#: primitive order matches the historical per-call sequence exactly).
_HIT_CHARGES = ("ht_probe", "chain_compare", "lru_touch")
_MISS_CHARGES = ("ht_probe", "chain_compare")


class DcacheHooks:
    """Extension points the optimized kernel implements (all no-ops here)."""

    __slots__ = ()

    def on_evict(self, dentry: Dentry) -> None:
        """Called just before ``dentry`` is removed to reclaim space."""

    def on_unhash(self, dentry: Dentry) -> None:
        """Called when a dentry leaves the primary hash table."""

    def on_make_negative(self, dentry: Dentry) -> None:
        """Called when a positive dentry becomes negative."""

    def on_make_positive(self, dentry: Dentry) -> None:
        """Called when a negative/stub dentry gains an inode."""

    def on_move(self, dentry: Dentry, old_parent: Dentry,
                old_name: str) -> None:
        """Called after a rename moved ``dentry`` in the tree."""


class Dcache:
    """Primary dentry cache for one kernel instance.

    Args:
        costs: cost model charged for cache operations.
        stats: event counters.
        capacity: maximum number of cached dentries before LRU shrink.
        hooks: optimized-kernel coherence callbacks.
    """

    __slots__ = ("costs", "stats", "capacity", "hooks", "_hash", "_lru",
                 "_roots", "_inode_tables", "count")

    def __init__(self, costs: CostModel, stats: Stats,
                 capacity: int = 1_000_000,
                 hooks: Optional[DcacheHooks] = None):
        self.costs = costs
        self.stats = stats
        self.capacity = capacity
        self.hooks = hooks or DcacheHooks()
        self._hash: Dict[Tuple[int, str], Dentry] = {}
        self._lru: "OrderedDict[int, Dentry]" = OrderedDict()
        self._roots: Dict[int, Dentry] = {}
        self._inode_tables: Dict[int, InodeTable] = {}
        self.count = 0

    # -- superblock roots ---------------------------------------------------

    def inode_table(self, fs: FileSystem) -> InodeTable:
        table = self._inode_tables.get(id(fs))
        if table is None:
            table = InodeTable(fs)
            self._inode_tables[id(fs)] = table
            # File systems that recycle inode numbers (simext's
            # ext-style bitmap reuse) must evict the stale VFS inode
            # before the number comes back; one callback per superblock.
            fs.on_ino_reclaim = table.forget
        return table

    def root_dentry(self, fs: FileSystem) -> Dentry:
        """The (pinned) root dentry of ``fs``'s superblock."""
        root = self._roots.get(id(fs))
        if root is None:
            info = fs.getattr(fs.root_ino)
            inode = self.inode_table(fs).obtain(info)
            root = Dentry("", None, inode)
            root.pin()
            self._roots[id(fs)] = root
            self.count += 1
        return root

    # -- hash table ------------------------------------------------------------

    @staticmethod
    def _key(parent: Dentry, name: str) -> Tuple[int, str]:
        return (id(parent), name)

    def d_lookup(self, parent: Dentry, name: str) -> Optional[Dentry]:
        """Primary-table lookup: one bucket probe + chain compare.

        Charges are attributed straight to the walk's "htlookup" scope
        (the only scope this is called under) via the charge_in fast
        path.

        The probe goes through ``parent.children`` rather than the flat
        ``_hash`` table: the two are kept in exact bijection for hashed
        dentries (``d_alloc`` refuses duplicates; ``d_drop``/``d_move``/
        ``evict`` maintain both), and the per-parent dict avoids
        allocating a fresh ``(id(parent), name)`` key tuple on the
        hottest path in the simulator.
        """
        costs = self.costs
        dentry = parent.children.get(name)
        if dentry is not None:
            costs.charge_in_many("htlookup", _HIT_CHARGES)
            lru = self._lru
            lru[id(dentry)] = dentry
            lru.move_to_end(id(dentry))
            dentry.in_lru = True
            rec = costs.recorder
            if rec is not None:
                rec.lru.append(dentry)
        else:
            costs.charge_in_many("htlookup", _MISS_CHARGES)
            rec = costs.recorder
            if rec is not None:
                # The walk is about to conclude something from this
                # name's *absence*; instantiating it later must
                # invalidate the recording (ResolutionMemo.kill_miss).
                rec.misses.append((parent, name))
        return dentry

    def d_alloc(self, parent: Dentry, name: str,
                inode: Optional[Inode]) -> Dentry:
        """Allocate and hash a new child dentry (positive or negative)."""
        key = self._key(parent, name)
        if key in self._hash:
            raise RuntimeError(f"dentry {name!r} already cached under "
                               f"{parent.path_from_root()!r}")
        if inode is None:
            self.costs.charge("negative_dentry_alloc")
        else:
            self.costs.charge("dentry_alloc")
        dentry = Dentry(name, parent, inode)
        if inode is None:
            dentry.neg_kind = NEG_ENOENT
        self._hash[key] = dentry
        parent.children[name] = dentry
        self.count += 1
        # Only walks that concluded from this name's absence care.
        self.costs.memo.kill_miss(parent, name)
        self._touch_lru(dentry)
        # The caller holds a reference to the new dentry (it is about to
        # be returned); the shrink pass must not reclaim it.
        dentry.pin()
        try:
            self._shrink_if_needed()
        finally:
            dentry.unpin()
        return dentry

    def d_alloc_stub(self, parent: Dentry, name: str, ino: int,
                     dtype: str) -> Dentry:
        """Allocate an inodeless dentry from readdir results (§5.1)."""
        dentry = self.d_alloc(parent, name, None)
        dentry.neg_kind = None
        dentry.stub = (ino, dtype)
        return dentry

    def d_alloc_alias(self, parent: Dentry, name: str,
                      target: Dentry) -> Dentry:
        """Allocate a symlink-translation alias child (§4.2).

        ``parent`` is a symlink dentry (or another alias); the alias
        redirects the path ``parent/name`` to ``target``.
        """
        dentry = self.d_alloc(parent, name, None)
        dentry.neg_kind = None
        dentry.alias_target = target
        return dentry

    def d_drop(self, dentry: Dentry) -> None:
        """Unhash and detach a dentry (and its subtree) from the cache."""
        for child in list(dentry.children.values()):
            self.d_drop(child)
        parent = dentry.parent
        if parent is not None:
            self._hash.pop(self._key(parent, dentry.name), None)
            if parent.children.get(dentry.name) is dentry:
                del parent.children[dentry.name]
        self._lru.pop(id(dentry), None)
        dentry.in_lru = False
        dentry.dead = True
        dentry.seq += 1
        self.count -= 1
        self.costs.memo.kill(dentry)
        self.hooks.on_unhash(dentry)
        self.costs.charge("dentry_free")

    # -- negativity transitions ---------------------------------------------------

    def make_negative(self, dentry: Dentry, kind: str = NEG_ENOENT) -> None:
        """Turn a positive/stub dentry into a negative one in place."""
        dentry.inode = None
        dentry.stub = None
        dentry.neg_kind = kind
        dentry.dir_complete = False
        # No memo invalidation needed: entries depending on this dentry
        # pin its inode by identity, and entries terminating on it match
        # a state signature — both see the transition.
        self.hooks.on_make_negative(dentry)

    def make_positive(self, dentry: Dentry, inode: Inode) -> None:
        """Instantiate an inode on a negative/stub dentry in place."""
        dentry.inode = inode
        dentry.stub = None
        dentry.neg_kind = None
        # Covered by memo inode-identity pins / terminal signatures,
        # exactly as in make_negative above.
        self.hooks.on_make_positive(dentry)

    # -- rename support ----------------------------------------------------------------

    def d_move(self, dentry: Dentry, new_parent: Dentry,
               new_name: str) -> None:
        """Move a dentry to a new (parent, name), rehashing it."""
        old_parent = dentry.parent
        old_name = dentry.name
        assert old_parent is not None, "cannot move a superblock root"
        self._hash.pop(self._key(old_parent, old_name), None)
        if old_parent.children.get(old_name) is dentry:
            del old_parent.children[old_name]
        # Any dentry already cached at the destination is dropped: the
        # rename overwrote it (the caller validated emptiness rules).
        existing = self._hash.get(self._key(new_parent, new_name))
        if existing is not None and existing is not dentry:
            self.d_drop(existing)
        dentry.parent = new_parent
        dentry.name = new_name
        self._hash[self._key(new_parent, new_name)] = dentry
        new_parent.children[new_name] = dentry
        # A move does not bump the dentry's seqcount (only its name and
        # parent change), so memo entries that resolved through it must
        # be killed explicitly; and the destination name just came into
        # existence for absence-based walks.
        memo = self.costs.memo
        memo.kill(dentry)
        memo.kill_miss(new_parent, new_name)
        self.hooks.on_move(dentry, old_parent, old_name)

    # -- LRU / shrinking ------------------------------------------------------------

    def _touch_lru(self, dentry: Dentry) -> None:
        self.costs.charge("lru_touch")
        self._lru[id(dentry)] = dentry
        self._lru.move_to_end(id(dentry))
        dentry.in_lru = True

    def _evictable(self, dentry: Dentry) -> bool:
        return (dentry.pin_count == 0 and not dentry.children
                and not dentry.is_mountpoint and dentry.parent is not None)

    def _shrink_if_needed(self) -> None:
        if self.count <= self.capacity:
            return
        # Walk from the cold end, evicting leaves until under capacity.
        # Non-evictable entries are re-queued at the hot end so the scan
        # terminates.
        scanned = 0
        max_scan = len(self._lru)
        while self.count > self.capacity and scanned < max_scan:
            scanned += 1
            _key, dentry = self._lru.popitem(last=False)
            dentry.in_lru = False
            if self._evictable(dentry):
                self.evict(dentry)
            else:
                self._lru[id(dentry)] = dentry
                dentry.in_lru = True

    def evict(self, dentry: Dentry) -> None:
        """Evict one leaf dentry to reclaim space."""
        parent = dentry.parent
        assert parent is not None
        self.hooks.on_evict(dentry)
        # Eviction (unlike unlink) breaks the parent's completeness: the
        # cache no longer holds everything the directory contains (§5.1).
        if parent.dir_complete:
            parent.dir_complete = False
            self.stats.bump("dir_complete_broken")
        parent.child_evictions += 1
        self._hash.pop(self._key(parent, dentry.name), None)
        if parent.children.get(dentry.name) is dentry:
            del parent.children[dentry.name]
        self._lru.pop(id(dentry), None)
        dentry.in_lru = False
        dentry.dead = True
        dentry.seq += 1
        self.count -= 1
        memo = self.costs.memo
        memo.kill(dentry)
        # The parent's broken dir_complete flag is invisible to the
        # memo's validity check (no seq/epoch/counter changes), so
        # entries that walked through the parent go too.
        memo.kill(parent)
        self.hooks.on_unhash(dentry)
        self.costs.charge("dentry_free")

    def drop_all(self) -> None:
        """Evict every evictable dentry (cold-cache experiments).

        Pinned dentries (roots, cwds, open files, mountpoints) survive,
        matching ``echo 2 > /proc/sys/vm/drop_caches``.
        """
        # Bottom-up: repeat until a pass evicts nothing.
        while True:
            victims = [d for d in self._lru.values() if self._evictable(d)]
            if not victims:
                return
            for dentry in victims:
                if not dentry.dead and self._evictable(dentry):
                    self.evict(dentry)

    # -- introspection ------------------------------------------------------------------

    def cached_children(self, dentry: Dentry):
        return dentry.children.values()

    def __len__(self) -> int:
        return self.count
