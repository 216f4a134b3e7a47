"""The baseline directory cache: primary hash table, LRU, eviction.

This is the Linux-style dcache of §2.2: dentries are tracked by the
hierarchical tree, by a hash table keyed by (parent, name), and by an LRU
list used to shrink the cache.  Here the tree *is* the hash table: each
dentry's ``children`` dict is its (parent, name) bucket set, so the
primary-table probe is one dict lookup and nothing keeps a second flat
copy in step.  The LRU (``Dcache._lru``) is the membership record: every
cached dentry except the superblock roots is in it, so the cache's size
is ``len(_lru) + len(_roots)``.  The invariant that *every cached
dentry's parents are also cached* is maintained by evicting bottom-up
(leaves only).

The optimized kernel (``repro.core``) registers :class:`DcacheHooks` so
that evictions and negativity transitions keep the DLHT, completeness
flags, and deep-negative children coherent without this module knowing
about them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.fs.base import FileSystem
from repro.sim.costs import CostModel
from repro.sim.stats import Stats
from repro.vfs.dentry import Dentry, NEG_ENOENT
from repro.vfs.inode import Inode, InodeTable

#: What one primary-table probe charges on a hit and on a miss (the walk
#: folds these into its per-component vectors, ``vfs/walk.py``).
HIT_CHARGES = (("htlookup", "ht_probe"), ("htlookup", "chain_compare"),
               ("htlookup", "lru_touch"))
MISS_CHARGES = HIT_CHARGES[:2]


class DcacheHooks:
    """Extension points the optimized kernel implements (all no-ops here)."""

    __slots__ = ()

    def on_unhash(self, dentry: Dentry) -> None:
        """Called when a dentry leaves the primary hash table (dropped or
        evicted)."""

    def on_make_negative(self, dentry: Dentry) -> None:
        """Called when a positive dentry becomes negative."""

    def on_make_positive(self, dentry: Dentry) -> None:
        """Called when a negative/stub dentry gains an inode."""


class Dcache:
    """Primary dentry cache for one kernel instance.

    Args:
        costs: cost model charged for cache operations.
        stats: event counters.
        capacity: maximum number of cached dentries before LRU shrink.
        hooks: optimized-kernel coherence callbacks.
    """

    __slots__ = ("costs", "stats", "capacity", "hooks", "_lru",
                 "_roots", "_inode_tables", "_hit", "_miss")

    def __init__(self, costs: CostModel, stats: Stats,
                 capacity: int = 1_000_000,
                 hooks: Optional[DcacheHooks] = None):
        self.costs = costs
        self.stats = stats
        self.capacity = capacity
        self.hooks = hooks or DcacheHooks()
        self._lru: "OrderedDict[int, Dentry]" = OrderedDict()
        self._roots: Dict[int, Dentry] = {}
        self._inode_tables: Dict[int, InodeTable] = {}
        self._hit = costs.run(HIT_CHARGES)
        self._miss = costs.run(MISS_CHARGES)

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
        return root

    # -- hash table ------------------------------------------------------------

    def d_lookup(self, parent: Dentry, name: str) -> Optional[Dentry]:
        """Primary-table lookup: one bucket probe + chain compare, charged
        to "htlookup"."""
        dentry = self.probe(parent, name)
        self.costs.apply(self._miss if dentry is None else self._hit)
        return dentry

    def probe(self, parent: Dentry, name: str) -> Optional[Dentry]:
        """:meth:`d_lookup` uncharged: the hit's LRU touch and what the
        recorder must see, for callers that charge the probe themselves.

        ``parent.children`` is the (parent, name) table, and every dentry
        in it is in the LRU (``d_alloc`` inserts it; only ``d_drop`` and
        ``evict``, which unlink it, take it out), so a hit is one
        ``move_to_end``.
        """
        dentry = parent.children.get(name)
        rec = self.costs.recorder
        if dentry is not None:
            self._lru.move_to_end(id(dentry))
            if rec is not None:
                rec.lru.append(dentry)
        elif rec is not None:
            # The walk is about to conclude something from this name's
            # *absence*, which holds only while the name stays unlinked.
            rec.misses.append((parent, parent.children, name))
        return dentry

    def d_alloc(self, parent: Dentry, name: str,
                inode: Optional[Inode]) -> Dentry:
        """Allocate and hash a new child dentry (positive or negative)."""
        if name in parent.children:
            raise RuntimeError(f"dentry {name!r} already cached under "
                               f"{parent.path_from_root()!r}")
        costs = self.costs
        if inode is None:
            costs.charge("negative_dentry_alloc")
        else:
            costs.charge("dentry_alloc")
        dentry = Dentry(name, parent, inode)
        if inode is None:
            dentry.neg_kind = NEG_ENOENT
        costs.charge("lru_touch")
        self._link(parent, name, dentry)
        return dentry

    def d_alloc_stubs(self, parent: Dentry, entries) -> Optional[Dentry]:
        """Allocate a stub (§5.1) for each ``(name, ino, dtype)`` readdir
        result not cached under ``parent``, as :meth:`d_alloc` would, but
        charging ``negative_dentry_alloc`` and ``lru_touch`` once for
        all; returns the last stub allocated."""
        children = parent.children
        made = 0
        dentry = None
        for name, ino, dtype in entries:
            # Checked per entry: a shrink may have evicted a later name.
            if name in children:
                continue
            dentry = Dentry(name, parent, None, (ino, dtype))
            self._link(parent, name, dentry)
            made += 1
        if made:
            self.costs.charge("negative_dentry_alloc", made)
            self.costs.charge("lru_touch", made)
        return dentry

    def _link(self, parent: Dentry, name: str, dentry: Dentry) -> None:
        """Hash a new ``dentry`` under ``parent`` and queue it in the LRU,
        shrinking if that puts the LRU over its limit; uncharged (each
        allocator charges its own tally)."""
        parent.children[name] = dentry
        lru = self._lru
        lru[id(dentry)] = dentry
        if len(lru) > self.capacity - len(self._roots):
            self._shrink(dentry)

    def d_alloc_alias(self, parent: Dentry, name: str,
                      target: Dentry) -> Dentry:
        """Allocate a symlink-translation alias child (§4.2).

        ``parent`` is a symlink dentry (or another alias); the alias
        redirects the path ``parent/name`` to ``target``.
        """
        dentry = self.d_alloc(parent, name, None)
        dentry.neg_kind = None
        dentry.alias_target = target
        dentry.set_kind()
        return dentry

    def d_drop(self, dentry: Dentry) -> None:
        """Unhash and detach a dentry (and its subtree) from the cache."""
        for child in list(dentry.children.values()):
            self.d_drop(child)
        parent = dentry.parent
        if parent is not None \
                and parent.children.get(dentry.name) is dentry:
            del parent.children[dentry.name]
        self._lru.pop(id(dentry), None)
        dentry.dead = True
        dentry.seq += 1
        self.hooks.on_unhash(dentry)
        self.costs.charge("dentry_free")

    # -- negativity transitions ---------------------------------------------------

    def make_negative(self, dentry: Dentry, kind: str = NEG_ENOENT) -> None:
        """Turn a positive/stub dentry into a negative one in place."""
        dentry.inode = None
        dentry.stub = None
        dentry.set_kind()
        dentry.neg_kind = kind
        dentry.dir_complete = False
        # The seq stays: a resolution memo pins this dentry's inode by
        # identity, or its state signature if it ended there, and both
        # see the transition.
        self.hooks.on_make_negative(dentry)

    def make_positive(self, dentry: Dentry, inode: Inode) -> None:
        """Instantiate an inode on a negative/stub dentry in place."""
        dentry.inode = inode
        dentry.stub = None
        dentry.set_kind()
        dentry.neg_kind = None
        # The seq stays, as in make_negative above.
        self.hooks.on_make_positive(dentry)

    # -- rename support ----------------------------------------------------------------

    def d_move(self, dentry: Dentry, new_parent: Dentry,
               new_name: str) -> None:
        """Move a dentry to a new (parent, name), rehashing it."""
        old_parent = dentry.parent
        assert old_parent is not None, "cannot move a superblock root"
        if old_parent.children.get(dentry.name) is dentry:
            del old_parent.children[dentry.name]
        # Any dentry already cached at the destination is dropped: the
        # rename overwrote it (the caller validated emptiness rules).
        existing = new_parent.children.get(new_name)
        if existing is not None and existing is not dentry:
            self.d_drop(existing)
        dentry.parent = new_parent
        dentry.name = new_name
        new_parent.children[new_name] = dentry
        # As Linux's __d_move writes d_seq: a reader that pinned the
        # dentry's seq sees it moved.
        dentry.seq += 1

    # -- LRU / shrinking ------------------------------------------------------------

    def _evictable(self, dentry: Dentry) -> bool:
        return (dentry.pin_count == 0 and not dentry.children
                and not dentry.mounted_roots and dentry.parent is not None)

    def _shrink(self, keep: Dentry) -> None:
        """Evict leaves until under capacity, sparing ``keep`` (just
        allocated: its caller holds a reference)."""
        lru = self._lru
        limit = self.capacity - len(self._roots)
        # Walk from the cold end, evicting leaves until under capacity.
        # Non-evictable entries are re-queued at the hot end so the scan
        # terminates.
        scanned = 0
        max_scan = len(lru)
        keep.pin()
        try:
            while len(lru) > limit and scanned < max_scan:
                scanned += 1
                _key, dentry = lru.popitem(last=False)
                if self._evictable(dentry):
                    self.evict(dentry)
                else:
                    lru[id(dentry)] = dentry
        finally:
            keep.unpin()

    def evict(self, dentry: Dentry) -> None:
        """Evict one leaf dentry to reclaim space."""
        parent = dentry.parent
        assert parent is not None
        # Eviction (unlike unlink) breaks the parent's completeness: the
        # cache no longer holds everything the directory contains (§5.1).
        if parent.dir_complete:
            parent.dir_complete = False
            self.stats.bump("dir_complete_broken")
        parent.child_evictions += 1
        if parent.children.get(dentry.name) is dentry:
            del parent.children[dentry.name]
        self._lru.pop(id(dentry), None)
        dentry.dead = True
        dentry.seq += 1
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

    def __len__(self) -> int:
        return len(self._lru) + len(self._roots)
