"""The slowpath: component-at-a-time path resolution (§2.2).

This is the Linux REF/RCU-walk analog both kernels share: the baseline
kernel resolves *every* lookup here; the optimized kernel falls back to it
on a fastpath miss and uses it to (re)populate the fastpath structures.

Per component the walk (1) checks search permission on the current
directory — the prefix check — then (2) hashes the component and probes
the primary dcache hash table, (3) calls the low-level file system on a
miss, and (4) handles ``..``, symlinks, and mountpoint crossings.  Costs
are attributed to the scopes Figure 3 reports ("init", "perm", "hash",
"htlookup", "final", plus "miss"); the bundle of (1) and (2) is one
priced vector per outcome — denied, ``..``, dcache hit or miss — applied
when the walk exits, times how often the outcome occurred.  Only a
denial, after which the walk raises, is charged on the spot.

Host cost per component is two calls, matching the model's search check
and table probe: ``perms.may_search`` and ``Dcache.probe``.  The
dentry's kind is read from fields (``Dentry.set_kind``), the position
stays in ``(mount, cur)`` locals, and a ``PathPos`` is built only where
one leaves the frame: a ``..`` hop, a relative symlink's start, a
mountpoint crossing and the return.

The optimized kernel observes the walk through the ``fast`` hook object (a
:class:`repro.core.fastpath.FastLookup`); the hooks are documented on
:class:`WalkHooks`.  The baseline kernel passes ``fast=None``.

The resolution memo (:mod:`repro.core.resmemo`) records slowpath
resolutions transparently: a :class:`~repro.sim.costs.Recording`
charges a run into tables of its own, and ``Dcache.probe`` records the
LRU touches and the absences the walk concludes from — so this module
needs no recording hooks.
"""

from __future__ import annotations

from typing import List, Optional

from repro import errors
from repro.sim.costs import CostModel
from repro.sim.stats import Stats
from repro.vfs import path as vfspath
from repro.vfs import permissions as perms
from repro.vfs.dcache import HIT_CHARGES, MISS_CHARGES, Dcache
from repro.vfs.dentry import NEG_ENOTDIR, Dentry
from repro.vfs.lsm import Lsm, NullLsm
from repro.vfs.mount import PathPos
from repro.vfs.task import Task

#: Maximum symlink traversals per resolution (Linux's MAXSYMLINKS).
MAX_SYMLINKS = 40

#: One component's charges up to the table probe: the search check,
#: hashing the name (per byte too), the RCU barrier and seqlock read.
_DENIED = (("perm", "perm_check_dac"),)
_STEP = _DENIED + (("hash", "component_hash"), ("htlookup", "read_barrier"),
                   ("htlookup", "seqlock_read"))


class WalkHooks:
    """Observation points the optimized kernel hooks into (all no-ops).

    The ``ctx`` passed around is whatever :meth:`begin` returned; the slow
    walk treats it as opaque.
    """

    __slots__ = ()

    def begin(self, task: Task, start: PathPos, absolute: bool, prehashed=0):
        """A walk starts at ``start``; returns its ``ctx`` (None: the
        walk is not observed).  ``prehashed`` is what a failed fastpath
        attempt hands over: the number of components it hashed, or its
        start state and the state after each component."""
        return None

    def step(self, ctx, name: str, dentry: Dentry, mount) -> None:
        """A component resolved to ``(mount, dentry)``, after any
        mountpoint crossing.  Called only when :meth:`begin` returned a
        ``ctx``, so the baseline walk pays nothing per component."""

    def dotdot(self, ctx, result: PathPos) -> None:
        """A ``..`` moved the walk to ``result``."""

    def symlink_begin(self, ctx, link: Dentry, absolute_target: bool) -> None:
        """``link`` is about to be traversed (before target resolution)."""

    def symlink(self, ctx, link: Dentry, target: PathPos) -> None:
        """``link`` was traversed; the walk continues at ``target``."""

    def negative_tail(self, ctx, neg: Dentry, remaining: List[str],
                      kind: str) -> None:
        """The walk failed at ``neg`` with ``remaining`` components left."""

    def finish(self, ctx, final: PathPos) -> None:
        """The walk succeeded at ``final`` (dentry may be a create-intent
        negative)."""

    def abandon(self, ctx) -> None:
        """The walk raised without reaching :meth:`finish` (errors that
        bypass ``negative_tail``: EACCES, ELOOP, ENOTDIR mid-path...).
        Implementations release per-walk bookkeeping; nothing may be
        charged or populated here."""


class _LinkBudget:
    """Shared symlink-traversal counter for one top-level resolution."""

    __slots__ = ("left",)

    def __init__(self) -> None:
        self.left = MAX_SYMLINKS

    def consume(self, path_hint: str) -> None:
        if self.left <= 0:
            raise errors.ELOOP(path_hint)
        self.left -= 1


class SlowWalk:
    """Component-at-a-time resolver over one kernel's caches."""

    __slots__ = ("costs", "stats", "dcache", "config", "lsm", "hooks",
                 "_runs", "_setup", "_lsm")

    def __init__(self, costs: CostModel, stats: Stats, dcache: Dcache,
                 config, lsm: Optional[Lsm] = None,
                 hooks: Optional[WalkHooks] = None):
        self.costs = costs
        self.stats = stats
        self.dcache = dcache
        self.config = config
        self.lsm = lsm or NullLsm()
        self.hooks = hooks or WalkHooks()
        #: denied, ``..``, dcache hit, dcache miss.
        self._runs = (costs.run(_DENIED),
                      costs.run(_STEP, "component_hash"),
                      costs.run(_STEP + HIT_CHARGES, "component_hash"),
                      costs.run(_STEP + MISS_CHARGES, "component_hash"))
        #: setup and teardown of a walk that returns, of one that raises.
        init = (("init", "lookup_init"),)
        self._setup = (costs.run(init + (("final", "lookup_final"),)),
                       costs.run(init))
        self._lsm = costs.run((("perm", "perm_check_lsm"),))

    # -- public entry -----------------------------------------------------------

    def resolve(self, task: Task, path: str, *, follow_last: bool = True,
                intent_create: bool = False, create_dir: bool = False,
                dirfd_pos: Optional[PathPos] = None,
                count_stats: bool = True, setup=None, prehashed=0,
                parsed=None) -> PathPos:
        """Resolve ``path`` to a (mount, dentry) position.

        With ``intent_create`` the final dentry may be negative (ENOENT
        kind) — the caller instantiates it; otherwise a negative final
        raises.  ``create_dir`` additionally allows a trailing slash on
        the created name (mkdir).  ``dirfd_pos`` anchors relative paths
        (\\*at() syscalls).  Setup and teardown are applied as one vector
        when the walk ends: ``setup`` is the (returned, raised) pair, by
        default ``lookup_init`` + ``lookup_final`` and ``lookup_init``
        alone.  A failed fastpath attempt's fallback passes its own (the
        nameidata is reused), ``prehashed`` hands that attempt's hashing
        to the hooks, and ``parsed`` its ``(absolute, components,
        must_dir)`` parse of ``path``.
        """
        if count_stats:
            self.stats.bump("lookup")
        if parsed is None:
            absolute, comps, must_dir = vfspath.split(path)
            if self.config.lexical_dotdot:
                comps = vfspath.lexical_normalize(comps)
        else:
            absolute, comps, must_dir = parsed
        start = task.root if absolute else (dirfd_pos or task.cwd)
        returned, raised = setup or self._setup
        ctx = self.hooks.begin(task, start, absolute, prehashed)
        budget = _LinkBudget()
        try:
            pos = self._walk(task, start, comps, path,
                             follow_last=follow_last,
                             intent_create=intent_create,
                             create_dir=create_dir,
                             must_dir=must_dir, budget=budget, ctx=ctx)
        except BaseException:
            self.costs.apply(raised)
            self.hooks.abandon(ctx)
            raise
        self.costs.apply(returned)
        self.hooks.finish(ctx, pos)
        return pos

    # -- the component loop ------------------------------------------------------

    def _walk(self, task: Task, start: PathPos, comps: List[str],
              path_hint: str, *, follow_last: bool, intent_create: bool,
              must_dir: bool, budget: _LinkBudget, ctx,
              create_dir: bool = False) -> PathPos:
        mount, cur = start  # a PathPos only where one leaves this frame
        ns = task.ns
        cred = task.cred
        total = len(comps)
        costs = self.costs
        apply = costs.apply
        probe = self.dcache.probe
        may_search = perms.may_search
        bump = self.stats.bump
        hooks = self.hooks
        lsm = None if isinstance(self.lsm, NullLsm) else self.lsm
        denied, dotdot, hit, miss = self._runs
        # Outcome tallies of this frame, charged when it exits.
        ups = hits = misses = hit_bytes = miss_bytes = lsm_checks = 0
        try:
            for i, name in enumerate(comps):
                last = i == total - 1
                if cur.is_negative:
                    raise errors.ENOENT(path_hint,
                                        "start directory is gone")
                if not cur.is_dir:
                    raise errors.ENOTDIR(path_hint)
                # The prefix check, then a tally of the component's
                # outcome (a denial raises, so it is charged here).
                inode = cur.inode
                allowed = may_search(cred, inode)
                if allowed and lsm is not None:
                    lsm_checks += 1
                    allowed = lsm.inode_permission(cred, inode,
                                                   perms.MAY_EXEC)
                if not allowed:
                    apply(denied)
                    raise errors.EACCES(path_hint)
                if name == "..":
                    ups += 1
                    pos = ns.cross_down(ns.parent_pos(PathPos(mount, cur),
                                                      task.root))
                    mount, cur = pos
                    hooks.dotdot(ctx, pos)
                    continue
                child = probe(cur, name)
                from_cache = True
                if child is not None:
                    hits += 1
                    hit_bytes += len(name)
                    if inode.fs.requires_revalidation:
                        child = self._revalidate(cur, name, child)
                else:
                    misses += 1
                    miss_bytes += len(name)
                    if cur.dir_complete:  # §5.1: absence proved, no FS call
                        bump("dir_complete_elide")
                        child = self.dcache.d_alloc(cur, name, None)
                    else:
                        child = self.miss(cur, name)
                        from_cache = False
                if child is None or child.is_negative:
                    if from_cache:
                        bump("negative_hit")
                    kind_err = errors.ENOENT(path_hint)
                    if child is not None and child.neg_kind == NEG_ENOTDIR:
                        kind_err = errors.ENOTDIR(path_hint)
                    if last and intent_create:
                        if not isinstance(kind_err, errors.ENOENT):
                            raise kind_err
                        if child is None:
                            # Baseline pseudo-fs: nothing may be cached
                            # and nothing can be created there either.
                            raise errors.EPERM(
                                path_hint, "create on pseudo file system")
                        if must_dir and not create_dir:
                            raise errors.ENOENT(path_hint)
                        if ctx is not None:
                            hooks.step(ctx, name, child, mount)
                        return PathPos(mount, child)
                    if child is not None:
                        hooks.negative_tail(ctx, child, comps[i + 1:],
                                            child.neg_kind)
                    raise kind_err
                if child.is_stub:
                    self._fill_stub(mount, child)
                if child.is_symlink and (not last or follow_last or must_dir):
                    budget.consume(path_hint)
                    target = child.inode.symlink_target or ""
                    if not target:
                        raise errors.ENOENT(path_hint,
                                            "empty symlink target")
                    costs.charge("symlink_resolve")
                    bump("symlink_traverse")
                    sub_create = intent_create and last
                    tabs, tcomps, tmust = vfspath.split(target)
                    if self.config.lexical_dotdot:
                        tcomps = vfspath.lexical_normalize(tcomps)
                    sub_start = task.root if tabs else PathPos(mount, cur)
                    hooks.symlink_begin(ctx, child, tabs)
                    tpos = self._walk(task, sub_start, tcomps, target,
                                      follow_last=True,
                                      intent_create=sub_create,
                                      must_dir=tmust, budget=budget,
                                      ctx=ctx)
                    hooks.symlink(ctx, child, tpos)
                    mount, cur = tpos
                    continue
                if not child.is_dir and (not last or must_dir):
                    # Deep ENOTDIR negatives under a regular file (§5.2).
                    hooks.negative_tail(ctx, child, comps[i + 1:],
                                        NEG_ENOTDIR)
                    raise errors.ENOTDIR(path_hint)
                if child.mounted_roots:
                    here = PathPos(mount, child)
                    crossed = ns.cross_down(here)
                    if crossed is not here:
                        costs.charge("mountpoint_cross")
                        bump("mount_cross")
                        mount, child = crossed
                cur = child
                if ctx is not None:
                    hooks.step(ctx, name, cur, mount)
            if cur.is_negative:
                if cur.neg_kind == NEG_ENOTDIR:
                    raise errors.ENOTDIR(path_hint)
                if not intent_create:
                    raise errors.ENOENT(path_hint)
            elif must_dir and not cur.is_dir:
                raise errors.ENOTDIR(path_hint)
            if cur is start.dentry and mount is start.mount:
                return start
            return PathPos(mount, cur)
        finally:
            if hits:
                apply(hit, hits, hit_bytes)
                bump("dcache_hit", hits)
            if misses:
                apply(miss, misses, miss_bytes)
            if ups:  # two name bytes each
                apply(dotdot, ups, 2 * ups)
            if lsm_checks:
                apply(self._lsm, lsm_checks)
            if hits or misses or ups:
                bump("component_step", hits + misses + ups)

    # -- helpers ---------------------------------------------------------------------

    def miss(self, cur: Dentry, name: str) -> Optional[Dentry]:
        """The FS lookup of ``name`` in ``cur`` after a dcache miss, its
        result cached as a new dentry (None: a miss that may not be
        cached as a negative)."""
        self.stats.bump("dcache_miss")
        self.stats.bump("fs_lookup")
        fs = cur.inode.fs
        with self.costs.scope("miss"):
            info = fs.lookup(cur.inode.ino, name)
        if info is not None:
            inode = self.dcache.inode_table(fs).obtain(info)
            return self.dcache.d_alloc(cur, name, inode)
        cache_negative = (fs.baseline_negative_dentries or
                          self.config.aggressive_negative)
        if cache_negative:
            return self.dcache.d_alloc(cur, name, None)
        return None

    def _revalidate(self, cur: Dentry, name: str,
                    child: Dentry) -> Dentry:
        """Stateless-network-FS semantics (§4.3): ask the server whether
        the cached entry is still the truth, one round trip per cached
        component — "effectively forcing a cache miss and nullifying any
        benefit to the hit path"."""
        fs = cur.inode.fs
        self.stats.bump("revalidate")
        cached_ino = child.inode.ino if child.inode is not None else None
        with self.costs.scope("miss"):
            info = fs.revalidate(cur.inode.ino, name, cached_ino)
        if info is None:
            if not child.is_negative:
                self.dcache.make_negative(child)
            return child
        inode = self.dcache.inode_table(fs).obtain(info)
        if child.inode is not inode:
            self.dcache.make_positive(child, inode)
        else:
            inode.apply(info)
        return child

    def _fill_stub(self, mount, child: Dentry) -> None:
        """Link a readdir-created stub dentry with its inode (§5.1)."""
        assert child.stub is not None
        fs = mount.fs
        self.stats.bump("stub_fill")
        with self.costs.scope("miss"):
            info = fs.getattr(child.stub[0])
        inode = self.dcache.inode_table(fs).obtain(info)
        self.dcache.make_positive(child, inode)
