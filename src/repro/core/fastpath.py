"""The fastpath lookup engine (§3, §4).

:class:`FastLookup` is the optimized kernel's resolver.  On the way *in*
it attempts a direct lookup: hash the canonical path (resuming from the
start dentry's stored state), probe the namespace's DLHT, validate the
memoized prefix check in the caller's PCC, and — on a hit — finish after
a constant number of hash-table operations regardless of path depth.  Any
wrinkle (miss, stale sequence, stub, followed symlink without a cached
target) falls back to the shared slowpath.

On the way *out* it implements :class:`repro.vfs.walk.WalkHooks`: it rides
along slowpath walks, accumulating the state needed to repopulate the
DLHT, the PCC, symlink aliases, and deep negative dentries — and applies
it only if the global invalidation counter did not move during the walk
(§3.2's "stale slowpath results are never re-cached" rule).

Population follows the directory-reference rule (§3.2): a relative walk's
results enter the *PCC* only when the start directory itself has a valid
root-prefix entry; otherwise the lookup still succeeds (Unix semantics for
open directory handles and cwd) but is not memoized.  DLHT population is
credential-independent and always allowed.

Coherence (see :mod:`repro.core.coherence`)
-------------------------------------------

When a memoized answer may still be served is not decided here: the
kernel's coherence policy says what a trusted position's hash state is
(``pos_state``), whether a probe hit is current (``accept``), and
whether a full-path probe miss may be completed from its cached parent
(``on_miss``); population stamps what it inserts with the policy's
``epoch``.  Under the paper's eager policy those are one stored state,
one PCC probe, "no" and zero.

Resolution-memo recording (see :mod:`repro.core.resmemo`)
---------------------------------------------------------

When the resolution memo records a resolve through this engine, every
charge flows through ``CostModel.charge``/``charge_in`` and is captured
by the attached recorder — no explicit hooks here.  The contract this
module upholds for replayability is that a *steady-state* hit's only
host-visible side effects are dcache-LRU touches and PCC
``move_to_end`` reorders (both captured and mirrored on replay);
anything that populates or rehashes state (DLHT/PCC inserts, stub
fills, lazy re-arms) makes two consecutive executions observably
different, which is exactly what keeps such resolutions out of the
memo's confirmed set.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro import errors
from repro.core.coherence import RETRY, Coherence, rootward
from repro.core.fastdentry import fast_of
from repro.core.negative import extend_negative_chain
from repro.core.pcc import PrefixCheckCache
from repro.core.signatures import PathHasher, SigState
from repro.sim.costs import CostModel
from repro.sim.stats import Stats
from repro.vfs import path as vfspath
from repro.vfs import permissions as perms
from repro.vfs.dcache import Dcache
from repro.vfs.dentry import NEG_ENOTDIR, Dentry
from repro.vfs.lsm import NullLsm
from repro.vfs.mount import PathPos
from repro.vfs.task import Task
from repro.vfs.walk import SlowWalk, WalkHooks


class _WalkCtx:
    """Per-walk population state (the opaque ctx of WalkHooks)."""

    __slots__ = ("task", "counter_at_start", "pcc_ok", "anchor_state",
                 "cur_mount", "alias_head", "alias_state", "alias_done",
                 "saved_link", "pending_dlht", "pending_pcc",
                 "pending_alias", "pending_linktarget", "pending_deepneg",
                 "applied")

    def __init__(self, task: Task, counter: int, pcc_ok: bool,
                 anchor_state: Optional[SigState], cur_mount):
        self.task = task
        self.counter_at_start = counter
        self.pcc_ok = pcc_ok
        self.anchor_state = anchor_state
        self.cur_mount = cur_mount
        self.alias_head: Optional[Dentry] = None
        self.alias_state: Optional[SigState] = None
        self.alias_done = False
        self.saved_link: Optional[Tuple[Dentry, SigState]] = None
        self.pending_dlht: List[Tuple[Dentry, SigState, object]] = []
        self.pending_pcc: List[Dentry] = []
        self.pending_alias: List[Tuple[str, Dentry, SigState, object]] = []
        self.pending_linktarget: List[Tuple[Dentry, SigState]] = []
        self.pending_deepneg = None
        self.applied = False


class FastLookup(WalkHooks):
    """Optimized resolver: fastpath + slowpath population hooks.

    No ``__slots__`` here: one instance exists per kernel (nothing to
    save) and tests shim individual hook methods on the instance.
    """

    def __init__(self, costs: CostModel, stats: Stats, config,
                 dcache: Dcache, hasher: PathHasher, coherence: Coherence,
                 slow: SlowWalk):
        self.costs = costs
        self.stats = stats
        self.config = config
        self.dcache = dcache
        self.hasher = hasher
        self.coherence = coherence
        self.slow = slow
        slow.hooks = self
        coherence.bind(hasher, slow)
        # The policy's lookup side, bound once (one frame per call).
        self._pos_state = coherence.pos_state
        self._accept = coherence.accept
        self._on_miss = coherence.on_miss
        # Hashing already charged by a failed fastpath attempt is reusable
        # by the population hooks of the fallback slowpath (the hash state
        # is resumable, §3.1), so those bytes are not charged twice.
        self._prehashed_components = 0

    # ------------------------------------------------------------------
    # Fastpath resolution
    # ------------------------------------------------------------------

    def resolve(self, task: Task, path: str, *, follow_last: bool = True,
                intent_create: bool = False, create_dir: bool = False,
                dirfd_pos: Optional[PathPos] = None,
                count_stats: bool = True) -> PathPos:
        """Resolve ``path``, trying the fastpath first."""
        if count_stats:
            self.stats.bump("lookup")
        self._prehashed_components = 0
        absolute, comps, must_dir = vfspath.split(path)
        if self.config.lexical_dotdot:
            comps = vfspath.lexical_normalize(comps)
        start = task.root if absolute else (dirfd_pos or task.cwd)
        # The fastpath sets up less state than a full nameidata; the
        # difference is charged on fallback, where the slowpath completes
        # the setup.
        self.costs.charge_in("init", "fastpath_init")
        outcome = self._try_fastpath(task, start, comps, path,
                                     must_dir=must_dir,
                                     follow_last=follow_last,
                                     intent_create=intent_create,
                                     create_dir=create_dir)
        if outcome is not None:
            kind, payload = outcome
            self.stats.bump("fastpath_hit")
            self.costs.charge_in("final", "lookup_final")
            if kind == "raise":
                raise payload
            return payload
        self.stats.bump("fastpath_miss")
        self.costs.charge_in("init", "fastpath_init")  # complete the nameidata
        try:
            result = self.slow.resolve(task, path, follow_last=follow_last,
                                       intent_create=intent_create,
                                       create_dir=create_dir,
                                       dirfd_pos=dirfd_pos,
                                       count_stats=False,
                                       charge_setup=False)
        finally:
            self._prehashed_components = 0
        self.costs.charge_in("final", "lookup_final")
        return result

    def pcc_for(self, cred) -> PrefixCheckCache:
        """The cred's PCC (created and registered on first use)."""
        if cred.pcc is None:
            if self.config.pcc_adaptive:
                from repro.core.pcc import AdaptivePrefixCheckCache
                cred.pcc = AdaptivePrefixCheckCache(
                    self.costs, self.stats, self.config.pcc_capacity,
                    max_capacity=self.config.pcc_max_capacity)
            else:
                cred.pcc = PrefixCheckCache(self.costs, self.stats,
                                            self.config.pcc_capacity)
            self.coherence.track_pcc(cred.pcc)
        return cred.pcc

    def _extend(self, state: SigState, name: str,
                prehashed: bool = False) -> SigState:
        if not prehashed and self._prehashed_components > 0:
            # This component's hashing was already charged by the failed
            # fastpath attempt; resume its state for free.
            self._prehashed_components -= 1
        else:
            self.costs.charge_in("hash", self.hasher.cost_primitive,
                                 nbytes=len(name) + (1 if state.length else 0))
        return self.hasher.extend(state, name)

    def _extend_probe(self, state: SigState, name: str) -> SigState:
        """Hash during a fastpath attempt (reusable on fallback)."""
        state = self._extend(state, name, prehashed=True)
        self._prehashed_components += 1
        return state

    def _try_fastpath(self, task: Task, start: PathPos, comps: List[str],
                      path_hint: str, *, must_dir: bool, follow_last: bool,
                      intent_create: bool, create_dir: bool):
        """Returns ('ok', PathPos), ('raise', FsError), or None (fallback)."""
        ns = task.ns
        dlht = ns.dlht
        if dlht is None:
            return None
        if not comps:
            return self._position_hit(start, path_hint)
        pcc = self.pcc_for(task.cred)
        pos_state = self._pos_state
        cur_pos = start
        state, floor = pos_state(task, start)
        if state is None:
            return None
        i = 0
        total = len(comps)
        extend_probe = self._extend_probe
        finish = self.hasher.finish
        while i < total:
            if comps[i] == "..":
                # Linux dot-dot semantics: one extra fastpath-validated
                # hop per parent reference (§4.2).
                self.costs.charge("dotdot_extra_lookup")
                cur_pos = ns.cross_down(ns.parent_pos(cur_pos, task.root))
                state, floor = pos_state(task, cur_pos)
                if state is None:
                    return None
                i += 1
                if i == total:
                    return self._position_hit(cur_pos, path_hint)
                continue
            j = i
            while j < total and comps[j] != "..":
                j += 1
            seg_state = state
            prev_state = state
            for name in comps[i:j]:
                prev_state = seg_state
                seg_state = extend_probe(seg_state, name)
            sig = finish(seg_state)
            with self.costs.scope("htlookup"):
                found = dlht.probe(sig)
            if found is not None and not found.dead:
                # How the probed signature was derived: a validated
                # position extended by these components.
                anchor = (cur_pos.dentry, cur_pos.mount, comps[i:j],
                          seg_state, floor)
                if j < total:
                    # Interior prefix (a ".." follows): must be a plain
                    # cached directory with a valid prefix check.
                    if (found.is_alias or found.is_negative or found.is_stub
                            or found.is_symlink or not found.is_dir):
                        return None
                    verdict = self._accept(task, ns, pcc, found, sig, anchor)
                    if verdict is None or verdict is RETRY:
                        return None
                    fast = found.fast
                    if fast is None or fast.mount is None:
                        return None
                    floor = verdict
                    cur_pos = PathPos(fast.mount, found)
                    state = seg_state
                    i = j
                    continue
                outcome = self._finish_hit(
                    task, ns, pcc, found, sig, anchor, path_hint,
                    must_dir=must_dir, follow_last=follow_last,
                    intent_create=intent_create, create_dir=create_dir)
                if outcome is not RETRY:
                    return outcome
            # The path is not registered (or the policy just discarded
            # its key): a whole-path probe may complete from the parent.
            if i == 0 and j == total:
                return self._complete(
                    task, ns, pcc, cur_pos, comps, prev_state, seg_state,
                    sig, floor, path_hint, must_dir=must_dir,
                    intent_create=intent_create, create_dir=create_dir)
            return None
        return None  # unreachable

    def _position_hit(self, pos: PathPos, path_hint: str):
        """A lookup that ends *at* a trusted position (empty path, or a
        trailing ``..``): reached through the mount tree, not a probe, so
        the conclusion rests on the dentry's own state (beyond the seq
        pin) — negativity and inode kind — which the memo must pin."""
        dentry = pos.dentry
        rec = self.costs.recorder
        if rec is not None:
            rec.deps.append(dentry)
        if dentry.is_negative:
            return ("raise", errors.ENOENT(path_hint))
        return ("ok", pos)

    def _finish_hit(self, task: Task, ns, pcc: PrefixCheckCache,
                    found: Dentry, sig, anchor, path_hint: str, *,
                    must_dir: bool, follow_last: bool,
                    intent_create: bool, create_dir: bool):
        """Serve a terminal probe hit, once the policy accepts it.

        Returns an outcome, None (slowpath), or :data:`RETRY` when the
        policy discarded the probed key.
        """
        result = found
        target = found.alias_target
        if target is not None:
            if target.dead:
                return None
        elif found.inode is None and found.stub is not None:  # stub hit
            return None
        accept = self._accept
        verdict = accept(task, ns, pcc, found, sig, anchor)
        if verdict is None or verdict is RETRY:
            return verdict
        if target is not None:
            # An alias hit needs the target's prefix check too (§4.2).
            verdict = accept(task, ns, pcc, target)
            if verdict is None or verdict is RETRY:
                return None
            result = target
        ino = result.inode
        if ino is not None and ino.is_symlink and (follow_last or must_dir):
            resolved = self._follow_cached_link(task, pcc, result)
            if resolved is None:
                return None
            result = resolved
            ino = result.inode
        if self.config.force_fastpath_miss:
            # Fig 6 worst case: full fastpath work, forced fallback.
            return None
        if ino is None and result.stub is None \
                and result.alias_target is None:  # negative hit
            return self._negative_hit(result, path_hint,
                                      must_dir=must_dir,
                                      intent_create=intent_create,
                                      create_dir=create_dir)
        if must_dir and not result.is_dir:
            self.stats.bump("negative_hit")
            return ("raise", errors.ENOTDIR(path_hint))
        fast = result.fast
        if fast is None or fast.mount is None:
            return None
        self.costs.charge_in("final", "mount_flag_check")
        return ("ok", PathPos(fast.mount, result))

    def _follow_cached_link(self, task: Task, pcc: PrefixCheckCache,
                            link: Dentry) -> Optional[Dentry]:
        """Resolve a final symlink via its stored target signature (§4.2)."""
        fast = link.fast
        if fast is None or fast.link_target_state is None:
            return None
        dlht = task.ns.dlht
        tsig = self.hasher.finish(fast.link_target_state)
        with self.costs.scope("htlookup"):
            target = dlht.probe(tsig)
        if target is None or target.dead or target.is_alias \
                or target.is_stub or target.is_symlink:
            return None
        verdict = self._accept(task, task.ns, pcc, target, tsig)
        if verdict is None or verdict is RETRY:
            return None
        return target

    def _negative_hit(self, result: Dentry, path_hint: str, *,
                      must_dir: bool, intent_create: bool,
                      create_dir: bool):
        self.stats.bump("negative_hit")
        rec = self.costs.recorder
        if rec is not None:
            # The negativity conclusion (and, for intent_create, the
            # parent's viability) must be pinned by the memo.
            rec.deps.append(result)
        if result.neg_kind == NEG_ENOTDIR:
            return ("raise", errors.ENOTDIR(path_hint))
        if intent_create:
            parent = result.parent
            if rec is not None and parent is not None:
                rec.deps.append(parent)
            if parent is None or parent.is_negative or not parent.is_dir:
                return ("raise", errors.ENOENT(path_hint))
            if must_dir and not create_dir:
                return ("raise", errors.ENOENT(path_hint))
            fast = result.fast
            if fast is None or fast.mount is None:
                return None
            return ("ok", PathPos(fast.mount, result))
        return ("raise", errors.ENOENT(path_hint))

    def _complete(self, task: Task, ns, pcc: PrefixCheckCache,
                  start: PathPos, comps: List[str], parent_state: SigState,
                  seg_state: SigState, sig, floor: int, path_hint: str, *,
                  must_dir: bool, intent_create: bool, create_dir: bool):
        """Resolve just the trailing component of a full-path probe miss.

        Only where the coherence policy vouches for the parent
        (``on_miss``): a policy whose mutations leave the prefix of a
        churned path cached and valid spares the component-by-component
        re-walk.  When the parent directory then passes a real search
        check, do the one ``d_lookup``/FS lookup the slowpath would do
        for the last component, populate the caches, and finish the
        lookup right here.
        """
        if self.config.force_fastpath_miss:
            return None
        vouched = self._on_miss(task, ns, pcc, start, comps, parent_state,
                                floor)
        if vouched is None:
            return None
        parent, parent_mount, pcc_ok = vouched
        last = comps[-1]
        if parent.is_mountpoint \
                and ns.mount_at(parent_mount, parent) is not None:
            return None  # path continues inside the mounted fs
        if parent.inode is None:
            return None
        fs = parent.inode.fs
        if fs.requires_revalidation:
            return None  # §4.3: never serve or cache such paths here
        # The search check the slowpath would do before the last lookup.
        cred = task.cred
        lsm = self.slow.lsm
        self.costs.charge_in("perm", "perm_check_dac")
        if not perms.may_search(cred, parent.inode):
            return None  # slowpath raises EACCES with full context
        if not isinstance(lsm, NullLsm):
            self.costs.charge_in("perm", "perm_check_lsm")
            if not lsm.inode_permission(cred, parent.inode, perms.MAY_EXEC):
                return None
        child = self.dcache.d_lookup(parent, last)
        if child is not None:
            if child.dead or child.is_stub or child.is_alias \
                    or child.is_symlink:
                return None
            if child.is_mountpoint \
                    and ns.mount_at(parent_mount, child) is not None:
                return None
            self.stats.bump("dcache_hit")
        elif parent.dir_complete:
            # §5.1: completeness proves absence without an FS call.
            self.stats.bump("dir_complete_elide")
            child = self.dcache.d_alloc(parent, last, None)
        else:
            if not (fs.baseline_negative_dentries
                    or self.config.aggressive_negative):
                # A miss could not be cached as a negative dentry; leave
                # the whole case to the slowpath rather than risk paying
                # the FS lookup twice.
                return None
            self.stats.bump("dcache_miss")
            self.stats.bump("fs_lookup")
            with self.costs.scope("miss"):
                info = fs.lookup(parent.inode.ino, last)
            if info is not None:
                inode = self.dcache.inode_table(fs).obtain(info)
                child = self.dcache.d_alloc(parent, last, inode)
                if child.is_symlink:
                    return None  # symlink tails need the slowpath
            else:
                child = self.dcache.d_alloc(parent, last, None)
        self._populate(ns.dlht, pcc if pcc_ok else None, child, seg_state,
                       parent_mount, self.coherence.epoch, sig)
        self.stats.bump("fastpath_complete")
        if child.is_negative:
            return self._negative_hit(child, path_hint, must_dir=must_dir,
                                      intent_create=intent_create,
                                      create_dir=create_dir)
        if must_dir and not child.is_dir:
            self.stats.bump("negative_hit")
            return ("raise", errors.ENOTDIR(path_hint))
        self.costs.charge_in("final", "mount_flag_check")
        return ("ok", PathPos(parent_mount, child))

    # ------------------------------------------------------------------
    # WalkHooks: slowpath population
    # ------------------------------------------------------------------

    def begin(self, task: Task, start: PathPos, absolute: bool):
        ns = task.ns
        if ns.dlht is None:
            return None
        self.coherence.walks_active += 1
        anchor, floor = self._pos_state(task, start, self._recompute_state)
        pcc = self.pcc_for(task.cred)
        if start.dentry is ns.root_mount.root_dentry:
            pcc_ok = True
        else:
            with self.costs.scope("perm"):
                pcc_ok = pcc.probe(start.dentry, floor)
        return _WalkCtx(task, self.coherence.counter, pcc_ok, anchor,
                        start.mount)

    def step(self, ctx, name: str, child: Dentry, result: PathPos) -> None:
        if ctx is None:
            return
        target = result.dentry
        if ctx.anchor_state is not None:
            ctx.anchor_state = self._extend(ctx.anchor_state, name)
            ctx.pending_dlht.append((target, ctx.anchor_state, result.mount))
        ctx.pending_pcc.append(target)
        if ctx.alias_head is not None and ctx.alias_state is not None:
            ctx.alias_state = self._extend(ctx.alias_state, name)
            ctx.pending_alias.append((name, target, ctx.alias_state,
                                      result.mount))
        ctx.cur_mount = result.mount

    def dotdot(self, ctx, result: PathPos) -> None:
        if ctx is None:
            return
        ctx.anchor_state, _ = self._pos_state(ctx.task, result)
        ctx.alias_head = None
        ctx.alias_state = None
        ctx.cur_mount = result.mount
        ctx.pending_pcc.append(result.dentry)

    def symlink_begin(self, ctx, link: Dentry, absolute_target: bool) -> None:
        if ctx is None:
            return
        ctx.saved_link = None
        if not ctx.alias_done and ctx.anchor_state is not None:
            link_state = self._extend(ctx.anchor_state, link.name)
            ctx.pending_dlht.append((link, link_state, ctx.cur_mount))
            ctx.pending_pcc.append(link)
            ctx.saved_link = (link, link_state)
        ctx.alias_done = True
        ctx.alias_head = None
        ctx.alias_state = None
        if absolute_target:
            ctx.anchor_state = self.hasher.EMPTY
            ctx.cur_mount = ctx.task.ns.root_mount
        # A relative target resolves from the link's parent, where the
        # anchor already stands.

    def symlink(self, ctx, link: Dentry, target: PathPos) -> None:
        if ctx is None:
            return
        if ctx.saved_link is not None and ctx.saved_link[0] is link:
            ctx.alias_head = link
            ctx.alias_state = ctx.saved_link[1]
            if ctx.anchor_state is not None:
                ctx.pending_linktarget.append((link, ctx.anchor_state))
            ctx.saved_link = None
        ctx.cur_mount = target.mount
        if ctx.anchor_state is None:
            ctx.anchor_state, _ = self._pos_state(ctx.task, target)

    def negative_tail(self, ctx, neg: Dentry, remaining: List[str],
                      kind: str) -> None:
        if ctx is None:
            return
        if ctx.anchor_state is not None and not neg.dead:
            state = self._extend(ctx.anchor_state, neg.name)
            ctx.pending_dlht.append((neg, state, ctx.cur_mount))
            ctx.pending_pcc.append(neg)
            if self.config.deep_negative and remaining:
                ctx.pending_deepneg = (neg, list(remaining), kind, state)
        self._apply(ctx)

    def finish(self, ctx, final: PathPos) -> None:
        if ctx is None:
            return
        self._apply(ctx)

    def abandon(self, ctx) -> None:
        """The walk died (error path): balance the in-flight accounting.

        Nothing may be charged or populated here — the slowpath error is
        the observable outcome.
        """
        if ctx is None or ctx.applied:
            return
        ctx.applied = True
        self.coherence.walks_active -= 1

    # -- deferred application (guarded by the invalidation counter) ---------

    @staticmethod
    def _on_revalidating_sb(dentry: Dentry) -> bool:
        """True when the dentry's superblock forbids direct lookup (§4.3:
        stateless network file systems revalidate every component, so
        caching their paths in the DLHT/PCC would serve stale answers)."""
        inode = dentry.inode
        if inode is not None:
            return inode.fs.requires_revalidation
        node = dentry.parent
        while node is not None:
            if node.inode is not None:
                return node.inode.fs.requires_revalidation
            node = node.parent
        return False

    def _apply(self, ctx: "_WalkCtx") -> None:
        if ctx.applied:
            return
        ctx.applied = True
        self.coherence.walks_active -= 1
        if self.coherence.counter != ctx.counter_at_start:
            self.stats.bump("populate_abort")
            return
        # Counter unchanged means no mutation ran during the walk, so the
        # walk's observations are current as of the present epoch.
        epoch = self.coherence.epoch
        dlht = ctx.task.ns.dlht
        on_revalidating_sb = self._on_revalidating_sb
        populate = self._populate
        for dentry, state, mount in ctx.pending_dlht:
            if not dentry.dead and not on_revalidating_sb(dentry):
                populate(dlht, None, dentry, state, mount, epoch)
        for link, tstate in ctx.pending_linktarget:
            if not link.dead and not self._on_revalidating_sb(link):
                fast_of(link).link_target_state = tstate
        pcc = self.pcc_for(ctx.task.cred) if ctx.pcc_ok else None
        self._apply_aliases(ctx, dlht, pcc, epoch)
        self._apply_deep_negatives(ctx, dlht, pcc, epoch)
        if pcc is not None:
            pcc_insert = pcc.insert
            for dentry in ctx.pending_pcc:
                if not dentry.dead and not on_revalidating_sb(dentry):
                    pcc_insert(dentry, epoch)

    def _populate(self, dlht, pcc, dentry: Dentry, state: SigState, mount,
                  epoch: int, sig=None) -> None:
        """Register one resolved dentry: its hash state, its DLHT key,
        and — with a ``pcc`` (the directory-reference rule held) — its
        prefix check, all stamped with the policy's ``epoch``."""
        fast = fast_of(dentry)
        fast.hash_state = state
        fast.mount = mount
        fast.epoch_snapshot = epoch
        dlht.insert(dentry,
                    self.hasher.finish(state) if sig is None else sig)
        if pcc is not None:
            pcc.insert(dentry, epoch)

    def _apply_aliases(self, ctx, dlht, pcc, epoch: int) -> None:
        cur = ctx.alias_head
        if cur is None or self._on_revalidating_sb(cur):
            return
        for name, target, state, mount in ctx.pending_alias:
            if cur.dead or target.dead:
                return
            child = cur.children.get(name)
            if child is None:
                child = self.dcache.d_alloc_alias(cur, name, target)
            elif child.is_alias:
                child.alias_target = target
            else:
                return
            self._populate(dlht, pcc, child, state, mount, epoch)
            cur = child

    def _apply_deep_negatives(self, ctx, dlht, pcc, epoch: int) -> None:
        if ctx.pending_deepneg is None or not self.config.deep_negative:
            return
        neg, remaining, kind, state = ctx.pending_deepneg
        if neg.dead or self._on_revalidating_sb(neg):
            return
        chain = extend_negative_chain(self.dcache, neg, remaining, kind)
        for child in chain:
            state = self._extend(state, child.name)
            self._populate(dlht, pcc, child, state, ctx.cur_mount, epoch)
        self.stats.bump("deep_negative_chain")

    # -- canonical-path state recomputation -----------------------------------

    def _recompute_state(self, task: Task,
                         pos: PathPos) -> Optional[SigState]:
        """Rebuild a dentry's canonical-path hash state from the tree."""
        names: List[str] = []
        for dentry, mount in rootward(task.ns, pos.mount, pos.dentry):
            if dentry is not mount.root_dentry:
                if dentry.parent is None:
                    return None
                names.append(dentry.name)
        state = self.hasher.EMPTY
        for name in reversed(names):
            state = self._extend(state, name)
        fast = fast_of(pos.dentry)
        fast.hash_state = state
        fast.mount = pos.mount
        fast.epoch_snapshot = self.coherence.epoch
        return state
