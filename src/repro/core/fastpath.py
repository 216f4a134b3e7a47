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

Lazy coherence (``optimized-lazy``, see docs/coherence.md)
----------------------------------------------------------

Under epoch-based lazy invalidation a mutation stamps only the mutated
dentry, so a DLHT/PCC hit may be stale and must earn its answer:

* A probe hit is accepted in O(1) when it is the dentry's *primary*
  registration and the dentry's ``epoch_snapshot`` is current (no
  mutation anywhere since the entry was last validated).
* Otherwise the hit walks the dentry's ancestor chain (crossing mount
  boundaries), collecting the canonical component names and the highest
  epoch stamp.  A snapshot older than that high-water mark forces a
  recompute of the canonical-path hash; a signature mismatch evicts the
  stale key (touch-time eviction), a match refreshes the entry in place.
* Prefix-check staleness is handled the same way: PCC entries carry the
  epoch at which they were inserted and are compared against the chain's
  high-water mark; a stale-but-correct prefix is re-proved with real DAC
  (and LSM) checks and re-memoized.

The fastpath also *completes* trailing components in lazy mode: when the
full-path probe misses but the parent prefix is cached and valid, the
last component is resolved right here (one ``d_lookup`` or one FS lookup)
and populated, instead of falling back to a full slowpath walk — this is
what makes rename/create churn cheap end-to-end, not just mutation-side.

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
from repro.core.coherence import Coherence
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

#: Returned (lazy mode) when validation discarded the probed key: the
#: slot is free now, so the caller may retry trailing-component
#: completion before giving up and taking the slowpath.
_RETRY_COMPLETE = object()


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
        self.lazy = bool(config.lazy_invalidation)
        slow.hooks = self
        # Hashing already charged by a failed fastpath attempt is reusable
        # by the population hooks of the fallback slowpath (the hash state
        # is resumable, §3.1), so those bytes are not charged twice.
        self._prehashed_components = 0
        self._prehashed_bytes = 0

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
        self._prehashed_bytes = 0
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
            self._prehashed_bytes = 0
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

    def _state_of(self, dentry: Dentry) -> Optional[SigState]:
        fast = dentry.fast
        if fast is None:
            return None
        return fast.hash_state

    def _extend(self, state: SigState, name: str,
                prehashed: bool = False) -> SigState:
        extra = len(name) + (1 if state.length else 0)
        if not prehashed and self._prehashed_components > 0:
            # This component's hashing was already charged by the failed
            # fastpath attempt; resume its state for free.
            self._prehashed_components -= 1
            self._prehashed_bytes = max(0, self._prehashed_bytes - extra)
        else:
            self.costs.charge_in("hash", self.hasher.cost_primitive,
                                 nbytes=extra)
        return self.hasher.extend(state, name)

    def _extend_probe(self, state: SigState, name: str) -> SigState:
        """Hash during a fastpath attempt (reusable on fallback)."""
        state = self._extend(state, name, prehashed=True)
        self._prehashed_components += 1
        self._prehashed_bytes += len(name) + 1
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
            dentry = start.dentry
            rec = self.costs.recorder
            if rec is not None:
                # The conclusion rests on the start's own state (beyond
                # the seq pin): negativity and inode kind.
                rec.deps.append(dentry)
            if dentry.is_negative:
                return ("raise", errors.ENOENT(path_hint))
            return ("ok", start)
        lazy = self.lazy
        pcc = self.pcc_for(task.cred)
        cur_pos = start
        start_floor = 0
        if lazy:
            state, start_floor = self._lazy_pos_state(task, start)
        else:
            state = self._state_of(start.dentry)
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
                if lazy:
                    state, start_floor = self._lazy_pos_state(task, cur_pos)
                else:
                    state = self._state_of(cur_pos.dentry)
                if state is None:
                    return None
                i += 1
                if i == total:
                    dentry = cur_pos.dentry
                    rec = self.costs.recorder
                    if rec is not None:
                        # Dot-dot terminal: reached through the mount
                        # tree, not a probe — pin its state explicitly.
                        rec.deps.append(dentry)
                    if dentry.is_negative:
                        return ("raise", errors.ENOENT(path_hint))
                    return ("ok", cur_pos)
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
            if found is None or found.dead:
                if lazy and i == 0 and j == total:
                    return self._try_complete(
                        task, ns, pcc, cur_pos, prev_state, seg_state, sig,
                        comps, path_hint, must_dir=must_dir,
                        follow_last=follow_last, intent_create=intent_create,
                        create_dir=create_dir, start_floor=start_floor)
                return None
            if j == total:
                if lazy:
                    anchor = (cur_pos.dentry, cur_pos.mount, comps[i:j],
                              seg_state, start_floor)
                    outcome = self._finish_hit_lazy(
                        task, ns, pcc, found, sig, path_hint,
                        must_dir=must_dir, follow_last=follow_last,
                        intent_create=intent_create, create_dir=create_dir,
                        anchor=anchor)
                    if outcome is _RETRY_COMPLETE:
                        if i == 0:
                            return self._try_complete(
                                task, ns, pcc, cur_pos, prev_state,
                                seg_state, sig, comps, path_hint,
                                must_dir=must_dir, follow_last=follow_last,
                                intent_create=intent_create,
                                create_dir=create_dir,
                                start_floor=start_floor)
                        return None
                    return outcome
                return self._finish_hit(task, pcc, found, path_hint,
                                        must_dir=must_dir,
                                        follow_last=follow_last,
                                        intent_create=intent_create,
                                        create_dir=create_dir)
            # Interior prefix (a ".." follows): must be a plain cached
            # directory with a valid prefix check.
            if (found.is_alias or found.is_negative or found.is_stub
                    or found.is_symlink or not found.is_dir):
                return None
            if lazy:
                anchor = (cur_pos.dentry, cur_pos.mount, comps[i:j],
                          seg_state, start_floor)
                verdict = self._validate_hit(task, ns, pcc, found, sig,
                                             anchor=anchor)
                if verdict is None or verdict is _RETRY_COMPLETE:
                    return None
                start_floor = verdict
            else:
                with self.costs.scope("perm"):
                    if not pcc.probe(found):
                        return None
            fast = found.fast
            if fast is None or fast.mount is None:
                return None
            cur_pos = PathPos(fast.mount, found)
            state = seg_state
            i = j
        return None  # unreachable

    def _finish_hit(self, task: Task, pcc: PrefixCheckCache, found: Dentry,
                    path_hint: str, *, must_dir: bool, follow_last: bool,
                    intent_create: bool, create_dir: bool):
        result = found
        if found.is_alias:
            target = found.alias_target
            if target is None or target.dead:
                return None
            with self.costs.scope("perm"):
                if not pcc.probe(found) or not pcc.probe(target):
                    return None
            result = target
        elif found.is_stub:
            return None
        else:
            with self.costs.scope("perm"):
                if not pcc.probe(found):
                    return None
        if result.is_symlink and (follow_last or must_dir):
            resolved = self._follow_cached_link(task, pcc, result)
            if resolved is None:
                return None
            result = resolved
        if self.config.force_fastpath_miss:
            # Fig 6 worst case: full fastpath work, forced fallback.
            return None
        if result.is_negative:
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
        if self.lazy:
            verdict = self._validate_hit(task, task.ns, pcc, target, tsig)
            if verdict is None or verdict is _RETRY_COMPLETE:
                return None
            return target
        with self.costs.scope("perm"):
            if not pcc.probe(target):
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

    # ------------------------------------------------------------------
    # Lazy coherence: touch-time validation (optimized-lazy only)
    # ------------------------------------------------------------------

    def _lazy_pos_state(self, task: Task, pos: PathPos):
        """Validated hash state of a *trusted* position (start dir, ``..``
        hop, walk anchor).

        POSIX resolves relative lookups from an open directory handle or
        cwd regardless of renames or permission changes above it, so this
        is path-only revalidation: no prefix checks, no mount-shadowing
        concerns (the caller stands *at* the position).  Returns
        ``(state, floor)`` where ``floor`` is the chain's epoch high-water
        mark (the minimum epoch a PCC entry for this dentry must carry),
        or ``(None, 0)`` when the position's canonical path is gone.
        """
        dentry = pos.dentry
        fast = dentry.fast
        gepoch = self.coherence.epoch
        # The O(1) accept is one integer compare riding the cache line
        # the fastpath already loads; only chain nodes are charged.
        if fast is not None and fast.hash_state is not None \
                and fast.epoch_snapshot >= gepoch:
            return fast.hash_state, fast.epoch_snapshot
        ns = task.ns
        names: List[str] = []
        high = 0
        hops = 0
        cur = pos
        root_mount = ns.root_mount
        root_dentry = root_mount.root_dentry
        for _ in range(vfspath.PATH_MAX):
            d = cur.dentry
            if d.dead:
                return None, 0
            e = d.epoch
            if e > high:
                high = e
            if cur.mount is root_mount and d is root_dentry:
                break
            if d is cur.mount.root_dentry:
                if cur.mount.parent is None:
                    return None, 0
                cur = PathPos(cur.mount.parent, cur.mount.mountpoint)
                hops += 1
                continue
            parent = d.parent
            if parent is None:
                return None, 0
            names.append(d.name)
            cur = PathPos(cur.mount, parent)
            hops += 1
        else:
            return None, 0
        self.costs.charge_in("lazy", "lazy_validate", times=hops + 1)
        fast = fast_of(dentry)
        if fast.hash_state is not None and fast.epoch_snapshot >= high:
            # Still current — only the global epoch moved (mutations
            # elsewhere in the tree).  Re-arm the snapshot.
            fast.epoch_snapshot = gepoch
            return fast.hash_state, high
        names.reverse()
        if names:
            nbytes = sum(len(n) for n in names) + len(names) - 1
            self.costs.charge_in("hash", self.hasher.cost_primitive,
                                 times=len(names), nbytes=nbytes)
        state = self.hasher.extend_components(self.hasher.EMPTY, names)
        fast.hash_state = state
        fast.mount = pos.mount
        fast.epoch_snapshot = gepoch
        return state, high

    def _lazy_chain(self, ns, dentry: Dentry):
        """Walk a probed dentry's ancestor chain (crossing mounts).

        Returns ``(names, perm_nodes, high, reverify_ok)`` or None when
        the chain is broken (dead/detached node, dead mount, or a
        shadowing mountpoint mid-path): ``names`` are the canonical
        components root-first, ``perm_nodes`` the directories a slowpath
        walk would search-check (everything but the dentry itself and
        mountpoint dentries that mounts shadow), ``high`` the largest
        epoch stamp on the chain, and ``reverify_ok`` False when some
        intermediate is not a plain directory (alias chains), in which
        case prefix checks cannot be re-proved here.
        """
        fast = dentry.fast
        cur = dentry
        cur_mount = fast.mount
        names: List[str] = []
        perm_nodes: List[Dentry] = []
        high = 0
        hops = 0
        reverify_ok = True
        skip_perm = False  # set when we just hopped onto a mountpoint
        mount_at = ns.mount_at
        root_mount = ns.root_mount
        root_dentry = root_mount.root_dentry
        for _ in range(vfspath.PATH_MAX):
            if cur.dead:
                return None
            e = cur.epoch
            if e > high:
                high = e
            if cur_mount is root_mount and cur is root_dentry:
                if cur is not dentry:
                    perm_nodes.append(cur)
                self._charge_chain(hops)
                names.reverse()
                return names, perm_nodes, high, reverify_ok
            if cur is cur_mount.root_dentry:
                parent_mount = cur_mount.parent
                if parent_mount is None:
                    return None  # detached mount
                mountpoint = cur_mount.mountpoint
                if mount_at(parent_mount, mountpoint) is not cur_mount:
                    return None  # the mount is gone from this namespace
                if cur is not dentry:
                    perm_nodes.append(cur)  # mounted root is search-checked
                cur = mountpoint
                cur_mount = parent_mount
                hops += 1
                # The mountpoint dentry itself is shadowed (walks hop over
                # it without a search check), so skip both checks for it.
                skip_perm = True
                continue
            if cur is not dentry:
                if skip_perm:
                    skip_perm = False
                else:
                    if cur.is_mountpoint \
                            and mount_at(cur_mount, cur) is not None:
                        return None  # a mount now shadows this prefix
                    # Plain cached directory <=> a dir inode with no
                    # alias/stub overlay (negatives have no inode).
                    ino = cur.inode
                    if (ino is not None and ino.is_dir
                            and cur.alias_target is None
                            and cur.stub is None):
                        perm_nodes.append(cur)
                    else:
                        reverify_ok = False
            parent = cur.parent
            if parent is None:
                return None
            names.append(cur.name)
            cur = parent
            hops += 1
        return None

    def _charge_chain(self, hops: int) -> None:
        self.costs.charge_in("lazy", "lazy_validate", times=max(1, hops))

    def _reverse_check(self, ns, dentry: Dentry, anchor: Dentry,
                       anchor_mount, names: List[str]):
        """Match a hit's tree-parent chain against the probed components.

        When the probe was derived by extending a validated anchor with
        ``names``, the hit is current iff walking ``len(names)`` tree
        parents (matching each name) lands exactly on the anchor, with
        no intermediate shadowed by a mount — no rehash needed.  Returns
        ``(suffix_high, perm_nodes, reverify_ok)`` on a match; False when
        the chain provably diverges from the probed components (dead
        node, name mismatch, wrong terminal, or a shadowing mount), so
        the caller can discard the key without rehashing; None when the
        chain leaves the anchor's file system mid-walk (mount-crossing
        canonical paths: only the full chain walk can decide).
        """
        high = 0
        perm_nodes: List[Dentry] = []
        reverify_ok = True
        cur = dentry
        mount_at = ns.mount_at
        for idx in range(len(names) - 1, -1, -1):
            if cur.dead or cur.name != names[idx]:
                return False
            e = cur.epoch
            if e > high:
                high = e
            if cur is not dentry:
                if cur.is_mountpoint \
                        and mount_at(anchor_mount, cur) is not None:
                    return False  # a mount now shadows this prefix
                # Plain cached directory <=> a dir inode with no
                # alias/stub overlay (negatives have no inode).
                ino = cur.inode
                if (ino is not None and ino.is_dir
                        and cur.alias_target is None and cur.stub is None):
                    perm_nodes.append(cur)
                else:
                    reverify_ok = False
            cur = cur.parent
            if cur is None:
                return None  # crossed an fs boundary: full walk needed
        if cur is not anchor:
            return False
        e = cur.epoch
        if e > high:
            high = e
        # The walk search-checks the anchor (start directory) too.
        ino = cur.inode
        if (ino is not None and ino.is_dir
                and cur.alias_target is None and cur.stub is None):
            perm_nodes.append(cur)
        else:
            reverify_ok = False
        self._charge_chain(len(names))
        return high, perm_nodes, reverify_ok

    def _validate_hit(self, task: Task, ns, pcc: PrefixCheckCache,
                      dentry: Dentry, sig, anchor=None):
        """Earn a lazy-mode probe hit: path validity, then prefix checks.

        ``anchor``, when given, is ``(anchor_dentry, anchor_mount, names,
        seg_state, floor)`` describing how the probed signature was
        derived (a validated position extended by ``names``); it enables
        the cheap reverse identity check in place of the full chain walk
        plus hash recompute.

        Returns the chain's epoch floor (an int) on success, None for a
        plain fallback, or :data:`_RETRY_COMPLETE` when the probed key
        was discarded (stale registration) and the caller may retry
        trailing-component completion against the now-free slot.
        """
        fast = dentry.fast
        dlht = ns.dlht
        if fast is None or fast.dlht is not dlht or fast.mount is None:
            return None
        key = (sig.index, sig.bits)
        primary = fast.dlht_key == key
        gepoch = self.coherence.epoch
        # The O(1) accept/reject is one integer compare on state the
        # probe already loaded; only chain nodes get charged below.
        if fast.hash_state is not None and fast.epoch_snapshot >= gepoch:
            if not primary:
                # The primary registration is provably current, so any
                # other key names a path this dentry no longer lives at:
                # discard it without walking the chain.
                dlht.discard_key(dentry, key)
                self.stats.bump("lazy_evict")
                return _RETRY_COMPLETE
            with self.costs.scope("perm"):
                if pcc.probe(dentry, fast.epoch_snapshot):
                    return fast.epoch_snapshot
            # Prefix check missing or epoch-stale: fall through to the
            # chain validation, which can re-prove it with DAC checks.
        perm_anchor = None
        if anchor is not None:
            a_dentry, a_mount, names, seg_state, floor = anchor
            rev = self._reverse_check(ns, dentry, a_dentry, a_mount, names)
            if rev is False:
                # The hit's tree position provably diverges from the
                # probed components: the key is stale, no rehash needed.
                dlht.discard_key(dentry, key)
                self.stats.bump("lazy_evict")
                return _RETRY_COMPLETE
        else:
            rev = None
        if rev is not None:
            # The probed components are exactly the hit's canonical tail
            # below the validated anchor: adopt the probe's hash state
            # (already charged) instead of recomputing.
            suffix_high, perm_nodes, reverify_ok = rev
            high = floor if floor > suffix_high else suffix_high
            if not primary or fast.hash_state is None \
                    or fast.epoch_snapshot < high:
                fast.hash_state = seg_state
                fast.mount = a_mount
                dlht.insert(dentry, sig)  # promotes the key to primary
                self.stats.bump("lazy_refresh")
            perm_anchor = (a_dentry, floor)
        else:
            chain = self._lazy_chain(ns, dentry)
            if chain is None:
                dlht.discard_key(dentry, key)
                self.stats.bump("lazy_evict")
                return _RETRY_COMPLETE
            names, perm_nodes, high, reverify_ok = chain
            if not primary or fast.hash_state is None \
                    or fast.epoch_snapshot < high:
                # The registration under this key predates a mutation on
                # the chain: recompute the canonical hash and compare.
                if names:
                    nbytes = sum(len(n) for n in names) + len(names) - 1
                    self.costs.charge_in("hash", self.hasher.cost_primitive,
                                         times=len(names), nbytes=nbytes)
                state = self.hasher.extend_components(self.hasher.EMPTY,
                                                      names)
                self.costs.charge("sig_compare")
                fsig = self.hasher.finish(state)
                if (fsig.index, fsig.bits) != key:
                    # The dentry no longer lives at the probed path.
                    dlht.discard_key(dentry, key)
                    self.stats.bump("lazy_evict")
                    return _RETRY_COMPLETE
                fast.hash_state = state
                dlht.insert(dentry, fsig)  # promotes the key to primary
                self.stats.bump("lazy_refresh")
        fast.epoch_snapshot = gepoch
        if dentry.is_mountpoint \
                and ns.mount_at(fast.mount, dentry) is not None:
            # The path is right but now resolves into a mounted fs; the
            # slowpath will repopulate the key with the mounted root.
            dlht.discard_key(dentry, key)
            self.stats.bump("lazy_evict")
            return _RETRY_COMPLETE
        with self.costs.scope("perm"):
            if pcc.probe(dentry, high):
                return high
        if not reverify_ok:
            return None
        cred = task.cred
        lsm = self.slow.lsm
        lsm_active = not isinstance(lsm, NullLsm)
        for node in perm_nodes:
            inode = node.inode
            self.costs.charge_in("perm", "perm_check_dac")
            if not perms.may_search(cred, inode):
                return None  # slowpath re-derives the EACCES with context
            if lsm_active:
                self.costs.charge_in("perm", "perm_check_lsm")
                if not lsm.inode_permission(cred, inode, perms.MAY_EXEC):
                    return None
        if perm_anchor is not None:
            # Anchored reprove covers the anchor and below — memoizing
            # the full-root prefix additionally needs the anchor's own
            # entry to be valid (the directory-reference rule).
            a_dentry, floor = perm_anchor
            if a_dentry is not ns.root_mount.root_dentry:
                with self.costs.scope("perm"):
                    if not pcc.probe(a_dentry, floor):
                        return high  # served, but not memoized
        pcc.insert(dentry, gepoch)
        self.stats.bump("lazy_pcc_reprove")
        return high

    def _finish_hit_lazy(self, task: Task, ns, pcc: PrefixCheckCache,
                         found: Dentry, sig, path_hint: str, *,
                         must_dir: bool, follow_last: bool,
                         intent_create: bool, create_dir: bool,
                         anchor=None):
        result = found
        target = found.alias_target
        if target is not None:  # alias hit
            if target.dead:
                return None
            verdict = self._validate_hit(task, ns, pcc, found, sig,
                                         anchor=anchor)
            if verdict is None:
                return None
            if verdict is _RETRY_COMPLETE:
                return _RETRY_COMPLETE
            tfast = target.fast
            if tfast is None or tfast.signature is None:
                return None
            tv = self._validate_hit(task, ns, pcc, target, tfast.signature)
            if tv is None or tv is _RETRY_COMPLETE:
                return None
            result = target
        elif found.inode is None and found.stub is not None:  # stub hit
            return None
        else:
            verdict = self._validate_hit(task, ns, pcc, found, sig,
                                         anchor=anchor)
            if verdict is None:
                return None
            if verdict is _RETRY_COMPLETE:
                return _RETRY_COMPLETE
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

    def _try_complete(self, task: Task, ns, pcc: PrefixCheckCache,
                      start_pos: PathPos, parent_state: SigState,
                      seg_state: SigState, sig, comps: List[str],
                      path_hint: str, *, must_dir: bool, follow_last: bool,
                      intent_create: bool, create_dir: bool,
                      start_floor: int):
        """Resolve just the trailing component of a full-path probe miss.

        Lazy mutations leave the prefix of a churned path cached and
        valid; falling all the way back to the slowpath would re-walk it
        component by component.  Instead, when the parent directory is
        cached (or *is* the start position) and passes validation and a
        real search check, do the one ``d_lookup``/FS lookup the slowpath
        would do for the last component, populate the caches, and finish
        the lookup right here.
        """
        if self.config.force_fastpath_miss:
            return None
        dlht = ns.dlht
        last = comps[-1]
        if len(comps) == 1:
            # Relative single-component lookup: the start position is the
            # parent, already validated by _lazy_pos_state.  No prefix
            # check is *required* (POSIX dirfd/cwd semantics) but the
            # directory-reference rule gates memoizing the child's check.
            parent = start_pos.dentry
            parent_mount = start_pos.mount
            if parent.is_negative or not parent.is_dir:
                return None
            if parent is ns.root_mount.root_dentry:
                pcc_ok = True
            else:
                with self.costs.scope("perm"):
                    pcc_ok = pcc.probe(parent, start_floor)
        else:
            psig = self.hasher.finish(parent_state)
            with self.costs.scope("htlookup"):
                parent = dlht.probe(psig)
            if parent is None or parent.dead:
                return None
            if (parent.is_alias or parent.is_negative or parent.is_stub
                    or parent.is_symlink or not parent.is_dir):
                return None
            anchor = (start_pos.dentry, start_pos.mount, comps[:-1],
                      parent_state, start_floor)
            verdict = self._validate_hit(task, ns, pcc, parent, psig,
                                         anchor=anchor)
            if verdict is None or verdict is _RETRY_COMPLETE:
                return None
            pcc_ok = True
            pfast = parent.fast
            if pfast is None or pfast.mount is None:
                return None
            parent_mount = pfast.mount
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
        gepoch = self.coherence.epoch
        fast = fast_of(child)
        fast.hash_state = seg_state
        fast.mount = parent_mount
        fast.epoch_snapshot = gepoch
        dlht.insert(child, sig)
        if pcc_ok:
            pcc.insert(child, gepoch)
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

    def sweep_key(self, dlht, key) -> bool:
        """Settle one DLHT key for the background sweep; True if discarded.

        Same validation the touch path does, minus permission concerns
        (the sweep has no credential): broken chain or signature mismatch
        discards the key; a survivor is refreshed so the next touch is
        O(1) again.
        """
        dentry = dlht.peek(key)
        if dentry is None:
            return False
        self.costs.charge_in("lazy", "lazy_validate")
        fast = dentry.fast
        if dentry.dead or fast is None or fast.dlht is not dlht \
                or fast.mount is None:
            dlht.discard_key(dentry, key)
            return True
        gepoch = self.coherence.epoch
        if fast.dlht_key == key and fast.hash_state is not None \
                and fast.epoch_snapshot >= gepoch:
            return False
        ns = dlht.owner_ns() if dlht.owner_ns is not None else None
        if ns is None:
            return False
        chain = self._lazy_chain(ns, dentry)
        if chain is None:
            dlht.discard_key(dentry, key)
            return True
        names, _perm_nodes, high, _reverify_ok = chain
        if fast.dlht_key == key and fast.hash_state is not None \
                and fast.epoch_snapshot >= high:
            fast.epoch_snapshot = gepoch
            return False
        if names:
            nbytes = sum(len(n) for n in names) + len(names) - 1
            self.costs.charge_in("hash", self.hasher.cost_primitive,
                                 times=len(names), nbytes=nbytes)
        state = self.hasher.extend_components(self.hasher.EMPTY, names)
        self.costs.charge("sig_compare")
        fsig = self.hasher.finish(state)
        if (fsig.index, fsig.bits) != key:
            dlht.discard_key(dentry, key)
            return True
        fast.hash_state = state
        dlht.insert(dentry, fsig)
        fast.epoch_snapshot = gepoch
        return False

    # ------------------------------------------------------------------
    # WalkHooks: slowpath population
    # ------------------------------------------------------------------

    def begin(self, task: Task, start: PathPos, absolute: bool):
        ns = task.ns
        if ns.dlht is None:
            return None
        self.coherence.walks_active += 1
        floor = 0
        if self.lazy:
            anchor, floor = self._lazy_pos_state(task, start)
        else:
            anchor = self._state_of(start.dentry)
            if anchor is None:
                anchor = self._recompute_state(task, start)
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
        if self.lazy:
            ctx.anchor_state, _ = self._lazy_pos_state(ctx.task, result)
        else:
            ctx.anchor_state = self._state_of(result.dentry)
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
            if self.lazy:
                ctx.anchor_state, _ = self._lazy_pos_state(ctx.task, target)
            else:
                ctx.anchor_state = self._state_of(target.dentry)

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
        lazy = self.lazy
        # Counter unchanged means no mutation ran during the walk, so the
        # walk's observations are current as of the present epoch.
        gepoch = self.coherence.epoch
        dlht = ctx.task.ns.dlht
        on_revalidating_sb = self._on_revalidating_sb
        insert = dlht.insert
        finish = self.hasher.finish
        for dentry, state, mount in ctx.pending_dlht:
            if dentry.dead or on_revalidating_sb(dentry):
                continue
            fast = fast_of(dentry)
            fast.hash_state = state
            fast.mount = mount
            if lazy:
                fast.epoch_snapshot = gepoch
            insert(dentry, finish(state))
        for link, tstate in ctx.pending_linktarget:
            if not link.dead and not self._on_revalidating_sb(link):
                fast_of(link).link_target_state = tstate
        pcc = self.pcc_for(ctx.task.cred) if ctx.pcc_ok else None
        self._apply_aliases(ctx, dlht, pcc, gepoch)
        self._apply_deep_negatives(ctx, dlht, pcc, gepoch)
        if pcc is not None:
            epoch = gepoch if lazy else 0
            pcc_insert = pcc.insert
            for dentry in ctx.pending_pcc:
                if not dentry.dead and not on_revalidating_sb(dentry):
                    pcc_insert(dentry, epoch)

    def _apply_aliases(self, ctx, dlht, pcc, gepoch: int) -> None:
        cur = ctx.alias_head
        if cur is None or self._on_revalidating_sb(cur):
            return
        lazy = self.lazy
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
            fast = fast_of(child)
            fast.hash_state = state
            fast.mount = mount
            if lazy:
                fast.epoch_snapshot = gepoch
            dlht.insert(child, self.hasher.finish(state))
            if pcc is not None:
                pcc.insert(child, gepoch if lazy else 0)
            cur = child

    def _apply_deep_negatives(self, ctx, dlht, pcc, gepoch: int) -> None:
        if ctx.pending_deepneg is None or not self.config.deep_negative:
            return
        neg, remaining, kind, state = ctx.pending_deepneg
        if neg.dead or self._on_revalidating_sb(neg):
            return
        lazy = self.lazy
        chain = extend_negative_chain(self.dcache, neg, remaining, kind)
        for child in chain:
            state = self._extend(state, child.name)
            fast = fast_of(child)
            fast.hash_state = state
            fast.mount = ctx.cur_mount
            if lazy:
                fast.epoch_snapshot = gepoch
            dlht.insert(child, self.hasher.finish(state))
            if pcc is not None:
                pcc.insert(child, gepoch if lazy else 0)
        self.stats.bump("deep_negative_chain")

    # -- canonical-path state recomputation -----------------------------------

    def _recompute_state(self, task: Task,
                         pos: PathPos) -> Optional[SigState]:
        """Rebuild a dentry's canonical-path hash state from the tree."""
        ns = task.ns
        names: List[str] = []
        cur = pos
        for _ in range(vfspath.PATH_MAX):
            if (cur.mount is ns.root_mount
                    and cur.dentry is ns.root_mount.root_dentry):
                break
            if cur.dentry is cur.mount.root_dentry:
                if cur.mount.parent is None:
                    break
                cur = PathPos(cur.mount.parent, cur.mount.mountpoint)
                continue
            if cur.dentry.parent is None:
                return None
            names.append(cur.dentry.name)
            cur = PathPos(cur.mount, cur.dentry.parent)
        state = self.hasher.EMPTY
        for name in reversed(names):
            state = self._extend(state, name)
        fast = fast_of(pos.dentry)
        fast.hash_state = state
        fast.mount = pos.mount
        if self.lazy:
            fast.epoch_snapshot = self.coherence.epoch
        return state
