"""The fastpath lookup engine (§3, §4).

:class:`FastLookup` is the optimized kernel's resolver.  On the way *in*
it attempts a direct lookup: hash the canonical path (resuming from the
start dentry's stored state), probe the namespace's DLHT, validate the
memoized prefix check in the caller's PCC, and — on a hit — finish after
a constant number of hash-table operations regardless of path depth.  Any
wrinkle (miss, stale sequence, stub, followed symlink without a cached
target) falls back to the shared slowpath.

Host cost is constant too (``docs/cost-model.md``): each run of
components between ``..`` hops is charged as one hash charge, and a
served lookup as one priced vector per outcome (positive, negative or
ENOTDIR, position) that also carries the terminal probe and
``pcc_probe`` when the policy's O(1) ``admit`` took it.  A fallback
walk gets the count of components hashed; its first that many hash
extensions are free.  When the attempt hashed the whole path as one
segment it hands over the state after each component too, and the walk
reads them instead of extending while its anchor is the attempt's start
state.

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
(``pos_state``), whether a probe hit is current (``accept``, or
``admit`` for its O(1) case), and whether a full-path probe miss may be
completed from its cached parent (``on_miss``); population stamps what
it inserts with the policy's ``epoch``.  Under the paper's eager policy
those are one stored state, one PCC probe, "no" and zero.

Resolution-memo recording (see :mod:`repro.core.resmemo`)
---------------------------------------------------------

When the resolution memo records a resolve through this engine, every
charge lands in the recording's own tables inside the ``CostModel``;
what a conclusion rests on is appended where it is drawn
(``dlht.lookup`` and ``_position_hit`` / ``_negative_hit`` to
``rec.deps`` / ``rec.misses``, the PCC to ``rec.pcc``).  The contract
this module upholds for replayability is that a *steady-state* hit's
only host-visible side effects are dcache-LRU touches and PCC
``move_to_end`` reorders (both captured and mirrored on replay);
anything that populates or rehashes state (DLHT/PCC inserts, stub fills,
lazy re-arms) makes two consecutive executions observably different,
which is exactly what keeps such resolutions out of the memo's confirmed
set.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro import errors
from repro.core.coherence import RETRY, Coherence
from repro.core.dlht import PROBE_CHARGES
from repro.core.fastdentry import FastDentry, fast_of
from repro.core.negative import extend_negative_chain
from repro.core.pcc import PrefixCheckCache
from repro.core.signatures import HashState, PathHasher
from repro.sim.costs import CostModel
from repro.sim.stats import Stats
from repro.vfs import path as vfspath
from repro.vfs.dcache import Dcache
from repro.vfs.dentry import NEG_ENOTDIR, Dentry
from repro.vfs.mount import PathPos
from repro.vfs.task import Task
from repro.vfs.walk import SlowWalk, WalkHooks


class _WalkCtx:
    """Per-walk population state (the opaque ctx of WalkHooks)."""

    __slots__ = ("task", "counter_at_start", "pcc_ok", "anchor_state",
                 "cur_mount", "alias_head", "alias_state", "alias_done",
                 "saved_link", "pending", "pending_alias",
                 "pending_linktarget", "pending_deepneg", "applied",
                 "prehashed", "states")

    def __init__(self, task: Task, counter: int, pcc_ok: bool,
                 anchor_state: Optional[HashState], cur_mount, prehashed: int,
                 states: Optional[tuple]):
        self.task = task
        self.counter_at_start = counter
        self.pcc_ok = pcc_ok
        self.anchor_state = anchor_state
        self.cur_mount = cur_mount
        self.alias_head: Optional[Dentry] = None
        self.alias_state: Optional[HashState] = None
        self.alias_done = False
        self.saved_link: Optional[Tuple[Dentry, HashState]] = None
        #: Every dentry walked, in order, for the PCC; with its hash
        #: state and mount for the DLHT, or ``None, None`` (a ``..``).
        self.pending: List[Tuple[Dentry, Optional[HashState], object]] = []
        self.pending_alias: List[Tuple[str, Dentry, HashState, object]] = []
        self.pending_linktarget: List[Tuple[Dentry, HashState]] = []
        self.pending_deepneg = None
        self.applied = False
        #: Hash extensions still free: the failed attempt charged them.
        self.prehashed = prehashed
        #: The attempt's state after each component, while the walk's
        #: anchor follows the attempt's components: the state a free
        #: extension of the anchor produces is ``states[-prehashed]``.
        self.states = states


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
        self._admit = coherence.admit
        self._accept = coherence.accept
        self._on_miss = coherence.on_miss
        self._segment = hasher.extend_segment
        self._length = hasher.length
        run = costs.run
        prim = hasher.cost_primitive
        self._hash = run((("hash", prim),), prim)
        probed = PROBE_CHARGES + (("perm", "pcc_probe"),)
        self._pair, self._hop = run(PROBE_CHARGES), run(probed)
        # A fallback walk's setup and teardown (``SlowWalk.resolve``): the
        # fastpath's lighter setup and the rest of a nameidata.
        init = (("init", "fastpath_init"),) * 2
        self._fallback = (run(init + (("final", "lookup_final"),)), run(init))

        def outcome(charges, *deltas):
            """(vector, deltas) as charged, then with an O(1) accept's
            probe."""
            charges = (("init", "fastpath_init"),) + charges \
                + (("final", "lookup_final"),)
            deltas += (("fastpath_hit", 1),)
            return ((run(charges), deltas),
                    (run(charges + probed), (("pcc_hit", 1),) + deltas))

        self._hit = outcome((("final", "mount_flag_check"),))
        self._neg = outcome((), ("negative_hit", 1))
        self._pos = outcome(())

    # ------------------------------------------------------------------
    # Fastpath resolution
    # ------------------------------------------------------------------

    def resolve(self, task: Task, path: str, *, follow_last: bool = True,
                intent_create: bool = False, create_dir: bool = False,
                dirfd_pos: Optional[PathPos] = None) -> PathPos:
        """Resolve ``path``, trying the fastpath first."""
        self.stats.bump("lookup")
        absolute, comps, must_dir = vfspath.split(path)
        if self.config.lexical_dotdot:
            comps = vfspath.lexical_normalize(comps)
        start = task.root if absolute else (dirfd_pos or task.cwd)
        served = self._try_fastpath(task, start, comps, path,
                                    must_dir=must_dir,
                                    follow_last=follow_last,
                                    intent_create=intent_create,
                                    create_dir=create_dir)
        kind = type(served)
        if kind is not int and kind is not tuple:
            return served
        self.stats.bump("fastpath_miss")
        return self.slow.resolve(task, path, follow_last=follow_last,
                                 intent_create=intent_create,
                                 create_dir=create_dir, dirfd_pos=dirfd_pos,
                                 count_stats=False, setup=self._fallback,
                                 prehashed=served,
                                 parsed=(absolute, comps, must_dir))

    def pcc_for(self, cred) -> PrefixCheckCache:
        """The cred's PCC (created on first use)."""
        if cred.pcc is None:
            if self.config.pcc_adaptive:
                from repro.core.pcc import AdaptivePrefixCheckCache
                cred.pcc = AdaptivePrefixCheckCache(
                    self.costs, self.stats, self.config.pcc_capacity)
            else:
                cred.pcc = PrefixCheckCache(self.costs, self.stats,
                                            self.config.pcc_capacity)
        return cred.pcc

    def _extend(self, ctx: _WalkCtx, state: HashState,
                name: str) -> HashState:
        if ctx.prehashed:
            ctx.prehashed -= 1  # the failed fastpath attempt charged it
        else:
            self.costs.apply(self._hash, 1,
                             len(name) + (1 if self._length(state) else 0))
        return self.hasher.extend(state, name)

    def _try_fastpath(self, task: Task, start: PathPos, comps: Sequence[str],
                      path_hint: str, *, must_dir: bool, follow_last: bool,
                      intent_create: bool, create_dir: bool):
        """Returns the served PathPos or raises its error (both charged);
        else what the fallback walk is handed: the number of components
        hashed or, when the whole path was one segment, ``(start state,
        state after each component)``."""
        ns = task.ns
        dlht = ns.dlht
        if dlht is None:
            return 0
        if not comps:
            return self._position_hit(start, path_hint)
        pcc = task.cred.pcc
        if pcc is None:
            pcc = self.pcc_for(task.cred)
        pos_state = self._pos_state
        cur_pos = start
        state, floor = pos_state(task, start)
        if state is None:
            return 0
        costs = self.costs
        table = dlht.table
        i = 0
        hashed = 0
        total = len(comps)
        dotdots = ".." in comps
        while i < total:
            if comps[i] == "..":
                # Linux dot-dot semantics: one extra fastpath-validated
                # hop per parent reference (§4.2).
                costs.charge("dotdot_extra_lookup")
                cur_pos = ns.cross_down(ns.parent_pos(cur_pos, task.root))
                state, floor = pos_state(task, cur_pos)
                if state is None:
                    return hashed
                i += 1
                if i == total:
                    return self._position_hit(cur_pos, path_hint)
                continue
            if dotdots:
                j = i
                while j < total and comps[j] != "..":
                    j += 1
                names = tuple(comps[i:j])
            else:
                j = total
                names = tuple(comps)
            prev_state, seg_state, sig, nbytes, states = \
                self._segment(state, names)
            costs.apply(self._hash, j - i, nbytes)
            hashed += j - i
            # The probe, in place unless a recording needs its notes.
            found = table.get(sig) if costs.recorder is None \
                else dlht.lookup(sig)
            if found is None or found.dead or j < total:
                costs.apply(self._pair)  # else in _finish_hit
            whole = i == 0 and j == total
            if found is not None and not found.dead:
                # How the probed signature was derived: a validated
                # position extended by these components.
                anchor = (cur_pos.dentry, cur_pos.mount, names, seg_state,
                          floor)
                if j < total:
                    # Interior prefix (a ".." follows): must be a plain
                    # cached directory with a valid prefix check.
                    if (found.is_alias or found.is_negative or found.is_stub
                            or found.is_symlink or not found.is_dir):
                        return hashed
                    verdict = self._accept(task, ns, pcc, found, anchor)
                    if verdict is None or verdict is RETRY:
                        return hashed
                    fast = found.fast
                    if fast is None or fast.mount is None:
                        return hashed
                    floor = verdict
                    cur_pos = PathPos(fast.mount, found)
                    state = seg_state
                    i = j
                    continue
                # The policy's O(1) accept leaves the probe and the
                # prefix check to the served outcome's vector (``folded``).
                target = found.alias_target
                folded = (not target.dead if target is not None
                          else not found.is_stub) \
                    and self._admit(ns, pcc, found) is not None
                if folded and target is None and not (
                        found.is_symlink or found.is_negative
                        or must_dir and not found.is_dir
                        or self.config.force_fastpath_miss):
                    fast = found.fast
                    if fast is not None and fast.mount is not None:
                        # A plain hit: _finish_hit's end, inline.
                        vector, deltas = self._hit[True]
                        costs.apply(vector)
                        self.stats.bump_many(deltas)
                        return PathPos(fast.mount, found)
                served = self._finish_hit(
                    task, ns, pcc, found, anchor, path_hint, folded,
                    must_dir=must_dir, follow_last=follow_last,
                    intent_create=intent_create, create_dir=create_dir)
                if served is not RETRY:
                    if served is not None:
                        return served
                    return (state, states) if whole else hashed
            # The path is not registered (or the policy just discarded
            # its key): a whole-path probe may complete from the parent.
            if whole and self._on_miss is not None:
                served = self._complete(
                    task, ns, pcc, cur_pos, comps, prev_state, seg_state,
                    floor, path_hint, must_dir=must_dir,
                    intent_create=intent_create, create_dir=create_dir)
                return (state, states) if served is None else served
            return hashed
        return hashed  # unreachable

    def _serve(self, outcome, folded: bool, result):
        """Charge ``outcome``'s vector and Stats; hand back ``result``."""
        vector, deltas = outcome[folded]
        self.costs.apply(vector)
        self.stats.bump_many(deltas)
        return result

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
            raise self._serve(self._pos, False, errors.ENOENT(path_hint))
        return self._serve(self._pos, False, pos)

    def _finish_hit(self, task: Task, ns, pcc: PrefixCheckCache,
                    found: Dentry, anchor, path_hint: str,
                    folded: bool, *, must_dir: bool, follow_last: bool,
                    intent_create: bool, create_dir: bool):
        """Serve a terminal probe hit, once the policy accepts it.

        Returns the served PathPos (or raises), None (slowpath), or
        :data:`RETRY` when the policy discarded the probed key.  An O(1)
        accept (``folded``, already taken) leaves the probe and prefix
        check to the vector.
        """
        result = found
        target = found.alias_target
        if not folded:
            self.costs.apply(self._pair)
            if target.dead if target is not None else found.is_stub:
                return None  # unusable
            verdict = self._accept(task, ns, pcc, found, anchor)
            if verdict is None or verdict is RETRY:
                return verdict
        if target is not None:
            # An alias hit needs the target's prefix check too (§4.2).
            verdict = self._accept(task, ns, pcc, target)
            if verdict is None or verdict is RETRY:
                return self._unfold(folded)
            result = target
        if result.is_symlink and (follow_last or must_dir):
            resolved = self._follow_cached_link(task, pcc, result)
            if resolved is None:
                return self._unfold(folded)
            result = resolved
        if self.config.force_fastpath_miss:
            # Fig 6 worst case: full fastpath work, forced fallback.
            return self._unfold(folded)
        if result.is_negative:
            return self._negative_hit(result, path_hint, folded,
                                      must_dir=must_dir,
                                      intent_create=intent_create,
                                      create_dir=create_dir)
        if must_dir and not result.is_dir:
            raise self._serve(self._neg, folded, errors.ENOTDIR(path_hint))
        fast = result.fast
        if fast is None or fast.mount is None:
            return self._unfold(folded)
        return self._serve(self._hit, folded, PathPos(fast.mount, result))

    def _unfold(self, folded: bool) -> None:
        """A folded hit falls back: pay what it left to the vector."""
        if folded:
            self.costs.apply(self._hop)
            self.stats.bump("pcc_hit")

    def _follow_cached_link(self, task: Task, pcc: PrefixCheckCache,
                            link: Dentry) -> Optional[Dentry]:
        """Resolve a final symlink via its stored target signature (§4.2)."""
        fast = link.fast
        if fast is None or fast.link_target_state is None:
            return None
        dlht = task.ns.dlht
        tsig = self.hasher.finish(fast.link_target_state)
        target = dlht.probe(tsig)
        if target is None or target.dead or target.is_alias \
                or target.is_stub or target.is_symlink:
            return None
        verdict = self._accept(task, task.ns, pcc, target)
        if verdict is None or verdict is RETRY:
            return None
        return target

    def _negative_hit(self, result: Dentry, path_hint: str, folded: bool,
                      *, must_dir: bool, intent_create: bool,
                      create_dir: bool):
        rec = self.costs.recorder
        if rec is not None:
            # The negativity conclusion (and, for intent_create, the
            # parent's viability) must be pinned by the memo.
            rec.deps.append(result)
        if result.neg_kind == NEG_ENOTDIR:
            raise self._serve(self._neg, folded, errors.ENOTDIR(path_hint))
        if intent_create:
            parent = result.parent
            if rec is not None and parent is not None:
                rec.deps.append(parent)
            if parent is None or parent.is_negative or not parent.is_dir \
                    or (must_dir and not create_dir):
                raise self._serve(self._neg, folded,
                                  errors.ENOENT(path_hint))
            fast = result.fast
            if fast is None or fast.mount is None:
                self.stats.bump("negative_hit")
                return self._unfold(folded)
            return self._serve(self._neg, folded,
                               PathPos(fast.mount, result))
        raise self._serve(self._neg, folded, errors.ENOENT(path_hint))

    def _complete(self, task: Task, ns, pcc: PrefixCheckCache,
                  start: PathPos, comps: Sequence[str],
                  parent_state: HashState, seg_state: HashState,
                  floor: int, path_hint: str, *,
                  must_dir: bool, intent_create: bool, create_dir: bool):
        """Resolve just the trailing component of a full-path probe miss.

        Only where the coherence policy vouches for the parent
        (``on_miss``): a policy whose mutations leave the prefix of a
        churned path cached and valid spares the component-by-component
        re-walk.  When the parent directory then passes a real search
        check, do the one ``d_lookup`` and, on a miss, the slowpath's
        own FS lookup step (``SlowWalk.miss``) for the last component,
        populate the caches, and finish the lookup right here.
        """
        if self.config.force_fastpath_miss:
            return None
        vouched = self._on_miss(task, ns, pcc, start, comps, parent_state,
                                floor)
        if vouched is None:
            return None
        parent, parent_mount, pcc_ok = vouched
        last = comps[-1]
        if parent.mounted_roots \
                and ns.mount_at(parent_mount, parent) is not None:
            return None  # path continues inside the mounted fs
        if parent.inode is None:
            return None
        fs = parent.inode.fs
        if fs.requires_revalidation:
            return None  # §4.3: never serve or cache such paths here
        # The search check the slowpath would do before the last lookup.
        if not self.slow.search(task.cred, parent.inode):
            return None  # slowpath raises EACCES with full context
        child = self.dcache.d_lookup(parent, last)
        if child is not None:
            if child.dead or child.is_stub or child.is_alias \
                    or child.is_symlink:
                return None
            if child.mounted_roots \
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
            child = self.slow.miss(parent, last)
            if child.is_symlink:
                return None  # symlink tails need the slowpath
        self._populate(ns.dlht, pcc if pcc_ok else None, child, seg_state,
                       parent_mount, self.coherence.epoch)
        self.stats.bump("fastpath_complete")
        if child.is_negative:
            return self._negative_hit(child, path_hint, False,
                                      must_dir=must_dir,
                                      intent_create=intent_create,
                                      create_dir=create_dir)
        if must_dir and not child.is_dir:
            raise self._serve(self._neg, False, errors.ENOTDIR(path_hint))
        return self._serve(self._hit, False, PathPos(parent_mount, child))

    # ------------------------------------------------------------------
    # WalkHooks: slowpath population
    # ------------------------------------------------------------------

    def begin(self, task: Task, start: PathPos, absolute: bool, prehashed=0):
        ns = task.ns
        if ns.dlht is None:
            return None
        self.coherence.walks_active += 1
        anchor, floor = self._pos_state(task, start, rebuild=True)
        pcc = task.cred.pcc
        if pcc is None:
            pcc = self.pcc_for(task.cred)
        pcc_ok = start.dentry is ns.root_mount.root_dentry \
            or pcc.probe(start.dentry, floor)
        states = None
        if type(prehashed) is tuple:
            attempt_state, states = prehashed
            prehashed = len(states)
            if anchor != attempt_state:
                states = None  # a mutation moved the anchor since
        return _WalkCtx(task, self.coherence.counter, pcc_ok, anchor,
                        start.mount, prehashed, states)

    def step(self, ctx, name: str, dentry: Dentry, mount) -> None:
        state = ctx.anchor_state
        if state is not None:
            left = ctx.prehashed
            if left:  # _extend, inline when free
                ctx.prehashed = left - 1
                states = ctx.states
                state = states[-left] if states is not None \
                    else self.hasher.extend(state, name)
            else:
                state = self._extend(ctx, state, name)
            ctx.anchor_state = state
        ctx.pending.append((dentry, state, mount))
        if ctx.alias_head is not None and ctx.alias_state is not None:
            ctx.alias_state = self._extend(ctx, ctx.alias_state, name)
            ctx.pending_alias.append((name, dentry, ctx.alias_state, mount))
        ctx.cur_mount = mount

    def dotdot(self, ctx, result: PathPos) -> None:
        if ctx is None:
            return
        ctx.anchor_state, _ = self._pos_state(ctx.task, result)
        ctx.states = None
        ctx.alias_head = None
        ctx.alias_state = None
        ctx.cur_mount = result.mount
        ctx.pending.append((result.dentry, None, None))

    def symlink_begin(self, ctx, link: Dentry, absolute_target: bool) -> None:
        if ctx is None:
            return
        ctx.states = None
        ctx.saved_link = None
        if not ctx.alias_done and ctx.anchor_state is not None:
            link_state = self._extend(ctx, ctx.anchor_state, link.name)
            ctx.pending.append((link, link_state, ctx.cur_mount))
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
            state = self._extend(ctx, ctx.anchor_state, neg.name)
            ctx.pending.append((neg, state, ctx.cur_mount))
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
        finish = self.hasher.finish
        direct = []
        inserts = []
        for dentry, state, mount in ctx.pending:
            inode = dentry.inode
            if inode.fs.requires_revalidation if inode is not None \
                    else on_revalidating_sb(dentry):
                continue
            direct.append(dentry)
            if state is None or dentry.dead:
                continue
            sig = finish(state)
            fast = dentry.fast
            if fast is None:
                fast = dentry.fast = FastDentry()
            elif fast.dlht is dlht and fast.mount is mount \
                    and fast.epoch_snapshot == epoch \
                    and fast.hash_state == state and fast.dlht_key == sig:
                continue  # _populate would change nothing
            # What _populate does, with the DLHT inserts batched below.
            fast.hash_state = state
            fast.mount = mount
            fast.epoch_snapshot = epoch
            inserts.append((dentry, sig))
        if inserts:
            dlht.insert_all(inserts)
        for link, tstate in ctx.pending_linktarget:
            if not link.dead and not on_revalidating_sb(link):
                fast_of(link).link_target_state = tstate
        pcc = None
        if ctx.pcc_ok:
            pcc = ctx.task.cred.pcc
            if pcc is None:
                pcc = self.pcc_for(ctx.task.cred)
        if ctx.alias_head is not None:
            self._apply_aliases(ctx, dlht, pcc, epoch)
        if ctx.pending_deepneg is not None:
            self._apply_deep_negatives(ctx, dlht, pcc, epoch)
        if pcc is not None:
            # The aliases and deep negatives above may evict: liveness
            # is read here.  One charge, then the inserts in walk order.
            live = [dentry for dentry in direct if not dentry.dead]
            if live:
                pcc.insert_all(live, epoch)

    def _populate(self, dlht, pcc, dentry: Dentry, state: HashState, mount,
                  epoch: int) -> None:
        """Register one resolved dentry: its hash state, its DLHT key,
        and — with a ``pcc`` (the directory-reference rule held) — its
        prefix check, all stamped with the policy's ``epoch``."""
        fast = fast_of(dentry)
        fast.hash_state = state
        fast.mount = mount
        fast.epoch_snapshot = epoch
        dlht.insert(dentry, self.hasher.finish(state))
        if pcc is not None:
            pcc.insert(dentry, epoch)

    def _apply_aliases(self, ctx, dlht, pcc, epoch: int) -> None:
        cur = ctx.alias_head
        if self._on_revalidating_sb(cur):
            return
        for name, target, state, mount in ctx.pending_alias:
            if cur.dead or target.dead:
                return
            child = cur.children.get(name)
            if child is None:
                child = self.dcache.d_alloc_alias(cur, name, target)
            elif child.is_alias:
                child.alias_target = target
                child.set_kind()
            else:
                return
            self._populate(dlht, pcc, child, state, mount, epoch)
            cur = child

    def _apply_deep_negatives(self, ctx, dlht, pcc, epoch: int) -> None:
        neg, remaining, kind, state = ctx.pending_deepneg
        if neg.dead or self._on_revalidating_sb(neg):
            return
        chain = extend_negative_chain(self.dcache, neg, remaining, kind)
        for child in chain:
            state = self._extend(ctx, state, child.name)
            self._populate(dlht, pcc, child, state, ctx.cur_mount, epoch)
        self.stats.bump("deep_negative_chain")
