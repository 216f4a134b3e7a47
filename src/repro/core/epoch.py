"""Epoch-based lazy coherence: the ``optimized-lazy`` policy.

The second implementation of the policy interface documented in
:mod:`repro.core.coherence` (cf. Stage Lookup, arXiv:2010.08741):
mutations stamp instead of walking, fastpath hits revalidate on touch,
and a polled sweeper reclaims what nobody touches again.  See
``docs/coherence.md`` for the staleness argument.
"""

from __future__ import annotations

import weakref
from typing import List

from repro.core.coherence import RETRY, SEQ_WRAP, Coherence, rootward
from repro.core.fastdentry import fast_of
from repro.sim.clock import Ticker
from repro.vfs import permissions as perms
from repro.vfs.dentry import Dentry
from repro.vfs.lsm import NullLsm


def _plain_dir(dentry: Dentry) -> bool:
    """A plain cached directory: a dir inode with no alias/stub overlay
    (negatives have no inode) — what a slowpath walk search-checks."""
    ino = dentry.inode
    return (ino is not None and ino.is_dir
            and dentry.alias_target is None and dentry.stub is None)


class EpochCoherence(Coherence):
    """Epoch-based lazy invalidation (``optimized-lazy``).

    A mutation bumps one global epoch and stamps the mutated dentry with
    it — O(1), no subtree walk — so a DLHT/PCC hit may be stale and must
    earn its answer (:meth:`accept`):

    * A probe hit is accepted in O(1) when it is the dentry's *primary*
      registration and the dentry's ``epoch_snapshot`` is current (no
      mutation anywhere since the entry was last validated).
    * Otherwise the hit walks the dentry's ancestor chain (crossing mount
      boundaries), collecting the canonical component names and the
      highest epoch stamp.  A snapshot older than that high-water mark
      forces a recompute of the canonical-path hash; a signature mismatch
      evicts the stale key (touch-time eviction), a match refreshes the
      entry in place.
    * Prefix-check staleness is handled the same way: PCC entries carry
      the epoch at which they were inserted and are compared against the
      chain's high-water mark; a stale-but-correct prefix is re-proved
      with real DAC (and LSM) checks and re-memoized.

    The policy also lets the fastpath *complete* trailing components
    (:meth:`on_miss`): when the full-path probe misses but the parent
    prefix is cached and valid, the last component is resolved right
    there (one ``d_lookup`` or one FS lookup) instead of falling back to
    a full slowpath walk — this is what makes rename/create churn cheap
    end-to-end, not just mutation-side.  :class:`LazySweeper` amortizes
    the reclamation of never-touched stale entries so memory accounting
    stays honest.
    """

    multi_key = True

    def bind(self, hasher, slow) -> None:
        """Validation rehashes with ``hasher`` and re-proves prefix
        checks with ``slow``'s LSM; the sweep clock starts here."""
        self.hasher = hasher
        self.slow = slow
        self.sweeper = LazySweeper(
            self, Ticker(self.costs.clock, LazySweeper.INTERVAL_NS))

    # -- shootdowns ----------------------------------------------------------------

    def shootdown_single(self, dentry: Dentry) -> None:
        """O(1) shootdown: advance the epoch, stamp the dentry.

        Descendants (on either side of a mount boundary) are untouched;
        their next fastpath hit observes the stamp on its ancestor chain
        and revalidates (or dies) then.  The dentry's own seq is bumped
        too so PCC entries *for this dentry* (whose memoized prefix runs
        through the mutated node's parent, not the node itself) still
        obey the eager staleness rule when the mutation moved or
        re-permissioned the node's parent directory — and,
        symmetrically, so reallocation staleness keeps working.
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
        self.bump_counter()

    shootdown_subtree = shootdown_single

    # -- touch-time validation -----------------------------------------------------

    def _hash_names(self, names: List[str]):
        """Charged canonical-path hash state of root-first ``names``."""
        hasher = self.hasher
        if names:
            nbytes = sum(len(n) for n in names) + len(names) - 1
            self.costs.charge_in("hash", hasher.cost_primitive,
                                 times=len(names), nbytes=nbytes)
        return hasher.extend_components(hasher.EMPTY, names)

    def pos_state(self, task, pos, rebuild=None):
        """Validated hash state of a trusted position.

        POSIX resolves relative lookups from an open directory handle or
        cwd regardless of renames or permission changes above it, so this
        is path-only revalidation: no prefix checks, no mount-shadowing
        concerns (the caller stands *at* the position).  ``floor`` is the
        chain's epoch high-water mark (the minimum epoch a PCC entry for
        this dentry must carry); ``(None, 0)`` when the position's
        canonical path is gone (``rebuild`` is never needed: the chain
        walk below has already decided).
        """
        dentry = pos.dentry
        fast = dentry.fast
        gepoch = self.epoch
        # The O(1) accept is one integer compare riding the cache line
        # the fastpath already loads; only chain nodes are charged.
        if fast is not None and fast.hash_state is not None \
                and fast.epoch_snapshot >= gepoch:
            return fast.hash_state, fast.epoch_snapshot
        ns = task.ns
        names: List[str] = []
        high = 0
        nodes = 0
        for d, mount in rootward(ns, pos.mount, dentry):
            if d.dead:
                return None, 0
            if d.epoch > high:
                high = d.epoch
            nodes += 1
            if d is not mount.root_dentry:
                names.append(d.name)
        if mount is not ns.root_mount or d is not mount.root_dentry:
            return None, 0
        self.costs.charge_in("lazy", "lazy_validate", times=nodes)
        fast = fast_of(dentry)
        if fast.hash_state is not None and fast.epoch_snapshot >= high:
            # Still current — only the global epoch moved (mutations
            # elsewhere in the tree).  Re-arm the snapshot.
            fast.epoch_snapshot = gepoch
            return fast.hash_state, high
        names.reverse()
        state = self._hash_names(names)
        fast.hash_state = state
        fast.mount = pos.mount
        fast.epoch_snapshot = gepoch
        return state, high

    def _chain(self, ns, dentry: Dentry):
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
        names: List[str] = []
        perm_nodes: List[Dentry] = []
        high = 0
        hops = 0
        reverify_ok = True
        skip_perm = False  # set when we just hopped onto a mountpoint
        mount_at = ns.mount_at
        root_mount = ns.root_mount
        for cur, cur_mount in rootward(ns, dentry.fast.mount, dentry):
            if cur.dead:
                return None
            if cur.epoch > high:
                high = cur.epoch
            if cur is cur_mount.root_dentry:
                if cur is not dentry:
                    perm_nodes.append(cur)  # mounted root is search-checked
                if cur_mount is root_mount:
                    self._charge_chain(hops)
                    names.reverse()
                    return names, perm_nodes, high, reverify_ok
                parent_mount = cur_mount.parent
                if parent_mount is None or mount_at(
                        parent_mount, cur_mount.mountpoint) is not cur_mount:
                    return None  # detached, or gone from this namespace
                hops += 1
                # The mountpoint dentry itself is shadowed (walks hop over
                # it without a search check), so skip both checks for it.
                skip_perm = True
                continue
            if cur is not dentry:
                if skip_perm:
                    skip_perm = False
                elif cur.mounted_roots \
                        and mount_at(cur_mount, cur) is not None:
                    return None  # a mount now shadows this prefix
                elif _plain_dir(cur):
                    perm_nodes.append(cur)
                else:
                    reverify_ok = False
            names.append(cur.name)
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
            if cur.epoch > high:
                high = cur.epoch
            if cur is not dentry:
                if cur.mounted_roots \
                        and mount_at(anchor_mount, cur) is not None:
                    return False  # a mount now shadows this prefix
                if _plain_dir(cur):
                    perm_nodes.append(cur)
                else:
                    reverify_ok = False
            cur = cur.parent
            if cur is None:
                return None  # crossed an fs boundary: full walk needed
        if cur is not anchor:
            return False
        if cur.epoch > high:
            high = cur.epoch
        # The walk search-checks the anchor (start directory) too.
        if _plain_dir(cur):
            perm_nodes.append(cur)
        else:
            reverify_ok = False
        self._charge_chain(len(names))
        return high, perm_nodes, reverify_ok

    def _evict(self, dlht, dentry: Dentry, key):
        """Touch-time eviction of a stale key; the verdict is RETRY."""
        dlht.discard_key(dentry, key)
        self.stats.bump("lazy_evict")
        return RETRY

    def _rehash(self, dlht, dentry: Dentry, key, names: List[str]) -> bool:
        """Recompute the canonical hash and compare ``key`` against it.

        False on a mismatch (the dentry no longer lives at that path:
        the caller discards the key); a match refreshes ``hash_state``
        and promotes the key to the dentry's primary registration.
        """
        state = self._hash_names(names)
        self.costs.charge("sig_compare")
        fsig = self.hasher.finish(state)
        if fsig != key:
            return False
        dentry.fast.hash_state = state
        dlht.insert(dentry, fsig)
        return True

    def accept(self, task, ns, pcc, dentry: Dentry, sig=None, anchor=None):
        """Earn a probe hit: path validity, then prefix checks.

        ``sig`` is the probed signature (default: the dentry's primary
        registration).  ``anchor``, when given, is ``(anchor_dentry,
        anchor_mount, names, seg_state, floor)`` describing how the
        probed signature was derived (a validated position extended by
        ``names``); it enables the cheap reverse identity check in place
        of the full chain walk plus hash recompute.

        Returns the chain's epoch floor (an int) on success, None for a
        plain fallback, or :data:`RETRY` when the probed key was
        discarded (stale registration) and the caller may retry
        trailing-component completion against the now-free slot.
        """
        fast = dentry.fast
        dlht = ns.dlht
        if fast is None or fast.dlht is not dlht or fast.mount is None:
            return None
        if sig is None:
            sig = fast.dlht_key
            if sig is None:
                return None
        primary = fast.dlht_key == sig
        gepoch = self.epoch
        # The O(1) accept/reject is one integer compare on state the
        # probe already loaded; only chain nodes get charged below.
        if fast.hash_state is not None and fast.epoch_snapshot >= gepoch:
            if not primary:
                # The primary registration is provably current, so any
                # other key names a path this dentry no longer lives at:
                # discard it without walking the chain.
                return self._evict(dlht, dentry, sig)
            if pcc.probe(dentry, fast.epoch_snapshot):
                return fast.epoch_snapshot
            # Prefix check missing or epoch-stale: fall through to the
            # chain validation, which can re-prove it with DAC checks.
        perm_anchor = None
        rev = None
        if anchor is not None:
            a_dentry, a_mount, names, seg_state, floor = anchor
            rev = self._reverse_check(ns, dentry, a_dentry, a_mount, names)
            if rev is False:
                # The hit's tree position provably diverges from the
                # probed components: the key is stale, no rehash needed.
                return self._evict(dlht, dentry, sig)
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
            chain = self._chain(ns, dentry)
            if chain is None:
                return self._evict(dlht, dentry, sig)
            names, perm_nodes, high, reverify_ok = chain
            if not primary or fast.hash_state is None \
                    or fast.epoch_snapshot < high:
                # The registration under this key predates a mutation on
                # the chain: recompute the canonical hash and compare.
                if not self._rehash(dlht, dentry, sig, names):
                    return self._evict(dlht, dentry, sig)
                self.stats.bump("lazy_refresh")
        fast.epoch_snapshot = gepoch
        if dentry.mounted_roots \
                and ns.mount_at(fast.mount, dentry) is not None:
            # The path is right but now resolves into a mounted fs; the
            # slowpath will repopulate the key with the mounted root.
            return self._evict(dlht, dentry, sig)
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
            if a_dentry is not ns.root_mount.root_dentry \
                    and not pcc.probe(a_dentry, floor):
                return high  # served, but not memoized
        pcc.insert(dentry, gepoch)
        self.stats.bump("lazy_pcc_reprove")
        return high

    def admit(self, ns, pcc, dentry, sig=None):
        """:meth:`accept`'s O(1) accept, uncharged; else None, untouched."""
        fast = dentry.fast
        if fast is None or fast.dlht is not ns.dlht or fast.mount is None \
                or fast.hash_state is None or fast.dlht_key is None \
                or fast.epoch_snapshot < self.epoch \
                or (sig is not None and fast.dlht_key != sig):
            return None
        floor = fast.epoch_snapshot
        return floor if pcc.check(dentry, floor) else None

    def on_miss(self, task, ns, pcc, start, comps, parent_state, floor):
        """Find the cached, validated parent of a missed full path.

        Lazy mutations leave the prefix of a churned path cached and
        valid, so the engine may do just the one lookup the slowpath
        would do for the last component.  Returns ``(parent,
        parent_mount, pcc_ok)`` — ``pcc_ok`` gating whether the child's
        prefix check may be memoized — or None to take the slowpath.
        """
        if len(comps) == 1:
            # Relative single-component lookup: the start position is the
            # parent, already validated by pos_state.  No prefix check is
            # *required* (POSIX dirfd/cwd semantics) but the
            # directory-reference rule gates memoizing the child's check.
            parent = start.dentry
            if parent.is_negative or not parent.is_dir:
                return None
            if parent is ns.root_mount.root_dentry:
                return parent, start.mount, True
            return parent, start.mount, pcc.probe(parent, floor)
        psig = self.hasher.finish(parent_state)
        parent = ns.dlht.probe(psig)
        if parent is None or parent.dead:
            return None
        if (parent.is_alias or parent.is_negative or parent.is_stub
                or parent.is_symlink or not parent.is_dir):
            return None
        anchor = (start.dentry, start.mount, comps[:-1], parent_state, floor)
        verdict = self.accept(task, ns, pcc, parent, psig, anchor)
        if verdict is None or verdict is RETRY:
            return None
        pfast = parent.fast
        if pfast is None or pfast.mount is None:
            return None
        return parent, pfast.mount, True

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
        gepoch = self.epoch
        current = fast.dlht_key == key and fast.hash_state is not None
        if current and fast.epoch_snapshot >= gepoch:
            return False
        ns = dlht.owner_ns() if dlht.owner_ns is not None else None
        if ns is None:
            return False
        chain = self._chain(ns, dentry)
        if chain is not None:
            names, _perm_nodes, high, _reverify_ok = chain
            if (current and fast.epoch_snapshot >= high) \
                    or self._rehash(dlht, dentry, key, names):
                fast.epoch_snapshot = gepoch
                return False
        dlht.discard_key(dentry, key)
        return True


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

    __slots__ = ("coherence", "ticker", "batch",
                 "_dlht_work", "_pcc_work")

    def __init__(self, coherence: EpochCoherence, ticker,
                 batch: int = BATCH):
        #: The policy: owns the registries and the key revalidation.
        self.coherence = coherence
        self.ticker = ticker
        self.batch = batch
        self._dlht_work: List = []  # (dlht_ref, [(key, dentry)...]) snapshots
        self._pcc_work: List = []   # (pcc_ref, [entry ids...]) snapshots
        # A DLHT pass examines exactly the (key, dentry) entries that
        # existed when the worklist refilled; a key reclaimed mid-pass by
        # a shootdown and re-registered to a different dentry is *not*
        # re-scanned (it was never part of this pass — see the identity
        # guard in ``_sweep_dlhts``).

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
                if self.coherence.sweep_key(dlht, key):
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
