"""Epoch-based lazy coherence: the ``optimized-lazy`` policy.

The second implementation of the policy interface documented in
:mod:`repro.core.coherence` (cf. Stage Lookup, arXiv:2010.08741):
mutations stamp instead of walking and fastpath hits revalidate on
touch; what nobody touches again is reclaimed as under the eager policy,
with its dentry or by PCC capacity.  See ``docs/coherence.md`` for the
staleness argument.
"""

from __future__ import annotations

from typing import List

from repro.core.coherence import RETRY, SEQ_WRAP, Coherence, rootward
from repro.core.fastdentry import fast_of
from repro.vfs.dentry import Dentry
from repro.vfs.mount import PathPos


class EpochCoherence(Coherence):
    """Epoch-based lazy invalidation (``optimized-lazy``).

    A mutation bumps one global epoch and stamps the mutated dentry with
    it — O(1), no subtree walk — so a DLHT/PCC hit may be stale and must
    earn its answer (:meth:`accept`):

    * A probe hit is accepted in O(1) when the dentry's
      ``epoch_snapshot`` is current (no mutation anywhere since the entry
      was last validated).
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
    end-to-end, not just mutation-side.  Never-touched stale entries
    are reclaimed as the eager policy reclaims its own: a DLHT key
    leaves with its dentry, a PCC entry by LRU capacity.  A dentry keeps
    one DLHT key, as under the eager policy: a walk that registers it
    under its new path drops the old one.
    """

    def bind(self, hasher, slow) -> None:
        super().bind(hasher, slow)
        self._validate = self.costs.run((("lazy", "lazy_validate"),))

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

    def pos_state(self, task, pos, rebuild=False):
        """Validated hash state of a trusted position.

        POSIX resolves relative lookups from an open directory handle or
        cwd regardless of renames or permission changes above it, so this
        is path-only revalidation: no prefix checks, no mount-shadowing
        concerns (the caller stands *at* the position).  ``floor`` is the
        chain's epoch high-water mark (the minimum epoch a PCC entry for
        this dentry must carry); ``(None, 0)`` when the position's
        canonical path is gone (``rebuild`` changes nothing: the chain walk
        below rehashes whatever it finds stale).
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
        self.costs.apply(self._validate, nodes)
        fast = fast_of(dentry)
        if fast.hash_state is not None and fast.epoch_snapshot >= high:
            # Still current — only the global epoch moved (mutations
            # elsewhere in the tree).  Re-arm the snapshot.
            fast.epoch_snapshot = gepoch
            return fast.hash_state, high
        names.reverse()
        return self.rehash(pos, names), high

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
                elif cur.is_dir and not (cur.is_alias or cur.is_stub):
                    perm_nodes.append(cur)  # a plain cached directory
                else:
                    reverify_ok = False
            names.append(cur.name)
            hops += 1
        return None

    def _charge_chain(self, hops: int) -> None:
        self.costs.apply(self._validate, max(1, hops))

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
                if cur.is_dir and not (cur.is_alias or cur.is_stub):
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
        if cur.is_dir and not (cur.is_alias or cur.is_stub):
            perm_nodes.append(cur)
        else:
            reverify_ok = False
        self._charge_chain(len(names))
        return high, perm_nodes, reverify_ok

    def _evict(self, dlht, dentry: Dentry):
        """Touch-time eviction of a stale key; the verdict is RETRY."""
        dlht.remove(dentry)
        dentry.fast.hash_state = None
        self.stats.bump("lazy_evict")
        return RETRY

    def accept(self, task, ns, pcc, dentry: Dentry, anchor=None,
               refused=False):
        """Earn a probe hit: path validity, then prefix checks.

        The probed signature is the dentry's one key.  ``anchor``, when
        given, is ``(anchor_dentry, anchor_mount, names, seg_state,
        floor)`` describing how it was derived (a validated position
        extended by ``names``); it enables the cheap reverse identity
        check in place of the full chain walk plus hash recompute.

        Returns the chain's epoch floor (an int) on success, None for a
        plain fallback, or :data:`RETRY` when the probed key was
        discarded (stale registration) and the caller may retry
        trailing-component completion against the now-free slot.
        ``refused``: :meth:`admit` just refused the dentry.
        """
        fast = dentry.fast
        dlht = ns.dlht
        if fast is None or fast.dlht is not dlht or fast.mount is None:
            return None
        gepoch = self.epoch
        # The O(1) accept is one integer compare on state the probe
        # already loaded; only chain nodes get charged below.
        if fast.hash_state is not None and fast.epoch_snapshot >= gepoch:
            snap = fast.epoch_snapshot
            if pcc.refuse(dentry, snap) if refused \
                    else pcc.probe(dentry, snap):
                return snap
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
                return self._evict(dlht, dentry)
        if rev is not None:
            # The probed components are exactly the hit's canonical tail
            # below the validated anchor: adopt the probe's hash state
            # (already charged) instead of recomputing.
            suffix_high, perm_nodes, reverify_ok = rev
            high = floor if floor > suffix_high else suffix_high
            if fast.hash_state is None or fast.epoch_snapshot < high:
                fast.hash_state = seg_state
                fast.mount = a_mount
                self.stats.bump("lazy_refresh")
            perm_anchor = (a_dentry, floor)
        else:
            chain = self._chain(ns, dentry)
            if chain is None:
                return self._evict(dlht, dentry)
            names, perm_nodes, high, reverify_ok = chain
            if fast.hash_state is None or fast.epoch_snapshot < high:
                # The registration under this key predates a mutation on
                # the chain: recompute the canonical hash and compare (a
                # mismatch: the dentry no longer lives at that path).
                state = self.rehash(PathPos(fast.mount, dentry), names)
                self.costs.charge("sig_compare")
                if self.hasher.finish(state) != fast.dlht_key:
                    return self._evict(dlht, dentry)
                self.stats.bump("lazy_refresh")
        fast.epoch_snapshot = gepoch
        if dentry.mounted_roots \
                and ns.mount_at(fast.mount, dentry) is not None:
            # The path is right but now resolves into a mounted fs; the
            # slowpath will repopulate the key with the mounted root.
            return self._evict(dlht, dentry)
        if pcc.probe(dentry, high):
            return high
        if not reverify_ok:
            return None
        cred = task.cred
        search = self.slow.search
        for node in perm_nodes:
            if not search(cred, node.inode):
                return None  # slowpath re-derives the EACCES with context
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

    def admit(self, ns, pcc, dentry):
        """:meth:`accept`'s O(1) accept, uncharged; else None, untouched."""
        fast = dentry.fast
        if fast is None or fast.dlht is not ns.dlht or fast.mount is None \
                or fast.hash_state is None \
                or fast.epoch_snapshot < self.epoch:
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
        verdict = self.accept(task, ns, pcc, parent, anchor)
        if verdict is None or verdict is RETRY:
            return None
        pfast = parent.fast
        if pfast is None or pfast.mount is None:
            return None
        return parent, pfast.mount, True
