"""The Direct Lookup Hash Table (§3.1).

A system-wide (per mount namespace, §4.3) hash table mapping full-path
signatures to dentries.  It is lazily populated by slowpath walks and
pruned by coherence shootdowns; a probe costs one bucket fetch plus a
constant-size signature compare per chained entry.

Collision semantics follow the paper: chains are searched in insertion
order and the *first* signature match wins, so if two live paths truncate
to the same signature the later one simply never enters the table (its
lookups keep taking the slowpath) — and with very small signatures (test
configurations) a probe can return the colliding dentry, which is exactly
the failure mode §3.3's PCC-containment argument is about.

The lazy-coherence kernel (``optimized-lazy``) runs the table in
*multi-key* mode: mutations do not evict, so after a rename a dentry may
legitimately be registered under both its old-path and new-path
signatures.  The registration recorded on the fast dentry stays the
*primary* one (matching ``hash_state``); older keys move to
``fast.extra_keys`` and are settled — promoted or discarded — by
touch-time revalidation and the background sweep.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.fastdentry import fast_of
from repro.core.signatures import Signature
from repro.sim.costs import CostModel
from repro.sim.stats import Stats
from repro.vfs.dentry import Dentry

#: Fixed charge run for one probe (batched; order is the historical
#: per-call sequence).
_PROBE_CHARGES = ("dlht_probe", "sig_compare")


class DirectLookupHashTable:
    """One namespace's signature -> dentry index."""

    __slots__ = ("costs", "stats", "multi_key", "extra_key_count",
                 "owner_ns", "_table", "__weakref__")

    def __init__(self, costs: CostModel, stats: Stats,
                 multi_key: bool = False):
        self.costs = costs
        self.stats = stats
        #: Lazy mode: keep old-path registrations alongside the primary.
        self.multi_key = multi_key
        #: Live non-primary keys (for honest memory accounting).
        self.extra_key_count = 0
        #: Weakref to the owning namespace (set by the kernel); the lazy
        #: sweep needs it to re-derive canonical paths.
        self.owner_ns = None
        self._table: Dict[Tuple[int, int], Dentry] = {}

    @staticmethod
    def _key(signature: Signature) -> Tuple[int, int]:
        return (signature.index, signature.bits)

    def probe(self, signature: Signature) -> Optional[Dentry]:
        """Look up a signature: bucket fetch + signature compare."""
        costs = self.costs
        costs.charge_many(_PROBE_CHARGES)
        # A Signature is a NamedTuple, so it hashes and compares as the
        # plain ``(index, bits)`` tuple ``_key`` produces — probe with it
        # directly and skip one tuple allocation on the hottest probe.
        dentry = self._table.get(signature)
        rec = costs.recorder
        if rec is not None:
            if dentry is not None and not dentry.dead:
                # Every fastpath conclusion rests on its probe hits; the
                # resolution memo pins them (seq + inode identity).
                rec.deps.append(dentry)
            else:
                # ... and on its probe misses: registering this
                # signature later must invalidate the recording
                # (ResolutionMemo.kill_miss, from insert()).
                rec.misses.append((self, self._key(signature)))
        return dentry

    def peek(self, key: Tuple[int, int]) -> Optional[Dentry]:
        """Uncharged raw-key access (sweep / introspection only)."""
        return self._table.get(key)

    def insert(self, dentry: Dentry, signature: Signature) -> bool:
        """Register ``dentry`` under ``signature``.

        Returns False (leaving the table unchanged) when a *different*
        dentry already owns the signature — first-wins, as in a chained
        bucket where lookup stops at the first signature match.

        Single-key mode (eager): if the dentry is already registered
        elsewhere (other path or other namespace's table), that
        registration is dropped first — a dentry is in at most one DLHT
        under one signature (§4.3).  Multi-key mode (lazy): a prior
        registration in *this* table becomes an extra key instead; a
        registration in another namespace's table is still dropped.
        """
        key = self._key(signature)
        current = self._table.get(key)
        fast = fast_of(dentry)
        if current is dentry:
            if fast.dlht is self and fast.dlht_key != key:
                # Re-registering under an extra key: promote it.
                self._promote(fast, key, signature)
            return True
        if current is not None and not current.dead:
            return False
        if fast.dlht is not None:
            if fast.dlht is self and self.multi_key:
                old_key = fast.dlht_key
                if old_key is not None and self._table.get(old_key) is dentry:
                    if fast.extra_keys is None:
                        fast.extra_keys = [old_key]
                    else:
                        fast.extra_keys.append(old_key)
                    self.extra_key_count += 1
            else:
                fast.dlht.remove(dentry)
        self.costs.charge("dlht_insert")
        self._table[key] = dentry
        # A recorded probe miss is a conclusion too.
        self.costs.memo.kill_miss(self, key)
        fast.dlht = self
        fast.dlht_key = key
        fast.signature = signature
        return True

    def _promote(self, fast, key: Tuple[int, int],
                 signature: Signature) -> None:
        """Make an existing extra key the dentry's primary registration."""
        old_key = fast.dlht_key
        extras = fast.extra_keys
        if extras is not None and key in extras:
            extras.remove(key)
            self.extra_key_count -= 1
            if not extras:
                # Normalize: an emptied shadow list is dead weight for
                # every later check.
                fast.extra_keys = None
        if old_key is not None and old_key != key \
                and self._table.get(old_key) is self._table.get(key):
            if fast.extra_keys is None:
                fast.extra_keys = [old_key]
            else:
                fast.extra_keys.append(old_key)
            self.extra_key_count += 1
        fast.dlht_key = key
        fast.signature = signature

    def remove(self, dentry: Dentry) -> None:
        """Drop a dentry's registration — all of its keys (no-op if absent)."""
        fast = dentry.fast
        if fast is None or fast.dlht is not self:
            return
        if fast.dlht_key is not None \
                and self._table.get(fast.dlht_key) is dentry:
            del self._table[fast.dlht_key]
        if fast.extra_keys:
            for key in fast.extra_keys:
                if self._table.get(key) is dentry:
                    del self._table[key]
                self.extra_key_count -= 1
            fast.extra_keys = None
        fast.dlht = None
        fast.dlht_key = None

    def discard_key(self, dentry: Dentry, key: Tuple[int, int]) -> None:
        """Drop one stale key of a dentry (lazy touch-time eviction).

        Discarding the primary key leaves the dentry registered only
        under its extra keys (its ``hash_state`` no longer names a live
        path, so the primary slot is cleared until a revalidation
        promotes one of the survivors).
        """
        if self._table.get(key) is dentry:
            del self._table[key]
        fast = dentry.fast
        if fast is None or fast.dlht is not self:
            return  # orphaned mapping: the table slot above was the leak
        extras = fast.extra_keys
        if extras is not None and key in extras:
            extras.remove(key)
            self.extra_key_count -= 1
            if not extras:
                fast.extra_keys = None
            return
        if fast.dlht_key == key:
            fast.dlht_key = None
            fast.signature = None
            fast.hash_state = None
            if not fast.extra_keys:
                fast.dlht = None

    def keys_of(self, dentry: Dentry) -> list:
        """Every key the dentry is registered under in this table."""
        fast = dentry.fast
        if fast is None or fast.dlht is not self:
            return []
        keys = []
        if fast.dlht_key is not None:
            keys.append(fast.dlht_key)
        if fast.extra_keys:
            keys.extend(fast.extra_keys)
        return keys

    def flush(self) -> None:
        """Drop every entry (version-counter wraparound handling)."""
        for dentry in list(self._table.values()):
            self.remove(dentry)
        self._table.clear()

    def items(self):
        """Snapshot of (key, dentry) pairs (sweep / introspection)."""
        return list(self._table.items())

    def __len__(self) -> int:
        return len(self._table)
