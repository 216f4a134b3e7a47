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
touch-time revalidation.  Keys nobody touches again leave with their
dentry, and past :data:`MAX_EXTRA_KEYS` the oldest leaves at once.

A key is the :class:`Signature` itself: a NamedTuple hashes and compares
as its ``(index, bits)`` tuple, so one object is both what a probe asks
for and what a registration stores.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.fastdentry import fast_of
from repro.core.signatures import Signature
from repro.sim.costs import CostModel
from repro.sim.stats import Stats
from repro.vfs.dentry import Dentry

#: What one probe charges: a bucket fetch and a signature compare.
PROBE_CHARGES = (("htlookup", "dlht_probe"), ("htlookup", "sig_compare"))

#: Old-path keys a multi-key dentry keeps beside its primary one; a
#: registration past this drops the oldest (uncharged: the insert's
#: ``dlht_insert`` covers it).  The fleets, churn and the report never
#: hold more than one, so only a dentry renamed again and again
#: without being looked up under its old paths reaches the cap.
MAX_EXTRA_KEYS = 4


class DirectLookupHashTable:
    """One namespace's signature -> dentry index."""

    __slots__ = ("costs", "stats", "multi_key", "table", "_probe",
                 "__weakref__")

    def __init__(self, costs: CostModel, stats: Stats,
                 multi_key: bool = False):
        self.costs = costs
        self.stats = stats
        #: Lazy mode: keep old-path registrations alongside the primary.
        self.multi_key = multi_key
        #: Signature -> dentry.  Outside a recording (``costs.recorder``
        #: None) a reader may probe it in place of :meth:`lookup`, which
        #: only adds the recorder's notes; only this class writes it.
        self.table: Dict[Signature, Dentry] = {}
        self._probe = costs.run(PROBE_CHARGES)

    def probe(self, signature: Signature) -> Optional[Dentry]:
        """Look up a signature: bucket fetch + signature compare, charged
        to "htlookup"."""
        self.costs.apply(self._probe)
        return self.lookup(signature)

    def lookup(self, signature: Signature) -> Optional[Dentry]:
        """:meth:`probe` uncharged (the caller charges ``PROBE_CHARGES``)."""
        dentry = self.table.get(signature)
        rec = self.costs.recorder
        if rec is not None:
            if dentry is not None and not dentry.dead:
                # Every fastpath conclusion rests on its probe hits; the
                # resolution memo pins them (seq + inode identity).
                rec.deps.append(dentry)
            else:
                # ... and on its probe misses, which hold only while
                # this signature's slot stays as it is.
                rec.misses.append((self, self.table, signature))
        return dentry

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
        placed = self._place(dentry, signature)
        if placed:
            self.costs.charge("dlht_insert")
        return placed is not None

    def insert_all(self, pairs) -> None:
        """:meth:`insert` each ``(dentry, signature)`` of ``pairs``, in
        order, with one ``dlht_insert`` charge for all that entered."""
        placed = 0
        for dentry, signature in pairs:
            if self._place(dentry, signature):
                placed += 1
        if placed:
            self.costs.charge("dlht_insert", times=placed)

    def _place(self, dentry: Dentry, signature: Signature):
        """:meth:`insert`'s table change, uncharged: True when the entry
        is new, False when the dentry already held the key, None when a
        live dentry owns it."""
        current = self.table.get(signature)
        fast = dentry.fast
        if fast is None:
            fast = fast_of(dentry)
        if current is dentry:
            if fast.dlht is self and fast.dlht_key != signature:
                # Re-registering under an extra key: promote it.
                self._promote(fast, signature)
            return False
        if current is not None and not current.dead:
            return None
        if fast.dlht is not None:
            if fast.dlht is self and self.multi_key:
                old_key = fast.dlht_key
                if old_key is not None and self.table.get(old_key) is dentry:
                    extras = fast.extra_keys
                    if extras is None:
                        fast.extra_keys = [old_key]
                    else:
                        extras.append(old_key)
                        if len(extras) > MAX_EXTRA_KEYS:
                            oldest = extras.pop(0)
                            if self.table.get(oldest) is dentry:
                                del self.table[oldest]
            else:
                fast.dlht.remove(dentry)
        self.table[signature] = dentry
        fast.dlht = self
        fast.dlht_key = signature
        return True

    def _promote(self, fast, key: Signature) -> None:
        """Make an existing extra key the dentry's primary registration."""
        old_key = fast.dlht_key
        extras = fast.extra_keys
        if extras is not None and key in extras:
            extras.remove(key)
            if not extras:
                # Normalize: an emptied shadow list is dead weight for
                # every later check.
                fast.extra_keys = None
        if old_key is not None and old_key != key \
                and self.table.get(old_key) is self.table.get(key):
            if fast.extra_keys is None:
                fast.extra_keys = [old_key]
            else:
                fast.extra_keys.append(old_key)
        fast.dlht_key = key

    def remove(self, dentry: Dentry) -> None:
        """Drop a dentry's registration — all of its keys (no-op if absent)."""
        fast = dentry.fast
        if fast is None or fast.dlht is not self:
            return
        if fast.dlht_key is not None \
                and self.table.get(fast.dlht_key) is dentry:
            del self.table[fast.dlht_key]
        if fast.extra_keys:
            for key in fast.extra_keys:
                if self.table.get(key) is dentry:
                    del self.table[key]
            fast.extra_keys = None
        fast.dlht = None
        fast.dlht_key = None

    def discard_key(self, dentry: Dentry, key: Signature) -> None:
        """Drop one stale key of a dentry (lazy touch-time eviction).

        Discarding the primary key leaves the dentry registered only
        under its extra keys (its ``hash_state`` no longer names a live
        path, so the primary slot is cleared until a revalidation
        promotes one of the survivors).
        """
        if self.table.get(key) is dentry:
            del self.table[key]
        fast = dentry.fast
        if fast is None or fast.dlht is not self:
            return  # orphaned mapping: the table slot above was the leak
        extras = fast.extra_keys
        if extras is not None and key in extras:
            extras.remove(key)
            if not extras:
                fast.extra_keys = None
            return
        if fast.dlht_key == key:
            fast.dlht_key = None
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
        for dentry in list(self.table.values()):
            self.remove(dentry)
        self.table.clear()

    def items(self):
        """Snapshot of (key, dentry) pairs (memory accounting)."""
        return list(self.table.items())

    def __len__(self) -> int:
        return len(self.table)
