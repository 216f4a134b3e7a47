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

A dentry is in at most one DLHT under one key, the signature of the
path it was last registered under (§4.3): every table key is its
dentry's ``fast.dlht_key``.  Registering it under a new path drops the
old key, under both coherence policies; a lazy mutation leaves the key
in place until a probe of it fails revalidation, a walk registers the
new path, or the dentry leaves.

A key is the int a hasher's ``finish`` returns: its low ``index_bits``
are the bucket index and the bits above them the stored signature
(:mod:`repro.core.signatures`), so one int is both what a probe asks
for and what a registration stores.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.fastdentry import fast_of
from repro.sim.costs import CostModel
from repro.sim.stats import Stats
from repro.vfs.dentry import Dentry

#: What one probe charges: a bucket fetch and a signature compare.
PROBE_CHARGES = (("htlookup", "dlht_probe"), ("htlookup", "sig_compare"))


class DirectLookupHashTable:
    """One namespace's signature -> dentry index."""

    __slots__ = ("costs", "stats", "table", "_probe")

    def __init__(self, costs: CostModel, stats: Stats):
        self.costs = costs
        self.stats = stats
        #: Key -> dentry.  Outside a recording (``costs.recorder``
        #: None) a reader may probe it in place of :meth:`lookup`, which
        #: only adds the recorder's notes; only this class writes it.
        self.table: Dict[int, Dentry] = {}
        self._probe = costs.run(PROBE_CHARGES)

    def probe(self, signature: int) -> Optional[Dentry]:
        """Look up a signature: bucket fetch + signature compare, charged
        to "htlookup"."""
        self.costs.apply(self._probe)
        return self.lookup(signature)

    def lookup(self, signature: int) -> Optional[Dentry]:
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

    def insert(self, dentry: Dentry, signature: int) -> bool:
        """Register ``dentry`` under ``signature``.

        Returns False (leaving the table unchanged) when a *different*
        dentry already owns the signature — first-wins, as in a chained
        bucket where lookup stops at the first signature match.  If the
        dentry is registered elsewhere (other path or other namespace's
        table), that registration is dropped first — a dentry is in at
        most one DLHT under one signature (§4.3).
        """
        placed = self.place(dentry, signature)
        if placed:
            self.costs.charge("dlht_insert")
        return placed is not None

    def place(self, dentry: Dentry, signature: int):
        """:meth:`insert`'s table change, uncharged: True when the entry
        is new, False when the dentry already held the key, None when a
        live dentry owns it.  A population that places several charges
        ``dlht_insert`` once for all that were new."""
        table = self.table
        current = table.get(signature)
        if current is dentry:
            return False
        if current is not None and not current.dead:
            return None
        fast = dentry.fast
        if fast is None:
            fast = fast_of(dentry)
        if fast.dlht is not None:
            fast.dlht.remove(dentry)
        table[signature] = dentry
        fast.dlht = self
        fast.dlht_key = signature
        return True

    def remove(self, dentry: Dentry) -> None:
        """Drop a dentry's registration (no-op if absent)."""
        fast = dentry.fast
        if fast is None or fast.dlht is not self:
            return
        if self.table.get(fast.dlht_key) is dentry:
            del self.table[fast.dlht_key]
        fast.dlht = None
        fast.dlht_key = None

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
