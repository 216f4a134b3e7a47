"""Memory accounting for the directory caches (§6.1 "Space Overhead").

The paper reports the optimized design's space costs: the dentry grows
from 192 to 280 bytes (the 88-byte ``fast_dentry`` of Figure 5), each
credential carries a 64 KB PCC, and the DLHT adds a second, 2^16-bucket
hash table.  A dentry has at most one DLHT key under either coherence
policy, and its chain link and signature live in the ``fast_dentry``,
so the table itself costs only its buckets.  This module prices a
kernel's cache state with the paper's structure sizes so benchmarks can
report the same overhead numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Structure sizes from the paper (x86-64 Linux 3.14).
BASE_DENTRY_BYTES = 192
FAST_DENTRY_BYTES = 88          # Figure 5's struct fast_dentry
PCC_ENTRY_BYTES = 16            # sPTR dnt + INT seq + LRU
DLHT_BUCKET_BYTES = 8           # one list head pointer per bucket
DLHT_BUCKETS = 1 << 16
PRIMARY_BUCKETS = 262_144       # Linux's default (§6.5)
PRIMARY_BUCKET_BYTES = 8
INODE_BYTES = 592               # struct inode, for context
#: Host-side resolution memo (repro.core.resmemo), in bytes of *host*
#: heap per entry, as ``tracemalloc`` reads it on CPython 3.11 / x86-64
#: over 1 000 entries of three-component paths (the memo-bytes test's
#: recipe, which includes the doorkeeper's ``int`` and allocator
#: rounding): 1.08 KB on baseline (one pin per component), 0.99 KB on
#: the fastpath profiles.  The ``sys.getsizeof`` sum over what an entry
#: owns alone — its key tuple, the ``_Entry``, both touch lists, the
#: dependency and absence pins, the terminal signature and the outcome
#: — is 0.78-0.90 KB of that.
RESMEMO_ENTRY_BYTES = 1000
#: One key of a stored charge vector: its slot in one of the vector's
#: four tables and its value (an ``int`` object once past the small-int
#: cache, as tick totals are), with the vector's fixed part — the object
#: and its four tables — spread over its 12-15 keys (62-78 B per key).
#: Equal recordings share one vector, so it is counted once.
RESMEMO_EVENT_BYTES = 72


@dataclass(frozen=True)
class MemoryReport:
    """Simulated bytes used by one kernel's directory caches."""

    dentries: int
    dentry_bytes: int
    fast_dentry_bytes: int
    pcc_count: int
    pcc_bytes: int
    dlht_count: int
    dlht_table_bytes: int
    primary_table_bytes: int
    #: Resolution memo (host-side wall-clock cache, repro.core.resmemo).
    #: Reported for visibility but *excluded* from ``total_bytes``: the
    #: memo is simulator machinery, not part of the paper's §6.1 kernel
    #: cache state — virtual behaviour is identical with it off.
    resmemo_entries: int = 0
    resmemo_bytes: int = 0

    @property
    def baseline_equivalent_bytes(self) -> int:
        """What the same cache would cost the unmodified kernel."""
        return (self.dentries * BASE_DENTRY_BYTES
                + self.primary_table_bytes)

    @property
    def total_bytes(self) -> int:
        return (self.dentry_bytes + self.fast_dentry_bytes
                + self.pcc_bytes + self.dlht_table_bytes
                + self.primary_table_bytes)

    @property
    def overhead_fraction(self) -> float:
        """Fractional growth over the baseline-equivalent footprint."""
        base = self.baseline_equivalent_bytes
        if base == 0:
            return 0.0
        return self.total_bytes / base - 1.0

    @property
    def bytes_per_dentry(self) -> float:
        if self.dentries == 0:
            return 0.0
        return (self.dentry_bytes + self.fast_dentry_bytes) / self.dentries


def measure_kernel(kernel) -> MemoryReport:
    """Price the current cache state of ``kernel``."""
    dentries = len(kernel.dcache)
    fast_count = 0
    for root in kernel.dcache._roots.values():
        if root.fast is not None:
            fast_count += 1
        for dentry in root.descendants():
            if dentry.fast is not None:
                fast_count += 1
    pccs, dlhts = kernel.live_caches()
    pcc_bytes = sum(pcc.capacity * PCC_ENTRY_BYTES for pcc in pccs)
    memo = kernel.memo
    resmemo_entries = len(memo) if memo is not None else 0
    resmemo_bytes = 0
    if memo is not None:
        resmemo_bytes = (resmemo_entries * RESMEMO_ENTRY_BYTES
                         + memo.event_count() * RESMEMO_EVENT_BYTES)
    return MemoryReport(
        dentries=dentries,
        dentry_bytes=dentries * BASE_DENTRY_BYTES,
        fast_dentry_bytes=fast_count * FAST_DENTRY_BYTES,
        pcc_count=len(pccs),
        pcc_bytes=pcc_bytes,
        dlht_count=len(dlhts),
        dlht_table_bytes=len(dlhts) * DLHT_BUCKETS * DLHT_BUCKET_BYTES,
        primary_table_bytes=PRIMARY_BUCKETS * PRIMARY_BUCKET_BYTES,
        resmemo_entries=resmemo_entries,
        resmemo_bytes=resmemo_bytes,
    )
