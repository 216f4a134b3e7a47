"""Memory accounting for the directory caches (§6.1 "Space Overhead").

The paper reports the optimized design's space costs: the dentry grows
from 192 to 280 bytes (the 88-byte ``fast_dentry`` of Figure 5), each
credential carries a 64 KB PCC, and the DLHT adds a second, 2^16-bucket
hash table.  This module prices a kernel's cache state with the paper's
structure sizes so benchmarks can report the same overhead numbers.
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
#: Lazy coherence only: a non-primary (old-path) DLHT registration needs
#: its own chain node — hlist link (16) + stored signature (32 for 240
#: bits, rounded) + dentry back pointer (8).
DLHT_EXTRA_KEY_BYTES = 56
#: Host-side resolution memo (repro.core.resmemo), in bytes of *host*
#: heap, measured on CPython 3.11 / x86-64 as the ``sys.getsizeof`` sum
#: over the objects an entry owns alone: its key tuple, the ``_Entry``,
#: both touch lists, the dependency and index-key tuples with their
#: elements, the terminal signature, the outcome, and its share of the
#: reverse index (a one-entry bucket dict per dependency).  1.2-1.4 KB on
#: three-component paths, 1.3 (fastpath: one pin per lookup) to 1.9 KB
#: (baseline: one pin per component) on the benchmark's ``warm_lookup``
#: paths; ``tracemalloc`` reads 1.6-1.9 KB for the former, the difference
#: being allocator rounding and the doorkeeper's ``int``.
RESMEMO_ENTRY_BYTES = 1500
#: One key of a stored charge vector: the ``(scope, primitive)`` and
#: ``(times, nbytes)`` tuples and the slot in ``ChargeVector.charges``,
#: with the vector's fixed part spread over its 7-9 keys (165-179 B per
#: key).  Equal recordings share one vector, so it is counted once.
RESMEMO_EVENT_BYTES = 176


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
    #: Non-primary registrations (lazy multi-key mode); zero for eager.
    dlht_extra_keys: int = 0
    dlht_extra_key_bytes: int = 0
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
                + self.dlht_extra_key_bytes + self.primary_table_bytes)

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
    pccs = kernel.coherence.pccs
    pcc_bytes = sum(pcc.capacity * PCC_ENTRY_BYTES for pcc in pccs)
    dlhts = kernel.coherence.dlhts
    extra_keys = sum(dlht.extra_key_count for dlht in dlhts)
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
        dlht_extra_keys=extra_keys,
        dlht_extra_key_bytes=extra_keys * DLHT_EXTRA_KEY_BYTES,
        resmemo_entries=resmemo_entries,
        resmemo_bytes=resmemo_bytes,
    )
