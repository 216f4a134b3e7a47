"""The paper's contribution: the optimized directory cache.

Subpackages implement each mechanism of the SOSP 2015 design:

* :mod:`repro.core.signatures` — 240-bit resumable path signatures (§3.3).
* :mod:`repro.core.dlht` — the Direct Lookup Hash Table (§3.1).
* :mod:`repro.core.pcc` — the per-credential Prefix Check Cache (§3.1, §4.1).
* :mod:`repro.core.fastdentry` — per-dentry fast state (Figure 5).
* :mod:`repro.core.coherence` — invalidation on mutations (§3.2): the
  policy interface and ``EagerCoherence``, the paper's recursive shootdown.
* :mod:`repro.core.epoch` — ``EpochCoherence``, the ``optimized-lazy`` policy.
* :mod:`repro.core.completeness` — directory completeness caching (§5.1).
* :mod:`repro.core.negative` — aggressive/deep negative dentries (§5.2).
* :mod:`repro.core.fastpath` — the fastpath lookup engine (§3, §4).
* :mod:`repro.core.kernel` — the kernel builder and configuration knobs.

The public entry point is :func:`repro.core.kernel.make_kernel`.
"""

from repro.core.kernel import (BASELINE, OPTIMIZED, DcacheConfig, Kernel,
                               make_kernel)

__all__ = ["Kernel", "DcacheConfig", "BASELINE", "OPTIMIZED", "make_kernel"]
