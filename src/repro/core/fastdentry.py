"""Per-dentry fast state: the paper's ``struct fast_dentry`` (Figure 5).

The optimized kernel hangs one :class:`FastDentry` off each dentry it has
populated on a fastpath structure.  It records:

* the resumable hash state of the dentry's canonical path (so relative
  lookups can resume hashing from here),
* the finished signature and which DLHT (namespace) the dentry is
  registered in — a dentry lives in at most one DLHT under one path at a
  time (§4.3),
* the mount the path was resolved under, so a fastpath hit can perform
  mount-flag checks without a tree walk.

The dentry's ``seq`` counter itself lives on the VFS dentry (it is also
used for eviction staleness); coherence code bumps it and clears the
state here.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.signatures import Signature, SigState
from repro.vfs.dentry import Dentry
from repro.vfs.mount import Mount


class FastDentry:
    """Optimized-kernel state attached to a dentry."""

    __slots__ = ("hash_state", "signature", "dlht", "dlht_key", "mount",
                 "link_target_state", "epoch_snapshot", "extra_keys")

    def __init__(self) -> None:
        #: Resumable hash state of the canonical path, or None when stale.
        self.hash_state: Optional[SigState] = None
        #: Finished signature under which the dentry sits in a DLHT.
        self.signature: Optional[Signature] = None
        #: The DLHT instance the dentry is registered in (at most one).
        self.dlht = None
        #: Exact key in that DLHT (so removal is O(1)).
        self.dlht_key: Optional[Tuple[int, int]] = None
        #: Mount the cached path resolves under (mount-flag checks, §4.3).
        self.mount: Optional[Mount] = None
        #: For symlink dentries: hash state of the resolved target path,
        #: so a follow-intent fastpath hit can re-probe the DLHT for the
        #: target ("symbolic link dentries store the signatures that
        #: represent the target path", §4.2).
        self.link_target_state: Optional[SigState] = None
        #: Lazy coherence: the global epoch as of which ``hash_state``
        #: (and the primary registration) was last known current.  A
        #: fastpath hit whose chain carries a higher per-dentry epoch
        #: stamp must revalidate before it may be served (always 0 in
        #: eager mode, where shootdowns clear the state instead).
        self.epoch_snapshot = 0
        #: Lazy coherence: additional DLHT keys (old-path signatures)
        #: this dentry is still registered under.  Lazy mutations do not
        #: evict, so after a rename the dentry answers probes for both
        #: its old and new path until validation settles ownership.
        #: None in eager mode (a dentry has exactly one registration).
        self.extra_keys: Optional[list] = None

    def invalidate(self) -> None:
        """Drop path-derived state (signature stays until DLHT removal)."""
        self.hash_state = None
        self.link_target_state = None

    def __repr__(self) -> str:
        state = "valid" if self.hash_state is not None else "stale"
        return f"FastDentry({state}, in_dlht={self.dlht is not None})"


def fast_of(dentry: Dentry) -> FastDentry:
    """Get (allocating on first use) the fast state of a dentry."""
    if dentry.fast is None:
        dentry.fast = FastDentry()
    return dentry.fast
