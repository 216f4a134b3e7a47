"""Linux Security Module framework analog (§4.1).

An LSM can veto any permission the DAC check would grant, based on inode
labels and the subject's ``cred.security`` domain.  The paper's key
compatibility claim is that the PCC memoizes *arbitrary* LSM decisions
safely, because (a) decisions depend only on (cred, inode-label) pairs,
(b) creds are immutable (COW), and (c) label changes go through the
kernel's relabel API, which triggers the same coherence shootdown as a
``chmod`` (see :mod:`repro.core.coherence`).

Two concrete LSMs ship for tests/benchmarks:

* :class:`SELinuxLikeLsm` — type-enforcement over inode labels.
* :class:`PathPrefixLsm` — AppArmor-flavoured: denies subjects access
  below labelled subtrees (labels are placed on directory inodes, so the
  decision is still inode-local and memoizable).
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.vfs.cred import Cred
from repro.vfs.inode import Inode


class Lsm:
    """Base LSM: allows everything."""

    name = "null"

    def inode_permission(self, cred: Cred, inode: Inode, mask: int) -> bool:
        """Return False to deny an access DAC would allow."""
        return True


class NullLsm(Lsm):
    """Explicit no-op LSM (the default)."""


class SELinuxLikeLsm(Lsm):
    """Type-enforcement: (domain, type, perm-class) triples must be allowed.

    Unlabelled inodes default to ``default_type``; creds without a
    security label run in ``unconfined`` which is allowed everything.
    """

    name = "selinux-like"

    def __init__(self, default_type: str = "file_t"):
        self.default_type = default_type
        self._allowed: Set[Tuple[str, str, str]] = set()

    def allow(self, domain: str, object_type: str, perm: str) -> None:
        """Add an allow rule; perm is 'read', 'write', or 'search'."""
        self._allowed.add((domain, object_type, perm))

    @staticmethod
    def _perms_for_mask(mask: int):
        from repro.vfs import permissions as perms
        if mask & perms.MAY_READ:
            yield "read"
        if mask & perms.MAY_WRITE:
            yield "write"
        if mask & perms.MAY_EXEC:
            yield "search"

    def inode_permission(self, cred: Cred, inode: Inode, mask: int) -> bool:
        domain = cred.security
        if domain is None or domain == "unconfined":
            return True
        object_type = inode.security or self.default_type
        return all((domain, object_type, perm) in self._allowed
                   for perm in self._perms_for_mask(mask))


class PathPrefixLsm(Lsm):
    """AppArmor-flavoured: per-domain denial of labelled subtrees.

    A directory inode labelled ``X`` is unsearchable for domains that have
    ``deny(domain, X)`` — which removes the whole subtree from their view,
    the way AppArmor profiles confine paths.  Because the label sits on
    the directory inode, the decision remains inode-local.
    """

    name = "path-prefix"

    def __init__(self):
        self._denied: Dict[str, Set[str]] = {}

    def deny(self, domain: str, label: str) -> None:
        self._denied.setdefault(domain, set()).add(label)

    def inode_permission(self, cred: Cred, inode: Inode, mask: int) -> bool:
        domain = cred.security
        if domain is None:
            return True
        label = inode.security
        if label is None:
            return True
        return label not in self._denied.get(domain, ())
