"""POSIX discretionary access control (mode-bit) checks.

These implement the default Unix semantics the paper's prefix check
enforces: search (execute) permission on every directory from the
process's root/cwd to the target (§2.1).  LSMs stack on top via
:mod:`repro.vfs.lsm`.
"""

from __future__ import annotations

from repro.vfs.cred import Cred
from repro.vfs.inode import Inode

MAY_EXEC = 1
MAY_WRITE = 2
MAY_READ = 4


def dac_permission(cred: Cred, inode: Inode, mask: int) -> bool:
    """Default mode-bit check, mirroring Linux ``generic_permission``."""
    mode = inode.perm_bits
    if cred.is_root:
        # Root bypasses read/write checks everywhere, and search checks on
        # directories; executing a regular file still needs some x bit.
        if mask & MAY_EXEC and not inode.is_dir:
            return bool(mode & 0o111)
        return True
    if cred.uid == inode.uid:
        shift = 6
    elif cred.in_group(inode.gid):
        shift = 3
    else:
        shift = 0
    granted = (mode >> shift) & 0o7
    want = 0
    if mask & MAY_READ:
        want |= 0o4
    if mask & MAY_WRITE:
        want |= 0o2
    if mask & MAY_EXEC:
        want |= 0o1
    return (granted & want) == want


def may_search(cred: Cred, inode: Inode) -> bool:
    """Search permission on a directory (the prefix-check primitive):
    ``dac_permission(cred, inode, MAY_EXEC)`` in one call, since the walk
    asks it once per component."""
    mode = inode.mode
    uid = cred.uid
    if uid == 0:
        return inode.is_dir or bool(mode & 0o111)
    if uid == inode.uid:
        return bool(mode & 0o100)
    gid = inode.gid
    if gid == cred.gid or gid in cred.groups:  # Cred.in_group
        return bool(mode & 0o010)
    return bool(mode & 0o001)


def owner_or_root(cred: Cred, inode: Inode) -> bool:
    """chmod/utimes-style ownership requirement."""
    return cred.is_root or cred.uid == inode.uid


def sticky_delete_allowed(cred: Cred, dir_inode: Inode,
                          victim: Inode) -> bool:
    """Sticky-bit (e.g. /tmp) deletion rule."""
    if not dir_inode.perm_bits & 0o1000:
        return True
    return cred.is_root or cred.uid in (victim.uid, dir_inode.uid)
