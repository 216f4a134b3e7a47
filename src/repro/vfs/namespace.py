"""Mount namespaces (§4.3).

Each namespace owns a private mount table: a mapping from
``(parent mount, mountpoint dentry)`` to the mount stacked there.  Cloning
a namespace (``unshare``) copies the mount tree into fresh ``Mount``
objects over the same superblocks, so the same dentries become visible
under possibly different paths — the situation that forces the optimized
kernel to give every namespace its own direct lookup hash table.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro import errors
from repro.vfs.dentry import Dentry
from repro.vfs.mount import Mount, PathPos

_ns_ids = itertools.count(1)


class MountNamespace:
    """A private view of the mount tree."""

    def __init__(self, root_mount: Mount):
        self.id = next(_ns_ids)
        self.root_mount = root_mount
        self._mount_at: Dict[Tuple[int, int], Mount] = {}
        self.mounts: List[Mount] = [root_mount]
        #: Namespace-private direct lookup hash table; installed by the
        #: optimized kernel (None on the baseline kernel).
        self.dlht = None
        #: Set by :meth:`clone`: old mount id -> new Mount.
        self.clone_map = {}

    # -- mount table ----------------------------------------------------------

    @staticmethod
    def _key(parent: Mount, mountpoint: Dentry) -> Tuple[int, int]:
        return (parent.id, id(mountpoint))

    def mount_at(self, parent: Mount, mountpoint: Dentry) -> Optional[Mount]:
        return self._mount_at.get(self._key(parent, mountpoint))

    def add_mount(self, mount: Mount) -> None:
        assert mount.parent is not None and mount.mountpoint is not None
        key = self._key(mount.parent, mount.mountpoint)
        if key in self._mount_at:
            raise errors.EBUSY(message="mountpoint already in use")
        self._mount_at[key] = mount
        mount.mountpoint.mounted_roots += (mount.root_dentry,)
        mount.mountpoint.pin()
        mount.root_dentry.pin()
        self.mounts.append(mount)

    def remove_mount(self, mount: Mount) -> None:
        if mount is self.root_mount:
            raise errors.EBUSY(message="cannot unmount namespace root")
        if any(m.parent is mount for m in self.mounts):
            raise errors.EBUSY(message="mount has children")
        key = self._key(mount.parent, mount.mountpoint)
        if self._mount_at.get(key) is not mount:
            raise errors.EINVAL(message="mount not in this namespace")
        del self._mount_at[key]
        mountpoint = mount.mountpoint
        roots = list(mountpoint.mounted_roots)
        roots.remove(mount.root_dentry)
        mountpoint.mounted_roots = tuple(roots)
        mountpoint.unpin()
        mount.root_dentry.unpin()
        self.mounts.remove(mount)

    # -- traversal helpers -------------------------------------------------------

    def cross_down(self, pos: PathPos) -> PathPos:
        """Follow mounts stacked on ``pos`` downward (entering them)."""
        while True:
            stacked = self.mount_at(pos.mount, pos.dentry)
            if stacked is None:
                return pos
            pos = PathPos(stacked, stacked.root_dentry)

    def parent_pos(self, pos: PathPos, root: PathPos) -> PathPos:
        """The ``..`` of ``pos``, clamped at ``root`` (the task's root)."""
        while True:
            if pos.same_place(root):
                return pos
            if pos.dentry is not pos.mount.root_dentry:
                parent = pos.dentry.parent
                assert parent is not None
                return PathPos(pos.mount, parent)
            if pos.mount.parent is None:
                return pos  # namespace root: .. of / is /
            pos = PathPos(pos.mount.parent, pos.mount.mountpoint)

    # -- cloning ------------------------------------------------------------------

    def clone(self) -> "MountNamespace":
        """Copy the mount tree into a new namespace (``unshare``).

        The returned namespace carries a ``clone_map`` attribute mapping
        old mount ids to the new :class:`Mount` objects, so callers can
        re-anchor a task's root/cwd positions into the new namespace.
        """
        new_root = Mount(self.root_mount.fs, self.root_mount.root_dentry,
                         flags=self.root_mount.flags)
        new_ns = MountNamespace(new_root)
        mapping = {self.root_mount.id: new_root}
        # Parents are always created before children because ``mounts``
        # preserves insertion order.
        for mount in self.mounts:
            if mount is self.root_mount:
                continue
            new_parent = mapping[mount.parent.id]
            copy = Mount(mount.fs, mount.root_dentry, new_parent,
                         mount.mountpoint, mount.flags)
            mapping[mount.id] = copy
            new_ns.add_mount(copy)
        new_ns.clone_map = mapping
        return new_ns

    def __repr__(self) -> str:
        return f"MountNamespace(#{self.id}, {len(self.mounts)} mounts)"
