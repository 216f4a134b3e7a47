"""VFS inodes: the in-memory, FS-independent view of a file.

An :class:`Inode` caches the metadata of one low-level file system object
(``NodeInfo``) and is shared by all hard links to it.  Each superblock
(one mounted :class:`~repro.fs.base.FileSystem` instance) owns an
:class:`InodeTable` so a given ``(fs, ino)`` maps to exactly one live
inode object, which is what makes alias lists and hard-link ``nlink``
accounting coherent.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.fs.base import (DT_DIR, DT_LNK, FileSystem, NodeInfo,
                           mode_filetype)


class Inode:
    """In-memory inode for one (fs, ino) pair."""

    __slots__ = ("fs", "ino", "mode", "uid", "gid", "nlink", "size",
                 "symlink_target", "security", "seq", "mtime_ns",
                 "filetype", "is_dir", "is_symlink")

    def __init__(self, fs: FileSystem, info: NodeInfo):
        self.fs = fs
        self.ino = info.ino
        self.mode = info.mode
        self.uid = info.uid
        self.gid = info.gid
        self.nlink = info.nlink
        self.size = info.size
        self.symlink_target = info.symlink_target
        self.mtime_ns = info.mtime_ns
        #: Opaque LSM label (e.g. an SELinux-like type string).
        self.security: Optional[str] = None
        #: Bumped on any permission-relevant change; read by tests.
        self.seq = 0
        # The type is fixed for the inode's life (``apply``), so the
        # derived type predicates are cached attributes, not per-access
        # recomputation (positive dentries copy them, ``Dentry.set_kind``).
        self.filetype = mode_filetype(self.mode)
        self.is_dir = self.filetype == DT_DIR
        self.is_symlink = self.filetype == DT_LNK

    @property
    def perm_bits(self) -> int:
        return self.mode & 0o7777

    # -- refresh ----------------------------------------------------------------

    def apply(self, info: NodeInfo) -> None:
        """Refresh cached metadata from the low-level FS.

        Raises ``RuntimeError`` if the file type would change: dentries
        cache it, so a file system that reuses an inode number for
        another type must have the stale inode forgotten first
        (``InodeTable.forget``).
        """
        if mode_filetype(info.mode) != self.filetype:
            raise RuntimeError(f"{self!r} cannot become "
                               f"{mode_filetype(info.mode)}")
        self.mode = info.mode
        self.uid = info.uid
        self.gid = info.gid
        self.nlink = info.nlink
        self.size = info.size
        self.symlink_target = info.symlink_target
        self.mtime_ns = info.mtime_ns
        self.seq += 1

    def __repr__(self) -> str:
        return (f"Inode({self.fs.fstype}:{self.ino} {self.filetype} "
                f"mode={oct(self.mode)})")


class InodeTable:
    """Identity map from inode number to live :class:`Inode` per FS."""

    def __init__(self, fs: FileSystem):
        self.fs = fs
        self._inodes: Dict[int, Inode] = {}

    def obtain(self, info: NodeInfo) -> Inode:
        """Return the unique inode for ``info.ino``, creating/refreshing it."""
        inode = self._inodes.get(info.ino)
        if inode is None:
            inode = Inode(self.fs, info)
            self._inodes[info.ino] = inode
        else:
            # Keep the cached view coherent with what the FS just returned,
            # without bumping seq (no permission change happened).
            inode.nlink = info.nlink
            inode.size = info.size
            inode.mtime_ns = info.mtime_ns
        return inode

    def get(self, ino: int) -> Optional[Inode]:
        return self._inodes.get(ino)

    def forget(self, ino: int) -> None:
        self._inodes.pop(ino, None)

    def __len__(self) -> int:
        return len(self._inodes)
