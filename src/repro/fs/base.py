"""The low-level file system interface the VFS programs against.

This is the analog of the Linux super_block / inode_operations boundary:
the VFS calls into a :class:`FileSystem` only on a dcache miss (or on a
mutation), and translates the returned :class:`NodeInfo` into VFS inodes
and dentries.  File systems never see dentries, mount points, or
credentials — permission checking stays in the VFS, which is the paper's
argument for why full-path caching must live above the FS (§2.3, §7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro import errors

#: dirent type codes (subset of Linux's DT_*).
DT_REG = "reg"
DT_DIR = "dir"
DT_LNK = "lnk"

#: File-type bits in ``mode`` (simplified stat.S_IF*).
S_IFREG = 0o100000
S_IFDIR = 0o040000
S_IFLNK = 0o120000
S_IFMT = 0o170000

#: Permission-bit helpers used across the VFS.
MODE_BITS = 0o7777


def mode_filetype(mode: int) -> str:
    """Map an on-disk mode word to a DT_* code."""
    kind = mode & S_IFMT
    if kind == S_IFDIR:
        return DT_DIR
    if kind == S_IFLNK:
        return DT_LNK
    return DT_REG


@dataclass(frozen=True)
class FsUsage:
    """statfs(2)-style aggregate numbers."""

    fstype: str
    total_blocks: int
    used_blocks: int
    inode_count: int


@dataclass
class NodeInfo:
    """Everything the VFS needs to materialize an inode.

    Attributes:
        ino: file-system-local inode number.
        mode: type bits | permission bits.
        uid / gid: ownership.
        nlink: hard link count.
        size: byte size (directories report entry count * 32).
        symlink_target: link body for symlinks, else ``None``.
    """

    ino: int
    mode: int
    uid: int
    gid: int
    nlink: int
    size: int
    symlink_target: Optional[str] = None
    #: Last content/entry modification, in virtual ns.
    mtime_ns: int = 0

    @property
    def filetype(self) -> str:
        return mode_filetype(self.mode)

    @property
    def is_dir(self) -> bool:
        return self.filetype == DT_DIR

    @property
    def is_symlink(self) -> bool:
        return self.filetype == DT_LNK


class Node:
    """One in-memory inode: its attributes and the payload of its kind.

    :class:`~repro.fs.tmpfs.TmpFs` and its subclasses keep these;
    SimExt's subclass adds the blocks the payload lives in.
    """

    __slots__ = ("ino", "mode", "uid", "gid", "nlink", "size",
                 "symlink_target", "entries", "data", "xattrs", "mtime_ns")

    def __init__(self, ino: int, mode: int, uid: int, gid: int,
                 mtime_ns: int = 0):
        self.ino = ino
        self.mode = mode
        self.uid = uid
        self.gid = gid
        self.nlink = 2 if (mode & S_IFMT) == S_IFDIR else 1
        self.size = 0
        self.symlink_target: Optional[str] = None
        # Directory payload: insertion-ordered name -> (ino, dtype).
        self.entries: Dict[str, Tuple[int, str]] = {}
        # Regular-file payload.
        self.data = b""
        self.xattrs: Dict[str, bytes] = {}
        self.mtime_ns = mtime_ns

    @property
    def is_dir(self) -> bool:
        return (self.mode & S_IFMT) == S_IFDIR

    def info(self) -> NodeInfo:
        return NodeInfo(self.ino, self.mode, self.uid, self.gid, self.nlink,
                        self.size, self.symlink_target, self.mtime_ns)


def nodes_digest(nodes) -> int:
    """Digest of everything a syscall can observe of ``nodes``
    (:class:`Node` objects) except timestamps: numbers, kinds, modes,
    owners, link counts, sizes, data, symlink targets, xattrs, and
    directory entries in readdir order.
    """
    return hash(tuple(
        (n.ino, n.mode, n.uid, n.gid, n.nlink, n.size, n.symlink_target,
         n.data, tuple(n.entries.items()), tuple(sorted(n.xattrs.items())))
        for n in nodes))


class FileSystem:
    """Abstract low-level file system.

    Subclasses implement the storage; this base class provides argument
    validation shared by all of them.  All methods operate on inode
    numbers, never paths — path resolution is the VFS's job.
    """

    #: Human-readable FS type ("simext", "tmpfs", "proc").
    fstype = "abstract"

    #: Whether the baseline kernel creates negative dentries for misses on
    #: this FS.  Linux skips them on pseudo file systems; the optimized
    #: kernel caches negatives everywhere (§5.2).
    baseline_negative_dentries = True

    #: Stateless network file systems (NFSv2/3) must revalidate every
    #: cached component at the server (§4.3); the VFS calls
    #: :meth:`revalidate` per cached hit and the optimized kernel keeps
    #: such superblocks out of its direct lookup structures.
    requires_revalidation = False

    #: Whether the VFS may mark this FS's directories DIR_COMPLETE
    #: (§5.1).  Only sound when every content change goes through the
    #: VFS: pseudo file systems (provider-generated entries) and network
    #: file systems (other clients) must opt out.
    supports_completeness = True

    #: Root inode number.
    root_ino = 1

    #: Set by the VFS (one callback per superblock) so a file system
    #: that recycles inode numbers can evict the stale VFS inode before
    #: the number is reused; see :meth:`iget`/:meth:`iput`.
    on_ino_reclaim = None

    def iget(self, ino: int) -> None:
        """VFS notification: an open file description now holds ``ino``.

        Paired with :meth:`iput` (mirroring the dentry pin that keeps the
        path alive).  File systems that defer resource reclamation past
        unlink — Unix unlink-while-open semantics — use the pair to run
        the final-iput cleanup; the default is a no-op.
        """

    def iput(self, ino: int) -> None:
        """VFS notification: an open handle on ``ino`` went away."""

    def revalidate(self, dir_ino: int, name: str,
                   cached_ino: "Optional[int]") -> "Optional[NodeInfo]":
        """Revalidate a cached entry (only called when
        ``requires_revalidation``); returns the current server truth."""
        raise NotImplementedError

    # -- reads -------------------------------------------------------------

    def getattr(self, ino: int) -> NodeInfo:
        raise NotImplementedError

    def peek(self, ino: int) -> NodeInfo:
        """Uncharged metadata read for VFS mirror maintenance.

        After a mutation the VFS refreshes the affected directory's
        in-memory inode (size, nlink) — in a real kernel that update is
        free because the VFS inode *is* the FS's in-memory inode, so no
        cost is charged here.
        """
        raise NotImplementedError

    def lookup(self, dir_ino: int, name: str) -> Optional[NodeInfo]:
        """Find ``name`` in directory ``dir_ino``; ``None`` if absent."""
        raise NotImplementedError

    def readdir(self, dir_ino: int) -> Iterator[Tuple[str, int, str]]:
        """Yield ``(name, ino, dtype)`` for every entry (no '.'/'..')."""
        raise NotImplementedError

    def readlink(self, ino: int) -> str:
        info = self.getattr(ino)
        if not info.is_symlink:
            raise errors.EINVAL(message="readlink of non-symlink")
        assert info.symlink_target is not None
        return info.symlink_target

    def read(self, ino: int, offset: int, length: int) -> bytes:
        raise NotImplementedError

    # -- mutations -----------------------------------------------------------

    def create(self, dir_ino: int, name: str, mode: int, uid: int,
               gid: int) -> NodeInfo:
        raise NotImplementedError

    def mkdir(self, dir_ino: int, name: str, mode: int, uid: int,
              gid: int) -> NodeInfo:
        raise NotImplementedError

    def symlink(self, dir_ino: int, name: str, target: str, uid: int,
                gid: int) -> NodeInfo:
        raise NotImplementedError

    def link(self, dir_ino: int, name: str, target_ino: int) -> NodeInfo:
        raise NotImplementedError

    def unlink(self, dir_ino: int, name: str) -> None:
        raise NotImplementedError

    def rmdir(self, dir_ino: int, name: str) -> None:
        raise NotImplementedError

    def rename(self, old_dir: int, old_name: str, new_dir: int,
               new_name: str) -> None:
        raise NotImplementedError

    def setattr(self, ino: int, mode: Optional[int] = None,
                uid: Optional[int] = None, gid: Optional[int] = None,
                size: Optional[int] = None,
                mtime_ns: Optional[int] = None) -> NodeInfo:
        raise NotImplementedError

    def statfs(self) -> "FsUsage":
        """Aggregate usage; concrete file systems override."""
        raise errors.ENOTSUP(message=f"{self.fstype}: no statfs")

    def write(self, ino: int, offset: int, data: bytes) -> int:
        raise NotImplementedError

    # -- extended attributes -----------------------------------------------------

    def getxattr(self, ino: int, name: str) -> bytes:
        raise errors.ENOTSUP(message=f"{self.fstype}: no xattrs")

    def setxattr(self, ino: int, name: str, value: bytes) -> None:
        raise errors.ENOTSUP(message=f"{self.fstype}: no xattrs")

    def listxattr(self, ino: int) -> "list":
        raise errors.ENOTSUP(message=f"{self.fstype}: no xattrs")

    def removexattr(self, ino: int, name: str) -> None:
        raise errors.ENOTSUP(message=f"{self.fstype}: no xattrs")

    # -- cache management ------------------------------------------------------

    def drop_caches(self) -> None:
        """Forget any in-memory state (for cold-cache experiments)."""

    def state_digest(self) -> Optional[int]:
        """Digest of the contents syscalls can observe, timestamps
        aside: equal digests, equal contents.  ``None`` — this default —
        means the file system cannot vouch for its contents (a server or
        a provider changes them), and a kernel that mounts it never
        skips a replay unit on the strength of an earlier run
        (``workloads/traces.py``).
        """
        return None
