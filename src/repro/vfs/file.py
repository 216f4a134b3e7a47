"""Open file descriptions and per-task fd tables.

An open :class:`File` pins its dentry (and thereby the whole ancestor
chain against eviction), which is also what gives Unix directory-handle
semantics: operations relative to an open directory keep working after an
upstream permission change (§3.2, "Directory References").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import errors
from repro.vfs.mount import PathPos

#: open(2) flag bits (subset).
O_RDONLY = 0o0
O_WRONLY = 0o1
O_RDWR = 0o2
O_ACCMODE = 0o3
O_CREAT = 0o100
O_EXCL = 0o200
O_TRUNC = 0o1000
O_APPEND = 0o2000
O_DIRECTORY = 0o200000
O_NOFOLLOW = 0o400000


class File:
    """One open file description."""

    __slots__ = ("pos", "flags", "readable", "writable", "offset",
                 "dir_snapshot", "dir_offset", "dir_seeked",
                 "dir_evictions_at_start", "closed")

    def __init__(self, pos: PathPos, flags: int):
        self.pos = pos
        self.flags = flags
        # Fixed at open: nothing changes ``flags`` afterwards.
        self.readable = flags & O_ACCMODE in (O_RDONLY, O_RDWR)
        self.writable = flags & O_ACCMODE in (O_WRONLY, O_RDWR)
        self.offset = 0
        # Directory iteration state (getdents paging).
        self.dir_snapshot: Optional[List[Tuple[str, int, str]]] = None
        self.dir_offset = 0
        #: Set by lseek; a seeked sequence can no longer prove
        #: completeness (§5.1).
        self.dir_seeked = False
        self.dir_evictions_at_start = 0
        self.closed = False
        pos.dentry.pin()
        inode = pos.dentry.inode
        if inode is not None:
            inode.fs.iget(inode.ino)

    def release(self) -> None:
        if not self.closed:
            self.closed = True
            self.pos.dentry.unpin()
            inode = self.pos.dentry.inode
            if inode is not None:
                inode.fs.iput(inode.ino)


class FdTable:
    """Per-task file descriptor table."""

    def __init__(self) -> None:
        self._files: Dict[int, File] = {}
        self._next_fd = 3  # 0-2 reserved, as tradition demands

    def install(self, file: File) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self._files[fd] = file
        return fd

    def get(self, fd: int) -> File:
        file = self._files.get(fd)
        if file is None or file.closed:
            raise errors.EBADF(message=f"fd {fd}")
        return file

    def close(self, fd: int) -> None:
        file = self._files.pop(fd, None)
        if file is None:
            raise errors.EBADF(message=f"fd {fd}")
        file.release()

    def close_all(self) -> None:
        for file in self._files.values():
            file.release()
        self._files.clear()
