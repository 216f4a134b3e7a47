"""TmpFs: a RAM-backed file system (no device, CPU costs only).

Structurally identical to :class:`~repro.fs.simext.SimExtFs` but with no
block device behind it, so misses cost only the FS-call CPU time.  Used by
tests that want the dcache algorithms isolated from disk effects, and as
the substrate for ``/tmp`` in the application workloads.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro import errors
from repro.fs import base
from repro.fs.base import FileSystem, NodeInfo
from repro.sim.costs import CostModel


class _Node:
    __slots__ = ("ino", "mode", "uid", "gid", "nlink", "size",
                 "symlink_target", "entries", "data", "xattrs",
                 "mtime_ns")

    def __init__(self, ino: int, mode: int, uid: int, gid: int):
        self.ino = ino
        self.mode = mode
        self.uid = uid
        self.gid = gid
        self.nlink = 2 if (mode & base.S_IFMT) == base.S_IFDIR else 1
        self.size = 0
        self.symlink_target: Optional[str] = None
        self.entries: Dict[str, Tuple[int, str]] = {}
        self.data = b""
        self.xattrs: Dict[str, bytes] = {}
        self.mtime_ns = 0

    @property
    def is_dir(self) -> bool:
        return (self.mode & base.S_IFMT) == base.S_IFDIR

    def info(self) -> NodeInfo:
        return NodeInfo(ino=self.ino, mode=self.mode, uid=self.uid,
                        gid=self.gid, nlink=self.nlink, size=self.size,
                        symlink_target=self.symlink_target,
                        mtime_ns=self.mtime_ns)


class TmpFs(FileSystem):
    """RAM-backed file system."""

    fstype = "tmpfs"
    baseline_negative_dentries = True

    def __init__(self, costs: CostModel):
        self.costs = costs
        self._nodes: Dict[int, _Node] = {}
        self._next_ino = 1
        root = self._alloc(base.S_IFDIR | 0o1777, 0, 0)
        assert root.ino == self.root_ino

    def _alloc(self, mode: int, uid: int, gid: int) -> _Node:
        node = _Node(self._next_ino, mode, uid, gid)
        node.mtime_ns = self.costs.now_ns
        self._nodes[node.ino] = node
        self._next_ino += 1
        return node

    def _get(self, ino: int) -> _Node:
        try:
            return self._nodes[ino]
        except KeyError:
            raise errors.ENOENT(message=f"stale inode {ino}") from None

    def _get_dir(self, ino: int) -> _Node:
        node = self._get(ino)
        if not node.is_dir:
            raise errors.ENOTDIR(message=f"inode {ino} is not a directory")
        return node

    # -- reads -------------------------------------------------------------

    def getattr(self, ino: int) -> NodeInfo:
        return self._get(ino).info()

    def peek(self, ino: int) -> NodeInfo:
        return self._get(ino).info()

    def lookup(self, dir_ino: int, name: str) -> Optional[NodeInfo]:
        self.costs.charge("fs_lookup_base")
        found = self._get_dir(dir_ino).entries.get(name)
        if found is None:
            return None
        return self._get(found[0]).info()

    def readdir(self, dir_ino: int) -> Iterator[Tuple[str, int, str]]:
        for name, (ino, dtype) in list(self._get_dir(dir_ino).entries.items()):
            self.costs.charge("fs_readdir_entry")
            yield name, ino, dtype

    def read(self, ino: int, offset: int, length: int) -> bytes:
        data = self._get(ino).data[offset:offset + length]
        self.costs.charge("read_write_base", nbytes=len(data))
        return data

    # -- mutations -----------------------------------------------------------

    def _add(self, dir_ino: int, name: str, node: _Node, dtype: str) -> None:
        directory = self._get_dir(dir_ino)
        if name in directory.entries:
            raise errors.EEXIST(message=f"{name!r} exists in inode {dir_ino}")
        directory.entries[name] = (node.ino, dtype)
        directory.size = len(directory.entries) * 32
        directory.mtime_ns = self.costs.now_ns

    def create(self, dir_ino: int, name: str, mode: int, uid: int,
               gid: int) -> NodeInfo:
        self.costs.charge("fs_create")
        node = self._alloc((mode & base.MODE_BITS) | base.S_IFREG, uid, gid)
        self._add(dir_ino, name, node, base.DT_REG)
        return node.info()

    def mkdir(self, dir_ino: int, name: str, mode: int, uid: int,
              gid: int) -> NodeInfo:
        self.costs.charge("fs_create")
        node = self._alloc((mode & base.MODE_BITS) | base.S_IFDIR, uid, gid)
        self._add(dir_ino, name, node, base.DT_DIR)
        self._get_dir(dir_ino).nlink += 1
        return node.info()

    def symlink(self, dir_ino: int, name: str, target: str, uid: int,
                gid: int) -> NodeInfo:
        self.costs.charge("fs_create")
        node = self._alloc(base.S_IFLNK | 0o777, uid, gid)
        node.symlink_target = target
        node.size = len(target)
        self._add(dir_ino, name, node, base.DT_LNK)
        return node.info()

    def link(self, dir_ino: int, name: str, target_ino: int) -> NodeInfo:
        self.costs.charge("fs_create")
        node = self._get(target_ino)
        if node.is_dir:
            raise errors.EPERM(message="hard link to directory")
        self._add(dir_ino, name, node, base.DT_REG)
        node.nlink += 1
        return node.info()

    def unlink(self, dir_ino: int, name: str) -> None:
        self.costs.charge("fs_unlink")
        directory = self._get_dir(dir_ino)
        found = directory.entries.get(name)
        if found is None:
            raise errors.ENOENT(message=f"{name!r} not in inode {dir_ino}")
        node = self._get(found[0])
        if node.is_dir:
            raise errors.EISDIR(message=f"unlink of directory {name!r}")
        del directory.entries[name]
        directory.size = len(directory.entries) * 32
        directory.mtime_ns = self.costs.now_ns
        node.nlink -= 1
        # Zero-nlink orphans are retained: open handles may still read
        # them (Unix unlink-while-open semantics).

    def rmdir(self, dir_ino: int, name: str) -> None:
        self.costs.charge("fs_unlink")
        directory = self._get_dir(dir_ino)
        found = directory.entries.get(name)
        if found is None:
            raise errors.ENOENT(message=f"{name!r} not in inode {dir_ino}")
        child = self._get(found[0])
        if not child.is_dir:
            raise errors.ENOTDIR(message=f"rmdir of non-directory {name!r}")
        if child.entries:
            raise errors.ENOTEMPTY(message=f"directory {name!r} not empty")
        del directory.entries[name]
        directory.nlink -= 1
        child.nlink = 0

    def rename(self, old_dir: int, old_name: str, new_dir: int,
               new_name: str) -> None:
        self.costs.charge("fs_rename")
        src = self._get_dir(old_dir)
        found = src.entries.get(old_name)
        if found is None:
            raise errors.ENOENT(message=f"{old_name!r} not in inode {old_dir}")
        moved_ino, dtype = found
        dst = self._get_dir(new_dir)
        existing = dst.entries.get(new_name)
        if existing is not None:
            target = self._get(existing[0])
            moved = self._get(moved_ino)
            if target.is_dir:
                if not moved.is_dir:
                    raise errors.EISDIR(message=f"{new_name!r} is a directory")
                if target.entries:
                    raise errors.ENOTEMPTY(message=f"{new_name!r} not empty")
                self.rmdir(new_dir, new_name)
            else:
                if moved.is_dir:
                    raise errors.ENOTDIR(message=f"{new_name!r} not a directory")
                self.unlink(new_dir, new_name)
        del src.entries[old_name]
        src.size = len(src.entries) * 32
        src.mtime_ns = self.costs.now_ns
        destination = self._get_dir(new_dir)
        destination.entries[new_name] = (moved_ino, dtype)
        destination.size = len(destination.entries) * 32
        destination.mtime_ns = self.costs.now_ns
        moved = self._get(moved_ino)
        if moved.is_dir and old_dir != new_dir:
            self._get_dir(old_dir).nlink -= 1
            self._get_dir(new_dir).nlink += 1

    def setattr(self, ino: int, mode: Optional[int] = None,
                uid: Optional[int] = None, gid: Optional[int] = None,
                size: Optional[int] = None,
                mtime_ns: Optional[int] = None) -> NodeInfo:
        self.costs.charge("fs_setattr")
        node = self._get(ino)
        if mode is not None:
            node.mode = (node.mode & base.S_IFMT) | (mode & base.MODE_BITS)
        if uid is not None:
            node.uid = uid
        if gid is not None:
            node.gid = gid
        if size is not None and not node.is_dir:
            node.data = node.data[:size].ljust(size, b"\0")
            node.size = size
            node.mtime_ns = self.costs.now_ns
        if mtime_ns is not None:
            node.mtime_ns = mtime_ns
        return node.info()

    def write(self, ino: int, offset: int, data: bytes) -> int:
        node = self._get(ino)
        if node.is_dir:
            raise errors.EISDIR(message="write to directory")
        buf = bytearray(node.data.ljust(offset + len(data), b"\0"))
        buf[offset:offset + len(data)] = data
        node.data = bytes(buf)
        node.size = len(node.data)
        node.mtime_ns = self.costs.now_ns
        self.costs.charge("read_write_base", nbytes=len(data))
        return len(data)

    def statfs(self) -> base.FsUsage:
        used = sum((node.size + 4095) // 4096 for node in
                   self._nodes.values())
        return base.FsUsage(fstype=self.fstype, total_blocks=1 << 20,
                            used_blocks=used,
                            inode_count=len(self._nodes))

    def state_digest(self) -> int:
        return base.nodes_digest(self._nodes.values())

    # -- extended attributes -----------------------------------------------------

    def getxattr(self, ino: int, name: str) -> bytes:
        self.costs.charge("fs_xattr")
        try:
            return self._get(ino).xattrs[name]
        except KeyError:
            raise errors.ENOENT(message=f"no xattr {name!r}") from None

    def setxattr(self, ino: int, name: str, value: bytes) -> None:
        self.costs.charge("fs_xattr")
        self._get(ino).xattrs[name] = bytes(value)

    def listxattr(self, ino: int) -> list:
        self.costs.charge("fs_xattr")
        return sorted(self._get(ino).xattrs)

    def removexattr(self, ino: int, name: str) -> None:
        self.costs.charge("fs_xattr")
        node = self._get(ino)
        if name not in node.xattrs:
            raise errors.ENOENT(message=f"no xattr {name!r}")
        del node.xattrs[name]
