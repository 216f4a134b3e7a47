"""TmpFs: a RAM-backed file system (no device, CPU costs only).

TmpFs holds the in-memory inode table and the POSIX directory rules: the
EEXIST / ENOENT / EISDIR / ENOTDIR / ENOTEMPTY checks (a new name is
checked before anything is allocated), entry insert and remove with
their size and mtime updates, link counts, rename over a victim,
``setattr`` and xattrs.  The rules are written over a few primitives — allocate a node,
touch its inode, search, add, insert or remove an entry, and "a node
lost its last link" — which cost nothing here, so a miss costs only the
FS-call CPU time.  Tests use it to isolate the dcache algorithms from
disk effects, and ``netfs``'s export server keeps its tree in one.

:class:`~repro.fs.simext.SimExtFs` is TmpFs plus a block map: it
overrides the primitives to touch the blocks an ext2 would.
:class:`~repro.fs.dlfs.DlfsLikeFs` is TmpFs plus a path-keyed store's
costs: one keyed I/O per operation, one re-key per object a rename moves.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro import errors
from repro.fs import base
from repro.fs.base import FileSystem, Node, NodeInfo
from repro.sim.costs import CostModel


class TmpFs(FileSystem):
    """RAM-backed file system."""

    fstype = "tmpfs"
    baseline_negative_dentries = True
    #: Mode of the root directory (world-writable and sticky, as /tmp).
    root_mode = base.S_IFDIR | 0o1777

    def __init__(self, costs: CostModel):
        self.costs = costs
        self._nodes: Dict[int, Node] = {}
        self._next_ino = 1
        root = self._alloc(self.root_mode, 0, 0)
        assert root.ino == self.root_ino

    def _get(self, ino: int) -> Node:
        try:
            return self._nodes[ino]
        except KeyError:
            raise errors.ENOENT(message=f"stale inode {ino}") from None

    def _get_dir(self, ino: int) -> Node:
        node = self._get(ino)
        if not node.is_dir:
            raise errors.ENOTDIR(message=f"inode {ino} is not a directory")
        return node

    def _child(self, directory: Node, name: str) -> Node:
        found = directory.entries.get(name)
        if found is None:
            raise errors.ENOENT(
                message=f"{name!r} not in inode {directory.ino}")
        return self._get(found[0])

    # -- primitives (free in RAM; SimExt adds its block touches) -------------

    def _alloc(self, mode: int, uid: int, gid: int) -> Node:
        """A new node under the next inode number, stamped now."""
        ino = self._next_ino
        self._next_ino += 1
        node = Node(ino, mode, uid, gid, self.costs.now_ns)
        self._nodes[ino] = node
        return node

    def _touch(self, ino: int, for_write: bool = False) -> None:
        """Read (or write back) the inode of ``ino``."""

    def _search(self, dir_ino: int, name: str) -> None:
        """The name search a create makes before it allocates."""

    def _insert(self, directory: Node, name: str, ino: int,
                dtype: str) -> None:
        """Enter ``name`` -> ``ino`` in ``directory``."""
        directory.entries[name] = (ino, dtype)
        directory.size = len(directory.entries) * 32
        directory.mtime_ns = self.costs.now_ns

    def _remove(self, directory: Node, name: str) -> None:
        """Take ``name`` out of ``directory``."""
        if directory.entries.pop(name, None) is None:
            raise errors.ENOENT(
                message=f"{name!r} not in inode {directory.ino}")
        directory.size = len(directory.entries) * 32
        directory.mtime_ns = self.costs.now_ns

    def _last_link_gone(self, node: Node) -> None:
        """``node``'s link count reached zero.  RAM keeps the orphan:
        open handles may still read it (Unix unlink-while-open)."""

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

    def _free_name(self, dir_ino: int, name: str) -> Node:
        """The directory a new ``name`` goes in; EEXIST if it is taken.
        Checked before anything is allocated, so a failed create leaves
        nothing behind."""
        directory = self._get_dir(dir_ino)
        if name in directory.entries:
            raise errors.EEXIST(message=f"{name!r} exists in inode {dir_ino}")
        return directory

    def _add_entry(self, directory: Node, name: str, node: Node,
                   dtype: str) -> None:
        """Link ``node`` into ``directory`` under a name
        :meth:`_free_name` found free."""
        self._insert(directory, name, node.ino, dtype)

    def create(self, dir_ino: int, name: str, mode: int, uid: int,
               gid: int) -> NodeInfo:
        self.costs.charge("fs_create")
        self._search(dir_ino, name)
        directory = self._free_name(dir_ino, name)
        node = self._alloc((mode & base.MODE_BITS) | base.S_IFREG, uid, gid)
        self._add_entry(directory, name, node, base.DT_REG)
        return node.info()

    def mkdir(self, dir_ino: int, name: str, mode: int, uid: int,
              gid: int) -> NodeInfo:
        self.costs.charge("fs_create")
        self._search(dir_ino, name)
        directory = self._free_name(dir_ino, name)
        node = self._alloc((mode & base.MODE_BITS) | base.S_IFDIR, uid, gid)
        self._add_entry(directory, name, node, base.DT_DIR)
        directory.nlink += 1
        return node.info()

    def symlink(self, dir_ino: int, name: str, target: str, uid: int,
                gid: int) -> NodeInfo:
        self.costs.charge("fs_create")
        directory = self._free_name(dir_ino, name)
        node = self._alloc(base.S_IFLNK | 0o777, uid, gid)
        node.symlink_target = target
        node.size = len(target)
        self._add_entry(directory, name, node, base.DT_LNK)
        return node.info()

    def link(self, dir_ino: int, name: str, target_ino: int) -> NodeInfo:
        self.costs.charge("fs_create")
        node = self._get(target_ino)
        if node.is_dir:
            raise errors.EPERM(message="hard link to directory")
        self._add_entry(self._free_name(dir_ino, name), name, node,
                        base.DT_REG)
        node.nlink += 1
        self._touch(target_ino, for_write=True)
        return node.info()

    def unlink(self, dir_ino: int, name: str) -> None:
        self.costs.charge("fs_unlink")
        directory = self._get_dir(dir_ino)
        node = self._child(directory, name)
        if node.is_dir:
            raise errors.EISDIR(message=f"unlink of directory {name!r}")
        self._remove(directory, name)
        node.nlink -= 1
        self._touch(node.ino, for_write=True)
        if not node.nlink:
            self._last_link_gone(node)

    def rmdir(self, dir_ino: int, name: str) -> None:
        self.costs.charge("fs_unlink")
        directory = self._get_dir(dir_ino)
        child = self._child(directory, name)
        if not child.is_dir:
            raise errors.ENOTDIR(message=f"rmdir of non-directory {name!r}")
        if child.entries:
            raise errors.ENOTEMPTY(message=f"directory {name!r} not empty")
        self._remove(directory, name)
        child.nlink = 0
        directory.nlink -= 1
        self._last_link_gone(child)

    def rename(self, old_dir: int, old_name: str, new_dir: int,
               new_name: str) -> None:
        self.costs.charge("fs_rename")
        src = self._get_dir(old_dir)
        found = src.entries.get(old_name)
        if found is None:
            raise errors.ENOENT(message=f"{old_name!r} not in inode {old_dir}")
        moved_ino, dtype = found
        moving_dir = dtype == base.DT_DIR
        dst = self._get_dir(new_dir)
        existing = dst.entries.get(new_name)
        if existing is not None:
            target = self._get(existing[0])
            if target.is_dir:
                if not moving_dir:
                    raise errors.EISDIR(message=f"{new_name!r} is a directory")
                if target.entries:
                    raise errors.ENOTEMPTY(message=f"{new_name!r} not empty")
                self.rmdir(new_dir, new_name)
            else:
                if moving_dir:
                    raise errors.ENOTDIR(message=f"{new_name!r} not a directory")
                self.unlink(new_dir, new_name)
        self._remove(src, old_name)
        self._insert(dst, new_name, moved_ino, dtype)
        if moving_dir and old_dir != new_dir:
            src.nlink -= 1
            dst.nlink += 1

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
        self._touch(ino, for_write=True)
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
        node = self._get(ino)
        self._touch(ino)
        try:
            return node.xattrs[name]
        except KeyError:
            raise errors.ENOENT(message=f"no xattr {name!r}") from None

    def setxattr(self, ino: int, name: str, value: bytes) -> None:
        self.costs.charge("fs_xattr")
        self._get(ino).xattrs[name] = bytes(value)
        self._touch(ino, for_write=True)

    def listxattr(self, ino: int) -> list:
        self.costs.charge("fs_xattr")
        self._touch(ino)
        return sorted(self._get(ino).xattrs)

    def removexattr(self, ino: int, name: str) -> None:
        self.costs.charge("fs_xattr")
        node = self._get(ino)
        if name not in node.xattrs:
            raise errors.ENOENT(message=f"no xattr {name!r}")
        del node.xattrs[name]
        self._touch(ino, for_write=True)
