"""DLFS-like file system: full-path hashing *on disk* (§7 related work).

The Direct Lookup File System [Lensing et al., SYSTOR 2013] organizes the
entire disk as a hash table keyed by path, so any lookup is one I/O — but
"organizing a disk as a hash table introduces some challenges, such as
converting a directory rename into a deep recursive copy of data and
metadata."  The paper's §7 insight is that hashing full paths *in memory*
(the DLHT) keeps the lookup win without that usability cliff.

This client-side model stores every object keyed by its full path and
charges per-object re-keying I/O on directory renames, so the rename-cost
comparison experiment (exp_dlfs) can quantify the §7 argument.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro import errors
from repro.fs import base
from repro.fs.base import FileSystem, Node, NodeInfo
from repro.sim.costs import CostModel

#: Re-keying one on-disk object during a rename: read + write at new key.
REKEY_NS = 24_000.0
#: One hashed-key I/O (the design's selling point: single-I/O lookup).
KEYED_IO_NS = 9_000.0


class DlfsLikeFs(FileSystem):
    """Path-keyed storage: O(1) lookup, O(subtree) rename."""

    fstype = "dlfs-like"
    baseline_negative_dentries = True

    def __init__(self, costs: CostModel):
        self.costs = costs
        # The "disk": full path -> object.  "" is the root.
        self._by_path: Dict[str, Node] = {}
        self._paths_by_ino: Dict[int, str] = {}
        self._next_ino = 1
        root = Node(self._alloc_ino(), base.S_IFDIR | 0o755, 0, 0)
        self._by_path[""] = root
        self._paths_by_ino[root.ino] = ""
        self.rekey_count = 0

    def _alloc_ino(self) -> int:
        ino = self._next_ino
        self._next_ino += 1
        return ino

    def _path_of(self, ino: int) -> str:
        try:
            return self._paths_by_ino[ino]
        except KeyError:
            raise errors.ENOENT(message=f"stale inode {ino}") from None

    def _get(self, ino: int) -> Node:
        return self._by_path[self._path_of(ino)]

    def _child_key(self, dir_ino: int, name: str) -> str:
        parent = self._path_of(dir_ino)
        if not self._get(dir_ino).is_dir:
            raise errors.ENOTDIR(message=f"inode {dir_ino}")
        return f"{parent}/{name}"

    def _keyed_io(self) -> None:
        self.costs.charge_ns("dlfs_io", KEYED_IO_NS)

    # -- reads -------------------------------------------------------------

    def getattr(self, ino: int) -> NodeInfo:
        return self._get(ino).info()

    def peek(self, ino: int) -> NodeInfo:
        return self._get(ino).info()

    def lookup(self, dir_ino: int, name: str) -> Optional[NodeInfo]:
        self.costs.charge("fs_lookup_base")
        self._keyed_io()  # the single hashed I/O
        obj = self._by_path.get(self._child_key(dir_ino, name))
        return obj.info() if obj is not None else None

    def readdir(self, dir_ino: int) -> Iterator[Tuple[str, int, str]]:
        prefix = self._path_of(dir_ino) + "/"
        for path, obj in list(self._by_path.items()):
            if path.startswith(prefix) and "/" not in path[len(prefix):] \
                    and path != "":
                self.costs.charge("fs_readdir_entry")
                yield (path[len(prefix):], obj.ino,
                       base.mode_filetype(obj.mode))

    def read(self, ino: int, offset: int, length: int) -> bytes:
        self._keyed_io()
        data = self._get(ino).data[offset:offset + length]
        self.costs.charge("read_write_base", nbytes=len(data))
        return data

    # -- mutations -----------------------------------------------------------

    def _insert(self, dir_ino: int, name: str, obj: Node) -> NodeInfo:
        key = self._child_key(dir_ino, name)
        if key in self._by_path:
            raise errors.EEXIST(message=key)
        self._keyed_io()
        self._by_path[key] = obj
        self._paths_by_ino[obj.ino] = key
        return obj.info()

    def create(self, dir_ino, name, mode, uid, gid) -> NodeInfo:
        self.costs.charge("fs_create")
        obj = Node(self._alloc_ino(),
                   (mode & base.MODE_BITS) | base.S_IFREG, uid, gid)
        return self._insert(dir_ino, name, obj)

    def mkdir(self, dir_ino, name, mode, uid, gid) -> NodeInfo:
        self.costs.charge("fs_create")
        obj = Node(self._alloc_ino(),
                   (mode & base.MODE_BITS) | base.S_IFDIR, uid, gid)
        info = self._insert(dir_ino, name, obj)
        self._get(dir_ino).nlink += 1
        return info

    def symlink(self, dir_ino, name, target, uid, gid) -> NodeInfo:
        self.costs.charge("fs_create")
        obj = Node(self._alloc_ino(), base.S_IFLNK | 0o777, uid, gid)
        obj.symlink_target = target
        obj.size = len(target)
        return self._insert(dir_ino, name, obj)

    def link(self, dir_ino, name, target_ino) -> NodeInfo:
        # Hard links are fundamentally awkward in a path-keyed store;
        # DLFS-style designs typically do not support them.
        raise errors.ENOTSUP(message="path-keyed store: no hard links")

    def unlink(self, dir_ino, name) -> None:
        self.costs.charge("fs_unlink")
        key = self._child_key(dir_ino, name)
        obj = self._by_path.get(key)
        if obj is None:
            raise errors.ENOENT(message=key)
        if obj.is_dir:
            raise errors.EISDIR(message=key)
        self._keyed_io()
        del self._by_path[key]
        self._paths_by_ino.pop(obj.ino, None)

    def rmdir(self, dir_ino, name) -> None:
        self.costs.charge("fs_unlink")
        key = self._child_key(dir_ino, name)
        obj = self._by_path.get(key)
        if obj is None:
            raise errors.ENOENT(message=key)
        if not obj.is_dir:
            raise errors.ENOTDIR(message=key)
        if any(path.startswith(key + "/") for path in self._by_path):
            raise errors.ENOTEMPTY(message=key)
        self._keyed_io()
        del self._by_path[key]
        self._paths_by_ino.pop(obj.ino, None)
        self._get(dir_ino).nlink -= 1

    def rename(self, old_dir, old_name, new_dir, new_name) -> None:
        """The §7 cliff: every descendant object is re-keyed on disk."""
        self.costs.charge("fs_rename")
        old_key = self._child_key(old_dir, old_name)
        obj = self._by_path.get(old_key)
        if obj is None:
            raise errors.ENOENT(message=old_key)
        new_key = self._child_key(new_dir, new_name)
        existing = self._by_path.get(new_key)
        if existing is not None:
            if existing.is_dir:
                if not obj.is_dir:
                    raise errors.EISDIR(message=new_key)
                if any(p.startswith(new_key + "/") for p in self._by_path):
                    raise errors.ENOTEMPTY(message=new_key)
                self.rmdir(new_dir, new_name)
            else:
                if obj.is_dir:
                    raise errors.ENOTDIR(message=new_key)
                self.unlink(new_dir, new_name)
        moves = [(old_key, new_key)]
        prefix = old_key + "/"
        for path in list(self._by_path):
            if path.startswith(prefix):
                moves.append((path, new_key + path[len(old_key):]))
        for src, dst in moves:
            self.costs.charge_ns("dlfs_rekey", REKEY_NS)
            self.rekey_count += 1
            moved = self._by_path.pop(src)
            self._by_path[dst] = moved
            self._paths_by_ino[moved.ino] = dst
        if obj.is_dir and old_dir != new_dir:
            self._get(old_dir).nlink -= 1
            self._get(new_dir).nlink += 1

    def setattr(self, ino, mode=None, uid=None, gid=None,
                size=None, mtime_ns=None) -> NodeInfo:
        self.costs.charge("fs_setattr")
        self._keyed_io()
        obj = self._get(ino)
        if mode is not None:
            obj.mode = (obj.mode & base.S_IFMT) | (mode & base.MODE_BITS)
        if uid is not None:
            obj.uid = uid
        if gid is not None:
            obj.gid = gid
        if size is not None and not obj.is_dir:
            obj.data = obj.data[:size].ljust(size, b"\0")
            obj.size = size
        return obj.info()

    def write(self, ino, offset, data) -> int:
        self._keyed_io()
        obj = self._get(ino)
        if obj.is_dir:
            raise errors.EISDIR(message="write to directory")
        buf = bytearray(obj.data.ljust(offset + len(data), b"\0"))
        buf[offset:offset + len(data)] = data
        obj.data = bytes(buf)
        obj.size = len(obj.data)
        self.costs.charge("read_write_base", nbytes=len(data))
        return len(data)
