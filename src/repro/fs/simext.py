"""SimExt: an ext2-like on-disk file system over the simulated device.

The contents live in Python structures, but every metadata operation
touches the *block locations* a real ext2/ext4 would: the inode table
block for the inode, and the directory-entry blocks for a name search.
Those touches go through the buffer cache, so a warm run costs CPU-scale
``pagecache_hit`` charges while a cold run pays device time — the
distinction Tables 1 and 2 of the paper rest on.

Directory name search is linear over entry blocks up to
``HTREE_THRESHOLD_BLOCKS``; beyond that the directory is treated as
hash-indexed (like ext4's htree) and a search costs an index-block plus a
leaf-block access regardless of size.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterator, List, Optional, Tuple

from repro import errors
from repro.fs import base
from repro.fs.base import FileSystem, NodeInfo
from repro.fs.disk import BlockAllocator, BlockDevice
from repro.fs.pagecache import PageCache
from repro.sim.costs import CostModel

INODES_PER_BLOCK = 8
ENTRIES_PER_BLOCK = 16
HTREE_THRESHOLD_BLOCKS = 4
INODE_TABLE_FIRST_BLOCK = 1
#: Number of blocks reserved for the inode table (1 M inodes).
INODE_TABLE_BLOCKS = (1 << 20) // INODES_PER_BLOCK


class _Inode:
    """In-structure representation of one on-disk inode."""

    __slots__ = ("ino", "mode", "uid", "gid", "nlink", "size",
                 "symlink_target", "entries", "entry_blocks", "data",
                 "data_blocks", "xattrs", "mtime_ns")

    def __init__(self, ino: int, mode: int, uid: int, gid: int):
        self.ino = ino
        self.mode = mode
        self.uid = uid
        self.gid = gid
        self.nlink = 2 if (mode & base.S_IFMT) == base.S_IFDIR else 1
        self.size = 0
        self.symlink_target: Optional[str] = None
        # Directory payload: insertion-ordered name -> (ino, dtype).
        self.entries: Dict[str, Tuple[int, str]] = {}
        self.entry_blocks: List[int] = []
        # Regular-file payload.
        self.data = b""
        self.data_blocks: List[int] = []
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


class SimExtFs(FileSystem):
    """The simulated ext file system."""

    fstype = "simext"
    baseline_negative_dentries = True

    def __init__(self, costs: CostModel, device: Optional[BlockDevice] = None,
                 pagecache: Optional[PageCache] = None):
        self.costs = costs
        self.device = device or BlockDevice(costs)
        self.pagecache = pagecache or PageCache(costs, self.device)
        first_data = INODE_TABLE_FIRST_BLOCK + INODE_TABLE_BLOCKS
        self._allocator = BlockAllocator(self.device.size_blocks, first_data)
        self._inodes: Dict[int, _Inode] = {}
        self._next_ino = 1
        # Freed inode numbers, reused lowest-first like ext's inode
        # bitmap.  Without reuse every delete/recreate cycle would march
        # the inode table (and the allocation hints derived from it)
        # monotonically across the disk, which no real FS does.
        self._free_inos: List[int] = []
        # Open-handle counts per inode (VFS iget/iput): a zero-nlink
        # inode is reclaimed on the *final* iput, giving Unix
        # unlink-while-open semantics.
        self._nopen: Dict[int, int] = {}
        root = self._alloc_inode(base.S_IFDIR | 0o755, uid=0, gid=0)
        assert root.ino == self.root_ino

    # -- internal helpers -----------------------------------------------------

    def _alloc_inode(self, mode: int, uid: int, gid: int) -> _Inode:
        if self._free_inos:
            ino = heappop(self._free_inos)
        else:
            ino = self._next_ino
            self._next_ino += 1
        inode = _Inode(ino, mode, uid, gid)
        inode.mtime_ns = self.costs.now_ns
        self._inodes[ino] = inode
        self._touch_inode_block(ino, for_write=True)
        return inode

    def _inode_block(self, ino: int) -> int:
        return INODE_TABLE_FIRST_BLOCK + (ino - 1) // INODES_PER_BLOCK

    def _touch_inode_block(self, ino: int, for_write: bool = False) -> None:
        self.pagecache.access(self._inode_block(ino), for_write=for_write)

    def _get(self, ino: int) -> _Inode:
        try:
            return self._inodes[ino]
        except KeyError:
            raise errors.ENOENT(message=f"stale inode {ino}") from None

    def _get_dir(self, ino: int) -> _Inode:
        inode = self._get(ino)
        if not inode.is_dir:
            raise errors.ENOTDIR(message=f"inode {ino} is not a directory")
        return inode

    def _dir_capacity(self, directory: _Inode) -> int:
        return len(directory.entry_blocks) * ENTRIES_PER_BLOCK

    def _ensure_entry_room(self, directory: _Inode) -> None:
        if len(directory.entries) < self._dir_capacity(directory):
            return
        near = (directory.entry_blocks[-1] if directory.entry_blocks
                else self._inode_block(directory.ino) + INODE_TABLE_BLOCKS)
        block = self._allocator.allocate(near=near)
        directory.entry_blocks.append(block)
        self.pagecache.access(block, for_write=True)

    def _search_blocks(self, directory: _Inode, name: str) -> None:
        """Charge the block accesses a name search in ``directory`` costs."""
        nblocks = max(1, len(directory.entry_blocks))
        if nblocks <= HTREE_THRESHOLD_BLOCKS:
            # Linear scan: on average half the blocks for hits, all for
            # misses; charge the worst case for determinism.
            for block in directory.entry_blocks or [self._inode_block(directory.ino)]:
                self.pagecache.access(block)
                self.costs.charge("fs_dirblock_scan")
        else:
            # htree: index block + one leaf block.
            self.pagecache.access(directory.entry_blocks[0])
            leaf = directory.entry_blocks[1 + (hash(name) % (nblocks - 1))]
            self.pagecache.access(leaf)
            self.costs.charge("fs_dirblock_scan", times=2)

    # -- reads -------------------------------------------------------------

    def getattr(self, ino: int) -> NodeInfo:
        inode = self._get(ino)
        self._touch_inode_block(ino)
        return inode.info()

    def peek(self, ino: int) -> NodeInfo:
        return self._get(ino).info()

    def lookup(self, dir_ino: int, name: str) -> Optional[NodeInfo]:
        self.costs.charge("fs_lookup_base")
        directory = self._get_dir(dir_ino)
        self._touch_inode_block(dir_ino)
        self._search_blocks(directory, name)
        found = directory.entries.get(name)
        if found is None:
            return None
        child_ino, _dtype = found
        self._touch_inode_block(child_ino)
        return self._get(child_ino).info()

    def readdir(self, dir_ino: int) -> Iterator[Tuple[str, int, str]]:
        directory = self._get_dir(dir_ino)
        self._touch_inode_block(dir_ino)
        block_iter = iter(directory.entry_blocks)
        emitted_in_block = ENTRIES_PER_BLOCK
        for name, (ino, dtype) in list(directory.entries.items()):
            if emitted_in_block >= ENTRIES_PER_BLOCK:
                block = next(block_iter, None)
                if block is not None:
                    self.pagecache.access(block)
                emitted_in_block = 0
            self.costs.charge("fs_readdir_entry")
            emitted_in_block += 1
            yield name, ino, dtype

    def read(self, ino: int, offset: int, length: int) -> bytes:
        inode = self._get(ino)
        self._touch_inode_block(ino)
        data = inode.data[offset:offset + length]
        first = offset // 4096
        last = max(first, (offset + max(len(data), 1) - 1) // 4096)
        for idx in range(first, last + 1):
            if idx < len(inode.data_blocks):
                self.pagecache.access(inode.data_blocks[idx])
        self.costs.charge("read_write_base", nbytes=len(data))
        return data

    # -- mutations -----------------------------------------------------------

    def _add_entry(self, dir_ino: int, name: str, child: _Inode,
                   dtype: str) -> None:
        directory = self._get_dir(dir_ino)
        if name in directory.entries:
            raise errors.EEXIST(message=f"{name!r} exists in inode {dir_ino}")
        self._ensure_entry_room(directory)
        directory.entries[name] = (child.ino, dtype)
        directory.size = len(directory.entries) * 32
        directory.mtime_ns = self.costs.now_ns
        self._touch_inode_block(dir_ino, for_write=True)
        if directory.entry_blocks:
            self.pagecache.access(directory.entry_blocks[-1], for_write=True)

    def create(self, dir_ino: int, name: str, mode: int, uid: int,
               gid: int) -> NodeInfo:
        self.costs.charge("fs_create")
        self._search_blocks(self._get_dir(dir_ino), name)
        inode = self._alloc_inode((mode & base.MODE_BITS) | base.S_IFREG,
                                  uid, gid)
        self._add_entry(dir_ino, name, inode, base.DT_REG)
        return inode.info()

    def mkdir(self, dir_ino: int, name: str, mode: int, uid: int,
              gid: int) -> NodeInfo:
        self.costs.charge("fs_create")
        self._search_blocks(self._get_dir(dir_ino), name)
        inode = self._alloc_inode((mode & base.MODE_BITS) | base.S_IFDIR,
                                  uid, gid)
        self._add_entry(dir_ino, name, inode, base.DT_DIR)
        self._get(dir_ino).nlink += 1
        return inode.info()

    def symlink(self, dir_ino: int, name: str, target: str, uid: int,
                gid: int) -> NodeInfo:
        self.costs.charge("fs_create")
        inode = self._alloc_inode(base.S_IFLNK | 0o777, uid, gid)
        inode.symlink_target = target
        inode.size = len(target)
        self._add_entry(dir_ino, name, inode, base.DT_LNK)
        return inode.info()

    def link(self, dir_ino: int, name: str, target_ino: int) -> NodeInfo:
        self.costs.charge("fs_create")
        inode = self._get(target_ino)
        if inode.is_dir:
            raise errors.EPERM(message="hard link to directory")
        self._add_entry(dir_ino, name, inode, base.DT_REG)
        inode.nlink += 1
        self._touch_inode_block(target_ino, for_write=True)
        return inode.info()

    def _remove_entry(self, dir_ino: int, name: str) -> _Inode:
        directory = self._get_dir(dir_ino)
        self._search_blocks(directory, name)
        found = directory.entries.pop(name, None)
        if found is None:
            raise errors.ENOENT(message=f"{name!r} not in inode {dir_ino}")
        directory.size = len(directory.entries) * 32
        directory.mtime_ns = self.costs.now_ns
        self._touch_inode_block(dir_ino, for_write=True)
        return self._get(found[0])

    def unlink(self, dir_ino: int, name: str) -> None:
        self.costs.charge("fs_unlink")
        directory = self._get_dir(dir_ino)
        found = directory.entries.get(name)
        if found is None:
            raise errors.ENOENT(message=f"{name!r} not in inode {dir_ino}")
        if self._get(found[0]).is_dir:
            raise errors.EISDIR(message=f"unlink of directory {name!r}")
        inode = self._remove_entry(dir_ino, name)
        inode.nlink -= 1
        self._touch_inode_block(inode.ino, for_write=True)
        # A zero-nlink inode with open handles becomes an orphan (Unix
        # unlink-while-open semantics); the final iput reclaims it.
        if inode.nlink == 0 and not self._nopen.get(inode.ino):
            self._reclaim(inode)

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
        self._remove_entry(dir_ino, name)
        for block in child.entry_blocks:
            self._allocator.free(block)
        child.entry_blocks = []
        child.nlink = 0
        directory.nlink -= 1
        if not self._nopen.get(child.ino):
            self._reclaim(child)

    def rename(self, old_dir: int, old_name: str, new_dir: int,
               new_name: str) -> None:
        self.costs.charge("fs_rename")
        src_dir = self._get_dir(old_dir)
        found = src_dir.entries.get(old_name)
        if found is None:
            raise errors.ENOENT(message=f"{old_name!r} not in inode {old_dir}")
        moved_ino, dtype = found
        dst_dir = self._get_dir(new_dir)
        existing = dst_dir.entries.get(new_name)
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
        self._remove_entry(old_dir, old_name)
        moved = self._get(moved_ino)
        destination = self._get_dir(new_dir)
        self._ensure_entry_room(destination)
        destination.entries[new_name] = (moved_ino, dtype)
        destination.size = len(destination.entries) * 32
        destination.mtime_ns = self.costs.now_ns
        self._touch_inode_block(new_dir, for_write=True)
        if moved.is_dir and old_dir != new_dir:
            self._get_dir(old_dir).nlink -= 1
            self._get_dir(new_dir).nlink += 1

    def setattr(self, ino: int, mode: Optional[int] = None,
                uid: Optional[int] = None, gid: Optional[int] = None,
                size: Optional[int] = None,
                mtime_ns: Optional[int] = None) -> NodeInfo:
        self.costs.charge("fs_setattr")
        inode = self._get(ino)
        if mode is not None:
            inode.mode = (inode.mode & base.S_IFMT) | (mode & base.MODE_BITS)
        if uid is not None:
            inode.uid = uid
        if gid is not None:
            inode.gid = gid
        if size is not None and not inode.is_dir:
            inode.data = inode.data[:size].ljust(size, b"\0")
            inode.size = size
            inode.mtime_ns = self.costs.now_ns
        if mtime_ns is not None:
            inode.mtime_ns = mtime_ns
        self._touch_inode_block(ino, for_write=True)
        return inode.info()

    def write(self, ino: int, offset: int, data: bytes) -> int:
        inode = self._get(ino)
        if inode.is_dir:
            raise errors.EISDIR(message="write to directory")
        buf = bytearray(inode.data.ljust(offset + len(data), b"\0"))
        buf[offset:offset + len(data)] = data
        inode.data = bytes(buf)
        inode.size = len(inode.data)
        needed_blocks = (inode.size + 4095) // 4096
        while len(inode.data_blocks) < needed_blocks:
            near = (inode.data_blocks[-1] if inode.data_blocks
                    else self._inode_block(ino) + INODE_TABLE_BLOCKS)
            inode.data_blocks.append(self._allocator.allocate(near=near))
        first = offset // 4096
        last = max(first, (offset + max(len(data), 1) - 1) // 4096)
        for idx in range(first, min(last + 1, len(inode.data_blocks))):
            self.pagecache.access(inode.data_blocks[idx], for_write=True)
        inode.mtime_ns = self.costs.now_ns
        self.costs.charge("read_write_base", nbytes=len(data))
        self._touch_inode_block(ino, for_write=True)
        return len(data)

    def statfs(self) -> base.FsUsage:
        self.costs.charge("fs_lookup_base")
        return base.FsUsage(fstype=self.fstype,
                            total_blocks=self.device.size_blocks,
                            used_blocks=self._allocator.used_count,
                            inode_count=len(self._inodes))

    # -- extended attributes -----------------------------------------------------

    def getxattr(self, ino: int, name: str) -> bytes:
        self.costs.charge("fs_xattr")
        inode = self._get(ino)
        self._touch_inode_block(ino)
        try:
            return inode.xattrs[name]
        except KeyError:
            raise errors.ENOENT(message=f"no xattr {name!r}") from None

    def setxattr(self, ino: int, name: str, value: bytes) -> None:
        self.costs.charge("fs_xattr")
        self._get(ino).xattrs[name] = bytes(value)
        self._touch_inode_block(ino, for_write=True)

    def listxattr(self, ino: int) -> list:
        self.costs.charge("fs_xattr")
        self._touch_inode_block(ino)
        return sorted(self._get(ino).xattrs)

    def removexattr(self, ino: int, name: str) -> None:
        self.costs.charge("fs_xattr")
        inode = self._get(ino)
        if name not in inode.xattrs:
            raise errors.ENOENT(message=f"no xattr {name!r}")
        del inode.xattrs[name]
        self._touch_inode_block(ino, for_write=True)

    # -- inode lifetime --------------------------------------------------------

    def iget(self, ino: int) -> None:
        self._nopen[ino] = self._nopen.get(ino, 0) + 1

    def iput(self, ino: int) -> None:
        left = self._nopen.get(ino, 0) - 1
        if left > 0:
            self._nopen[ino] = left
            return
        self._nopen.pop(ino, None)
        inode = self._inodes.get(ino)
        if inode is not None and inode.nlink == 0:
            self._reclaim(inode)

    def _reclaim(self, inode: _Inode) -> None:
        """Final release of a zero-nlink inode: return its blocks and
        number to the free pools (no charge — bitmap updates ride the
        already-charged mutation that dropped the last link)."""
        del self._inodes[inode.ino]
        for block in inode.data_blocks:
            self._allocator.free(block)
        inode.data_blocks = []
        for block in inode.entry_blocks:
            self._allocator.free(block)
        inode.entry_blocks = []
        heappush(self._free_inos, inode.ino)
        if self.on_ino_reclaim is not None:
            self.on_ino_reclaim(inode.ino)

    # -- cache management ------------------------------------------------------

    def drop_caches(self) -> None:
        self.pagecache.drop_caches()

    def state_digest(self) -> int:
        return base.nodes_digest(self._inodes.values())
