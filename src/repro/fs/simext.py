"""SimExt: an ext2-like on-disk file system over the simulated device.

SimExt is :class:`~repro.fs.tmpfs.TmpFs` plus a block map.  The contents
and the POSIX directory rules are TmpFs's; SimExt overrides TmpFs's
primitives so that every metadata operation touches the *block
locations* a real ext2/ext4 would: the inode table block for the inode,
and the directory-entry blocks for a name search.  Those touches go
through the buffer cache, so a warm run costs CPU-scale ``pagecache_hit``
charges while a cold run pays device time — the distinction Tables 1
and 2 of the paper rest on.  It also reuses inode numbers lowest-first
and reclaims an unlinked inode on its final ``iput``.

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
from repro.fs.base import Node, NodeInfo
from repro.fs.disk import BlockAllocator, BlockDevice
from repro.fs.pagecache import PageCache
from repro.fs.tmpfs import TmpFs
from repro.sim.costs import CostModel

INODES_PER_BLOCK = 8
ENTRIES_PER_BLOCK = 16
HTREE_THRESHOLD_BLOCKS = 4
INODE_TABLE_FIRST_BLOCK = 1
#: Number of blocks reserved for the inode table (1 M inodes).
INODE_TABLE_BLOCKS = (1 << 20) // INODES_PER_BLOCK


class _Inode(Node):
    """A node plus the device blocks its payload lives in."""

    __slots__ = ("entry_blocks", "data_blocks")

    def __init__(self, ino: int, mode: int, uid: int, gid: int,
                 mtime_ns: int = 0):
        super().__init__(ino, mode, uid, gid, mtime_ns)
        self.entry_blocks: List[int] = []
        self.data_blocks: List[int] = []


class SimExtFs(TmpFs):
    """The simulated ext file system."""

    fstype = "simext"
    root_mode = base.S_IFDIR | 0o755

    def __init__(self, costs: CostModel, device: Optional[BlockDevice] = None,
                 pagecache: Optional[PageCache] = None):
        self.device = device or BlockDevice(costs)
        self.pagecache = pagecache or PageCache(costs, self.device)
        first_data = INODE_TABLE_FIRST_BLOCK + INODE_TABLE_BLOCKS
        self._allocator = BlockAllocator(self.device.size_blocks, first_data)
        # Freed inode numbers, reused lowest-first like ext's inode
        # bitmap.  Without reuse every delete/recreate cycle would march
        # the inode table (and the allocation hints derived from it)
        # monotonically across the disk, which no real FS does.
        self._free_inos: List[int] = []
        # Open-handle counts per inode (VFS iget/iput): a zero-nlink
        # inode is reclaimed on the *final* iput, giving Unix
        # unlink-while-open semantics.
        self._nopen: Dict[int, int] = {}
        super().__init__(costs)

    # -- the block map -------------------------------------------------------

    def _inode_block(self, ino: int) -> int:
        return INODE_TABLE_FIRST_BLOCK + (ino - 1) // INODES_PER_BLOCK

    def _ensure_entry_room(self, directory: _Inode) -> None:
        capacity = len(directory.entry_blocks) * ENTRIES_PER_BLOCK
        if len(directory.entries) < capacity:
            return
        near = (directory.entry_blocks[-1] if directory.entry_blocks
                else self._inode_block(directory.ino) + INODE_TABLE_BLOCKS)
        block = self._allocator.allocate(near=near)
        directory.entry_blocks.append(block)
        self.pagecache.access(block, for_write=True)

    def _scan(self, directory: _Inode, name: str) -> Tuple[int, int]:
        """Probe the blocks a name search in ``directory`` reads,
        uncharged: ``(page-cache hits, blocks scanned)``."""
        probe = self.pagecache.probe
        blocks = directory.entry_blocks
        if not blocks:
            return probe(self._inode_block(directory.ino)), 1
        if len(blocks) <= HTREE_THRESHOLD_BLOCKS:
            # Linear scan: on average half the blocks for hits, all for
            # misses; charge the worst case for determinism.
            return sum(map(probe, blocks)), len(blocks)
        # htree: index block + one leaf block.
        leaf = blocks[1 + (hash(name) % (len(blocks) - 1))]
        return probe(blocks[0]) + probe(leaf), 2

    def _search_blocks(self, directory: _Inode, name: str) -> None:
        """Charge the block accesses a name search in ``directory`` costs."""
        hits, scans = self._scan(directory, name)
        if hits:
            self.costs.charge("pagecache_hit", hits)
        self.costs.charge("fs_dirblock_scan", scans)

    def _free_blocks(self, blocks: List[int]) -> None:
        for block in blocks:
            self._allocator.free(block)
        blocks.clear()

    # -- TmpFs's primitives, with the blocks they touch ----------------------

    def _alloc(self, mode: int, uid: int, gid: int) -> _Inode:
        if self._free_inos:
            ino = heappop(self._free_inos)
        else:
            ino = self._next_ino
            self._next_ino += 1
        inode = _Inode(ino, mode, uid, gid, self.costs.now_ns)
        self._nodes[ino] = inode
        self._touch(ino, for_write=True)
        return inode

    def _touch(self, ino: int, for_write: bool = False) -> None:
        self.pagecache.access(self._inode_block(ino), for_write=for_write)

    def _search(self, dir_ino: int, name: str) -> None:
        self._search_blocks(self._get_dir(dir_ino), name)

    def _insert(self, directory: _Inode, name: str, ino: int,
                dtype: str) -> None:
        self._ensure_entry_room(directory)
        super()._insert(directory, name, ino, dtype)
        self._touch(directory.ino, for_write=True)

    def _add_entry(self, directory: _Inode, name: str, node: Node,
                   dtype: str) -> None:
        super()._add_entry(directory, name, node, dtype)
        if directory.entry_blocks:
            self.pagecache.access(directory.entry_blocks[-1], for_write=True)

    def _remove(self, directory: _Inode, name: str) -> None:
        self._search_blocks(directory, name)
        super()._remove(directory, name)
        self._touch(directory.ino, for_write=True)

    def _last_link_gone(self, inode: _Inode) -> None:
        # A directory's entry blocks go at once (a file has none); the
        # rest waits for the final iput.
        self._free_blocks(inode.entry_blocks)
        if not self._nopen.get(inode.ino):
            self._reclaim(inode)

    # -- reads -------------------------------------------------------------

    def getattr(self, ino: int) -> NodeInfo:
        inode = self._get(ino)
        self._touch(ino)
        return inode.info()

    def lookup(self, dir_ino: int, name: str) -> Optional[NodeInfo]:
        # The directory's inode, its entry blocks, the child's: one tally.
        costs = self.costs
        costs.charge("fs_lookup_base")
        directory = self._get_dir(dir_ino)
        hits = self.pagecache.probe(self._inode_block(dir_ino))
        searched, scans = self._scan(directory, name)
        hits += searched
        found = directory.entries.get(name)
        if found is not None:
            hits += self.pagecache.probe(self._inode_block(found[0]))
        if hits:
            costs.charge("pagecache_hit", hits)
        costs.charge("fs_dirblock_scan", scans)
        if found is None:
            return None
        return self._get(found[0]).info()

    def readdir(self, dir_ino: int) -> Iterator[Tuple[str, int, str]]:
        directory = self._get_dir(dir_ino)
        entries = list(directory.entries.items())
        # The inode, then a block per ENTRIES_PER_BLOCK entries: one tally.
        probe = self.pagecache.probe
        used = directory.entry_blocks[:-(-len(entries) // ENTRIES_PER_BLOCK)]
        hits = probe(self._inode_block(dir_ino)) + sum(map(probe, used))
        if hits:
            self.costs.charge("pagecache_hit", hits)
        if entries:
            self.costs.charge("fs_readdir_entry", len(entries))
        for name, (ino, dtype) in entries:
            yield name, ino, dtype

    def read(self, ino: int, offset: int, length: int) -> bytes:
        inode = self._get(ino)
        self._touch(ino)
        data = inode.data[offset:offset + length]
        first = offset // 4096
        last = max(first, (offset + max(len(data), 1) - 1) // 4096)
        for idx in range(first, last + 1):
            if idx < len(inode.data_blocks):
                self.pagecache.access(inode.data_blocks[idx])
        self.costs.charge("read_write_base", nbytes=len(data))
        return data

    # -- writes ----------------------------------------------------------------

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
        self._touch(ino, for_write=True)
        return len(data)

    def statfs(self) -> base.FsUsage:
        self.costs.charge("fs_lookup_base")
        return base.FsUsage(fstype=self.fstype,
                            total_blocks=self.device.size_blocks,
                            used_blocks=self._allocator.used_count,
                            inode_count=len(self._nodes))

    # -- inode lifetime --------------------------------------------------------

    def iget(self, ino: int) -> None:
        self._nopen[ino] = self._nopen.get(ino, 0) + 1

    def iput(self, ino: int) -> None:
        left = self._nopen.get(ino, 0) - 1
        if left > 0:
            self._nopen[ino] = left
            return
        self._nopen.pop(ino, None)
        inode = self._nodes.get(ino)
        if inode is not None and inode.nlink == 0:
            self._reclaim(inode)

    def _reclaim(self, inode: _Inode) -> None:
        """Final release of a zero-nlink inode: return its blocks and
        number to the free pools (no charge — bitmap updates ride the
        already-charged mutation that dropped the last link)."""
        del self._nodes[inode.ino]
        self._free_blocks(inode.data_blocks)
        self._free_blocks(inode.entry_blocks)
        heappush(self._free_inos, inode.ino)
        if self.on_ino_reclaim is not None:
            self.on_ino_reclaim(inode.ino)

    # -- cache management ------------------------------------------------------

    def drop_caches(self) -> None:
        self.pagecache.drop_caches()
