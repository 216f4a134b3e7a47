"""Buffer cache for file system metadata blocks.

Sits between a file system and its :class:`~repro.fs.disk.BlockDevice`.
A hit charges ``pagecache_hit``; a miss reads a readahead window from the
device.  ``drop_caches`` empties it for cold-cache experiments (Table 2).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.fs.disk import BlockDevice
from repro.sim.costs import CostModel


class PageCache:
    """LRU cache of device block numbers.

    Args:
        costs: cost model for hit charges.
        device: backing device (charged on misses).
        capacity_blocks: cache size; default 256 Ki blocks = 1 GiB.
        readahead: consecutive blocks fetched on a miss.
    """

    def __init__(self, costs: CostModel, device: BlockDevice,
                 capacity_blocks: int = 1 << 18, readahead: int = 16):
        self.costs = costs
        self.device = device
        self.capacity_blocks = capacity_blocks
        self.readahead = readahead
        self._cached: "OrderedDict[int, None]" = OrderedDict()
        self._dirty: set = set()
        self.hits = 0
        self.misses = 0

    def probe(self, block: int, for_write: bool = False) -> int:
        """Touch ``block`` without charging a hit: 1 on a hit, 0 on a miss
        (which charges the device at once).  The cache's one entry
        point: a file system that touches several blocks in one call
        charges ``pagecache_hit`` once for all the hits.

        Writes are journaled asynchronously (ext4-style): a write to a
        cached block only dirties it; writeback happens off the measured
        path (:meth:`writeback`).  A write miss performs the
        read-modify-write block fetch.
        """
        cached = self._cached
        if block in cached:
            cached.move_to_end(block)
            self.hits += 1
            if for_write:
                self._dirty.add(block)
            return 1
        self.misses += 1
        if for_write:
            self.device.read_block(block)
            self._insert(block)
            self._dirty.add(block)
        else:
            self.device.read_run(block, self.readahead)
            for fetched in range(block, min(block + self.readahead,
                                            self.device.size_blocks)):
                self._insert(fetched)
        return 0

    def access(self, block: int, for_write: bool = False) -> bool:
        """:meth:`probe` ``block`` and charge a hit; True on a hit."""
        if self.probe(block, for_write):
            self.costs.charge("pagecache_hit")
            return True
        return False

    def writeback(self) -> int:
        """Flush dirty blocks to the device; returns blocks written."""
        written = 0
        for block in sorted(self._dirty):
            self.device.write_block(block)
            written += 1
        self._dirty.clear()
        return written

    def _insert(self, block: int) -> None:
        self._cached[block] = None
        self._cached.move_to_end(block)
        while len(self._cached) > self.capacity_blocks:
            self._cached.popitem(last=False)

    def contains(self, block: int) -> bool:
        return block in self._cached

    def drop_caches(self) -> None:
        """Flush dirty blocks and empty the cache (cold-cache runs)."""
        self.writeback()
        self._cached.clear()

    def __len__(self) -> int:
        return len(self._cached)
