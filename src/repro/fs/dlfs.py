"""DLFS-like file system: full-path hashing *on disk* (§7 related work).

The Direct Lookup File System [Lensing et al., SYSTOR 2013] organizes the
entire disk as a hash table keyed by path, so any lookup is one I/O — but
"organizing a disk as a hash table introduces some challenges, such as
converting a directory rename into a deep recursive copy of data and
metadata."  The paper's §7 insight is that hashing full paths *in memory*
(the DLHT) keeps the lookup win without that usability cliff.

A path-keyed store is the same tree folded into a map: it obeys the same
POSIX rules and differs only in price.  So this model is
:class:`~repro.fs.tmpfs.TmpFs` plus its costs: one keyed I/O per lookup,
read, write, setattr, entry add, unlink and rmdir, and on rename one
re-keying I/O per object of the moved subtree, so the rename-cost
comparison experiment (exp_dlfs) can quantify the §7 argument.  Hard
links have no place in a path-keyed store and fail with ENOTSUP.
"""

from __future__ import annotations

from typing import Optional

from repro import errors
from repro.fs import base
from repro.fs.base import Node, NodeInfo
from repro.fs.tmpfs import TmpFs
from repro.sim.costs import CostModel

#: Re-keying one on-disk object during a rename: read + write at new key.
REKEY_NS = 24_000.0
#: One hashed-key I/O (the design's selling point: single-I/O lookup).
KEYED_IO_NS = 9_000.0


class DlfsLikeFs(TmpFs):
    """Path-keyed storage: O(1) lookup, O(subtree) rename."""

    fstype = "dlfs-like"
    root_mode = base.S_IFDIR | 0o755

    def __init__(self, costs: CostModel):
        super().__init__(costs)
        #: Objects re-keyed by renames so far.
        self.rekey_count = 0

    def _keyed_io(self) -> None:
        self.costs.charge_ns("dlfs_io", KEYED_IO_NS)

    def _add_entry(self, directory: Node, name: str, node: Node,
                   dtype: str) -> None:
        super()._add_entry(directory, name, node, dtype)
        self._keyed_io()

    def lookup(self, dir_ino: int, name: str) -> Optional[NodeInfo]:
        self._keyed_io()  # the single hashed I/O
        return super().lookup(dir_ino, name)

    def read(self, ino: int, offset: int, length: int) -> bytes:
        self._keyed_io()
        return super().read(ino, offset, length)

    def write(self, ino: int, offset: int, data: bytes) -> int:
        self._keyed_io()
        return super().write(ino, offset, data)

    def setattr(self, ino: int, **attrs) -> NodeInfo:
        self._keyed_io()
        return super().setattr(ino, **attrs)

    def link(self, dir_ino: int, name: str, target_ino: int) -> NodeInfo:
        raise errors.ENOTSUP(message="path-keyed store: no hard links")

    def unlink(self, dir_ino: int, name: str) -> None:
        super().unlink(dir_ino, name)
        self._keyed_io()

    def rmdir(self, dir_ino: int, name: str) -> None:
        super().rmdir(dir_ino, name)
        self._keyed_io()

    def rename(self, old_dir: int, old_name: str, new_dir: int,
               new_name: str) -> None:
        """The §7 cliff: every object of the moved subtree is re-keyed
        on disk."""
        super().rename(old_dir, old_name, new_dir, new_name)
        stack = [self._child(self._get(new_dir), new_name)]
        moved = 0
        while stack:
            node = stack.pop()
            moved += 1
            stack.extend(self._nodes[ino] for ino, _ in node.entries.values())
        self.rekey_count += moved
        self.costs.charge_ns("dlfs_rekey", REKEY_NS * moved)
