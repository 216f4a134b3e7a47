"""Directory completeness caching (§5.1).

A directory dentry whose *entire* contents are cached is flagged
``DIR_COMPLETE``.  The flag is set when a directory is freshly created
(``mkdir``) or when a full ``readdir`` sequence finishes with no
intervening ``lseek`` and no child evicted to reclaim space.  While set:

* ``readdir`` is served straight from the dentry's child list;
* a primary-table miss under the directory is a proven ENOENT — no
  low-level FS call (this also elides the compulsory miss of secure
  temp-file creation, the Figure 9 ``mkstemp`` experiment);
* entries learned from ``readdir`` become inodeless *stub* dentries that
  later lookups link with a real inode via ``getattr`` (cheaper than a
  name search).

Interleaved creations and deletions do *not* clear the flag — they update
the cache in step — only child eviction does (handled in
:meth:`repro.vfs.dcache.Dcache.evict`).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.sim.costs import CostModel
from repro.sim.stats import Stats
from repro.vfs.dcache import Dcache
from repro.vfs.dentry import Dentry
from repro.vfs.file import File
from repro.vfs.mount import PathPos


class ReaddirEngine:
    """Implements getdents paging with optional completeness caching."""

    def __init__(self, costs: CostModel, stats: Stats, dcache: Dcache,
                 config):
        self.costs = costs
        self.stats = stats
        self.dcache = dcache
        self.config = config

    # -- sequence start ------------------------------------------------------

    def _cached_listing(self, dentry: Dentry) -> List[Tuple[str, int, str]]:
        """Serve a complete directory from its child dentries."""
        children = dentry.children
        if children:
            self.costs.charge("cached_readdir_entry", len(children))
        entries = []
        for child in children.values():
            if child.inode is not None:
                entries.append((child.name, child.inode.ino,
                                child.inode.filetype))
            elif child.stub is not None:
                entries.append((child.name, child.stub[0], child.stub[1]))
            # true negatives and aliases are not directory contents
        return entries

    def _fs_listing(self, pos: PathPos) -> List[Tuple[str, int, str]]:
        """Read the directory from the low-level FS, caching stubs."""
        dentry = pos.dentry
        fs = dentry.inode.fs
        entries = list(fs.readdir(dentry.inode.ino))
        if self.config.dir_complete and fs.supports_completeness:
            self.dcache.d_alloc_stubs(dentry, entries)
        return entries

    def begin_sequence(self, file: File) -> None:
        """Capture the listing snapshot for a getdents sequence."""
        dentry = file.pos.dentry
        file.dir_evictions_at_start = dentry.child_evictions
        self.costs.charge("readdir_fixed")
        if self.config.dir_complete and dentry.dir_complete:
            self.stats.bump("readdir_cached")
            file.dir_snapshot = self._cached_listing(dentry)
        else:
            self.stats.bump("readdir_fs")
            file.dir_snapshot = self._fs_listing(file.pos)
        file.dir_offset = 0

    # -- paging ------------------------------------------------------------------

    def getdents(self, file: File, count: int) -> List[Tuple[str, int, str]]:
        """Return up to ``count`` entries; empty list means end."""
        if file.dir_snapshot is None:
            self.begin_sequence(file)
        assert file.dir_snapshot is not None
        chunk = file.dir_snapshot[file.dir_offset:file.dir_offset + count]
        file.dir_offset += len(chunk)
        if not chunk:
            self._sequence_complete(file)
        return chunk

    def _sequence_complete(self, file: File) -> None:
        """A full sequence finished; maybe set DIR_COMPLETE (§5.1)."""
        dentry = file.pos.dentry
        if not self.config.dir_complete:
            return
        if dentry.dir_complete or dentry.is_negative:
            return
        if not dentry.inode.fs.supports_completeness:
            return
        if file.dir_seeked:
            return
        if dentry.child_evictions != file.dir_evictions_at_start:
            return
        dentry.dir_complete = True
        self.stats.bump("dir_complete_set")

    def rewind(self, file: File) -> None:
        """lseek(fd, 0): restart the sequence from scratch."""
        file.dir_snapshot = None
        file.dir_offset = 0
        file.dir_seeked = False

    def seek(self, file: File, offset: int) -> None:
        """lseek to a nonzero offset: disqualifies completeness proof."""
        if offset == 0:
            self.rewind(file)
            return
        file.dir_seeked = True
        if file.dir_snapshot is not None:
            file.dir_offset = min(offset, len(file.dir_snapshot))
        else:
            file.dir_offset = offset

    # -- creation-side flag management ----------------------------------------------

    def mark_new_directory(self, dentry: Dentry) -> None:
        """mkdir: a brand-new directory is trivially complete."""
        if not self.config.dir_complete:
            return
        if not dentry.inode.fs.supports_completeness:
            return
        dentry.dir_complete = True
        self.stats.bump("dir_complete_set")
