"""Dentries: cached (parent, name) -> inode bindings.

A dentry is *positive* (has an inode), *negative* (caches nonexistence,
with a kind distinguishing ENOENT from ENOTDIR deep negatives, §5.2),
a *stub* (created from readdir results with an inode number but no inode
object yet, §5.1), or an *alias* (a symlink-translation child created by
the optimized kernel, §4.2).

The baseline kernel uses only positive/negative dentries; the other kinds
are reachable only when the corresponding :class:`DcacheConfig` features
are enabled, and are invisible to the slow component walk except where the
paper's design says otherwise.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.fs.base import DT_DIR
from repro.vfs.inode import Inode

#: Negative-dentry kinds.
NEG_ENOENT = "enoent"
NEG_ENOTDIR = "enotdir"


class Dentry:
    """One node of the cached directory tree."""

    __slots__ = (
        "name", "parent", "inode", "neg_kind", "stub", "children",
        "pin_count", "dir_complete", "child_evictions", "seq", "epoch",
        "fast", "alias_target", "mounted_roots", "dead",
        "is_negative", "is_stub", "is_alias", "is_dir", "is_symlink",
    )

    def __init__(self, name: str, parent: Optional["Dentry"],
                 inode: Optional[Inode]):
        self.name = name
        self.parent = parent
        self.inode = inode
        #: NEG_ENOENT / NEG_ENOTDIR when this dentry is negative.
        self.neg_kind: Optional[str] = None
        #: (ino, dtype) when created from readdir without an inode (§5.1).
        self.stub: Optional[Tuple[int, str]] = None
        self.children: Dict[str, "Dentry"] = {}
        #: References that forbid eviction (open files, cwd, mounts).
        self.pin_count = 0
        #: §5.1 completeness flag: all children of this directory cached.
        self.dir_complete = False
        #: Bumped when a child is evicted to reclaim space (breaks any
        #: in-progress readdir completeness detection).
        self.child_evictions = 0
        #: Version counter read by PCC entries; bumped by coherence events
        #: and by reallocation so stale prefix checks never validate.
        self.seq = 0
        #: Lazy-coherence mutation stamp: the global epoch at which this
        #: dentry was last the root of a (lazy) shootdown.  Always 0 in
        #: the baseline and eager-optimized kernels.
        self.epoch = 0
        #: Optimized-kernel per-dentry state (repro.core.fastdentry).
        self.fast = None
        #: For alias dentries: the real dentry this path translates to.
        self.alias_target: Optional["Dentry"] = None
        #: Root dentries of the mounts stacked on this dentry, one per
        #: mount in every namespace (clones share dentries, so the same
        #: root can appear once per namespace); empty when nothing is
        #: mounted here.  ``MountNamespace.add_mount`` / ``remove_mount``
        #: keep it.
        self.mounted_roots: Tuple["Dentry", ...] = ()
        #: Set when freed; PCC entries referencing it must not validate.
        self.dead = False
        self.set_kind()

    # -- state predicates ------------------------------------------------------

    def derive_kind(self) -> Tuple[bool, bool, bool, bool, bool]:
        """(is_negative, is_stub, is_alias, is_dir, is_symlink) as they
        follow from ``inode`` / ``stub`` / ``alias_target``.  Negative
        caches nonexistence: stubs and aliases are *not* negative."""
        inode = self.inode
        is_alias = self.alias_target is not None
        if inode is not None:
            return False, False, is_alias, inode.is_dir, inode.is_symlink
        if self.stub is not None:
            return False, True, is_alias, self.stub[1] == DT_DIR, False
        return not is_alias, False, is_alias, False, False

    def set_kind(self) -> None:
        """Store :meth:`derive_kind` in the kind fields, which the walk
        reads per component; call after assigning any of its inputs (an
        inode's type never changes, ``Inode.apply``)."""
        (self.is_negative, self.is_stub, self.is_alias, self.is_dir,
         self.is_symlink) = self.derive_kind()

    # -- pinning -----------------------------------------------------------------

    def pin(self) -> None:
        self.pin_count += 1

    def unpin(self) -> None:
        if self.pin_count <= 0:
            raise RuntimeError(f"unbalanced unpin of {self!r}")
        self.pin_count -= 1

    # -- tree helpers ----------------------------------------------------------------

    def path_from_root(self) -> str:
        """Path within this dentry's superblock (for debugging/tests)."""
        parts = []
        node: Optional[Dentry] = self
        while node is not None and node.parent is not None:
            parts.append(node.name)
            node = node.parent
        return "/" + "/".join(reversed(parts))

    def ancestors(self):
        """Yield parent, grandparent, ... up to the superblock root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def is_ancestor_of(self, other: "Dentry") -> bool:
        return any(anc is self for anc in other.ancestors())

    def descendants(self):
        """Yield every cached descendant (pre-order), excluding self."""
        stack = list(self.children.values())
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def __repr__(self) -> str:
        if self.is_alias:
            state = f"alias->{self.alias_target.path_from_root()}"
        elif self.is_stub:
            state = f"stub{self.stub}"
        elif self.is_negative:
            state = f"neg:{self.neg_kind}"
        else:
            state = repr(self.inode)
        return f"Dentry({self.path_from_root()!r} {state})"
