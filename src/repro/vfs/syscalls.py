"""The syscall facade: the kernel's public, POSIX-flavoured API.

Every path-based call goes through the kernel's pluggable resolver (the
baseline slow walk, or the optimized fastpath engine), then performs the
operation-specific permission checks and — for mutations — the coherence
work the paper's design requires (§3.2): recursive shootdowns before
directory renames and permission changes, negative dentries after
removals, invalidation-counter bumps guarding repopulation.

All operations take the calling :class:`~repro.vfs.task.Task` first and
raise :class:`~repro.errors.FsError` subclasses on failure, so baseline
and optimized kernels can be driven with identical scripts and compared
result-for-result (the equivalence oracle of the test suite).
"""

from __future__ import annotations

import random
from functools import partial
from typing import List, NamedTuple, Optional, Tuple

from repro import errors
from repro.vfs import path as vfspath
from repro.vfs import permissions as perms
from repro.vfs.dentry import Dentry
from repro.vfs.file import (O_ACCMODE, O_APPEND, O_CREAT, O_DIRECTORY,
                            O_EXCL, O_NOFOLLOW, O_RDONLY, O_RDWR, O_TRUNC,
                            O_WRONLY, File)
from repro.vfs.lsm import NullLsm
from repro.vfs.mount import Mount, PathPos
from repro.vfs.task import Task

_TEMP_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

#: A file descriptor an op returns.  Traces read it off the return
#: annotation: each returned fd gets a slot that later calls refer to.
Fd = int


def _is_root(cred, inode) -> bool:
    """chown's rule: only root gives a file away."""
    return cred.is_root


class StatResult(NamedTuple):
    """What ``stat(2)`` reports.

    A NamedTuple rather than a frozen dataclass: construction is one
    C-level call instead of nine ``object.__setattr__`` round-trips,
    and stat/fstat results are built on the simulator's hottest paths.
    Field access, equality, hashing, and repr are unchanged.
    """

    ino: int
    mode: int
    uid: int
    gid: int
    nlink: int
    size: int
    filetype: str
    fstype: str
    #: Virtual-time mtime; excluded from cross-kernel comparisons (the
    #: two kernels' virtual clocks legitimately differ).
    mtime_ns: int = 0


class SyscallBatch:
    """Pinned-task dispatch table: prebound per-op syscall entries.

    Obtained from :meth:`Syscalls.batch`.  ``batch.stat(path)`` is a
    C-level ``partial`` of ``kernel.sys.stat`` over the task, so hot
    loops that drive millions of syscalls (the compiled trace replayer,
    benchmark repetition loops) pay the bound-method fetch and the task
    argument per batch instead of per event.  Nothing else: every entry
    *is* the facade method, so virtual clocks, counts, Stats, error
    types and messages cannot differ from unbatched calls.

    Create one batch per (kernel, task) hot loop and drop it with the
    task.  Entries are cached on first attribute access; a batch is also
    a (stateless) context manager so callers can scope its lifetime.
    """

    def __init__(self, syscalls: "Syscalls", task: Task):
        self._syscalls = syscalls
        self._task = task

    def __enter__(self) -> "SyscallBatch":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def __getattr__(self, op: str):
        if op.startswith("_"):
            raise AttributeError(op)
        entry = partial(getattr(self._syscalls, op), self._task)
        # Cache on the instance: subsequent lookups bypass __getattr__.
        self.__dict__[op] = entry
        return entry

    @property
    def task(self) -> Task:
        return self._task


class Syscalls:
    """POSIX-flavoured entry points bound to one kernel."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.costs = kernel.costs
        self.stats = kernel.stats
        self.dcache = kernel.dcache
        self.config = kernel.config
        self.lsm = kernel.lsm
        # Every syscall's prologue, bound once per kernel: the entry
        # charge.
        charge = self._charge = self.costs.charge
        self._enter = partial(charge, "syscall_fixed")
        # Coherence work after mutations (§3.2); none on the baseline
        # kernel, which caches no prefix checks.
        if kernel.fast is None:
            self._shoot_subtree = self._shoot_single = self._bump_counter \
                = lambda *_args: None
        else:
            coherence = kernel.coherence
            self._shoot_subtree = coherence.shootdown_subtree
            self._shoot_single = coherence.shootdown_single
            self._bump_counter = coherence.bump_counter
        # Resolution memo (None when DcacheConfig.resolution_memo is
        # off): whole-path resolutions are served by charge replay when
        # the memo's O(1) validity check passes.
        self._memo = kernel.memo
        if self._memo is None:
            # ``_resolve`` would only pass its arguments on.
            self._resolve = kernel.resolver.resolve

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------

    def batch(self, task: Task) -> SyscallBatch:
        """Prebound per-op entries with ``task`` pinned (hot-loop form).

        See :class:`SyscallBatch` for the cost-attribution contract:
        virtual charges are identical to unbatched calls.
        """
        return SyscallBatch(self, task)

    def _resolve(self, task: Task, path: str, *, follow_last: bool = True,
                 intent_create: bool = False, create_dir: bool = False,
                 dirfd_pos: Optional[PathPos] = None) -> PathPos:
        memo = self._memo
        if memo is not None and dirfd_pos is None:
            # dirfd-relative starts bypass the memo: the fd's position
            # is not part of the key and fds are too transient to pin.
            return memo.resolve(task, path, follow_last, intent_create,
                                create_dir)
        return self.kernel.resolver.resolve(
            task, path, follow_last=follow_last,
            intent_create=intent_create, create_dir=create_dir,
            dirfd_pos=dirfd_pos)

    def _dirfd_pos(self, task: Task, dirfd: Optional[int]) -> Optional[PathPos]:
        if dirfd is None:
            return None
        return task.fds.get(dirfd).pos

    def _check_perm(self, task: Task, dentry: Dentry, mask: int,
                    path_hint: str = "") -> None:
        inode = dentry.inode
        self.costs.charge("perm_check_dac")
        allowed = perms.dac_permission(task.cred, inode, mask)
        if allowed and not isinstance(self.lsm, NullLsm):
            self.costs.charge("perm_check_lsm")
            allowed = self.lsm.inode_permission(task.cred, inode, mask)
        if not allowed:
            raise errors.EACCES(path_hint)

    def _check_writable_mount(self, pos: PathPos, path_hint: str) -> None:
        if pos.mount.readonly:
            raise errors.EROFS(path_hint)

    def _parent_pos(self, pos: PathPos, path_hint: str) -> PathPos:
        parent = pos.dentry.parent
        if parent is None or pos.dentry is pos.mount.root_dentry:
            raise errors.EBUSY(path_hint, "operation on a mount root")
        return PathPos(pos.mount, parent)

    def _check_dir_write(self, task: Task, parent: PathPos,
                         path_hint: str) -> None:
        self._check_writable_mount(parent, path_hint)
        self._check_perm(task, parent.dentry,
                         perms.MAY_WRITE | perms.MAY_EXEC, path_hint)

    def _check_sticky(self, task: Task, parent: PathPos, victim: Dentry,
                      path_hint: str) -> None:
        if victim.inode is None:
            return
        if not perms.sticky_delete_allowed(task.cred, parent.dentry.inode,
                                           victim.inode):
            raise errors.EPERM(path_hint, "sticky directory")

    def _negative_after_removal(self, parent: Dentry, name: str) -> None:
        from repro.core.negative import negative_after_removal
        negative_after_removal(self.dcache, parent, name)

    def _instantiate(self, task: Task, pos: PathPos, path_hint: str,
                     op: str, *args) -> None:
        """Give the negative dentry at ``pos`` a new object: the
        parent's write check, ``fs.<op>(dir_ino, name, *args)``, and the
        returned inode made positive in place."""
        dentry = pos.dentry
        parent = self._parent_pos(pos, path_hint)
        self._check_dir_write(task, parent, path_hint)
        dir_inode = parent.dentry.inode
        fs = dir_inode.fs
        info = getattr(fs, op)(dir_inode.ino, dentry.name, *args)
        self.dcache.make_positive(dentry,
                                  self.dcache.inode_table(fs).obtain(info))
        self._sync_inode(dir_inode)

    def _remove(self, task: Task, path: str, rmdir: bool) -> None:
        """unlink(2), or rmdir(2) when ``rmdir``: one body for both."""
        self._enter()
        pos = self._resolve(task, path, follow_last=False)
        dentry = pos.dentry
        if dentry.is_dir != rmdir:
            raise (errors.ENOTDIR if rmdir else errors.EISDIR)(path)
        if dentry.mounted_roots or dentry is pos.mount.root_dentry:
            raise errors.EBUSY(path)
        parent = self._parent_pos(pos, path)
        self._check_dir_write(task, parent, path)
        self._check_sticky(task, parent, dentry, path)
        dir_inode = parent.dentry.inode
        if rmdir:
            self._shoot_subtree(dentry)
            dir_inode.fs.rmdir(dir_inode.ino, dentry.name)
        else:
            dir_inode.fs.unlink(dir_inode.ino, dentry.name)
            self._bump_counter()
        self._sync_inode(dentry.inode)
        self._sync_inode(dir_inode)
        if dentry.pin_count > 0:
            # The dentry stays with its open handles; under aggressive
            # negative caching a fresh negative takes over the path (§5.2).
            self.dcache.d_drop(dentry)
            if self.config.aggressive_negative:
                self._negative_after_removal(parent.dentry, dentry.name)
        else:
            self.dcache.make_negative(dentry)

    @staticmethod
    def _resize(inode, size: int) -> None:
        info = inode.fs.setattr(inode.ino, size=size)
        inode.size = info.size
        inode.mtime_ns = info.mtime_ns

    @staticmethod
    def _sync_inode(inode) -> None:
        """Refresh size/nlink mirrors from the FS after a mutation.

        Free of charge: in a real kernel the VFS inode *is* the file
        system's in-memory inode, so these fields are already current.
        """
        try:
            info = inode.fs.peek(inode.ino)
        except errors.FsError:
            # The FS reclaimed the inode (final unlink, no open
            # handles); the in-memory mirror just goes to zero links.
            inode.nlink = 0
            return
        inode.nlink = info.nlink
        inode.size = info.size
        inode.mtime_ns = info.mtime_ns

    # ------------------------------------------------------------------
    # metadata reads
    # ------------------------------------------------------------------

    def _stat_of(self, pos: PathPos) -> StatResult:
        inode = pos.dentry.inode
        if inode is None:
            # The dentry went negative between resolution and use (a
            # concurrent unlink): the call linearizes after the removal.
            raise errors.ENOENT(message="file removed during stat")
        self.costs.charge("stat_fill")
        return StatResult(inode.ino, inode.mode, inode.uid, inode.gid,
                          inode.nlink, inode.size, inode.filetype,
                          inode.fs.fstype, inode.mtime_ns)

    def stat(self, task: Task, path: str) -> StatResult:
        """stat(2): resolve (following symlinks) and report metadata."""
        self._enter()
        pos = self._resolve(task, path, follow_last=True)
        return self._stat_of(pos)

    def lstat(self, task: Task, path: str) -> StatResult:
        """lstat(2): like stat but does not follow a final symlink."""
        self._enter()
        pos = self._resolve(task, path, follow_last=False)
        return self._stat_of(pos)

    def fstatat(self, task: Task, path: str, dirfd: Optional[int] = None,
                follow: bool = True) -> StatResult:
        """fstatat(2): stat relative to an open directory."""
        self._enter()
        pos = self._resolve(task, path, follow_last=follow,
                            dirfd_pos=self._dirfd_pos(task, dirfd))
        return self._stat_of(pos)

    def fstat(self, task: Task, fd: int) -> StatResult:
        self._enter()
        return self._stat_of(task.fds.get(fd).pos)

    def access(self, task: Task, path: str, mask: int) -> None:
        """access(2): raise EACCES unless ``mask`` permissions hold."""
        self._enter()
        pos = self._resolve(task, path, follow_last=True)
        if mask:
            self._check_perm(task, pos.dentry, mask, path)

    def exists(self, task: Task, path: str) -> bool:
        """Convenience: does the path resolve?"""
        try:
            self.stat(task, path)
            return True
        except (errors.ENOENT, errors.ENOTDIR):
            return False

    def readlink(self, task: Task, path: str) -> str:
        self._enter()
        pos = self._resolve(task, path, follow_last=False)
        inode = pos.dentry.inode
        if not inode.is_symlink:
            raise errors.EINVAL(path, "not a symlink")
        return inode.symlink_target or ""

    # ------------------------------------------------------------------
    # open / read / write / close
    # ------------------------------------------------------------------

    def open(self, task: Task, path: str, flags: int = O_RDONLY,
             mode: int = 0o644, dirfd: Optional[int] = None) -> Fd:
        """open(2)/openat(2): returns a file descriptor."""
        self._enter()
        dirfd_pos = self._dirfd_pos(task, dirfd)
        if flags & O_CREAT:
            pos = self._resolve(task, path, follow_last=True,
                                intent_create=True, dirfd_pos=dirfd_pos)
        else:
            pos = self._resolve(task, path,
                                follow_last=not flags & O_NOFOLLOW,
                                dirfd_pos=dirfd_pos)
        dentry = pos.dentry
        created = False
        if flags & O_CREAT and dentry.is_negative:
            self._instantiate(task, pos, path, "create", mode & ~task.umask,
                              task.cred.uid, task.cred.gid)
            created = True
        elif flags & O_CREAT and flags & O_EXCL:
            raise errors.EEXIST(path)
        if dentry.is_symlink and flags & O_NOFOLLOW:
            raise errors.ELOOP(path, "O_NOFOLLOW on a symlink")
        if flags & O_DIRECTORY and not dentry.is_dir:
            raise errors.ENOTDIR(path)
        accmode = flags & O_ACCMODE
        wants_write = accmode in (O_WRONLY, O_RDWR)
        if dentry.is_dir and wants_write:
            raise errors.EISDIR(path)
        if not created:
            if accmode in (O_RDONLY, O_RDWR):
                self._check_perm(task, dentry, perms.MAY_READ, path)
            if wants_write:
                self._check_perm(task, dentry, perms.MAY_WRITE, path)
        if wants_write:
            self._check_writable_mount(pos, path)
        if flags & O_TRUNC and wants_write and not dentry.is_dir:
            self._resize(dentry.inode, 0)
        file = File(pos, flags)
        self.costs.charge("open_install_fd")
        return task.fds.install(file)

    def openat(self, task: Task, dirfd: int, path: str,
               flags: int = O_RDONLY, mode: int = 0o644) -> Fd:
        return self.open(task, path, flags, mode, dirfd=dirfd)

    def close(self, task: Task, fd: int) -> None:
        self._enter()
        self._charge("close_fd")
        task.fds.close(fd)

    def read(self, task: Task, fd: int, length: int) -> bytes:
        self._enter()
        file = task.fds.get(fd)
        if not file.readable:
            raise errors.EBADF(message=f"fd {fd} not readable")
        if length < 0:
            raise errors.EINVAL(message=f"read length {length}")
        inode = file.pos.dentry.inode
        if inode.is_dir:
            raise errors.EISDIR(message="read on a directory fd")
        data = inode.fs.read(inode.ino, file.offset, length)
        file.offset += len(data)
        return data

    def write(self, task: Task, fd: int, data: bytes) -> int:
        self._enter()
        file = task.fds.get(fd)
        if not file.writable:
            raise errors.EBADF(message=f"fd {fd} not writable")
        inode = file.pos.dentry.inode
        if file.flags & O_APPEND:
            file.offset = inode.size
        written = inode.fs.write(inode.ino, file.offset, data)
        file.offset += written
        self._sync_inode(inode)
        return written

    def lseek(self, task: Task, fd: int, offset: int) -> int:
        self._enter()
        file = task.fds.get(fd)
        if offset < 0:
            raise errors.EINVAL(message=f"lseek offset {offset}")
        # Open files are positive, so dir-ness is the inode's cached
        # flag (Dentry.is_dir's stub arm can't apply).
        inode = file.pos.dentry.inode
        if inode is not None and inode.is_dir:
            self.kernel.readdir_engine.seek(file, offset)
        file.offset = offset
        return offset

    def ftruncate(self, task: Task, fd: int, size: int) -> None:
        self._enter()
        if size < 0:  # checked before the fd, as Linux does
            raise errors.EINVAL(message=f"ftruncate size {size}")
        file = task.fds.get(fd)
        if not file.writable:
            raise errors.EBADF(message=f"fd {fd} not writable")
        self._resize(file.pos.dentry.inode, size)

    def truncate(self, task: Task, path: str, size: int) -> None:
        self._enter()
        if size < 0:  # checked before the path, as Linux does
            raise errors.EINVAL(path, f"truncate size {size}")
        pos = self._resolve(task, path, follow_last=True)
        dentry = pos.dentry
        if dentry.is_dir:
            raise errors.EISDIR(path)
        self._check_perm(task, dentry, perms.MAY_WRITE, path)
        self._check_writable_mount(pos, path)
        self._resize(dentry.inode, size)

    # ------------------------------------------------------------------
    # directory listing
    # ------------------------------------------------------------------

    def getdents(self, task: Task, fd: int,
                 count: int = 1024) -> List[Tuple[str, int, str]]:
        """getdents(2): next ``count`` entries; empty list at the end."""
        self._enter()
        file = task.fds.get(fd)
        dentry = file.pos.dentry
        if not dentry.is_dir:
            raise errors.ENOTDIR(message="getdents on a non-directory")
        return self.kernel.readdir_engine.getdents(file, count)

    def readdir(self, task: Task, fd: int) -> List[Tuple[str, int, str]]:
        """Read a whole directory through repeated getdents calls."""
        entries: List[Tuple[str, int, str]] = []
        while True:
            chunk = self.getdents(task, fd)
            if not chunk:
                return entries
            entries.extend(chunk)

    def listdir(self, task: Task, path: str) -> List[Tuple[str, int, str]]:
        """Convenience: open + readdir + close."""
        fd = self.open(task, path, O_RDONLY | O_DIRECTORY)
        try:
            return self.readdir(task, fd)
        finally:
            self.close(task, fd)

    # ------------------------------------------------------------------
    # namespace mutations
    # ------------------------------------------------------------------

    def mkdir(self, task: Task, path: str, mode: int = 0o755,
              dirfd: Optional[int] = None) -> None:
        self._enter()
        pos = self._resolve(task, path, follow_last=False,
                            intent_create=True, create_dir=True,
                            dirfd_pos=self._dirfd_pos(task, dirfd))
        if not pos.dentry.is_negative:
            raise errors.EEXIST(path)
        self._instantiate(task, pos, path, "mkdir", mode & ~task.umask,
                          task.cred.uid, task.cred.gid)
        self.kernel.readdir_engine.mark_new_directory(pos.dentry)

    def rmdir(self, task: Task, path: str) -> None:
        self._remove(task, path, rmdir=True)

    def unlink(self, task: Task, path: str) -> None:
        self._remove(task, path, rmdir=False)

    def rename(self, task: Task, old: str, new: str) -> None:
        self._enter()
        self.costs.charge("rename_fixed")
        oldpos = self._resolve(task, old, follow_last=False)
        moving = oldpos.dentry
        if moving.mounted_roots or moving is oldpos.mount.root_dentry:
            raise errors.EBUSY(old)
        old_parent = self._parent_pos(oldpos, old)
        # Hold a reference across the destination resolution: its
        # intent-create allocation may shrink the LRU, and an evicted
        # source dentry must not be moved into the tree.
        moving.pin()
        try:
            newpos = self._resolve(task, new, follow_last=False,
                                   intent_create=True,
                                   create_dir=moving.is_dir)
        finally:
            moving.unpin()
        victim = newpos.dentry
        if oldpos.mount is not newpos.mount:
            raise errors.EXDEV(new)
        if victim is moving:
            return
        new_parent = self._parent_pos(newpos, new)
        if moving.is_dir and (moving is new_parent.dentry
                              or moving.is_ancestor_of(new_parent.dentry)):
            raise errors.EINVAL(new, "rename into own subtree")
        if not victim.is_negative:
            if victim.mounted_roots:
                raise errors.EBUSY(new)
            if moving.is_dir and not victim.is_dir:
                raise errors.ENOTDIR(new)
            if not moving.is_dir and victim.is_dir:
                raise errors.EISDIR(new)
        self._check_dir_write(task, old_parent, old)
        self._check_dir_write(task, new_parent, new)
        self._check_sticky(task, old_parent, moving, old)
        self._check_sticky(task, new_parent, victim, new)
        fs = oldpos.mount.fs
        old_name = moving.name
        # rename_lock plus per-dentry locks on the old and new parents
        # (§3.2's locking discipline).
        self.costs.charge("dentry_lock", times=2)
        # §3.2: invalidate before the mutation; the counter bump blocks
        # concurrent repopulation, the seq bumps kill stale PCC entries.
        self._shoot_subtree(moving)
        if not victim.is_negative:
            self._shoot_subtree(victim)
        fs.rename(old_parent.dentry.inode.ino, old_name,
                  new_parent.dentry.inode.ino, victim.name)
        self.dcache.d_move(moving, new_parent.dentry, victim.name)
        self._sync_inode(old_parent.dentry.inode)
        self._sync_inode(new_parent.dentry.inode)
        if self.config.aggressive_negative:
            self._negative_after_removal(old_parent.dentry, old_name)

    def link(self, task: Task, existing: str, newpath: str) -> None:
        self._enter()
        oldpos = self._resolve(task, existing, follow_last=False)
        source = oldpos.dentry
        if source.is_dir:
            raise errors.EPERM(existing, "hard link to a directory")
        newpos = self._resolve(task, newpath, follow_last=False,
                               intent_create=True)
        if not newpos.dentry.is_negative:
            raise errors.EEXIST(newpath)
        # Two mounts of one file system are two places (do_linkat).
        if oldpos.mount is not newpos.mount:
            raise errors.EXDEV(newpath)
        self._instantiate(task, newpos, newpath, "link", source.inode.ino)

    def symlink(self, task: Task, target: str, linkpath: str) -> None:
        self._enter()
        pos = self._resolve(task, linkpath, follow_last=False,
                            intent_create=True)
        if not pos.dentry.is_negative:
            raise errors.EEXIST(linkpath)
        self._instantiate(task, pos, linkpath, "symlink", target,
                          task.cred.uid, task.cred.gid)

    # ------------------------------------------------------------------
    # attribute changes
    # ------------------------------------------------------------------

    def chmod(self, task: Task, path: str, mode: int) -> None:
        self._change_attrs(task, path, perms.owner_or_root, "", mode=mode)

    def chown(self, task: Task, path: str, uid: Optional[int] = None,
              gid: Optional[int] = None) -> None:
        self._change_attrs(task, path, _is_root, "chown requires root",
                           uid=uid, gid=gid)

    def _change_attrs(self, task: Task, path: str, allowed, denial: str,
                      **attrs) -> None:
        """chmod(2) / chown(2): ``allowed(cred, inode)`` is the call's
        own permission rule, ``denial`` its EPERM message."""
        self._enter()
        self.costs.charge("chmod_fixed")
        pos = self._resolve(task, path, follow_last=True)
        inode = pos.dentry.inode
        if not allowed(task.cred, inode):
            raise errors.EPERM(path, denial)
        self._check_writable_mount(pos, path)
        # §3.2: a directory's permission change invalidates every cached
        # descendant's prefix checks before the change lands.
        if inode.is_dir:
            self._shoot_subtree(pos.dentry)
        inode.apply(inode.fs.setattr(inode.ino, **attrs))
        # Mode bits and owners gate permission checks inside memoized
        # resolutions, and neither a non-directory change nor an elided
        # shootdown reaches any other flush hook.
        self.costs.forget()

    def relabel(self, task: Task, path: str, label: Optional[str]) -> None:
        """Set the LSM security label on an inode (e.g. SELinux type).

        Directory relabels shoot down cached prefix checks exactly like a
        chmod — the paper's LSM-compatibility requirement (§4.1).  The
        label is persisted as the ``security.label`` xattr where the file
        system supports xattrs.
        """
        self._enter()
        if not task.cred.is_root:
            raise errors.EPERM(path, "relabel requires root")
        pos = self._resolve(task, path, follow_last=True)
        self._apply_label(pos, label, path)
        try:
            if label is None:
                pos.dentry.inode.fs.removexattr(pos.dentry.inode.ino,
                                                "security.label")
            else:
                pos.dentry.inode.fs.setxattr(pos.dentry.inode.ino,
                                             "security.label",
                                             label.encode())
        except (errors.ENOTSUP, errors.ENOENT):
            pass  # label still applies in memory (pseudo file systems)

    def _apply_label(self, pos: PathPos, label: Optional[str],
                     path_hint: str) -> None:
        inode = pos.dentry.inode
        if inode.is_dir:
            self._shoot_subtree(pos.dentry)
        else:
            self._shoot_single(pos.dentry)
        inode.security = label
        inode.seq += 1
        # Single chokepoint for every label-changing path (relabel,
        # setxattr of security.label): labels feed LSM decisions inside
        # memoized resolutions.
        self.costs.forget()

    def utimes(self, task: Task, path: str, mtime_ns: int) -> None:
        """utimes(2)-style explicit mtime update (owner or root)."""
        self._enter()
        pos = self._resolve(task, path, follow_last=True)
        inode = pos.dentry.inode
        if not perms.owner_or_root(task.cred, inode):
            raise errors.EPERM(path)
        self._check_writable_mount(pos, path)
        info = inode.fs.setattr(inode.ino, mtime_ns=mtime_ns)
        inode.mtime_ns = info.mtime_ns

    def statfs(self, task: Task, path: str):
        """statfs(2): aggregate usage of the file system at ``path``."""
        self._enter()
        pos = self._resolve(task, path, follow_last=True)
        return pos.mount.fs.statfs()

    # ------------------------------------------------------------------
    # extended attributes
    # ------------------------------------------------------------------

    def setxattr(self, task: Task, path: str, name: str,
                 value: bytes) -> None:
        """setxattr(2).  ``security.*`` requires root and carries the
        same coherence obligations as a relabel; ``user.*`` requires
        write permission on the file."""
        self._write_xattr(task, path, name, value)

    def removexattr(self, task: Task, path: str, name: str) -> None:
        """removexattr(2), under setxattr's namespace rule."""
        self._write_xattr(task, path, name, None)

    def _write_xattr(self, task: Task, path: str, name: str,
                     value: Optional[bytes]) -> None:
        """Set ``name`` to ``value``, or remove it when ``value`` is
        None."""
        self._enter()
        pos = self._resolve(task, path, follow_last=True)
        inode = pos.dentry.inode
        self._check_writable_mount(pos, path)
        if name.startswith("security."):
            if not task.cred.is_root:
                raise errors.EPERM(path, "security.* xattrs require root")
        elif name.startswith("user."):
            self._check_perm(task, pos.dentry, perms.MAY_WRITE, path)
        else:
            raise errors.ENOTSUP(path, f"unsupported namespace {name!r}")
        if value is None:
            inode.fs.removexattr(inode.ino, name)
        else:
            inode.fs.setxattr(inode.ino, name, value)
        if name == "security.label":
            self._apply_label(pos, None if value is None else value.decode(),
                              path)

    def getxattr(self, task: Task, path: str, name: str) -> bytes:
        self._enter()
        pos = self._resolve(task, path, follow_last=True)
        inode = pos.dentry.inode
        if name.startswith("user."):
            self._check_perm(task, pos.dentry, perms.MAY_READ, path)
        return inode.fs.getxattr(inode.ino, name)

    def listxattr(self, task: Task, path: str) -> List[str]:
        self._enter()
        pos = self._resolve(task, path, follow_last=True)
        inode = pos.dentry.inode
        return inode.fs.listxattr(inode.ino)

    # ------------------------------------------------------------------
    # process state
    # ------------------------------------------------------------------

    def chdir(self, task: Task, path: str) -> None:
        self._enter()
        pos = self._resolve(task, path, follow_last=True)
        if not pos.dentry.is_dir:
            raise errors.ENOTDIR(path)
        self._check_perm(task, pos.dentry, perms.MAY_EXEC, path)
        task.set_cwd(pos)

    def fchdir(self, task: Task, fd: int) -> None:
        self._enter()
        pos = task.fds.get(fd).pos
        if not pos.dentry.is_dir:
            raise errors.ENOTDIR(message="fchdir on a non-directory")
        self._check_perm(task, pos.dentry, perms.MAY_EXEC)
        task.set_cwd(pos)

    def chroot(self, task: Task, path: str) -> None:
        self._enter()
        if not task.cred.is_root:
            raise errors.EPERM(path, "chroot requires root")
        pos = self._resolve(task, path, follow_last=True)
        if not pos.dentry.is_dir:
            raise errors.ENOTDIR(path)
        task.set_root(pos)

    def getcwd(self, task: Task) -> str:
        self._enter()
        names: List[str] = []
        cur = task.cwd
        for _ in range(vfspath.PATH_MAX):
            if cur.same_place(task.root):
                break
            if cur.dentry is cur.mount.root_dentry:
                if cur.mount.parent is None:
                    break
                cur = PathPos(cur.mount.parent, cur.mount.mountpoint)
                continue
            if cur.dentry.parent is None:
                break
            names.append(cur.dentry.name)
            cur = PathPos(cur.mount, cur.dentry.parent)
        return "/" + "/".join(reversed(names))

    # ------------------------------------------------------------------
    # mounts
    # ------------------------------------------------------------------

    def mount_fs(self, task: Task, fs, path: str,
                 flags: frozenset = frozenset()) -> Mount:
        """mount(2): stack ``fs`` over the directory at ``path``."""
        self._enter()
        if not task.cred.is_root:
            raise errors.EPERM(path, "mount requires root")
        pos = self._resolve(task, path, follow_last=True)
        if not pos.dentry.is_dir:
            raise errors.ENOTDIR(path)
        return self._attach(task, pos, fs, None, flags)

    def bind_mount(self, task: Task, src: str, dst: str,
                   flags: frozenset = frozenset()) -> Mount:
        """mount --bind: make the tree at ``src`` visible at ``dst``."""
        self._enter()
        if not task.cred.is_root:
            raise errors.EPERM(dst, "mount requires root")
        srcpos = self._resolve(task, src, follow_last=True)
        dstpos = self._resolve(task, dst, follow_last=True)
        if not srcpos.dentry.is_dir or not dstpos.dentry.is_dir:
            raise errors.ENOTDIR(dst)
        return self._attach(task, dstpos, srcpos.mount.fs, srcpos.dentry,
                            flags)

    def _attach(self, task: Task, pos: PathPos, fs, root: Optional[Dentry],
                flags: frozenset) -> Mount:
        """Stack ``fs``, seen from ``root`` (default: its superblock
        root), over the directory at ``pos``."""
        self._shoot_subtree(pos.dentry)
        if root is None:
            root = self.dcache.root_dentry(fs)
        mount = Mount(fs, root, parent=pos.mount, mountpoint=pos.dentry,
                      flags=flags)
        task.ns.add_mount(mount)
        # Mount table edits redirect memoized resolutions that cross the
        # mountpoint; no dcache hook or counter bump is guaranteed here.
        self.costs.forget()
        return mount

    def umount(self, task: Task, path: str) -> None:
        self._enter()
        if not task.cred.is_root:
            raise errors.EPERM(path, "umount requires root")
        pos = self._resolve(task, path, follow_last=True)
        mount = pos.mount
        if pos.dentry is not mount.root_dentry or mount.parent is None:
            raise errors.EINVAL(path, "not a mount root")
        self._shoot_subtree(mount.root_dentry)
        if mount.mountpoint is not None:
            self._shoot_single(mount.mountpoint)
        task.ns.remove_mount(mount)
        self.costs.forget()

    def unshare_mountns(self, task: Task) -> None:
        """unshare(CLONE_NEWNS): give the task a private mount namespace."""
        self._enter()
        if not task.cred.is_root:
            raise errors.EPERM(message="unshare requires root")
        new_ns = self.kernel.new_namespace_for(task)
        remap = new_ns.clone_map

        def _remap(pos: PathPos) -> PathPos:
            mount = remap.get(pos.mount.id)
            if mount is None:
                mount = new_ns.root_mount
            return PathPos(mount, pos.dentry)

        new_root = _remap(task.root)
        new_cwd = _remap(task.cwd)
        task.ns = new_ns
        task.set_root(new_root)
        task.set_cwd(new_cwd)

    # ------------------------------------------------------------------
    # mkstemp
    # ------------------------------------------------------------------

    def mkstemp(self, task: Task, dir_path: str, prefix: str = "tmp",
                rng: Optional[random.Random] = None) -> Tuple[Fd, str]:
        """Securely create a uniquely named temporary file (§5.1).

        Repeatedly generates random names and attempts O_CREAT|O_EXCL —
        the pattern whose compulsory misses directory completeness
        elides.  Returns (fd, name).
        """
        self._enter()
        rng = rng or random.Random(0xF11E)
        for _attempt in range(100):
            name = prefix + "".join(rng.choice(_TEMP_CHARS)
                                    for _ in range(6))
            candidate = vfspath.join(dir_path, name)
            try:
                fd = self.open(task, candidate,
                               O_CREAT | O_EXCL | O_RDWR, 0o600)
            except errors.EEXIST:
                continue
            return fd, name
        raise errors.EEXIST(dir_path, "mkstemp exhausted attempts")
