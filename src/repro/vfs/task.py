"""Tasks: the process analog driving syscalls.

A task carries the state path resolution depends on: credentials, current
working directory, root (chroot), umask, and the mount namespace.  Tasks
are created by :meth:`repro.core.kernel.Kernel.spawn_task` / ``fork_task``,
ended by ``exit_task``, and passed as the first argument to every syscall.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.vfs.cred import Cred
from repro.vfs.file import FdTable
from repro.vfs.mount import PathPos
from repro.vfs.namespace import MountNamespace

_pids = itertools.count(1)


class Task:
    """One simulated process."""

    __slots__ = ("pid", "cred", "cwd", "root", "umask", "ns", "fds")

    def __init__(self, cred: Cred, root: PathPos, cwd: Optional[PathPos],
                 ns: MountNamespace, umask: int = 0o022):
        self.pid = next(_pids)
        self.cred = cred
        self.root = root
        self.cwd = cwd or root
        self.umask = umask
        self.ns = ns
        self.fds = FdTable()
        self.root.dentry.pin()
        self.cwd.dentry.pin()

    def set_cwd(self, pos: PathPos) -> None:
        pos.dentry.pin()
        self.cwd.dentry.unpin()
        self.cwd = pos

    def set_root(self, pos: PathPos) -> None:
        pos.dentry.pin()
        self.root.dentry.unpin()
        self.root = pos

    def exit(self) -> None:
        self.fds.close_all()
        self.cwd.dentry.unpin()
        self.root.dentry.unpin()

    def __repr__(self) -> str:
        return f"Task(pid={self.pid} {self.cred!r})"
