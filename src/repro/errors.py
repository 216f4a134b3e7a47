"""Errno-carrying exception hierarchy for the simulated VFS.

Every failing system call in :mod:`repro.vfs.syscalls` raises a subclass of
:class:`FsError`.  The classes mirror the POSIX errno values the paper's
kernel returns; tests match on the class, and the equivalence oracle
(optimized kernel vs baseline kernel) matches on ``errno`` numbers.
"""

from __future__ import annotations

import errno


def _rebuild(cls, args, state) -> "FsError":
    """An instance with the given ``args`` and attributes, built without
    ``__init__`` (which would format the message a second time)."""
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(state)
    return exc


class FsError(Exception):
    """Base class for all simulated file system errors.

    Attributes:
        errno: the POSIX errno value (e.g. ``errno.ENOENT``).
        path: the path the failing operation was applied to, if any.
    """

    errno: int = 0

    def __init__(self, path: str = "", message: str = ""):
        self.path = path
        detail = message or errno.errorcode.get(self.errno, "E?")
        super().__init__(f"{detail}: {path!r}" if path else detail)

    def replica(self) -> "FsError":
        """A never-raised copy: same class, ``errno``, ``path`` and
        message; no ``__traceback__``, ``__context__`` or ``__cause__``.
        Raising one instance twice grows its traceback chain, so whoever
        stores an outcome to raise it again raises a replica each time."""
        return _rebuild(type(self), self.args, self.__dict__)

    def __reduce__(self):
        """``copy`` / ``pickle`` round-trip class, ``errno``, ``path``
        and ``str`` (``BaseException``'s default would call ``cls`` with
        the formatted message as ``path``)."""
        return _rebuild, (type(self), self.args, self.__dict__)


class ENOENT(FsError):
    """No such file or directory."""

    errno = errno.ENOENT


class EACCES(FsError):
    """Permission denied (search or access permission missing)."""

    errno = errno.EACCES


class EPERM(FsError):
    """Operation not permitted (ownership/capability failure)."""

    errno = errno.EPERM


class ENOTDIR(FsError):
    """A path component used as a directory is not a directory."""

    errno = errno.ENOTDIR


class EISDIR(FsError):
    """The target is a directory but the operation needs a non-directory."""

    errno = errno.EISDIR


class EEXIST(FsError):
    """Target already exists."""

    errno = errno.EEXIST


class ENOTEMPTY(FsError):
    """Directory not empty (rmdir/rename over a populated directory)."""

    errno = errno.ENOTEMPTY


class EINVAL(FsError):
    """Invalid argument (e.g. rename of a directory into its own subtree)."""

    errno = errno.EINVAL


class ELOOP(FsError):
    """Too many levels of symbolic links."""

    errno = errno.ELOOP


class EROFS(FsError):
    """Read-only file system (mount flag violation)."""

    errno = errno.EROFS


class EXDEV(FsError):
    """Cross-device link or rename."""

    errno = errno.EXDEV


class ENAMETOOLONG(FsError):
    """Path or component exceeds PATH_MAX / NAME_MAX."""

    errno = errno.ENAMETOOLONG


class ENOSPC(FsError):
    """No space left on the simulated device."""

    errno = errno.ENOSPC


class EBADF(FsError):
    """Bad file descriptor."""

    errno = errno.EBADF


class EBUSY(FsError):
    """Resource busy (e.g. unmounting a busy mount, rename over a mountpoint)."""

    errno = errno.EBUSY


class ENOTSUP(FsError):
    """Operation not supported by the low-level file system."""

    errno = errno.ENOTSUP


#: Mapping used by tests and the equivalence oracle to normalize errors.
ERRNO_CLASSES = {
    cls.errno: cls
    for cls in (
        ENOENT,
        EACCES,
        EPERM,
        ENOTDIR,
        EISDIR,
        EEXIST,
        ENOTEMPTY,
        EINVAL,
        ELOOP,
        EROFS,
        EXDEV,
        ENAMETOOLONG,
        ENOSPC,
        EBADF,
        EBUSY,
        ENOTSUP,
    )
}
