"""Syscall-level tests: open flags, fd I/O, truncate, access, getcwd."""

from __future__ import annotations

import pytest

from repro import (MAY_READ, MAY_WRITE, O_APPEND, O_CREAT,
                   O_DIRECTORY, O_EXCL, O_NOFOLLOW, O_RDONLY, O_RDWR,
                   O_TRUNC, O_WRONLY, errors, make_kernel)
from repro.core.kernel import PROFILES


@pytest.fixture
def task(kernel):
    return kernel.spawn_task(uid=0, gid=0)


def _mkfile(kernel, task, path, content=b""):
    fd = kernel.sys.open(task, path, O_CREAT | O_RDWR)
    if content:
        kernel.sys.write(task, fd, content)
    kernel.sys.close(task, fd)


class TestOpenFlags:
    def test_open_missing_enoent(self, kernel, task):
        with pytest.raises(errors.ENOENT):
            kernel.sys.open(task, "/nothing", O_RDONLY)

    def test_creat_mode_respects_umask(self, kernel, task):
        fd = kernel.sys.open(task, "/f", O_CREAT | O_RDWR, 0o666)
        kernel.sys.close(task, fd)
        assert kernel.sys.stat(task, "/f").mode & 0o777 == 0o644

    def test_excl_on_existing(self, kernel, task):
        _mkfile(kernel, task, "/f")
        with pytest.raises(errors.EEXIST):
            kernel.sys.open(task, "/f", O_CREAT | O_EXCL | O_RDWR)

    def test_creat_existing_opens(self, kernel, task):
        _mkfile(kernel, task, "/f", b"data")
        fd = kernel.sys.open(task, "/f", O_CREAT | O_RDWR)
        assert kernel.sys.read(task, fd, 10) == b"data"
        kernel.sys.close(task, fd)

    def test_trunc_zeroes(self, kernel, task):
        _mkfile(kernel, task, "/f", b"longcontent")
        fd = kernel.sys.open(task, "/f", O_RDWR | O_TRUNC)
        kernel.sys.close(task, fd)
        assert kernel.sys.stat(task, "/f").size == 0

    def test_trunc_readonly_noop(self, kernel, task):
        _mkfile(kernel, task, "/f", b"keep")
        fd = kernel.sys.open(task, "/f", O_RDONLY | O_TRUNC)
        kernel.sys.close(task, fd)
        assert kernel.sys.stat(task, "/f").size == 4

    def test_directory_flag(self, kernel, task):
        _mkfile(kernel, task, "/f")
        with pytest.raises(errors.ENOTDIR):
            kernel.sys.open(task, "/f", O_RDONLY | O_DIRECTORY)

    def test_write_open_on_directory_eisdir(self, kernel, task):
        kernel.sys.mkdir(task, "/d")
        with pytest.raises(errors.EISDIR):
            kernel.sys.open(task, "/d", O_WRONLY)

    def test_nofollow_on_symlink(self, kernel, task):
        _mkfile(kernel, task, "/real")
        kernel.sys.symlink(task, "/real", "/ln")
        with pytest.raises(errors.ELOOP):
            kernel.sys.open(task, "/ln", O_RDONLY | O_NOFOLLOW)
        fd = kernel.sys.open(task, "/ln", O_RDONLY)
        kernel.sys.close(task, fd)

    def test_open_checks_read_permission(self, kernel, task):
        _mkfile(kernel, task, "/secret")
        kernel.sys.chmod(task, "/secret", 0o200)
        user = kernel.spawn_task(uid=1000, gid=1000)
        with pytest.raises(errors.EACCES):
            kernel.sys.open(user, "/secret", O_RDONLY)

    def test_open_checks_write_permission(self, kernel, task):
        _mkfile(kernel, task, "/ro")
        kernel.sys.chmod(task, "/ro", 0o444)
        user = kernel.spawn_task(uid=1000, gid=1000)
        with pytest.raises(errors.EACCES):
            kernel.sys.open(user, "/ro", O_WRONLY)

    def test_create_needs_parent_write(self, kernel, task):
        kernel.sys.mkdir(task, "/locked", 0o555)
        user = kernel.spawn_task(uid=1000, gid=1000)
        with pytest.raises(errors.EACCES):
            kernel.sys.open(user, "/locked/new", O_CREAT | O_RDWR)


class TestFdIo:
    def test_read_write_offsets(self, kernel, task):
        fd = kernel.sys.open(task, "/f", O_CREAT | O_RDWR)
        kernel.sys.write(task, fd, b"hello")
        kernel.sys.lseek(task, fd, 0)
        assert kernel.sys.read(task, fd, 2) == b"he"
        assert kernel.sys.read(task, fd, 10) == b"llo"
        kernel.sys.close(task, fd)

    def test_append_mode(self, kernel, task):
        _mkfile(kernel, task, "/f", b"start")
        fd = kernel.sys.open(task, "/f", O_WRONLY | O_APPEND)
        kernel.sys.write(task, fd, b"+end")
        kernel.sys.close(task, fd)
        fd = kernel.sys.open(task, "/f", O_RDONLY)
        assert kernel.sys.read(task, fd, 100) == b"start+end"
        kernel.sys.close(task, fd)

    def test_read_on_write_only_fd(self, kernel, task):
        fd = kernel.sys.open(task, "/f", O_CREAT | O_WRONLY)
        with pytest.raises(errors.EBADF):
            kernel.sys.read(task, fd, 1)
        kernel.sys.close(task, fd)

    def test_write_on_read_only_fd(self, kernel, task):
        _mkfile(kernel, task, "/f")
        fd = kernel.sys.open(task, "/f", O_RDONLY)
        with pytest.raises(errors.EBADF):
            kernel.sys.write(task, fd, b"x")
        kernel.sys.close(task, fd)

    def test_closed_fd_rejected(self, kernel, task):
        fd = kernel.sys.open(task, "/f", O_CREAT | O_RDWR)
        kernel.sys.close(task, fd)
        with pytest.raises(errors.EBADF):
            kernel.sys.read(task, fd, 1)
        with pytest.raises(errors.EBADF):
            kernel.sys.close(task, fd)

    def test_bogus_fd(self, kernel, task):
        with pytest.raises(errors.EBADF):
            kernel.sys.read(task, 999, 1)

    def test_read_directory_fd_eisdir(self, kernel, task):
        kernel.sys.mkdir(task, "/d")
        fd = kernel.sys.open(task, "/d", O_RDONLY)
        with pytest.raises(errors.EISDIR):
            kernel.sys.read(task, fd, 1)
        kernel.sys.close(task, fd)

    def test_fstat(self, kernel, task):
        _mkfile(kernel, task, "/f", b"12345")
        fd = kernel.sys.open(task, "/f", O_RDONLY)
        st = kernel.sys.fstat(task, fd)
        assert st.size == 5 and st.filetype == "reg"
        kernel.sys.close(task, fd)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_fstat_after_removal_reads_zero_links(self, profile):
        """rmdir refreshes the removed directory's inode as unlink does
        the file's: an fd still open on either reads nlink 0."""
        kernel = make_kernel(profile)
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/d")
        _mkfile(kernel, task, "/f")
        dfd = sys.open(task, "/d", O_RDONLY | O_DIRECTORY)
        ffd = sys.open(task, "/f", O_RDONLY)
        assert (sys.fstat(task, dfd).nlink, sys.fstat(task, ffd).nlink) \
            == (2, 1)
        sys.rmdir(task, "/d")
        sys.unlink(task, "/f")
        assert (sys.fstat(task, dfd).nlink, sys.fstat(task, ffd).nlink) \
            == (0, 0)
        sys.close(task, dfd)
        sys.close(task, ffd)

    def test_ftruncate(self, kernel, task):
        fd = kernel.sys.open(task, "/f", O_CREAT | O_RDWR)
        kernel.sys.write(task, fd, b"0123456789")
        kernel.sys.ftruncate(task, fd, 3)
        assert kernel.sys.fstat(task, fd).size == 3
        kernel.sys.close(task, fd)

    def test_truncate_path(self, kernel, task):
        _mkfile(kernel, task, "/f", b"0123456789")
        kernel.sys.truncate(task, "/f", 4)
        assert kernel.sys.stat(task, "/f").size == 4

    def test_truncate_directory_eisdir(self, kernel, task):
        kernel.sys.mkdir(task, "/d")
        with pytest.raises(errors.EISDIR):
            kernel.sys.truncate(task, "/d", 0)


@pytest.mark.parametrize("profile", PROFILES)
class TestNegativeOffsetsAndSizes:
    """A negative offset, length or size is EINVAL, checked where Linux
    checks it: ``truncate`` / ``ftruncate`` before the path or fd,
    ``lseek`` / ``read`` after the fd check."""

    @staticmethod
    def _hello(profile):
        kernel = make_kernel(profile)
        task = kernel.spawn_task(uid=0, gid=0)
        fd = kernel.sys.open(task, "/f", O_CREAT | O_RDWR)
        kernel.sys.write(task, fd, b"hello")
        return kernel.sys, task, fd

    def test_lseek_negative_offset_keeps_the_offset(self, profile):
        sys, task, fd = self._hello(profile)
        with pytest.raises(errors.EINVAL):
            sys.lseek(task, fd, -2)
        sys.write(task, fd, b"XY")
        sys.lseek(task, fd, 0)
        assert sys.read(task, fd, 100) == b"helloXY"
        with pytest.raises(errors.EBADF):
            sys.lseek(task, 999, -2)

    def test_read_negative_length(self, profile):
        sys, task, fd = self._hello(profile)
        sys.lseek(task, fd, 0)
        with pytest.raises(errors.EINVAL):
            sys.read(task, fd, -1)
        assert sys.read(task, fd, 100) == b"hello"
        wfd = sys.open(task, "/f", O_WRONLY)
        with pytest.raises(errors.EBADF):
            sys.read(task, wfd, -1)
        with pytest.raises(errors.EBADF):
            sys.read(task, 999, -1)

    def test_ftruncate_negative_size_before_the_fd(self, profile):
        sys, task, fd = self._hello(profile)
        with pytest.raises(errors.EINVAL):
            sys.ftruncate(task, fd, -2)
        assert sys.fstat(task, fd).size == 5
        with pytest.raises(errors.EINVAL):
            sys.ftruncate(task, 999, -2)

    def test_truncate_negative_size_before_the_path(self, profile):
        sys, task, fd = self._hello(profile)
        with pytest.raises(errors.EINVAL):
            sys.truncate(task, "/f", -3)
        assert sys.stat(task, "/f").size == 5
        with pytest.raises(errors.EINVAL):
            sys.truncate(task, "/missing", -3)


class TestAccess:
    def test_access_modes(self, kernel, task):
        _mkfile(kernel, task, "/f")
        kernel.sys.chmod(task, "/f", 0o640)
        kernel.sys.chown(task, "/f", uid=1000, gid=50)
        owner = kernel.spawn_task(uid=1000, gid=1)
        kernel.sys.access(owner, "/f", MAY_READ | MAY_WRITE)
        member = kernel.spawn_task(uid=2000, gid=50)
        kernel.sys.access(member, "/f", MAY_READ)
        with pytest.raises(errors.EACCES):
            kernel.sys.access(member, "/f", MAY_WRITE)
        other = kernel.spawn_task(uid=3000, gid=3)
        with pytest.raises(errors.EACCES):
            kernel.sys.access(other, "/f", MAY_READ)

    def test_access_existence_only(self, kernel, task):
        _mkfile(kernel, task, "/f")
        kernel.sys.access(task, "/f", 0)  # F_OK
        with pytest.raises(errors.ENOENT):
            kernel.sys.access(task, "/nope", 0)


class TestCwd:
    def test_getcwd_root(self, kernel, task):
        assert kernel.sys.getcwd(task) == "/"

    def test_getcwd_nested(self, kernel, task):
        kernel.sys.mkdir(task, "/a")
        kernel.sys.mkdir(task, "/a/b")
        kernel.sys.chdir(task, "/a/b")
        assert kernel.sys.getcwd(task) == "/a/b"

    def test_chdir_to_file_enotdir(self, kernel, task):
        _mkfile(kernel, task, "/f")
        with pytest.raises(errors.ENOTDIR):
            kernel.sys.chdir(task, "/f")

    def test_chdir_needs_search(self, kernel, task):
        kernel.sys.mkdir(task, "/locked", 0o600)
        user = kernel.spawn_task(uid=1000, gid=1000)
        with pytest.raises(errors.EACCES):
            kernel.sys.chdir(user, "/locked")

    def test_fchdir(self, kernel, task):
        kernel.sys.mkdir(task, "/w")
        fd = kernel.sys.open(task, "/w", O_RDONLY | O_DIRECTORY)
        kernel.sys.fchdir(task, fd)
        assert kernel.sys.getcwd(task) == "/w"
        kernel.sys.close(task, fd)

    def test_getcwd_after_chroot(self, kernel, task):
        kernel.sys.mkdir(task, "/jail")
        kernel.sys.mkdir(task, "/jail/home")
        kernel.sys.chroot(task, "/jail")
        kernel.sys.chdir(task, "/home")
        assert kernel.sys.getcwd(task) == "/home"


class TestMiscSyscalls:
    def test_exists(self, kernel, task):
        assert kernel.sys.exists(task, "/")
        assert not kernel.sys.exists(task, "/nope")
        _mkfile(kernel, task, "/f")
        assert not kernel.sys.exists(task, "/f/below")  # ENOTDIR → False

    def test_readlink_of_file_einval(self, kernel, task):
        _mkfile(kernel, task, "/f")
        with pytest.raises(errors.EINVAL):
            kernel.sys.readlink(task, "/f")

    def test_unlink_mount_root_ebusy(self, kernel, task):
        with pytest.raises((errors.EBUSY, errors.EISDIR)):
            kernel.sys.unlink(task, "/")

    def test_rename_same_path_noop(self, kernel, task):
        _mkfile(kernel, task, "/f", b"data")
        kernel.sys.rename(task, "/f", "/f")
        assert kernel.sys.stat(task, "/f").size == 4

    def test_chown_requires_root(self, kernel, task):
        _mkfile(kernel, task, "/f")
        user = kernel.spawn_task(uid=1000, gid=1000)
        with pytest.raises(errors.EPERM):
            kernel.sys.chown(user, "/f", uid=1000)

    def test_chroot_requires_root(self, kernel, task):
        kernel.sys.mkdir(task, "/jail")
        user = kernel.spawn_task(uid=1000, gid=1000)
        with pytest.raises(errors.EPERM):
            kernel.sys.chroot(user, "/jail")

    def test_task_exit_releases_fds(self, kernel):
        task = kernel.spawn_task(uid=0, gid=0)
        fd = kernel.sys.open(task, "/f", O_CREAT | O_RDWR)
        dentry = kernel.dcache.root_dentry(kernel.root_fs).children["f"]
        pins = dentry.pin_count
        kernel.exit_task(task)
        assert dentry.pin_count == pins - 1
        assert task.pid not in kernel.tasks

    def test_fork_shares_cred(self, kernel):
        parent = kernel.spawn_task(uid=1000, gid=1000)
        child = kernel.fork_task(parent)
        assert child.cred is parent.cred
        assert child.pid != parent.pid
