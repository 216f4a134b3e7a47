"""Scripted baseline-vs-optimized equivalence scenarios (§4 compatibility).

Every test drives both kernels through the DualKernel oracle, which
asserts identical observable outcomes operation by operation.  These are
the directed scenarios from the paper's compatibility discussion; the
randomized version lives in test_property_equivalence.py.
"""

from __future__ import annotations

import pytest

from repro import O_CREAT, O_DIRECTORY, O_EXCL, O_RDONLY, O_RDWR
from repro import errors
from repro.core.kernel import PROFILES
from repro.testing import DualKernel


@pytest.fixture
def dual():
    return DualKernel()


@pytest.fixture
def root(dual):
    return dual.spawn_task(uid=0, gid=0)


def _mkfile(dual, task, path, content=b""):
    fd = dual.open(task, path, O_CREAT | O_RDWR)
    if content:
        dual.write(task, fd, content)
    dual.close(task, fd)


class TestBasicOperations:
    def test_mkdir_stat(self, dual, root):
        dual.mkdir(root, "/a")
        st = dual.stat(root, "/a")
        assert st.filetype == "dir"
        dual.check_invariants()

    def test_create_write_read(self, dual, root):
        dual.mkdir(root, "/d")
        _mkfile(dual, root, "/d/f", b"hello")
        fd = dual.open(root, "/d/f", O_RDONLY)
        assert dual.read(root, fd, 100) == b"hello"
        dual.close(root, fd)

    def test_stat_enoent(self, dual, root):
        with pytest.raises(errors.ENOENT):
            dual.stat(root, "/missing")
        # Repeat: the optimized kernel answers from a negative dentry.
        with pytest.raises(errors.ENOENT):
            dual.stat(root, "/missing")

    def test_deep_path_repeated_stats(self, dual, root):
        path = "/x"
        dual.mkdir(root, path)
        for name in ["y", "z", "w"]:
            path = f"{path}/{name}"
            dual.mkdir(root, path)
        _mkfile(dual, root, path + "/file")
        for _ in range(3):
            assert dual.stat(root, path + "/file").filetype == "reg"
        dual.check_invariants()

    def test_enotdir_intermediate(self, dual, root):
        _mkfile(dual, root, "/plainfile")
        with pytest.raises(errors.ENOTDIR):
            dual.stat(root, "/plainfile/below")
        with pytest.raises(errors.ENOTDIR):
            dual.stat(root, "/plainfile/below/deeper")
        # The file itself still resolves.
        assert dual.stat(root, "/plainfile").filetype == "reg"

    def test_trailing_slash(self, dual, root):
        dual.mkdir(root, "/dir")
        _mkfile(dual, root, "/file")
        assert dual.stat(root, "/dir/").filetype == "dir"
        with pytest.raises(errors.ENOTDIR):
            dual.stat(root, "/file/")

    def test_unlink_then_recreate(self, dual, root):
        dual.mkdir(root, "/d")
        _mkfile(dual, root, "/d/f", b"one")
        dual.unlink(root, "/d/f")
        with pytest.raises(errors.ENOENT):
            dual.stat(root, "/d/f")
        _mkfile(dual, root, "/d/f", b"two!")
        assert dual.stat(root, "/d/f").size == 4

    def test_exclusive_create(self, dual, root):
        _mkfile(dual, root, "/f")
        with pytest.raises(errors.EEXIST):
            dual.open(root, "/f", O_CREAT | O_EXCL | O_RDWR)


class TestRenameCoherence:
    def test_rename_file(self, dual, root):
        dual.mkdir(root, "/d")
        _mkfile(dual, root, "/d/old", b"data")
        dual.stat(root, "/d/old")  # warm caches
        dual.rename(root, "/d/old", "/d/new")
        with pytest.raises(errors.ENOENT):
            dual.stat(root, "/d/old")
        assert dual.stat(root, "/d/new").size == 4

    def test_rename_directory_invalidates_descendants(self, dual, root):
        dual.mkdir(root, "/src")
        dual.mkdir(root, "/src/sub")
        _mkfile(dual, root, "/src/sub/f", b"x")
        dual.stat(root, "/src/sub/f")  # cached on the fastpath
        dual.rename(root, "/src", "/dst")
        with pytest.raises(errors.ENOENT):
            dual.stat(root, "/src/sub/f")
        assert dual.stat(root, "/dst/sub/f").size == 1
        dual.check_invariants()

    def test_rename_over_existing_file(self, dual, root):
        _mkfile(dual, root, "/a", b"aaa")
        _mkfile(dual, root, "/b", b"bbbb")
        dual.stat(root, "/b")
        dual.rename(root, "/a", "/b")
        assert dual.stat(root, "/b").size == 3
        with pytest.raises(errors.ENOENT):
            dual.stat(root, "/a")

    def test_rename_into_own_subtree(self, dual, root):
        dual.mkdir(root, "/p")
        dual.mkdir(root, "/p/q")
        with pytest.raises(errors.EINVAL):
            dual.rename(root, "/p", "/p/q/r")

    def test_rename_dir_over_nonempty_dir(self, dual, root):
        dual.mkdir(root, "/a")
        dual.mkdir(root, "/b")
        _mkfile(dual, root, "/b/keep")
        with pytest.raises(errors.ENOTEMPTY):
            dual.rename(root, "/a", "/b")

    def test_rename_dir_over_empty_dir(self, dual, root):
        dual.mkdir(root, "/a")
        _mkfile(dual, root, "/a/f")
        dual.mkdir(root, "/b")
        dual.rename(root, "/a", "/b")
        assert dual.stat(root, "/b/f").filetype == "reg"

    def test_rename_file_over_dir_fails(self, dual, root):
        _mkfile(dual, root, "/f")
        dual.mkdir(root, "/d")
        with pytest.raises(errors.EISDIR):
            dual.rename(root, "/f", "/d")


class TestPermissions:
    def test_search_permission_denied(self, dual, root):
        dual.mkdir(root, "/secret", 0o700)
        _mkfile(dual, root, "/secret/f", b"x")
        user = dual.spawn_task(uid=1000, gid=1000)
        with pytest.raises(errors.EACCES):
            dual.stat(user, "/secret/f")
        # Root still passes.
        assert dual.stat(root, "/secret/f").size == 1

    def test_chmod_dir_revokes_cached_prefix(self, dual, root):
        dual.mkdir(root, "/pub", 0o755)
        _mkfile(dual, root, "/pub/f", b"x")
        user = dual.spawn_task(uid=1000, gid=1000)
        assert dual.stat(user, "/pub/f").size == 1  # memoized in PCC
        dual.chmod(root, "/pub", 0o700)
        with pytest.raises(errors.EACCES):
            dual.stat(user, "/pub/f")
        dual.chmod(root, "/pub", 0o755)
        assert dual.stat(user, "/pub/f").size == 1

    def test_chmod_requires_owner(self, dual, root):
        _mkfile(dual, root, "/rootfile")
        user = dual.spawn_task(uid=1000, gid=1000)
        with pytest.raises(errors.EPERM):
            dual.chmod(user, "/rootfile", 0o777)

    def test_group_search_permission(self, dual, root):
        dual.mkdir(root, "/grp", 0o750)
        dual.chown(root, "/grp", uid=0, gid=42)
        _mkfile(dual, root, "/grp/f")
        member = dual.spawn_task(uid=1000, gid=42)
        outsider = dual.spawn_task(uid=1001, gid=7)
        assert dual.stat(member, "/grp/f").filetype == "reg"
        with pytest.raises(errors.EACCES):
            dual.stat(outsider, "/grp/f")

    def test_setuid_transition_changes_view(self, dual, root):
        dual.mkdir(root, "/home", 0o755)
        dual.mkdir(root, "/home/alice", 0o700)
        dual.chown(root, "/home/alice", uid=1000, gid=1000)
        _mkfile(dual, root, "/home/alice/diary", b"secret")
        worker = dual.spawn_task(uid=0, gid=0)
        assert dual.stat(worker, "/home/alice/diary").size == 6
        dual.change_identity(worker, uid=2000, gid=2000)
        with pytest.raises(errors.EACCES):
            dual.stat(worker, "/home/alice/diary")

    def test_sticky_bit_deletion(self, dual, root):
        dual.mkdir(root, "/tmp")
        dual.chmod(root, "/tmp", 0o1777)  # umask would strip o+w
        user_a = dual.spawn_task(uid=1000, gid=1000)
        user_b = dual.spawn_task(uid=1001, gid=1001)
        fd = dual.open(user_a, "/tmp/mine", O_CREAT | O_RDWR)
        dual.close(user_a, fd)
        with pytest.raises(errors.EPERM):
            dual.unlink(user_b, "/tmp/mine")
        dual.unlink(user_a, "/tmp/mine")


class TestSymlinks:
    def test_symlink_basics(self, dual, root):
        dual.mkdir(root, "/x")
        dual.mkdir(root, "/x/y")
        _mkfile(dual, root, "/x/y/f", b"link me")
        dual.symlink(root, "/x/y", "/x/l")
        assert dual.stat(root, "/x/l/f").size == 7
        # Again: the optimized kernel now hits the alias dentry.
        assert dual.stat(root, "/x/l/f").size == 7
        assert dual.lstat(root, "/x/l").filetype == "lnk"
        assert dual.readlink(root, "/x/l") == "/x/y"
        dual.check_invariants()

    def test_relative_symlink(self, dual, root):
        dual.mkdir(root, "/x")
        dual.mkdir(root, "/x/target")
        _mkfile(dual, root, "/x/target/f", b"ok")
        dual.symlink(root, "target", "/x/rel")
        assert dual.stat(root, "/x/rel/f").size == 2
        assert dual.stat(root, "/x/rel/f").size == 2

    def test_dangling_symlink(self, dual, root):
        dual.symlink(root, "/nowhere", "/dead")
        with pytest.raises(errors.ENOENT):
            dual.stat(root, "/dead")
        assert dual.lstat(root, "/dead").filetype == "lnk"

    def test_symlink_loop(self, dual, root):
        dual.symlink(root, "/b", "/a")
        dual.symlink(root, "/a", "/b")
        with pytest.raises(errors.ELOOP):
            dual.stat(root, "/a")

    def test_symlink_chain(self, dual, root):
        _mkfile(dual, root, "/real", b"abc")
        dual.symlink(root, "/real", "/l1")
        dual.symlink(root, "/l1", "/l2")
        assert dual.stat(root, "/l2").size == 3
        assert dual.stat(root, "/l2").size == 3

    def test_final_symlink_followed_repeatedly(self, dual, root):
        dual.mkdir(root, "/data")
        _mkfile(dual, root, "/data/v1", b"1111")
        dual.symlink(root, "/data/v1", "/current")
        for _ in range(3):
            assert dual.stat(root, "/current").size == 4

    def test_symlink_target_replaced(self, dual, root):
        dual.mkdir(root, "/d")
        _mkfile(dual, root, "/d/f", b"old!")
        dual.symlink(root, "/d/f", "/ln")
        assert dual.stat(root, "/ln").size == 4
        dual.unlink(root, "/d/f")
        with pytest.raises(errors.ENOENT):
            dual.stat(root, "/ln")
        _mkfile(dual, root, "/d/f", b"newer")
        assert dual.stat(root, "/ln").size == 5

    def test_unlink_symlink_not_target(self, dual, root):
        _mkfile(dual, root, "/t", b"x")
        dual.symlink(root, "/t", "/l")
        dual.unlink(root, "/l")
        assert dual.stat(root, "/t").size == 1
        with pytest.raises(errors.ENOENT):
            dual.lstat(root, "/l")


class TestDotDot:
    def test_simple_dotdot(self, dual, root):
        dual.mkdir(root, "/a")
        dual.mkdir(root, "/a/b")
        _mkfile(dual, root, "/a/f", b"xy")
        assert dual.stat(root, "/a/b/../f").size == 2
        assert dual.stat(root, "/a/b/../f").size == 2

    def test_dotdot_at_root_clamps(self, dual, root):
        dual.mkdir(root, "/top")
        assert dual.stat(root, "/../../top").filetype == "dir"

    def test_dotdot_through_symlink(self, dual, root):
        """Linux semantics: L/.. is the parent of L's *target*."""
        dual.mkdir(root, "/x")
        dual.mkdir(root, "/y")
        dual.mkdir(root, "/y/inner")
        _mkfile(dual, root, "/y/sibling", b"abc")
        dual.symlink(root, "/y/inner", "/x/link")
        # /x/link/.. == /y (target's parent), NOT /x.
        assert dual.stat(root, "/x/link/../sibling").size == 3

    def test_cwd_relative_dotdot(self, dual, root):
        dual.mkdir(root, "/w")
        dual.mkdir(root, "/w/sub")
        _mkfile(dual, root, "/w/f", b"zz")
        dual.chdir(root, "/w/sub")
        assert dual.stat(root, "../f").size == 2
        assert dual.getcwd(root) == "/w/sub"


class TestCwdAndChroot:
    def test_relative_lookup(self, dual, root):
        dual.mkdir(root, "/work")
        _mkfile(dual, root, "/work/f", b"hello")
        dual.chdir(root, "/work")
        assert dual.stat(root, "f").size == 5
        assert dual.stat(root, "./f").size == 5

    def test_directory_reference_semantics(self, dual, root):
        """§3.2: a task keeps using its cwd after upstream revocation."""
        dual.mkdir(root, "/outer", 0o755)
        dual.mkdir(root, "/outer/inner", 0o755)
        _mkfile(dual, root, "/outer/inner/f", b"keep")
        user = dual.spawn_task(uid=1000, gid=1000)
        dual.chdir(user, "/outer/inner")
        assert dual.stat(user, "f").size == 4
        dual.chmod(root, "/outer", 0o700)  # revoke search upstream
        # Absolute access now fails...
        with pytest.raises(errors.EACCES):
            dual.stat(user, "/outer/inner/f")
        # ...but cwd-relative access keeps working (Unix semantics).
        assert dual.stat(user, "f").size == 4
        # And the relative success must NOT leak into absolute fastpath.
        with pytest.raises(errors.EACCES):
            dual.stat(user, "/outer/inner/f")

    def test_chroot_view(self, dual, root):
        dual.mkdir(root, "/jail")
        dual.mkdir(root, "/jail/etc")
        _mkfile(dual, root, "/jail/etc/conf", b"jailed")
        _mkfile(dual, root, "/hostfile", b"host")
        dual.chroot(root, "/jail")
        assert dual.stat(root, "/etc/conf").size == 6
        with pytest.raises(errors.ENOENT):
            dual.stat(root, "/hostfile")
        # Escaping via .. is clamped at the new root.
        with pytest.raises(errors.ENOENT):
            dual.stat(root, "/../hostfile")


class TestReaddir:
    def test_listing_matches(self, dual, root):
        dual.mkdir(root, "/d")
        for i in range(20):
            _mkfile(dual, root, f"/d/f{i}")
        first = dual.listdir(root, "/d")
        second = dual.listdir(root, "/d")  # optimized: cache-served
        assert sorted(first) == sorted(second)
        assert len(first) == 20

    def test_listing_after_create_and_unlink(self, dual, root):
        dual.mkdir(root, "/d")
        _mkfile(dual, root, "/d/a")
        dual.listdir(root, "/d")
        _mkfile(dual, root, "/d/b")
        dual.unlink(root, "/d/a")
        names = {name for name, _i, _t in dual.listdir(root, "/d")}
        assert names == {"b"}

    def test_stat_after_readdir_uses_stub(self, dual, root):
        dual.mkdir(root, "/d")
        for i in range(5):
            _mkfile(dual, root, f"/d/f{i}", b"abc")
        dual.listdir(root, "/d")
        for i in range(5):
            assert dual.stat(root, f"/d/f{i}").size == 3

    def test_create_in_complete_dir_elides_miss(self, dual, root):
        dual.mkdir(root, "/fresh")
        _mkfile(dual, root, "/fresh/newfile", b"1")
        assert dual.stat(root, "/fresh/newfile").size == 1

    def test_getdents_paging(self, dual, root):
        dual.mkdir(root, "/big")
        for i in range(30):
            _mkfile(dual, root, f"/big/f{i:02d}")
        fd = dual.open(root, "/big", O_RDONLY | O_DIRECTORY)
        seen = []
        while True:
            chunk = dual.getdents(root, fd, 7)
            if not chunk:
                break
            seen.extend(chunk)
        dual.close(root, fd)
        assert len(seen) == 30


class TestHardLinks:
    def test_link_shares_inode(self, dual, root):
        _mkfile(dual, root, "/orig", b"shared")
        dual.link(root, "/orig", "/alias")
        st1 = dual.stat(root, "/orig")
        st2 = dual.stat(root, "/alias")
        assert st1.ino == st2.ino
        assert st1.nlink == 2
        dual.unlink(root, "/orig")
        assert dual.stat(root, "/alias").nlink == 1

    def test_link_to_directory_rejected(self, dual, root):
        dual.mkdir(root, "/d")
        with pytest.raises(errors.EPERM):
            dual.link(root, "/d", "/dlink")


class TestMkstemp:
    def test_mkstemp_deterministic(self, dual, root):
        dual.mkdir(root, "/tmp", 0o1777)
        fd, name = dual.mkstemp(root, "/tmp", prefix="t", rng_seed=7)
        assert name.startswith("t")
        assert dual.stat(root, f"/tmp/{name}").filetype == "reg"

    def test_mkstemp_in_populated_dir(self, dual, root):
        dual.mkdir(root, "/tmp")
        for i in range(50):
            _mkfile(dual, root, f"/tmp/existing{i}")
        dual.listdir(root, "/tmp")  # make it complete on optimized
        fd, name = dual.mkstemp(root, "/tmp", rng_seed=3)
        assert dual.stat(root, f"/tmp/{name}").filetype == "reg"


class TestTaskExit:
    def test_exit_mid_script(self):
        """Exit a task on every kernel while it holds an fd, a cwd and a
        warm PCC entry: its handle then fails alike everywhere, and the
        task left behind still agrees on every operation."""
        dual = DualKernel(tuple(PROFILES.values()))
        root = dual.spawn_task(uid=0, gid=0)
        user = dual.spawn_task(uid=1000, gid=1000)
        dual.mkdir(root, "/home")
        dual.chmod(root, "/home", 0o777)
        dual.mkdir(user, "/home/u")
        _mkfile(dual, user, "/home/u/f", b"data")
        fd = dual.open(user, "/home/u/f", O_RDONLY)
        dual.chdir(user, "/home/u")
        for _ in range(3):
            assert dual.stat(user, "/home/u/f").size == 4
        dual.exit_task(user)
        assert all(len(kernel.tasks) == 1 for kernel in dual.kernels)
        with pytest.raises(errors.EBADF):
            dual.read(user, fd, 4)
        for kernel, task in zip(dual.kernels, dual.tasks[user]):
            with pytest.raises(AttributeError):
                kernel.sys.stat(task, "/home/u/f")
        # The survivor sees the exited task's files, cwd included, and
        # can move and remove them; dropped caches refill alike.
        fd = dual.open(root, "/home/u/f", O_RDONLY)
        assert dual.read(root, fd, 4) == b"data"
        dual.close(root, fd)
        dual.rename(root, "/home/u", "/home/v")
        for kernel in dual.kernels:
            kernel.drop_caches()
        assert dual.stat(root, "/home/v/f").size == 4
        with pytest.raises(errors.ENOENT):
            dual.stat(root, "/home/u/f")
        dual.unlink(root, "/home/v/f")
        dual.rmdir(root, "/home/v")
        assert dual.listdir(root, "/home") == []
        dual.check_invariants()
