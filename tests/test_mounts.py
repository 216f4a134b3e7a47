"""Tests for mounts, bind mounts, mount flags, and mount namespaces."""

from __future__ import annotations

import pytest

from repro import O_CREAT, O_RDWR, errors, make_kernel
from repro.core.kernel import PROFILES
from repro.fs.pseudofs import PseudoFs
from repro.fs.tmpfs import TmpFs
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


class TestMountBasics:
    def test_mount_and_cross(self, kernel):
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/mnt")
        tmp = TmpFs(kernel.costs)
        sys.mount_fs(task, tmp, "/mnt")
        fd = sys.open(task, "/mnt/inside", O_CREAT | O_RDWR)
        sys.close(task, fd)
        st = sys.stat(task, "/mnt/inside")
        assert st.fstype == "tmpfs"

    def test_mount_shadows_underlying(self, kernel):
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/mnt")
        fd = sys.open(task, "/mnt/covered", O_CREAT | O_RDWR)
        sys.close(task, fd)
        sys.stat(task, "/mnt/covered")  # cached before the mount
        sys.mount_fs(task, TmpFs(kernel.costs), "/mnt")
        with pytest.raises(errors.ENOENT):
            sys.stat(task, "/mnt/covered")
        sys.umount(task, "/mnt")
        assert sys.stat(task, "/mnt/covered").filetype == "reg"

    def test_mountpoint_stat_reports_mounted_fs(self, kernel):
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/mnt")
        sys.mount_fs(task, TmpFs(kernel.costs), "/mnt")
        assert sys.stat(task, "/mnt").fstype == "tmpfs"

    def test_dotdot_crosses_mount_up(self, kernel):
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/srv")
        fd = sys.open(task, "/marker", O_CREAT | O_RDWR)
        sys.close(task, fd)
        sys.mount_fs(task, TmpFs(kernel.costs), "/srv")
        sys.mkdir(task, "/srv/deep")
        assert sys.stat(task, "/srv/deep/../../marker").filetype == "reg"

    def test_umount_busy_with_submounts(self, kernel):
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/a")
        sys.mount_fs(task, TmpFs(kernel.costs), "/a")
        sys.mkdir(task, "/a/b")
        sys.mount_fs(task, TmpFs(kernel.costs), "/a/b")
        with pytest.raises(errors.EBUSY):
            sys.umount(task, "/a")
        sys.umount(task, "/a/b")
        sys.umount(task, "/a")

    def test_mount_requires_root(self, kernel):
        root = kernel.spawn_task(uid=0, gid=0)
        user = kernel.spawn_task(uid=1000, gid=1000)
        kernel.sys.mkdir(root, "/mnt")
        with pytest.raises(errors.EPERM):
            kernel.sys.mount_fs(user, TmpFs(kernel.costs), "/mnt")

    def test_rename_mountpoint_rejected(self, kernel):
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/mp")
        sys.mount_fs(task, TmpFs(kernel.costs), "/mp")
        with pytest.raises(errors.EBUSY):
            sys.rename(task, "/mp", "/elsewhere")

    def test_readonly_mount(self, kernel):
        from repro.vfs.mount import MNT_RDONLY
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/ro")
        tmp = TmpFs(kernel.costs)
        tmp.create(tmp.root_ino, "existing", 0o644, 0, 0)
        sys.mount_fs(task, tmp, "/ro", flags=frozenset({MNT_RDONLY}))
        with pytest.raises(errors.EROFS):
            sys.open(task, "/ro/new", O_CREAT | O_RDWR)
        with pytest.raises(errors.EROFS):
            sys.chmod(task, "/ro/existing", 0o600)
        with pytest.raises(errors.EROFS):
            sys.unlink(task, "/ro/existing")
        # Reads still work.
        assert sys.stat(task, "/ro/existing").filetype == "reg"


class TestBindMounts:
    def test_bind_alias_sees_same_files(self, kernel):
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/data")
        fd = sys.open(task, "/data/f", O_CREAT | O_RDWR)
        sys.write(task, fd, b"shared")
        sys.close(task, fd)
        sys.mkdir(task, "/alias")
        sys.bind_mount(task, "/data", "/alias")
        st1 = sys.stat(task, "/data/f")
        st2 = sys.stat(task, "/alias/f")
        assert st1.ino == st2.ino

    def test_writes_visible_through_alias(self, kernel):
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/data")
        sys.mkdir(task, "/alias")
        sys.bind_mount(task, "/data", "/alias")
        fd = sys.open(task, "/alias/new", O_CREAT | O_RDWR)
        sys.close(task, fd)
        assert sys.stat(task, "/data/new").filetype == "reg"

    def test_alias_lookup_alternates(self, kernel):
        """§4.3: a dentry lives in the DLHT under one path at a time;
        alternating between aliases must stay correct."""
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/data")
        fd = sys.open(task, "/data/f", O_CREAT | O_RDWR)
        sys.close(task, fd)
        sys.mkdir(task, "/a1")
        sys.mkdir(task, "/a2")
        sys.bind_mount(task, "/data", "/a1")
        sys.bind_mount(task, "/data", "/a2")
        for _ in range(3):
            assert sys.stat(task, "/a1/f").filetype == "reg"
            assert sys.stat(task, "/a2/f").filetype == "reg"
            assert sys.stat(task, "/data/f").filetype == "reg"

    def test_unlink_through_alias(self, kernel):
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/data")
        fd = sys.open(task, "/data/f", O_CREAT | O_RDWR)
        sys.close(task, fd)
        sys.mkdir(task, "/alias")
        sys.bind_mount(task, "/data", "/alias")
        sys.stat(task, "/alias/f")
        sys.unlink(task, "/alias/f")
        with pytest.raises(errors.ENOENT):
            sys.stat(task, "/data/f")


    @pytest.mark.parametrize("profile", PROFILES)
    def test_link_across_bind_mounts_is_exdev(self, profile):
        """Like rename, link compares mounts, not file systems (Linux's
        ``do_linkat``): one file system bound at two places is two
        mounts."""
        kernel = make_kernel(profile)
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/a")
        sys.mkdir(task, "/b")
        sys.close(task, sys.open(task, "/a/f", O_CREAT | O_RDWR))
        sys.bind_mount(task, "/a", "/b")
        with pytest.raises(errors.EXDEV):
            sys.rename(task, "/a/f", "/b/g")
        with pytest.raises(errors.EXDEV):
            sys.link(task, "/a/f", "/b/h")
        assert not sys.exists(task, "/a/h")
        sys.link(task, "/b/f", "/b/h")
        assert sys.stat(task, "/a/h").nlink == 2


class TestMountNamespaces:
    def test_unshare_isolates_mounts(self, kernel):
        sys = kernel.sys
        admin = kernel.spawn_task(uid=0, gid=0)
        sys.mkdir(admin, "/shared")
        isolated = kernel.spawn_task(uid=0, gid=0)
        sys.unshare_mountns(isolated)
        sys.mount_fs(isolated, TmpFs(kernel.costs), "/shared")
        fd = sys.open(isolated, "/shared/private", O_CREAT | O_RDWR)
        sys.close(isolated, fd)
        # The original namespace does not see the private mount.
        with pytest.raises(errors.ENOENT):
            sys.stat(admin, "/shared/private")
        assert sys.stat(isolated, "/shared/private").filetype == "reg"

    def test_same_path_different_dentries_across_ns(self, kernel):
        """§4.3: the same path maps to different dentries per namespace;
        each namespace has its own DLHT so both stay fast and correct."""
        sys = kernel.sys
        admin = kernel.spawn_task(uid=0, gid=0)
        sys.mkdir(admin, "/app")
        fd = sys.open(admin, "/app/config", O_CREAT | O_RDWR)
        sys.write(admin, fd, b"host")
        sys.close(admin, fd)
        jailed = kernel.spawn_task(uid=0, gid=0)
        sys.unshare_mountns(jailed)
        sys.mount_fs(jailed, TmpFs(kernel.costs), "/app")
        fd = sys.open(jailed, "/app/config", O_CREAT | O_RDWR)
        sys.write(jailed, fd, b"jailed!")
        sys.close(jailed, fd)
        for _ in range(2):  # second pass exercises per-ns fastpath
            assert sys.stat(admin, "/app/config").size == 4
            assert sys.stat(jailed, "/app/config").size == 7

    def test_unshare_preserves_cwd(self, kernel):
        sys = kernel.sys
        task = kernel.spawn_task(uid=0, gid=0)
        sys.mkdir(task, "/work")
        sys.chdir(task, "/work")
        sys.unshare_mountns(task)
        assert sys.getcwd(task) == "/work"
        fd = sys.open(task, "relative", O_CREAT | O_RDWR)
        sys.close(task, fd)
        assert sys.stat(task, "/work/relative").filetype == "reg"

    @pytest.mark.parametrize("profile", PROFILES)
    def test_umount_in_a_clone_keeps_the_original_mounted(self, profile):
        """A clone shares the mountpoint dentry: unmounting there must
        leave it a mountpoint for the namespace that still has a mount."""
        kernel = make_kernel(profile)
        sys = kernel.sys
        a = kernel.spawn_task(uid=0, gid=0)
        sys.mkdir(a, "/mnt")
        sys.mount_fs(a, TmpFs(kernel.costs), "/mnt")
        sys.mkdir(a, "/mnt/inner")
        b = kernel.spawn_task(uid=0, gid=0)
        sys.unshare_mountns(b)
        sys.umount(b, "/mnt")
        assert sys.stat(a, "/mnt").fstype == "tmpfs"
        assert sys.stat(a, "/mnt/inner").filetype == "dir"
        with pytest.raises(errors.EBUSY):
            sys.rmdir(a, "/mnt")
        with pytest.raises(errors.ENOENT):
            sys.stat(b, "/mnt/inner")
        sys.umount(a, "/mnt")
        sys.rmdir(a, "/mnt")

    @pytest.mark.parametrize("profile", PROFILES)
    def test_umount_in_a_clone_leaves_the_original_root_on_the_mountpoint(
            self, profile):
        """The mountpoint lists one root per namespace's mount: a clone's
        umount takes its own, and a chmod above the mountpoint still
        reaches the original namespace's cached state inside the mount."""
        kernel = make_kernel(profile)
        sys = kernel.sys
        a = kernel.spawn_task(uid=0, gid=0)
        sys.mkdir(a, "/top", 0o755)
        sys.mkdir(a, "/top/mnt", 0o755)
        mount = sys.mount_fs(a, TmpFs(kernel.costs), "/top/mnt")
        root = mount.root_dentry
        sys.close(a, sys.open(a, "/top/mnt/f", O_CREAT | O_RDWR))
        b = kernel.spawn_task(uid=0, gid=0)
        sys.unshare_mountns(b)
        assert mount.mountpoint.mounted_roots == (root, root)
        sys.umount(b, "/top/mnt")
        assert mount.mountpoint.mounted_roots == (root,)
        user = kernel.spawn_task(uid=1000, gid=1000)
        for _ in range(2):  # the second stat is served from the caches
            assert sys.stat(user, "/top/mnt/f").fstype == "tmpfs"
        sys.chmod(a, "/top", 0o700)
        with pytest.raises(errors.EACCES):
            sys.stat(user, "/top/mnt/f")
        sys.umount(a, "/top/mnt")
        assert mount.mountpoint.mounted_roots == ()

    def test_unshare_requires_root(self, kernel):
        user = kernel.spawn_task(uid=1000, gid=1000)
        with pytest.raises(errors.EPERM):
            kernel.sys.unshare_mountns(user)


class TestPseudoFsMount:
    def test_proc_like_mount(self, kernel):
        sys = kernel.sys
        task = kernel.spawn_task(uid=0, gid=0)
        sys.mkdir(task, "/proc")
        proc = PseudoFs(kernel.costs)
        proc.add_static_file(proc.root_ino, "version", "SimKernel 1.0")
        proc.add_static_file(proc.root_ino, "uptime", "1234.5")
        sys.mount_fs(task, proc, "/proc")
        assert sys.stat(task, "/proc/version").size == len("SimKernel 1.0")
        names = {n for n, _i, _t in sys.listdir(task, "/proc")}
        assert names == {"version", "uptime"}

    def test_pseudo_negative_caching_differs(self):
        """§5.2: baseline skips negative dentries on pseudo FS; the
        optimized kernel caches them — but both return ENOENT."""
        for profile, expect_cached in (("baseline", False),
                                       ("optimized", True)):
            kernel = make_kernel(profile)
            task = kernel.spawn_task(uid=0, gid=0)
            sys = kernel.sys
            sys.mkdir(task, "/proc")
            proc = PseudoFs(kernel.costs)
            sys.mount_fs(task, proc, "/proc")
            for _ in range(3):
                with pytest.raises(errors.ENOENT):
                    sys.stat(task, "/proc/no_such_entry")
            negative_hits = kernel.stats.get("negative_hit")
            if expect_cached:
                assert negative_hits >= 2
            else:
                assert negative_hits == 0

    def test_mount_equivalence_dual(self, dual, root):
        dual.mkdir(root, "/m")
        # Mount distinct-but-identically-driven tmpfs on each kernel.
        for kernel, task in zip(dual.kernels, dual.tasks[root]):
            kernel.sys.mount_fs(task, TmpFs(kernel.costs), "/m")
        _mkfile(dual, root, "/m/f", b"x")
        assert dual.stat(root, "/m/f").size == 1
        dual.rename(root, "/m/f", "/m/g")
        with pytest.raises(errors.ENOENT):
            dual.stat(root, "/m/f")
        with pytest.raises(errors.EXDEV):
            dual.rename(root, "/m/g", "/outside")
