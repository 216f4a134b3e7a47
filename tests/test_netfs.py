"""Network file system tests (§4.3: NFS-like vs AFS-like clients)."""

from __future__ import annotations

import pytest

from repro import O_CREAT, O_RDWR, errors, make_kernel
from repro.core.kernel import PROFILES
from repro.fs.netfs import (AfsLikeFs, ExportServer, NfsLikeFs,
                            attach_callback_invalidation)


def _mount_net(kernel, fs_cls, path="/net"):
    task = kernel.spawn_task(uid=0, gid=0)
    server = ExportServer(kernel.costs)
    fs = fs_cls(server)
    kernel.sys.mkdir(task, path)
    kernel.sys.mount_fs(task, fs, path)
    return task, server, fs


class TestNfsLike:
    def test_basic_operations(self, kernel):
        task, _server, _fs = _mount_net(kernel, NfsLikeFs)
        sys = kernel.sys
        sys.mkdir(task, "/net/dir")
        fd = sys.open(task, "/net/dir/f", O_CREAT | O_RDWR)
        sys.write(task, fd, b"over the wire")
        sys.close(task, fd)
        assert sys.stat(task, "/net/dir/f").size == 13

    def test_every_cached_hit_revalidates(self, kernel):
        task, server, _fs = _mount_net(kernel, NfsLikeFs)
        sys = kernel.sys
        fd = sys.open(task, "/net/f", O_CREAT | O_RDWR)
        sys.close(task, fd)
        sys.stat(task, "/net/f")
        rpcs_before = server.rpc_count
        sys.stat(task, "/net/f")  # cached — but must still RPC
        assert server.rpc_count > rpcs_before
        assert kernel.stats.get("revalidate") >= 1

    def test_sees_server_side_changes(self, kernel):
        task, server, fs = _mount_net(kernel, NfsLikeFs)
        sys = kernel.sys
        with pytest.raises(errors.ENOENT):
            sys.stat(task, "/net/appeared")
        server.backing.create(fs.root_ino, "appeared", 0o644, 0, 0)
        # Close-to-open: the next lookup revalidates and finds it.
        assert sys.stat(task, "/net/appeared").filetype == "reg"
        server.backing.unlink(fs.root_ino, "appeared")
        with pytest.raises(errors.ENOENT):
            sys.stat(task, "/net/appeared")

    def test_sees_server_side_attr_changes(self, kernel):
        task, server, fs = _mount_net(kernel, NfsLikeFs)
        sys = kernel.sys
        fd = sys.open(task, "/net/f", O_CREAT | O_RDWR)
        sys.close(task, fd)
        ino = sys.stat(task, "/net/f").ino
        server.backing.setattr(ino, mode=0o600)
        assert sys.stat(task, "/net/f").mode & 0o777 == 0o600

    def test_optimized_never_fastpaths_nfs(self, optimized):
        task, _server, _fs = _mount_net(optimized, NfsLikeFs)
        sys = optimized.sys
        fd = sys.open(task, "/net/f", O_CREAT | O_RDWR)
        sys.close(task, fd)
        for _ in range(3):
            sys.stat(task, "/net/f")
        optimized.stats.reset()
        sys.stat(task, "/net/f")
        assert optimized.stats.get("fastpath_hit") == 0
        # The local prefix (/) is unaffected: local files still fastpath.
        fd = sys.open(task, "/local", O_CREAT | O_RDWR)
        sys.close(task, fd)
        sys.stat(task, "/local")
        optimized.stats.reset()
        sys.stat(task, "/local")
        assert optimized.stats.get("fastpath_hit") == 1

    def test_equivalent_across_kernels(self):
        from repro.core.kernel import BASELINE, OPTIMIZED
        from repro.testing import DualKernel

        dual = DualKernel((BASELINE, OPTIMIZED))
        root = dual.spawn_task(uid=0, gid=0)
        dual.mkdir(root, "/net")
        for kernel, task in zip(dual.kernels, dual.tasks[root]):
            kernel.sys.mount_fs(task, NfsLikeFs(ExportServer(kernel.costs)),
                                "/net")
        fd = dual.open(root, "/net/f", O_CREAT | O_RDWR)
        dual.close(root, fd)
        dual.stat(root, "/net/f")
        dual.stat(root, "/net/f")
        dual.rename(root, "/net/f", "/net/g")
        with pytest.raises(errors.ENOENT):
            dual.stat(root, "/net/f")
        dual.check_invariants()


class TestAfsLike:
    def test_fastpath_works_on_afs(self, optimized):
        task, _server, fs = _mount_net(optimized, AfsLikeFs)
        attach_callback_invalidation(optimized, fs)
        sys = optimized.sys
        fd = sys.open(task, "/net/f", O_CREAT | O_RDWR)
        sys.close(task, fd)
        sys.stat(task, "/net/f")
        optimized.stats.reset()
        sys.stat(task, "/net/f")
        assert optimized.stats.get("fastpath_hit") == 1
        assert optimized.stats.get("revalidate") == 0

    def test_cached_hits_cost_no_rpc(self, optimized):
        task, server, fs = _mount_net(optimized, AfsLikeFs)
        attach_callback_invalidation(optimized, fs)
        sys = optimized.sys
        fd = sys.open(task, "/net/f", O_CREAT | O_RDWR)
        sys.close(task, fd)
        sys.stat(task, "/net/f")
        rpcs = server.rpc_count
        sys.stat(task, "/net/f")
        assert server.rpc_count == rpcs

    def test_callback_break_invalidates(self, optimized):
        task, server, fs = _mount_net(optimized, AfsLikeFs)
        attach_callback_invalidation(optimized, fs)
        sys = optimized.sys
        fd = sys.open(task, "/net/f", O_CREAT | O_RDWR)
        sys.write(task, fd, b"v1")
        sys.close(task, fd)
        assert sys.stat(task, "/net/f").size == 2
        ino = sys.stat(task, "/net/f").ino
        # Another client deletes and recreates the file on the server.
        server.server_unlink(fs.root_ino, "f")
        with pytest.raises(errors.ENOENT):
            sys.stat(task, "/net/f")
        server.server_create(fs.root_ino, "f", b"version2")
        assert sys.stat(task, "/net/f").size == 8
        assert sys.stat(task, "/net/f").ino != ino

    def test_afs_beats_nfs_on_warm_lookups(self):
        """§4.3's expectation: the optimizations benefit a stateful
        protocol; the stateless one pays an RTT per component forever."""
        latencies = {}
        for fs_cls in (NfsLikeFs, AfsLikeFs):
            kernel = make_kernel("optimized")
            task, _server, fs = _mount_net(kernel, fs_cls)
            if fs_cls is AfsLikeFs:
                attach_callback_invalidation(kernel, fs)
            sys = kernel.sys
            sys.mkdir(task, "/net/a")
            fd = sys.open(task, "/net/a/f", O_CREAT | O_RDWR)
            sys.close(task, fd)
            sys.stat(task, "/net/a/f")
            sys.stat(task, "/net/a/f")
            start = kernel.now_ns
            sys.stat(task, "/net/a/f")
            latencies[fs_cls.fstype] = kernel.now_ns - start
        assert latencies["afs-like"] * 50 < latencies["nfs-like"]

    @pytest.mark.parametrize("profile", PROFILES)
    def test_server_chmod_reaches_the_client(self, profile):
        """An attribute callback (empty name) drops the inode's dentries
        and re-reads it: a file chmod shows on the next stat, and a
        directory chmod closes the path below it to other users."""
        kernel = make_kernel(profile)
        task, server, fs = _mount_net(kernel, AfsLikeFs)
        attach_callback_invalidation(kernel, fs)
        sys = kernel.sys
        sys.mkdir(task, "/net/d")
        sys.close(task, sys.open(task, "/net/d/f", O_CREAT | O_RDWR))
        user = kernel.spawn_task(uid=1000, gid=1000)
        for _ in range(3):
            assert sys.stat(user, "/net/d/f").mode & 0o777 == 0o644
        server.server_chmod(sys.stat(task, "/net/d/f").ino, 0o600)
        assert sys.stat(user, "/net/d/f").mode & 0o777 == 0o600
        for _ in range(3):
            sys.stat(user, "/net/d/f")
        server.server_chmod(sys.stat(task, "/net/d").ino, 0o700)
        with pytest.raises(errors.EACCES):
            sys.stat(user, "/net/d/f")
        assert sys.stat(task, "/net/d/f").mode & 0o777 == 0o600
