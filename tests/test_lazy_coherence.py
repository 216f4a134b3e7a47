"""Epoch-based lazy invalidation (the ``optimized-lazy`` profile).

The lazy kernel replaces eager recursive shootdowns with O(1) epoch
stamps and touch-time revalidation (docs/coherence.md).  These tests pin
down the three claims that design rests on:

* observational equivalence with the eager optimized kernel — scripted
  scenarios, a seeded random differential, and deterministic concurrent
  schedules;
* staleness is actually caught at touch time — renames, permission
  changes (including above a mount boundary), and symlink aliases;
* stale entries are reclaimed — touch-time eviction for probed paths;
  abandoned ones leave with their dentry, and a dentry registered under
  a new path drops its old key: one DLHT key per dentry, as under the
  eager policy.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import O_CREAT, O_RDWR, OPTIMIZED, OPTIMIZED_LAZY, errors, \
    make_kernel
from repro.fs.tmpfs import TmpFs
from repro.testing import DualKernel
from repro.testing.dual import _check_kernel_invariants, fingerprint
from repro.testing.races import assert_fastpath_consistent
from repro.testing.scheduler import ConcurrentRunner


def _mkfile(kernel, task, path, content=b""):
    fd = kernel.sys.open(task, path, O_CREAT | O_RDWR)
    if content:
        kernel.sys.write(task, fd, content)
    kernel.sys.close(task, fd)


@pytest.fixture
def lazy():
    return make_kernel("optimized-lazy")


class TestLazyBasics:
    def test_rename_invalidates_old_path(self, lazy):
        task = lazy.spawn_task(uid=0, gid=0)
        sys = lazy.sys
        sys.mkdir(task, "/a")
        sys.mkdir(task, "/a/b")
        _mkfile(lazy, task, "/a/b/f")
        for _ in range(3):
            sys.stat(task, "/a/b/f")  # warm DLHT + PCC
        sys.rename(task, "/a/b", "/a/c")
        with pytest.raises(errors.ENOENT):
            sys.stat(task, "/a/b/f")
        assert sys.stat(task, "/a/c/f").filetype == "reg"
        _check_kernel_invariants(lazy)

    def test_chmod_revokes_cached_permission(self, lazy):
        root = lazy.spawn_task(uid=0, gid=0)
        user = lazy.spawn_task(uid=1000, gid=1000)
        sys = lazy.sys
        sys.mkdir(root, "/pub", 0o755)
        _mkfile(lazy, root, "/pub/f")
        for _ in range(3):
            sys.stat(user, "/pub/f")  # memoize the prefix check
        sys.chmod(root, "/pub", 0o700)
        with pytest.raises(errors.EACCES):
            sys.stat(user, "/pub/f")
        sys.chmod(root, "/pub", 0o755)
        assert sys.stat(user, "/pub/f").filetype == "reg"

    def test_mutation_does_not_walk_the_subtree(self, lazy):
        """A rename leaves the stale subtree entries registered (they are
        settled lazily), unlike the eager kernel's recursive shootdown."""
        task = lazy.spawn_task(uid=0, gid=0)
        sys = lazy.sys
        sys.mkdir(task, "/big")
        for i in range(30):
            _mkfile(lazy, task, f"/big/f{i}")
            sys.stat(task, f"/big/f{i}")
        dlht = lazy.root_ns.dlht
        before = len(dlht)
        sys.rename(task, "/big", "/bigger")
        # O(1) mutation: nothing evicted at rename time.
        assert len(dlht) == before
        # Touching one stale path settles just that entry.
        with pytest.raises(errors.ENOENT):
            sys.stat(task, "/big/f0")
        assert lazy.stats.snapshot().get("lazy_evict", 0) >= 1

    def test_renamed_dentry_keeps_one_dlht_key(self, lazy):
        """Old-path keys nobody looks up again do not pile up on a live
        dentry: renaming its parent 200 times, with a lookup under each
        new name, leaves it one key, the one it records."""
        task = lazy.spawn_task(uid=0, gid=0)
        sys = lazy.sys
        sys.mkdir(task, "/a0")
        _mkfile(lazy, task, "/a0/f")
        sys.stat(task, "/a0/f")
        for i in range(1, 201):
            sys.rename(task, f"/a{i - 1}", f"/a{i}")
            sys.stat(task, f"/a{i}/f")
        dlht = lazy.root_ns.dlht
        keys = [key for key, d in dlht.items() if d.name == "f"]
        leaf = dlht.table[keys[0]]
        assert keys == [leaf.fast.dlht_key]
        assert sys.stat(task, "/a200/f").filetype == "reg"
        _check_kernel_invariants(lazy)


class TestLazyMountCrossing:
    def test_chmod_above_mountpoint_stales_inner_prefix(self, lazy):
        root = lazy.spawn_task(uid=0, gid=0)
        user = lazy.spawn_task(uid=1000, gid=1000)
        sys = lazy.sys
        sys.mkdir(root, "/top", 0o755)
        sys.mkdir(root, "/top/mnt", 0o755)
        sys.mount_fs(root, TmpFs(lazy.costs), "/top/mnt")
        sys.mkdir(root, "/top/mnt/d", 0o755)
        _mkfile(lazy, root, "/top/mnt/d/f")
        for _ in range(3):
            sys.stat(user, "/top/mnt/d/f")  # warm across the mount
        # The mutation is outside the mounted fs; the memoized prefix
        # inside it must still go stale.
        sys.chmod(root, "/top", 0o700)
        with pytest.raises(errors.EACCES):
            sys.stat(user, "/top/mnt/d/f")
        sys.chmod(root, "/top", 0o755)
        assert sys.stat(user, "/top/mnt/d/f").filetype == "reg"
        _check_kernel_invariants(lazy)

    def test_rename_above_mountpoint_invalidates_inner_path(self, lazy):
        task = lazy.spawn_task(uid=0, gid=0)
        sys = lazy.sys
        sys.mkdir(task, "/top")
        sys.mkdir(task, "/top/mnt")
        sys.mount_fs(task, TmpFs(lazy.costs), "/top/mnt")
        _mkfile(lazy, task, "/top/mnt/f")
        for _ in range(3):
            sys.stat(task, "/top/mnt/f")
        sys.rename(task, "/top", "/moved")
        with pytest.raises(errors.ENOENT):
            sys.stat(task, "/top/mnt/f")
        assert sys.stat(task, "/moved/mnt/f").filetype == "reg"

    def test_fresh_mount_shadows_cached_mountpoint(self, lazy):
        task = lazy.spawn_task(uid=0, gid=0)
        sys = lazy.sys
        sys.mkdir(task, "/m")
        _mkfile(lazy, task, "/m/old")
        for _ in range(3):
            sys.stat(task, "/m/old")
        sys.mount_fs(task, TmpFs(lazy.costs), "/m")
        # The cached /m/old belongs to the now-shadowed tree.
        with pytest.raises(errors.ENOENT):
            sys.stat(task, "/m/old")
        sys.umount(task, "/m")
        assert sys.stat(task, "/m/old").filetype == "reg"

    def test_bind_mount_path_keeps_memo_invisible(self):
        """A lookup through a bind mount registers the shared dentry
        under a second path, demoting the first path's key; a memoized
        resolution through that key must not replay a hit the real
        lookup no longer makes.  Virtual output with the resolution
        memo on equals its output with the memo off."""
        prints = []
        for memo in (True, False):
            kernel = make_kernel("optimized-lazy", resolution_memo=memo)
            task = kernel.spawn_task(uid=0, gid=0)
            sys = kernel.sys
            for path in ("/x", "/x/d", "/y"):
                sys.mkdir(task, path)
            sys.bind_mount(task, "/x", "/y")
            for path in ("/x/d/new",) * 4 + ("/y/d/new",) * 2 \
                    + ("/x/d/new",) * 4:
                with pytest.raises(errors.ENOENT):
                    sys.stat(task, path)
            prints.append(fingerprint(kernel))
        assert prints[0] == prints[1]


class TestLazySymlinkAliases:
    def test_alias_invalidated_when_target_moves(self, lazy):
        task = lazy.spawn_task(uid=0, gid=0)
        sys = lazy.sys
        sys.mkdir(task, "/real")
        _mkfile(lazy, task, "/real/f", b"x")
        sys.symlink(task, "/real", "/ln")
        for _ in range(3):
            sys.stat(task, "/ln/f")  # warm the alias chain
        sys.rename(task, "/real", "/real2")
        with pytest.raises(errors.ENOENT):
            sys.stat(task, "/ln/f")  # dangling link now
        sys.mkdir(task, "/real")
        _mkfile(lazy, task, "/real/g", b"y")
        assert sys.stat(task, "/ln/g").filetype == "reg"
        with pytest.raises(errors.ENOENT):
            sys.stat(task, "/ln/f")
        _check_kernel_invariants(lazy)

    def test_final_symlink_followed_after_retarget(self, lazy):
        task = lazy.spawn_task(uid=0, gid=0)
        sys = lazy.sys
        sys.mkdir(task, "/d")
        _mkfile(lazy, task, "/d/a", b"a")
        _mkfile(lazy, task, "/d/b", b"b")
        sys.symlink(task, "/d/a", "/cur")
        for _ in range(3):
            assert sys.stat(task, "/cur").size == 1
        sys.unlink(task, "/cur")
        sys.symlink(task, "/d/b", "/cur")
        st = sys.stat(task, "/cur")
        assert st.ino == sys.stat(task, "/d/b").ino


class TestEagerLazyEquivalence:
    """The tentpole's differential harness: eager vs lazy, op by op."""

    @pytest.fixture
    def dual(self):
        return DualKernel(configs=(OPTIMIZED, OPTIMIZED_LAZY))

    def test_scripted_churn_workload(self, dual):
        root = dual.spawn_task(uid=0, gid=0)
        user = dual.spawn_task(uid=1000, gid=1000)
        dual.mkdir(root, "/w", 0o755)
        for i in range(5):
            fd = dual.open(root, f"/w/f{i}", O_CREAT | O_RDWR)
            dual.close(root, fd)
        dual.stat(user, "/w/f0")
        dual.rename(root, "/w/f0", "/w/g0")
        with pytest.raises(errors.ENOENT):
            dual.stat(user, "/w/f0")
        dual.stat(user, "/w/g0")
        dual.symlink(root, "/w/g0", "/w/ln")
        dual.stat(user, "/w/ln")
        dual.chmod(root, "/w", 0o700)
        with pytest.raises(errors.EACCES):
            dual.stat(user, "/w/g0")
        dual.chmod(root, "/w", 0o755)
        dual.rename(root, "/w", "/v")
        with pytest.raises(errors.ENOENT):
            dual.stat(user, "/w/g0")
        dual.stat(user, "/v/g0")
        assert sorted(dual.listdir(root, "/v")) == \
            sorted(dual.call(0, "listdir", "/v"))
        dual.unlink(root, "/v/ln")
        dual.check_invariants()

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_random_churn(self, seed, dual):
        """Random rename/chmod/lookup interleavings, compared op by op."""
        rng = random.Random(seed)
        root = dual.spawn_task(uid=0, gid=0)
        user = dual.spawn_task(uid=1000, gid=1000)
        names = ["a", "b", "c", "d"]
        paths = ["/" + n for n in names] + \
                [f"/{p}/{c}" for p in names for c in names]
        dual.mkdir(root, "/a")
        dual.mkdir(root, "/b")
        outcomes = []
        for _ in range(120):
            op = rng.choice(["rename", "chmod", "stat", "mkdir", "create"])
            task = user if rng.random() < 0.3 else root
            try:
                if op == "rename":
                    dual.rename(root, rng.choice(paths), rng.choice(paths))
                elif op == "chmod":
                    dual.chmod(root, rng.choice(paths),
                               rng.choice([0o755, 0o700, 0o000]))
                elif op == "stat":
                    st = dual.stat(task, rng.choice(paths))
                    outcomes.append(("stat", st.ino, st.mode))
                elif op == "mkdir":
                    dual.mkdir(root, rng.choice(paths))
                else:
                    fd = dual.open(root, rng.choice(paths),
                                   O_CREAT | O_RDWR)
                    dual.close(root, fd)
                outcomes.append(("ok", op))
            except errors.FsError as exc:
                # The DualKernel oracle already asserted both kernels
                # raised the same errno; record it for the history.
                outcomes.append(("err", op, exc.errno))
        assert len(outcomes) >= 120
        dual.check_invariants()


OPS = st.one_of(
    st.tuples(st.just("mkdir"), st.sampled_from(["/a", "/b", "/a/x"])),
    st.tuples(st.just("create"),
              st.sampled_from(["/a/f", "/b/f", "/a/x/f"])),
    st.tuples(st.just("rename"),
              st.sampled_from(["/a", "/b", "/a/x", "/a/f"]),
              st.sampled_from(["/a", "/b", "/a/y", "/b/g"])),
    st.tuples(st.just("chmod"), st.sampled_from(["/a", "/b", "/a/x"]),
              st.sampled_from([0o755, 0o700, 0o000])),
    st.tuples(st.just("stat"),
              st.sampled_from(["/a", "/b", "/a/x", "/a/f", "/a/x/f"])),
    st.tuples(st.just("unlink"), st.sampled_from(["/a/f", "/b/f"])),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=st.lists(st.tuples(OPS, st.booleans()), min_size=1,
                        max_size=30))
def test_random_programs_lazy_equivalent(program):
    """Hypothesis differential: lazy is observationally eager."""
    dual = DualKernel(configs=(OPTIMIZED, OPTIMIZED_LAZY))
    root = dual.spawn_task(uid=0, gid=0)
    user = dual.spawn_task(uid=1000, gid=1000)
    for (op, *args), use_user in program:
        task = user if use_user and op == "stat" else root
        try:
            if op == "create":
                fd = dual.open(task, args[0], O_CREAT | O_RDWR)
                dual.close(task, fd)
            else:
                getattr(dual, op)(task, *args)
        except errors.FsError:
            pass  # both kernels raised identically (oracle-checked)
    dual.check_invariants()


_CACHED_TREE = [("mkdir", "/a"), ("mkdir", "/a/x"), ("create", "/a/f"),
                ("create", "/a/x/f"), ("stat", "/a/f"), ("stat", "/a/x/f")]


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program=st.lists(OPS, min_size=1, max_size=30))
@example(program=[("rename", "/a", "/b"), ("stat", "/b")])
def test_every_dlht_key_is_its_dentrys_one_key(program):
    """After every step, each DLHT key is the key its dentry records:
    a lazy mutation may leave a key stale, never a second one."""
    kernel = make_kernel("optimized-lazy")
    task = kernel.spawn_task(uid=0, gid=0)
    dlht = kernel.root_ns.dlht
    for op, *args in _CACHED_TREE + program:
        try:
            if op == "create":
                _mkfile(kernel, task, args[0])
            else:
                getattr(kernel.sys, op)(task, *args)
        except errors.FsError:
            pass
        for key, dentry in dlht.items():
            assert dentry.fast.dlht is dlht and dentry.fast.dlht_key == key


class TestLazySchedules:
    """Deterministic concurrent interleavings on the lazy kernel."""

    @pytest.mark.parametrize("seed", range(10))
    def test_lookups_race_rename_and_chmod(self, seed):
        kernel = make_kernel("optimized-lazy")
        root = kernel.spawn_task(uid=0, gid=0)
        user = kernel.spawn_task(uid=1000, gid=1000)
        sys = kernel.sys
        sys.mkdir(root, "/a", 0o755)
        sys.mkdir(root, "/a/b", 0o755)
        _mkfile(kernel, root, "/a/b/f", b"data")
        sys.stat(root, "/a/b/f")  # warm

        def stat(task, path):
            def op():
                return sys.stat(task, path)
            return op

        runner = ConcurrentRunner(kernel, seed)
        outcomes = runner.run([
            stat(root, "/a/b/f"),
            stat(user, "/a/b/f"),
            lambda: sys.rename(root, "/a/b", "/a/c"),
            lambda: sys.chmod(root, "/a", 0o700),
        ])
        assert all(kind in ("ok", "err") for kind, _ in outcomes)
        assert_fastpath_consistent(kernel, root,
                                   ["/a/b/f", "/a/c/f", "/a/b", "/a/c"])
        assert_fastpath_consistent(kernel, user,
                                   ["/a/b/f", "/a/c/f"])
        _check_kernel_invariants(kernel)

    @pytest.mark.parametrize("seed", range(10))
    def test_rename_chain_during_lazy_lookups(self, seed):
        kernel = make_kernel("optimized-lazy")
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/d")
        _mkfile(kernel, task, "/d/one", b"1")
        sys.stat(task, "/d/one")

        def stat(path):
            def op():
                return sys.stat(task, path)
            return op

        def shuffle():
            sys.rename(task, "/d/one", "/d/two")
            sys.rename(task, "/d/two", "/d/three")

        runner = ConcurrentRunner(kernel, seed)
        runner.run([
            stat("/d/one"),
            stat("/d/two"),
            stat("/d/three"),
            shuffle,
        ])
        assert_fastpath_consistent(kernel, task,
                                   ["/d/one", "/d/two", "/d/three"])
        _check_kernel_invariants(kernel)
