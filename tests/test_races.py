"""Adversarial lookup-vs-mutation interleavings (§3.2's protocol).

Each test sweeps the mutation's firing point across every hook boundary
of a victim lookup, then asserts (a) the victim observed a linearizable
outcome and (b) no stale state survived in the fastpath structures —
:func:`repro.testing.races.assert_fastpath_consistent` compares every
probe path's fastpath answer against a non-populating slowpath walk.
"""

from __future__ import annotations

import errno

import pytest

from repro import O_CREAT, O_RDWR, make_kernel
from repro.testing.races import (assert_fastpath_consistent, run_race)


def _mkfile(kernel, task, path, content=b""):
    fd = kernel.sys.open(task, path, O_CREAT | O_RDWR)
    if content:
        kernel.sys.write(task, fd, content)
    kernel.sys.close(task, fd)


def _sweep(make_env, probe_paths, max_points=24):
    """Run the race at every firing point until the walk runs dry."""
    fired_any = False
    for fire_at in range(max_points):
        kernel, task, victim, mutation = make_env()
        kind, payload, fired = run_race(kernel, victim, mutation, fire_at)
        if not fired:
            break
        fired_any = True
        assert kind in ("ok", "err"), payload
        assert_fastpath_consistent(kernel, task, probe_paths)
    assert fired_any, "mutation never fired; no race was exercised"


class TestRenameRaces:
    def test_lookup_races_directory_rename(self):
        def make_env():
            kernel = make_kernel("optimized")
            task = kernel.spawn_task(uid=0, gid=0)
            sys = kernel.sys
            sys.mkdir(task, "/a")
            sys.mkdir(task, "/a/b")
            _mkfile(kernel, task, "/a/b/f", b"data")
            kernel.drop_caches()  # force the victim onto the slowpath

            def victim():
                return sys.stat(task, "/a/b/f")

            def mutation():
                sys.rename(task, "/a", "/z")

            return kernel, task, victim, mutation

        _sweep(make_env, ["/a/b/f", "/z/b/f", "/a", "/z"])

    def test_lookup_races_file_rename(self):
        def make_env():
            kernel = make_kernel("optimized")
            task = kernel.spawn_task(uid=0, gid=0)
            sys = kernel.sys
            sys.mkdir(task, "/d")
            _mkfile(kernel, task, "/d/old", b"x")
            kernel.drop_caches()

            def victim():
                return sys.stat(task, "/d/old")

            def mutation():
                sys.rename(task, "/d/old", "/d/new")

            return kernel, task, victim, mutation

        _sweep(make_env, ["/d/old", "/d/new"])

    def test_rename_over_victims_target(self):
        def make_env():
            kernel = make_kernel("optimized")
            task = kernel.spawn_task(uid=0, gid=0)
            sys = kernel.sys
            sys.mkdir(task, "/d")
            _mkfile(kernel, task, "/d/target", b"old")
            _mkfile(kernel, task, "/d/incoming", b"new!")
            kernel.drop_caches()

            def victim():
                return sys.stat(task, "/d/target")

            def mutation():
                sys.rename(task, "/d/incoming", "/d/target")

            return kernel, task, victim, mutation

        _sweep(make_env, ["/d/target", "/d/incoming"])


class TestPermissionRaces:
    def test_lookup_races_chmod(self):
        def make_env():
            kernel = make_kernel("optimized")
            root = kernel.spawn_task(uid=0, gid=0)
            sys = kernel.sys
            sys.mkdir(root, "/pub", 0o755)
            _mkfile(kernel, root, "/pub/f", b"x")
            user = kernel.spawn_task(uid=1000, gid=1000)
            kernel.drop_caches()

            def victim():
                return sys.stat(user, "/pub/f")

            def mutation():
                sys.chmod(root, "/pub", 0o700)

            return kernel, user, victim, mutation

        # Note: ground truth is evaluated *after* the mutation, so both
        # cached answers must equal the post-chmod EACCES truth.
        _sweep(make_env, ["/pub/f"])

    def test_lookup_races_relabel(self):
        from repro.vfs.lsm import PathPrefixLsm

        def make_env():
            lsm = PathPrefixLsm()
            lsm.deny("sandbox", "blocked")
            kernel = make_kernel("optimized", lsm=lsm)
            root = kernel.spawn_task(uid=0, gid=0)
            sys = kernel.sys
            sys.mkdir(root, "/zone", 0o755)
            _mkfile(kernel, root, "/zone/f", b"x")
            confined = kernel.spawn_task(uid=1000, gid=1000,
                                         security="sandbox")
            kernel.drop_caches()

            def victim():
                return sys.stat(confined, "/zone/f")

            def mutation():
                sys.relabel(root, "/zone", "blocked")

            return kernel, confined, victim, mutation

        _sweep(make_env, ["/zone/f"])


class TestExistenceRaces:
    def test_lookup_races_unlink(self):
        def make_env():
            kernel = make_kernel("optimized")
            task = kernel.spawn_task(uid=0, gid=0)
            sys = kernel.sys
            sys.mkdir(task, "/d")
            _mkfile(kernel, task, "/d/f", b"x")
            kernel.drop_caches()

            def victim():
                return sys.stat(task, "/d/f")

            def mutation():
                sys.unlink(task, "/d/f")

            return kernel, task, victim, mutation

        _sweep(make_env, ["/d/f"])

    def test_negative_lookup_races_creation(self):
        def make_env():
            kernel = make_kernel("optimized")
            task = kernel.spawn_task(uid=0, gid=0)
            sys = kernel.sys
            sys.mkdir(task, "/d")
            kernel.drop_caches()

            def victim():
                return sys.stat(task, "/d/newfile")

            def mutation():
                _mkfile(kernel, task, "/d/newfile", b"born")

            return kernel, task, victim, mutation

        _sweep(make_env, ["/d/newfile"])

    def test_symlink_lookup_races_target_swap(self):
        def make_env():
            kernel = make_kernel("optimized")
            task = kernel.spawn_task(uid=0, gid=0)
            sys = kernel.sys
            sys.mkdir(task, "/v")
            _mkfile(kernel, task, "/v/one", b"1")
            _mkfile(kernel, task, "/v/two", b"22")
            sys.symlink(task, "/v/one", "/current")
            kernel.drop_caches()

            def victim():
                return sys.stat(task, "/current")

            def mutation():
                sys.unlink(task, "/current")
                sys.symlink(task, "/v/two", "/current")

            return kernel, task, victim, mutation

        _sweep(make_env, ["/current", "/v/one", "/v/two"])


class TestMountRaces:
    def test_lookup_races_mount(self):
        from repro.fs.tmpfs import TmpFs

        def make_env():
            kernel = make_kernel("optimized")
            task = kernel.spawn_task(uid=0, gid=0)
            sys = kernel.sys
            sys.mkdir(task, "/mnt")
            _mkfile(kernel, task, "/mnt/under", b"below")
            kernel.drop_caches()

            def victim():
                return sys.stat(task, "/mnt/under")

            def mutation():
                sys.mount_fs(task, TmpFs(kernel.costs), "/mnt")

            return kernel, task, victim, mutation

        _sweep(make_env, ["/mnt/under", "/mnt"])


def _assert_dlht_keys_canonical(kernel, task):
    """Every live DLHT entry's key is the signature of its dentry's
    canonical path (the tree has no mounts, so that is the path from
    the file system root)."""
    hasher = kernel.hasher
    for key, dentry in task.ns.dlht.table.items():
        if dentry.dead:
            continue
        names = [name for name in dentry.path_from_root().split("/") if name]
        assert key == hasher.sign_components(names), dentry.path_from_root()


class TestHandedOverStates:
    def test_rename_at_begin_of_relative_fallback(self, monkeypatch):
        """A failed attempt that hashed the whole path hands the walk its
        per-component states; the walk may use them only while its
        anchor hashes to the attempt's start state.  A rename of a cwd
        ancestor fired at ``begin`` moves the anchor, so the walk hashes
        afresh and registers each dentry under its new path."""
        kernel = make_kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        for path in ("/a", "/a/b", "/a/b/c"):
            sys.mkdir(task, path)
        _mkfile(kernel, task, "/a/b/c/f", b"data")
        sys.chdir(task, "/a/b")
        sys.stat(task, "c/f")
        sys.stat(task, "c/f")
        # Registered, but no prefix check: the attempt hashes "c/f",
        # hits, and falls back.
        task.cred.pcc.invalidate_all()
        handed = []
        begin = kernel.fast.begin

        def recording_begin(task, start, absolute, prehashed=0):
            handed.append(prehashed)
            return begin(task, start, absolute, prehashed)
        monkeypatch.setattr(kernel.fast, "begin", recording_begin)
        kind, payload, fired = run_race(
            kernel, lambda: sys.stat(task, "c/f"),
            lambda: sys.rename(task, "/a", "/z"), fire_at=0)
        assert fired and kind == "ok", payload
        # The victim's walk begins last (the rename's own walks ran
        # inside its first hook) and was handed two states.
        assert len(handed[-1][1]) == 2
        _assert_dlht_keys_canonical(kernel, task)
        assert_fastpath_consistent(
            kernel, task, ["c/f", "c", "/z/b/c/f", "/a/b/c/f", "/z/b"])
        _assert_dlht_keys_canonical(kernel, task)


class TestInjectorMechanics:
    def test_unfired_when_point_beyond_walk(self):
        kernel = make_kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        _mkfile(kernel, task, "/f")
        kernel.drop_caches()
        kind, _payload, fired = run_race(
            kernel, lambda: kernel.sys.stat(task, "/f"),
            lambda: None, fire_at=1000)
        assert kind == "ok" and not fired

    def test_denied_victim_walk_is_abandoned(self):
        """A victim walk that dies of EACCES still reaches the inner
        hooks' ``abandon``, so no walk stays counted as in flight."""
        kernel = make_kernel("optimized")
        root = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(root, "/a")
        _mkfile(kernel, root, "/a/f")
        kernel.sys.chmod(root, "/a", 0o700)
        user = kernel.spawn_task(uid=1000, gid=1000)
        outcome = run_race(kernel, lambda: kernel.sys.stat(user, "/a/f"),
                           lambda: None, fire_at=0)
        assert outcome == ("err", errno.EACCES, True)
        assert kernel.coherence.walks_active == 0

    def test_requires_optimized_kernel(self):
        from repro.testing.races import RaceInjector
        with pytest.raises(ValueError):
            RaceInjector(make_kernel("baseline"), lambda: None, 0)
