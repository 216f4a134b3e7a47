"""Unit tests for credentials, DAC permissions, and the LSM framework."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors, make_kernel
from repro.fs.base import S_IFDIR, S_IFLNK, S_IFREG, NodeInfo
from repro.fs.tmpfs import TmpFs
from repro.sim.costs import CostModel, UNIT
from repro.vfs.cred import Cred, commit_creds, prepare_creds
from repro.vfs.inode import Inode
from repro.vfs.lsm import PathPrefixLsm, SELinuxLikeLsm
from repro.vfs.permissions import (MAY_EXEC, MAY_READ, MAY_WRITE,
                                   dac_permission, may_search,
                                   owner_or_root, sticky_delete_allowed)

_FS = TmpFs(CostModel(dict(UNIT)))


def _inode(mode, uid=0, gid=0):
    costs = CostModel(dict(UNIT))
    fs = TmpFs(costs)
    if mode & 0o170000 == 0o040000:
        info = fs.mkdir(fs.root_ino, "x", mode, uid, gid)
    else:
        info = fs.create(fs.root_ino, "x", mode, uid, gid)
    return Inode(fs, info)


class TestDacPermission:
    def test_owner_bits(self):
        inode = _inode(0o600, uid=5)
        assert dac_permission(Cred(5, 5), inode, MAY_READ)
        assert not dac_permission(Cred(6, 5), inode, MAY_READ)

    def test_group_bits(self):
        inode = _inode(0o640, uid=5, gid=7)
        assert dac_permission(Cred(9, 7), inode, MAY_READ)
        assert not dac_permission(Cred(9, 7), inode, MAY_WRITE)

    def test_supplementary_groups(self):
        inode = _inode(0o060, uid=5, gid=7)
        cred = Cred(9, 1, groups=frozenset({7}))
        assert dac_permission(cred, inode, MAY_READ | MAY_WRITE)

    def test_other_bits(self):
        inode = _inode(0o604, uid=5)
        assert dac_permission(Cred(9, 9), inode, MAY_READ)
        assert not dac_permission(Cred(9, 9), inode, MAY_WRITE)

    def test_owner_class_is_exclusive(self):
        # Owner with 0o044: owner class grants nothing even though
        # group/other would.
        inode = _inode(0o044, uid=5)
        assert not dac_permission(Cred(5, 5), inode, MAY_READ)

    def test_root_bypasses_rw(self):
        inode = _inode(0o000, uid=5)
        assert dac_permission(Cred(0, 0), inode, MAY_READ | MAY_WRITE)

    def test_root_search_on_directories(self):
        directory = _inode(0o040000 | 0o000, uid=5)
        assert dac_permission(Cred(0, 0), directory, MAY_EXEC)

    def test_root_exec_on_file_needs_x_bit(self):
        inode = _inode(0o644, uid=5)
        assert not dac_permission(Cred(0, 0), inode, MAY_EXEC)
        exe = _inode(0o755, uid=5)
        assert dac_permission(Cred(0, 0), exe, MAY_EXEC)

    def test_combined_mask(self):
        inode = _inode(0o500, uid=5)
        assert dac_permission(Cred(5, 5), inode, MAY_READ | MAY_EXEC)
        assert not dac_permission(Cred(5, 5), inode,
                                  MAY_READ | MAY_WRITE)

    @settings(max_examples=400, deadline=None)
    @given(ftype=st.sampled_from((S_IFDIR, S_IFREG, S_IFLNK)),
           perm=st.integers(0, 0o7777),
           owner=st.integers(1, 3), group=st.integers(1, 3),
           uid=st.integers(0, 3), gid=st.integers(1, 3),
           groups=st.frozensets(st.integers(1, 3), max_size=2))
    def test_may_search_is_dac_exec(self, ftype, perm, owner, group, uid,
                                    gid, groups):
        """The walk's one-call search check answers exactly what the
        general check does for MAY_EXEC: root or not, and owner, group,
        supplementary-group or other class, on every inode type."""
        target = "t" if ftype == S_IFLNK else None
        inode = Inode(_FS, NodeInfo(2, ftype | perm, owner, group, 1, 0,
                                    target))
        cred = Cred(uid, gid, groups)
        assert may_search(cred, inode) \
            is dac_permission(cred, inode, MAY_EXEC)


class TestOwnershipHelpers:
    def test_owner_or_root(self):
        inode = _inode(0o644, uid=5)
        assert owner_or_root(Cred(5, 1), inode)
        assert owner_or_root(Cred(0, 0), inode)
        assert not owner_or_root(Cred(6, 1), inode)

    def test_sticky_rules(self):
        sticky_dir = _inode(0o040000 | 0o1777, uid=0)
        victim = _inode(0o644, uid=5)
        assert sticky_delete_allowed(Cred(5, 5), sticky_dir, victim)
        assert sticky_delete_allowed(Cred(0, 0), sticky_dir, victim)
        assert not sticky_delete_allowed(Cred(6, 6), sticky_dir, victim)

    def test_non_sticky_allows_all(self):
        plain_dir = _inode(0o040000 | 0o777, uid=0)
        victim = _inode(0o644, uid=5)
        assert sticky_delete_allowed(Cred(6, 6), plain_dir, victim)


class TestCredCow:
    def test_commit_unchanged_reuses(self):
        old = Cred(1000, 1000)
        new = prepare_creds(old)
        assert commit_creds(old, new) is old

    def test_commit_changed_returns_new(self):
        old = Cred(1000, 1000)
        new = prepare_creds(old)
        new.uid = 0
        committed = commit_creds(old, new)
        assert committed is new and committed.uid == 0

    def test_pcc_survives_unchanged_commit(self):
        kernel = make_kernel("optimized")
        task = kernel.spawn_task(uid=1000, gid=1000)
        kernel.sys.mkdir(kernel.spawn_task(0, 0), "/d")
        kernel.sys.stat(task, "/d")
        pcc_before = task.cred.pcc
        assert pcc_before is not None
        kernel.change_identity(task, uid=1000)  # no-op transition
        assert task.cred.pcc is pcc_before

    def test_pcc_reset_on_real_transition(self):
        kernel = make_kernel("optimized")
        task = kernel.spawn_task(uid=1000, gid=1000)
        kernel.sys.stat(task, "/")
        kernel.change_identity(task, uid=2000)
        assert task.cred.pcc is None  # fresh cred, fresh (lazy) PCC

    def test_same_identity_comparison(self):
        assert Cred(1, 2, frozenset({3})).same_identity(
            Cred(1, 2, frozenset({3})))
        assert not Cred(1, 2).same_identity(Cred(1, 2, security="dom"))


class TestSELinuxLikeLsm:
    def _kernel_with_policy(self):
        lsm = SELinuxLikeLsm()
        lsm.allow("webapp", "file_t", "search")
        lsm.allow("webapp", "file_t", "read")
        kernel = make_kernel("optimized", lsm=lsm)
        return kernel, lsm

    def test_unconfined_allowed(self):
        kernel, _lsm = self._kernel_with_policy()
        task = kernel.spawn_task(uid=1000, gid=1000)  # no domain
        kernel.sys.stat(task, "/")

    def test_domain_denied_without_rule(self):
        kernel, _lsm = self._kernel_with_policy()
        root = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(root, "/data")
        kernel.sys.chmod(root, "/data", 0o777)
        confined = kernel.spawn_task(uid=1000, gid=1000,
                                     security="lockedapp")
        with pytest.raises(errors.EACCES):
            kernel.sys.stat(confined, "/data/x")

    def test_domain_allowed_with_rule(self):
        kernel, _lsm = self._kernel_with_policy()
        root = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(root, "/data", 0o755)
        fd = kernel.sys.open(root, "/data/f", 0o100 | 2)  # O_CREAT|O_RDWR
        kernel.sys.close(root, fd)
        kernel.sys.chmod(root, "/data/f", 0o644)
        confined = kernel.spawn_task(uid=1000, gid=1000,
                                     security="webapp")
        assert kernel.sys.stat(confined, "/data/f").filetype == "reg"

    def test_relabel_revokes_memoized_access(self):
        lsm = SELinuxLikeLsm()
        lsm.allow("webapp", "file_t", "search")
        lsm.allow("webapp", "file_t", "read")
        kernel = make_kernel("optimized", lsm=lsm)
        root = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(root, "/srv", 0o755)
        fd = kernel.sys.open(root, "/srv/f", 0o102)
        kernel.sys.close(root, fd)
        kernel.sys.chmod(root, "/srv/f", 0o644)
        confined = kernel.spawn_task(uid=1000, gid=1000,
                                     security="webapp")
        kernel.sys.stat(confined, "/srv/f")  # memoized in PCC
        kernel.sys.relabel(root, "/srv", "secret_t")
        with pytest.raises(errors.EACCES):
            kernel.sys.stat(confined, "/srv/f")

    def test_lsm_identical_on_both_kernels(self):
        from repro.testing import DualKernel
        from repro.core.kernel import BASELINE, OPTIMIZED

        def lsm_factory():
            lsm = SELinuxLikeLsm()
            lsm.allow("app", "file_t", "search")
            return lsm

        dual = DualKernel((BASELINE, OPTIMIZED), lsm_factory=lsm_factory)
        root = dual.spawn_task(uid=0, gid=0)
        confined = dual.spawn_task(uid=1000, gid=1000, security="app")
        dual.mkdir(root, "/a", 0o755)
        dual.mkdir(root, "/a/b", 0o755)
        # search allowed, read not: stat works, listdir denied
        dual.stat(confined, "/a/b")
        with pytest.raises(errors.EACCES):
            dual.listdir(confined, "/a")


class TestPathPrefixLsm:
    def test_denied_subtree(self):
        lsm = PathPrefixLsm()
        lsm.deny("sandbox", "private-zone")
        kernel = make_kernel("optimized", lsm=lsm)
        root = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(root, "/private", 0o755)
        fd = kernel.sys.open(root, "/private/f", 0o102)
        kernel.sys.close(root, fd)
        kernel.sys.relabel(root, "/private", "private-zone")
        confined = kernel.spawn_task(uid=1000, gid=1000,
                                     security="sandbox")
        with pytest.raises(errors.EACCES):
            kernel.sys.stat(confined, "/private/f")
        unconfined = kernel.spawn_task(uid=1000, gid=1000)
        kernel.sys.chmod(root, "/private/f", 0o644)
        assert kernel.sys.stat(unconfined, "/private/f").filetype == "reg"
