"""Tests for the PRF signature scheme and the adaptive PCC extension."""

from __future__ import annotations

import pytest

from repro import O_CREAT, O_RDWR, errors, make_kernel
from repro.core.kernel import BASELINE, OPTIMIZED
from repro.core.pcc import AdaptivePrefixCheckCache
from repro.core.signatures import PathHasher, PrfPathHasher, make_hasher
from repro.sim.costs import CostModel, UNIT
from repro.sim.stats import Stats
from repro.testing import DualKernel
from repro.vfs.dentry import Dentry


class TestPrfHasher:
    def test_resumable(self):
        hasher = PrfPathHasher(3)
        whole = hasher.sign_components(["a", "b", "c"])
        state = hasher.extend(hasher.EMPTY, "a")
        state = hasher.extend_components(state, ["b", "c"])
        assert hasher.finish(state) == whole

    def test_prefix_state_unaffected_by_extension(self):
        """Extending must not mutate the stored prefix state (dentries
        share states)."""
        hasher = PrfPathHasher(3)
        prefix = hasher.extend(hasher.EMPTY, "dir")
        sig_before = hasher.finish(prefix)
        hasher.extend(prefix, "child")
        assert hasher.finish(prefix) == sig_before

    def test_keyed_by_boot_seed(self):
        a = PrfPathHasher(1).sign_components(["etc"])
        b = PrfPathHasher(2).sign_components(["etc"])
        assert a != b

    def test_widths(self):
        hasher = PrfPathHasher(9, signature_bits=240, index_bits=16)
        sig = hasher.sign_components(["x"])
        assert 0 <= hasher.index(sig) < (1 << 16)
        assert 0 <= hasher.bits(sig) < (1 << 240)

    def test_separator_disambiguation(self):
        hasher = PrfPathHasher(5)
        assert hasher.sign_components(["ab", "c"]) != \
            hasher.sign_components(["a", "bc"])

    def test_make_hasher_dispatch(self):
        assert isinstance(make_hasher("universal", 1), PathHasher)
        assert isinstance(make_hasher("prf", 1), PrfPathHasher)
        with pytest.raises(ValueError):
            make_hasher("md5", 1)

    def test_cost_primitive_names(self):
        assert PathHasher(1).cost_primitive == "sig_hash"
        assert PrfPathHasher(1).cost_primitive == "sig_hash_prf"


class TestPrfKernel:
    def test_fastpath_works_with_prf(self):
        kernel = make_kernel("optimized", signature_scheme="prf")
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, "/d")
        fd = kernel.sys.open(task, "/d/f", O_CREAT | O_RDWR)
        kernel.sys.close(task, fd)
        kernel.sys.stat(task, "/d/f")
        kernel.stats.reset()
        kernel.sys.stat(task, "/d/f")
        assert kernel.stats.get("fastpath_hit") == 1

    def test_prf_kernel_equivalent_to_baseline(self):
        dual = DualKernel((BASELINE,
                           OPTIMIZED.variant(signature_scheme="prf")))
        root = dual.spawn_task(uid=0, gid=0)
        dual.mkdir(root, "/a")
        fd = dual.open(root, "/a/f", O_CREAT | O_RDWR)
        dual.close(root, fd)
        dual.stat(root, "/a/f")
        dual.stat(root, "/a/f")
        dual.symlink(root, "/a/f", "/ln")
        dual.stat(root, "/ln")
        dual.rename(root, "/a/f", "/a/g")
        with pytest.raises(errors.ENOENT):
            dual.stat(root, "/a/f")
        assert dual.stat(root, "/a/g").filetype == "reg"
        dual.check_invariants()

    def test_prf_charges_prf_primitive(self):
        kernel = make_kernel("optimized", signature_scheme="prf",
                             costs=CostModel(dict(UNIT)))
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, "/d")
        kernel.sys.stat(task, "/d")
        assert kernel.costs.count("sig_hash_prf") > 0
        assert kernel.costs.count("sig_hash") == 0


class TestAdaptivePcc:
    def _pcc(self, capacity=4, max_capacity=16):
        return AdaptivePrefixCheckCache(CostModel(dict(UNIT)), Stats(),
                                        capacity,
                                        max_capacity=max_capacity)

    def test_grows_under_pressure(self):
        pcc = self._pcc(capacity=4)
        dentries = [Dentry(f"d{i}", None, None) for i in range(32)]
        for _round in range(4):
            for dentry in dentries:
                if not pcc.probe(dentry):
                    pcc.insert(dentry)
        assert pcc.capacity > 4

    def test_respects_max_capacity(self):
        pcc = self._pcc(capacity=4, max_capacity=8)
        dentries = [Dentry(f"d{i}", None, None) for i in range(64)]
        for _round in range(6):
            for dentry in dentries:
                if not pcc.probe(dentry):
                    pcc.insert(dentry)
        assert pcc.capacity == 8

    def test_no_growth_when_fitting(self):
        pcc = self._pcc(capacity=8)
        dentries = [Dentry(f"d{i}", None, None) for i in range(4)]
        for _round in range(10):
            for dentry in dentries:
                if not pcc.probe(dentry):
                    pcc.insert(dentry)
        assert pcc.capacity == 8

    def test_kernel_integration(self):
        kernel = make_kernel("optimized", pcc_capacity=8,
                             pcc_adaptive=True)
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, "/d")
        for i in range(64):
            fd = kernel.sys.open(task, f"/d/f{i}", O_CREAT | O_RDWR)
            kernel.sys.close(task, fd)
        for _round in range(3):
            for i in range(64):
                kernel.sys.stat(task, f"/d/f{i}")
        assert task.cred.pcc.capacity > 8
        assert kernel.stats.get("pcc_grow") > 0

    def test_adaptive_equivalent_to_baseline(self):
        dual = DualKernel((BASELINE,
                           OPTIMIZED.variant(pcc_capacity=4,
                                             pcc_adaptive=True)))
        root = dual.spawn_task(uid=0, gid=0)
        dual.mkdir(root, "/d")
        for i in range(20):
            fd = dual.open(root, f"/d/f{i}", O_CREAT | O_RDWR)
            dual.close(root, fd)
        for _round in range(2):
            for i in range(20):
                dual.stat(root, f"/d/f{i}")
        dual.check_invariants()
