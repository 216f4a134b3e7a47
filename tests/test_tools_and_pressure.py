"""Tests for the inspection tooling and cache-pressure equivalence."""

from __future__ import annotations

import gc
import re
import tracemalloc

import pytest

from repro import O_CREAT, O_RDWR, errors, make_kernel
from repro.core.kernel import BASELINE, OPTIMIZED, PROFILES
from repro.sim.memory import measure_kernel
from repro.testing import DualKernel
from repro.tools import (dcache_tree, dlht_summary, kernel_summary,
                         pcc_summary)


class TestInspect:
    def _kernel(self):
        kernel = make_kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, "/etc")
        fd = kernel.sys.open(task, "/etc/conf", O_CREAT | O_RDWR)
        kernel.sys.close(task, fd)
        kernel.sys.symlink(task, "/etc/conf", "/ln")
        kernel.sys.stat(task, "/ln")
        try:
            kernel.sys.stat(task, "/ghost")
        except errors.ENOENT:
            pass
        return kernel

    def test_tree_renders_flags(self):
        tree = dcache_tree(self._kernel())
        assert "etc" in tree and "COMPLETE" in tree
        assert "NEG:enoent" in tree
        assert "DLHT" in tree

    def test_dlht_summary(self):
        text = dlht_summary(self._kernel())
        assert "DLHT[0]:" in text and "entries" in text

    def test_pcc_summary(self):
        text = pcc_summary(self._kernel())
        assert "/4096" in text

    def test_baseline_summaries(self):
        kernel = make_kernel("baseline")
        assert "baseline" in dlht_summary(kernel)
        assert "baseline" in pcc_summary(kernel)

    def test_kernel_summary_fields(self):
        text = kernel_summary(self._kernel())
        assert "kernel profile: optimized" in text
        assert "virtual time:" in text
        assert "counters:" in text
        memo = re.search(r"^memo: +(\d+) entries, (\d+) hits, (\d+) misses, "
                         r"(\d+) stale, (\d+) recorded$", text, re.M)
        assert memo and int(memo[3]) > 0
        off = make_kernel("optimized", resolution_memo=False)
        assert re.search(r"^memo: +off$", kernel_summary(off), re.M)

    def test_tree_truncates_wide_dirs(self):
        kernel = make_kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, "/wide")
        for i in range(50):
            fd = kernel.sys.open(task, f"/wide/f{i}", O_CREAT | O_RDWR)
            kernel.sys.close(task, fd)
        tree = dcache_tree(kernel, max_children=10)
        assert "more" in tree

    def test_memory_report_consistency(self):
        kernel = self._kernel()
        memory = measure_kernel(kernel)
        assert memory.dentries == len(kernel.dcache)
        assert memory.total_bytes > memory.baseline_equivalent_bytes
        assert 0 < memory.overhead_fraction < 5

    @pytest.mark.parametrize("profile", PROFILES)
    def test_memo_row_is_within_2x_of_the_measured_heap(self, profile):
        kernel = make_kernel(profile)
        task = kernel.spawn_task(uid=0, gid=0)
        dirs = ["/m"] + [f"/m/d{d:02d}" for d in range(20)]
        for path in dirs:
            kernel.sys.mkdir(task, path)
        paths = [f"{d}/file{f:02d}" for d in dirs[1:] for f in range(50)]
        for path in paths:
            kernel.sys.close(task,
                             kernel.sys.open(task, path, O_CREAT | O_RDWR))
        for path in paths:          # caches warm, the doorkeeper's sight
            kernel.sys.stat(task, path)
        without = measure_kernel(kernel)
        assert without.resmemo_entries == 0
        gc.collect()
        tracemalloc.start()
        try:
            for _rep in range(3):   # record, confirm, replay
                for path in paths:
                    kernel.sys.stat(task, path)
            gc.collect()
            measured = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        memory = measure_kernel(kernel)
        assert memory.resmemo_entries == len(paths) == 1000
        assert measured / 2 < memory.resmemo_bytes < measured * 2
        assert memory.total_bytes == without.total_bytes


class TestCachePressureEquivalence:
    """Semantics must hold even when the dcache constantly evicts.

    The optimized kernel caches more objects (stubs, deep negatives,
    aliases), so under a tiny capacity its eviction pattern differs
    completely from the baseline's — results must not.
    """

    def _dual(self, capacity):
        return DualKernel((BASELINE.variant(dcache_capacity=capacity),
                           OPTIMIZED.variant(dcache_capacity=capacity)))

    def test_stat_storm_under_pressure(self):
        dual = self._dual(capacity=24)
        root = dual.spawn_task(uid=0, gid=0)
        dual.mkdir(root, "/d")
        for i in range(40):
            fd = dual.open(root, f"/d/f{i}", O_CREAT | O_RDWR)
            dual.close(root, fd)
        for _round in range(2):
            for i in range(40):
                assert dual.stat(root, f"/d/f{i}").filetype == "reg"
        dual.check_invariants()

    def test_negative_storm_under_pressure(self):
        dual = self._dual(capacity=16)
        root = dual.spawn_task(uid=0, gid=0)
        dual.mkdir(root, "/d")
        for _round in range(2):
            for i in range(30):
                with pytest.raises(errors.ENOENT):
                    dual.stat(root, f"/d/ghost{i}")
        dual.check_invariants()

    def test_readdir_under_pressure(self):
        dual = self._dual(capacity=20)
        root = dual.spawn_task(uid=0, gid=0)
        dual.mkdir(root, "/d")
        for i in range(35):
            fd = dual.open(root, f"/d/f{i}", O_CREAT | O_RDWR)
            dual.close(root, fd)
        first = dual.listdir(root, "/d")
        second = dual.listdir(root, "/d")
        assert len(first) == len(second) == 35
        dual.check_invariants()

    def test_rename_churn_under_pressure(self):
        dual = self._dual(capacity=20)
        root = dual.spawn_task(uid=0, gid=0)
        dual.mkdir(root, "/a")
        dual.mkdir(root, "/b")
        for i in range(15):
            fd = dual.open(root, f"/a/f{i}", O_CREAT | O_RDWR)
            dual.close(root, fd)
        for i in range(15):
            dual.rename(root, f"/a/f{i}", f"/b/g{i}")
            with pytest.raises(errors.ENOENT):
                dual.stat(root, f"/a/f{i}")
            assert dual.stat(root, f"/b/g{i}").filetype == "reg"
        dual.check_invariants()

    def test_pinned_survive_under_pressure(self):
        kernel = make_kernel("optimized", dcache_capacity=10)
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, "/held")
        fd = kernel.sys.open(task, "/held", 0)
        for i in range(60):
            f = kernel.sys.open(task, f"/f{i}", O_CREAT | O_RDWR)
            kernel.sys.close(task, f)
        # The open handle still works despite churn.
        assert kernel.sys.fstat(task, fd).filetype == "dir"
        kernel.sys.close(task, fd)
