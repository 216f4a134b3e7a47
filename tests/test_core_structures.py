"""Unit tests for the core optimized structures: DLHT, PCC, coherence."""

from __future__ import annotations

import gc

import pytest

from repro import O_CREAT, O_RDWR, errors, make_kernel
from repro.core.coherence import SEQ_WRAP
from repro.core.dlht import DirectLookupHashTable
from repro.core.kernel import PROFILES
from repro.core.pcc import PrefixCheckCache
from repro.core.signatures import PathHasher
from repro.sim.costs import CostModel, UNIT
from repro.sim.memory import measure_kernel
from repro.sim.stats import Stats
from repro.vfs.dentry import Dentry


@pytest.fixture
def costs():
    return CostModel(dict(UNIT))


@pytest.fixture
def stats():
    return Stats()


def _dentry(name="d"):
    return Dentry(name, None, None)


class TestDlht:
    def _table(self, costs, stats):
        return DirectLookupHashTable(costs, stats)

    def test_insert_probe(self, costs, stats):
        table = self._table(costs, stats)
        hasher = PathHasher(1)
        dentry = _dentry()
        sig = hasher.sign_components(["a", "b"])
        assert table.insert(dentry, sig)
        assert table.probe(sig) is dentry

    def test_probe_miss(self, costs, stats):
        table = self._table(costs, stats)
        hasher = PathHasher(1)
        assert table.probe(hasher.sign_components(["x"])) is None

    def test_first_wins_on_collision(self, costs, stats):
        table = self._table(costs, stats)
        hasher = PathHasher(1)
        sig = hasher.sign_components(["a"])
        first, second = _dentry("one"), _dentry("two")
        assert table.insert(first, sig)
        assert not table.insert(second, sig)
        assert table.probe(sig) is first
        assert second.fast is None or second.fast.dlht is None

    def test_dead_occupant_replaced(self, costs, stats):
        table = self._table(costs, stats)
        hasher = PathHasher(1)
        sig = hasher.sign_components(["a"])
        first, second = _dentry("one"), _dentry("two")
        table.insert(first, sig)
        first.dead = True
        assert table.insert(second, sig)
        assert table.probe(sig) is second

    def test_one_table_per_dentry(self, costs, stats):
        """§4.3: inserting under a new signature drops the old entry."""
        table = self._table(costs, stats)
        hasher = PathHasher(1)
        dentry = _dentry()
        sig1 = hasher.sign_components(["path", "one"])
        sig2 = hasher.sign_components(["path", "two"])
        table.insert(dentry, sig1)
        table.insert(dentry, sig2)
        assert table.probe(sig1) is None
        assert table.probe(sig2) is dentry

    def test_cross_namespace_rehoming(self, costs, stats):
        table_a = self._table(costs, stats)
        table_b = self._table(costs, stats)
        hasher = PathHasher(1)
        dentry = _dentry()
        sig = hasher.sign_components(["shared"])
        table_a.insert(dentry, sig)
        table_b.insert(dentry, sig)
        assert table_a.probe(sig) is None
        assert table_b.probe(sig) is dentry

    def test_remove_idempotent(self, costs, stats):
        table = self._table(costs, stats)
        hasher = PathHasher(1)
        dentry = _dentry()
        table.insert(dentry, hasher.sign_components(["a"]))
        table.remove(dentry)
        table.remove(dentry)
        assert len(table) == 0

    def test_flush(self, costs, stats):
        table = self._table(costs, stats)
        hasher = PathHasher(1)
        dentries = [_dentry(str(i)) for i in range(5)]
        for i, dentry in enumerate(dentries):
            table.insert(dentry, hasher.sign_components([f"p{i}"]))
        table.flush()
        assert len(table) == 0
        assert all(d.fast.dlht is None for d in dentries)

    def test_probe_charges(self, costs, stats):
        table = self._table(costs, stats)
        hasher = PathHasher(1)
        before = costs.count("dlht_probe")
        table.probe(hasher.sign_components(["a"]))
        assert costs.count("dlht_probe") == before + 1


class TestPcc:
    def test_insert_probe_hit(self, costs, stats):
        pcc = PrefixCheckCache(costs, stats, capacity=4)
        dentry = _dentry()
        pcc.insert(dentry)
        assert pcc.probe(dentry)
        assert stats.get("pcc_hit") == 1

    def test_probe_miss(self, costs, stats):
        pcc = PrefixCheckCache(costs, stats, capacity=4)
        assert not pcc.probe(_dentry())
        assert stats.get("pcc_miss") == 1

    def test_stale_seq_rejected(self, costs, stats):
        pcc = PrefixCheckCache(costs, stats, capacity=4)
        dentry = _dentry()
        pcc.insert(dentry)
        dentry.seq += 1
        assert not pcc.probe(dentry)
        assert stats.get("pcc_stale") == 1
        # The stale entry was dropped.
        assert len(pcc) == 0

    def test_dead_dentry_rejected(self, costs, stats):
        pcc = PrefixCheckCache(costs, stats, capacity=4)
        dentry = _dentry()
        pcc.insert(dentry)
        dentry.dead = True
        assert not pcc.probe(dentry)

    def test_lru_bound(self, costs, stats):
        pcc = PrefixCheckCache(costs, stats, capacity=3)
        dentries = [_dentry(str(i)) for i in range(5)]
        for dentry in dentries:
            pcc.insert(dentry)
        assert len(pcc) == 3
        assert not pcc.probe(dentries[0])
        assert pcc.probe(dentries[4])

    def test_probe_refreshes_lru(self, costs, stats):
        pcc = PrefixCheckCache(costs, stats, capacity=2)
        a, b, c = _dentry("a"), _dentry("b"), _dentry("c")
        pcc.insert(a)
        pcc.insert(b)
        pcc.probe(a)  # a is now most recent
        pcc.insert(c)  # evicts b
        assert pcc.probe(a)
        assert not pcc.probe(b)

    def test_invalidate_all(self, costs, stats):
        pcc = PrefixCheckCache(costs, stats, capacity=4)
        pcc.insert(_dentry())
        pcc.invalidate_all()
        assert len(pcc) == 0


class TestCoherence:
    def test_rename_dir_invalidates_pcc_entries(self):
        kernel = make_kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/a")
        fd = sys.open(task, "/a/f", O_CREAT | O_RDWR)
        sys.close(task, fd)
        sys.stat(task, "/a/f")
        dentry = kernel.dcache.root_dentry(kernel.root_fs) \
            .children["a"].children["f"]
        seq = dentry.seq
        sys.rename(task, "/a", "/b")
        assert dentry.seq > seq

    def test_counter_guard_blocks_stale_population(self):
        """§3.2: a walk racing a shootdown must not repopulate."""
        kernel = make_kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/d")
        fd = sys.open(task, "/d/f", O_CREAT | O_RDWR)
        sys.close(task, fd)
        # Force the next lookup onto the populating slowpath.
        kernel.drop_caches()
        # Inject a "concurrent" counter bump mid-walk via a hook shim.
        fast = kernel.fast
        original_finish = fast.finish

        def racing_finish(ctx, final):
            kernel.coherence.bump_counter()
            original_finish(ctx, final)

        fast.finish = racing_finish
        aborts_before = kernel.stats.get("populate_abort")
        sys.stat(task, "/d/f")
        fast.finish = original_finish
        assert kernel.stats.get("populate_abort") > aborts_before
        # Nothing stale entered the DLHT for the file.
        dentry = kernel.dcache.root_dentry(kernel.root_fs) \
            .children["d"].children["f"]
        assert dentry.fast is None or dentry.fast.dlht is None

    def test_file_chmod_no_subtree_walk(self):
        kernel = make_kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/d")
        fd = sys.open(task, "/d/f", O_CREAT | O_RDWR)
        sys.close(task, fd)
        before = kernel.stats.get("inval_dentry")
        sys.chmod(task, "/d/f", 0o600)
        # File chmod does not change any prefix check: no shootdown.
        assert kernel.stats.get("inval_dentry") == before

    def test_dir_chmod_walks_cached_subtree(self):
        kernel = make_kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/d")
        for i in range(10):
            fd = sys.open(task, f"/d/f{i}", O_CREAT | O_RDWR)
            sys.close(task, fd)
        before = kernel.stats.get("inval_dentry")
        sys.chmod(task, "/d", 0o700)
        assert kernel.stats.get("inval_dentry") - before >= 11

    def test_seq_wraparound_flushes(self):
        kernel = make_kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/d")
        sys.stat(task, "/d")
        dentry = kernel.dcache.root_dentry(kernel.root_fs).children["d"]
        pcc = task.cred.pcc
        assert len(pcc) > 0
        dentry.seq = SEQ_WRAP - 1
        kernel.coherence.shootdown_single(dentry)
        assert kernel.stats.get("seq_wraparound_flush") == 1
        assert len(pcc) == 0

    @pytest.mark.parametrize("profile", ("optimized", "optimized-lazy"))
    def test_seq_wraparound_from_a_directory_chmod(self, profile):
        """The bulk eager shootdown and the lazy stamp detect it too."""
        kernel = make_kernel(profile)
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/d")
        fd = sys.open(task, "/d/f", O_CREAT | O_RDWR)
        sys.close(task, fd)
        sys.stat(task, "/d/f")
        assert len(task.cred.pcc) > 0
        d = kernel.dcache.root_dentry(kernel.root_fs).children["d"]
        d.seq = SEQ_WRAP - 1
        sys.chmod(task, "/d", 0o700)  # bumps /d's seq to SEQ_WRAP
        assert kernel.stats.get("seq_wraparound_flush") >= 1
        assert len(task.cred.pcc) == 0
        sys.stat(task, "/d/f")  # the kernel keeps working after the flush

    def test_seq_wraparound_on_a_dropped_dentry(self):
        """An unlinked file held open is out of the cache, yet a bump
        that wraps its counter must still flush."""
        kernel = make_kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        fd = sys.open(task, "/f", O_CREAT | O_RDWR)
        sys.stat(task, "/f")
        f = kernel.dcache.root_dentry(kernel.root_fs).children["f"]
        sys.unlink(task, "/f")
        assert f.dead
        f.seq = SEQ_WRAP - 1
        before = kernel.stats.get("seq_wraparound_flush")
        kernel.coherence.shootdown_single(f)
        assert kernel.stats.get("seq_wraparound_flush") == before + 1
        sys.close(task, fd)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_evicted_dentry_never_validates_again(self, profile):
        """A prefix check memoized for a dentry that ``drop_all`` evicted
        must not validate once the name is gone and another is created
        beside it."""
        kernel = make_kernel(profile)
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/w")
        fd = sys.open(task, "/w/victim", O_CREAT | O_RDWR)
        sys.close(task, fd)
        sys.stat(task, "/w/victim")
        victim = kernel.dcache.root_dentry(kernel.root_fs) \
            .children["w"].children["victim"]
        sys.unlink(task, "/w/victim")
        kernel.dcache.drop_all()
        assert victim.dead
        fd = sys.open(task, "/w/other", O_CREAT | O_RDWR)
        sys.close(task, fd)
        pcc = task.cred.pcc
        if pcc is not None:  # baseline has no PCC
            assert not pcc.probe(victim)
        with pytest.raises(errors.FsError):
            sys.stat(task, "/w/victim")

    def test_baseline_pays_no_invalidation(self):
        kernel = make_kernel("baseline")
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/d")
        for i in range(20):
            fd = sys.open(task, f"/d/f{i}", O_CREAT | O_RDWR)
            sys.close(task, fd)
        sys.chmod(task, "/d", 0o700)
        assert kernel.stats.get("inval_dentry") == 0


class TestTaskLifetimes:
    """The kernel's task table is the one source of the caches'
    lifetimes: a cred's PCC and a namespace's DLHT live while a task
    holds them, whatever the host's collector does."""

    @pytest.mark.parametrize("profile", ("optimized", "optimized-lazy"))
    def test_wraparound_reaches_a_child_that_outlives_its_parent(
            self, profile):
        kernel = make_kernel(profile)
        parent = kernel.spawn_task(uid=0, gid=0)
        child = kernel.fork_task(parent)
        assert child.cred is parent.cred
        kernel.sys.mkdir(parent, "/d")
        kernel.sys.stat(child, "/d")
        kernel.exit_task(parent)
        del parent
        gc.collect()
        pcc = child.cred.pcc
        assert len(pcc) > 0
        assert kernel.live_caches()[0] == [pcc]
        dentry = kernel.dcache.root_dentry(kernel.root_fs).children["d"]
        dentry.seq = SEQ_WRAP - 1
        kernel.coherence.shootdown_single(dentry)
        assert kernel.stats.get("seq_wraparound_flush") == 1
        assert len(pcc) == 0

    @pytest.mark.parametrize("profile", ("optimized", "optimized-lazy"))
    def test_namespace_releases_its_dlht_with_its_last_task(self, profile):
        kernel = make_kernel(profile)
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.unshare_mountns(task)
        child = kernel.fork_task(task)
        before = measure_kernel(kernel).dlht_count
        assert before == 2
        kernel.exit_task(task)
        assert measure_kernel(kernel).dlht_count == before
        kernel.exit_task(child)
        assert measure_kernel(kernel).dlht_count == before - 1
        assert kernel.live_caches()[1] == [kernel.root_ns.dlht]

    @pytest.mark.parametrize("profile", PROFILES)
    def test_syscall_on_an_exited_task_raises(self, profile):
        """An exited task keeps no cred, so even a path the memo and the
        PCC know raises instead of being served."""
        kernel = make_kernel(profile)
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, "/d")
        for _ in range(3):
            kernel.sys.stat(task, "/d")
        kernel.exit_task(task)
        assert task.pid not in kernel.tasks
        with pytest.raises(AttributeError):
            kernel.sys.stat(task, "/d")

    def test_each_kernel_numbers_its_own_pids(self):
        """A pid, the key of ``Kernel.tasks``, depends only on its own
        kernel's spawns."""
        a, b = make_kernel("baseline"), make_kernel("baseline")
        parent = a.spawn_task(uid=0, gid=0)
        b.spawn_task(uid=0, gid=0)
        a.spawn_task(uid=0, gid=0)
        a.fork_task(parent)
        assert list(a.tasks) == [1, 2, 3]
        assert list(b.tasks) == [1]
