"""Tests for the workload generators and the app-trace runner."""

from __future__ import annotations

import random

import pytest

from repro import make_kernel
from repro.sim.memory import measure_kernel
from repro.workloads import apps, lmbench, maildir, webserver
from repro.workloads.tree import (TreeSpec, build_fanout_tree,
                                  build_flat_dir, build_linux_like_tree,
                                  populate)


class TestTreeBuilders:
    def test_populate_counts(self, kernel):
        task = kernel.spawn_task(uid=0, gid=0)
        spec = TreeSpec(depth=2, dirs_per_level=3, files_per_dir=4)
        built = populate(kernel, task, "/t", spec)
        # 1 + 3 + 9 directories, 4 files each.
        assert len(built.directories) == 13
        assert len(built.files) == 52
        for path in built.files[:5]:
            assert kernel.sys.stat(task, path).filetype == "reg"

    def test_populate_deterministic(self):
        names = []
        for _ in range(2):
            kernel = make_kernel("baseline")
            task = kernel.spawn_task(uid=0, gid=0)
            built = populate(kernel, task, "/t",
                             TreeSpec(depth=1, dirs_per_level=2,
                                      files_per_dir=3, seed=9))
            names.append(tuple(built.files))
        assert names[0] == names[1]

    def test_linux_like_scales(self, kernel):
        task = kernel.spawn_task(uid=0, gid=0)
        built = build_linux_like_tree(kernel, task, "/usr/src/linux",
                                      scale="small")
        assert len(built.files) > 200
        assert kernel.sys.stat(task, "/usr/src").filetype == "dir"

    def test_flat_dir(self, kernel):
        task = kernel.spawn_task(uid=0, gid=0)
        names = build_flat_dir(kernel, task, "/flat", 25)
        assert len(names) == 25
        assert len(kernel.sys.listdir(task, "/flat")) == 25

    def test_fanout_tree_counts(self, kernel):
        task = kernel.spawn_task(uid=0, gid=0)
        _base, total = build_fanout_tree(kernel, task, "/fan", depth=2,
                                         fanout=4)
        # 4 dirs + 16 files
        assert total == 20

    def test_fanout_depth_zero_is_file(self, kernel):
        task = kernel.spawn_task(uid=0, gid=0)
        base, total = build_fanout_tree(kernel, task, "/single", depth=0)
        assert total == 0
        assert kernel.sys.stat(task, base).filetype == "reg"


class TestLmbenchDrivers:
    def test_patterns_all_resolvable_or_negative(self, kernel):
        task = lmbench.prepare_lookup_tree(kernel)
        from repro import errors
        for name, path in lmbench.PATH_PATTERNS:
            try:
                kernel.sys.stat(task, path)
                resolved = True
            except errors.FsError:
                resolved = False
            assert resolved == (name in lmbench.POSITIVE_PATTERNS), name

    def test_measure_stat_deterministic(self, kernel):
        task = lmbench.prepare_lookup_tree(kernel)
        first = lmbench.measure_stat(kernel, task, "XXX/FFF")
        second = lmbench.measure_stat(kernel, task, "XXX/FFF")
        assert first == second

    def test_breakdown_phases_present(self, optimized):
        task = lmbench.prepare_lookup_tree(optimized)
        phases = lmbench.lookup_breakdown(optimized, task, "XXX/FFF")
        assert {"init", "hash", "htlookup", "final"} <= set(phases)

    def test_mutation_latency_positive(self, kernel):
        chmod_ns, rename_ns, descendants = \
            lmbench.measure_mutation_latency(kernel, depth=1)
        assert chmod_ns > 0 and rename_ns > 0
        assert descendants == 10


class TestAppRunner:
    def test_metered_syscalls_wrap(self, kernel):
        metered = apps.MeteredSyscalls(kernel)
        task = kernel.spawn_task(uid=0, gid=0)
        metered.mkdir(task, "/x")
        metered.stat(task, "/x")
        assert metered.counts == {"mkdir": 1, "stat": 1}
        assert metered.path_syscall_ns > 0
        assert metered.path_count == 2

    def test_metered_errors_still_counted(self, kernel):
        from repro import errors
        metered = apps.MeteredSyscalls(kernel)
        task = kernel.spawn_task(uid=0, gid=0)
        with pytest.raises(errors.ENOENT):
            metered.stat(task, "/missing")
        assert metered.counts["stat"] == 1

    @pytest.mark.parametrize("factory", apps.ALL_APPS)
    def test_every_app_runs_on_both_kernels(self, factory, kernel):
        app = factory()
        app.tree_scale = "small"
        result = apps.run_app(kernel, app, warm=True)
        assert result.total_ns > 0
        assert result.lookups > 0
        assert 0.0 <= result.path_fraction <= 1.0
        assert 0.0 <= result.component_hit_rate <= 1.0

    def test_cold_slower_than_warm(self):
        warm_kernel = make_kernel("baseline")
        warm = apps.run_app(warm_kernel, _small(apps.FindWorkload),
                            warm=True)
        cold_kernel = make_kernel("baseline")
        cold = apps.run_app(cold_kernel, _small(apps.FindWorkload),
                            warm=False)
        assert cold.total_ns > 3 * warm.total_ns
        assert cold.component_hit_rate < warm.component_hit_rate

    def test_app_results_deterministic(self):
        totals = []
        for _ in range(2):
            kernel = make_kernel("optimized")
            totals.append(apps.run_app(kernel, _small(apps.DuWorkload),
                                       warm=True).total_ns)
        assert totals[0] == totals[1]


def _small(factory):
    app = factory()
    app.tree_scale = "small"
    return app


class TestMaildir:
    def test_provision_layout(self, kernel):
        task = kernel.spawn_task(uid=0, gid=0)
        setup = maildir.provision(kernel, task, mailboxes=2,
                                  messages_per_box=5)
        assert len(setup.mailboxes) == 2
        for box in setup.mailboxes:
            names = {n for n, _i, _t
                     in kernel.sys.listdir(task, f"{box}/cur")}
            assert len(names) == 5

    def test_mark_renames_and_flips_flag(self, kernel):
        task = kernel.spawn_task(uid=0, gid=0)
        setup = maildir.provision(kernel, task, 1, 3)
        rng = random.Random(1)
        maildir.mark_operation(kernel, task, setup, rng)
        box = setup.mailboxes[0]
        flagged = [n for n in setup.messages[box] if n.endswith("S")]
        assert len(flagged) == 1
        assert kernel.sys.exists(task, f"{box}/cur/{flagged[0]}")

    def test_deliver_moves_new_to_cur(self, kernel):
        task = kernel.spawn_task(uid=0, gid=0)
        setup = maildir.provision(kernel, task, 1, 2)
        rng = random.Random(2)
        maildir.deliver_operation(kernel, task, setup, rng, seq=1)
        box = setup.mailboxes[0]
        assert len(kernel.sys.listdir(task, f"{box}/cur")) == 3
        assert len(kernel.sys.listdir(task, f"{box}/new")) == 0

    def test_throughput_positive(self, kernel):
        assert maildir.run_benchmark(kernel, 50, operations=10) > 0


class TestWebserver:
    def test_request_renders_all_rows(self, kernel):
        task = kernel.spawn_task(uid=0, gid=0)
        listing = webserver.provision(kernel, task, 12)
        assert webserver.handle_request(kernel, task, listing) == 12

    def test_throughput_decreases_with_size(self, kernel):
        small = webserver.run_benchmark(kernel, 10, requests=5)
        # fresh kernel to avoid cross-contamination
        big_kernel = make_kernel(kernel.config.name
                                 if kernel.config.name in
                                 ("baseline", "optimized") else "baseline")
        big = webserver.run_benchmark(big_kernel, 500, requests=5)
        assert small > big


class TestDriverTasks:
    """A driver that returns only a number exits the task it spawned, so
    its PCC leaves the kernel's live caches with it."""

    @staticmethod
    def _live(kernel):
        return len(kernel.tasks), measure_kernel(kernel).pcc_count

    def test_webserver_runs_leave_the_task_table_as_found(self):
        kernel = make_kernel("optimized")
        kernel.spawn_task(uid=0, gid=0)
        before = self._live(kernel)
        for nfiles in (10, 12):
            webserver.run_benchmark(kernel, nfiles, requests=2)
        assert self._live(kernel) == before

    @pytest.mark.parametrize("drive", [
        lambda k: maildir.run_benchmark(k, 10, mailboxes=2, operations=5),
        lambda k: lmbench.measure_mutation_latency(k, 1),
        lambda k: lmbench.measure_readdir_latency(k, 10),
        lambda k: lmbench.measure_mkstemp_latency(k, 10),
        lmbench.measure_long_path_stat,
    ], ids=["maildir", "mutation", "readdir", "mkstemp", "long_path"])
    def test_other_drivers_exit_their_task(self, drive):
        kernel = make_kernel("optimized")
        before = self._live(kernel)
        drive(kernel)
        assert self._live(kernel) == before
