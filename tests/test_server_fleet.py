"""Differential tests for the multi-tenant server-fleet engine.

The engine stack under test: whole-drain charge plans
(``sim/costs.py`` + ``workloads/traces.py``), vectorized interleaved
scheduling (``plan_schedule``, also in ``workloads/traces.py``), and
the fleet workload itself (``workloads/server_fleet.py``).  The contract everywhere is the same:
every wall-clock optimization must leave virtual output — clock,
per-primitive charges, Stats — bit-identical to the interpreted path,
on every profile.
"""

import gc
import random
from itertools import chain

import pytest

from repro import make_kernel
from repro.bench import exp_tenant_crossover
from repro.core.kernel import PROFILES
from repro.sim.memory import measure_kernel
from repro.testing.dual import fingerprint
from repro.workloads import server_fleet
from repro.workloads.compile import build_loop_trace, compile_trace
from repro.workloads.traces import plan_schedule, replay_interleaved


def _small_fleet(kernel, *, tenants=3, total_requests=15,
                 mutation_rate=0.25, seed=5):
    return server_fleet.build_fleet(
        kernel, tenants, total_requests=total_requests,
        mutation_rate=mutation_rate, files_per_site=8, mailboxes=1,
        messages_per_box=4, seed=seed)


def _drained_fingerprint(profile, *, plans, memo=True, drains=5,
                         **fleet_kw):
    kernel = make_kernel(profile, resolution_memo=memo)
    fleet = _small_fleet(kernel, **fleet_kw)
    for _ in range(drains):
        server_fleet.drain_fleet(kernel, fleet, plans=plans)
    return fingerprint(kernel)


def _crossover_fingerprint(profile, mutation_rate, *, plans, memo=True):
    """One quick cell of the ``tenant_crossover`` experiment."""
    (tenants, total_requests), = exp_tenant_crossover.FLEETS_QUICK
    kernel = make_kernel(profile, resolution_memo=memo)
    server_fleet.run_benchmark(
        kernel, tenants, total_requests=total_requests,
        mutation_rate=mutation_rate, drains=3, seed=11, plans=plans)
    if memo:  # else the memo axis is vacuous
        assert kernel.memo.hits > 0
    return fingerprint(kernel)


class TestFleetBitIdentity:
    """Plans and memo on vs. off must be invisible in virtual output."""

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("memo_off", [False, True])
    def test_plans_on_off_identical(self, profile, memo_off):
        """A default kernel against the reference path — charge plans
        off and, with ``memo_off``, the resolution memo off too — on a
        small fleet and on the ``tenant_crossover`` experiment's quick
        cells."""
        reference = dict(plans=False, memo=not memo_off)
        assert _drained_fingerprint(profile, plans=True) \
            == _drained_fingerprint(profile, **reference)
        for rate in exp_tenant_crossover.MUTATION_RATES_QUICK:
            assert _crossover_fingerprint(profile, rate, plans=True) \
                == _crossover_fingerprint(profile, rate, **reference), rate

    @pytest.mark.parametrize("profile", PROFILES)
    def test_drains_are_self_undoing(self, profile):
        """Drains leave every tenant's fd table as they found it and
        charge identical virtual time each."""
        kernel = make_kernel(profile)
        fleet = _small_fleet(kernel)
        fds_before = [frozenset(site.task.fds._files)
                      for site in fleet.tenants]
        server_fleet.drain_fleet(kernel, fleet)
        durations = []
        for _ in range(3):
            start = kernel.costs.now_ns
            server_fleet.drain_fleet(kernel, fleet)
            durations.append(kernel.costs.now_ns - start)
        assert durations[0] == durations[1] == durations[2]
        assert [frozenset(site.task.fds._files)
                for site in fleet.tenants] == fds_before

    def test_hypothesis_seed_and_mutation_sweep(self):
        """Plans-on/off identity over random Zipf seeds and mixes, under
        eager and lazy coherence."""
        from hypothesis import given, settings, strategies as st

        @given(seed=st.integers(min_value=0, max_value=2**16),
               rate=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
        @settings(max_examples=8, deadline=None)
        def check(seed, rate):
            kw = dict(tenants=2, total_requests=8, mutation_rate=rate,
                      seed=seed)
            for profile in ("optimized", "optimized-lazy"):
                on = _drained_fingerprint(profile, plans=True, drains=4,
                                          **kw)
                off = _drained_fingerprint(profile, plans=False, drains=4,
                                           **kw)
                assert on == off, profile

        check()


    @pytest.mark.parametrize("profile", PROFILES)
    def test_host_lifetimes_do_not_move_virtual_time(self, profile):
        """Whether an exited task that touched the caches is still alive
        on the host, or was collected, leaves the drains' virtual time
        and the memory report as they were: the live caches are the
        kernel's tasks', not the collector's."""
        ticks, reports = [], []
        for keep in (True, False):
            kernel = make_kernel(profile)
            fleet = _small_fleet(kernel)
            caches = measure_kernel(kernel)
            task = kernel.spawn_task(uid=2000, gid=2000)
            for path in ("/", "/srv", "/srv/t0", "/srv/t1"):
                kernel.sys.stat(task, path)
            kernel.exit_task(task)
            if not keep:
                del task
                gc.collect()
            report = measure_kernel(kernel)
            assert (report.pcc_count, report.dlht_count) \
                == (caches.pcc_count, caches.dlht_count)
            for _ in range(5):
                server_fleet.drain_fleet(kernel, fleet)
            ticks.append(kernel.costs.clock.capture_state())
            reports.append(measure_kernel(kernel))
        assert ticks[0] == ticks[1]
        assert reports[0] == reports[1]


class TestFleetDrainLifecycle:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_drain_plan_compiles_on_drain_2(self, profile):
        """The whole-drain cell records drains 1 and 2, compiles on the
        second and applies on drains 3-5.  On optimized-lazy drain 1
        re-arms epoch snapshots, so it charges more than the drains
        after it and the cell confirms on drain 3.  Virtual output
        equals a plans-off run's."""
        prints = []
        for plans in (False, True):
            kernel = make_kernel(profile)
            fleet = _small_fleet(kernel)
            registry = kernel.costs.plans
            key = (fleet.seed, *map(id, chain.from_iterable(fleet.streams)))
            history = []
            for _ in range(5):
                applied = registry.applied
                server_fleet.drain_fleet(kernel, fleet, plans=plans)
                entry = registry._cells.get(key)
                history.append((entry is not None and entry[1].plan
                                is not None, registry.applied - applied))
            if plans and profile == "optimized-lazy":
                assert history == [(False, 0), (False, 0), (True, 0),
                                   (True, 1), (True, 1)]
            elif plans:
                assert history == [(False, 0), (True, 0), (True, 1),
                                   (True, 1), (True, 1)]
            prints.append(fingerprint(kernel))
        assert prints[0] == prints[1]


class TestScheduler:
    """The vectorized schedule must equal the dynamic pick loop."""

    @staticmethod
    def _dynamic(seed, row_counts):
        """The per-row drain loop ``plan_schedule`` claims to match:
        one RNG draw per step over a shrinking alive list, where a draw
        landing on an exhausted stream retires it without advancing."""
        rng = random.Random(seed)
        remaining = list(row_counts)
        alive = list(range(len(remaining)))
        picks = []
        while alive:
            i = rng.randrange(len(alive))
            s = alive[i]
            if remaining[s] == 0:
                alive.pop(i)
                continue
            remaining[s] -= 1
            picks.append(s)
        return picks, rng.getstate()

    def test_plan_schedule_identical_picks(self):
        from hypothesis import given, settings, strategies as st

        @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
               counts=st.lists(st.integers(min_value=0, max_value=12),
                               min_size=1, max_size=8))
        @settings(deadline=None)
        def check(seed, counts):
            want_picks, want_state = self._dynamic(seed, counts)
            rng = random.Random(seed)
            streams, runs = plan_schedule(rng, counts)
            got_picks = [s for s, n in zip(streams, runs) for _ in range(n)]
            assert got_picks == want_picks
            # The planner consumes RNG draws in the same order with the
            # same bounds, so the RNG ends in the identical state.
            assert rng.getstate() == want_state
            # Runs are nonempty and expand to exactly the pick count.
            assert all(n >= 1 for n in runs)
            assert sum(runs) == len(want_picks)

        check()


class TestZipf:
    def test_zipf_counts_shape(self):
        counts = server_fleet.zipf_counts(8, 120)
        assert sum(counts) >= 8  # every tenant gets at least one
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > counts[-1]
        assert min(counts) >= 1
        # Deterministic: no RNG involved.
        assert counts == server_fleet.zipf_counts(8, 120)


def _loop_streams(kernel, n=4):
    """``n`` same-shape loop-trace streams on distinct tasks."""
    streams = []
    for i in range(n):
        task = kernel.spawn_task(uid=0, gid=0)
        trace = build_loop_trace(files=2, io_rounds=2, subdirs=1,
                                 profile="optimized", root=f"/x{i}")
        streams.append((task, compile_trace(trace)))
    replay_interleaved(kernel, streams, seed=1)  # warm
    return streams


class TestCrossTaskPlans:
    """Same-shape streams on distinct tasks: each task's plans are its
    own."""

    def test_interleaving_matches_any_seed(self):
        """Different seeds interleave differently but plans stay
        invisible: on/off identity holds per seed."""
        for seed in (0, 3, 17):
            fps = []
            for plans in (True, False):
                kernel = make_kernel("optimized-lazy")
                streams = _loop_streams(kernel)
                for _ in range(4):
                    replay_interleaved(kernel, streams, seed=seed,
                                       plans=plans)
                fps.append(fingerprint(kernel))
            assert fps[0] == fps[1]
