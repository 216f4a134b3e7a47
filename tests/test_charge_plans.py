"""Charge-plan layer: bit-identity, guards, invalidation.

The charge-plan compiler (:class:`repro.sim.costs.ChargePlanRegistry` +
the capture/apply protocol in :mod:`repro.workloads.traces`) is a pure
wall-clock optimization: after a compiled replay unit has executed with
a stable charge stream, later executions apply one clock advance and one
bulk counter merge instead of hundreds of interpreted charges.  Every
test here pins the same contract the resolution memo lives under —
virtual costs are bit-identical with plans on vs. off, on every profile,
through every invalidation path.
"""

from __future__ import annotations

import pytest

from repro import make_kernel
from repro.workloads.compile import build_loop_trace, compile_trace
from repro.workloads.traces import (TraceRecorder, replay_compiled,
                                    replay_interleaved)

PROFILES = ("baseline", "optimized", "optimized-lazy")


def _fingerprint(kernel):
    """Every virtual-cost accumulator, exact floats included."""
    costs = kernel.costs
    return (costs.now_ns, dict(costs.counts), dict(costs.by_primitive),
            dict(costs.by_scope), kernel.stats.snapshot())


def _loop_setup(profile):
    kernel = make_kernel(profile)
    task = kernel.spawn_task(uid=0, gid=0)
    program = compile_trace(build_loop_trace(profile=profile))
    return kernel, task, program


# -- plans-on vs plans-off differential -----------------------------------

class TestBitIdentity:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_loop_trace_identical(self, profile):
        fingerprints = {}
        telemetry = {}
        for plans in (False, True):
            kernel, task, program = _loop_setup(profile)
            for _ in range(8):
                replay_compiled(kernel, task, program, plans=plans)
            fingerprints[plans] = _fingerprint(kernel)
            telemetry[plans] = kernel.costs.plans.telemetry()
        assert fingerprints[True] == fingerprints[False]
        # The differential is vacuous unless plans actually engaged.
        assert telemetry[True]["applied"] > 0
        assert telemetry[False]["applied"] == 0


# -- whole-pass program plans ---------------------------------------------

class TestWholePassPlans:
    def test_capture_then_apply(self):
        kernel, task, program = _loop_setup("baseline")
        for _ in range(3):  # warm, record, confirm
            replay_compiled(kernel, task, program)
        # Two plans compile: the shape-shared segment plan (the loop's
        # rounds all share one charge shape, so the cell confirms within
        # the warmup pass) and the whole-pass plan.
        tel = kernel.costs.plans.telemetry()
        assert tel["compiled"] == 2
        applied_before = tel["applied"]
        replay_compiled(kernel, task, program)
        assert kernel.costs.plans.telemetry()["applied"] \
            == applied_before + 1

    def test_clock_guard_falls_back_on_interference(self):
        """Any syscall between passes moves the clock off the armed
        value, so the next pass must charge interpreted — and stay
        bit-identical to a plans-off kernel driven the same way."""
        results = {}
        for plans in (False, True):
            kernel, task, program = _loop_setup("optimized")
            for _ in range(4):
                replay_compiled(kernel, task, program, plans=plans)
            kernel.sys.stat(task, "/")  # interference
            replay_compiled(kernel, task, program, plans=plans)
            results[plans] = _fingerprint(kernel)
            if plans:
                assert kernel.costs.plans.telemetry()["fallbacks"] >= 1
        assert results[True] == results[False]

    def test_gen_bump_invalidates_then_recaptures(self):
        """drop_caches bumps the plan generation: the stale plan dies,
        the protocol re-warms against the cold-cache charge stream, and
        applies resume — bit-identical throughout."""
        results = {}
        telemetry = None
        for plans in (False, True):
            kernel, task, program = _loop_setup("baseline")
            for _ in range(4):
                replay_compiled(kernel, task, program, plans=plans)
            kernel.drop_caches(dentries=False)
            for _ in range(8):
                replay_compiled(kernel, task, program, plans=plans)
            results[plans] = _fingerprint(kernel)
            if plans:
                telemetry = kernel.costs.plans.telemetry()
        assert results[True] == results[False]
        assert telemetry["invalidated"] >= 1
        # Applies both before the bump and after the re-capture.
        assert telemetry["applied"] >= 2


# -- interleaved multi-task replay ----------------------------------------

def _mini_streams(kernel, n, mutator=False):
    """n small per-task loop streams (own subtree, cred, cwd, fds),
    plus an optional chmod-churn stream that mutates its own tree —
    which still bumps the global plan generation every round."""
    streams = []
    for i in range(n):
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, f"/home{i}")
        kernel.sys.chdir(task, f"/home{i}")
        trace = build_loop_trace(files=2, io_rounds=2, subdirs=1,
                                 root=f"/mt{i}")
        streams.append((task, compile_trace(trace)))
    if mutator:
        scratch = make_kernel("baseline")
        scratch_task = scratch.spawn_task(uid=0, gid=0)
        rec = TraceRecorder(scratch, scratch_task)
        rec.mkdir("/mut")
        for mode in (0o755, 0o775, 0o777) * 4:
            rec.chmod("/mut", mode)
        rec.rmdir("/mut")
        task = kernel.spawn_task(uid=0, gid=0)
        streams.append((task, compile_trace(rec.trace)))
    return streams


class TestInterleaved:
    def test_same_seed_same_history(self):
        prints = []
        for _ in range(2):
            kernel = make_kernel("optimized")
            streams = _mini_streams(kernel, 6)
            for _ in range(4):
                replay_interleaved(kernel, streams, seed=7)
            prints.append(_fingerprint(kernel))
        assert prints[0] == prints[1]

    @pytest.mark.parametrize("profile", PROFILES)
    def test_plans_identical_under_interleaving(self, profile):
        results = {}
        for plans in (False, True):
            kernel = make_kernel(profile)
            streams = _mini_streams(kernel, 6)
            for _ in range(6):
                replay_interleaved(kernel, streams, seed=3, plans=plans)
            results[plans] = _fingerprint(kernel)
        assert results[True] == results[False]

    def test_cross_task_mutation_invalidates(self):
        """One task's metadata churn must invalidate plans captured for
        *other* tasks' streams (the guards cannot see mode bits), and
        the fallback must keep virtual costs bit-identical."""
        results = {}
        telemetry = None
        for plans in (False, True):
            kernel = make_kernel("optimized")
            streams = _mini_streams(kernel, 4, mutator=True)
            for _ in range(6):
                replay_interleaved(kernel, streams, seed=5, plans=plans)
            results[plans] = _fingerprint(kernel)
            if plans:
                telemetry = kernel.costs.plans.telemetry()
        assert results[True] == results[False]
        assert telemetry["invalidated"] > 0

    def test_hypothesis_mutation_heavy_schedules(self):
        """Property sweep: arbitrary mixes of stream counts, seeds, and
        mutation cadence never let a stale plan leak a wrong charge."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(n=st.integers(2, 5), seed=st.integers(0, 2**16),
               drains=st.integers(3, 6),
               mutator=st.booleans())
        @settings(max_examples=12, deadline=None)
        def sweep(n, seed, drains, mutator):
            results = {}
            for plans in (False, True):
                kernel = make_kernel("optimized")
                streams = _mini_streams(kernel, n, mutator=mutator)
                for _ in range(drains):
                    replay_interleaved(kernel, streams, seed=seed,
                                       plans=plans)
                results[plans] = _fingerprint(kernel)
            assert results[True] == results[False]

        sweep()

