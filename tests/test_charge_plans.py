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

from itertools import chain

import pytest

from repro import O_APPEND, O_CREAT, O_RDONLY, O_WRONLY, make_kernel
from repro.core.kernel import PROFILES
from repro.testing.dual import fingerprint
from repro.workloads import traces
from repro.workloads.compile import build_loop_trace, compile_trace
from repro.workloads.traces import (Trace, TraceEvent, TraceRecorder,
                                    replay, replay_compiled,
                                    replay_interleaved)


def _fingerprint(kernel):
    """Every virtual-cost accumulator, exact floats included, and the
    root file system's contents: a plan must leave both as running the
    unit would."""
    return fingerprint(kernel) + (kernel.root_fs.state_digest(),)


def _record(script):
    """Compile what ``script(recorder)`` does on a scratch kernel."""
    scratch = make_kernel("baseline")
    rec = TraceRecorder(scratch, scratch.spawn_task(uid=0, gid=0))
    script(rec)
    return rec.trace


def _append_log(rec):
    """Repeats, but is not self-undoing: every run grows ``/log``."""
    fd = rec.open("/log", O_CREAT | O_WRONLY | O_APPEND)
    rec.write(fd, b"x" * 10)
    rec.close(fd)


def _kill_drain_cell(kernel, streams, seed=0):
    """Keep the whole-drain plan out of the way so every drain runs the
    segment path."""
    kernel.costs.plans.cell(seed, *chain.from_iterable(streams)).dead = True


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

    @pytest.mark.parametrize("profile", PROFILES)
    def test_appending_trace_identical(self, profile):
        """A unit that charges the same every run but leaves the file
        system changed must run every time: two equal charge vectors do
        not prove a unit self-undoing, equal end states do."""
        trace = _record(_append_log)
        program = compile_trace(trace)
        engines = (lambda k, t: replay_compiled(k, t, program),
                   lambda k, t: replay_compiled(k, t, program, plans=False),
                   lambda k, t: replay(k, t, trace))
        prints = []
        for engine in engines:
            kernel = make_kernel(profile)
            task = kernel.spawn_task(uid=0, gid=0)
            for _ in range(8):
                engine(kernel, task)
            assert kernel.sys.stat(task, "/log").size == 80
            prints.append(_fingerprint(kernel))
        assert prints[0] == prints[1] == prints[2]


# -- whole-pass program plans ---------------------------------------------

class TestWholePassPlans:
    def test_capture_then_apply(self):
        kernel, task, program = _loop_setup("baseline")
        cell = kernel.costs.plans.cell(0, task, program)
        # Record, record again, confirm: the first pass populated the
        # cold caches, so its capture only became the pending one, at
        # the cost of one retry.
        for _ in range(3):
            replay_compiled(kernel, task, program)
        # Only the whole-pass plan compiles: every pass ran under its
        # recording, inside which the segments run interpreted.
        tel = kernel.costs.plans.telemetry()
        assert (tel["compiled"], tel["applied"], cell.retries) == (1, 0, 1)
        for applied in (1, 2):
            replay_compiled(kernel, task, program)
            assert kernel.costs.plans.telemetry()["applied"] == applied

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
        the invalidating pass runs interpreted, the cell re-captures
        against the cold-cache charge stream, and applies resume —
        bit-identical throughout."""
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

def _mini_streams(kernel, n, mutator=False, appender=False):
    """n small per-task loop streams (own subtree, cred, cwd, fds),
    plus an optional chmod-churn stream that mutates its own tree —
    which still bumps the global plan generation every round — and an
    optional stream that appends to a log, so no drain is self-undoing.
    """
    streams = []
    for i in range(n):
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, f"/home{i}")
        kernel.sys.chdir(task, f"/home{i}")
        trace = build_loop_trace(files=2, io_rounds=2, subdirs=1,
                                 root=f"/mt{i}")
        streams.append((task, compile_trace(trace)))
    def chmod_churn(rec):
        rec.mkdir("/mut")
        for mode in (0o755, 0o775, 0o777) * 4:
            rec.chmod("/mut", mode)
        rec.rmdir("/mut")

    for wanted, script in ((mutator, chmod_churn), (appender, _append_log)):
        if wanted:
            task = kernel.spawn_task(uid=0, gid=0)
            streams.append((task, compile_trace(_record(script))))
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
            # The whole drain undoes its own chmods and would plan as
            # one unit; the segment plans are the ones under test.
            _kill_drain_cell(kernel, streams, seed=5)
            for _ in range(6):
                replay_interleaved(kernel, streams, seed=5, plans=plans)
            results[plans] = _fingerprint(kernel)
            if plans:
                telemetry = kernel.costs.plans.telemetry()
        assert results[True] == results[False]
        assert telemetry["invalidated"] > 0

    def test_hypothesis_mutation_heavy_schedules(self):
        """Property sweep: arbitrary mixes of stream counts, seeds, and
        mutation cadence never let a stale plan leak a wrong charge or
        skip a write."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(n=st.integers(2, 5), seed=st.integers(0, 2**16),
               drains=st.integers(3, 6),
               mutator=st.booleans(), appender=st.booleans())
        @settings(max_examples=12, deadline=None)
        def sweep(n, seed, drains, mutator, appender):
            results = {}
            for plans in (False, True):
                kernel = make_kernel("optimized")
                streams = _mini_streams(kernel, n, mutator=mutator,
                                        appender=appender)
                for _ in range(drains):
                    replay_interleaved(kernel, streams, seed=seed,
                                       plans=plans)
                results[plans] = _fingerprint(kernel)
            assert results[True] == results[False]

        sweep()


# -- one protocol, two call sites -----------------------------------------

def _seek_file(rec):
    """One plannable segment over a file the trace opens by path."""
    fd = rec.open("/p", O_RDONLY)
    for offset in (0, 8) * 3:
        rec.lseek(fd, offset)
    rec.close(fd)


def _touch(kernel, task, path="/p"):
    sys = kernel.sys
    sys.close(task, sys.open(task, path, O_CREAT | O_WRONLY))


class TestOneProtocol:
    """A segment cell and a whole-drain cell go through the same
    lifecycle: :func:`repro.workloads.traces._plan_unit`."""

    #: site -> (how to fail its guard once, the capture seam it vouches
    #: through).  A drain's guard is the armed clock; a segment's here
    #: is "the seeked fd is not a directory".
    SITES = {
        "drain": (lambda kernel, task: kernel.sys.stat(task, "/"),
                  "_drain_state"),
        "segment": (lambda kernel, task: (kernel.sys.unlink(task, "/p"),
                                          kernel.sys.mkdir(task, "/p")),
                    "_capture_clean"),
    }

    def _setup(self, site, program):
        kernel = make_kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        _touch(kernel, task)
        registry = kernel.costs.plans
        drain_cell = registry.cell(0, task, program)
        if site == "drain":
            return kernel, task, drain_cell
        drain_cell.dead = True
        shape = program.plan_segments[0].shape
        return kernel, task, registry.cell("segment", task, program, shape)

    @pytest.mark.parametrize("site", sorted(SITES))
    @pytest.mark.parametrize(
        "event", ["gen_bump", "guard_failure", "rejected_capture"])
    def test_lifecycle(self, site, event, monkeypatch):
        fail_guard, vouch = self.SITES[site]
        program = compile_trace(_record(
            lambda rec: (_touch(rec._kernel, rec._task), _seek_file(rec))))
        prints = {}
        for plans in (False, True):
            kernel, task, cell = self._setup(site, program)
            registry = kernel.costs.plans

            def passes(n):
                for _ in range(n):
                    replay_compiled(kernel, task, program, plans=plans)

            if event == "rejected_capture":
                passes(1)  # record
                with monkeypatch.context() as patch:
                    patch.setattr(traces, vouch, lambda *_args: None)
                    passes(1)
                if plans:
                    assert (cell.retries, cell.pending) == (1, None)
            passes(4)  # record (unless done), confirm, apply
            applied = registry.applied
            if plans:
                assert cell.plan is not None and applied > 0
            if event == "gen_bump":
                kernel.drop_caches(dentries=False)
                passes(1)
                if plans:
                    assert registry.invalidated == 1
                    assert (cell.plan, cell.pending) == (None, None)
            elif event == "guard_failure":
                fail_guard(kernel, task)
                passes(1)
                if plans:
                    assert registry.fallbacks == 1
                    assert cell.fail_streak == 1 and cell.plan is not None
                if site == "segment":  # put the file back
                    kernel.sys.rmdir(task, "/p")
                    _touch(kernel, task)
            # A drain cell re-arms only by re-capturing.
            passes(registry.MAX_FAIL_STREAK + 3)
            if plans:
                assert registry.applied > applied
                assert cell.fail_streak == 0 and not cell.dead
            prints[plans] = _fingerprint(kernel)
        assert prints[True] == prints[False]

    def test_retries_kill_a_cell_that_never_confirms(self):
        kernel = make_kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        program = compile_trace(_record(_append_log))
        registry = kernel.costs.plans
        for _ in range(registry.MAX_RETRIES + 2):
            replay_compiled(kernel, task, program)
        cell = registry.cell(0, task, program)
        assert cell.dead and cell.plan is None and cell.pending is None
        assert registry.telemetry()["compiled"] == 0

    def test_plan_table_is_bounded(self):
        """More distinct programs than the table holds: cells are
        dropped, never fidelity."""
        prints = {}
        for plans in (False, True):
            kernel = make_kernel("optimized")
            task = kernel.spawn_task(uid=0, gid=0)
            registry = kernel.costs.plans
            for i in range(registry.MAX_CELLS + 1):
                program = compile_trace(Trace([TraceEvent(
                    op="exists", args=(f"/missing{i}",))]))
                replay_compiled(kernel, task, program, plans=plans)
                assert len(registry._cells) <= registry.MAX_CELLS
            assert (len(registry._cells) > 0) == plans
            prints[plans] = _fingerprint(kernel)
        assert prints[True] == prints[False]
