"""Trace record/replay tests (the §1 methodology)."""

from __future__ import annotations

import pytest

from repro import O_CREAT, O_DIRECTORY, O_RDONLY, O_RDWR, errors, make_kernel
from repro.workloads.traces import (PATH_LOOKUP_OPS, ReplayDivergence,
                                    Trace, TraceEvent, TraceRecorder, replay)


def _record_sample(kernel):
    task = kernel.spawn_task(uid=0, gid=0)
    rec = TraceRecorder(kernel, task)
    rec.mkdir("/proj")
    fd = rec.open("/proj/main.c", O_CREAT | O_RDWR)
    rec.write(fd, b"int main(){}")
    rec.compute(5_000)
    rec.close(fd)
    rec.stat("/proj/main.c")
    with pytest.raises(errors.ENOENT):
        rec.stat("/proj/missing.h")
    fd = rec.open("/proj", O_RDONLY | O_DIRECTORY)
    rec.getdents(fd, 100)
    rec.close(fd)
    rec.rename("/proj/main.c", "/proj/prog.c")
    return rec.trace


class TestRecording:
    def test_events_recorded_in_order(self):
        trace = _record_sample(make_kernel("baseline"))
        ops = [event.op for event in trace.events]
        assert ops == ["mkdir", "open", "write", "close", "stat", "stat",
                       "open", "getdents", "close", "rename"]

    def test_failed_call_records_errno(self):
        trace = _record_sample(make_kernel("baseline"))
        failed = [e for e in trace.events if e.errno is not None]
        assert len(failed) == 1
        import errno as std_errno
        assert failed[0].errno == std_errno.ENOENT

    def test_fd_slots_assigned(self):
        trace = _record_sample(make_kernel("baseline"))
        opens = [e for e in trace.events if e.op == "open"]
        assert [e.returns_fd_slot for e in opens] == [0, 1]
        close_events = [e for e in trace.events if e.op == "close"]
        assert close_events[0].args[0] == ["fd", 0] or \
            close_events[0].args[0] == ("fd", 0)

    def test_compute_attached_to_next_event(self):
        trace = _record_sample(make_kernel("baseline"))
        close_event = [e for e in trace.events if e.op == "close"][0]
        assert close_event.compute_ns == 5_000

    def test_stats(self):
        trace = _record_sample(make_kernel("baseline"))
        stats = trace.stats()
        assert stats.total_syscalls == 10
        assert stats.path_lookup_syscalls == 6  # mkdir,2xopen,2xstat,rename
        assert 0.5 < stats.path_lookup_fraction < 0.7
        assert stats.by_op["stat"] == 2
        assert stats.total_compute_ns == 5_000


class TestSerialization:
    def test_roundtrip(self):
        trace = _record_sample(make_kernel("baseline"))
        text = trace.dumps()
        restored = Trace.loads(text)
        assert len(restored) == len(trace)
        assert [e.op for e in restored.events] == \
            [e.op for e in trace.events]
        assert restored.events[1].returns_fd_slot == 0

    def test_event_json_roundtrip(self):
        event = TraceEvent(op="stat", args=("/x",), errno=2,
                           compute_ns=12.5)
        restored = TraceEvent.from_json(event.to_json())
        assert restored.op == "stat" and restored.args == ("/x",)
        assert restored.errno == 2 and restored.compute_ns == 12.5

    def test_nested_markers_survive_roundtrip(self):
        """fd markers nested in args AND kwargs re-tuple on load.

        The old from_json only re-tupled the top-level args list, so a
        reloaded trace held ``["fd", 0]`` lists where the original had
        ``("fd", 0)`` tuples — and compared unequal to itself.
        """
        event = TraceEvent(op="read", args=(("fd", 0), 100))
        kw_event = TraceEvent(op="fstatat", args=("name",),
                              kwargs={"dirfd": ("fd", 3), "follow": False})
        for original in (event, kw_event):
            restored = TraceEvent.from_json(original.to_json())
            assert restored == original
            for value in restored.args:
                assert not isinstance(value, list)
            for value in restored.kwargs.values():
                assert not isinstance(value, list)

    def test_dumps_loads_is_identity(self):
        trace = _record_sample(make_kernel("baseline"))
        reloaded = Trace.loads(trace.dumps())
        assert reloaded.events == trace.events
        # And idempotent at the text level.
        assert reloaded.dumps() == trace.dumps()

    def test_roundtrip_property(self):
        """Property test: dumps→loads is the identity for any
        JSON-representable, normalized event."""
        from hypothesis import given, settings, strategies as st

        scalars = st.one_of(
            st.integers(min_value=-2**31, max_value=2**31),
            st.text(max_size=12), st.booleans(), st.none())
        nested = st.recursive(
            scalars,
            lambda child: st.lists(child, max_size=3).map(tuple),
            max_leaves=6)

        @given(op=st.sampled_from(["stat", "read", "rename", "open"]),
               args=st.lists(nested, max_size=4).map(tuple),
               kwargs=st.dictionaries(
                   st.sampled_from(["dirfd", "follow", "mode"]),
                   nested, max_size=2),
               slot=st.one_of(st.none(), st.integers(0, 64)),
               errno=st.one_of(st.none(), st.integers(1, 40)),
               compute=st.floats(0, 1e9, allow_nan=False))
        @settings(max_examples=60, deadline=None)
        def roundtrip(op, args, kwargs, slot, errno, compute):
            event = TraceEvent(op=op, args=args, kwargs=kwargs,
                               returns_fd_slot=slot, errno=errno,
                               compute_ns=compute)
            line = Trace([event]).dumps()
            assert Trace.loads(line).events == [event]

        roundtrip()


class TestReplay:
    def test_replay_on_fresh_kernel(self):
        trace = _record_sample(make_kernel("baseline"))
        for profile in ("baseline", "optimized"):
            kernel = make_kernel(profile)
            task = kernel.spawn_task(uid=0, gid=0)
            replay(kernel, task, trace)
            assert kernel.sys.stat(task, "/proj/prog.c").size == 12

    def test_replay_after_serialization(self):
        trace = Trace.loads(_record_sample(make_kernel("baseline")).dumps())
        kernel = make_kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        replay(kernel, task, trace)
        assert kernel.sys.exists(task, "/proj/prog.c")

    def test_replay_detects_divergence(self):
        trace = _record_sample(make_kernel("baseline"))
        kernel = make_kernel("baseline")
        task = kernel.spawn_task(uid=0, gid=0)
        # Pre-create the file the trace expects to be missing.
        kernel.sys.mkdir(task, "/proj")
        fd = kernel.sys.open(task, "/proj/missing.h", O_CREAT | O_RDWR)
        kernel.sys.close(task, fd)
        # mkdir /proj will now fail where the recording succeeded.
        with pytest.raises(ReplayDivergence):
            replay(kernel, task, trace)

    def test_replay_gain_matches_direct_run(self):
        """A recorded workload replayed on both kernels shows the same
        winner as running it directly."""
        trace = _record_sample(make_kernel("baseline"))
        # Extend with a warm lookup storm so the fastpath matters.
        storm = Trace(trace.events + [
            TraceEvent(op="stat", args=("/proj/prog.c",))
            for _ in range(50)])
        times = {}
        for profile in ("baseline", "optimized"):
            kernel = make_kernel(profile)
            task = kernel.spawn_task(uid=0, gid=0)
            start = kernel.now_ns
            replay(kernel, task, storm)
            times[profile] = kernel.now_ns - start
        assert times["optimized"] < times["baseline"]

    def test_path_lookup_ops_subset_sane(self):
        assert "stat" in PATH_LOOKUP_OPS
        assert "read" not in PATH_LOOKUP_OPS
        assert "getdents" not in PATH_LOOKUP_OPS

    def test_divergence_carries_structure(self):
        """ReplayDivergence is typed: index/op/errnos, not a bare
        AssertionError message to parse."""
        trace = _record_sample(make_kernel("baseline"))
        kernel = make_kernel("baseline")
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, "/proj")
        fd = kernel.sys.open(task, "/proj/missing.h", O_CREAT | O_RDWR)
        kernel.sys.close(task, fd)
        with pytest.raises(ReplayDivergence) as excinfo:
            replay(kernel, task, trace)
        exc = excinfo.value
        assert exc.index == 0 and exc.op == "mkdir"
        assert exc.expected_errno is None
        assert exc.actual_errno is not None
        assert isinstance(exc, AssertionError)  # old except clauses work

    def test_compute_charged_before_erroring_event(self):
        """A compute gap attached to an event that errors is charged
        before the call — the clock advances whether or not the event
        succeeds."""
        kernel = make_kernel("baseline")
        task = kernel.spawn_task(uid=0, gid=0)
        rec = TraceRecorder(kernel, task)
        rec.compute(7_000)
        with pytest.raises(errors.ENOENT):
            rec.stat("/nope")
        trace = rec.trace
        assert trace.events[-1].compute_ns == 7_000
        fresh = make_kernel("baseline")
        ftask = fresh.spawn_task(uid=0, gid=0)
        before = fresh.costs.now_ns
        replay(fresh, ftask, trace)
        assert fresh.costs.now_ns - before >= 7_000
