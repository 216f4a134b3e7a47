"""Differential gate for the trace compiler and batched dispatch.

The contract under test: compiled replay is a pure *wall-clock*
optimization.  For any trace, ``replay_compiled(compile_trace(t))``
must drive the same syscalls in the same order and charge bit-identical
virtual costs — clock, per-primitive counts, Stats counters — as the
interpreted ``replay(t)`` on every kernel profile.  The same holds one
layer down for :meth:`Syscalls.batch` fast entries vs plain facade
calls.
"""

from __future__ import annotations

import random
import statistics
import sys
import time

import pytest

from repro import (O_APPEND, O_CREAT, O_DIRECTORY, O_RDONLY, O_RDWR,
                   O_WRONLY, errors, make_kernel)
from repro.bench import exp_replay
from repro.core.kernel import PROFILES
from repro.testing.dual import fingerprint
from repro.workloads.compile import (CompiledTrace, TraceCompileError,
                                     build_loop_trace, compile_trace)
from repro.workloads.traces import (ReplayDivergence, Trace, TraceEvent,
                                    TraceRecorder, plan_schedule, replay,
                                    replay_compiled, replay_interleaved)


def _assert_differential(trace, profiles=PROFILES, reps=1):
    """Interpreted replay, compiled replay and compiled replay without
    charge plans must be virtually identical."""
    program = compile_trace(trace)
    engines = (lambda k, t: replay(k, t, trace),
               lambda k, t: replay_compiled(k, t, program),
               lambda k, t: replay_compiled(k, t, program, plans=False))
    for profile in profiles:
        prints = []
        for engine in engines:
            kernel = make_kernel(profile)
            task = kernel.spawn_task(uid=0, gid=0)
            for _ in range(reps):
                engine(kernel, task)
            prints.append(fingerprint(kernel))
        assert prints[0] == prints[1] == prints[2], profile


def _record_mixed(kernel):
    """A scripted trace touching every row shape the compiler emits."""
    task = kernel.spawn_task(uid=0, gid=0)
    rec = TraceRecorder(kernel, task)
    rec.mkdir("/m")
    fd = rec.open("/m/a", O_CREAT | O_RDWR)
    rec.write(fd, b"0123456789abcdef")
    rec.lseek(fd, 4)
    rec.read(fd, 4)
    rec.fstat(fd)
    rec.compute(2_500)
    rec.close(fd)
    rec.stat("/m/a")
    with pytest.raises(errors.ENOENT):
        rec.stat("/m/nope")
    dfd = rec.open("/m", O_RDONLY | O_DIRECTORY)
    rec.fstatat("a", dirfd=dfd, follow=False)  # kwargs incl. fd marker
    rec.close(dfd)
    tmp_fd, tmp_name = rec.mkstemp("/m")  # pair-returning op
    rec.close(tmp_fd)
    rec.unlink(f"/m/{tmp_name}")
    rec.rename("/m/a", "/m/b")
    rec.unlink("/m/b")
    rec.rmdir("/m")
    return rec.trace


# -- compilation ----------------------------------------------------------

class TestCompile:
    def test_row_shapes(self):
        trace = _record_mixed(make_kernel("baseline"))
        program = compile_trace(trace)
        assert isinstance(program, CompiledTrace)
        assert len(program) == len(trace.events)
        assert program.slot_count == trace.slot_count()
        assert program.compile_wall_s > 0.0
        by_op = {program.op_table[row[0]]: row for row in program.rows}
        # fd-arg ops carry patch sites and list args.
        op_idx, args, patches, store, errno_exp, compute, pair = \
            by_op["read"]
        assert isinstance(args, list) and patches == ((0, 0),)
        assert store == -1 and errno_exp is None and not pair
        # open stores its returned fd; path-only args stay tuples.
        _i, args, patches, store, errno_exp, _c, _p = by_op["mkdir"]
        assert isinstance(args, tuple) and patches is None
        # mkstemp unpacks a pair.
        assert by_op["mkstemp"][6] is True
        assert by_op["mkstemp"][3] >= 0

    def test_write_payload_preencoded(self):
        trace = _record_mixed(make_kernel("baseline"))
        program = compile_trace(trace)
        writes = [row for row in program.rows
                  if program.op_table[row[0]] == "write"]
        assert writes and all(isinstance(row[1][1], bytes)
                              for row in writes)

    def test_kwargs_folded_positionally(self):
        trace = Trace([TraceEvent(op="fstatat", args=("a",),
                                  kwargs={"dirfd": ("fd", 0),
                                          "follow": False})])
        program = compile_trace(trace)
        (op_idx, args, patches, _s, _e, _c, _p), = program.rows
        # fstatat(task, path, dirfd=None, follow=True): folding places
        # the dirfd patch site at index 1 and follow at index 2.
        assert args[0] == "a" and args[2] is False
        assert patches == ((1, 0),)

    def test_rows_share_strings_without_interning_them(self):
        """Equal string arguments of one trace are one object, the
        trace's own: the interpreter's intern table (immortal strings on
        CPython 3.12) never holds a compiled path."""
        fresh = f"/fresh-{random.getrandbits(64)}"
        trace = Trace([TraceEvent(op="stat", args=(fresh,)),
                       TraceEvent(op="stat", args=(fresh[:3] + fresh[3:],))])
        first, second = (row[1][0] for row in compile_trace(trace).rows)
        assert first == fresh and first is second
        assert sys.intern(fresh[:2] + fresh[2:]) is not first

    def test_compute_gap_and_errno_lowered(self):
        trace = _record_mixed(make_kernel("baseline"))
        program = compile_trace(trace)
        assert any(row[5] == 2_500 for row in program.rows)
        assert any(row[4] is not None for row in program.rows)

    def test_unknown_op_raises(self):
        bogus = Trace([TraceEvent(op="frobnicate", args=())])
        with pytest.raises(TraceCompileError):
            compile_trace(bogus)

    def test_unknown_kwarg_raises(self):
        bogus = Trace([TraceEvent(op="stat", args=("/x",),
                                  kwargs={"nope": 1})])
        with pytest.raises(TraceCompileError):
            compile_trace(bogus)

    def test_missing_required_arg_raises(self):
        bogus = Trace([TraceEvent(op="rename", args=("/only-src",))])
        with pytest.raises(TraceCompileError):
            compile_trace(bogus)

    def test_drain_interleaves_rows(self):
        """A drain schedules rows: the tasks of its outermost syscalls,
        in order, are ``plan_schedule``'s picks over the streams' row
        counts, one syscall per pick."""
        kernel = make_kernel("baseline")
        streams = [(kernel.spawn_task(uid=0, gid=0),
                    compile_trace(build_loop_trace(
                        files=2, io_rounds=2, subdirs=1, root=f"/x{i}")))
                   for i in range(3)]
        sys, tasks, depth = kernel.sys, [], [0]

        def wrap(method):
            def call(task, *args, **kwargs):
                if not depth[0]:
                    tasks.append(task)
                depth[0] += 1
                try:
                    return method(task, *args, **kwargs)
                finally:
                    depth[0] -= 1
            return call

        for op in {op for _task, prog in streams for op in prog.op_table}:
            setattr(sys, op, wrap(getattr(sys, op)))
        replay_interleaved(kernel, streams, seed=5, plans=False)
        order, runs = plan_schedule(
            random.Random(5), [len(prog.rows) for _task, prog in streams])
        assert tasks == [streams[s][0]
                         for s, n in zip(order, runs) for _ in range(n)]


# -- engine differential --------------------------------------------------

class TestDifferential:
    def test_mixed_trace_identical(self):
        _assert_differential(_record_mixed(make_kernel("baseline")))

    def test_loop_trace_identical_across_reps(self):
        # Three reps on one kernel: the trace is self-undoing, so this
        # also pins deterministic fd numbering across replays.
        _assert_differential(build_loop_trace(files=6, io_rounds=6,
                                              subdirs=2), reps=3)

    def test_lowered_workloads_identical(self):
        """The ``replay`` experiment's own quick traces (lmbench,
        maildir, webserver): its table is engine-independent."""
        for trace in exp_replay._lower_all(quick=True).values():
            _assert_differential(trace)

    def test_serialized_trace_identical(self):
        trace = Trace.loads(
            _record_mixed(make_kernel("baseline")).dumps())
        _assert_differential(trace)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_mutation_heavy_schedules(self, seed):
        """20 seeded random schedules, heavy on mutations (the lazy
        profile's hard case), replayed by both engines on every
        profile."""
        rng = random.Random(0xC0F_FEE + seed)
        kernel = make_kernel("baseline")
        task = kernel.spawn_task(uid=0, gid=0)
        rec = TraceRecorder(kernel, task)
        rec.mkdir("/r")
        live_paths, open_fds, counter = [], [], [0]

        def new_path():
            counter[0] += 1
            return f"/r/f{counter[0]}"

        for _ in range(120):
            roll = rng.random()
            try:
                if roll < 0.22:  # create
                    path = new_path()
                    fd = rec.open(path, O_CREAT | O_RDWR)
                    live_paths.append(path)
                    open_fds.append(fd)
                elif roll < 0.38 and live_paths:  # rename (mutation)
                    src = rng.choice(live_paths)
                    dst = new_path()
                    rec.rename(src, dst)
                    live_paths[live_paths.index(src)] = dst
                elif roll < 0.50 and live_paths:  # unlink (mutation)
                    victim = rng.choice(live_paths)
                    rec.unlink(victim)
                    live_paths.remove(victim)
                elif roll < 0.62 and open_fds:  # fd traffic
                    fd = rng.choice(open_fds)
                    rec.write(fd, b"x" * rng.randrange(1, 16))
                    rec.lseek(fd, 0)
                    rec.fstat(fd)
                elif roll < 0.72 and open_fds:  # close
                    rec.close(open_fds.pop(rng.randrange(len(open_fds))))
                elif roll < 0.86:  # warm or missing stat
                    if live_paths and rng.random() < 0.6:
                        rec.stat(rng.choice(live_paths))
                    else:
                        rec.stat(f"/r/missing{rng.randrange(99)}")
                else:
                    rec.compute(float(rng.randrange(100, 5_000)))
            except errors.FsError:
                pass  # recorded with its errno; replay must match it
        for fd in open_fds:
            rec.close(fd)
        _assert_differential(rec.trace)

    def test_hypothesis_schedules(self):
        """Property test: record→compile→replay ≡ record→interpret→replay
        for arbitrary small op schedules."""
        from hypothesis import given, settings, strategies as st

        op_codes = st.lists(st.tuples(st.integers(0, 6),
                                      st.integers(0, 7)),
                            min_size=1, max_size=40)

        @given(codes=op_codes)
        @settings(max_examples=30, deadline=None)
        def schedule_matches(codes):
            kernel = make_kernel("baseline")
            task = kernel.spawn_task(uid=0, gid=0)
            rec = TraceRecorder(kernel, task)
            rec.mkdir("/h")
            fds = {}
            for code, arg in codes:
                try:
                    if code == 0:
                        fds[arg] = rec.open(f"/h/f{arg}",
                                            O_CREAT | O_RDWR)
                    elif code == 1 and arg in fds:
                        rec.write(fds[arg], b"data")
                    elif code == 2 and arg in fds:
                        rec.lseek(fds[arg], 0)
                        rec.read(fds[arg], 4)
                    elif code == 3 and arg in fds:
                        rec.close(fds.pop(arg))
                    elif code == 4:
                        rec.stat(f"/h/f{arg}")
                    elif code == 5:
                        rec.rename(f"/h/f{arg}", f"/h/r{arg}")
                    elif code == 6:
                        rec.unlink(f"/h/r{arg}")
                except errors.FsError:
                    pass
            for fd in fds.values():
                rec.close(fd)
            _assert_differential(rec.trace, profiles=("baseline",
                                                      "optimized"))

        schedule_matches()


# -- divergence + lenient mode --------------------------------------------

class TestCompiledDivergence:
    def _trace_expecting_enoent(self):
        kernel = make_kernel("baseline")
        task = kernel.spawn_task(uid=0, gid=0)
        rec = TraceRecorder(kernel, task)
        with pytest.raises(errors.ENOENT):
            rec.stat("/ghost")
        rec.mkdir("/made")
        return rec.trace

    def test_unexpected_success_is_divergence(self):
        trace = self._trace_expecting_enoent()
        program = compile_trace(trace)
        kernel = make_kernel("baseline")
        task = kernel.spawn_task(uid=0, gid=0)
        fd = kernel.sys.open(task, "/ghost", O_CREAT | O_RDWR)
        kernel.sys.close(task, fd)
        with pytest.raises(ReplayDivergence) as excinfo:
            replay_compiled(kernel, task, program)
        assert excinfo.value.index == 0
        assert excinfo.value.op == "stat"
        assert excinfo.value.actual_errno is None

    def test_unexpected_error_is_divergence_with_index(self):
        trace = self._trace_expecting_enoent()
        program = compile_trace(trace)
        kernel = make_kernel("baseline")
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, "/made")  # mkdir in the trace now EEXISTs
        with pytest.raises(ReplayDivergence) as excinfo:
            replay_compiled(kernel, task, program)
        assert excinfo.value.index == 1
        assert excinfo.value.op == "mkdir"
        assert excinfo.value.expected_errno is None
        assert excinfo.value.actual_errno is not None


# -- batch fast entries ---------------------------------------------------

class TestBatchEntries:
    def _drive(self, use_batch, profile):
        kernel = make_kernel(profile)
        task = kernel.spawn_task(uid=0, gid=0)
        if use_batch:
            batch = kernel.sys.batch(task)
            call = {op: getattr(batch, op)
                    for op in ("mkdir", "open", "close", "read", "write",
                               "lseek", "fstat", "stat", "unlink")}
        else:
            sys_ = kernel.sys
            call = {op: (lambda op=op: lambda *a:
                         getattr(sys_, op)(task, *a))()
                    for op in ("mkdir", "open", "close", "read", "write",
                               "lseek", "fstat", "stat", "unlink")}
        out = []
        call["mkdir"]("/d")
        fd = call["open"]("/d/f", O_CREAT | O_RDWR)
        out.append(call["write"](fd, b"hello world"))
        out.append(call["lseek"](fd, 0))
        out.append(call["read"](fd, 5))
        out.append(tuple(call["fstat"](fd)))
        for op, args in (("read", (99, 4)), ("write", (99, b"x")),
                         ("lseek", (99, 0)), ("fstat", (99,)),
                         ("close", (99,))):
            with pytest.raises(errors.EBADF) as excinfo:
                call[op](*args)
            out.append(str(excinfo.value))
        ro = call["open"]("/d/f", O_RDONLY)
        with pytest.raises(errors.EBADF):
            call["write"](ro, b"x")
        wo = call["open"]("/d/f", O_WRONLY)
        with pytest.raises(errors.EBADF):
            call["read"](wo, 4)
        dfd = call["open"]("/d", O_RDONLY | O_DIRECTORY)
        with pytest.raises(errors.EISDIR):
            call["read"](dfd, 4)
        ap = call["open"]("/d/f", O_WRONLY | O_APPEND)
        call["lseek"](ap, 0)
        out.append(call["write"](ap, b"!tail"))  # lands at EOF
        out.append(tuple(call["fstat"](fd)))
        for handle in (fd, ro, wo, dfd, ap):
            call["close"](handle)
        with pytest.raises(errors.EBADF):
            call["fstat"](fd)
        call["unlink"]("/d/f")
        return out, fingerprint(kernel)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_fast_entries_match_facade(self, profile):
        """Batch entries (close/lseek/fstat/read/write among them) are
        observationally identical to the facade: same results, same
        error types *and messages*, same virtual costs and Stats."""
        assert self._drive(True, profile) == self._drive(False, profile)

    def test_entries_cached_and_context_manager(self):
        kernel = make_kernel("baseline")
        task = kernel.spawn_task(uid=0, gid=0)
        with kernel.sys.batch(task) as batch:
            assert batch.stat is batch.stat  # cached after first access
            assert batch.fstat is batch.fstat
            assert batch.task is task
        with pytest.raises(AttributeError):
            batch._private


# -- wall-clock -----------------------------------------------------------

class TestWallClock:
    def test_compiled_replay_faster_than_interpreted(self):
        """The point of the compiler.  Typical ratio on the fd-heavy
        loop trace is 1.5–1.7x; assert a conservative 1.2x floor so a
        noisy CI host cannot flake the suite."""
        trace = build_loop_trace()
        program = compile_trace(trace)
        best = 0.0
        for profile in ("optimized", "baseline"):
            k1 = make_kernel(profile)
            t1 = k1.spawn_task(uid=0, gid=0)
            k2 = make_kernel(profile)
            t2 = k2.spawn_task(uid=0, gid=0)
            replay(k1, t1, trace)            # warm
            replay_compiled(k2, t2, program)
            interp, comp = [], []
            for _ in range(9):
                t0 = time.perf_counter()
                replay(k1, t1, trace)
                interp.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                replay_compiled(k2, t2, program)
                comp.append(time.perf_counter() - t0)
            ratio = statistics.median(interp) / statistics.median(comp)
            best = max(best, ratio)
            if best >= 1.2:
                break
        assert best >= 1.2, f"compiled replay only {best:.2f}x faster"

    def test_compile_time_reported_separately(self):
        trace = build_loop_trace(files=4, io_rounds=4, subdirs=2)
        program = compile_trace(trace)
        assert program.compile_wall_s > 0.0
