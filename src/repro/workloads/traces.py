"""Syscall trace recording and replay (iBench-style, §1).

The paper motivates its work with syscall traces: "between 10-20% of all
system calls in the iBench system call traces do a path lookup."  This
module gives the reproduction the same methodology: record a workload's
syscall stream once (with per-event compute gaps), then replay it
verbatim against any kernel configuration and compare.

File descriptors are kernel-local, so traces store *fd slots*: the
recorder maps each returned fd to a dense slot id, and replay remaps
slots to the fds its own kernel returns.  Traces serialize to JSON lines
for storage and diffing.

Two engines replay: :func:`replay` interprets a trace event by event,
and :func:`replay_interleaved` drains any number of compiled streams
(:mod:`repro.workloads.compile`) through one row loop and one
charge-plan protocol; :func:`replay_compiled` is its one-stream call.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import errors
from repro.core.kernel import Kernel
from repro.sim.costs import ChargePlan, Recording
from repro.testing.scheduler import StreamScheduler
from repro.vfs.task import Task

#: Syscalls that perform a path lookup (the §1 statistic).
PATH_LOOKUP_OPS = frozenset([
    "stat", "lstat", "fstatat", "access", "open", "openat", "mkdir",
    "rmdir", "unlink", "rename", "chmod", "chown", "symlink", "link",
    "readlink", "chdir", "truncate",
])

#: Argument positions (per op) holding fd slots, for remapping.  The fd
#: is always args[0] for these ops (for ``openat`` it is the dirfd).
_FD_ARG_OPS = frozenset(["close", "read", "write", "lseek", "ftruncate",
                         "getdents", "fstat", "fchdir", "readdir",
                         "openat"])

#: Primitives a clean charge-plan capture may contain.  This whitelist
#: is the soundness boundary: the plannable fd syscalls
#: (``lseek``/``fstat``, see ``vfs/syscalls.py``) charge only these,
#: and both are state-independent constants once the apply-time guards
#: hold.  Any other primitive in a capture — a sweeper batch that fired
#: mid-segment, a future charge added to those syscalls — rejects the
#: capture, so plans fail closed.
_PLAN_SAFE_PRIMITIVES = frozenset(["syscall_fixed", "stat_fill"])


def _capture_clean(rec: Recording) -> bool:
    """May this segment recording become (or confirm) a plan?  Only
    unscoped whitelisted primitives and app compute, and no
    resolution-side (LRU/PCC) touches."""
    if rec.lru or rec.pcc:
        return False
    vector = rec.vector
    return all(scope is None and primitive in _PLAN_SAFE_PRIMITIVES
               for scope, primitive in vector.charges) \
        and all(hint == "app_compute" for _scope, hint in vector.raw)


def _normalize(value: Any) -> Any:
    """Recursively turn JSON sequences back into tuples.

    ``json`` round-trips every tuple as a list; re-tupling only the top
    level left nested markers like ``("fd", 3)`` as lists after a
    dumps/loads cycle, so a reloaded trace compared unequal to the
    original.  Normalizing recursively makes dumps→loads the identity.
    """
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(v) for v in value)
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    return value


@dataclass
class TraceEvent:
    """One recorded syscall (or compute gap)."""

    op: str
    args: Tuple[Any, ...]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Slot id assigned to a returned fd (open/openat/mkstemp).
    returns_fd_slot: Optional[int] = None
    #: errno when the recorded call failed (replay must match).
    errno: Optional[int] = None
    #: Application compute charged before this call (virtual ns).
    compute_ns: float = 0.0

    def to_json(self) -> str:
        return json.dumps({
            "op": self.op, "args": list(self.args),
            "kwargs": self.kwargs, "fd_slot": self.returns_fd_slot,
            "errno": self.errno, "compute_ns": self.compute_ns,
        })

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        raw = json.loads(line)
        return cls(op=raw["op"], args=_normalize(raw["args"]),
                   kwargs={k: _normalize(v)
                           for k, v in raw.get("kwargs", {}).items()},
                   returns_fd_slot=raw.get("fd_slot"),
                   errno=raw.get("errno"),
                   compute_ns=raw.get("compute_ns", 0.0))


@dataclass
class TraceStats:
    """Aggregate statistics over a trace (the §1 measurements)."""

    total_syscalls: int
    path_lookup_syscalls: int
    by_op: Dict[str, int]
    total_compute_ns: float

    @property
    def path_lookup_fraction(self) -> float:
        if self.total_syscalls == 0:
            return 0.0
        return self.path_lookup_syscalls / self.total_syscalls


class Trace:
    """An ordered stream of recorded syscalls."""

    def __init__(self, events: Optional[List[TraceEvent]] = None):
        self.events: List[TraceEvent] = events or []

    def slot_count(self) -> int:
        """Number of fd slots a replay must provision for this trace."""
        highest = -1
        for event in self.events:
            if event.returns_fd_slot is not None \
                    and event.returns_fd_slot > highest:
                highest = event.returns_fd_slot
            for value in event.args:
                if isinstance(value, tuple) and len(value) == 2 \
                        and value[0] == "fd" and value[1] > highest:
                    highest = value[1]
            for value in event.kwargs.values():
                if isinstance(value, tuple) and len(value) == 2 \
                        and value[0] == "fd" and value[1] > highest:
                    highest = value[1]
        return highest + 1

    def stats(self) -> TraceStats:
        by_op: Dict[str, int] = {}
        path_calls = 0
        compute = 0.0
        for event in self.events:
            by_op[event.op] = by_op.get(event.op, 0) + 1
            if event.op in PATH_LOOKUP_OPS:
                path_calls += 1
            compute += event.compute_ns
        return TraceStats(total_syscalls=len(self.events),
                          path_lookup_syscalls=path_calls,
                          by_op=by_op, total_compute_ns=compute)

    # -- persistence ---------------------------------------------------------

    def dumps(self) -> str:
        return "\n".join(event.to_json() for event in self.events)

    @classmethod
    def loads(cls, text: str) -> "Trace":
        return cls([TraceEvent.from_json(line)
                    for line in text.splitlines() if line.strip()])

    def __len__(self) -> int:
        return len(self.events)


class TraceRecorder:
    """Record syscalls as they execute on a live kernel.

    Use it like the syscall facade; every call is executed *and*
    recorded.  Compute gaps are recorded with :meth:`compute`.
    """

    def __init__(self, kernel: Kernel, task: Task):
        self._kernel = kernel
        self._task = task
        self.trace = Trace()
        self._fd_slots: Dict[int, int] = {}
        self._next_slot = 0
        self._pending_compute = 0.0

    def compute(self, ns: float) -> None:
        """Record (and charge) an application compute gap."""
        self._kernel.costs.charge_ns("app_compute", ns)
        self._pending_compute += ns

    def __getattr__(self, op: str):
        method = getattr(self._kernel.sys, op)

        def wrapper(*args, **kwargs):
            event = TraceEvent(op=op, args=self._encode(op, args),
                               kwargs=self._encode_kwargs(kwargs),
                               compute_ns=self._pending_compute)
            self._pending_compute = 0.0
            try:
                result = method(self._task, *args, **kwargs)
            except errors.FsError as exc:
                event.errno = exc.errno
                self.trace.events.append(event)
                raise
            if op in ("open", "openat"):
                event.returns_fd_slot = self._assign_slot(result)
            elif op == "mkstemp":
                event.returns_fd_slot = self._assign_slot(result[0])
            self.trace.events.append(event)
            return result

        return wrapper

    def _assign_slot(self, fd: int) -> int:
        slot = self._next_slot
        self._next_slot += 1
        self._fd_slots[fd] = slot
        return slot

    def _encode(self, op: str, args: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """Replace fd arguments with their slots for portability."""
        if op in _FD_ARG_OPS and args:
            fd = args[0]
            return (("fd", self._fd_slots[fd]),) + tuple(
                a.decode("latin-1") if isinstance(a, bytes) else a
                for a in args[1:])
        return tuple(a.decode("latin-1") if isinstance(a, bytes) else a
                     for a in args)

    def _encode_kwargs(self, kwargs: Dict[str, Any]) -> Dict[str, Any]:
        out = {}
        for key, value in kwargs.items():
            if key == "dirfd" and value is not None:
                out[key] = ("fd", self._fd_slots[value])
            elif isinstance(value, (str, int, float, bool, type(None))):
                out[key] = value
            # Non-serializable kwargs (e.g. an rng) are dropped; replay
            # uses the callee's deterministic default.
        return out


class ReplayDivergence(AssertionError):
    """A replayed call's outcome diverged from the recording.

    Carries enough structure for callers to triage programmatically:
    the event index within the trace, the op name, and the recorded vs
    observed errno (``None`` means success).
    """

    def __init__(self, index: int, op: str,
                 expected_errno: Optional[int],
                 actual_errno: Optional[int],
                 detail: str = ""):
        self.index = index
        self.op = op
        self.expected_errno = expected_errno
        self.actual_errno = actual_errno
        super().__init__(
            f"event {index} ({op}): recorded errno={expected_errno}, "
            f"replayed errno={actual_errno}" + (f" [{detail}]" if detail
                                                else ""))


def replay(kernel: Kernel, task: Task, trace: Trace) -> None:
    """Replay a trace against a kernel, checking outcomes.

    A call that succeeded at record time must succeed at replay time and
    vice versa (matching errno, else :class:`ReplayDivergence`).
    Per-event application compute is charged *before* the call,
    unconditionally — error events carry their preceding compute gap
    too, so the virtual clock advances identically whether an event
    succeeds or fails.
    """
    slot_fds: List[int] = [-1] * trace.slot_count()
    charge_ns = kernel.costs.charge_ns
    sys_facade = kernel.sys

    def decode(value):
        if isinstance(value, tuple) and len(value) == 2 \
                and value[0] == "fd":
            return slot_fds[value[1]]
        return value

    for index, event in enumerate(trace.events):
        if event.compute_ns:
            charge_ns("app_compute", event.compute_ns)
        args = tuple(decode(a) for a in event.args)
        if event.op == "write" and len(args) == 2 \
                and isinstance(args[1], str):
            args = (args[0], args[1].encode("latin-1"))
        kwargs = {k: decode(v) for k, v in event.kwargs.items()}
        method = getattr(sys_facade, event.op)
        try:
            result = method(task, *args, **kwargs)
        except errors.FsError as exc:
            if exc.errno != event.errno:
                raise ReplayDivergence(index, event.op, event.errno,
                                       exc.errno, f"args={args!r}")
            continue
        if event.errno is not None:
            raise ReplayDivergence(index, event.op, event.errno, None,
                                   f"args={args!r}")
        if event.returns_fd_slot is not None:
            fd = result[0] if event.op == "mkstemp" else result
            slot_fds[event.returns_fd_slot] = fd


# ---------------------------------------------------------------------------
# Compiled replay engine
# ---------------------------------------------------------------------------


def _plan_unit(registry, cell, costs, stats, run: Callable[[], None],
               guard: Callable[[ChargePlan], bool],
               vouch: Callable[[Recording], Any],
               settle: Callable[[bool], None]) -> None:
    """Execute one replay unit through the charge-plan protocol.

    Never capture into, or apply under, someone else's recording or
    attribution scope: :meth:`CostModel.apply` bypasses the recorder, so
    a plan applied inside a recording would vanish from it — a
    segment's from the recording of the drain around it.

    ``cell`` (:class:`~repro.sim.costs.PlanCell`) goes warm → record →
    confirm on the second identical capture → apply while ``guard(plan)``
    holds; a generation bump or ``MAX_FAIL_STREAK`` guard failures in a
    row send it back to warm, ``MAX_RETRIES`` bad captures kill it.
    ``run`` executes the unit interpreted.  ``vouch(rec)`` is what a
    recorded run joins to its ``(vector, stat_deltas)`` capture, falsy
    when the recording may not become a plan.  ``settle(applied)``
    follows an apply and a vouched capture — never a fallback run,
    which leaves the kernel in a state no capture has seen.
    """
    if costs.recorder is not None or costs._scope_stack or cell.dead:
        run()
        return
    plan = cell.plan
    if plan is not None:
        if plan.gen != registry.gen:
            registry.invalidated += 1
            cell.reset()
        elif guard(plan):
            costs.apply(plan.vector)
            if plan.stat_deltas:
                stats.bump_many(plan.stat_deltas)
            cell.fail_streak = 0
            registry.applied += 1
            settle(True)
            return
        else:
            registry.fallbacks += 1
            cell.fail_streak += 1
            if cell.fail_streak >= registry.MAX_FAIL_STREAK:
                registry.invalidated += 1
                cell.reset()
        run()
        return
    n = cell.execs
    cell.execs = n + 1
    if n < registry.WARMUP:
        run()
        return
    with Recording(costs, stats) as rec:
        run()
    state = vouch(rec)
    capture = (rec.vector, rec.stat_deltas, state)
    if state and cell.pending == capture:
        cell.pending = None
        cell.plan = ChargePlan(rec.vector, rec.stat_deltas, registry.gen)
        registry.compiled += 1
    else:
        # An unvouched or mismatched capture burns a retry.
        if not state or cell.pending is not None:
            cell.retries += 1
            cell.dead = cell.retries > registry.MAX_RETRIES
        cell.pending = capture if state and not cell.dead else None
    if state:
        settle(False)


def _drain_state(streams) -> Optional[tuple]:
    """What a whole drain must leave as it found it for its plan to be
    sound: every task's fd table and the contents of every file system
    the tasks can reach.  ``None`` when one of those cannot vouch for
    its contents (:meth:`~repro.fs.base.FileSystem.state_digest`).
    """
    tasks = [task for task, _program in streams]
    filesystems = {id(mount.fs): mount.fs
                   for task in tasks for mount in task.ns.mounts}
    digests = [fs.state_digest() for fs in filesystems.values()]
    if None in digests:
        return None
    return [tuple(task.fds._files) for task in tasks], digests


@functools.lru_cache(maxsize=64)
def _drain_schedule(seed: int, unit_counts: tuple):
    # Module scope is the right scope: a schedule depends on nothing but
    # ``(seed, unit_counts)``, and the multi-tenant benchmarks replay the
    # same stream population on a fresh kernel per session.
    return StreamScheduler(seed).plan_schedule(unit_counts)


class _StreamState:
    """One stream's bound replay state, advanced a run of units at a time.

    Construction binds everything the drain loop needs — the prebound
    batch method table, the fd slot table, the program's unit table and
    this ``(task, program)``'s per-segment plan cells — so advancing is
    attribute-local work with no per-unit rebinding.
    """

    __slots__ = ("methods", "slot_fds", "units", "cursor", "cells",
                 "segments", "registry", "costs", "stats", "ticker",
                 "files", "rows", "op_table")

    def __init__(self, kernel: Kernel, task: Task, program, registry):
        batch = kernel.sys.batch(task)
        self.methods = [getattr(batch, name) for name in program.op_table]
        self.slot_fds: List[int] = [-1] * program.slot_count
        self.units = program.units
        self.cursor = 0
        self.costs = kernel.costs
        self.stats = kernel.stats
        sweeper = kernel.sweeper
        self.ticker = sweeper.ticker if sweeper is not None else None
        self.files = task.fds._files
        self.rows = program.rows
        self.op_table = program.op_table
        self.segments = program.plan_segments
        self.registry = registry
        self.cells = ([registry.cell("segment", task, program, seg.shape)
                       for seg in self.segments]
                      if registry is not None and self.segments else None)

    def run_rows(self, lo: int, hi: int) -> None:
        """Interpreted execution of rows ``[lo, hi)`` (the slow path)."""
        rows = self.rows
        methods = self.methods
        slot_fds = self.slot_fds
        charge_ns = self.costs.charge_ns
        op_table = self.op_table
        fs_error = errors.FsError
        index = lo
        try:
            for index in range(lo, hi):
                op_idx, args, patches, store, errno_exp, compute, pair \
                    = rows[index]
                if compute:
                    charge_ns("app_compute", compute)
                if patches is not None:
                    for arg_idx, slot in patches:
                        args[arg_idx] = slot_fds[slot]
                if errno_exp is None:
                    result = methods[op_idx](*args)
                    if store >= 0:
                        slot_fds[store] = result[0] if pair else result
                else:
                    try:
                        methods[op_idx](*args)
                    except fs_error as exc:
                        if exc.errno != errno_exp:
                            raise ReplayDivergence(
                                index, op_table[op_idx], errno_exp,
                                exc.errno,
                                f"args={tuple(args)!r}") from exc
                    else:
                        raise ReplayDivergence(
                            index, op_table[op_idx], errno_exp, None,
                            f"args={tuple(args)!r}")
        except ReplayDivergence:
            raise
        except fs_error as exc:
            raise ReplayDivergence(index, op_table[rows[index][0]], None,
                                   exc.errno) from exc

    def advance(self, n: int) -> None:
        """Execute the next ``n`` units of this stream: each plannable
        segment through the plan protocol, every run of rows between
        them as one :meth:`run_rows`.
        """
        units = self.units
        cursor = self.cursor
        self.cursor = end = cursor + n
        lo = units[cursor][0]
        if self.cells is not None:
            for u in range(cursor, end):
                start, stop, seg_i = units[u]
                if seg_i >= 0:
                    if lo < start:
                        self.run_rows(lo, start)
                    self._segment(seg_i, start, stop)
                    lo = stop
        hi = units[end - 1][1]
        if lo < hi:
            self.run_rows(lo, hi)

    def _segment(self, seg_i: int, lo: int, hi: int) -> None:
        """One plannable segment as a plan unit.  Its plan applies with
        every guarded fd open, a live inode where ``fstat`` needs one and
        no directory where ``lseek`` must not find one, and no sweeper
        deadline inside the plan's ticks; the final seeks follow.
        """
        seg = self.segments[seg_i]
        files = self.files
        slot_fds = self.slot_fds
        ticker = self.ticker

        def guard(plan: ChargePlan) -> bool:
            for slot, need_inode, need_not_dir in seg.guards:
                f = files.get(slot_fds[slot])
                if f is None or f.closed:
                    return False
                inode = f.pos.dentry.inode
                if inode is None:
                    if need_inode:
                        return False
                elif need_not_dir and inode.is_dir:
                    return False
            return ticker is None \
                or not ticker.fires_within(plan.vector.ticks)

        def settle(applied: bool) -> None:
            if applied:
                for slot, offset in seg.seeks:
                    files[slot_fds[slot]].offset = offset

        _plan_unit(self.registry, self.cells[seg_i], self.costs, self.stats,
                   lambda: self.run_rows(lo, hi), guard, _capture_clean,
                   settle)


def replay_compiled(kernel: Kernel, task: Task, program,
                    plans: Optional[bool] = None) -> None:
    """Execute a :class:`~repro.workloads.compile.CompiledTrace`: the
    one-stream :func:`replay_interleaved`.

    Semantically identical to :func:`replay` of the source trace —
    same syscalls, same order, same compute charges, hence identical
    virtual costs and Stats (``tests/test_compiled_replay.py`` is the
    differential gate) — but the per-event interpretation work is gone:
    op dispatch is an index into a prebound method table (built once per
    replay from a :meth:`~repro.vfs.syscalls.Syscalls.batch` prologue),
    args are prefolded tuples, fd remaps are precomputed patch sites,
    and the errno check is branch-on-None.
    """
    replay_interleaved(kernel, ((task, program),), plans=plans)


def replay_interleaved(kernel: Kernel, streams, seed: int = 0,
                       plans: Optional[bool] = None) -> None:
    """Replay multiple compiled programs interleaved on one kernel.

    ``streams`` is a sequence of ``(task, program)`` pairs.  Each
    program's rows execute in order, but the streams advance in a
    seeded pseudo-random interleaving at plan-unit granularity (a
    plannable segment is one unit, every other row is its own unit) —
    the multi-tenant server shape: per-tenant request streams sharing
    one directory cache.  Deterministic: the same (streams, seed)
    always produces the same interleaving, virtual costs and Stats.
    The schedule is precomputed as flat (stream, run-length) arrays by
    :meth:`~repro.testing.scheduler.StreamScheduler.plan_schedule`, so
    consecutive picks of one stream cost a single dispatch.

    The charge-plan layer (:func:`_plan_unit`; ``plans=False`` turns it
    off, ``None``, the default, means on) never changes virtual output
    — ``tests/test_charge_plans.py`` and ``tests/test_server_fleet.py``
    are the differential gates — and plans two kinds of unit.  The
    *whole drain*, replayed back to back on a quiescent kernel (the
    benchmark shape), applies while the clock equals the state its last
    capture or apply ended on — any interleaving syscall moves it off —
    and its capture carries :func:`_drain_state`, so two equal captures
    prove the drain leaves the state it found.  Under a lazy sweeper a
    drain's charges never repeat (fixed virtual deadlines drift modulo
    drain length), so this needs a kernel without one.  A *plannable
    segment* (``program.plan_segments``) applies under per-fd guards
    inside any drain that runs interpreted.
    """
    streams = list(streams)
    costs = kernel.costs
    registry = costs.plans if plans is None or plans else None

    def drain() -> None:
        states = [_StreamState(kernel, task, prog, registry)
                  for task, prog in streams]
        order, runs = _drain_schedule(
            seed, tuple(len(prog.units) for _task, prog in streams))
        advances = [state.advance for state in states]
        for i, s in enumerate(order):
            advances[s](runs[i])

    if registry is None or kernel.sweeper is not None:
        drain()
        return
    cell = registry.cell(seed, *chain.from_iterable(streams))
    clock = costs.clock

    def settle(_applied: bool) -> None:
        cell.armed_now = clock.capture_state()

    _plan_unit(registry, cell, costs, kernel.stats, drain,
               lambda _plan: clock.capture_state() == cell.armed_now,
               lambda _rec: _drain_state(streams), settle)
