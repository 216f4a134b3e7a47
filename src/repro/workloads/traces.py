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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import errors
from repro.core.kernel import Kernel
from repro.sim.costs import ChargePlan, Recording
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
#: is the soundness boundary: the fd fast entries for the plannable ops
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


#: Backwards-compatible alias (pre-compiler name).
ReplayMismatch = ReplayDivergence


def replay(kernel: Kernel, task: Task, trace: Trace,
           strict: bool = True) -> None:
    """Replay a trace against a kernel, checking outcomes.

    With ``strict``, a call that succeeded at record time must succeed at
    replay time and vice versa (matching errno, else
    :class:`ReplayDivergence`).  Per-event application compute is charged
    *before* the call, unconditionally — error events carry their
    preceding compute gap too, so the virtual clock advances identically
    whether an event succeeds or fails.
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
            if strict and exc.errno != event.errno:
                raise ReplayDivergence(index, event.op, event.errno,
                                       exc.errno, f"args={args!r}")
            continue
        if strict and event.errno is not None:
            raise ReplayDivergence(index, event.op, event.errno, None,
                                   f"args={args!r}")
        if event.returns_fd_slot is not None:
            fd = result[0] if event.op == "mkstemp" else result
            slot_fds[event.returns_fd_slot] = fd


# ---------------------------------------------------------------------------
# Compiled replay engine
# ---------------------------------------------------------------------------


def _reject(registry, cell) -> None:
    """Burn one of ``cell``'s capture retries; the last kills it."""
    cell.pending = None
    cell.retries += 1
    if cell.retries > registry.MAX_RETRIES:
        cell.dead = True


def _confirmed(registry, cell, capture: tuple) -> bool:
    """The confirm-on-second-identical-run step every plan kind shares:
    True when ``capture`` equals the one staged by the previous recorded
    run, else it is staged in turn (a mismatch burns a retry)."""
    if cell.pending == capture:
        cell.pending = None
        cell.fail_streak = 0
        registry.compiled += 1
        return True
    if cell.pending is not None:
        _reject(registry, cell)
    if not cell.dead:
        cell.pending = capture
    return False


#: Static unit tables keyed by (id(program), fine) with identity check.
#: A unit is a half-open row range plus the index of the plan segment it
#: covers (-1 for gap rows).  ``fine=True`` splits gaps into single-row
#: units — the granularity the interleaved scheduler picks at — while
#: ``fine=False`` keeps gaps as one unit each for single-stream replay.
_UNIT_CACHE: Dict[Tuple[int, bool], Tuple[Any, tuple]] = {}
_UNIT_CACHE_MAX = 256


def _unit_table(program, fine: bool) -> tuple:
    key = (id(program), fine)
    entry = _UNIT_CACHE.get(key)
    if entry is not None and entry[0] is program:
        return entry[1]
    segments = getattr(program, "plan_segments", ()) or ()
    units: List[Tuple[int, int, int]] = []
    pos = 0
    for seg_i, seg in enumerate(segments):
        start = seg.start
        if pos < start:
            if fine:
                units.extend((i, i + 1, -1) for i in range(pos, start))
            else:
                units.append((pos, start, -1))
        units.append((start, seg.end, seg_i))
        pos = seg.end
    n = len(program.rows)
    if pos < n:
        if fine:
            units.extend((i, i + 1, -1) for i in range(pos, n))
        else:
            units.append((pos, n, -1))
    if len(_UNIT_CACHE) >= _UNIT_CACHE_MAX:
        _UNIT_CACHE.clear()
    _UNIT_CACHE[key] = (program, tuple(units))
    return _UNIT_CACHE[key][1]


#: Precomputed interleaving schedules keyed by (seed, unit counts).  The
#: schedule depends on nothing else, and the multi-tenant benchmarks
#: replay the same stream population thousands of times.
_SCHEDULE_CACHE: Dict[Any, Tuple[List[int], List[int]]] = {}
_SCHEDULE_CACHE_MAX = 64


def _drain_schedule(seed: int, unit_counts: tuple):
    key = (seed, unit_counts)
    hit = _SCHEDULE_CACHE.get(key)
    if hit is None:
        from repro.testing.scheduler import StreamScheduler
        if len(_SCHEDULE_CACHE) >= _SCHEDULE_CACHE_MAX:
            _SCHEDULE_CACHE.clear()
        hit = StreamScheduler(seed).plan_schedule(unit_counts)
        _SCHEDULE_CACHE[key] = hit
    return hit


class _StreamState:
    """One stream's bound replay state, advanced a run of units at a time.

    Construction binds everything the drain loop needs — the prebound
    batch method table, the fd slot table, the static unit table and the
    (possibly shape-shared) per-segment plan cells — so advancing is
    attribute-local work with no per-unit rebinding.  The interleaved
    drain keeps per-stream state in parallel arrays and dispatches one
    :meth:`advance` per scheduled run.
    """

    __slots__ = ("kernel", "task", "program", "methods", "slot_fds",
                 "units", "cursor", "cells", "segments", "registry",
                 "costs", "stats", "ticker", "files", "rows",
                 "op_table")

    def __init__(self, kernel: Kernel, task: Task, program, registry,
                 fine: bool):
        self.kernel = kernel
        self.task = task
        self.program = program
        batch = kernel.sys.batch(task)
        self.methods = [getattr(batch, name) for name in program.op_table]
        self.slot_fds: List[int] = [-1] * program.slot_count
        self.units = _unit_table(program, fine)
        self.cursor = 0
        self.costs = kernel.costs
        self.stats = kernel.stats
        sweeper = kernel.sweeper
        self.ticker = sweeper.ticker if sweeper is not None else None
        self.files = task.fds._files
        self.rows = program.rows
        self.op_table = program.op_table
        self.segments = getattr(program, "plan_segments", ()) or ()
        self.registry = registry
        self.cells = (registry.cells(program, self.segments)
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
        """Execute the next ``n`` units of this stream."""
        units = self.units
        cursor = self.cursor
        self.cursor = end = cursor + n
        cells = self.cells
        for u in range(cursor, end):
            lo, hi, seg_i = units[u]
            if seg_i >= 0 and cells is not None:
                self._segment_unit(self.segments[seg_i], cells[seg_i],
                                   lo, hi)
            else:
                self.run_rows(lo, hi)

    def _segment_unit(self, seg, cell, lo: int, hi: int) -> None:
        """Run one plannable segment through the charge-plan protocol."""
        registry = self.registry
        costs = self.costs
        plan = cell.plan
        if plan is not None:
            if plan.gen == registry.gen:
                task_key = id(self.task)
                if task_key not in cell.tasks:
                    self._confirm_task(plan, cell, lo, hi, task_key)
                    return
                ok = not costs._scope_stack
                files = self.files
                slot_fds = self.slot_fds
                if ok:
                    for slot, need_inode, need_not_dir in seg.guards:
                        f = files.get(slot_fds[slot])
                        if f is None or f.closed:
                            ok = False
                            break
                        if need_inode:
                            inode = f.pos.dentry.inode
                            if inode is None or (need_not_dir
                                                 and inode.is_dir):
                                ok = False
                                break
                ticker = self.ticker
                if ok and ticker is not None \
                        and ticker.fires_within(plan.vector.ticks):
                    ok = False
                if ok:
                    costs.apply(plan.vector)
                    if plan.stat_deltas:
                        self.stats.bump_many(plan.stat_deltas)
                    for slot, offset in seg.seeks:
                        files[slot_fds[slot]].offset = offset
                    registry.applied += 1
                    cell.fail_streak = 0
                    return
                registry.fallbacks += 1
                cell.fail_streak += 1
                if cell.fail_streak >= registry.MAX_FAIL_STREAK:
                    registry.invalidated += 1
                    cell.reset()
            else:
                registry.invalidated += 1
                cell.reset()
            self.run_rows(lo, hi)
            return
        if cell.dead or costs.recorder is not None:
            self.run_rows(lo, hi)
            return
        n = cell.execs
        cell.execs = n + 1
        if n < registry.WARMUP:
            self.run_rows(lo, hi)
            return
        with Recording(costs, self.stats) as rec:
            self.run_rows(lo, hi)
        if not _capture_clean(rec):
            _reject(registry, cell)
        elif _confirmed(registry, cell, (rec.vector, rec.stat_deltas)):
            cell.plan = ChargePlan(rec.vector, rec.stat_deltas, registry.gen)
            cell.tasks = {id(self.task): self.task}

    def _confirm_task(self, plan, cell, lo: int, hi: int,
                      task_key: int) -> None:
        """Admit this task to a shape-shared plan iff its run matches.

        Segment cells are shared across tasks by charge shape
        (:meth:`~repro.sim.costs.ChargePlanRegistry.cells`), so the
        first execution on each *new* task runs interpreted under a
        recorder and its charge vector and Stats deltas are compared
        with the plan's.  A match admits the task — subsequent
        executions apply the shared plan under the usual guards.  An
        unclean recording (a sweep batch fired mid-run, an LRU/PCC
        touch) gives no verdict either way; a *clean* mismatch means
        the shape key failed to predict this task's charges, and the
        cell goes back through the full capture cycle.
        """
        registry = self.registry
        with Recording(self.costs, self.stats) as rec:
            self.run_rows(lo, hi)
        if rec.vector == plan.vector \
                and rec.stat_deltas == plan.stat_deltas:
            cell.tasks[task_key] = self.task
            registry.task_confirms += 1
        elif not _capture_clean(rec):
            registry.fallbacks += 1
        else:
            registry.invalidated += 1
            cell.reset()


def _run_stream(kernel: Kernel, task: Task, program, registry) -> None:
    """Replay one full program as a single stream (coarse gap units)."""
    state = _StreamState(kernel, task, program, registry, fine=False)
    state.advance(len(state.units))


def replay_compiled(kernel: Kernel, task: Task, program,
                    strict: bool = True,
                    plans: Optional[bool] = None) -> None:
    """Execute a :class:`~repro.workloads.compile.CompiledTrace`.

    Semantically identical to :func:`replay` of the source trace —
    same syscalls, same order, same compute charges, hence identical
    virtual costs and Stats (``tests/test_compiled_replay.py`` is the
    differential gate) — but the per-event interpretation work is gone:
    op dispatch is an index into a prebound method table (built once per
    replay from a :meth:`~repro.vfs.syscalls.Syscalls.batch` prologue),
    args are prefolded tuples, fd remaps are precomputed patch sites,
    and the errno check is branch-on-None.

    On strict replays the charge-plan layer additionally captures and
    applies charge plans at two granularities — identical virtual
    costs either way (``tests/test_charge_plans.py`` is the
    differential gate), pure wall-clock win.  ``plans=False`` turns the
    layer off (the reference path the differentials compare against);
    ``None``, the default, means on.

    1. *Whole-pass plans* (:func:`_plan_unit`): for a self-undoing
       trace replayed back to back on one quiescent kernel — the
       benchmark loop shape — the entire pass's charge vector is
       captured once (confirmed on a second identical recorded run) and
       later passes apply it with one :meth:`CostModel.apply` plus a
       bulk Stats merge, guarded by the registry generation and *clock
       equality* with the previous pass's end.
       Under a live lazy sweeper a pass's charges are never stable
       (fixed virtual deadlines drift modulo pass length), so whole-pass
       plans require a kernel without one.

    2. *Per-segment plans*, task-generic and shared by charge shape
       (:meth:`~repro.sim.costs.ChargePlanRegistry.cells`), for
       programs carrying ``plan_segments``: runs of fd-table syscalls
       captured once and applied under per-fd guards.  This is the
       granularity :func:`replay_interleaved` schedules, and the
       fallback whenever whole-pass planning is unavailable.

    ``program`` is duck-typed (``op_table``, ``rows``, ``slot_count``)
    so this module need not import the compiler; programs without
    ``plan_segments`` replay as plain row streams.
    """
    if strict:
        registry = None
        if (plans is None or plans) and kernel.costs.recorder is None \
                and getattr(program, "plan_segments", None) is not None:
            registry = kernel.costs.plans
            if kernel.sweeper is None and _plan_unit(
                    kernel, registry,
                    registry.unit_cell(None, ((task, program),)), (task,),
                    lambda: _run_stream(kernel, task, program, None)):
                return
        _run_stream(kernel, task, program, registry)
        return
    # Lenient path: mirror replay(strict=False) — unexpected outcomes
    # are ignored and the stream continues.
    batch = kernel.sys.batch(task)
    methods = [getattr(batch, name) for name in program.op_table]
    slot_fds: List[int] = [-1] * program.slot_count
    charge_ns = kernel.costs.charge_ns
    fs_error = errors.FsError
    for op_idx, args, patches, store, errno_exp, compute, pair \
            in program.rows:
        if compute:
            charge_ns("app_compute", compute)
        if patches is not None:
            for arg_idx, slot in patches:
                args[arg_idx] = slot_fds[slot]
        try:
            result = methods[op_idx](*args)
        except fs_error:
            continue
        if store >= 0 and errno_exp is None:
            slot_fds[store] = result[0] if pair else result


def _apply_plan(kernel: Kernel, registry, cell) -> bool:
    """Guard and apply an armed whole-pass/whole-drain plan.

    True means the plan applied: virtual costs and Stats advanced
    exactly as an interpreted run would, kernel state untouched.  False
    means a guard failed and the caller must run interpreted (the
    streak/invalidation bookkeeping has already happened).

    The clock guard is equality with the clock state at which the plan
    was armed — any interleaving syscall moves the clock off it.
    """
    costs = kernel.costs
    clock = costs.clock
    plan = cell.plan
    if plan.gen != registry.gen:
        registry.invalidated += 1
        cell.reset()
        return False
    if clock.capture_state() != cell.armed_now:
        registry.fallbacks += 1
        cell.fail_streak += 1
        if cell.fail_streak >= registry.PASS_FAIL_STREAK:
            registry.invalidated += 1
            cell.reset()
        return False
    costs.apply(plan.vector)
    if plan.stat_deltas:
        kernel.stats.bump_many(plan.stat_deltas)
    cell.armed_now = clock.capture_state()
    cell.fail_streak = 0
    registry.applied += 1
    return True


def _plan_unit(kernel: Kernel, registry, cell, tasks,
               run: Callable[[], None]) -> bool:
    """Whole-pass / whole-drain plan protocol.  True iff the unit was
    handled here.

    ``cell`` is the unit's :class:`~repro.sim.costs.PlanCell`
    (:meth:`~repro.sim.costs.ChargePlanRegistry.unit_cell`), ``tasks``
    the tasks whose fd tables the unit must leave as it found them, and
    ``run`` executes the unit interpreted with segment plans off.
    Lifecycle: one warmup execution, then two recorded ones whose
    captures must be equal, then the capture is applied on every later
    execution that starts at the clock state the previous one ended on
    (:func:`_apply_plan`).
    Any rejection — scope stack active, fd table changed across the
    unit, capture mismatch — burns a retry; ``MAX_RETRIES`` rejections
    kill the cell and the unit falls back to segment planning forever.
    Returns False only when the caller should run the unit itself
    (warmup, dead cell, guard failure); a recorded execution returns
    True because the recording ran it.
    """
    costs = kernel.costs
    if costs._scope_stack or cell.dead:
        return False
    if cell.plan is not None:
        return _apply_plan(kernel, registry, cell)
    n = cell.execs
    cell.execs = n + 1
    if n < registry.WARMUP:
        return False
    fds_before = [frozenset(task.fds._files) for task in tasks]
    with Recording(costs, kernel.stats) as rec:
        run()
    if costs._scope_stack \
            or [frozenset(task.fds._files) for task in tasks] != fds_before:
        _reject(registry, cell)
    elif _confirmed(registry, cell, (rec.vector, rec.stat_deltas)):
        cell.plan = ChargePlan(rec.vector, rec.stat_deltas, registry.gen)
        cell.armed_now = costs.clock.capture_state()
    return True


def _drain_interleaved(kernel: Kernel, streams, seed: int,
                       registry) -> None:
    """Vectorized interpreted drain of interleaved streams.

    The schedule — which stream advances at each step — is precomputed
    as flat (stream, run-length) arrays by
    :meth:`~repro.testing.scheduler.StreamScheduler.plan_schedule`,
    pick-for-pick identical to draining with per-unit RNG calls
    (asserted by ``tests/test_server_fleet.py``), then run-length
    coalesced so consecutive picks of one stream cost a single
    dispatch.  Per-stream state lives in :class:`_StreamState`; the
    loop body is one bound-method call per run.
    """
    states = [_StreamState(kernel, task, prog, registry, fine=True)
              for task, prog in streams]
    order, runs = _drain_schedule(
        seed, tuple(len(state.units) for state in states))
    advances = [state.advance for state in states]
    for i, s in enumerate(order):
        advances[s](runs[i])


def replay_interleaved(kernel: Kernel, streams, seed: int = 0,
                       strict: bool = True,
                       plans: Optional[bool] = None) -> None:
    """Replay multiple compiled programs interleaved on one kernel.

    ``streams`` is a sequence of ``(task, program)`` pairs.  Each
    program's rows execute in order, but the streams advance in a
    seeded pseudo-random interleaving at plan-unit granularity (a
    plannable segment is one unit, every other row is its own unit) —
    the multi-tenant server shape: per-tenant request streams sharing
    one directory cache.  Deterministic: the same (streams, seed)
    always produces the same interleaving, virtual costs and Stats.

    Strict-only: lenient replay swallows errors *within* a stream,
    which would let streams desynchronize silently.

    The charge-plan layer applies at two levels.  Per-segment plans
    (shape-shared across tenants) capture and apply inside the drain
    exactly as in :func:`replay_compiled`.  When the whole drain is
    replayed back to back on a quiescent kernel — the benchmark shape —
    a *whole-drain* plan (:func:`_plan_unit`, keyed by the seed and the
    identities of every (task, program) pair) captures the entire
    drain's charge vector once and applies it in one step, guarded by
    clock equality; like whole-pass plans this needs a kernel without
    a lazy sweeper.  Identical virtual output with ``plans`` on or off
    either way (``tests/test_server_fleet.py`` is the differential
    gate).
    """
    if not strict:
        raise ValueError("replay_interleaved is strict-only: lenient "
                         "replay could desynchronize streams")
    streams = list(streams)
    costs = kernel.costs
    registry = costs.plans \
        if (plans is None or plans) and costs.recorder is None else None
    if registry is not None and kernel.sweeper is None and _plan_unit(
            kernel, registry, registry.unit_cell(seed, streams),
            [task for task, _prog in streams],
            lambda: _drain_interleaved(kernel, streams, seed, None)):
        return
    _drain_interleaved(kernel, streams, seed, registry)

