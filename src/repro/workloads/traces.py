"""Syscall trace recording and replay (iBench-style, §1).

The paper motivates its work with syscall traces: "between 10-20% of all
system calls in the iBench system call traces do a path lookup."  This
module gives the reproduction the same methodology: record a workload's
syscall stream once (with per-event compute gaps), then replay it
verbatim against any kernel configuration and compare.

File descriptors are kernel-local, so traces store *fd slots*: the
recorder maps each returned fd to a dense slot id, and replay remaps
slots to the fds its own kernel returns.  Traces serialize to JSON lines
for storage and diffing.  The recorder, :func:`replay` and the compiler
treat each argument as the facade's signature says (:func:`op_spec`).

Two engines replay: :func:`replay` interprets a trace event by event,
and :func:`replay_interleaved` drains any number of compiled streams
(:mod:`repro.workloads.compile`) through one row loop and one
charge-plan protocol; :func:`replay_compiled` is its one-stream call.
"""

from __future__ import annotations

import functools
import inspect
import json
import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro import errors
from repro.core.kernel import Kernel
from repro.sim.costs import Recording
from repro.vfs.syscalls import SyscallBatch, Syscalls
from repro.vfs.task import Task

#: Syscalls that perform a path lookup (the §1 statistic and Figure 1's
#: time fraction).
PATH_LOOKUP_OPS = frozenset([
    "stat", "lstat", "fstatat", "access", "open", "openat", "mkdir",
    "rmdir", "unlink", "rename", "chmod", "chown", "symlink", "link",
    "readlink", "chdir", "truncate",
])

class OpSpec(NamedTuple):
    """One facade op as a trace sees it: ``(name, default, kind)`` per
    parameter after the task, where a kind is ``"fd"`` (named ``fd`` or
    ``dirfd``; stored as the ``("fd", slot)`` marker of the call that
    returned it) or ``"bytes"`` (annotated ``bytes``; stored as latin-1
    text); whether the op returns an ``Fd``, and first in a pair."""

    params: Tuple[Tuple[str, Any, Optional[str]], ...]
    kinds: Dict[str, str]
    returns_fd: bool
    pair: bool


@functools.lru_cache(maxsize=None)
def op_spec(op: str) -> OpSpec:
    """The :class:`OpSpec` of facade op ``op`` (``ValueError`` if none)."""
    method = None if op.startswith("_") else getattr(Syscalls, op, None)
    if not callable(method):
        raise ValueError(f"unknown syscall op: {op!r}")
    signature = inspect.signature(method)
    params = tuple(
        (name, param.default, "fd" if name in ("fd", "dirfd")
         else "bytes" if param.annotation == "bytes" else None)
        for name, param in signature.parameters.items()
        if name not in ("self", "task"))
    returns = signature.return_annotation
    return OpSpec(params, {name: kind for name, _d, kind in params if kind},
                  returns in ("Fd", "Tuple[Fd, str]"),
                  returns == "Tuple[Fd, str]")


def encode_arg(kind: str, value: Any, fd_slots: Dict[int, int]):
    """``value``, passed for a parameter of ``kind``, as a trace stores
    it (see :class:`OpSpec`)."""
    if value is None:
        return value
    return ("fd", fd_slots[value]) if kind == "fd" else value.decode("latin-1")


def decode_arg(kind: str, value: Any, slot_fds: List[int]):
    """:func:`encode_arg` undone; ``slot_fds[slot]`` is each slot's fd."""
    if value is None:
        return value
    if kind == "fd":
        return slot_fds[value[1]]
    return value.encode("latin-1") if isinstance(value, str) else value


def _map_kinds(spec: OpSpec, args: Tuple[Any, ...], kwargs: Dict[str, Any],
               convert, table) -> Tuple[Tuple[Any, ...], Dict[str, Any]]:
    """``(args, kwargs)`` with ``convert(kind, value, table)`` applied to
    each argument for a parameter that has a kind."""
    kinds = spec.kinds
    if not kinds:
        return args, kwargs
    params = spec.params
    return (tuple(value if kind is None else convert(kind, value, table)
                  for (_name, _default, kind), value in zip(params, args))
            + args[len(params):],
            {name: value if name not in kinds
             else convert(kinds[name], value, table)
             for name, value in kwargs.items()} if kwargs else kwargs)


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
    #: Slot id assigned to a returned fd (see :attr:`OpSpec.returns_fd`).
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
            for value in chain(event.args, event.kwargs.values()):
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


class TraceRecorder(SyscallBatch):
    """Record syscalls as they execute on a live kernel.

    :attr:`sys` holds the recording entries in the facade's task-first
    form, for workload code written against ``kernel.sys``; the
    recorder is their batch (``rec.stat(path)``).  Either way each call runs under
    the recorder's task, is executed *and* recorded.  Compute gaps are
    recorded with :meth:`compute`.  A call passing an argument a trace
    cannot store (anything but a str, int, float, bool or None, outside
    an fd or bytes parameter: an rng, say) raises ``ValueError`` before
    it runs, since a replay could not repeat it.
    """

    def __init__(self, kernel: Kernel, task: Task):
        self.sys = _RecordedSyscalls(self)
        super().__init__(self.sys, task)
        self._kernel = kernel
        self.trace = Trace()
        self._fd_slots: Dict[int, int] = {}
        self._next_slot = 0
        self._pending_compute = 0.0

    def compute(self, ns: float) -> None:
        """Record (and charge) an application compute gap."""
        self._kernel.costs.charge_ns("app_compute", ns)
        self._pending_compute += ns


#: The argument types a trace stores as they are.
_STORABLE = (str, int, float, bool, type(None))


class _RecordedSyscalls:
    """:attr:`TraceRecorder.sys`: recording entries that take (and
    ignore) a task first."""

    def __init__(self, recorder: TraceRecorder):
        self._recorder = recorder

    def __getattr__(self, op: str):
        # Reached once per syscall name: the entry is cached below.
        if op.startswith("_"):
            raise AttributeError(op)
        rec = self._recorder
        method = getattr(rec._kernel.sys, op)
        spec = op_spec(op)
        names = [name for name, _default, _kind in spec.params]
        fd_slots = rec._fd_slots

        def entry(_task, *args, **kwargs):
            for name, value in chain(zip(names, args), kwargs.items()):
                if name not in spec.kinds \
                        and not isinstance(value, _STORABLE):
                    raise ValueError(f"{op}: a trace cannot store "
                                     f"{name}={value!r}")
            stored, stored_kw = _map_kinds(spec, args, kwargs, encode_arg,
                                           fd_slots)
            event = TraceEvent(op, stored, stored_kw,
                               compute_ns=rec._pending_compute)
            rec._pending_compute = 0.0
            try:
                result = method(rec._task, *args, **kwargs)
            except errors.FsError as exc:
                event.errno = exc.errno
                rec.trace.events.append(event)
                raise
            if spec.returns_fd:
                slot = event.returns_fd_slot = rec._next_slot
                rec._next_slot += 1
                fd_slots[result[0] if spec.pair else result] = slot
            rec.trace.events.append(event)
            return result

        self.__dict__[op] = entry
        return entry


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

    for index, event in enumerate(trace.events):
        if event.compute_ns:
            charge_ns("app_compute", event.compute_ns)
        spec = op_spec(event.op)
        args, kwargs = _map_kinds(spec, event.args, event.kwargs, decode_arg,
                                  slot_fds)
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
            slot_fds[event.returns_fd_slot] = (result[0] if spec.pair
                                               else result)


# ---------------------------------------------------------------------------
# Compiled replay engine
# ---------------------------------------------------------------------------


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


def plan_schedule(rng: random.Random,
                  row_counts) -> Tuple[List[int], List[int]]:
    """The seeded interleaving, between syscalls, of streams of
    ``row_counts`` rows: stream ``streams[i]`` runs its next ``runs[i]``
    rows, in order.  Each step draws ``rng.randrange(len(alive))`` over
    the streams still alive, and a draw landing on an exhausted stream
    retires it without advancing anything, so a ``(seed, row counts)``
    pair always yields the same schedule — the determinism whole-drain
    charge plans rely on.  Runs let the drain advance a stream several
    rows per dispatch.
    """
    remaining = list(row_counts)
    alive = list(range(len(remaining)))
    streams: List[int] = []
    runs: List[int] = []
    randrange = rng.randrange
    last = -1
    while alive:
        i = randrange(len(alive))
        s = alive[i]
        if remaining[s] == 0:
            alive.pop(i)
            last = -1  # a retirement breaks any coalescable run
            continue
        remaining[s] -= 1
        if s == last:
            runs[-1] += 1
        else:
            streams.append(s)
            runs.append(1)
            last = s
    return streams, runs


class _StreamState:
    """One stream's bound replay state, advanced a run of rows at a time.

    Construction binds everything the drain loop needs — the prebound
    batch method table, the fd slot table and the program's rows — so
    advancing is attribute-local work with no per-run rebinding.
    """

    __slots__ = ("methods", "slot_fds", "cursor", "costs", "rows",
                 "op_table")

    def __init__(self, kernel: Kernel, task: Task, program):
        batch = kernel.sys.batch(task)
        self.methods = [getattr(batch, name) for name in program.op_table]
        self.slot_fds: List[int] = [-1] * program.slot_count
        self.cursor = 0
        self.costs = kernel.costs
        self.rows = program.rows
        self.op_table = program.op_table

    def advance(self, n: int) -> None:
        """Execute the next ``n`` rows of this stream."""
        lo = self.cursor
        hi = self.cursor = lo + n
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
    seeded pseudo-random interleaving, one syscall (row) per scheduling
    step — the multi-tenant server shape: per-tenant
    request streams sharing one directory cache.  Deterministic: the
    same (streams, seed) always produces the same interleaving, virtual
    costs and Stats.
    The schedule is precomputed as flat (stream, run-length) arrays by
    :func:`plan_schedule`, so consecutive picks of one stream cost a
    single dispatch.

    The charge-plan layer (``plans=False`` turns it off, ``None``, the
    default, means on) plans the *whole drain* and never changes virtual
    output (``tests/test_charge_plans.py`` and
    ``tests/test_server_fleet.py`` are the differential gates).  Inside
    someone else's recording or attribution scope (an apply adds only
    the scopes a plan was captured under), or on a dead
    :class:`~repro.sim.costs.PlanCell`, the drain just runs.  An armed
    plan applies and re-arms: it is armed while the clock and the
    registry generation equal what the last capture or apply ended on
    (any interleaving syscall moves the clock, :meth:`CostModel.forget`
    the generation).  An unarmed plan is dropped, and its drain runs
    recorded like any other: two equal captures in a row, each carrying
    :func:`_drain_state`, prove the drain leaves the state it found, and
    the second becomes the plan.  ``MAX_RETRIES`` unvouched or
    mismatched captures kill the cell.
    """
    streams = list(streams)
    costs = kernel.costs
    registry = costs.plans if plans is None or plans else None

    def drain() -> None:
        states = [_StreamState(kernel, task, prog)
                  for task, prog in streams]
        order, runs = plan_schedule(
            random.Random(seed), [len(prog.rows) for _task, prog in streams])
        advances = [state.advance for state in states]
        for i, s in enumerate(order):
            advances[s](runs[i])

    if registry is None or costs.recorder is not None or costs._scope_stack:
        drain()
        return
    cell = registry.cell(seed, *chain.from_iterable(streams))
    if cell.dead:
        drain()
        return
    clock, stats = costs.clock, kernel.stats
    if cell.plan is not None:
        if cell.armed == (clock.capture_state(), registry.gen):
            vector, stat_deltas = cell.plan
            costs.apply(vector)
            if stat_deltas:
                stats.bump_many(stat_deltas)
            registry.applied += 1
            cell.armed = (clock.capture_state(), registry.gen)
            return
        if cell.armed[1] != registry.gen:
            registry.invalidated += 1
        else:
            registry.fallbacks += 1
        cell.plan = None
    with Recording(costs, stats) as rec:
        drain()
    state = _drain_state(streams)
    capture = (rec.vector, rec.stat_deltas, state)
    if state and cell.pending == capture:
        cell.pending = None
        cell.plan = (rec.vector, rec.stat_deltas)
        registry.compiled += 1
    else:
        if not state or cell.pending is not None:
            cell.retries += 1
            cell.dead = cell.retries > registry.MAX_RETRIES
        cell.pending = capture if state and not cell.dead else None
    if state:
        cell.armed = (clock.capture_state(), registry.gen)
