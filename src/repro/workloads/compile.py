"""Trace/workload compiler: AOT-lower syscall streams to flat programs.

The paper's argument is amortization — pay once so the per-lookup cost
is O(1).  This module applies the same move to the *driver* layer: a
recorded :class:`~repro.workloads.traces.Trace` is interpreted with full
per-event Python overhead (string-keyed dispatch, dataclass attribute
chasing, fd-slot dict remaps), all of which is knowable ahead of time.
:func:`compile_trace` lowers a trace once into a :class:`CompiledTrace`
— parallel row tuples of ``(op_index, args, patches, store_slot,
expected_errno, compute_ns, unpack_pair)`` with kwargs folded into
positional tuples against the :class:`~repro.vfs.syscalls.Syscalls`
signatures, fd-slot markers resolved to patch sites, and path strings
interned — which :func:`~repro.workloads.traces.replay_compiled`
executes in a tight loop over a prebound
:meth:`~repro.vfs.syscalls.Syscalls.batch` method table.

Compiled execution is a pure wall-clock optimization: it charges
bit-identical virtual costs (clock, cost counts, Stats) to interpreted
:func:`~repro.workloads.traces.replay` on every kernel profile
(``tests/test_compiled_replay.py`` is the differential gate).

The second half of this module lowers the repo's generator-driven
workloads (``workloads/lmbench.py``, ``maildir.py``, ``webserver.py``)
into self-contained traces: a recording proxy kernel routes their
syscalls through a :class:`TraceRecorder` and their ``charge_ns``
compute budgets into recorded compute gaps.  Setup phases
are recorded too, so a lowered trace replays on a *fresh* kernel of any
profile.  Note the one attribution fold: workload-specific compute
scopes (``imap_compute``, ``httpd_compute``, ...) become ``app_compute``
gaps in the trace — total virtual nanoseconds are preserved, only the
attribution label coarsens (the virtual clock and Stats are unaffected).
"""

from __future__ import annotations

import inspect
import sys as _host_sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro import O_CREAT, O_DIRECTORY, O_RDONLY, O_RDWR, errors, make_kernel
from repro.core.kernel import Kernel
from repro.vfs import path as vfspath
from repro.vfs.syscalls import Syscalls
from repro.vfs.task import Task
from repro.workloads.traces import Trace, TraceRecorder


class TraceCompileError(ValueError):
    """The trace cannot be lowered.

    Raised for events that reference unknown ops, pass kwargs the op's
    signature does not accept, or omit required arguments — anything
    where AOT argument folding cannot prove it will reproduce the
    interpreter's call exactly.
    """


# -- signature folding ----------------------------------------------------

#: op name -> ordered (param_name, default) pairs, ``task`` excluded.
_SIGNATURE_CACHE: Dict[str, Tuple[Tuple[str, Any], ...]] = {}

_NO_DEFAULT = inspect.Parameter.empty


def _op_params(op: str) -> Tuple[Tuple[str, Any], ...]:
    cached = _SIGNATURE_CACHE.get(op)
    if cached is not None:
        return cached
    method = getattr(Syscalls, op, None)
    if method is None or not callable(method):
        raise TraceCompileError(f"unknown syscall op: {op!r}")
    params = []
    for name, param in inspect.signature(method).parameters.items():
        if name in ("self", "task"):
            continue
        if param.kind in (inspect.Parameter.VAR_POSITIONAL,
                          inspect.Parameter.VAR_KEYWORD):
            raise TraceCompileError(
                f"op {op!r} has a variadic signature; cannot fold")
        params.append((name, param.default))
    result = tuple(params)
    _SIGNATURE_CACHE[op] = result
    return result


def _fold(op: str, args: Tuple[Any, ...],
          kwargs: Dict[str, Any]) -> List[Any]:
    """Fold kwargs into a positional argument list for ``op``.

    The folded call ``method(task, *folded)`` binds identically to the
    interpreter's ``method(task, *args, **kwargs)``.
    """
    params = _op_params(op)
    if len(args) > len(params):
        raise TraceCompileError(
            f"op {op!r}: {len(args)} positional args, signature takes "
            f"{len(params)}")
    names = [name for name, _default in params]
    unknown = set(kwargs) - set(names[len(args):])
    if unknown:
        raise TraceCompileError(
            f"op {op!r}: kwargs {sorted(unknown)} not foldable "
            f"(unknown or already bound positionally)")
    folded = list(args)
    for name, default in params[len(args):]:
        if name in kwargs:
            folded.append(kwargs[name])
        elif default is not _NO_DEFAULT:
            folded.append(default)
        else:
            raise TraceCompileError(
                f"op {op!r}: required argument {name!r} missing")
    # Trim trailing untouched defaults so most rows stay short.
    while folded and len(folded) > len(args):
        name, default = params[len(folded) - 1]
        if name in kwargs or folded[-1] is not default:
            break
        folded.pop()
    return folded


def _is_fd_marker(value: Any) -> bool:
    return (isinstance(value, tuple) and len(value) == 2
            and value[0] == "fd" and isinstance(value[1], int))


# -- charge-plan segmentation ---------------------------------------------

#: Ops eligible for charge planning.  The criterion is *static charge
#: behaviour*: given the apply-time guards (fd open, inode present,
#: non-directory), these ops charge a fixed event stream independent of
#: any state the guards cannot see.  ``read``/``write`` are excluded
#: (pagecache/device charges), as is anything resolving a path.
_PLAN_OPS = frozenset(["lseek", "fstat"])

#: Minimum rows for a segment to be worth a plan: shorter runs pay more
#: in guard checks and dispatch than the interpreted loop costs.
_PLAN_MIN_ROWS = 6


class PlanSegment(NamedTuple):
    """A contiguous run of compiled rows coverable by one charge plan.

    ``guards`` lists, per distinct fd slot the segment touches,
    ``(slot, need_inode, need_not_dir)`` — the apply-time state checks
    that make the captured charge stream provably reproducible
    (``fstat`` needs a live inode, ``lseek`` must not hit the
    directory-seek branch; both need an open, unclosed fd).  ``seeks``
    lists ``(slot, offset)`` for the *final* ``lseek`` per slot — the
    only host-visible state a planned segment mutates, applied in bulk
    (intermediate offsets are unobservable inside the segment: no row
    in a plannable segment reads the file offset).

    ``shape`` is the segment's charge-stream identity: a per-row tuple
    of ``(op_name, compute_ns)``.  Under the apply-time guards, the fast
    fd entries for ``lseek``/``fstat`` charge fixed primitive streams
    with no Stats bumps, so segments of one program with equal shapes
    produce equal charge vectors on any fd binding; they hold the same
    shape *object*, which their shared plan cell is keyed on (the loop
    trace's rounds capture one plan between them).
    """

    start: int
    end: int
    guards: Tuple[Tuple[int, bool, bool], ...]
    seeks: Tuple[Tuple[int, int], ...]
    shape: Tuple[Tuple[str, float], ...] = ()


def _plan_segments(op_table: Tuple[str, ...],
                   rows: List[Tuple]) -> Tuple[PlanSegment, ...]:
    """Statically segment compiled rows into charge-plannable runs.

    Segmentation is a pure function of the program, so every replay —
    plans on or off, single-stream or interleaved — sees identical
    segment boundaries (the interleaved scheduler uses them as unit
    boundaries, which is what keeps plan state orthogonal to the
    schedule).
    """
    plannable_idx = {i for i, op in enumerate(op_table) if op in _PLAN_OPS}
    if not plannable_idx:
        return ()
    lseek_idx = op_table.index("lseek") if "lseek" in op_table else -1
    fstat_idx = op_table.index("fstat") if "fstat" in op_table else -1

    def plannable(row) -> bool:
        op_idx, args, patches, store, errno_exp, _compute, _pair = row
        if op_idx not in plannable_idx or store != -1 \
                or errno_exp is not None:
            return False
        # Exactly one fd patch, at argument 0 (the fd slot).
        if patches is None or len(patches) != 1 or patches[0][0] != 0:
            return False
        if op_idx == lseek_idx:
            return (len(args) == 2 and isinstance(args[1], int)
                    and args[1] >= 0)
        return len(args) == 1  # fstat

    segments: List[PlanSegment] = []
    shapes: Dict[tuple, tuple] = {}
    n = len(rows)
    i = 0
    while i < n:
        if not plannable(rows[i]):
            i += 1
            continue
        j = i
        while j < n and plannable(rows[j]):
            j += 1
        if j - i >= _PLAN_MIN_ROWS:
            needs: Dict[int, List[bool]] = {}
            finals: Dict[int, int] = {}
            for row in rows[i:j]:
                op_idx, args, patches, _s, _e, _c, _p = row
                slot = patches[0][1]
                need = needs.setdefault(slot, [False, False])
                if op_idx == fstat_idx:
                    need[0] = True
                else:
                    need[1] = True
                    finals[slot] = args[1]
            guards = tuple((slot, need[0], need[1])
                           for slot, need in sorted(needs.items()))
            seeks = tuple(sorted(finals.items()))
            shape = tuple((op_table[row[0]], row[5]) for row in rows[i:j])
            shape = shapes.setdefault(shape, shape)
            segments.append(PlanSegment(i, j, guards, seeks, shape))
        i = j
    return tuple(segments)


def _plan_units(segments: Tuple[PlanSegment, ...],
                n_rows: int) -> Tuple[Tuple[int, int, int], ...]:
    """The units the interleaved scheduler picks between: half-open row
    ranges ``(lo, hi, segment index)`` tiling ``[0, n_rows)`` in order —
    one per plan segment, one per other row (segment index -1).  Virtual
    output depends on this granularity, so it is part of the program.
    """
    units: List[Tuple[int, int, int]] = []
    pos = 0
    for seg_i, seg in enumerate(segments):
        units.extend((i, i + 1, -1) for i in range(pos, seg.start))
        units.append((seg.start, seg.end, seg_i))
        pos = seg.end
    units.extend((i, i + 1, -1) for i in range(pos, n_rows))
    return tuple(units)


# -- the compiled program -------------------------------------------------

@dataclass
class CompiledTrace:
    """A trace lowered to a flat opcode program.

    ``rows`` is a list of 7-tuples::

        (op_index, args, patches, store_slot, expected_errno,
         compute_ns, unpack_pair)

    * ``op_index`` indexes ``op_table`` (and the per-replay prebound
      method table built from a :meth:`Syscalls.batch` prologue).
    * ``args`` is a tuple when the event has no fd arguments, else a
      *list* with ``None`` placeholders that ``patches`` — precomputed
      ``(arg_index, slot)`` pairs — fills in from the live slot table
      before each call.
    * ``store_slot`` is the fd slot a returned fd lands in (−1: none);
      ``unpack_pair`` marks ops returning ``(fd, ...)`` (mkstemp).
    * ``expected_errno`` is ``None`` for events recorded as successes.
    * ``compute_ns`` is the application compute gap charged before the
      call (0.0 compiles to a skipped branch).
    """

    op_table: Tuple[str, ...]
    rows: List[Tuple]
    slot_count: int
    #: Host seconds spent compiling, kept apart from replay time so
    #: compilation overhead cannot hide in op/s numbers.
    compile_wall_s: float
    #: Statically derived charge-plannable runs (see
    #: :class:`PlanSegment`); empty when nothing qualifies.
    plan_segments: Tuple[PlanSegment, ...] = ()
    #: Scheduling units over ``rows`` (see :func:`_plan_units`).
    units: Tuple[Tuple[int, int, int], ...] = ()

    def __len__(self) -> int:
        return len(self.rows)


def compile_trace(trace: Trace) -> CompiledTrace:
    """Lower ``trace`` into a :class:`CompiledTrace`.

    Raises :class:`TraceCompileError` when any event cannot be proven to
    fold exactly.

    Every string argument is interned, so compiled rows carry the
    resolution-memo key preinterned: all replay passes present the same
    path *object* and the memo's key tuples hash and compare by pointer
    (see :mod:`repro.core.resmemo`).  Path-like arguments additionally
    pre-warm the ``vfspath.split`` parse cache here, outside the timed
    replay loop.
    """
    t0 = time.perf_counter()
    intern = _host_sys.intern
    op_indices: Dict[str, int] = {}
    op_table: List[str] = []
    rows: List[Tuple] = []
    for event in trace.events:
        op_idx = op_indices.get(event.op)
        if op_idx is None:
            _op_params(event.op)  # validates the op exists
            op_idx = len(op_table)
            op_indices[event.op] = op_idx
            op_table.append(intern(event.op))
        folded = _fold(event.op, event.args, event.kwargs)
        if event.op == "write" and len(folded) >= 2 \
                and isinstance(folded[1], str):
            # The interpreter re-encodes the latin-1 payload per event;
            # the compiler pays it once.
            folded[1] = folded[1].encode("latin-1")
        patches: List[Tuple[int, int]] = []
        for i, value in enumerate(folded):
            if _is_fd_marker(value):
                patches.append((i, value[1]))
                folded[i] = None
            elif isinstance(value, str):
                folded[i] = intern(value)
                if folded[i].startswith("/"):
                    try:
                        vfspath.split(folded[i])
                    except Exception:
                        pass  # not a resolvable path; replay will decide
        store = (-1 if event.returns_fd_slot is None
                 else event.returns_fd_slot)
        rows.append((
            op_idx,
            folded if patches else tuple(folded),
            tuple(patches) if patches else None,
            store,
            event.errno,
            event.compute_ns,
            event.op == "mkstemp",
        ))
    op_table_t = tuple(op_table)
    segments = _plan_segments(op_table_t, rows)
    return CompiledTrace(op_table=op_table_t, rows=rows,
                         slot_count=trace.slot_count(),
                         plan_segments=segments,
                         units=_plan_units(segments, len(rows)),
                         compile_wall_s=time.perf_counter() - t0)


# -- workload lowering ----------------------------------------------------

class RecordingSyscalls:
    """Task-first adapter over a :class:`TraceRecorder`.

    Workload code calls ``sys.stat(task, path)``; the recorder's own
    methods are task-less (the recording task is pinned).  This adapter
    drops the leading task argument so unmodified workload drivers can
    run against a recorder.
    """

    def __init__(self, recorder: TraceRecorder):
        self._recorder = recorder

    def __getattr__(self, op: str):
        if op.startswith("_"):
            raise AttributeError(op)
        record = getattr(self._recorder, op)

        def wrapper(_task, *args, **kwargs):
            return record(*args, **kwargs)

        self.__dict__[op] = wrapper
        return wrapper


class _RecordingCosts:
    """Cost-model proxy that turns compute charges into trace gaps.

    ``charge_ns`` both charges the real kernel (via
    :meth:`TraceRecorder.compute`) and records the gap on the next
    event.  Workload-specific scopes fold into ``app_compute`` — the
    clock and Stats are unaffected, only attribution coarsens.
    Everything else delegates to the real cost model.
    """

    def __init__(self, recorder: TraceRecorder, real_costs):
        self._recorder = recorder
        self._real = real_costs

    def charge_ns(self, scope: str, ns: float) -> None:
        self._recorder.compute(ns)

    def __getattr__(self, name: str):
        return getattr(self._real, name)


class RecordingKernel:
    """Kernel proxy whose ``sys``/``costs`` record a trace.

    Drop-in for workload drivers that take a kernel: syscalls route
    through a :class:`TraceRecorder` (executing on the real kernel *and*
    recording), compute charges become trace gaps, and every other
    attribute (``now_ns``, ``stats``, ``spawn_task``, ...) delegates to
    the real kernel.  All recorded ops execute under the recorder's
    pinned task regardless of which task object the driver passes —
    lowered traces replay under a single task.
    """

    def __init__(self, kernel: Kernel, task: Optional[Task] = None):
        self._kernel = kernel
        if task is None:
            task = kernel.spawn_task(uid=0, gid=0)
        self.recorder = TraceRecorder(kernel, task)
        self.sys = RecordingSyscalls(self.recorder)
        self.costs = _RecordingCosts(self.recorder, kernel.costs)

    @property
    def trace(self) -> Trace:
        return self.recorder.trace

    def __getattr__(self, name: str):
        return getattr(self._kernel, name)


def lower_webserver(nfiles: int = 64, requests: int = 10,
                    profile: str = "baseline") -> Trace:
    """Record the Table 3 autoindex benchmark into a trace."""
    from repro.workloads import webserver
    rk = RecordingKernel(make_kernel(profile))
    webserver.run_benchmark(rk, nfiles, requests=requests)
    return rk.trace


def lower_maildir(mailbox_size: int = 50, mailboxes: int = 4,
                  operations: int = 40,
                  profile: str = "baseline") -> Trace:
    """Record the Figure 10 maildir benchmark into a trace."""
    from repro.workloads import maildir
    rk = RecordingKernel(make_kernel(profile))
    maildir.run_benchmark(rk, mailbox_size, mailboxes=mailboxes,
                          operations=operations)
    return rk.trace


def lower_lmbench(rounds: int = 3, profile: str = "baseline") -> Trace:
    """Record Figure 6's path-shape stat/open rounds into a trace."""
    from repro.workloads import lmbench
    rk = RecordingKernel(make_kernel(profile))
    task = lmbench.prepare_lookup_tree(rk)
    rsys = rk.sys
    for _ in range(rounds):
        for name, path in lmbench.PATH_PATTERNS:
            rk.costs.charge_ns("app_compute", 120.0)
            try:
                rsys.stat(task, path)
            except errors.FsError:
                pass
            if name in lmbench.POSITIVE_PATTERNS:
                fd = rsys.open(task, path, O_RDONLY)
                rsys.close(task, fd)
    return rk.trace


# -- the benchmark loop trace ---------------------------------------------

def build_loop_trace(files: int = 16, io_rounds: int = 40,
                     subdirs: int = 4,
                     profile: str = "baseline",
                     root: str = "/loop") -> Trace:
    """Record a *self-undoing* iBench-shaped trace for benchmark loops.

    The composition follows the paper's §1 statistic — 10–20% of trace
    syscalls do a path lookup, the rest operate on open fds — so replay
    engine overhead is measured against a realistic mix rather than a
    stat storm.  The trace creates a subtree, holds its files open
    through rounds of lseek/read/write/fstat traffic interleaved with
    warm stats and ENOENT probes, walks the directories
    (open/readdir/fstatat-with-dirfd/close), does mkstemp and a rename
    flip-flop that ends back at the original names — then removes
    everything it created.  Because the final filesystem state equals
    the initial state (and every fd is closed, keeping fd numbering
    deterministic), the same trace can be replayed any number of times
    on one kernel: exactly what back-to-back replay passes (and
    whole-pass charge plans) need.
    """
    kernel = make_kernel(profile)
    task = kernel.spawn_task(uid=0, gid=0)
    rec = TraceRecorder(kernel, task)
    paths = [f"{root}/d{i % subdirs}/f{i:03d}" for i in range(files)]

    rec.mkdir(root)
    for d in range(subdirs):
        rec.mkdir(f"{root}/d{d}")
    fds = []
    for path in paths:
        fd = rec.open(path, O_CREAT | O_RDWR)
        rec.write(fd, b"payload-" * 8)
        fds.append(fd)

    # The fd-dominated body: per round, three fd ops per open file
    # (lseek/fstat/lseek — the bulk of real iBench streams) plus one
    # read, one warm stat, and an ENOENT probe every other round, which
    # keeps the path-lookup fraction in the paper's 10–20% band when
    # counted with the lookup-performing setup/teardown phases.
    for round_no in range(io_rounds):
        rec.compute(1_000.0)
        for fd in fds:
            rec.lseek(fd, 0)
            rec.fstat(fd)
            rec.lseek(fd, 64)
        hot = fds[round_no % files]
        rec.lseek(hot, 0)
        rec.read(hot, 64)
        rec.stat(paths[round_no % files])
        if round_no % 2:
            try:
                rec.stat(f"{root}/d0/missing")
            except errors.ENOENT:
                pass

    for fd in fds:
        rec.close(fd)

    # Directory walk: open/readdir/fstatat-with-dirfd per entry.
    for d in range(subdirs):
        fd = rec.open(f"{root}/d{d}", O_RDONLY | O_DIRECTORY)
        for name, _ino, _dtype in rec.readdir(fd):
            rec.fstatat(name, dirfd=fd, follow=False)
            rec.compute(150.0)
        rec.close(fd)

    # mkstemp's default rng is freshly seeded per call, so the generated
    # name is deterministic; record-time and replay-time names match.
    fd, tmp_name = rec.mkstemp(f"{root}/d0")
    rec.write(fd, b"tmp")
    rec.close(fd)
    rec.unlink(f"{root}/d0/{tmp_name}")

    # Rename flip-flop ending at the original name (self-undoing).
    rec.rename(f"{root}/d0", f"{root}/dX")
    rec.stat(f"{root}/dX/f000")
    rec.rename(f"{root}/dX", f"{root}/d0")
    rec.stat(f"{root}/d0/f000")

    for path in paths:
        rec.unlink(path)
    for d in range(subdirs):
        rec.rmdir(f"{root}/d{d}")
    rec.rmdir(root)
    return rec.trace
