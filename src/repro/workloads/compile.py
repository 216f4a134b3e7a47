"""Trace/workload compiler: AOT-lower syscall streams to flat programs.

The paper's argument is amortization — pay once so the per-lookup cost
is O(1).  This module applies the same move to the *driver* layer: a
recorded :class:`~repro.workloads.traces.Trace` is interpreted with full
per-event Python overhead (string-keyed dispatch, dataclass attribute
chasing, fd-slot dict remaps), all of which is knowable ahead of time.
:func:`compile_trace` lowers a trace once into a :class:`CompiledTrace`
— parallel row tuples of ``(op_index, args, patches, store_slot,
expected_errno, compute_ns, unpack_pair)`` with kwargs folded into
positional tuples, fd slots turned into patch sites and text back into
bytes (both as :func:`~repro.workloads.traces.op_spec` says), and path
strings interned — which :func:`~repro.workloads.traces.replay_compiled`
executes in a tight loop over a prebound
:meth:`~repro.vfs.syscalls.Syscalls.batch` method table.

Compiled execution is a pure wall-clock optimization: it charges
bit-identical virtual costs (clock, cost counts, Stats) to interpreted
:func:`~repro.workloads.traces.replay` on every kernel profile
(``tests/test_compiled_replay.py`` is the differential gate).

The second half of this module lowers the repo's generator-driven
workloads (``workloads/lmbench.py``, ``maildir.py``, ``webserver.py``)
into self-contained traces: a recording proxy kernel routes their
syscalls through a :class:`TraceRecorder`'s task-first view
(:attr:`TraceRecorder.sys`) and their ``charge_ns`` compute budgets
into recorded compute gaps.  Setup phases
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
from typing import Any, Dict, List, Optional, Tuple

from repro import O_CREAT, O_DIRECTORY, O_RDONLY, O_RDWR, errors, make_kernel
from repro.core.kernel import Kernel
from repro.vfs import path as vfspath
from repro.vfs.task import Task
from repro.workloads.traces import (OpSpec, Trace, TraceRecorder,
                                    decode_arg, op_spec)


class TraceCompileError(ValueError):
    """The trace cannot be lowered.

    Raised for events that reference unknown ops, pass kwargs the op's
    signature does not accept, omit required arguments, or lack an fd
    slot where the op takes an fd — anything where AOT argument folding
    cannot prove it will reproduce the interpreter's call exactly.
    """


# -- signature folding ----------------------------------------------------

_NO_DEFAULT = inspect.Parameter.empty


def _fold(op: str, args: Tuple[Any, ...],
          kwargs: Dict[str, Any]) -> Tuple[OpSpec, List[Any]]:
    """Fold kwargs into a positional argument list for ``op``; returns
    the op's :class:`~repro.workloads.traces.OpSpec` with it.

    The folded call ``method(task, *folded)`` binds identically to the
    interpreter's ``method(task, *args, **kwargs)``.
    """
    try:
        spec = op_spec(op)
    except ValueError as exc:
        raise TraceCompileError(str(exc)) from None
    params = spec.params
    if len(args) > len(params):
        raise TraceCompileError(
            f"op {op!r}: {len(args)} positional args, signature takes "
            f"{len(params)}")
    names = [name for name, _default, _kind in params]
    unknown = set(kwargs) - set(names[len(args):])
    if unknown:
        raise TraceCompileError(
            f"op {op!r}: kwargs {sorted(unknown)} not foldable "
            f"(unknown or already bound positionally)")
    folded = list(args)
    for name, default, _kind in params[len(args):]:
        if name in kwargs:
            folded.append(kwargs[name])
        elif default is not _NO_DEFAULT:
            folded.append(default)
        else:
            raise TraceCompileError(
                f"op {op!r}: required argument {name!r} missing")
    # Trim trailing untouched defaults so most rows stay short.
    while folded and len(folded) > len(args):
        name, default, _kind = params[len(folded) - 1]
        if name in kwargs or folded[-1] is not default:
            break
        folded.pop()
    return spec, folded


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
        op = event.op
        spec, folded = _fold(op, event.args, event.kwargs)
        op_idx = op_indices.get(op)
        if op_idx is None:
            op_idx = op_indices[op] = len(op_table)
            op_table.append(intern(op))
        patches: List[Tuple[int, int]] = []
        for i, ((name, _default, kind), value) in enumerate(
                zip(spec.params, folded)):
            if kind is not None and value is not None:
                if kind == "bytes":
                    # The interpreter re-encodes the latin-1 payload per
                    # event; the compiler pays it once.
                    folded[i] = decode_arg(kind, value, None)
                    continue
                if not (type(value) is tuple and len(value) == 2
                        and value[0] == "fd"):
                    raise TraceCompileError(
                        f"op {op!r}: {name!r} is no fd slot: {value!r}")
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
            spec.pair,
        ))
    return CompiledTrace(op_table=tuple(op_table), rows=rows,
                         slot_count=trace.slot_count(),
                         compile_wall_s=time.perf_counter() - t0)


# -- workload lowering ----------------------------------------------------

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
        self.sys = self.recorder.sys
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
