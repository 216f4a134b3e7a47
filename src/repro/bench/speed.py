"""Simulator speed benchmarks: wall-clock cost of simulated syscalls.

Unlike every ``exp_*`` module (which measures *virtual* time inside the
simulation), this module measures how fast the simulator itself runs on
the host — the metric the hot-path optimizations (component-interned
signature hashing, path-parse memoization, the ``charge_in`` cost fast
path) are meant to improve.  Virtual-time results are bit-identical
before and after those optimizations (see ``tests/test_golden_counters``);
only these wall-clock numbers move.

Each benchmark builds and warms its kernel **once** per (benchmark,
profile) cell, captures a :class:`~repro.sim.snapshot.KernelSnapshot`,
and restores it before every repetition — so repetitions start from an
identical warm state without paying tree rebuilding, and the timed loop
measures only the hot path.  The (benchmark × profile) matrix fans out
across a process pool (``--jobs``) with order-preserving result merging,
so the emitted JSON key order and — in ``--virtual`` mode — the values
are identical to a serial run.

Modes:

``repro-speed [--output BENCH_simspeed.json] [--jobs N] [--memo on|off]``
    Run the benchmark loops (warm stat, stat/rename churn,
    create/unlink, readdir, rename-invalidation, rename-churn,
    compiled trace replay, interleaved multi-task replay, a
    multi-tenant server-fleet drain, and warm snapshot restore on all
    three kernel profiles) and write median
    microseconds-per-operation to a JSON file.  The committed
    ``BENCH_simspeed.json`` at the repo root
    is generated this way.  ``--only name,name`` restricts the run
    (unknown names exit 2); ``--timing`` appends markdown tables
    reporting trace **compile** time, resolution-memo hit/flush
    counters, and charge-plan capture/apply counters separately from
    the executed op/s numbers (the
    ``trace_replay`` cell times execution only).  ``--memo off``
    disables the resolution memo (:mod:`repro.core.resmemo`) in every
    benchmark kernel, and ``--plans off`` disables charge plans
    (:class:`repro.sim.costs.ChargePlanRegistry`) in every replay cell
    — virtual results are bit-identical either way;
    only wall-clock moves.  ``--cprofile`` reruns each cell once under
    :mod:`cProfile` after timing it and dumps the top-20 functions by
    cumulative time to stderr, without perturbing the timed medians.

``repro-speed --virtual [--jobs N]``
    Record *virtual* nanoseconds per op instead of wall-clock
    microseconds.  Virtual time is deterministic, so two runs — serial,
    parallel, different hosts — produce byte-identical JSON; CI uses
    this to prove the parallel engine does not change results.

``repro-speed --check pytest-benchmark.json [--baseline ...]``
    Compare a pytest-benchmark JSON export (from
    ``pytest benchmarks/test_simulator_speed.py --benchmark-json=...``)
    against the committed baseline and exit non-zero if any benchmark's
    median regressed by more than ``--threshold`` (default 25%), or if
    any baseline key has no mapped pytest result (a silently skipped
    gate is a broken gate).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import statistics
import sys
import time
from typing import Callable, Dict, List, Tuple

from repro import O_CREAT, O_RDWR, make_kernel
from repro.bench import parallel
from repro.sim.snapshot import KernelSnapshot
from repro.workloads import lmbench, server_fleet
from repro.workloads.compile import build_loop_trace, compile_trace
from repro.workloads.traces import replay_compiled, replay_interleaved
from repro.workloads.tree import build_flat_dir

#: Kernel profiles every benchmark runs against.
PROFILES = ("baseline", "optimized", "optimized-lazy")


def _memo_enabled() -> bool:
    """Resolution-memo switch for benchmark kernels.

    Read from the environment (not CLI plumbing) so the setting reaches
    ``--jobs`` worker processes unchanged; ``--memo off`` sets it.
    """
    return os.environ.get("REPRO_RESOLUTION_MEMO", "on").lower() \
        not in ("off", "0", "false")


def _make(profile: str, quantize: bool = False):
    """Benchmark kernel honouring the ``--memo`` switch.

    The replay-loop cells pass ``quantize=True`` to enable
    :attr:`~repro.core.kernel.DcacheConfig.lazy_sweep_quantize`: lazy
    sweep charges are batched at replay-pass boundaries instead of
    firing mid-pass, which keeps the ``optimized-lazy`` replay cells on
    the charge-plan fast path (see ``docs/coherence.md``).  A no-op on
    the non-lazy profiles.  Quantized virtual totals differ from
    non-quantized ones by design, so the switch is per-cell and baked
    into the committed baseline, never toggled between runs.
    """
    kwargs = {"resolution_memo": _memo_enabled()}
    if quantize:
        kwargs["lazy_sweep_quantize"] = True
    return make_kernel(profile, **kwargs)


def _plans_enabled() -> bool:
    """Charge-plan switch for the replay cells (``--plans off`` sets it).

    Env-carried like ``--memo`` so ``--jobs`` workers inherit it; the
    replay entry points re-read it per call, so no kernel plumbing is
    needed.
    """
    return os.environ.get("REPRO_CHARGE_PLANS", "on").strip().lower() \
        not in ("0", "off", "false", "no")


def _cprofile_enabled() -> bool:
    """Per-cell cProfile switch (``--cprofile``); env-carried for --jobs."""
    return os.environ.get("REPRO_CPROFILE", "").lower() \
        in ("1", "on", "true", "yes")

#: pytest-benchmark test name -> result key in BENCH_simspeed.json.
#: Used by ``--check`` to line CI benchmark runs up with the committed
#: baseline numbers.  Every key in the baseline file must be covered
#: here (and produced by the export) or --check fails loudly.
PYTEST_NAME_MAP = {
    "test_warm_stat_wallclock[baseline]": "warm_stat[baseline]",
    "test_warm_stat_wallclock[optimized]": "warm_stat[optimized]",
    "test_warm_stat_wallclock[optimized-lazy]": "warm_stat[optimized-lazy]",
    "test_create_unlink_wallclock[baseline]": "create_unlink[baseline]",
    "test_create_unlink_wallclock[optimized]": "create_unlink[optimized]",
    "test_create_unlink_wallclock[optimized-lazy]":
        "create_unlink[optimized-lazy]",
    "test_readdir_wallclock[baseline]": "readdir[baseline]",
    "test_readdir_wallclock[optimized]": "readdir[optimized]",
    "test_readdir_wallclock[optimized-lazy]": "readdir[optimized-lazy]",
    "test_rename_invalidation_wallclock[baseline]": "rename_inval[baseline]",
    "test_rename_invalidation_wallclock[optimized]":
        "rename_inval[optimized]",
    "test_rename_invalidation_wallclock[optimized-lazy]":
        "rename_inval[optimized-lazy]",
    "test_rename_churn_wallclock[baseline]": "rename_churn[baseline]",
    "test_rename_churn_wallclock[optimized]": "rename_churn[optimized]",
    "test_rename_churn_wallclock[optimized-lazy]":
        "rename_churn[optimized-lazy]",
    "test_trace_replay_wallclock[baseline]": "trace_replay[baseline]",
    "test_trace_replay_wallclock[optimized]": "trace_replay[optimized]",
    "test_trace_replay_wallclock[optimized-lazy]":
        "trace_replay[optimized-lazy]",
    "test_multi_task_replay_wallclock[baseline]":
        "multi_task_replay[baseline]",
    "test_multi_task_replay_wallclock[optimized]":
        "multi_task_replay[optimized]",
    "test_multi_task_replay_wallclock[optimized-lazy]":
        "multi_task_replay[optimized-lazy]",
    "test_server_fleet_wallclock[baseline]": "server_fleet[baseline]",
    "test_server_fleet_wallclock[optimized]": "server_fleet[optimized]",
    "test_server_fleet_wallclock[optimized-lazy]":
        "server_fleet[optimized-lazy]",
    "test_stat_churn_wallclock[baseline]": "stat_churn[baseline]",
    "test_stat_churn_wallclock[optimized]": "stat_churn[optimized]",
    "test_stat_churn_wallclock[optimized-lazy]": "stat_churn[optimized-lazy]",
    "test_snapshot_restore_wallclock[baseline]": "snapshot_restore[baseline]",
    "test_snapshot_restore_wallclock[optimized]":
        "snapshot_restore[optimized]",
    "test_snapshot_restore_wallclock[optimized-lazy]":
        "snapshot_restore[optimized-lazy]",
}

#: Cells the committed baseline must always carry.  The ``--check``
#: coverage rule only gates keys *present* in the baseline file, so a
#: baseline regenerated without the mutation-path cells would silently
#: stop gating the write path — their absence is itself a gate failure.
REQUIRED_BASELINE_KEYS = tuple(
    f"{name}[{profile}]"
    for name in ("rename_churn", "create_unlink")
    for profile in PROFILES)


# -- benchmark setup ------------------------------------------------------
#
# Each setup builds and warms a kernel and returns (kernel, task, bind),
# where ``bind(kernel, task)`` constructs the per-repetition op closure.
# The engine snapshots (kernel, task) once and re-binds against each
# restored copy, so per-op state (counters, flip flags) resets per rep
# exactly as a fresh setup would.

SetupResult = Tuple[object, object, Callable]


def _setup_warm_stat(profile: str) -> SetupResult:
    kernel = _make(profile)
    task = lmbench.prepare_lookup_tree(kernel)
    kernel.sys.stat(task, lmbench.LONG_PATH)  # steady state is the target

    def bind(kernel, task) -> Callable[[], None]:
        # Rep loops dispatch through a batch prologue: per-op entries
        # are prebound to the task once per rep, not per call.
        stat = kernel.sys.batch(task).stat
        path = lmbench.LONG_PATH

        def op() -> None:
            stat(path)

        return op

    return kernel, task, bind


def _setup_create_unlink(profile: str) -> SetupResult:
    kernel = _make(profile)
    task = kernel.spawn_task(uid=0, gid=0)
    kernel.sys.mkdir(task, "/w")

    def bind(kernel, task) -> Callable[[], None]:
        batch = kernel.sys.batch(task)
        sys_open, sys_close, sys_unlink = batch.open, batch.close, \
            batch.unlink
        counter = [0]

        def op() -> None:
            path = f"/w/f{counter[0]}"
            counter[0] += 1
            fd = sys_open(path, O_CREAT | O_RDWR)
            sys_close(fd)
            sys_unlink(path)

        return op

    return kernel, task, bind


def _setup_readdir(profile: str) -> SetupResult:
    kernel = _make(profile)
    task = kernel.spawn_task(uid=0, gid=0)
    build_flat_dir(kernel, task, "/big", 500)
    kernel.sys.listdir(task, "/big")

    def bind(kernel, task) -> Callable[[], None]:
        listdir = kernel.sys.batch(task).listdir

        def op() -> None:
            listdir("/big")

        return op

    return kernel, task, bind


def _setup_rename_inval(profile: str) -> SetupResult:
    """Rename a warm directory back and forth, re-statting under it.

    Each op pays the mutation-side invalidation cost (seq bumps, DLHT
    eviction on the optimized kernel) and then repopulates the caches
    with a stat — the simulator-speed view of the paper's deliberate
    lookup/mutation trade-off.
    """
    kernel = _make(profile)
    task = kernel.spawn_task(uid=0, gid=0)
    kernel.sys.mkdir(task, "/r")
    kernel.sys.mkdir(task, "/r/d0")
    kernel.sys.mkdir(task, "/r/d0/sub")
    fd = kernel.sys.open(task, "/r/d0/sub/f", O_CREAT | O_RDWR)
    kernel.sys.close(task, fd)
    kernel.sys.stat(task, "/r/d0/sub/f")

    def bind(kernel, task) -> Callable[[], None]:
        batch = kernel.sys.batch(task)
        rename, stat = batch.rename, batch.stat
        flip = [0]

        def op() -> None:
            src, dst = ("/r/d0", "/r/d1") if flip[0] == 0 \
                else ("/r/d1", "/r/d0")
            flip[0] ^= 1
            rename(src, dst)
            stat(dst + "/sub/f")

        return op

    return kernel, task, bind


def _setup_rename_churn(profile: str) -> SetupResult:
    """Mutation-heavy churn over a warm ~50-file cached subtree.

    Each op renames a directory holding 50 warm files and re-stats a
    handful of them.  Eager coherence pays a full subtree shootdown per
    rename; lazy coherence pays one epoch stamp plus touch-time
    revalidation of only the files actually re-statted — the workload
    the ``optimized-lazy`` profile exists for.
    """
    kernel = _make(profile)
    task = kernel.spawn_task(uid=0, gid=0)
    kernel.sys.mkdir(task, "/c")
    kernel.sys.mkdir(task, "/c/d0")
    for i in range(50):
        fd = kernel.sys.open(task, f"/c/d0/f{i}", O_CREAT | O_RDWR)
        kernel.sys.close(task, fd)
        kernel.sys.stat(task, f"/c/d0/f{i}")

    def bind(kernel, task) -> Callable[[], None]:
        batch = kernel.sys.batch(task)
        rename, stat = batch.rename, batch.stat
        flip = [0]

        def op() -> None:
            src, dst = ("/c/d0", "/c/d1") if flip[0] == 0 \
                else ("/c/d1", "/c/d0")
            flip[0] ^= 1
            rename(src, dst)
            for i in range(0, 50, 10):
                stat(f"{dst}/f{i}")

        return op

    return kernel, task, bind


def _setup_trace_replay(profile: str) -> SetupResult:
    """Compiled replay of the self-undoing fd-heavy loop trace.

    Compilation happens here, in setup — the timed op is **execution
    only** (one full ``replay_compiled`` pass over ~2.2k events through
    the batched dispatch table).  Compile cost is reported separately by
    ``--timing`` so it cannot hide in these op/s numbers.  The trace
    ends in the filesystem state it started from with every fd closed,
    so back-to-back replays on one kernel are deterministic.

    Runs with quantized lazy sweeping (see :func:`_make`) so the
    ``optimized-lazy`` cell replays through whole-pass charge plans
    instead of interpreting every pass — mid-pass sweep ticks are what
    used to keep it off the fast path.
    """
    kernel = _make(profile, quantize=True)
    task = kernel.spawn_task(uid=0, gid=0)
    trace = build_loop_trace(profile=profile)
    program = compile_trace(trace)
    replay_compiled(kernel, task, program)  # warm caches + fd numbering

    def bind(kernel, task) -> Callable[[], None]:
        def op() -> None:
            replay_compiled(kernel, task, program)

        return op

    return kernel, task, bind


def _setup_multi_task_replay(profile: str) -> SetupResult:
    """Interleaved compiled replay of 120 per-task streams on one kernel.

    The multi-tenant slice of the traffic engine (ROADMAP item 1): each
    task owns a small self-undoing loop trace under its own subtree,
    with its own credentials, cwd, and fd table, and a seeded
    round-robin scheduler interleaves the compiled streams unit by
    unit.  Scheduling is deterministic (fixed seed), so virtual results
    are byte-identical across runs and ``--jobs`` values.  The timed op
    is one full drain of all 120 streams; compilation happens here in
    setup, like ``trace_replay``.  Quantized lazy sweeping (see
    :func:`_make`) keeps the drain eligible for whole-drain charge
    plans on every profile.
    """
    kernel = _make(profile, quantize=True)
    tasks = []
    programs = []
    for i in range(120):
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, f"/home{i}")
        kernel.sys.chdir(task, f"/home{i}")
        tasks.append(task)
        trace = build_loop_trace(files=2, io_rounds=1, subdirs=1,
                                 profile=profile, root=f"/mt{i}")
        programs.append(compile_trace(trace))
    replay_interleaved(kernel, list(zip(tasks, programs)), seed=0)

    def bind(kernel, tasks) -> Callable[[], None]:
        streams = list(zip(tasks, programs))

        def op() -> None:
            replay_interleaved(kernel, streams, seed=0)

        return op

    return kernel, tasks, bind


def _setup_server_fleet(profile: str) -> SetupResult:
    """Interleaved drain of a multi-tenant webserver/maildir fleet.

    The heavyweight sibling of ``multi_task_replay``: six tenants with
    real content (docroots, mailboxes), Zipf-skewed request volume, and
    a 10% mutating request mix (docroot rotations, maildir flag flips,
    mailbox renames) recorded per tenant and drained through
    :func:`~repro.workloads.traces.replay_interleaved` — the engine
    behind ``exp_tenant_crossover``.  Provisioning, recording, and
    trace compilation all happen here in setup; the timed op is one
    full fleet drain.  Quantized lazy sweeping (see :func:`_make`)
    keeps the drain plan-eligible on ``optimized-lazy``.
    """
    kernel = _make(profile, quantize=True)
    fleet = server_fleet.build_fleet(kernel, 6, total_requests=48,
                                     mutation_rate=0.1, seed=3)
    server_fleet.drain_fleet(kernel, fleet)  # warm

    # The whole FleetSetup is the snapshot extra: it pins the admin and
    # tenant tasks, whose credential PCCs the lazy sweeper examines —
    # letting any of them die would tie virtual charges to GC timing.
    def bind(kernel, fleet) -> Callable[[], None]:
        def op() -> None:
            server_fleet.drain_fleet(kernel, fleet)

        return op

    return kernel, fleet, bind


def _setup_stat_churn(profile: str) -> SetupResult:
    """Interleaved stat/rename over overlapping hot paths.

    Each op stats eight warm files, flips a sibling directory with a
    rename — invalidating every memoized resolution (counter bump on
    the optimized profiles, ``d_move`` on all three) — then re-stats
    half the files.  This measures the resolution memo's *invalidation*
    cost (bulk flush + re-record + re-confirm), not just its steady-
    state hit rate: a memo that made mutations expensive would show up
    here, not in ``warm_stat``.
    """
    kernel = _make(profile)
    task = kernel.spawn_task(uid=0, gid=0)
    kernel.sys.mkdir(task, "/s")
    kernel.sys.mkdir(task, "/s/hot")
    for i in range(8):
        fd = kernel.sys.open(task, f"/s/hot/f{i}", O_CREAT | O_RDWR)
        kernel.sys.close(task, fd)
        kernel.sys.stat(task, f"/s/hot/f{i}")
    kernel.sys.mkdir(task, "/s/flip0")

    def bind(kernel, task) -> Callable[[], None]:
        batch = kernel.sys.batch(task)
        stat, rename = batch.stat, batch.rename
        paths = [f"/s/hot/f{i}" for i in range(8)]
        flip = [0]

        def op() -> None:
            for path in paths:
                stat(path)
            src, dst = ("/s/flip0", "/s/flip1") if flip[0] == 0 \
                else ("/s/flip1", "/s/flip0")
            flip[0] ^= 1
            rename(src, dst)
            for path in paths[::2]:
                stat(path)

        return op

    return kernel, task, bind


def _setup_snapshot_restore(profile: str) -> SetupResult:
    """Snapshot restore of a warm lookup-tree kernel.

    The op is ``KernelSnapshot.restore()`` itself — the same primitive
    every other cell performs once per repetition *outside* its timed
    loop, and the process-parallel experiment engine performs per
    worker.  With the struct-of-arrays dcache core, most per-dentry
    state rides in :class:`~repro.core.arena.DentryArena` columns that
    restore as one C-level array copy each, so this cell is where that
    bulk-copy win is measured (and gated) directly.
    """
    kernel = _make(profile)
    task = lmbench.prepare_lookup_tree(kernel)
    kernel.sys.stat(task, lmbench.LONG_PATH)  # warm the caches first

    def bind(kernel, task) -> Callable[[], None]:
        snap = KernelSnapshot(kernel, task)

        def op() -> None:
            snap.restore()

        return op

    return kernel, task, bind


BENCHMARKS: List[Tuple[str, Callable[[str], SetupResult], int]] = [
    ("warm_stat", _setup_warm_stat, 10_000),
    ("stat_churn", _setup_stat_churn, 1_000),
    ("create_unlink", _setup_create_unlink, 1_000),
    ("readdir", _setup_readdir, 100),
    ("rename_inval", _setup_rename_inval, 1_000),
    ("rename_churn", _setup_rename_churn, 500),
    ("trace_replay", _setup_trace_replay, 25),
    ("multi_task_replay", _setup_multi_task_replay, 20),
    ("server_fleet", _setup_server_fleet, 20),
    ("snapshot_restore", _setup_snapshot_restore, 200),
]

_BENCH_BY_NAME = {name: (setup, n) for name, setup, n in BENCHMARKS}


# -- timing ---------------------------------------------------------------

def _measure(setup: Callable[[str], SetupResult], profile: str,
             n: int, reps: int) -> float:
    """Median microseconds per op over ``reps`` warm-restored repetitions.

    The kernel is built and warmed once; each repetition restores the
    warm snapshot (identical state, no rebuild) and times only the op
    loop.

    Cyclic-GC pauses are kept out of the timed loops (``timeit``-style:
    collect once after setup, then disable the collector until the reps
    finish).  Without this, a cell's numbers depend on how much garbage
    *earlier* cells left in the process — gen-2 collections triggered
    mid-loop were inflating late-matrix cells by 2–3× in full-suite
    runs.  Reference counting still frees acyclic garbage immediately,
    and the collector is re-enabled (and runs at the next threshold)
    the moment the cell ends; virtual output is untouched either way.
    """
    kernel, task, bind = setup(profile)
    snap = KernelSnapshot(kernel, task)
    samples = []
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            rep_kernel, rep_task = snap.restore()
            op = bind(rep_kernel, rep_task)
            t0 = time.perf_counter()
            for _ in range(n):
                op()
            samples.append((time.perf_counter() - t0) / n * 1e6)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(samples)


def _measure_virtual(setup: Callable[[str], SetupResult], profile: str,
                     n: int) -> float:
    """Virtual nanoseconds per op — deterministic, host-independent."""
    kernel, task, bind = setup(profile)
    rep_kernel, rep_task = KernelSnapshot(kernel, task).restore()
    op = bind(rep_kernel, rep_task)
    start = rep_kernel.costs.now_ns
    for _ in range(n):
        op()
    return (rep_kernel.costs.now_ns - start) / n


def _profile_cell(bench_name: str, profile: str,
                  setup: Callable[[str], SetupResult], n: int) -> None:
    """Dump a cProfile top-20 for one cell's op loop to stderr.

    Profiling runs on a *separate* warm-restored kernel after the timed
    measurement, so interpreter tracing overhead never contaminates the
    reported medians — the profile explains the numbers, it is not part
    of them.
    """
    kernel, task, bind = setup(profile)
    rep_kernel, rep_task = KernelSnapshot(kernel, task).restore()
    op = bind(rep_kernel, rep_task)
    prof = cProfile.Profile()
    prof.enable()
    for _ in range(n):
        op()
    prof.disable()
    print(f"\n-- cProfile {bench_name}[{profile}] "
          f"({n} ops, top 20 by cumulative time) --", file=sys.stderr)
    pstats.Stats(prof, stream=sys.stderr).sort_stats("cumulative") \
        .print_stats(20)


def measure_cell(bench_name: str, profile: str, iters: int, reps: int,
                 virtual: bool = False) -> float:
    """One (benchmark, profile) matrix cell — the parallel work unit."""
    setup, _default_n = _BENCH_BY_NAME[bench_name]
    if virtual:
        return round(_measure_virtual(setup, profile, iters), 3)
    value = round(_measure(setup, profile, iters, reps), 3)
    if _cprofile_enabled():
        _profile_cell(bench_name, profile, setup, iters)
    return value


def run_benchmarks(scale: float = 1.0, reps: int = 3, jobs: int = 1,
                   virtual: bool = False, verbose: bool = True,
                   only: "List[str] | None" = None) -> Dict[str, float]:
    """Run the benchmark × profile matrix; returns key -> value.

    Values are median wall-clock µs/op, or virtual ns/op with
    ``virtual=True``.  The matrix is fanned out over ``jobs`` worker
    processes; the result dict is built in matrix order regardless of
    completion order, so key order (and, in virtual mode, the values)
    match a serial run exactly.  ``only`` restricts the run to the named
    benchmarks (every name must exist in ``BENCHMARKS``).
    """
    selected = BENCHMARKS
    if only is not None:
        unknown = sorted(set(only) - set(_BENCH_BY_NAME))
        if unknown:
            raise KeyError(f"unknown benchmark name(s): {', '.join(unknown)}")
        selected = [row for row in BENCHMARKS if row[0] in only]
    cells = [(name, profile, max(1, int(n * scale)))
             for name, _setup, n in selected
             for profile in PROFILES]
    tasks: List[parallel.TaskSpec] = [
        (f"{name}[{profile}]", measure_cell,
         (name, profile, iters, reps, virtual))
        for name, profile, iters in cells]
    results = parallel.run_tasks(tasks, jobs=jobs, progress=False)
    out: Dict[str, float] = {}
    unit = "ns/op(virtual)" if virtual else "us/op"
    for result in results:
        out[result.name] = result.value
        if verbose:
            print(f"  {result.name:32s} {result.value:10.2f} {unit}"
                  f"   [{result.wall_clock_s:.2f}s on {result.worker}]")
    return out


def print_timing_appendix() -> None:
    """Markdown appendix separating compile cost from execute cost.

    The ``trace_replay`` cell times execution only (compilation happens
    in setup); this table is where the compile overhead shows up, so it
    can be audited instead of hiding in — or silently inflating — the
    op/s numbers.
    """
    print()
    print("## Trace-compile timing (not part of the op/s numbers)")
    print()
    print("| profile | events | compile (ms) | compile (us/event) |")
    print("|---------|--------|--------------|--------------------|")
    for profile in PROFILES:
        trace = build_loop_trace(profile=profile)
        program = compile_trace(trace)
        n = len(trace.events)
        ms = program.compile_wall_s * 1e3
        print(f"| {profile} | {n} | {ms:.2f} | {ms * 1e3 / n:.2f} |")
    _print_memo_appendix()
    _print_plan_appendix()


def _print_memo_appendix() -> None:
    """Resolution-memo hit/flush counters over a representative workload.

    Host-side telemetry only (``repro.core.resmemo``): the counters live
    outside ``Stats`` precisely so the memo cannot perturb golden
    counters, which is why they are reported here rather than in any
    virtual-cost table.  The sampled workload is 50 ``stat_churn`` ops
    (whose per-op rename flips exercise the flush path — each flush
    discards the whole memo, so the churn phase alone never replays)
    followed by a warm phase of repeated stats, where entries survive
    long enough to be confirmed and hit.
    """
    print()
    print("## Resolution-memo counters "
          "(host-side; stat_churn + warm stats)")
    print()
    if not _memo_enabled():
        print("resolution memo disabled (--memo off / "
              "REPRO_RESOLUTION_MEMO)")
        return
    print("| profile | hits | misses | stale | flushes | entries |")
    print("|---------|------|--------|-------|---------|---------|")
    for profile in PROFILES:
        kernel, task, bind = _setup_stat_churn(profile)
        op = bind(kernel, task)
        for _ in range(50):
            op()
        for _ in range(4):
            for i in range(8):
                kernel.sys.stat(task, f"/s/hot/f{i}")
        memo = kernel.memo
        print(f"| {profile} | {memo.hits} | {memo.misses} | {memo.stale} "
              f"| {memo.flushes} | {len(memo)} |")


def _print_plan_appendix() -> None:
    """Charge-plan capture/apply counters over the replay cells.

    Host-side telemetry only (``ChargePlanRegistry.telemetry()``): like
    the memo counters, plan bookkeeping lives outside ``Stats`` so it
    cannot perturb golden counters.  Sampled over six back-to-back
    passes of the ``trace_replay`` loop trace (warm → capture → confirm
    → apply) plus one ``multi_task_replay`` drain, so both the
    whole-pass and the per-segment plan paths report.
    """
    print()
    print("## Charge-plan counters (host-side; 6x trace_replay pass + "
          "1x multi_task_replay drain)")
    print()
    if not _plans_enabled():
        print("charge plans disabled (--plans off / REPRO_CHARGE_PLANS)")
        return
    print("| profile | compiled | applied | task_confirms "
          "| invalidated | fallbacks |")
    print("|---------|----------|---------|---------------"
          "|-------------|-----------|")
    for profile in PROFILES:
        kernel, task, bind = _setup_trace_replay(profile)
        op = bind(kernel, task)
        for _ in range(6):
            op()
        mt_kernel, mt_tasks, mt_bind = _setup_multi_task_replay(profile)
        mt_bind(mt_kernel, mt_tasks)()
        tel = kernel.costs.plans.telemetry()
        for key, value in mt_kernel.costs.plans.telemetry().items():
            tel[key] = tel.get(key, 0) + value
        print(f"| {profile} | {tel['compiled']} | {tel['applied']} "
              f"| {tel['task_confirms']} "
              f"| {tel['invalidated']} | {tel['fallbacks']} |")


# -- regression check -----------------------------------------------------

def print_comparison(results: Dict[str, float], baseline_json: str,
                     threshold: float) -> int:
    """Per-cell delta table: fresh results vs. a committed results file.

    One command instead of manual JSON diffing: for every cell in either
    set, print baseline and current values, the delta, the ×-factor, and
    pass/fail against the same fractional gate ``--check`` uses (a cell
    only *fails* when it regressed by more than ``threshold``; faster is
    always a pass).  Returns 1 if any shared cell failed the gate, else
    0.  Cells present on only one side are reported but never fail —
    they are new or retired benchmarks, not regressions.
    """
    with open(baseline_json) as fh:
        payload = json.load(fh)
    baseline = payload.get("results", payload)
    units = payload.get("units", "us_per_op")
    unit = "ns/op" if units.startswith("virtual") else "us/op"
    print()
    print(f"## Delta vs {baseline_json} (gate: +{threshold:.0%})")
    print()
    print(f"| cell | baseline ({unit}) | current ({unit}) "
          "| delta | factor | gate |")
    print("|------|------|------|-------|--------|------|")
    failed = False
    keys = list(baseline) + [k for k in results if k not in baseline]
    for key in keys:
        base = baseline.get(key)
        cur = results.get(key)
        if base is None or cur is None:
            side = "baseline only" if cur is None else "new cell"
            val = base if cur is None else cur
            print(f"| {key} | {base if base is not None else '—'} "
                  f"| {cur if cur is not None else '—'} | {side} | — | — |")
            continue
        ratio = cur / base if base else float("inf")
        status = "FAIL" if ratio > 1.0 + threshold else "ok"
        if status == "FAIL":
            failed = True
        print(f"| {key} | {base:.2f} | {cur:.2f} | {cur - base:+.2f} "
              f"| {ratio:.2f}x | {status} |")
    print()
    if failed:
        print(f"FAIL: at least one cell regressed more than "
              f"{threshold:.0%} vs {baseline_json}")
        return 1
    print(f"OK: no cell regressed more than {threshold:.0%} vs "
          f"{baseline_json}")
    return 0


def check_regressions(pytest_json: str, baseline_json: str,
                      threshold: float) -> int:
    """Compare a pytest-benchmark export against the committed baseline.

    Returns a process exit code: 0 if every mapped benchmark's median is
    within ``threshold`` (fractional, e.g. 0.25) of the baseline AND
    every baseline key was covered by a mapped export entry.  A baseline
    key with no matching pytest result means the gate silently stopped
    gating — that is a failure (exit 2), not a skip.
    """
    with open(pytest_json) as fh:
        bench_data = json.load(fh)
    with open(baseline_json) as fh:
        baseline = json.load(fh)["results"]

    missing = [key for key in REQUIRED_BASELINE_KEYS if key not in baseline]
    if missing:
        print("error: baseline is missing required write-path cells "
              "(a baseline without them un-gates the mutation path):",
              file=sys.stderr)
        for key in missing:
            print(f"  {key}", file=sys.stderr)
        return 2

    failed = False
    covered = set()
    for bench in bench_data.get("benchmarks", []):
        key = PYTEST_NAME_MAP.get(bench["name"])
        if key is None or key not in baseline:
            continue
        covered.add(key)
        median_us = bench["stats"]["median"] * 1e6
        base_us = baseline[key]
        ratio = median_us / base_us if base_us else float("inf")
        status = "ok"
        if ratio > 1.0 + threshold:
            status = "REGRESSION"
            failed = True
        print(f"  {bench['name']:44s} {median_us:9.2f} us "
              f"(baseline {base_us:9.2f} us, {ratio:5.2f}x) {status}")
    if not covered:
        print("error: no benchmarks in the export matched the baseline",
              file=sys.stderr)
        return 2
    uncovered = sorted(set(baseline) - covered)
    if uncovered:
        print("error: baseline keys with no mapped pytest result "
              "(unmapped benchmarks are ungated regressions):",
              file=sys.stderr)
        for key in uncovered:
            print(f"  {key}", file=sys.stderr)
        return 2
    if failed:
        print(f"FAIL: at least one median regressed more than "
              f"{threshold:.0%} vs {baseline_json}")
        return 1
    print(f"OK: {len(covered)} benchmark(s) within {threshold:.0%} of "
          f"baseline, all {len(baseline)} baseline keys covered")
    return 0


# -- CLI ------------------------------------------------------------------

def main(argv=None) -> int:
    """CLI entry point (``repro-speed``): run benchmarks or ``--check``."""
    parser = argparse.ArgumentParser(
        prog="repro-speed",
        description="Measure (or regression-check) simulator wall-clock "
                    "speed.")
    parser.add_argument("--output", default="BENCH_simspeed.json",
                        help="where to write results (default: %(default)s)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="iteration-count multiplier (e.g. 0.1 for a "
                             "quick smoke run)")
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions per benchmark; median is kept")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the benchmark matrix "
                             "(default: 1; 0 means one per CPU)")
    parser.add_argument("--virtual", action="store_true",
                        help="record deterministic virtual ns/op instead "
                             "of wall-clock us/op (byte-identical across "
                             "runs, hosts, and --jobs values)")
    parser.add_argument("--only", metavar="NAMES",
                        help="comma-separated benchmark names to run "
                             "(e.g. trace_replay); unknown names are an "
                             "error")
    parser.add_argument("--cprofile", action="store_true",
                        help="after timing each cell, run one profiled "
                             "pass and dump its cProfile top-20 (by "
                             "cumulative time) to stderr; timed medians "
                             "are unaffected")
    parser.add_argument("--timing", action="store_true",
                        help="print markdown appendices reporting trace "
                             "compile time, resolution-memo hit/flush "
                             "counters, and charge-plan capture/apply "
                             "counters separately from execute time")
    parser.add_argument("--memo", choices=("on", "off"), default=None,
                        help="enable/disable the resolution memo in every "
                             "benchmark kernel (default: on; virtual "
                             "results are identical either way)")
    parser.add_argument("--plans", choices=("on", "off"), default=None,
                        help="enable/disable charge plans in the replay "
                             "cells (default: on; virtual results are "
                             "identical either way)")
    parser.add_argument("--check", metavar="PYTEST_JSON",
                        help="pytest-benchmark JSON export to check against "
                             "the committed baseline instead of running")
    parser.add_argument("--compare", metavar="BASELINE_JSON",
                        help="after running, print a per-cell delta table "
                             "(value, x-factor, pass/fail vs --threshold) "
                             "against a previously written results file; "
                             "exits 1 if any shared cell regressed past "
                             "the gate")
    parser.add_argument("--baseline", default="BENCH_simspeed.json",
                        help="baseline file for --check (default: "
                             "%(default)s)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional median regression for "
                             "--check (default: %(default)s)")
    args = parser.parse_args(argv)

    if args.memo is not None:
        # Via the environment so --jobs worker processes inherit it.
        os.environ["REPRO_RESOLUTION_MEMO"] = args.memo
    if args.plans is not None:
        os.environ["REPRO_CHARGE_PLANS"] = args.plans
    if args.cprofile:
        os.environ["REPRO_CPROFILE"] = "1"

    if args.check:
        return check_regressions(args.check, args.baseline, args.threshold)

    only = None
    if args.only:
        only = [name.strip() for name in args.only.split(",") if name.strip()]
        unknown = sorted(set(only) - {name for name, _s, _n in BENCHMARKS})
        if unknown:
            print(f"error: unknown benchmark name(s): {', '.join(unknown)}",
                  file=sys.stderr)
            print(f"known: {', '.join(name for name, _s, _n in BENCHMARKS)}",
                  file=sys.stderr)
            return 2

    if args.virtual:
        print("Simulator speed (virtual ns per simulated op — "
              "deterministic):")
    else:
        print("Simulator speed (median wall-clock us per simulated op):")
    results = run_benchmarks(scale=args.scale, reps=args.reps,
                             jobs=args.jobs, virtual=args.virtual,
                             only=only)
    if args.timing:
        print_timing_appendix()
    payload = {
        "schema": ("dcache-repro-simspeed-virtual/1" if args.virtual
                   else "dcache-repro-simspeed/1"),
        "units": "virtual_ns_per_op" if args.virtual else "us_per_op",
        "reps": args.reps,
        "scale": args.scale,
        "results": results,
    }
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    if args.compare:
        return print_comparison(results, args.compare, args.threshold)
    return 0


if __name__ == "__main__":
    sys.exit(main())
