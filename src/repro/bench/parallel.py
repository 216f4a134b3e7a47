"""Process-parallel benchmark scheduler.

The experiment suite (``repro.bench.report``) is embarrassingly
parallel: every task builds its own kernels from scratch and shares
nothing with its siblings.  This module fans a task list out across a
:mod:`multiprocessing` worker pool and merges the results back in
submission order, so the rendered output of a parallel run is
byte-identical to a serial one — parallelism changes wall-clock time and
nothing else.

Determinism contract:

* **Order-preserving merge.**  Workers complete in any order; results
  are slotted back by task index before anything is rendered.
* **Deterministic per-task seeding.**  Before each task runs — in a
  worker *or* inline — the global :mod:`random` state is seeded from a
  stable CRC of the task name (:func:`task_seed`).  Library code uses
  its own seeded ``random.Random`` instances everywhere today; the
  engine-level seed guarantees any future global-RNG consumer behaves
  identically under ``--jobs 1`` and ``--jobs N``.
* **Picklable work units.**  A task is ``(name, fn, args)`` where ``fn``
  is a module-level function — workers import it by qualified name, so
  registries of closures/lambdas stay in the parent and only the task
  name crosses the process boundary.

Each result carries wall-clock duration and worker attribution so the
harness's own time is observable (rendered by ``--timing`` /
``print_timing_table``).
"""

from __future__ import annotations

import os
import random
import sys
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: A unit of work: (display name, module-level callable, positional args).
TaskSpec = Tuple[str, Callable[..., Any], Tuple[Any, ...]]


@dataclass
class TaskResult:
    """Outcome of one task, with harness-time attribution."""

    index: int
    name: str
    value: Any
    wall_clock_s: float
    worker: str


def task_seed(name: str) -> int:
    """Stable per-task seed: CRC32 of the task name (hash() is salted)."""
    return zlib.crc32(name.encode("utf-8"))


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/0 means one per CPU."""
    if not jobs:
        return os.cpu_count() or 1
    return max(1, jobs)


def _execute(task: TaskSpec, index: int) -> TaskResult:
    """Run one task (in whichever process) with seeding and timing."""
    name, fn, args = task
    random.seed(task_seed(name))
    start = time.perf_counter()
    value = fn(*args)
    elapsed = time.perf_counter() - start
    try:
        import multiprocessing
        worker = multiprocessing.current_process().name
    except Exception:  # pragma: no cover - multiprocessing always importable
        worker = "unknown"
    if worker == "MainProcess":
        worker = "main"
    return TaskResult(index, name, value, elapsed, worker)


def _pool_entry(payload: Tuple[int, TaskSpec]) -> TaskResult:
    index, task = payload
    return _execute(task, index)


def run_tasks(tasks: Sequence[TaskSpec], jobs: Optional[int] = None,
              progress: bool = True) -> List[TaskResult]:
    """Run every task, ``jobs`` at a time, preserving input order.

    ``jobs`` <= 1 (after :func:`resolve_jobs`) runs everything inline in
    this process — the exact same code path minus the pool, which is
    what makes serial and parallel outputs comparable byte-for-byte.
    """
    jobs = resolve_jobs(jobs)
    total = len(tasks)
    results: List[Optional[TaskResult]] = [None] * total
    done = 0

    def note(result: TaskResult) -> None:
        if progress:
            print(f"  [{done}/{total}] {result.name} "
                  f"({result.wall_clock_s:.2f}s on {result.worker})",
                  file=sys.stderr, flush=True)

    if jobs <= 1 or total <= 1:
        for index, task in enumerate(tasks):
            result = _execute(task, index)
            results[index] = result
            done += 1
            note(result)
    else:
        import multiprocessing
        payloads = list(enumerate(tasks))
        with multiprocessing.Pool(processes=min(jobs, total)) as pool:
            for result in pool.imap_unordered(_pool_entry, payloads,
                                              chunksize=1):
                results[result.index] = result
                done += 1
                note(result)
    missing = [i for i, r in enumerate(results) if r is None]
    if missing:  # pragma: no cover - a worker crash surfaces as an exception
        raise RuntimeError(f"tasks never completed: {missing}")
    return results  # type: ignore[return-value]


def print_timing_table(results: Sequence[TaskResult],
                       stream=None) -> None:
    """Per-task wall-clock / worker attribution summary (stderr)."""
    stream = stream or sys.stderr
    total = sum(r.wall_clock_s for r in results)
    print("harness timing (wall-clock):", file=stream)
    for r in sorted(results, key=lambda r: -r.wall_clock_s):
        share = 100.0 * r.wall_clock_s / total if total else 0.0
        print(f"  {r.name:24s} {r.wall_clock_s:8.2f}s  {share:5.1f}%  "
              f"{r.worker}", file=stream)
    print(f"  {'total (cpu-seconds)':24s} {total:8.2f}s", file=stream)


def timing_appendix(results: Sequence[TaskResult]) -> str:
    """Markdown appendix rendering harness time per experiment.

    Only emitted under ``--timing``: wall-clock varies run to run, and
    the default output must stay byte-identical between serial and
    parallel runs (the property CI asserts).
    """
    lines = ["## Appendix: harness timing", "",
             "Wall-clock seconds of *harness* time per experiment "
             "(simulated results above are virtual-time and unaffected).",
             "",
             "| experiment | wall-clock (s) | worker |",
             "|---|---|---|"]
    for r in results:
        lines.append(f"| {r.name} | {r.wall_clock_s:.2f} | {r.worker} |")
    lines.append("")
    return "\n".join(lines)
