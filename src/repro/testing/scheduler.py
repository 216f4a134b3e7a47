"""Deterministic concurrent execution of syscalls at hook granularity.

:class:`ConcurrentRunner` runs several operations "concurrently" against
one optimized kernel: each operation lives on its own thread, but threads
execute strictly one at a time and switch only at walk-hook boundaries —
the same granularity at which a real RCU walk can observe concurrent
mutations (mutations themselves hold ``rename_lock``-style exclusivity
between hooks).  A seeded RNG drives the schedule, so every interleaving
is reproducible, and sweeping seeds explores many distinct histories of
the §3.2 protocol: multiple lookups populating the DLHT/PCC while
renames, chmods, and unlinks invalidate underneath them.

After a run, callers verify with
:func:`repro.testing.races.assert_fastpath_consistent` and the DualKernel
invariants that no stale state survived any schedule.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro import errors
from repro.core.kernel import Kernel
from repro.vfs.walk import WalkHooks


class StreamScheduler:
    """Seeded unit-granularity scheduler for interleaved compiled replay.

    Where :class:`ConcurrentRunner` interleaves *within* syscalls (walk
    hooks, real threads), this scheduler interleaves *between* them: at
    every step one of the currently live streams advances by one unit.
    Picks are uniform over live streams from a seeded RNG, so a given
    ``(seed, unit counts)`` pair always produces the identical
    schedule — the determinism whole-drain charge plans rely on.

    A compiled program carries its unit table, so
    :func:`repro.workloads.traces.replay_interleaved` has
    :meth:`plan_schedule` precompute the entire pick sequence as flat
    run-length-coalesced arrays and advances streams in runs instead of
    paying one RNG call per unit.  The planned schedule is
    *pick-for-pick identical* to driving :meth:`pick` dynamically
    (``tests/test_server_fleet.py`` asserts this), so vectorization
    cannot change any interleaving.
    """

    __slots__ = ("_rng",)

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def pick(self, alive: int) -> int:
        """Index (``0 <= i < alive``) of the stream to advance next."""
        return self._rng.randrange(alive)

    def snapshot(self):
        """Opaque, comparable RNG state token: two schedulers with equal
        tokens produce the identical remaining pick sequence."""
        return self._rng.getstate()

    # -- static schedule planning ----------------------------------------

    def plan_schedule(self, unit_counts) -> "Tuple[List[int], List[int]]":
        """Precompute the full drain schedule as flat (stream, run) arrays.

        Simulates the exact dynamic algorithm the unit-by-unit drain
        loop uses — one ``randrange(len(alive))`` per step over a
        shrinking alive list, where a pick landing on an exhausted
        stream *consumes an RNG draw* and retires the stream without
        advancing anything (the dynamic loop discovers exhaustion via
        ``StopIteration`` on that extra pick).  Because the RNG draws
        happen in the same order with the same bounds, the resulting
        advance sequence is identical to the dynamic loop's, and the
        scheduler's RNG ends in the identical state.

        Consecutive picks of the same stream are coalesced into runs:
        the return value is ``(streams, runs)`` where stream
        ``streams[i]`` advances ``runs[i]`` units, in order.
        """
        remaining = list(unit_counts)
        alive = list(range(len(remaining)))
        streams: List[int] = []
        runs: List[int] = []
        randrange = self._rng.randrange
        last = -1
        while alive:
            i = randrange(len(alive))
            s = alive[i]
            if remaining[s] == 0:
                # The dynamic loop's StopIteration pick: retire, no work.
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


class _YieldingHooks(WalkHooks):
    """Delegating hooks that park the calling thread at every event."""

    def __init__(self, inner: WalkHooks, runner: "ConcurrentRunner"):
        self.inner = inner
        self.runner = runner

    def _pause(self) -> None:
        self.runner._yield_point()

    def begin(self, task, start, absolute, prehashed=0):
        self._pause()
        return self.inner.begin(task, start, absolute, prehashed)

    def step(self, ctx, name, dentry, mount):
        self._pause()
        self.inner.step(ctx, name, dentry, mount)

    def dotdot(self, ctx, result):
        self._pause()
        self.inner.dotdot(ctx, result)

    def symlink_begin(self, ctx, link, absolute_target):
        self._pause()
        self.inner.symlink_begin(ctx, link, absolute_target)

    def symlink(self, ctx, link, target):
        self._pause()
        self.inner.symlink(ctx, link, target)

    def negative_tail(self, ctx, neg, remaining, kind):
        self._pause()
        self.inner.negative_tail(ctx, neg, remaining, kind)

    def finish(self, ctx, final):
        self._pause()
        self.inner.finish(ctx, final)

    def abandon(self, ctx):
        # No pause: the walk is already dead, and the inner hook must
        # still balance its in-flight accounting (walks_active).
        self.inner.abandon(ctx)


class _Worker:
    __slots__ = ("thread", "go", "parked", "finished", "outcome")

    def __init__(self) -> None:
        self.thread: Optional[threading.Thread] = None
        self.go = threading.Event()
        self.parked = threading.Event()
        self.finished = False
        self.outcome: Tuple[str, Any] = ("pending", None)


class ConcurrentRunner:
    """Cooperative, deterministic multi-threaded syscall execution."""

    def __init__(self, kernel: Kernel, seed: int = 0):
        self.kernel = kernel
        self.rng = random.Random(seed)
        self._workers: List[_Worker] = []
        self._local = threading.local()

    # -- worker side -----------------------------------------------------------

    def _yield_point(self) -> None:
        worker = getattr(self._local, "worker", None)
        if worker is None:
            return  # a call outside any scheduled op (setup/verification)
        worker.parked.set()
        worker.go.wait()
        worker.go.clear()

    def _run_op(self, worker: _Worker, op: Callable[[], Any]) -> None:
        self._local.worker = worker
        worker.go.wait()
        worker.go.clear()
        try:
            result = op()
            worker.outcome = ("ok", result)
        except errors.FsError as exc:
            worker.outcome = ("err", exc.errno)
        except BaseException as exc:  # surfaced by run()
            worker.outcome = ("crash", exc)
        finally:
            worker.finished = True
            worker.parked.set()

    # -- scheduler side -----------------------------------------------------------

    def run(self, ops: Sequence[Callable[[], Any]],
            timeout: float = 30.0) -> List[Tuple[str, Any]]:
        """Execute ``ops`` under one random deterministic schedule.

        Returns one ``("ok", result) | ("err", errno)`` outcome per op,
        in op order.  Crashes inside an op re-raise here.
        """
        inner_hooks = self.kernel.slow_walk.hooks
        self.kernel.slow_walk.hooks = _YieldingHooks(inner_hooks, self)
        try:
            workers = []
            for op in ops:
                worker = _Worker()
                worker.thread = threading.Thread(
                    target=self._run_op, args=(worker, op), daemon=True)
                workers.append(worker)
                worker.thread.start()
            runnable = list(workers)
            while runnable:
                worker = self.rng.choice(runnable)
                worker.parked.clear()
                worker.go.set()
                if not worker.parked.wait(timeout):
                    raise RuntimeError("scheduled op wedged")
                if worker.finished:
                    runnable.remove(worker)
                    worker.thread.join(timeout)
            outcomes = []
            for worker in workers:
                kind, payload = worker.outcome
                if kind == "crash":
                    raise payload
                outcomes.append((kind, payload))
            return outcomes
        finally:
            self.kernel.slow_walk.hooks = inner_hooks


def normalize_stat(result) -> Any:
    """Stat outcomes comparable across runs."""
    from repro.vfs.syscalls import StatResult

    if isinstance(result, StatResult):
        return (result.ino, result.mode, result.filetype)
    return result
