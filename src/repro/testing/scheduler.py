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
from repro.testing.races import InterposedHooks
from repro.vfs.walk import WalkHooks


class _YieldingHooks(InterposedHooks):
    """Delegating hooks that park the calling thread at every event."""

    def __init__(self, inner: WalkHooks, runner: "ConcurrentRunner"):
        super().__init__(inner)
        self.runner = runner

    def _interpose(self) -> None:
        self.runner._yield_point()


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
