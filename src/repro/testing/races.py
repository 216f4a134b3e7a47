"""Race injection: adversarial interleaving of lookups and mutations.

The §3.2 protocol exists for exactly one reason: a slowpath walk can race
a directory mutation, and its results must never be re-cached stale.  The
Python simulator is single-threaded, but every slowpath walk passes
through the :class:`~repro.vfs.walk.WalkHooks` callbacks — the same
boundaries where a real kernel's RCU walk can observe concurrent
mutations.  :class:`RaceInjector` wraps the optimized kernel's hook chain
and fires a mutation *inside* a victim lookup at a chosen hook index,
exactly emulating "the rename committed between component 2 and 3 of the
walk".

After the dust settles, :func:`assert_fastpath_consistent` verifies the
linearizability obligation: for every probe path, the fastpath answer
(possibly served from the DLHT/PCC) must equal a freshly walked,
non-populating slowpath answer — i.e., no stale state survived the race.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

from repro import errors
from repro.core.kernel import Kernel
from repro.vfs.task import Task
from repro.vfs.walk import WalkHooks

#: Hook names, in the order a walk can reach them.
HOOK_POINTS = ["begin", "step", "dotdot", "symlink_begin", "symlink",
               "negative_tail", "finish"]


class InterposedHooks(WalkHooks):
    """Walk hooks that run :meth:`_interpose` ahead of each of the seven
    :data:`HOOK_POINTS` of an inner hook chain, then forward to it.

    ``abandon`` is forwarded without interposing: the walk is already
    dead, and the inner hooks must still balance their in-flight
    accounting (``coherence.walks_active``).
    """

    def __init__(self, inner: WalkHooks):
        self.inner = inner

    def _interpose(self) -> None:
        """What runs at every hook point, before the inner hook."""

    def begin(self, task, start, absolute, prehashed=0):
        self._interpose()
        return self.inner.begin(task, start, absolute, prehashed)

    def step(self, ctx, name, dentry, mount):
        self._interpose()
        self.inner.step(ctx, name, dentry, mount)

    def dotdot(self, ctx, result):
        self._interpose()
        self.inner.dotdot(ctx, result)

    def symlink_begin(self, ctx, link, absolute_target):
        self._interpose()
        self.inner.symlink_begin(ctx, link, absolute_target)

    def symlink(self, ctx, link, target):
        self._interpose()
        self.inner.symlink(ctx, link, target)

    def negative_tail(self, ctx, neg, remaining, kind):
        self._interpose()
        self.inner.negative_tail(ctx, neg, remaining, kind)

    def finish(self, ctx, final):
        self._interpose()
        self.inner.finish(ctx, final)

    def abandon(self, ctx):
        self.inner.abandon(ctx)


class RaceInjector(InterposedHooks):
    """Wraps a kernel's walk hooks, firing a mutation mid-walk.

    Args:
        kernel: an *optimized* kernel (hooks are the FastLookup engine).
        mutation: zero-arg callable performing the concurrent mutation.
        fire_at: global hook-event index at which to fire (0 = the first
            hook event of the victim lookup).
    """

    def __init__(self, kernel: Kernel, mutation: Callable[[], None],
                 fire_at: int):
        if kernel.fast is None:
            raise ValueError("race injection requires an optimized kernel")
        super().__init__(kernel.fast)
        self.kernel = kernel
        self.mutation = mutation
        self.fire_at = fire_at
        self.events = 0
        self.fired = False
        self.armed = False

    # -- arming -------------------------------------------------------------

    def __enter__(self) -> "RaceInjector":
        self.kernel.slow_walk.hooks = self
        self.armed = True
        return self

    def __exit__(self, *exc) -> None:
        self.kernel.slow_walk.hooks = self.inner
        self.armed = False

    def _interpose(self) -> None:
        if self.armed and not self.fired and self.events == self.fire_at:
            self.fired = True
            # Disarm while the mutation runs (its own lookups must not
            # re-enter the injector).
            self.kernel.slow_walk.hooks = self.inner
            try:
                self.mutation()
            finally:
                self.kernel.slow_walk.hooks = self
        self.events += 1


def _outcome(thunk) -> Tuple[str, object]:
    try:
        result = thunk()
    except errors.FsError as exc:
        return ("err", exc.errno)
    from repro.vfs.syscalls import StatResult
    if isinstance(result, StatResult):
        return ("ok", (result.ino, result.mode, result.filetype,
                       result.fstype))
    return ("ok", result)


def ground_truth_stat(kernel: Kernel, task: Task, path: str,
                      follow: bool = True) -> Tuple[str, object]:
    """A non-populating, non-fastpath stat: the semantic ground truth."""
    saved_hooks = kernel.slow_walk.hooks
    kernel.slow_walk.hooks = WalkHooks()
    try:
        def thunk():
            pos = kernel.slow_walk.resolve(task, path, follow_last=follow,
                                           count_stats=False)
            inode = pos.dentry.inode
            return (inode.ino, inode.mode, inode.filetype,
                    inode.fs.fstype)
        return _outcome(thunk)
    finally:
        kernel.slow_walk.hooks = saved_hooks


def assert_fastpath_consistent(kernel: Kernel, task: Task,
                               paths: Sequence[str]) -> None:
    """Every probe path's fastpath answer must match the ground truth."""
    for path in paths:
        fast = _outcome(lambda p=path: kernel.sys.stat(task, p))
        truth = ground_truth_stat(kernel, task, path)
        assert fast == truth, (
            f"stale cache after race: stat({path!r}) -> {fast} but "
            f"ground truth is {truth}")
        # And it must be stable (a second fastpath-served call agrees).
        again = _outcome(lambda p=path: kernel.sys.stat(task, p))
        assert again == fast, (
            f"unstable result for {path!r}: {fast} then {again}")


def run_race(kernel: Kernel, victim: Callable[[], object],
             mutation: Callable[[], None],
             fire_at: int) -> Tuple[str, object, bool]:
    """Run ``victim`` with ``mutation`` injected at hook ``fire_at``.

    Returns (outcome kind, outcome payload, mutation fired?).  When
    ``fire_at`` exceeds the number of hook events the victim generates,
    the mutation simply never fires (callers sweep fire_at upward until
    that happens).
    """
    with RaceInjector(kernel, mutation, fire_at) as injector:
        kind, payload = _outcome(victim)
    return kind, payload, injector.fired
