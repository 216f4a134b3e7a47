"""Drive two kernels with identical operations and compare every result.

A :class:`DualKernel` owns one kernel per configuration (by default the
paper's baseline and optimized profiles) plus parallel task universes.
Calling a syscall on it runs the call on every kernel and asserts the
observable outcome is identical:

* return values are normalized (stat tuples, sorted listings, data);
* exceptions must match by errno;
* directory listings compare as multisets (cache-served order may differ).

Any divergence raises :class:`Mismatch` with both outcomes — this is the
equivalence oracle behind the compatibility test suite.
"""

from __future__ import annotations

import random
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro import errors
from repro.core.kernel import BASELINE, OPTIMIZED, DcacheConfig, Kernel
from repro.vfs.syscalls import StatResult
from repro.vfs.task import Task


class Mismatch(AssertionError):
    """Two kernels disagreed on an operation's outcome."""


def _normalize(value: Any) -> Any:
    """Make results comparable across kernels."""
    if isinstance(value, StatResult):
        # mtime is excluded: the kernels' virtual clocks legitimately
        # differ (that difference is the experiment).
        ino = value.ino if value.fstype != "proc" else None
        return ("stat", ino, value.mode, value.uid, value.gid,
                value.nlink, value.size, value.filetype, value.fstype)
    if isinstance(value, list) and value and isinstance(value[0], tuple):
        return ("listing", tuple(sorted(value)))
    if isinstance(value, tuple) and len(value) == 2 and \
            isinstance(value[0], int) and isinstance(value[1], str):
        # mkstemp returns (fd, name); fds are kernel-local.
        return ("mkstemp", value[1])
    if isinstance(value, int):
        # File descriptors are kernel-local handles; both kernels follow
        # the same allocation discipline, so they match anyway, but we
        # compare them only for equality of success.
        return ("int", value)
    return value


class DualKernel:
    """Synchronized pair (or set) of kernels under test."""

    def __init__(self, configs: Sequence[DcacheConfig] = (BASELINE,
                                                          OPTIMIZED),
                 fs_factory: Optional[Callable] = None,
                 lsm_factory: Optional[Callable] = None):
        self.kernels: List[Kernel] = []
        for config in configs:
            root_fs = None
            lsm = lsm_factory() if lsm_factory else None
            kernel = Kernel(config, root_fs=root_fs, lsm=lsm)
            if fs_factory is not None:
                # fs_factory needs the kernel's cost model; rebuild.
                kernel = Kernel(config, root_fs=fs_factory(kernel.costs),
                                lsm=lsm)
            self.kernels.append(kernel)
        #: Parallel task lists: tasks[i][k] is task i on kernel k.
        self.tasks: List[List[Task]] = []

    # -- task universe -----------------------------------------------------------

    def spawn_task(self, uid: int = 0, gid: int = 0, groups=(),
                   security: Optional[str] = None) -> int:
        """Spawn the same task on every kernel; returns a task handle."""
        row = [kernel.spawn_task(uid=uid, gid=gid, groups=groups,
                                 security=security)
               for kernel in self.kernels]
        self.tasks.append(row)
        return len(self.tasks) - 1

    def change_identity(self, task: int, **kw) -> None:
        for kernel, t in zip(self.kernels, self.tasks[task]):
            kernel.change_identity(t, **kw)

    # -- synchronized syscalls ------------------------------------------------------

    def call(self, task: int, op: str, *args, **kwargs) -> Any:
        """Run ``sys.<op>(task, *args)`` on every kernel and compare."""
        outcomes: List[Tuple[str, Any]] = []
        results: List[Any] = []
        for kernel, t in zip(self.kernels, self.tasks[task]):
            method = getattr(kernel.sys, op)
            call_kwargs = dict(kwargs)
            if "rng_seed" in call_kwargs:
                call_kwargs["rng"] = random.Random(call_kwargs.pop("rng_seed"))
            try:
                result = method(t, *args, **call_kwargs)
                outcomes.append(("ok", _normalize(result)))
                results.append(result)
            except errors.FsError as exc:
                outcomes.append(("err", exc.errno))
                results.append(exc)
        first = outcomes[0]
        for i, outcome in enumerate(outcomes[1:], start=1):
            if outcome != first:
                raise Mismatch(
                    f"{op}{args!r} diverged: "
                    f"{self.kernels[0].config.name}={first!r} vs "
                    f"{self.kernels[i].config.name}={outcome!r}")
        if first[0] == "err":
            raise results[0]
        return results[0]

    # -- convenience wrappers used by scripted tests -----------------------------------

    def __getattr__(self, op: str):
        if op.startswith("_"):
            raise AttributeError(op)

        def call(task: int, *args, **kwargs):
            return self.call(task, op, *args, **kwargs)

        return call

    # -- invariants ---------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Structural invariants on every kernel (run between ops)."""
        for kernel in self.kernels:
            _check_kernel_invariants(kernel)


def fingerprint(kernel: Kernel) -> tuple:
    """Everything virtual about ``kernel``: the clock, every cost
    accumulator and every Stats counter.

    Integer time makes ``==`` exact: two kernels that host-side layers
    alone tell apart (memo, plans, compiled replay on or off) must have
    equal fingerprints.
    """
    costs = kernel.costs
    return (costs.now_ns, dict(costs.counts), costs.by_primitive,
            costs.by_scope, kernel.stats.snapshot())


def _check_kernel_invariants(kernel: Kernel) -> None:
    """Cache-structure invariants from the paper's design.

    * parent-in-cache: every cached dentry's parent chain is cached;
    * the tree and the LRU hold the same dentries: every dentry in a
      ``children`` map is in the LRU, nothing else is, and
      ``len(dcache)`` is the LRU plus the superblock roots;
    * every cached dentry's kind fields match ``inode`` / ``stub`` /
      ``alias_target`` (``Dentry.derive_kind``);
    * every mount of the root namespace is listed in its mountpoint's
      ``mounted_roots``;
    * DLHT entries point at dentries registered back to the table,
      under the one key each dentry records (``fast.dlht_key``);
    * a DIR_COMPLETE directory's positive children exactly match the
      low-level file system's listing.
    """
    dcache = kernel.dcache
    lru = dcache._lru
    linked = 0
    for root in dcache._roots.values():
        stack = [root]
        while stack:
            dentry = stack.pop()
            for name, child in dentry.children.items():
                assert child.parent is dentry, \
                    f"broken parent link at {name!r}"
                assert not child.dead, f"dead dentry {name!r} still linked"
                assert lru.get(id(child)) is child, \
                    f"cached dentry {name!r} missing from the LRU"
                linked += 1
                stack.append(child)
            assert (dentry.is_negative, dentry.is_stub, dentry.is_alias,
                    dentry.is_dir, dentry.is_symlink) \
                == dentry.derive_kind(), f"stale kind fields on {dentry!r}"
            if dentry.dir_complete and dentry.inode is not None:
                fs_names = {name for name, _ino, _dt
                            in dentry.inode.fs.readdir(dentry.inode.ino)}
                cached = {c.name for c in dentry.children.values()
                          if c.inode is not None or c.stub is not None}
                assert cached == fs_names, (
                    f"DIR_COMPLETE mismatch at {dentry.path_from_root()}: "
                    f"cached={cached} fs={fs_names}")
    assert linked == len(lru), "LRU holds dentries the tree does not"
    assert len(dcache) == len(lru) + len(dcache._roots)
    for mount in kernel.root_ns.mounts:
        if mount.mountpoint is not None:
            assert any(root is mount.root_dentry
                       for root in mount.mountpoint.mounted_roots), \
                f"mount {mount!r} missing from its mountpoint's roots"
    for ns in (kernel.root_ns,):
        if ns.dlht is None:
            continue
        for key, dentry in ns.dlht.table.items():
            fast = dentry.fast
            assert fast is not None and fast.dlht is ns.dlht, \
                "DLHT entry not registered back"
            assert fast.dlht_key == key, "DLHT key mismatch"
