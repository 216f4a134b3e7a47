"""LMBench-style microbenchmarks (extended lat_syscall, §6.1).

These drivers prepare the exact path shapes of Figure 6 and measure
virtual-time latency of ``stat``/``open`` (plus the chmod/rename,
readdir, and mkstemp micro-experiments of Figures 7 and 9).  Because the
clock is deterministic, a single measured call after one warming call is
an exact latency — no averaging needed.
"""

from __future__ import annotations

import random
from typing import Dict, NamedTuple

from repro import O_CREAT, O_RDONLY, O_RDWR
from repro.core.kernel import Kernel
from repro.vfs.task import Task
from repro.workloads.tree import (build_fanout_tree, build_flat_dir,
                                  fanout_paths)

#: Figure 6's path patterns (name -> path to stat/open, cwd is "/").
PATH_PATTERNS = [
    ("default", "usr/include/gcc-x86_64-linux-gnu/sys/types.h"),
    ("1-comp", "FFF"),
    ("2-comp", "XXX/FFF"),
    ("4-comp", "XXX/YYY/ZZZ/FFF"),
    ("8-comp", "XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF"),
    ("link-f", "XXX/YYY/ZZZ/LLL"),
    ("link-d", "LLL/YYY/ZZZ/FFF"),
    ("neg-f", "XXX/YYY/ZZZ/NNN"),
    ("neg-d", "NNN/XXX/YYY/FFF"),
    ("1-dotdot", "XXX/../FFF"),
    ("4-dotdot", "XXX/YYY/../../AAA/BBB/../../FFF"),
]

#: Patterns that resolve to a real file (open succeeds).
POSITIVE_PATTERNS = {"default", "1-comp", "2-comp", "4-comp", "8-comp",
                     "link-f", "link-d", "1-dotdot", "4-dotdot"}


def prepare_lookup_tree(kernel: Kernel) -> Task:
    """Build every path Figure 6 exercises; returns a root task at /,
    which the caller exits."""
    task = kernel.spawn_task(uid=0, gid=0)
    sys = kernel.sys

    def mkfile(path: str) -> None:
        fd = sys.open(task, path, O_CREAT | O_RDWR)
        sys.close(task, fd)

    for chain in (["usr", "include", "gcc-x86_64-linux-gnu", "sys"],
                  ["XXX", "YYY", "ZZZ", "AAA", "BBB", "CCC", "DDD"],
                  ["AAA", "BBB"]):
        prefix = ""
        for part in chain:
            prefix = f"{prefix}/{part}"
            if not sys.exists(task, prefix):
                sys.mkdir(task, prefix)
    mkfile("/usr/include/gcc-x86_64-linux-gnu/sys/types.h")
    mkfile("/FFF")
    mkfile("/XXX/FFF")
    mkfile("/XXX/YYY/ZZZ/FFF")
    mkfile("/XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF")
    # link-f: final symlink to a sibling file.
    sys.symlink(task, "FFF", "/XXX/YYY/ZZZ/LLL")
    # link-d: a directory symlink at the first component.
    sys.symlink(task, "/XXX", "/LLL")
    return task


def measure_stat(kernel: Kernel, task: Task, path: str,
                 warm_rounds: int = 2) -> float:
    """Exact warm-cache latency (virtual ns) of one stat."""
    sys = kernel.sys
    for _ in range(warm_rounds):
        _try_stat(sys, task, path)
    start = kernel.now_ns
    _try_stat(sys, task, path)
    return kernel.now_ns - start


def measure_open(kernel: Kernel, task: Task, path: str,
                 warm_rounds: int = 2) -> float:
    """Exact warm-cache latency (virtual ns) of one open (close excluded)."""
    sys = kernel.sys
    fds = []
    for _ in range(warm_rounds):
        fds.append(sys.open(task, path, O_RDONLY))
    start = kernel.now_ns
    fds.append(sys.open(task, path, O_RDONLY))
    elapsed = kernel.now_ns - start
    for fd in fds:
        sys.close(task, fd)
    return elapsed


def _try_stat(sys, task: Task, path: str) -> None:
    from repro import errors
    try:
        sys.stat(task, path)
    except errors.FsError:
        pass


def measure_fstatat(kernel: Kernel, task: Task, dirfd: int,
                    relpath: str, warm_rounds: int = 2) -> float:
    """Exact warm latency (virtual ns) of one fstatat via ``dirfd``."""
    sys = kernel.sys
    for _ in range(warm_rounds):
        sys.fstatat(task, relpath, dirfd=dirfd)
    start = kernel.now_ns
    sys.fstatat(task, relpath, dirfd=dirfd)
    return kernel.now_ns - start


def lookup_breakdown(kernel: Kernel, task: Task,
                     path: str) -> Dict[str, float]:
    """Figure 3: per-phase attribution of one warm stat.

    Returns {init, perm, hash, htlookup, final, ...} in virtual ns.
    """
    _try_stat(kernel.sys, task, path)  # warm
    kernel.costs.reset_attribution()
    _try_stat(kernel.sys, task, path)
    return dict(kernel.costs.by_scope)


# ----------------------------------------------------------------------
# Figure 7: chmod / rename of populated directories
# ----------------------------------------------------------------------

class MutationLatency(NamedTuple):
    """One Figure 7 measurement, in virtual ns."""

    chmod_ns: float
    rename_ns: float
    descendants: int
    first_pass_ns: float
    second_pass_ns: float

    @property
    def retouch_ns(self) -> float:
        """The mutations plus one ``stat`` of every moved path."""
        return self.chmod_ns + self.rename_ns + self.first_pass_ns


def measure_mutation_latency(kernel: Kernel, depth: int) -> MutationLatency:
    """chmod and rename latency on a fanout tree of the given depth.

    The whole subtree is in the dcache (it was just created), which is
    the paper's worst case.  After the rename every moved path is
    ``stat``ed once, then once more: the first pass pays what the
    mutation deferred (eager coherence shot the subtree down, lazy
    coherence revalidates it), the second is warm.
    """
    task = kernel.spawn_task(uid=0, gid=0)
    base = f"/mutate{depth}"
    _base, descendants = build_fanout_tree(kernel, task, base, depth)
    start = kernel.now_ns
    kernel.sys.chmod(task, base, 0o700)
    chmod_ns = kernel.now_ns - start
    moved = base + "_moved"
    start = kernel.now_ns
    kernel.sys.rename(task, base, moved)
    rename_ns = kernel.now_ns - start
    paths = [moved, *(path for path, _is_dir in fanout_paths(moved, depth))]
    passes = []
    for _ in range(2):
        start = kernel.now_ns
        for path in paths:
            kernel.sys.stat(task, path)
        passes.append(kernel.now_ns - start)
    kernel.exit_task(task)
    return MutationLatency(chmod_ns, rename_ns, descendants, *passes)


# ----------------------------------------------------------------------
# Figure 9: readdir and mkstemp vs directory size
# ----------------------------------------------------------------------

def measure_readdir_latency(kernel: Kernel, nfiles: int,
                            warm_rounds: int = 1) -> float:
    """Warm readdir latency of a directory holding ``nfiles`` files."""
    task = kernel.spawn_task(uid=0, gid=0)
    path = f"/lsdir{nfiles}"
    build_flat_dir(kernel, task, path, nfiles)
    for _ in range(warm_rounds):
        kernel.sys.listdir(task, path)
    start = kernel.now_ns
    kernel.sys.listdir(task, path)
    elapsed = kernel.now_ns - start
    kernel.exit_task(task)
    return elapsed


def measure_mkstemp_latency(kernel: Kernel, nfiles: int,
                            seed: int = 99) -> float:
    """mkstemp latency in a directory of ``nfiles`` pre-listed files."""
    task = kernel.spawn_task(uid=0, gid=0)
    path = f"/tmpdir{nfiles}"
    build_flat_dir(kernel, task, path, nfiles)
    kernel.sys.listdir(task, path)  # completeness candidate (optimized)
    rng = random.Random(seed)
    start = kernel.now_ns
    fd, _name = kernel.sys.mkstemp(task, path, rng=rng)
    elapsed = kernel.now_ns - start
    kernel.sys.close(task, fd)
    kernel.exit_task(task)
    return elapsed


# ----------------------------------------------------------------------
# Figure 2: the long-path stat microbenchmark
# ----------------------------------------------------------------------

LONG_PATH = "XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF"

#: Historical context from the paper's Figure 2 (µs); the two rightmost
#: points are re-measured on our substrate.
FIG2_PAPER_HISTORY = [
    ("v2.6.36 (2010)", 1.12),
    ("v3.0 (2011)", 0.89),
    ("v3.14 (2014)", 0.6005),
    ("v4.0 (2015)", 0.62),
    ("v3.14-opt", 0.4438),
]


def measure_long_path_stat(kernel: Kernel) -> float:
    """Warm stat latency of the 8-component Figure 2 path (ns)."""
    task = prepare_lookup_tree(kernel)
    elapsed = measure_stat(kernel, task, LONG_PATH)
    kernel.exit_task(task)
    return elapsed
