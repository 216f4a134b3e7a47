"""Application trace workloads (Figure 1, Tables 1 and 2).

Each workload replays the syscall pattern of one command-line utility
over a synthetic Linux-source-shaped tree:

* ``find`` / ``du`` / ``updatedb`` — fts-style traversal: ``getdents``
  plus one single-component ``fstatat`` per entry (the paper notes these
  use the \\*at() APIs exclusively);
* ``tar xzf`` — creation-heavy: mkdir/open(O_CREAT)/write with a
  decompression compute budget per file;
* ``rm -r`` — traversal plus unlink/rmdir;
* ``make`` — per-source-file header probing (the paper's ~20% negative
  dentry rate comes from speculative include-path lookups), reads, object
  creation, and a dominating compile compute budget;
* ``git status`` / ``git diff`` — multi-component ``lstat`` of every
  tracked path from the index, as git's refresh loop does.

Per-application compute budgets are charged through
``CostModel.charge_ns`` so that path-based syscalls occupy a Figure 1-like
fraction of total runtime; they are identical across kernels, so Table 1's
relative gains depend only on the dcache design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, List, Optional

from repro import O_CREAT, O_DIRECTORY, O_RDONLY, O_RDWR, errors
from repro.core.kernel import Kernel
from repro.vfs.task import Task
from repro.workloads.traces import PATH_LOOKUP_OPS
from repro.workloads.tree import BuiltTree


class MeteredSyscalls:
    """Wraps a kernel's syscalls, metering virtual time per call.

    Records total time in path-based syscalls, per-call counts, and path
    shape statistics (bytes and components of every path argument).
    """

    def __init__(self, kernel: Kernel):
        self._kernel = kernel
        self._sys = kernel.sys
        self.path_syscall_ns = 0.0
        self.syscall_ns = 0.0
        self.counts: Dict[str, int] = {}
        self.path_bytes = 0
        self.path_components = 0
        self.path_count = 0

    def __getattr__(self, name: str):
        # Reached once per syscall name: the wrapper is cached on the
        # instance, where ordinary attribute lookup finds it next time.
        method = getattr(self._sys, name)
        clock = self._kernel.costs.clock
        counts = self.counts
        is_path = name in PATH_LOOKUP_OPS

        def wrapper(*args, **kwargs):
            start = clock.now_ns
            try:
                return method(*args, **kwargs)
            finally:
                elapsed = clock.now_ns - start
                self.syscall_ns += elapsed
                counts[name] = counts.get(name, 0) + 1
                if is_path:
                    self.path_syscall_ns += elapsed
                    path = self._first_path(args, kwargs)
                    if path:
                        self.path_count += 1
                        self.path_bytes += len(path)
                        self.path_components += len(
                            [p for p in path.split("/") if p and p != "."])

        self.__dict__[name] = wrapper
        return wrapper

    @staticmethod
    def _first_path(args, kwargs) -> Optional[str]:
        for value in chain(args[1:], kwargs.values()):
            if isinstance(value, str):
                return value
        return None


@dataclass
class AppResult:
    """One application run's outcome (a Table 1/2 row)."""

    name: str
    total_ns: float
    path_syscall_ns: float
    lookups: int
    component_hit_rate: float
    negative_rate: float
    avg_path_bytes: float
    avg_path_components: float
    syscall_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def path_fraction(self) -> float:
        """Figure 1's metric: time in path syscalls / total time."""
        if self.total_ns == 0:
            return 0.0
        return self.path_syscall_ns / self.total_ns


class AppWorkload:
    """Base class: build the tree once, run the trace, report stats."""

    name = "app"
    tree_scale = "medium"

    def setup(self, kernel: Kernel, task: Task) -> BuiltTree:
        """Default setup: a Linux-source-shaped tree at /src."""
        from repro.workloads.tree import build_linux_like_tree
        return build_linux_like_tree(kernel, task, "/src",
                                     scale=self.tree_scale)

    def prepare_run(self, kernel: Kernel, task: Task,
                    tree: BuiltTree) -> None:
        """Untimed per-run staging (e.g. recreating a tree to delete)."""

    def run(self, kernel: Kernel, sys: MeteredSyscalls, task: Task,
            tree: BuiltTree) -> None:
        raise NotImplementedError


def run_app(kernel: Kernel, app: AppWorkload, *,
            warm: bool = True) -> AppResult:
    """Run one application; warm runs discard a first warming pass.

    Cold runs drop the dcache and buffer caches after setup, so the first
    (measured) pass pays low-level FS and device costs (Table 2).
    """
    task = kernel.spawn_task(uid=0, gid=0)
    tree = app.setup(kernel, task)
    if warm:
        app.prepare_run(kernel, task, tree)
        warmup = MeteredSyscalls(kernel)
        app.run(kernel, warmup, task, tree)
    app.prepare_run(kernel, task, tree)
    if not warm:
        kernel.drop_caches()
    kernel.stats.reset()
    sys = MeteredSyscalls(kernel)
    hit0 = kernel.stats.get("dcache_hit")
    start = kernel.now_ns
    app.run(kernel, sys, task, tree)
    total_ns = kernel.now_ns - start
    kernel.exit_task(task)
    stats = kernel.stats
    hits = stats.get("dcache_hit") - hit0
    misses = stats.get("dcache_miss")
    steps = hits + misses
    return AppResult(
        name=app.name,
        total_ns=total_ns,
        path_syscall_ns=sys.path_syscall_ns,
        lookups=stats.get("lookup"),
        component_hit_rate=(hits / steps) if steps else 1.0,
        negative_rate=stats.negative_rate(),
        avg_path_bytes=(sys.path_bytes / sys.path_count)
        if sys.path_count else 0.0,
        avg_path_components=(sys.path_components / sys.path_count)
        if sys.path_count else 0.0,
        syscall_counts=dict(sys.counts),
    )


# ----------------------------------------------------------------------
# Traversal utilities
# ----------------------------------------------------------------------

def _walk_at(sys: MeteredSyscalls, task: Task, path: str,
             per_entry: Callable[[str, str, int], None],
             stat_entries: bool = True) -> None:
    """fts-style traversal with openat/getdents/fstatat single components."""
    fd = sys.open(task, path, O_RDONLY | O_DIRECTORY)
    try:
        entries = sys.readdir(task, fd)
        for name, _ino, dtype in entries:
            if stat_entries:
                sys.fstatat(task, name, dirfd=fd, follow=False)
            per_entry(path, name, fd)
            if dtype == "dir":
                _walk_at(sys, task, f"{path}/{name}", per_entry,
                         stat_entries)
    finally:
        sys.close(task, fd)


# ----------------------------------------------------------------------
# The applications
# ----------------------------------------------------------------------

class FindWorkload(AppWorkload):
    """``find /src -name 'pattern'``: stat everything, match names."""

    name = "find"
    match_compute_ns = 150.0

    def run(self, kernel, sys, task, tree):
        def match(_path, _name, _fd):
            kernel.costs.charge_ns("app_compute", self.match_compute_ns)

        _walk_at(sys, task, tree.root, match)


class DuWorkload(AppWorkload):
    """``du -s /src``: sum block counts over the whole tree."""

    name = "du -s"
    sum_compute_ns = 100.0

    def run(self, kernel, sys, task, tree):
        def accumulate(_path, _name, _fd):
            kernel.costs.charge_ns("app_compute", self.sum_compute_ns)

        _walk_at(sys, task, tree.root, accumulate)


class UpdatedbWorkload(AppWorkload):
    """``updatedb -U /src``: build a path database from a traversal.

    updatedb records names straight from readdir and only stats the
    directories it recurses into, so repeated runs are dominated by
    directory listing — the workload directory-completeness caching
    (§5.1) helps most.
    """

    name = "updatedb"
    entry_compute_ns = 80.0

    def run(self, kernel, sys, task, tree):
        names: List[str] = []

        def scan(path: str) -> None:
            fd = sys.open(task, path, O_RDONLY | O_DIRECTORY)
            try:
                for name, _ino, dtype in sys.readdir(task, fd):
                    names.append(f"{path}/{name}")
                    kernel.costs.charge_ns("app_compute",
                                           self.entry_compute_ns)
                    if dtype == "dir":
                        sys.fstatat(task, name, dirfd=fd)
                        scan(f"{path}/{name}")
            finally:
                sys.close(task, fd)

        scan(tree.root)
        db = "\n".join(names).encode()
        if not kernel.sys.exists(task, "/var"):
            sys.mkdir(task, "/var")
        fd = sys.open(task, "/var/locatedb", O_CREAT | O_RDWR)
        sys.write(task, fd, db)
        sys.close(task, fd)


class TarExtractWorkload(AppWorkload):
    """``tar xzf linux.tar.gz``: create a parallel tree from an archive."""

    name = "tar xzf"
    decompress_ns_per_file = 55_000.0

    def __init__(self) -> None:
        self._runs = 0

    def prepare_run(self, kernel, task, tree):
        # Each run extracts to a fresh destination, as a real extraction
        # would: creations are compulsory misses, not negative-dentry hits.
        self._runs += 1

    def run(self, kernel, sys, task, tree):
        dest_root = f"/extract{self._runs}"
        sys.mkdir(task, dest_root)
        for directory in tree.directories:
            if directory == tree.root:
                continue
            rel = directory[len(tree.root) + 1:]
            sys.mkdir(task, f"{dest_root}/{rel}")
        for path in tree.files:
            rel = path[len(tree.root) + 1:]
            kernel.costs.charge_ns("app_compute",
                                   self.decompress_ns_per_file)
            fd = sys.open(task, f"{dest_root}/{rel}", O_CREAT | O_RDWR)
            sys.write(task, fd, b"extracted")
            sys.close(task, fd)


def _rm_tree(sys: MeteredSyscalls, task: Task, path: str) -> None:
    fd = sys.open(task, path, O_RDONLY | O_DIRECTORY)
    try:
        for name, _ino, dtype in sys.readdir(task, fd):
            child = f"{path}/{name}"
            if dtype == "dir":
                _rm_tree(sys, task, child)
            else:
                sys.unlink(task, child)
    finally:
        sys.close(task, fd)
    sys.rmdir(task, path)


def _plain_rm_tree(kernel: Kernel, task: Task, path: str) -> None:
    """Unmetered recursive removal (staging between runs)."""
    sys = kernel.sys
    for name, _ino, dtype in sys.listdir(task, path):
        child = f"{path}/{name}"
        if dtype == "dir":
            _plain_rm_tree(kernel, task, child)
        else:
            sys.unlink(task, child)
    sys.rmdir(task, path)


class RmTreeWorkload(AppWorkload):
    """``rm -r``: remove a freshly staged copy of the source tree."""

    name = "rm -r"
    copy_root = "/rmcopy"
    fts_compute_ns = 300.0

    def prepare_run(self, kernel, task, tree):
        # Each run removes a fresh copy so warm runs stay meaningful;
        # staging is unmetered (it happens before the timer starts).
        plain = kernel.sys
        if plain.exists(task, self.copy_root):
            _plain_rm_tree(kernel, task, self.copy_root)
        plain.mkdir(task, self.copy_root)
        for directory in tree.directories:
            if directory != tree.root:
                plain.mkdir(task,
                            self.copy_root + directory[len(tree.root):])
        for path in tree.files:
            fd = plain.open(task, self.copy_root + path[len(tree.root):],
                            O_CREAT | O_RDWR)
            plain.close(task, fd)

    def run(self, kernel, sys, task, tree):
        _rm_tree(sys, task, self.copy_root)
        kernel.costs.charge_ns("app_compute",
                               self.fts_compute_ns * len(tree.all_paths))


class MakeWorkload(AppWorkload):
    """``make``: header probing, reads, object creation, compilation.

    For every ``.c`` file the compiler driver probes a series of include
    directories for headers that mostly do not exist — the negative
    dentry traffic the paper highlights (make is the only Table 1 app
    with ~20% negative lookups) — then reads the source and writes an
    object file.
    """

    name = "make"
    compile_ns_per_file = 160_000.0
    parallelism = 1

    #: Simulated include search path (probed in order, like -I).
    include_dirs = ["include", "arch0/include", "include/generated"]
    #: Headers each source probes; header i lives in include dir i%3, so
    #: probes average ~1 miss per header (the paper's ~18-20% negative
    #: dentry rate for make).
    headers = ["types.h", "config.h", "module.h", "printk.h"]

    def setup(self, kernel, task):
        tree = super().setup(kernel, task)
        sys = kernel.sys
        for inc in self.include_dirs:
            prefix = tree.root
            for part in inc.split("/"):
                prefix = f"{prefix}/{part}"
                if not sys.exists(task, prefix):
                    sys.mkdir(task, prefix)
        for i, header in enumerate(self.headers):
            home = self.include_dirs[i % len(self.include_dirs)]
            fd = sys.open(task, f"{tree.root}/{home}/{header}",
                          O_CREAT | O_RDWR)
            sys.write(task, fd, b"#define CONFIG 1")
            sys.close(task, fd)
        return tree

    def run(self, kernel, sys, task, tree):
        sources = [p for p in tree.files if p.endswith(".c")]
        for src in sources:
            sys.stat(task, src)
            sys.stat(task, src[:src.rfind("/")] or "/")
            try:
                sys.stat(task, src[:-2] + ".obj")
            except errors.ENOENT:
                pass
            for header in self.headers:
                for inc in self.include_dirs:
                    try:
                        sys.stat(task, f"{tree.root}/{inc}/{header}")
                        break
                    except errors.ENOENT:
                        continue
            fd = sys.open(task, src, O_RDONLY)
            sys.read(task, fd, 4096)
            sys.close(task, fd)
            kernel.costs.charge_ns(
                "app_compute", self.compile_ns_per_file / self.parallelism)
            obj = src[:-2] + ".obj"
            try:
                fd = sys.open(task, obj, O_CREAT | O_RDWR)
                sys.write(task, fd, b"ELF")
                sys.close(task, fd)
            except errors.EEXIST:  # pragma: no cover - O_CREAT reuses
                pass


class MakeJ12Workload(MakeWorkload):
    """``make -j12``: the same trace with the compute budget split."""

    name = "make -j12"
    parallelism = 12


class GitStatusWorkload(AppWorkload):
    """``git status``: lstat every tracked path from the index."""

    name = "git status"
    per_file_compute_ns = 3_500.0

    def run(self, kernel, sys, task, tree):
        for path in tree.files:
            try:
                sys.lstat(task, path)
            except errors.ENOENT:
                pass
            kernel.costs.charge_ns("app_compute", self.per_file_compute_ns)
        # status also lists work-tree directories for untracked files
        for directory in tree.directories:
            sys.listdir(task, directory)


class GitDiffWorkload(AppWorkload):
    """``git diff``: index refresh (lstat storm) without untracked scan."""

    name = "git diff"
    per_file_compute_ns = 400.0

    def run(self, kernel, sys, task, tree):
        for path in tree.files:
            try:
                sys.lstat(task, path)
            except errors.ENOENT:
                pass
            kernel.costs.charge_ns("app_compute", self.per_file_compute_ns)


#: The Table 1/2 application roster in paper order.
ALL_APPS: List[Callable[[], AppWorkload]] = [
    FindWorkload,
    TarExtractWorkload,
    RmTreeWorkload,
    MakeWorkload,
    MakeJ12Workload,
    DuWorkload,
    UpdatedbWorkload,
    GitStatusWorkload,
    GitDiffWorkload,
]
