"""Synthetic directory trees for the evaluation workloads.

The application benchmarks (Tables 1–2) run over a Linux-source-shaped
tree: a few levels of subsystem directories with C files of realistic
name lengths.  Everything is seeded and deterministic, so baseline and
optimized kernels see byte-identical trees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro import O_CREAT, O_RDWR
from repro.core.kernel import Kernel
from repro.vfs.task import Task

#: Plausible kernel-tree directory names (used cyclically).
_DIR_WORDS = [
    "arch", "block", "crypto", "drivers", "firmware", "fs", "include",
    "init", "ipc", "kernel", "lib", "mm", "net", "scripts", "security",
    "sound", "tools", "usr", "virt", "media", "gpu", "char", "pci",
    "usb", "video", "core", "common", "platform", "boot", "configs",
]

_FILE_STEMS = [
    "main", "core", "util", "init", "setup", "driver", "probe", "debug",
    "table", "cache", "sched", "lock", "event", "trace", "sysfs", "ioctl",
    "queue", "buffer", "string", "memory",
]

_FILE_EXTS = [".c", ".h", ".o", ".S", ".txt", ".Kconfig"]


@dataclass
class TreeSpec:
    """Shape of a synthetic tree.

    Attributes:
        depth: directory nesting below the root.
        dirs_per_level: fanout of subdirectories at each level.
        files_per_dir: regular files in every directory.
        file_bytes: content size per file (0 keeps creation cheap).
        seed: RNG seed for name jitter.
    """

    depth: int = 3
    dirs_per_level: int = 4
    files_per_dir: int = 8
    file_bytes: int = 0
    seed: int = 1234


@dataclass
class BuiltTree:
    """What :func:`populate` produced."""

    root: str
    directories: List[str] = field(default_factory=list)
    files: List[str] = field(default_factory=list)

    @property
    def all_paths(self) -> List[str]:
        return self.directories + self.files


def populate(kernel: Kernel, task: Task, root: str,
             spec: Optional[TreeSpec] = None) -> BuiltTree:
    """Create a tree under ``root`` (which must not exist yet)."""
    spec = spec or TreeSpec()
    rng = random.Random(spec.seed)
    sys = kernel.sys
    sys.mkdir(task, root)
    built = BuiltTree(root=root, directories=[root])
    _fill(kernel, task, root, spec, spec.depth, rng, built)
    return built


def _fill(kernel: Kernel, task: Task, base: str, spec: TreeSpec,
          levels_left: int, rng: random.Random, built: BuiltTree) -> None:
    sys = kernel.sys
    for i in range(spec.files_per_dir):
        stem = _FILE_STEMS[i % len(_FILE_STEMS)]
        ext = _FILE_EXTS[rng.randrange(len(_FILE_EXTS))]
        path = f"{base}/{stem}{rng.randrange(100)}{ext}"
        fd = sys.open(task, path, O_CREAT | O_RDWR)
        if spec.file_bytes:
            sys.write(task, fd, b"x" * spec.file_bytes)
        sys.close(task, fd)
        built.files.append(path)
    if levels_left <= 0:
        return
    for i in range(spec.dirs_per_level):
        name = _DIR_WORDS[i % len(_DIR_WORDS)]
        path = f"{base}/{name}{i}"
        sys.mkdir(task, path)
        built.directories.append(path)
        _fill(kernel, task, path, spec, levels_left - 1, rng, built)


def build_linux_like_tree(kernel: Kernel, task: Task,
                          root: str = "/usr/src/linux",
                          scale: str = "small") -> BuiltTree:
    """A Linux-source-shaped tree at one of three scales.

    ``small`` ≈ 700 files (unit tests), ``medium`` ≈ 2.7k files (most
    benchmarks), ``large`` ≈ 10k files (PCC-pressure experiments).
    """
    specs = {
        "small": TreeSpec(depth=2, dirs_per_level=4, files_per_dir=10),
        "medium": TreeSpec(depth=3, dirs_per_level=5, files_per_dir=12),
        "large": TreeSpec(depth=3, dirs_per_level=8, files_per_dir=16),
    }
    spec = specs[scale]
    sys = kernel.sys
    # Build the parents of ``root`` first.
    parts = [p for p in root.split("/") if p]
    prefix = ""
    for part in parts[:-1]:
        prefix = f"{prefix}/{part}"
        if not kernel.sys.exists(task, prefix):
            sys.mkdir(task, prefix)
    return populate(kernel, task, root, spec)


def build_flat_dir(kernel: Kernel, task: Task, path: str,
                   nfiles: int, prefix: str = "f") -> List[str]:
    """One directory with ``nfiles`` files (readdir/mkstemp benches)."""
    sys = kernel.sys
    sys.mkdir(task, path)
    names = []
    for i in range(nfiles):
        name = f"{path}/{prefix}{i:05d}"
        fd = sys.open(task, name, O_CREAT | O_RDWR)
        sys.close(task, fd)
        names.append(name)
    return names


def fanout_paths(base: str, depth: int,
                 fanout: int = 10) -> Iterator[Tuple[str, bool]]:
    """The descendants of a :func:`build_fanout_tree` subtree as
    ``(path, is_dir)``, in creation order: each directory before its
    children.  ``depth=0`` has none."""
    if depth == 0:
        return
    for i in range(fanout):
        if depth == 1:
            yield f"{base}/file{i}", False
        else:
            sub = f"{base}/dir{i}"
            yield sub, True
            yield from fanout_paths(sub, depth - 1, fanout)


def build_fanout_tree(kernel: Kernel, task: Task, base: str, depth: int,
                      fanout: int = 10) -> Tuple[str, int]:
    """The Figure 7 subtree shape: fanout^depth files under ``base``.

    ``depth=0`` is a single file named ``base`` (the "single file" bar);
    otherwise ``base`` is a directory of ``fanout`` subdirectories per
    level with ``fanout`` files at the leaves ("depth=4, 10000 files").
    Returns (base, cached descendant count including interior dirs).
    """
    sys = kernel.sys
    if depth == 0:
        fd = sys.open(task, base, O_CREAT | O_RDWR)
        sys.close(task, fd)
        return base, 0
    sys.mkdir(task, base)
    total = 0
    for path, is_dir in fanout_paths(base, depth, fanout):
        if is_dir:
            sys.mkdir(task, path)
        else:
            sys.close(task, sys.open(task, path, O_CREAT | O_RDWR))
        total += 1
    return base, total
