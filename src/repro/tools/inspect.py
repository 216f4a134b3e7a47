"""Debugfs-style inspection of a kernel's directory caches.

The real patch would expose this through debugfs; here the functions
render a kernel's live cache state as text — the dentry tree with
per-entry flags, DLHT occupancy, PCC fill, and a one-screen summary.
Used by tests, examples, and interactive debugging sessions.

Run the demo::

    python -m repro.tools.inspect
"""

from __future__ import annotations

from typing import List

from repro.sim.memory import measure_kernel
from repro.vfs.dentry import Dentry


def _flags(dentry: Dentry) -> str:
    flags = []
    if dentry.is_negative:
        flags.append(f"NEG:{dentry.neg_kind}")
    if dentry.is_stub:
        flags.append("STUB")
    if dentry.is_alias:
        target = dentry.alias_target
        flags.append(f"ALIAS->{target.path_from_root() if target else '?'}")
    if dentry.dir_complete:
        flags.append("COMPLETE")
    if dentry.mounted_roots:
        flags.append("MOUNTPOINT")
    if dentry.pin_count:
        flags.append(f"pin={dentry.pin_count}")
    if dentry.fast is not None and dentry.fast.dlht is not None:
        flags.append("DLHT")
    return " ".join(flags)


def dcache_tree(kernel, max_depth: int = 8,
                max_children: int = 32) -> str:
    """Render the cached dentry trees of every superblock."""
    lines: List[str] = []
    for root in kernel.dcache._roots.values():
        fstype = root.inode.fs.fstype if root.inode else "?"
        lines.append(f"[{fstype}] / seq={root.seq} {_flags(root)}".rstrip())
        _render(root, lines, 1, max_depth, max_children)
    return "\n".join(lines)


def _render(dentry: Dentry, lines: List[str], depth: int,
            max_depth: int, max_children: int) -> None:
    if depth > max_depth:
        return
    children = list(dentry.children.values())
    for child in children[:max_children]:
        kind = "d" if child.is_dir else \
            ("l" if child.is_symlink else "-")
        ino = child.inode.ino if child.inode else "-"
        lines.append(f"{'  ' * depth}{kind} {child.name} "
                     f"ino={ino} seq={child.seq} "
                     f"{_flags(child)}".rstrip())
        _render(child, lines, depth + 1, max_depth, max_children)
    if len(children) > max_children:
        lines.append(f"{'  ' * depth}... {len(children) - max_children} "
                     f"more")


def dlht_summary(kernel) -> str:
    """Per-namespace direct lookup hash table occupancy."""
    if kernel.fast is None:
        return "DLHT: (baseline kernel, not present)"
    lines = []
    for i, dlht in enumerate(kernel.live_caches()[1]):
        kinds = {"positive": 0, "negative": 0, "alias": 0, "symlink": 0}
        for dentry in dlht.table.values():
            if dentry.is_alias:
                kinds["alias"] += 1
            elif dentry.is_negative:
                kinds["negative"] += 1
            elif dentry.is_symlink:
                kinds["symlink"] += 1
            else:
                kinds["positive"] += 1
        detail = ", ".join(f"{k}={v}" for k, v in kinds.items() if v)
        lines.append(f"DLHT[{i}]: {len(dlht)} entries"
                     + (f" ({detail})" if detail else ""))
    return "\n".join(lines)


def pcc_summary(kernel) -> str:
    """Fill level of every live credential's prefix check cache."""
    if kernel.fast is None:
        return "PCC: (baseline kernel, not present)"
    pccs = kernel.live_caches()[0]
    if not pccs:
        return "PCC: none allocated yet"
    lines = []
    for i, pcc in enumerate(pccs):
        lines.append(f"PCC[{i}]: {len(pcc)}/{pcc.capacity} entries")
    return "\n".join(lines)


def kernel_summary(kernel) -> str:
    """One-screen overview: caches, resolution memo, counters, memory,
    virtual time."""
    stats = kernel.stats.snapshot()
    memory = measure_kernel(kernel)
    interesting = ["lookup", "fastpath_hit", "fastpath_miss",
                   "dcache_hit", "dcache_miss", "negative_hit",
                   "fs_lookup", "readdir_cached", "readdir_fs",
                   "inval_dentry", "dir_complete_set"]
    counter_text = "\n".join(f"  {name:18s} {stats.get(name, 0):>10}"
                             for name in interesting if name in stats)
    memo_text = "off"
    if kernel.config.resolution_memo:
        memo = kernel.memo
        memo_text = (f"{len(memo)} entries, {memo.hits} hits, "
                     f"{memo.misses} misses, {memo.stale} stale, "
                     f"{memo.recorded} recorded")
    return "\n".join([
        f"kernel profile: {kernel.config.name}",
        f"virtual time:   {kernel.now_ns / 1e6:.3f} ms",
        f"dentries:       {len(kernel.dcache)} "
        f"({memory.total_bytes / 1024:.0f} KiB cache footprint)",
        dlht_summary(kernel),
        pcc_summary(kernel),
        f"memo:           {memo_text}",
        "counters:",
        counter_text or "  (none)",
    ])


def _demo() -> None:
    from repro import O_CREAT, O_RDWR, errors, make_kernel

    kernel = make_kernel("optimized")
    task = kernel.spawn_task(uid=0, gid=0)
    sys = kernel.sys
    sys.mkdir(task, "/etc")
    fd = sys.open(task, "/etc/passwd", O_CREAT | O_RDWR)
    sys.write(task, fd, b"root:x:0:0::/:/bin/sh\n")
    sys.close(task, fd)
    sys.symlink(task, "/etc/passwd", "/etc/pw")
    sys.stat(task, "/etc/pw")
    try:
        sys.stat(task, "/etc/shadow/backup")
    except errors.FsError:
        pass
    sys.listdir(task, "/etc")
    print(kernel_summary(kernel))
    print()
    print(dcache_tree(kernel))


if __name__ == "__main__":
    _demo()
