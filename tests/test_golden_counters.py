"""Golden-counter regression test for the simulator's virtual costs.

The wall-clock performance work (component-hash memoization, path-parse
caching, the CostModel fast-charge path) must leave the *simulated* cost
accounting bit-identical: the reproduction's fidelity rests on the claim
that optimizations to the simulator's own speed change zero virtual
charges.  This test drives a scripted mixed workload — creates, warm
stats, symlinks, negative lookups, dot-dot walks, renames (invalidation),
readdir, unlink — through the :class:`DualKernel` oracle and asserts that
``CostModel.counts`` and the virtual clock match golden values captured
before the optimization pass.

If an intentional *cost-model* change (new primitive, recalibrated
charge, different algorithm) moves these numbers, regenerate the goldens
with::

    PYTHONPATH=src python -m tests.test_golden_counters

and include the new values in the same commit as the semantic change.
Wall-clock-only refactors must never need that.
"""

from __future__ import annotations

from repro import O_CREAT, O_RDWR, errors
from repro.testing import DualKernel


def run_golden_workload(dual: DualKernel):
    """Deterministic mixed workload exercising every hot-path shape."""
    root = dual.spawn_task(uid=0, gid=0)
    for d in ("/srv", "/srv/www", "/srv/www/static", "/srv/www/data",
              "/home", "/home/alice", "/home/alice/.cache"):
        dual.mkdir(root, d)
    for i in range(8):
        fd = dual.open(root, f"/srv/www/static/page{i}.html",
                       O_CREAT | O_RDWR)
        dual.write(root, fd, b"<html>" + b"x" * (11 * i))
        dual.close(root, fd)
    dual.symlink(root, "/srv/www", "/var_www")
    dual.symlink(root, "static", "/srv/www/assets")
    # Warm repeated stats: absolute, through both symlinks, and dot-dot.
    for _ in range(5):
        dual.stat(root, "/srv/www/static/page3.html")
        dual.stat(root, "/var_www/static/page5.html")
        dual.stat(root, "/srv/www/assets/page1.html")
        dual.stat(root, "/srv/www/data/../static/page0.html")
    # Negative lookups: repeated ENOENT and deep ENOTDIR tails.
    for _ in range(3):
        for missing in ("/srv/www/static/missing.html",
                        "/home/alice/.cache/nope/deep/er",
                        "/srv/www/static/page0.html/below"):
            try:
                dual.stat(root, missing)
            except errors.FsError:
                pass
    # readdir twice: cold fill then completeness-served.
    dual.listdir(root, "/srv/www/static")
    dual.listdir(root, "/srv/www/static")
    # Rename: directory move invalidates cached paths, then re-warm.
    dual.rename(root, "/srv/www/static", "/srv/www/public")
    for _ in range(3):
        dual.stat(root, "/srv/www/public/page3.html")
    # Metadata mutation (chmod bumps prefix-check coherence) + re-warm.
    dual.chmod(root, "/srv/www", 0o700)
    dual.stat(root, "/srv/www/public/page4.html")
    # Unlink and recreate (negative dentry churn).
    dual.unlink(root, "/srv/www/public/page7.html")
    try:
        dual.stat(root, "/srv/www/public/page7.html")
    except errors.FsError:
        pass
    fd = dual.open(root, "/srv/www/public/page7.html", O_CREAT | O_RDWR)
    dual.close(root, fd)
    dual.check_invariants()


def capture(dual: DualKernel):
    """(counts, now_ns) per kernel, in config order."""
    return [(dict(kernel.costs.counts), kernel.costs.now_ns)
            for kernel in dual.kernels]


#: Captured from the pre-optimization simulator (see module docstring).
GOLDEN_BASELINE_COUNTS = {
    'chain_compare': 224,
    'chmod_fixed': 1,
    'close_fd': 11,
    'component_hash': 229,
    'dentry_free': 1,
    'dentry_lock': 2,
    'disk_seek': 5,
    'disk_seq_block': 17,
    'fs_create': 18,
    'fs_dirblock_scan': 38,
    'fs_lookup_base': 20,
    'fs_readdir_entry': 16,
    'fs_rename': 1,
    'fs_setattr': 1,
    'fs_unlink': 1,
    'ht_probe': 224,
    'lookup_final': 48,
    'lookup_init': 58,
    'lru_touch': 224,
    'negative_dentry_alloc': 20,
    'open_install_fd': 11,
    'pagecache_hit': 128,
    'perm_check_dac': 252,
    'read_barrier': 229,
    'read_write_base': 8,
    'readdir_fixed': 2,
    'rename_fixed': 1,
    'seqlock_read': 229,
    'stat_fill': 24,
    'symlink_resolve': 10,
    'syscall_fixed': 80,
}
GOLDEN_BASELINE_NOW_NS = 2882191.32
GOLDEN_OPTIMIZED_COUNTS = {
    'cached_readdir_entry': 18,
    'chain_compare': 88,
    'chmod_fixed': 1,
    'close_fd': 11,
    'component_hash': 88,
    'dentry_free': 1,
    'dentry_lock': 2,
    'disk_seek': 5,
    'disk_seq_block': 17,
    'dlht_insert': 32,
    'dlht_probe': 63,
    'dotdot_extra_lookup': 5,
    'fastpath_init': 84,
    'fs_create': 18,
    'fs_dirblock_scan': 21,
    'fs_lookup_base': 3,
    'fs_readdir_entry': 14,
    'fs_rename': 1,
    'fs_setattr': 1,
    'fs_unlink': 1,
    'ht_probe': 88,
    'inval_counter_bump': 3,
    'inval_per_dentry': 27,
    'lookup_final': 55,
    'lru_touch': 95,
    'mount_flag_check': 24,
    'negative_dentry_alloc': 27,
    'open_install_fd': 11,
    'pagecache_hit': 102,
    'pcc_insert': 94,
    'pcc_probe': 45,
    'perm_check_dac': 111,
    'read_barrier': 88,
    'read_write_base': 8,
    'readdir_fixed': 2,
    'rename_fixed': 1,
    'seqlock_read': 88,
    'sig_compare': 63,
    'sig_hash': 224,
    'stat_fill': 24,
    'symlink_resolve': 2,
    'syscall_fixed': 80,
}
GOLDEN_OPTIMIZED_NOW_NS = 2876089.52


def test_golden_counts_and_clock():
    dual = DualKernel()
    run_golden_workload(dual)
    (base_counts, base_ns), (opt_counts, opt_ns) = capture(dual)
    assert base_counts == GOLDEN_BASELINE_COUNTS
    assert base_ns == GOLDEN_BASELINE_NOW_NS
    assert opt_counts == GOLDEN_OPTIMIZED_COUNTS
    assert opt_ns == GOLDEN_OPTIMIZED_NOW_NS


def _regenerate() -> str:
    dual = DualKernel()
    run_golden_workload(dual)
    (base_counts, base_ns), (opt_counts, opt_ns) = capture(dual)
    lines = ["GOLDEN_BASELINE_COUNTS = {"]
    lines += [f"    {k!r}: {v}," for k, v in sorted(base_counts.items())]
    lines += ["}", f"GOLDEN_BASELINE_NOW_NS = {base_ns!r}",
              "GOLDEN_OPTIMIZED_COUNTS = {"]
    lines += [f"    {k!r}: {v}," for k, v in sorted(opt_counts.items())]
    lines += ["}", f"GOLDEN_OPTIMIZED_NOW_NS = {opt_ns!r}"]
    return "\n".join(lines)


if __name__ == "__main__":
    print(_regenerate())
