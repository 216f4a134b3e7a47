"""Operation-count tests: the fastpath's algorithmic claims.

Using the UNIT cost model (every primitive = 1 ns), these tests assert
the *counts* behind the paper's complexity arguments: the fastpath does a
constant number of hash-table probes and permission checks regardless of
path depth, while the baseline's grow linearly.
"""

from __future__ import annotations

import pytest

from repro import O_CREAT, O_RDWR, errors, make_kernel
from repro.core.kernel import PROFILES
from repro.fs.netfs import ExportServer, NfsLikeFs
from repro.fs.tmpfs import TmpFs
from repro.sim.costs import CostModel, UNIT
from repro.vfs.lsm import SELinuxLikeLsm


def _kernel(profile, **overrides):
    return make_kernel(profile, costs=CostModel(dict(UNIT)), **overrides)


def _deep_tree(kernel, task, depth, prefix="d"):
    path = ""
    for i in range(depth):
        path = f"{path}/{prefix}{i}"
        kernel.sys.mkdir(task, path)
    leaf = f"{path}/leaf"
    fd = kernel.sys.open(task, leaf, O_CREAT | O_RDWR)
    kernel.sys.close(task, fd)
    return leaf


def _counts_for_stat(kernel, task, path):
    kernel.sys.stat(task, path)  # warm
    kernel.sys.stat(task, path)
    kernel.costs.reset_attribution()
    kernel.sys.stat(task, path)
    return dict(kernel.costs.counts)


class TestConstantWorkFastpath:
    @pytest.mark.parametrize("depth", [1, 4, 8])
    def test_one_dlht_probe_any_depth(self, depth):
        kernel = _kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        leaf = _deep_tree(kernel, task, depth)
        counts = _counts_for_stat(kernel, task, leaf)
        assert counts.get("dlht_probe") == 1
        assert counts.get("pcc_probe") == 1
        assert counts.get("sig_compare") == 1

    @pytest.mark.parametrize("depth", [1, 4, 8])
    def test_no_per_component_permission_checks(self, depth):
        kernel = _kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        leaf = _deep_tree(kernel, task, depth)
        counts = _counts_for_stat(kernel, task, leaf)
        assert counts.get("perm_check_dac", 0) == 0
        assert counts.get("ht_probe", 0) == 0

    @pytest.mark.parametrize("depth", [1, 4, 8])
    def test_baseline_scales_linearly(self, depth):
        kernel = _kernel("baseline")
        task = kernel.spawn_task(uid=0, gid=0)
        leaf = _deep_tree(kernel, task, depth)
        counts = _counts_for_stat(kernel, task, leaf)
        assert counts.get("perm_check_dac") == depth + 1
        assert counts.get("ht_probe") == depth + 1
        assert counts.get("dlht_probe", 0) == 0

    def test_hashing_still_linear_in_bytes(self):
        kernel = _kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        shallow = _deep_tree(kernel, task, 1, prefix="s")
        counts_shallow = _counts_for_stat(kernel, task, shallow)
        deep = _deep_tree(kernel, task, 8, prefix="e")
        counts_deep = _counts_for_stat(kernel, task, deep)
        assert counts_deep.get("sig_hash") > counts_shallow.get("sig_hash")


class TestFastpathFallbacks:
    def test_first_lookup_misses_then_hits(self):
        kernel = _kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, "/d")
        fd = kernel.sys.open(task, "/d/f", O_CREAT | O_RDWR)
        kernel.sys.close(task, fd)
        kernel.drop_caches()
        kernel.stats.reset()
        kernel.sys.stat(task, "/d/f")
        assert kernel.stats.get("fastpath_miss") == 1
        kernel.sys.stat(task, "/d/f")
        assert kernel.stats.get("fastpath_hit") == 1

    def test_negative_fastpath_hit(self):
        kernel = _kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        with pytest.raises(errors.ENOENT):
            kernel.sys.stat(task, "/missing")
        kernel.stats.reset()
        with pytest.raises(errors.ENOENT):
            kernel.sys.stat(task, "/missing")
        assert kernel.stats.get("fastpath_hit") == 1
        assert kernel.stats.get("negative_hit") == 1
        assert kernel.stats.get("fs_lookup") == 0

    def test_deep_negative_fastpath_hit(self):
        kernel = _kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        with pytest.raises(errors.ENOENT):
            kernel.sys.stat(task, "/gone/a/b/c")
        kernel.stats.reset()
        with pytest.raises(errors.ENOENT):
            kernel.sys.stat(task, "/gone/a/b/c")
        assert kernel.stats.get("fastpath_hit") == 1
        assert kernel.stats.get("fs_lookup") == 0

    def test_deep_negative_disabled_misses(self):
        kernel = _kernel("optimized", deep_negative=False)
        task = kernel.spawn_task(uid=0, gid=0)
        for _ in range(2):
            with pytest.raises(errors.ENOENT):
                kernel.sys.stat(task, "/gone/a/b/c")
        # Without deep negatives the full path never enters the DLHT.
        assert kernel.stats.get("fastpath_hit") == 0

    def test_enotdir_deep_negative(self):
        kernel = _kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        fd = kernel.sys.open(task, "/file", O_CREAT | O_RDWR)
        kernel.sys.close(task, fd)
        with pytest.raises(errors.ENOTDIR):
            kernel.sys.stat(task, "/file/below/deeper")
        kernel.stats.reset()
        with pytest.raises(errors.ENOTDIR):
            kernel.sys.stat(task, "/file/below/deeper")
        assert kernel.stats.get("fastpath_hit") == 1

    def test_force_fastpath_miss_config(self):
        kernel = _kernel("optimized", force_fastpath_miss=True)
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, "/d")
        for _ in range(3):
            kernel.sys.stat(task, "/d")
        assert kernel.stats.get("fastpath_hit") == 0
        assert kernel.stats.get("fastpath_miss") >= 3

    def test_stub_falls_back_once(self):
        kernel = _kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, "/d")
        fd = kernel.sys.open(task, "/d/f", O_CREAT | O_RDWR)
        kernel.sys.close(task, fd)
        kernel.drop_caches()
        kernel.sys.listdir(task, "/d")  # creates a stub for f
        kernel.stats.reset()
        kernel.sys.stat(task, "/d/f")  # stub fill: getattr, no fs_lookup
        assert kernel.stats.get("stub_fill") == 1
        assert kernel.stats.get("fs_lookup") == 0

    def test_symlink_followed_via_stored_target_signature(self):
        kernel = _kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        fd = kernel.sys.open(task, "/real", O_CREAT | O_RDWR)
        kernel.sys.close(task, fd)
        kernel.sys.symlink(task, "/real", "/ln")
        kernel.sys.stat(task, "/ln")  # populate link target state
        kernel.stats.reset()
        kernel.costs.reset_attribution()
        kernel.sys.stat(task, "/ln")
        assert kernel.stats.get("fastpath_hit") == 1
        # Two DLHT probes: the link path, then the stored target sig.
        assert kernel.costs.count("dlht_probe") == 2


class TestRelativeLookups:
    def test_relative_resumes_hash_state(self):
        """Relative lookups hash only the relative suffix (§3.1)."""
        kernel = _kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        leaf = _deep_tree(kernel, task, 6)
        parent = leaf.rsplit("/", 1)[0]
        kernel.sys.chdir(task, parent)
        kernel.sys.stat(task, "leaf")
        kernel.sys.stat(task, "leaf")
        kernel.costs.reset_attribution()
        kernel.sys.stat(task, "leaf")
        # Only "leaf" (4 chars + separator) was hashed: one sig_hash call.
        assert kernel.costs.count("sig_hash") == 1
        assert kernel.costs.count("dlht_probe") == 1

    def test_relative_equals_absolute_result(self):
        kernel = _kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        leaf = _deep_tree(kernel, task, 3)
        parent = leaf.rsplit("/", 1)[0]
        kernel.sys.chdir(task, parent)
        assert kernel.sys.stat(task, "leaf").ino == \
            kernel.sys.stat(task, leaf).ino


# -- one walk per component outcome: per-scope charges pinned --------------

def _walk_setup(kernel, root):
    """``/a/b/c/f`` and the extra names each outcome below needs."""
    sys = kernel.sys
    for path in ("/a", "/a/b", "/a/b/c", "/mnt", "/net"):
        sys.mkdir(root, path)
    sys.mkdir(root, "/p", 0o700)
    sys.mkdir(root, "/p/q")
    fd = sys.open(root, "/a/b/c/f", O_CREAT | O_RDWR)
    sys.close(root, fd)
    sys.symlink(root, "/a/b/c", "/abs")
    sys.symlink(root, "b/c", "/a/rel")
    sys.mount_fs(root, TmpFs(kernel.costs), "/mnt")
    sys.mkdir(root, "/mnt/d")
    fd = sys.open(root, "/mnt/d/x", O_CREAT | O_RDWR)
    sys.close(root, fd)
    sys.mount_fs(root, NfsLikeFs(ExportServer(kernel.costs)), "/net")
    sys.mkdir(root, "/net/d")
    fd = sys.open(root, "/net/d/x", O_CREAT | O_RDWR)
    sys.close(root, fd)


def _user(kernel, security=None):
    """A fresh credential: its empty PCC sends the optimized kernels'
    first lookup into the walk."""
    return kernel.spawn_task(uid=1000, gid=1000, security=security)


def _drop_then_root(kernel, root):
    kernel.drop_caches()
    return root


#: outcome -> (who looks up, path, error expected or None).
_OUTCOMES = {
    "dcache_hit": (lambda k, r: _user(k), "/a/b/c/f", None),
    "fs_miss": (_drop_then_root, "/a/b/c/f", None),
    "dir_complete": (lambda k, r: _user(k), "/a/b/c/absent", errors.ENOENT),
    "eacces": (lambda k, r: _user(k), "/p/q/f", errors.EACCES),
    "dotdot": (lambda k, r: _user(k), "/a/b/../b/c/f", None),
    "abs_symlink": (lambda k, r: _user(k), "/abs/f", None),
    "rel_symlink": (lambda k, r: _user(k), "/a/rel/f", None),
    "mount": (lambda k, r: _user(k), "/mnt/d/x", None),
    "revalidate": (lambda k, r: r, "/net/d/x", None),
    "lsm": (lambda k, r: _user(k, "webapp"), "/a/b/c/f", None),
    "lsm_denied": (lambda k, r: _user(k, "jailed"), "/a/b/c/f",
                   errors.EACCES),
}


_SCOPES = ("init", "perm", "hash", "htlookup", "miss", "lazy", "final")


def _walk_scopes(profile, outcome):
    """UNIT nanoseconds (primitive counts plus per-byte parts) of one
    lookup ending in ``outcome``: per scope of :data:`_SCOPES`, then the
    clock."""
    lsm = None
    if outcome.startswith("lsm"):
        lsm = SELinuxLikeLsm()
        lsm.allow("webapp", "file_t", "search")
    kernel = _kernel(profile, lsm=lsm)
    root = kernel.spawn_task(uid=0, gid=0)
    _walk_setup(kernel, root)
    who, path, error = _OUTCOMES[outcome]
    task = who(kernel, root)
    costs = kernel.costs
    costs.reset_attribution()
    before = costs.now_ns
    if error is None:
        kernel.sys.stat(task, path)
    else:
        with pytest.raises(error):
            kernel.sys.stat(task, path)
    scopes = costs.by_scope
    assert set(scopes) <= set(_SCOPES)
    return tuple(int(scopes.get(name, 0)) for name in _SCOPES) \
        + (int(costs.now_ns - before),)


#: Taken before the walk charged a component as one run.
_WALK_PINS = {
    "dcache_hit": {
        "baseline": (1, 4, 8, 20, 0, 0, 1, 36),
        "optimized": (2, 5, 19, 22, 0, 0, 1, 55),
        "optimized-lazy": (1, 6, 11, 2, 0, 4, 2, 29),
    },
    "fs_miss": {
        "baseline": (1, 4, 8, 16, 52, 0, 1, 92),
        "optimized": (2, 4, 19, 18, 52, 0, 1, 114),
        "optimized-lazy": (2, 4, 19, 20, 52, 0, 1, 116),
    },
    "dir_complete": {
        "baseline": (1, 4, 13, 19, 4, 0, 0, 44),
        "optimized": (2, 4, 29, 21, 0, 0, 0, 64),
        "optimized-lazy": (1, 6, 16, 6, 0, 3, 1, 39),
    },
    "eacces": {
        "baseline": (1, 2, 2, 5, 0, 0, 0, 11),
        "optimized": (2, 2, 10, 7, 0, 0, 0, 22),
        "optimized-lazy": (2, 5, 10, 9, 0, 2, 0, 29),
    },
    "dotdot": {
        "baseline": (1, 6, 13, 27, 0, 0, 1, 50),
        "optimized": (2, 7, 27, 29, 0, 0, 1, 74),
        "optimized-lazy": (1, 10, 14, 4, 0, 5, 2, 40),
    },
    "abs_symlink": {
        "baseline": (1, 5, 12, 25, 0, 0, 1, 47),
        "optimized": (2, 5, 31, 27, 0, 0, 1, 78),
        "optimized-lazy": (2, 5, 31, 29, 0, 0, 1, 80),
    },
    "rel_symlink": {
        "baseline": (1, 5, 12, 25, 0, 0, 1, 47),
        "optimized": (2, 5, 31, 27, 0, 0, 1, 78),
        "optimized-lazy": (2, 5, 31, 29, 0, 0, 1, 80),
    },
    "mount": {
        "baseline": (1, 3, 8, 15, 0, 0, 1, 31),
        "optimized": (2, 4, 18, 17, 0, 0, 1, 48),
        "optimized-lazy": (2, 5, 18, 19, 0, 0, 1, 53),
    },
    "revalidate": {
        "baseline": (1, 3, 8, 15, 360004, 0, 1, 360035),
        "optimized": (2, 3, 18, 17, 360004, 0, 1, 360048),
        "optimized-lazy": (2, 3, 18, 19, 360004, 0, 1, 360050),
    },
    "lsm": {
        "baseline": (1, 8, 8, 20, 0, 0, 1, 40),
        "optimized": (2, 9, 19, 22, 0, 0, 1, 59),
        "optimized-lazy": (1, 10, 11, 2, 0, 4, 2, 33),
    },
    "lsm_denied": {
        "baseline": (1, 2, 0, 0, 0, 0, 0, 4),
        "optimized": (2, 3, 11, 2, 0, 0, 0, 19),
        "optimized-lazy": (2, 6, 11, 2, 0, 4, 0, 26),
    },
}


class TestWalkChargesPinned:
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("outcome", _OUTCOMES)
    def test_one_walk(self, profile, outcome):
        assert _walk_scopes(profile, outcome) == \
            _WALK_PINS[outcome][profile]
