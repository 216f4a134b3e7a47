"""Operation-count tests: the fastpath's algorithmic claims.

Using the UNIT cost model (every primitive = 1 ns), these tests assert
the *counts* behind the paper's complexity arguments: the fastpath does a
constant number of hash-table probes and permission checks regardless of
path depth, while the baseline's grow linearly.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro import O_CREAT, O_DIRECTORY, O_RDONLY, O_RDWR, errors, make_kernel
from repro.core.kernel import PROFILES
from repro.fs.netfs import ExportServer, NfsLikeFs
from repro.fs.simext import SimExtFs
from repro.fs.tmpfs import TmpFs
from repro.sim.costs import CostModel, UNIT
from repro.sim.stats import Stats
from repro.vfs.lsm import SELinuxLikeLsm
from repro.vfs.walk import MAX_SYMLINKS


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


_HOST_CALLS = ("charge", "apply", "bump", "bump_many")


def _count_host_calls(monkeypatch, *classes):
    """The list every call to a :data:`_HOST_CALLS` method of
    ``classes`` appends its name to."""
    calls = []

    def counted(real):
        def wrapper(self, *args, **kwargs):
            calls.append(real.__name__)
            return real(self, *args, **kwargs)
        return wrapper

    for cls in classes:
        for name in _HOST_CALLS:
            if hasattr(cls, name):
                monkeypatch.setattr(cls, name, counted(getattr(cls, name)))
    return calls


def _python_calls(thunk):
    """The names of the Python frames ``thunk``'s body enters, in order.

    The collector is off meanwhile: a collection would run finalizers
    the thunk never called."""
    calls = []

    def profiler(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)
    previous = sys.getprofile()
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        thunk()
    finally:
        sys.setprofile(previous)
        if enabled:
            gc.enable()
    return calls[1:]


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

    @pytest.mark.parametrize("profile", ["optimized", "optimized-lazy"])
    def test_host_calls_do_not_grow_with_depth(self, profile, monkeypatch):
        """§3's constant-work claim, for host cost: a plain hit reaches
        the cost model the same number of times at any depth."""
        calls = _count_host_calls(monkeypatch, CostModel)
        per_depth = {}
        for depth in (2, 6, 12):
            kernel = _kernel(profile, resolution_memo=False)
            task = kernel.spawn_task(uid=0, gid=0)
            leaf = _deep_tree(kernel, task, depth - 1)
            kernel.sys.stat(task, leaf)
            kernel.sys.stat(task, leaf)
            kernel.costs.reset_attribution()
            del calls[:]
            kernel.sys.stat(task, leaf)
            assert kernel.costs.count("dlht_probe") == 1
            per_depth[depth] = sorted(calls)
        assert per_depth[2] == per_depth[6] == per_depth[12], per_depth

    @pytest.mark.parametrize("profile", ["baseline", "optimized"])
    def test_walk_host_calls_do_not_grow_with_depth(self, profile,
                                                    monkeypatch):
        """A slow walk charges each component outcome once per walk: a
        baseline ``stat``, or an eager fallback after the PCC is
        emptied, reaches the cost model and Stats the same number of
        times at any depth."""
        calls = _count_host_calls(monkeypatch, CostModel, Stats)
        per_depth = {}
        for depth in (2, 6, 12):
            kernel = _kernel(profile, resolution_memo=False)
            task = kernel.spawn_task(uid=0, gid=0)
            leaf = _deep_tree(kernel, task, depth - 1)
            kernel.sys.stat(task, leaf)
            kernel.sys.stat(task, leaf)
            if task.cred.pcc is not None:
                task.cred.pcc.invalidate_all()
            kernel.costs.reset_attribution()
            del calls[:]
            kernel.sys.stat(task, leaf)
            assert kernel.costs.count("ht_probe") == depth
            per_depth[depth] = sorted(calls)
        assert per_depth[2] == per_depth[6] == per_depth[12], per_depth

    @pytest.mark.parametrize("profile, per_component",
                             [("baseline", 2), ("optimized", 3),
                              ("optimized-lazy", 3)])
    def test_walk_python_calls_per_component(self, profile, per_component):
        """A walked component costs what the model charges, two calls:
        the search check and the table probe (``Dcache.probe``).  Kind
        predicates, ``PathPos`` building and a no-op step hook would
        each add one.  An eager fallback adds only the population hook:
        the failed attempt hands the walk its per-component hash states.
        On optimized-lazy an emptied PCC sends the hit to its chain
        re-prove instead of a walk: a name compare and a search check
        per component.  Before the attempt handed over its states and
        the hit hashed its path in one call, these read 2 / 7 / 4."""
        per_depth = {}
        for depth in (2, 6, 12):
            kernel = _kernel(profile, resolution_memo=False)
            task = kernel.spawn_task(uid=0, gid=0)
            leaf = _deep_tree(kernel, task, depth - 1)
            kernel.sys.stat(task, leaf)
            kernel.sys.stat(task, leaf)
            if task.cred.pcc is not None:
                task.cred.pcc.invalidate_all()
            kernel.costs.reset_attribution()
            reproved = kernel.stats.get("lazy_pcc_reprove")
            calls = _python_calls(lambda: kernel.sys.stat(task, leaf))
            if profile == "optimized-lazy":
                assert kernel.stats.get("lazy_pcc_reprove") == reproved + 1
            else:
                assert kernel.costs.count("ht_probe") == depth
            per_depth[depth] = len(calls)
        for shallow, deep in ((2, 6), (6, 12)):
            assert per_depth[deep] - per_depth[shallow] \
                <= per_component * (deep - shallow), per_depth

    def test_baseline_warm_stat_python_calls(self):
        """A warm baseline ``stat`` makes two Python calls per component
        (the search check and ``Dcache.probe``) plus 17 at any depth:
        the walk applies each outcome's vector once, times how often it
        occurred.  Building a scaled copy of the bundle for a repeated
        outcome made it 18."""
        for depth in (2, 6, 12):
            kernel = _kernel("baseline", resolution_memo=False)
            task = kernel.spawn_task(uid=0, gid=0)
            leaf = _deep_tree(kernel, task, depth - 1)
            kernel.sys.stat(task, leaf)
            kernel.sys.stat(task, leaf)
            kernel.costs.reset_attribution()
            calls = _python_calls(lambda: kernel.sys.stat(task, leaf))
            assert kernel.costs.count("ht_probe") == depth
            assert len(calls) == 2 * depth + 17, (depth, calls)

    @pytest.mark.parametrize("profile", ["optimized", "optimized-lazy"])
    def test_hit_python_calls_do_not_grow_with_depth(self, profile):
        """§3's constant-work claim, for the simulator itself: a plain
        hit hashes its path in one call and probes the table in place,
        so one ``stat`` makes the same Python calls at any depth, and at
        most 17: the syscall entry is one prebound charge on both
        profiles.  With one ``PathHasher.extend`` call per component it
        made 25 / 29 / 35 calls at depths 2 / 6 / 12 on optimized and
        27 / 31 / 37 on optimized-lazy."""
        per_depth = {}
        for depth in (2, 6, 12):
            kernel = _kernel(profile, resolution_memo=False)
            task = kernel.spawn_task(uid=0, gid=0)
            leaf = _deep_tree(kernel, task, depth - 1)
            kernel.sys.stat(task, leaf)
            kernel.sys.stat(task, leaf)
            hits = kernel.stats.get("fastpath_hit")
            calls = _python_calls(lambda: kernel.sys.stat(task, leaf))
            assert kernel.stats.get("fastpath_hit") == hits + 1
            per_depth[depth] = len(calls)
        assert per_depth[2] == per_depth[6] == per_depth[12], per_depth
        assert per_depth[12] <= 17, per_depth

    def test_universal_finish_enters_no_python_frame(self):
        """The universal hasher's key is its state's low bits, one
        C-level mask, so finishing a state costs no Python frame (as
        ``length`` does not).  A memo of finished keys cost one."""
        hasher = make_kernel("optimized").hasher
        state = hasher.extend_components(hasher.EMPTY, ["a", "b", "c"])
        assert _python_calls(lambda: hasher.finish(state)) == []
        assert _python_calls(lambda: hasher.length(state)) == []
        assert hasher.finish(state) == hasher.finish(state)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_warm_fd_read_write_python_calls(self, profile):
        """A warm-fd ``read`` and ``write`` of four bytes make 14 and 22
        Python calls on every profile: whether the fd may read or write
        is a slot of the open file, fixed at ``open``.  As properties
        over ``flags`` they cost one frame each, 15 and 23."""
        kernel = _kernel(profile)
        task = kernel.spawn_task(uid=0, gid=0)
        fd = kernel.sys.open(task, "/f", O_CREAT | O_RDWR)
        for _ in range(2):
            kernel.sys.lseek(task, fd, 0)
            reads = _python_calls(lambda: kernel.sys.read(task, fd, 4))
            writes = _python_calls(
                lambda: kernel.sys.write(task, fd, b"abcd"))
        assert (len(reads), len(writes)) == (14, 22), (reads, writes)


class TestMissPathHostCalls:
    """A fastpath miss pays once: the failed attempt hands the fallback
    walk its start and its hash states, and population touches only what
    changed."""

    @pytest.mark.parametrize("profile, pinned",
                             [("baseline", 53), ("optimized", 61),
                              ("optimized-lazy", 72)])
    def test_cold_stub_fstatat_python_calls(self, profile, pinned):
        """``fstatat(dirfd, name)`` of a readdir stub in a 200-dentry
        cache after ``drop_caches``: a probe miss, a fallback walk that
        fills the stub, and its population (a plain FS lookup on
        baseline).  It read 53 / 68 / 79 before the attempt handed over
        its start and its states and population became one pass."""
        kernel = _kernel(profile, dcache_capacity=200,
                         resolution_memo=False)
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, "/d")
        for i in range(20):
            kernel.sys.close(task, kernel.sys.open(task, f"/d/f{i}",
                                                   O_CREAT | O_RDWR))
        kernel.drop_caches()
        fd = kernel.sys.open(task, "/d", O_RDONLY | O_DIRECTORY)
        kernel.sys.readdir(task, fd)
        kernel.sys.fstatat(task, "f1", fd)
        fills = kernel.stats.get("stub_fill")
        calls = _python_calls(lambda: kernel.sys.fstatat(task, "f3", fd))
        if profile != "baseline":
            assert kernel.stats.get("stub_fill") == fills + 1
        assert len(calls) == pinned, calls

    def test_eager_create_extends_no_state_after_the_attempt(self):
        """An eager create of an absent name six components deep: the
        whole-path probe misses, and the attempt hands the walk its six
        states, so the walk extends none (it extended six)."""
        kernel = _kernel("optimized", resolution_memo=False)
        task = kernel.spawn_task(uid=0, gid=0)
        path = ""
        for i in range(5):
            path += f"/x{i}"
            kernel.sys.mkdir(task, path)
        kernel.sys.stat(task, path)
        misses = kernel.stats.get("fastpath_miss")
        calls = _python_calls(lambda: kernel.sys.close(
            task, kernel.sys.open(task, f"{path}/new", O_CREAT | O_RDWR)))
        assert kernel.stats.get("fastpath_miss") == misses + 1
        walk = calls[calls.index("begin"):]
        assert "step" in walk and "extend" not in walk, calls


class TestFileSystemHostCalls:
    """ROADMAP item 3's bar on the file-system side: an FS call charges
    its block touches, and a listing its entries, as one tally each."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_readdir_host_calls_do_not_grow_with_size(self, profile,
                                                      monkeypatch):
        """A ``readdir`` of 10, 100 or 1 000 entries reaches the cost
        model and Stats equally often: read from SimExt (which caches a
        stub per entry), and then served from the complete directory
        (baseline has no completeness: it reads SimExt again)."""
        calls = _count_host_calls(monkeypatch, CostModel, Stats)
        per_size = {}
        for size in (10, 100, 1000):
            kernel = _kernel(profile)
            fs = kernel.root_fs
            ino = fs.mkdir(fs.root_ino, "d", 0o755, 0, 0).ino
            for i in range(size):
                fs.create(ino, f"f{i}", 0o644, 0, 0)
            task = kernel.spawn_task(uid=0, gid=0)
            per_size[size] = []
            complete = kernel.readdir_engine.config.dir_complete
            for source in ("readdir_fs",
                           "readdir_cached" if complete else "readdir_fs"):
                fd = kernel.sys.open(task, "/d", O_RDONLY | O_DIRECTORY)
                served = kernel.stats.get(source)
                del calls[:]
                assert len(kernel.sys.readdir(task, fd)) == size
                per_size[size].append(sorted(calls))
                assert kernel.stats.get(source) == served + 1
                kernel.sys.close(task, fd)
        assert per_size[10] == per_size[100] == per_size[1000], per_size

    def test_simext_lookup_host_calls_do_not_grow_with_blocks(self,
                                                             monkeypatch):
        """A SimExt ``lookup``, found or not, reaches the cost model as
        often in a directory of 1, 4 (a linear scan of each) or 8 entry
        blocks (an htree: index and leaf)."""
        calls = _count_host_calls(monkeypatch, CostModel)
        per_blocks = {}
        for blocks in (1, 4, 8):
            fs = SimExtFs(CostModel(dict(UNIT)))
            ino = fs.mkdir(fs.root_ino, "d", 0o755, 0, 0).ino
            for i in range(16 * blocks):
                fs.create(ino, f"f{i}", 0o644, 0, 0)
            assert len(fs._nodes[ino].entry_blocks) == blocks
            missed = fs.pagecache.misses
            del calls[:]
            assert fs.lookup(ino, "f1") is not None
            assert fs.lookup(ino, "nope") is None
            assert fs.pagecache.misses == missed  # every block is cached
            per_blocks[blocks] = sorted(calls)
        assert per_blocks[1] == per_blocks[4] == per_blocks[8], per_blocks

    def test_simext_mutation_host_calls_do_not_grow_with_blocks(
            self, monkeypatch):
        """A SimExt ``create``, ``unlink`` and ``rename`` each reach the
        cost model as often in a directory of 1 (a linear scan), 8 or 64
        entry blocks (an htree), with room left in the last block."""
        calls = _count_host_calls(monkeypatch, CostModel)
        per_blocks = {}
        for blocks in (1, 8, 64):
            fs = SimExtFs(CostModel(dict(UNIT)))
            ino = fs.mkdir(fs.root_ino, "d", 0o755, 0, 0).ino
            for i in range(16 * blocks - 1):
                fs.create(ino, f"f{i}", 0o644, 0, 0)
            missed = fs.pagecache.misses
            per_op = []
            for op in (lambda: fs.create(ino, "new", 0o644, 0, 0),
                       lambda: fs.unlink(ino, "new"),
                       lambda: fs.rename(ino, "f1", ino, "g1")):
                del calls[:]
                op()
                per_op.append(sorted(calls))
            assert len(fs._nodes[ino].entry_blocks) == blocks
            assert fs.pagecache.misses == missed  # every block is cached
            per_blocks[blocks] = per_op
        assert per_blocks[1] == per_blocks[8] == per_blocks[64], per_blocks


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


def _reset_stats(kernel, root):
    """No counters yet: a walk of no components must create none."""
    kernel.stats.reset()
    return root


def _link_chain(kernel, root):
    """``/s0 -> /s1 -> … -> /s40 -> /a/b/c/f``: one link more than a
    resolution may follow."""
    for i in range(MAX_SYMLINKS + 1):
        target = f"/s{i + 1}" if i < MAX_SYMLINKS else "/a/b/c/f"
        kernel.sys.symlink(root, target, f"/s{i}")
    return _user(kernel)


def _failing_lookup(kernel, root):
    """Cold caches, and a root file system whose lookup of ``c`` fails,
    so the walk raises after charging ``a`` and ``b``."""
    fs = kernel.root_fs
    real = fs.lookup

    def lookup(dir_ino, name):
        if name == "c":
            raise errors.FsError(name, "I/O error")
        return real(dir_ino, name)

    kernel.drop_caches()
    fs.lookup = lookup
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
    "enotdir_tail": (lambda k, r: _user(k), "/a/b/c/f/x", errors.ENOTDIR),
    "eloop": (_link_chain, "/s0", errors.ELOOP),
    "fs_error": (_failing_lookup, "/a/b/c/f", errors.FsError),
    "root": (_reset_stats, "/", None),
}


_SCOPES = ("init", "perm", "hash", "htlookup", "miss", "lazy", "final")


def _walk_scopes(profile, outcome):
    """UNIT nanoseconds (primitive counts plus per-byte parts) of one
    lookup ending in ``outcome``: per scope of :data:`_SCOPES`, then the
    clock, ``costs.counts`` and the Stats deltas (a counter created at
    zero shows as ``name=0``)."""
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
    now = costs.now_ns
    before = kernel.stats.snapshot()
    if error is None:
        kernel.sys.stat(task, path)
    else:
        with pytest.raises(error):
            kernel.sys.stat(task, path)
    scopes = costs.by_scope
    assert set(scopes) <= set(_SCOPES)
    deltas = " ".join(f"{name}={value - before.get(name, 0)}"
                      for name, value in sorted(kernel.stats.snapshot().items())
                      if before.get(name) != value)
    return tuple(int(scopes.get(name, 0)) for name in _SCOPES) \
        + (int(costs.now_ns - now), _flat(costs.counts), deltas)


#: Per-scope nanoseconds and the clock taken before the walk charged a
#: component as one run; ``counts``, the Stats deltas and the last three
#: outcomes taken before it charged each outcome once per walk.
_WALK_PINS = {
    'dcache_hit': {
        'baseline': (
            1, 4, 8, 20, 0, 0, 1, 36,
            'chain_compare=4 component_hash=4 ht_probe=4 lookup_final=1 '
            'lookup_init=1 lru_touch=4 perm_check_dac=4 read_barrier=4 '
            'seqlock_read=4 stat_fill=1 syscall_fixed=1',
            'component_step=4 dcache_hit=4 lookup=1'),
        'optimized': (
            2, 5, 19, 22, 0, 0, 1, 55,
            'chain_compare=4 component_hash=4 dlht_probe=1 fastpath_init=2 '
            'ht_probe=4 lookup_final=1 lru_touch=4 pcc_insert=4 pcc_probe=1 '
            'perm_check_dac=4 read_barrier=4 seqlock_read=4 sig_compare=1 '
            'sig_hash=4 stat_fill=1 syscall_fixed=1',
            'component_step=4 dcache_hit=4 fastpath_miss=1 lookup=1 '
            'pcc_miss=1'),
        'optimized-lazy': (
            1, 5, 11, 2, 0, 4, 2, 28,
            'dlht_probe=1 fastpath_init=1 lazy_validate=4 lookup_final=1 '
            'mount_flag_check=1 pcc_insert=1 pcc_probe=1 perm_check_dac=4 '
            'sig_compare=1 sig_hash=4 stat_fill=1 syscall_fixed=1',
            'fastpath_hit=1 lazy_pcc_reprove=1 lazy_refresh=1 lookup=1 '
            'pcc_miss=1'),
    },
    'fs_miss': {
        'baseline': (
            1, 4, 8, 16, 52, 0, 1, 92,
            'chain_compare=4 component_hash=4 dentry_alloc=4 disk_seek=2 '
            'disk_seq_block=32 fs_dirblock_scan=4 fs_lookup_base=4 '
            'ht_probe=4 lookup_final=1 lookup_init=1 lru_touch=4 '
            'pagecache_hit=10 perm_check_dac=4 read_barrier=4 '
            'seqlock_read=4 stat_fill=1 syscall_fixed=1',
            'component_step=4 dcache_miss=4 fs_lookup=4 lookup=1'),
        'optimized': (
            2, 4, 19, 18, 52, 0, 1, 114,
            'chain_compare=4 component_hash=4 dentry_alloc=4 disk_seek=2 '
            'disk_seq_block=32 dlht_insert=4 dlht_probe=1 fastpath_init=2 '
            'fs_dirblock_scan=4 fs_lookup_base=4 ht_probe=4 lookup_final=1 '
            'lru_touch=4 pagecache_hit=10 pcc_insert=4 perm_check_dac=4 '
            'read_barrier=4 seqlock_read=4 sig_compare=1 sig_hash=4 '
            'stat_fill=1 syscall_fixed=1',
            'component_step=4 dcache_miss=4 fastpath_miss=1 fs_lookup=4 '
            'lookup=1'),
        'optimized-lazy': (
            2, 4, 19, 20, 52, 0, 1, 116,
            'chain_compare=4 component_hash=4 dentry_alloc=4 disk_seek=2 '
            'disk_seq_block=32 dlht_insert=4 dlht_probe=2 fastpath_init=2 '
            'fs_dirblock_scan=4 fs_lookup_base=4 ht_probe=4 lookup_final=1 '
            'lru_touch=4 pagecache_hit=10 pcc_insert=4 perm_check_dac=4 '
            'read_barrier=4 seqlock_read=4 sig_compare=2 sig_hash=4 '
            'stat_fill=1 syscall_fixed=1',
            'component_step=4 dcache_miss=4 fastpath_miss=1 fs_lookup=4 '
            'lookup=1'),
    },
    'dir_complete': {
        'baseline': (
            1, 4, 13, 19, 4, 0, 0, 44,
            'chain_compare=4 component_hash=4 fs_dirblock_scan=1 '
            'fs_lookup_base=1 ht_probe=4 lookup_init=1 lru_touch=4 '
            'negative_dentry_alloc=1 pagecache_hit=2 perm_check_dac=4 '
            'read_barrier=4 seqlock_read=4 syscall_fixed=1',
            'component_step=4 dcache_hit=3 dcache_miss=1 fs_lookup=1 '
            'lookup=1'),
        'optimized': (
            2, 4, 29, 21, 0, 0, 0, 64,
            'chain_compare=4 component_hash=4 dlht_insert=1 dlht_probe=1 '
            'fastpath_init=2 ht_probe=4 lru_touch=4 negative_dentry_alloc=1 '
            'pcc_insert=4 perm_check_dac=4 read_barrier=4 seqlock_read=4 '
            'sig_compare=1 sig_hash=4 syscall_fixed=1',
            'component_step=4 dcache_hit=3 dir_complete_elide=1 '
            'fastpath_miss=1 lookup=1 negative_hit=1'),
        'optimized-lazy': (
            1, 5, 16, 6, 0, 3, 1, 38,
            'chain_compare=1 dlht_insert=1 dlht_probe=2 fastpath_init=1 '
            'ht_probe=1 lazy_validate=3 lookup_final=1 lru_touch=1 '
            'negative_dentry_alloc=1 pcc_insert=2 pcc_probe=1 '
            'perm_check_dac=4 sig_compare=2 sig_hash=4 syscall_fixed=1',
            'dir_complete_elide=1 fastpath_complete=1 fastpath_hit=1 '
            'lazy_pcc_reprove=1 lazy_refresh=1 lookup=1 negative_hit=1 '
            'pcc_miss=1'),
    },
    'eacces': {
        'baseline': (
            1, 2, 2, 5, 0, 0, 0, 11,
            'chain_compare=1 component_hash=1 ht_probe=1 lookup_init=1 '
            'lru_touch=1 perm_check_dac=2 read_barrier=1 seqlock_read=1 '
            'syscall_fixed=1',
            'component_step=1 dcache_hit=1 lookup=1'),
        'optimized': (
            2, 2, 10, 7, 0, 0, 0, 22,
            'chain_compare=1 component_hash=1 dlht_probe=1 fastpath_init=2 '
            'ht_probe=1 lru_touch=1 perm_check_dac=2 read_barrier=1 '
            'seqlock_read=1 sig_compare=1 sig_hash=3 syscall_fixed=1',
            'component_step=1 dcache_hit=1 fastpath_miss=1 lookup=1'),
        'optimized-lazy': (
            2, 4, 10, 9, 0, 2, 0, 28,
            'chain_compare=1 component_hash=1 dlht_probe=2 fastpath_init=2 '
            'ht_probe=1 lazy_validate=2 lru_touch=1 pcc_probe=1 '
            'perm_check_dac=3 read_barrier=1 seqlock_read=1 sig_compare=2 '
            'sig_hash=3 syscall_fixed=1',
            'component_step=1 dcache_hit=1 fastpath_miss=1 lazy_refresh=1 '
            'lookup=1 pcc_miss=1'),
    },
    'dotdot': {
        'baseline': (
            1, 6, 13, 27, 0, 0, 1, 50,
            'chain_compare=5 component_hash=6 ht_probe=5 lookup_final=1 '
            'lookup_init=1 lru_touch=5 perm_check_dac=6 read_barrier=6 '
            'seqlock_read=6 stat_fill=1 syscall_fixed=1',
            'component_step=6 dcache_hit=5 lookup=1'),
        'optimized': (
            2, 7, 27, 29, 0, 0, 1, 74,
            'chain_compare=5 component_hash=6 dlht_probe=1 fastpath_init=2 '
            'ht_probe=5 lookup_final=1 lru_touch=5 pcc_insert=6 pcc_probe=1 '
            'perm_check_dac=6 read_barrier=6 seqlock_read=6 sig_compare=1 '
            'sig_hash=5 stat_fill=1 syscall_fixed=1',
            'component_step=6 dcache_hit=5 fastpath_miss=1 lookup=1 '
            'pcc_miss=1'),
        'optimized-lazy': (
            1, 8, 14, 4, 0, 7, 2, 40,
            'dlht_probe=2 dotdot_extra_lookup=1 fastpath_init=1 '
            'lazy_validate=7 lookup_final=1 mount_flag_check=1 pcc_insert=1 '
            'pcc_probe=3 perm_check_dac=5 sig_compare=2 sig_hash=5 '
            'stat_fill=1 syscall_fixed=1',
            'fastpath_hit=1 lazy_pcc_reprove=1 lazy_refresh=1 lookup=1 '
            'pcc_miss=3'),
    },
    'abs_symlink': {
        'baseline': (
            1, 5, 12, 25, 0, 0, 1, 47,
            'chain_compare=5 component_hash=5 ht_probe=5 lookup_final=1 '
            'lookup_init=1 lru_touch=5 perm_check_dac=5 read_barrier=5 '
            'seqlock_read=5 stat_fill=1 symlink_resolve=1 syscall_fixed=1',
            'component_step=5 dcache_hit=5 lookup=1 symlink_traverse=1'),
        'optimized': (
            2, 5, 31, 27, 0, 0, 1, 78,
            'chain_compare=5 component_hash=5 dlht_insert=1 dlht_probe=1 '
            'fastpath_init=2 ht_probe=5 lookup_final=1 lru_touch=6 '
            'negative_dentry_alloc=1 pcc_insert=6 perm_check_dac=5 '
            'read_barrier=5 seqlock_read=5 sig_compare=1 sig_hash=6 '
            'stat_fill=1 symlink_resolve=1 syscall_fixed=1',
            'component_step=5 dcache_hit=5 fastpath_miss=1 lookup=1 '
            'symlink_traverse=1'),
        'optimized-lazy': (
            2, 5, 31, 29, 0, 0, 1, 80,
            'chain_compare=5 component_hash=5 dlht_insert=1 dlht_probe=2 '
            'fastpath_init=2 ht_probe=5 lookup_final=1 lru_touch=6 '
            'negative_dentry_alloc=1 pcc_insert=6 perm_check_dac=5 '
            'read_barrier=5 seqlock_read=5 sig_compare=2 sig_hash=6 '
            'stat_fill=1 symlink_resolve=1 syscall_fixed=1',
            'component_step=5 dcache_hit=5 fastpath_miss=1 lookup=1 '
            'symlink_traverse=1'),
    },
    'rel_symlink': {
        'baseline': (
            1, 5, 12, 25, 0, 0, 1, 47,
            'chain_compare=5 component_hash=5 ht_probe=5 lookup_final=1 '
            'lookup_init=1 lru_touch=5 perm_check_dac=5 read_barrier=5 '
            'seqlock_read=5 stat_fill=1 symlink_resolve=1 syscall_fixed=1',
            'component_step=5 dcache_hit=5 lookup=1 symlink_traverse=1'),
        'optimized': (
            2, 5, 31, 27, 0, 0, 1, 78,
            'chain_compare=5 component_hash=5 dlht_insert=1 dlht_probe=1 '
            'fastpath_init=2 ht_probe=5 lookup_final=1 lru_touch=6 '
            'negative_dentry_alloc=1 pcc_insert=6 perm_check_dac=5 '
            'read_barrier=5 seqlock_read=5 sig_compare=1 sig_hash=6 '
            'stat_fill=1 symlink_resolve=1 syscall_fixed=1',
            'component_step=5 dcache_hit=5 fastpath_miss=1 lookup=1 '
            'symlink_traverse=1'),
        'optimized-lazy': (
            2, 5, 31, 29, 0, 0, 1, 80,
            'chain_compare=5 component_hash=5 dlht_insert=1 dlht_probe=2 '
            'fastpath_init=2 ht_probe=5 lookup_final=1 lru_touch=6 '
            'negative_dentry_alloc=1 pcc_insert=6 perm_check_dac=5 '
            'read_barrier=5 seqlock_read=5 sig_compare=2 sig_hash=6 '
            'stat_fill=1 symlink_resolve=1 syscall_fixed=1',
            'component_step=5 dcache_hit=5 fastpath_miss=1 lookup=1 '
            'symlink_traverse=1'),
    },
    'mount': {
        'baseline': (
            1, 3, 8, 15, 0, 0, 1, 31,
            'chain_compare=3 component_hash=3 ht_probe=3 lookup_final=1 '
            'lookup_init=1 lru_touch=3 mountpoint_cross=1 perm_check_dac=3 '
            'read_barrier=3 seqlock_read=3 stat_fill=1 syscall_fixed=1',
            'component_step=3 dcache_hit=3 lookup=1 mount_cross=1'),
        'optimized': (
            2, 4, 18, 17, 0, 0, 1, 48,
            'chain_compare=3 component_hash=3 dlht_probe=1 fastpath_init=2 '
            'ht_probe=3 lookup_final=1 lru_touch=3 mountpoint_cross=1 '
            'pcc_insert=3 pcc_probe=1 perm_check_dac=3 read_barrier=3 '
            'seqlock_read=3 sig_compare=1 sig_hash=3 stat_fill=1 '
            'syscall_fixed=1',
            'component_step=3 dcache_hit=3 fastpath_miss=1 lookup=1 '
            'mount_cross=1 pcc_miss=1'),
        'optimized-lazy': (
            2, 3, 18, 19, 0, 0, 1, 51,
            'chain_compare=3 component_hash=3 dlht_insert=2 dlht_probe=2 '
            'fastpath_init=2 ht_probe=3 lookup_final=1 lru_touch=3 '
            'mountpoint_cross=1 pcc_insert=3 perm_check_dac=3 read_barrier=3 '
            'seqlock_read=3 sig_compare=2 sig_hash=3 stat_fill=1 '
            'syscall_fixed=1',
            'component_step=3 dcache_hit=3 fastpath_miss=1 lazy_evict=2 '
            'lookup=1 mount_cross=1'),
    },
    'revalidate': {
        'baseline': (
            1, 3, 8, 15, 360004, 0, 1, 360035,
            'chain_compare=3 component_hash=3 fs_lookup_base=4 ht_probe=3 '
            'lookup_final=1 lookup_init=1 lru_touch=3 mountpoint_cross=1 '
            'perm_check_dac=3 read_barrier=3 seqlock_read=3 stat_fill=1 '
            'syscall_fixed=1',
            'component_step=3 dcache_hit=3 lookup=1 mount_cross=1 '
            'revalidate=2'),
        'optimized': (
            2, 3, 18, 17, 360004, 0, 1, 360048,
            'chain_compare=3 component_hash=3 dlht_probe=1 fastpath_init=2 '
            'fs_lookup_base=4 ht_probe=3 lookup_final=1 lru_touch=3 '
            'mountpoint_cross=1 perm_check_dac=3 read_barrier=3 '
            'seqlock_read=3 sig_compare=1 sig_hash=3 stat_fill=1 '
            'syscall_fixed=1',
            'component_step=3 dcache_hit=3 fastpath_miss=1 lookup=1 '
            'mount_cross=1 revalidate=2'),
        'optimized-lazy': (
            2, 3, 18, 19, 360004, 0, 1, 360050,
            'chain_compare=3 component_hash=3 dlht_probe=2 fastpath_init=2 '
            'fs_lookup_base=4 ht_probe=3 lookup_final=1 lru_touch=3 '
            'mountpoint_cross=1 perm_check_dac=3 read_barrier=3 '
            'seqlock_read=3 sig_compare=2 sig_hash=3 stat_fill=1 '
            'syscall_fixed=1',
            'component_step=3 dcache_hit=3 fastpath_miss=1 lookup=1 '
            'mount_cross=1 revalidate=2'),
    },
    'lsm': {
        'baseline': (
            1, 8, 8, 20, 0, 0, 1, 40,
            'chain_compare=4 component_hash=4 ht_probe=4 lookup_final=1 '
            'lookup_init=1 lru_touch=4 perm_check_dac=4 perm_check_lsm=4 '
            'read_barrier=4 seqlock_read=4 stat_fill=1 syscall_fixed=1',
            'component_step=4 dcache_hit=4 lookup=1'),
        'optimized': (
            2, 9, 19, 22, 0, 0, 1, 59,
            'chain_compare=4 component_hash=4 dlht_probe=1 fastpath_init=2 '
            'ht_probe=4 lookup_final=1 lru_touch=4 pcc_insert=4 pcc_probe=1 '
            'perm_check_dac=4 perm_check_lsm=4 read_barrier=4 '
            'seqlock_read=4 sig_compare=1 sig_hash=4 stat_fill=1 '
            'syscall_fixed=1',
            'component_step=4 dcache_hit=4 fastpath_miss=1 lookup=1 '
            'pcc_miss=1'),
        'optimized-lazy': (
            1, 9, 11, 2, 0, 4, 2, 32,
            'dlht_probe=1 fastpath_init=1 lazy_validate=4 lookup_final=1 '
            'mount_flag_check=1 pcc_insert=1 pcc_probe=1 perm_check_dac=4 '
            'perm_check_lsm=4 sig_compare=1 sig_hash=4 stat_fill=1 '
            'syscall_fixed=1',
            'fastpath_hit=1 lazy_pcc_reprove=1 lazy_refresh=1 lookup=1 '
            'pcc_miss=1'),
    },
    'lsm_denied': {
        'baseline': (
            1, 2, 0, 0, 0, 0, 0, 4,
            'lookup_init=1 perm_check_dac=1 perm_check_lsm=1 '
            'syscall_fixed=1',
            'lookup=1'),
        'optimized': (
            2, 3, 11, 2, 0, 0, 0, 19,
            'dlht_probe=1 fastpath_init=2 pcc_probe=1 perm_check_dac=1 '
            'perm_check_lsm=1 sig_compare=1 sig_hash=4 syscall_fixed=1',
            'fastpath_miss=1 lookup=1 pcc_miss=1'),
        'optimized-lazy': (
            2, 5, 11, 2, 0, 4, 0, 25,
            'dlht_probe=1 fastpath_init=2 lazy_validate=4 pcc_probe=1 '
            'perm_check_dac=2 perm_check_lsm=2 sig_compare=1 sig_hash=4 '
            'syscall_fixed=1',
            'fastpath_miss=1 lazy_refresh=1 lookup=1 pcc_miss=1'),
    },
    'enotdir_tail': {
        'baseline': (
            1, 4, 8, 20, 0, 0, 0, 34,
            'chain_compare=4 component_hash=4 ht_probe=4 lookup_init=1 '
            'lru_touch=4 perm_check_dac=4 read_barrier=4 seqlock_read=4 '
            'syscall_fixed=1',
            'component_step=4 dcache_hit=4 lookup=1'),
        'optimized': (
            2, 4, 22, 22, 0, 0, 0, 59,
            'chain_compare=4 component_hash=4 dlht_insert=1 dlht_probe=1 '
            'fastpath_init=2 ht_probe=4 lru_touch=5 negative_dentry_alloc=1 '
            'pcc_insert=5 perm_check_dac=4 read_barrier=4 seqlock_read=4 '
            'sig_compare=1 sig_hash=5 syscall_fixed=1',
            'component_step=4 dcache_hit=4 deep_negative_chain=1 '
            'fastpath_miss=1 lookup=1'),
        'optimized-lazy': (
            2, 4, 22, 24, 0, 0, 0, 61,
            'chain_compare=4 component_hash=4 dlht_insert=1 dlht_probe=2 '
            'fastpath_init=2 ht_probe=4 lru_touch=5 negative_dentry_alloc=1 '
            'pcc_insert=5 perm_check_dac=4 read_barrier=4 seqlock_read=4 '
            'sig_compare=2 sig_hash=5 syscall_fixed=1',
            'component_step=4 dcache_hit=4 deep_negative_chain=1 '
            'fastpath_miss=1 lookup=1'),
    },
    'eloop': {
        'baseline': (
            1, 41, 154, 205, 0, 0, 0, 442,
            'chain_compare=41 component_hash=41 ht_probe=41 lookup_init=1 '
            'lru_touch=41 perm_check_dac=41 read_barrier=41 seqlock_read=41 '
            'symlink_resolve=40 syscall_fixed=1',
            'component_step=41 dcache_hit=41 lookup=1 symlink_traverse=40'),
        'optimized': (
            2, 42, 157, 207, 0, 0, 0, 449,
            'chain_compare=41 component_hash=41 dlht_probe=1 '
            'fastpath_init=2 ht_probe=41 lru_touch=41 pcc_probe=1 '
            'perm_check_dac=41 read_barrier=41 seqlock_read=41 '
            'sig_compare=1 sig_hash=1 symlink_resolve=40 syscall_fixed=1',
            'component_step=41 dcache_hit=41 fastpath_miss=1 lookup=1 '
            'pcc_miss=1 symlink_traverse=40'),
        'optimized-lazy': (
            2, 44, 157, 207, 0, 1, 0, 453,
            'chain_compare=41 component_hash=41 dlht_probe=1 '
            'fastpath_init=2 ht_probe=41 lazy_validate=1 lru_touch=41 '
            'pcc_insert=1 pcc_probe=2 perm_check_dac=42 read_barrier=41 '
            'seqlock_read=41 sig_compare=1 sig_hash=1 symlink_resolve=40 '
            'syscall_fixed=1',
            'component_step=41 dcache_hit=41 fastpath_miss=1 '
            'lazy_pcc_reprove=1 lookup=1 pcc_miss=2 symlink_traverse=40'),
    },
    'fs_error': {
        'baseline': (
            1, 3, 6, 12, 42, 0, 0, 69,
            'chain_compare=3 component_hash=3 dentry_alloc=2 disk_seek=2 '
            'disk_seq_block=32 fs_dirblock_scan=2 fs_lookup_base=2 '
            'ht_probe=3 lookup_init=1 lru_touch=2 pagecache_hit=4 '
            'perm_check_dac=3 read_barrier=3 seqlock_read=3 syscall_fixed=1',
            'component_step=3 dcache_miss=3 fs_lookup=3 lookup=1'),
        'optimized': (
            2, 3, 17, 14, 42, 0, 0, 83,
            'chain_compare=3 component_hash=3 dentry_alloc=2 disk_seek=2 '
            'disk_seq_block=32 dlht_probe=1 fastpath_init=2 '
            'fs_dirblock_scan=2 fs_lookup_base=2 ht_probe=3 lru_touch=2 '
            'pagecache_hit=4 perm_check_dac=3 read_barrier=3 seqlock_read=3 '
            'sig_compare=1 sig_hash=4 syscall_fixed=1',
            'component_step=3 dcache_miss=3 fastpath_miss=1 fs_lookup=3 '
            'lookup=1'),
        'optimized-lazy': (
            2, 3, 17, 16, 42, 0, 0, 85,
            'chain_compare=3 component_hash=3 dentry_alloc=2 disk_seek=2 '
            'disk_seq_block=32 dlht_probe=2 fastpath_init=2 '
            'fs_dirblock_scan=2 fs_lookup_base=2 ht_probe=3 lru_touch=2 '
            'pagecache_hit=4 perm_check_dac=3 read_barrier=3 seqlock_read=3 '
            'sig_compare=2 sig_hash=4 syscall_fixed=1',
            'component_step=3 dcache_miss=3 fastpath_miss=1 fs_lookup=3 '
            'lookup=1'),
    },
    'root': {
        'baseline': (
            1, 0, 0, 0, 0, 0, 1, 4,
            'lookup_final=1 lookup_init=1 stat_fill=1 syscall_fixed=1',
            'lookup=1'),
        'optimized': (
            1, 0, 0, 0, 0, 0, 1, 4,
            'fastpath_init=1 lookup_final=1 stat_fill=1 syscall_fixed=1',
            'fastpath_hit=1 lookup=1'),
        'optimized-lazy': (
            1, 0, 0, 0, 0, 0, 1, 4,
            'fastpath_init=1 lookup_final=1 stat_fill=1 syscall_fixed=1',
            'fastpath_hit=1 lookup=1'),
    },
}


class TestWalkChargesPinned:
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("outcome", _OUTCOMES)
    def test_one_walk(self, profile, outcome):
        assert _walk_scopes(profile, outcome) == \
            _WALK_PINS[outcome][profile]


# -- one fastpath lookup per outcome: everything it charges and counts -------

_FAST_PROFILES = ("optimized", "optimized-lazy")


def _fast_setup(kernel, root):
    """``/a/b/c/d/e/f``, ``/f``, ``/a/b/g``, a directory link
    ``/links/d0 -> /a/b/c`` and a file link ``/ln -> /a/b/c/d/e/f``."""
    sys = kernel.sys
    for path in ("/a", "/a/b", "/a/b/c", "/a/b/c/d", "/a/b/c/d/e", "/links"):
        sys.mkdir(root, path)
    for path in ("/f", "/a/b/g", "/a/b/c/d/e/f"):
        sys.close(root, sys.open(root, path, O_CREAT | O_RDWR))
    sys.symlink(root, "/a/b/c", "/links/d0")
    sys.symlink(root, "/a/b/c/d/e/f", "/ln")


def _flat(table):
    return " ".join(f"{name}={int(value)}"
                    for name, value in sorted(table.items()) if value)


def _fingerprint(kernel, thunk):
    """``(counts, by_scope, now_ns, Stats deltas)`` of ``thunk`` (UNIT)."""
    costs, stats = kernel.costs, kernel.stats
    costs.reset_attribution()
    now = costs.now_ns
    before = stats.snapshot()
    thunk()
    deltas = {name: value - before.get(name, 0)
              for name, value in stats.snapshot().items()}
    return (_flat(costs.counts), _flat(costs.by_scope),
            int(costs.now_ns - now), _flat(deltas))


def _stat(path, error=None, cwd=None):
    """A lookup thunk factory: ``stat(path)`` by the task, from ``cwd``."""
    def make(kernel, task):
        if cwd is not None:
            kernel.sys.chdir(task, cwd)

        def run():
            if error is None:
                kernel.sys.stat(task, path)
            else:
                with pytest.raises(error):
                    kernel.sys.stat(task, path)
        return run
    return make


def _measure(profile, factory, *, fresh=False, warm=False, disturb=None):
    """Fingerprint one lookup on a memo-off UNIT kernel: by root or a
    ``fresh`` credential, after two ``warm`` runs and ``disturb``."""
    kernel = _kernel(profile, resolution_memo=False)
    root = kernel.spawn_task(uid=0, gid=0)
    _fast_setup(kernel, root)
    task = _user(kernel) if fresh else root
    run = factory(kernel, task)
    if warm:
        run()
        run()
    if disturb is not None:
        disturb(kernel, task)
    return _fingerprint(kernel, run)


def _chmod_ancestor(kernel, task):
    kernel.sys.chmod(task, "/a/b", 0o755)


#: hit outcome -> (lookup thunk factory, ``_measure`` options).
_HITS = {
    "depth1": (_stat("/f"), {}),
    "depth6": (_stat("/a/b/c/d/e/f"), {}),
    "cwd": (_stat("d/e/f", cwd="/a/b/c"), {}),
    "dotdot_hop": (_stat("/a/b/c/../g"), {}),
    "trailing_dotdot": (_stat("/a/b/c/.."), {}),
    "enoent": (_stat("/a/b/missing", errors.ENOENT), {}),
    "enotdir": (_stat("/f/x/y", errors.ENOTDIR), {}),
    "link": (_stat("/ln"), {}),
    "alias": (_stat("/links/d0/d/e/f"), {}),
    "reprove": (_stat("/a/b/c/d/e/f"), {"disturb": _chmod_ancestor}),
}


def _both(*pin):
    """The same pin on both optimized profiles."""
    return dict.fromkeys(_FAST_PROFILES, pin)


def _hit_fingerprint(profile, outcome):
    factory, options = _HITS[outcome]
    return _measure(profile, factory, warm=True, **options)


#: Taken before a fastpath hit was charged as one run per outcome.
_HIT_PINS = {
    "depth1": _both(
        'dlht_probe=1 fastpath_init=1 lookup_final=1 mount_flag_check=1 '
        'pcc_probe=1 sig_compare=1 sig_hash=1 stat_fill=1 syscall_fixed=1',
        'final=2 hash=2 htlookup=2 init=1 perm=1',
        10,
        'fastpath_hit=1 lookup=1 pcc_hit=1'),
    "depth6": _both(
        'dlht_probe=1 fastpath_init=1 lookup_final=1 mount_flag_check=1 '
        'pcc_probe=1 sig_compare=1 sig_hash=6 stat_fill=1 syscall_fixed=1',
        'final=2 hash=17 htlookup=2 init=1 perm=1',
        25,
        'fastpath_hit=1 lookup=1 pcc_hit=1'),
    "cwd": _both(
        'dlht_probe=1 fastpath_init=1 lookup_final=1 mount_flag_check=1 '
        'pcc_probe=1 sig_compare=1 sig_hash=3 stat_fill=1 syscall_fixed=1',
        'final=2 hash=9 htlookup=2 init=1 perm=1',
        17,
        'fastpath_hit=1 lookup=1 pcc_hit=1'),
    "dotdot_hop": _both(
        'dlht_probe=2 dotdot_extra_lookup=1 fastpath_init=1 lookup_final=1 '
        'mount_flag_check=1 pcc_probe=2 sig_compare=2 sig_hash=4 '
        'stat_fill=1 syscall_fixed=1',
        'final=2 hash=11 htlookup=4 init=1 perm=2',
        23,
        'fastpath_hit=1 lookup=1 pcc_hit=2'),
    "trailing_dotdot": _both(
        'dlht_probe=1 dotdot_extra_lookup=1 fastpath_init=1 lookup_final=1 '
        'pcc_probe=1 sig_compare=1 sig_hash=3 stat_fill=1 syscall_fixed=1',
        'final=1 hash=8 htlookup=2 init=1 perm=1',
        16,
        'fastpath_hit=1 lookup=1 pcc_hit=1'),
    "enoent": _both(
        'dlht_probe=1 fastpath_init=1 lookup_final=1 pcc_probe=1 '
        'sig_compare=1 sig_hash=3 syscall_fixed=1',
        'final=1 hash=14 htlookup=2 init=1 perm=1',
        20,
        'fastpath_hit=1 lookup=1 negative_hit=1 pcc_hit=1'),
    "enotdir": _both(
        'dlht_probe=1 fastpath_init=1 lookup_final=1 pcc_probe=1 '
        'sig_compare=1 sig_hash=3 syscall_fixed=1',
        'final=1 hash=8 htlookup=2 init=1 perm=1',
        14,
        'fastpath_hit=1 lookup=1 negative_hit=1 pcc_hit=1'),
    "link": _both(
        'dlht_probe=2 fastpath_init=1 lookup_final=1 mount_flag_check=1 '
        'pcc_probe=2 sig_compare=2 sig_hash=1 stat_fill=1 syscall_fixed=1',
        'final=2 hash=3 htlookup=4 init=1 perm=2',
        14,
        'fastpath_hit=1 lookup=1 pcc_hit=2'),
    "alias": _both(
        'dlht_probe=1 fastpath_init=1 lookup_final=1 mount_flag_check=1 '
        'pcc_probe=2 sig_compare=1 sig_hash=5 stat_fill=1 syscall_fixed=1',
        'final=2 hash=19 htlookup=2 init=1 perm=2',
        28,
        'fastpath_hit=1 lookup=1 pcc_hit=2'),
    "reprove": {
        "optimized": (
            'chain_compare=6 component_hash=6 dlht_insert=5 dlht_probe=1 '
            'fastpath_init=2 ht_probe=6 lookup_final=1 lru_touch=6 '
            'pcc_insert=6 perm_check_dac=6 read_barrier=6 seqlock_read=6 '
            'sig_compare=1 sig_hash=6 stat_fill=1 syscall_fixed=1',
            'final=1 hash=29 htlookup=32 init=2 perm=6',
            83,
            'component_step=6 dcache_hit=6 fastpath_miss=1 lookup=1'),
        "optimized-lazy": (
            'dlht_probe=1 fastpath_init=1 lazy_validate=7 lookup_final=1 '
            'mount_flag_check=1 pcc_insert=1 pcc_probe=1 perm_check_dac=6 '
            'sig_compare=1 sig_hash=6 stat_fill=1 syscall_fixed=1',
            'final=2 hash=17 htlookup=2 init=1 lazy=7 perm=7',
            39,
            'fastpath_hit=1 lazy_pcc_reprove=1 lazy_refresh=1 lookup=1 '
            'pcc_epoch_stale=1'),
    },
}


def _evict_pcc(kernel, task):
    task.cred.pcc.invalidate_all()


#: fallback outcome -> (lookup thunk factory, ``_measure`` options).
#: Each one's fastpath attempt hashes components that the fallback
#: walk's population hooks then resume for free.
_FALLBACKS = {
    "via_dir_link": (_stat("/links/d0/d/e/f"), {}),
    "deep_negative": (_stat("/a/gone/x/y", errors.ENOENT), {}),
    "dotdot": (_stat("/a/b/c/../g"), {"fresh": True}),
    "pcc_evicted": (_stat("/a/b/c/d/e/f"),
                    {"warm": True, "disturb": _evict_pcc}),
}


def _fallback_fingerprint(profile, outcome):
    factory, options = _FALLBACKS[outcome]
    return _measure(profile, factory, **options)


#: Taken before the fallback's hashing credit moved onto the walk ctx.
_FALLBACK_PINS = {
    "via_dir_link": {
        "optimized": (
            'chain_compare=8 component_hash=8 dlht_insert=3 dlht_probe=1 '
            'fastpath_init=2 ht_probe=8 lookup_final=1 lru_touch=11 '
            'negative_dentry_alloc=3 pcc_insert=11 perm_check_dac=8 '
            'read_barrier=8 seqlock_read=8 sig_compare=1 sig_hash=11 '
            'stat_fill=1 symlink_resolve=1 syscall_fixed=1',
            'final=1 hash=58 htlookup=42 init=2 perm=8',
            134,
            'component_step=8 dcache_hit=8 fastpath_miss=1 lookup=1 '
            'symlink_traverse=1'),
        "optimized-lazy": (
            'chain_compare=8 component_hash=8 dlht_insert=3 dlht_probe=2 '
            'fastpath_init=2 ht_probe=8 lookup_final=1 lru_touch=11 '
            'negative_dentry_alloc=3 pcc_insert=11 perm_check_dac=8 '
            'read_barrier=8 seqlock_read=8 sig_compare=2 sig_hash=11 '
            'stat_fill=1 symlink_resolve=1 syscall_fixed=1',
            'final=1 hash=58 htlookup=44 init=2 perm=8',
            136,
            'component_step=8 dcache_hit=8 fastpath_miss=1 lookup=1 '
            'symlink_traverse=1'),
    },
    "deep_negative": {
        "optimized": (
            'chain_compare=2 component_hash=2 dlht_insert=3 dlht_probe=1 '
            'fastpath_init=2 ht_probe=2 lru_touch=4 negative_dentry_alloc=3'
            ' pcc_insert=4 perm_check_dac=2 read_barrier=2 seqlock_read=2 '
            'sig_compare=1 sig_hash=4 syscall_fixed=1',
            'hash=21 htlookup=11 init=2 perm=2',
            50,
            'component_step=2 dcache_hit=1 deep_negative_chain=1 '
            'dir_complete_elide=1 fastpath_miss=1 lookup=1 negative_hit=1'),
        "optimized-lazy": (
            'chain_compare=2 component_hash=2 dlht_insert=3 dlht_probe=2 '
            'fastpath_init=2 ht_probe=2 lru_touch=4 negative_dentry_alloc=3'
            ' pcc_insert=4 perm_check_dac=2 read_barrier=2 seqlock_read=2 '
            'sig_compare=2 sig_hash=4 syscall_fixed=1',
            'hash=21 htlookup=13 init=2 perm=2',
            52,
            'component_step=2 dcache_hit=1 deep_negative_chain=1 '
            'dir_complete_elide=1 fastpath_miss=1 lookup=1 negative_hit=1'),
    },
    "dotdot": {
        "optimized": (
            'chain_compare=4 component_hash=5 dlht_probe=1 fastpath_init=2 '
            'ht_probe=4 lookup_final=1 lru_touch=4 pcc_insert=5 pcc_probe=1'
            ' perm_check_dac=5 read_barrier=5 seqlock_read=5 sig_compare=1 '
            'sig_hash=4 stat_fill=1 syscall_fixed=1',
            'final=1 hash=22 htlookup=24 init=2 perm=6',
            62,
            'component_step=5 dcache_hit=4 fastpath_miss=1 lookup=1 '
            'pcc_miss=1'),
        "optimized-lazy": (
            'dlht_probe=2 dotdot_extra_lookup=1 fastpath_init=1 '
            'lazy_validate=4 lookup_final=1 mount_flag_check=1 pcc_insert=1'
            ' pcc_probe=5 perm_check_dac=4 sig_compare=2 sig_hash=4 '
            'stat_fill=1 syscall_fixed=1',
            'final=2 hash=11 htlookup=4 init=1 lazy=4 perm=9',
            35,
            'fastpath_hit=1 lazy_pcc_reprove=1 lookup=1 pcc_miss=5'),
    },
    "pcc_evicted": {
        "optimized": (
            'chain_compare=6 component_hash=6 dlht_probe=1 fastpath_init=2 '
            'ht_probe=6 lookup_final=1 lru_touch=6 pcc_insert=6 pcc_probe=1'
            ' perm_check_dac=6 read_barrier=6 seqlock_read=6 sig_compare=1 '
            'sig_hash=6 stat_fill=1 syscall_fixed=1',
            'final=1 hash=29 htlookup=32 init=2 perm=7',
            79,
            'component_step=6 dcache_hit=6 fastpath_miss=1 lookup=1 '
            'pcc_miss=1'),
        "optimized-lazy": (
            'dlht_probe=1 fastpath_init=1 lazy_validate=6 lookup_final=1 '
            'mount_flag_check=1 pcc_insert=1 pcc_probe=2 perm_check_dac=6 '
            'sig_compare=1 sig_hash=6 stat_fill=1 syscall_fixed=1',
            'final=2 hash=17 htlookup=2 init=1 lazy=6 perm=8',
            39,
            'fastpath_hit=1 lazy_pcc_reprove=1 lookup=1 pcc_miss=2'),
    },
}


class TestFastpathChargesPinned:
    @pytest.mark.parametrize("profile", _FAST_PROFILES)
    @pytest.mark.parametrize("outcome", _HITS)
    def test_one_hit(self, profile, outcome):
        assert _hit_fingerprint(profile, outcome) == \
            _HIT_PINS[outcome][profile]

    @pytest.mark.parametrize("profile", _FAST_PROFILES)
    @pytest.mark.parametrize("outcome", _FALLBACKS)
    def test_one_fallback(self, profile, outcome):
        assert _fallback_fingerprint(profile, outcome) == \
            _FALLBACK_PINS[outcome][profile]
