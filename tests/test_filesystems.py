"""Unit tests for the low-level file systems (simext, tmpfs, pseudofs)."""

from __future__ import annotations

import pytest

from repro import errors
from repro.fs import base
from repro.fs.dlfs import DlfsLikeFs
from repro.fs.pseudofs import PseudoFs
from repro.fs.simext import SimExtFs
from repro.fs.tmpfs import TmpFs
from repro.sim.costs import CostModel, UNIT


@pytest.fixture(params=["simext", "tmpfs"])
def fs(request):
    costs = CostModel(dict(UNIT))
    if request.param == "simext":
        return SimExtFs(costs)
    return TmpFs(costs)


class TestCommonSemantics:
    def test_root_is_dir(self, fs):
        info = fs.getattr(fs.root_ino)
        assert info.is_dir and info.nlink >= 2

    def test_create_and_lookup(self, fs):
        created = fs.create(fs.root_ino, "f", 0o644, 1, 2)
        found = fs.lookup(fs.root_ino, "f")
        assert found is not None
        assert found.ino == created.ino
        assert found.uid == 1 and found.gid == 2
        assert found.filetype == base.DT_REG

    def test_lookup_missing_returns_none(self, fs):
        assert fs.lookup(fs.root_ino, "ghost") is None

    def test_duplicate_create_rejected(self, fs):
        fs.create(fs.root_ino, "f", 0o644, 0, 0)
        with pytest.raises(errors.EEXIST):
            fs.create(fs.root_ino, "f", 0o644, 0, 0)

    def test_mkdir_bumps_parent_nlink(self, fs):
        before = fs.getattr(fs.root_ino).nlink
        fs.mkdir(fs.root_ino, "d", 0o755, 0, 0)
        assert fs.getattr(fs.root_ino).nlink == before + 1

    def test_readdir_lists_everything(self, fs):
        fs.create(fs.root_ino, "a", 0o644, 0, 0)
        fs.mkdir(fs.root_ino, "b", 0o755, 0, 0)
        fs.symlink(fs.root_ino, "c", "/a", 0, 0)
        entries = {name: dtype for name, _ino, dtype in
                   fs.readdir(fs.root_ino)}
        assert entries == {"a": base.DT_REG, "b": base.DT_DIR,
                           "c": base.DT_LNK}

    def test_write_read_roundtrip(self, fs):
        info = fs.create(fs.root_ino, "f", 0o644, 0, 0)
        fs.write(info.ino, 0, b"hello world")
        assert fs.read(info.ino, 0, 5) == b"hello"
        assert fs.read(info.ino, 6, 100) == b"world"
        assert fs.getattr(info.ino).size == 11

    def test_write_at_offset_pads(self, fs):
        info = fs.create(fs.root_ino, "f", 0o644, 0, 0)
        fs.write(info.ino, 4, b"x")
        assert fs.read(info.ino, 0, 5) == b"\0\0\0\0x"

    def test_unlink_removes(self, fs):
        fs.create(fs.root_ino, "f", 0o644, 0, 0)
        fs.unlink(fs.root_ino, "f")
        assert fs.lookup(fs.root_ino, "f") is None

    def test_unlink_missing(self, fs):
        with pytest.raises(errors.ENOENT):
            fs.unlink(fs.root_ino, "ghost")

    def test_unlink_directory_rejected(self, fs):
        fs.mkdir(fs.root_ino, "d", 0o755, 0, 0)
        with pytest.raises(errors.EISDIR):
            fs.unlink(fs.root_ino, "d")

    def test_rmdir_empty(self, fs):
        fs.mkdir(fs.root_ino, "d", 0o755, 0, 0)
        fs.rmdir(fs.root_ino, "d")
        assert fs.lookup(fs.root_ino, "d") is None

    def test_rmdir_updates_parent_size_and_mtime(self, fs):
        before = fs.getattr(fs.root_ino)
        fs.mkdir(fs.root_ino, "d", 0o755, 0, 0)
        made = fs.getattr(fs.root_ino)
        fs.costs.charge("syscall_fixed")  # the clock moves on
        fs.rmdir(fs.root_ino, "d")
        after = fs.getattr(fs.root_ino)
        assert after.size == before.size
        assert after.mtime_ns > made.mtime_ns

    def test_rmdir_nonempty_rejected(self, fs):
        info = fs.mkdir(fs.root_ino, "d", 0o755, 0, 0)
        fs.create(info.ino, "f", 0o644, 0, 0)
        with pytest.raises(errors.ENOTEMPTY):
            fs.rmdir(fs.root_ino, "d")

    def test_rmdir_file_rejected(self, fs):
        fs.create(fs.root_ino, "f", 0o644, 0, 0)
        with pytest.raises(errors.ENOTDIR):
            fs.rmdir(fs.root_ino, "f")

    def test_hard_link_shares_inode(self, fs):
        info = fs.create(fs.root_ino, "a", 0o644, 0, 0)
        linked = fs.link(fs.root_ino, "b", info.ino)
        assert linked.ino == info.ino
        assert fs.getattr(info.ino).nlink == 2
        fs.unlink(fs.root_ino, "a")
        assert fs.getattr(info.ino).nlink == 1
        assert fs.read(info.ino, 0, 1) == b""

    def test_link_to_dir_rejected(self, fs):
        info = fs.mkdir(fs.root_ino, "d", 0o755, 0, 0)
        with pytest.raises(errors.EPERM):
            fs.link(fs.root_ino, "dl", info.ino)

    def test_symlink_and_readlink(self, fs):
        info = fs.symlink(fs.root_ino, "l", "/target/path", 0, 0)
        assert info.is_symlink
        assert fs.readlink(info.ino) == "/target/path"
        assert info.size == len("/target/path")

    def test_readlink_of_file_rejected(self, fs):
        info = fs.create(fs.root_ino, "f", 0o644, 0, 0)
        with pytest.raises(errors.EINVAL):
            fs.readlink(info.ino)

    def test_rename_within_dir(self, fs):
        fs.create(fs.root_ino, "old", 0o644, 0, 0)
        fs.rename(fs.root_ino, "old", fs.root_ino, "new")
        assert fs.lookup(fs.root_ino, "old") is None
        assert fs.lookup(fs.root_ino, "new") is not None

    def test_rename_across_dirs_fixes_nlink(self, fs):
        a = fs.mkdir(fs.root_ino, "a", 0o755, 0, 0)
        b = fs.mkdir(fs.root_ino, "b", 0o755, 0, 0)
        fs.mkdir(a.ino, "sub", 0o755, 0, 0)
        a_links = fs.getattr(a.ino).nlink
        b_links = fs.getattr(b.ino).nlink
        fs.rename(a.ino, "sub", b.ino, "sub")
        assert fs.getattr(a.ino).nlink == a_links - 1
        assert fs.getattr(b.ino).nlink == b_links + 1

    def test_rename_over_file(self, fs):
        src = fs.create(fs.root_ino, "src", 0o644, 0, 0)
        fs.create(fs.root_ino, "dst", 0o644, 0, 0)
        fs.rename(fs.root_ino, "src", fs.root_ino, "dst")
        assert fs.lookup(fs.root_ino, "dst").ino == src.ino

    def test_rename_dir_over_nonempty_rejected(self, fs):
        fs.mkdir(fs.root_ino, "src", 0o755, 0, 0)
        dst = fs.mkdir(fs.root_ino, "dst", 0o755, 0, 0)
        fs.create(dst.ino, "f", 0o644, 0, 0)
        with pytest.raises(errors.ENOTEMPTY):
            fs.rename(fs.root_ino, "src", fs.root_ino, "dst")

    def test_setattr_mode_preserves_type(self, fs):
        info = fs.create(fs.root_ino, "f", 0o644, 0, 0)
        updated = fs.setattr(info.ino, mode=0o600)
        assert updated.filetype == base.DT_REG
        assert updated.mode & 0o7777 == 0o600

    def test_setattr_truncate(self, fs):
        info = fs.create(fs.root_ino, "f", 0o644, 0, 0)
        fs.write(info.ino, 0, b"0123456789")
        fs.setattr(info.ino, size=4)
        assert fs.read(info.ino, 0, 100) == b"0123"

    def test_stale_inode(self, fs):
        with pytest.raises(errors.ENOENT):
            fs.getattr(424242)


class TestFailedCreateLeavesNothing:
    """The name checks run before the allocation: a create that fails
    leaves no orphan node, uses up no inode number and (on SimExt)
    writes no inode-table block."""

    @pytest.mark.parametrize("op", ["create", "mkdir", "symlink"])
    @pytest.mark.parametrize("fs_cls", [DlfsLikeFs, SimExtFs, TmpFs],
                             ids=["dlfs", "simext", "tmpfs"])
    def test_failed_create_leaves_nothing(self, fs_cls, op):
        fs = fs_cls(CostModel(dict(UNIT)))
        make = {
            "create": lambda d, n: fs.create(d, n, 0o644, 0, 0),
            "mkdir": lambda d, n: fs.mkdir(d, n, 0o755, 0, 0),
            "symlink": lambda d, n: fs.symlink(d, n, "/t", 0, 0),
        }[op]
        f = fs.create(fs.root_ino, "f", 0o644, 0, 0).ino
        before = fs.statfs().inode_count, fs.state_digest()
        with pytest.raises(errors.EEXIST):
            make(fs.root_ino, "f")
        with pytest.raises(errors.ENOTDIR):
            make(f, "x")
        assert (fs.statfs().inode_count, fs.state_digest()) == before
        assert make(fs.root_ino, "new").ino == f + 1


class TestSimExtCosts:
    def test_lookup_charges_fs_base(self):
        costs = CostModel(dict(UNIT))
        fs = SimExtFs(costs)
        fs.create(fs.root_ino, "f", 0o644, 0, 0)
        before = costs.count("fs_lookup_base")
        fs.lookup(fs.root_ino, "f")
        assert costs.count("fs_lookup_base") == before + 1

    def test_large_directory_uses_htree(self):
        costs = CostModel(dict(UNIT))
        fs = SimExtFs(costs)
        for i in range(200):  # > HTREE_THRESHOLD_BLOCKS * 16 entries
            fs.create(fs.root_ino, f"f{i}", 0o644, 0, 0)
        before = costs.count("fs_dirblock_scan")
        fs.lookup(fs.root_ino, "f0")
        # htree: index + leaf, not a linear scan of ~13 blocks.
        assert costs.count("fs_dirblock_scan") - before == 2

    def test_cold_cache_pays_device_time(self):
        costs = CostModel()
        fs = SimExtFs(costs)
        fs.create(fs.root_ino, "f", 0o644, 0, 0)
        fs.lookup(fs.root_ino, "f")
        fs.drop_caches()
        start = costs.now_ns
        fs.lookup(fs.root_ino, "f")
        cold = costs.now_ns - start
        start = costs.now_ns
        fs.lookup(fs.root_ino, "f")
        warm = costs.now_ns - start
        assert cold > 10 * warm


def _mkdir(fs, dir_ino, name):
    return fs.mkdir(dir_ino, name, 0o755, 0, 0).ino


def _fill(fs, d, e, f):
    return fs.create(d, "fill", 0o644, 0, 0).ino


def _write_5k(fs, d, e, f):
    fs.write(f, 0, b"x" * 5000)


def _set_xattr(fs, d, e, f):
    fs.setxattr(f, "user.a", b"1")


def _nonempty_sub(fs, d, e, f):
    sub = _mkdir(fs, d, "sub")
    fs.create(sub, "x", 0o644, 0, 0)
    return sub


def _two_subs(fs, d, e, f):
    _mkdir(fs, d, "s1")
    return _mkdir(fs, d, "s2")


#: name -> (setup run before tracing or None, traced call).  Both take
#: ``(fs, d, e, f)``: the work directory, a second directory and the
#: inode of ``d/f1``; either may return the inode number whose mtime is
#: pinned (default ``f``).
_TRACE_OPS = {
    "create": (None, lambda fs, d, e, f: fs.create(d, "new", 0o644, 0, 0).ino),
    "create_new_block": (_fill, lambda fs, d, e, f:
                         fs.create(d, "new", 0o644, 0, 0).ino),
    "mkdir": (None, lambda fs, d, e, f: _mkdir(fs, d, "new")),
    "symlink": (None, lambda fs, d, e, f:
                fs.symlink(d, "new", "/t", 0, 0).ino),
    "link": (None, lambda fs, d, e, f: fs.link(d, "new", f).ino),
    "unlink_last": (None, lambda fs, d, e, f: fs.unlink(d, "f1")),
    "unlink_open": (lambda fs, d, e, f: fs.iget(f),
                    lambda fs, d, e, f: fs.unlink(d, "f1")),
    "rmdir": (lambda fs, d, e, f: _mkdir(fs, d, "sub"),
              lambda fs, d, e, f: fs.rmdir(d, "sub")),
    "rename_within": (None, lambda fs, d, e, f: fs.rename(d, "f1", d, "g")),
    "rename_across": (None, lambda fs, d, e, f: fs.rename(d, "f1", e, "g")),
    "rename_over_file": (None, lambda fs, d, e, f:
                         fs.rename(d, "f1", d, "f2")),
    "rename_over_empty_dir": (_two_subs, lambda fs, d, e, f:
                              fs.rename(d, "s1", d, "s2")),
    "setattr_mode": (None, lambda fs, d, e, f: fs.setattr(f, mode=0o600)),
    "setattr_truncate": (_write_5k, lambda fs, d, e, f:
                         fs.setattr(f, size=100)),
    "write": (None, _write_5k),
    "read": (_write_5k, lambda fs, d, e, f: fs.read(f, 0, 5000)),
    "lookup_hit": (None, lambda fs, d, e, f: fs.lookup(d, "f1")),
    "lookup_miss": (None, lambda fs, d, e, f: fs.lookup(d, "ghost")),
    "readdir": (None, lambda fs, d, e, f: list(fs.readdir(d))),
    "getattr": (None, lambda fs, d, e, f: fs.getattr(f)),
    "getxattr": (_set_xattr, lambda fs, d, e, f: fs.getxattr(f, "user.a")),
    "setxattr": (None, _set_xattr),
    "listxattr": (_set_xattr, lambda fs, d, e, f: fs.listxattr(f)),
    "removexattr": (_set_xattr, lambda fs, d, e, f:
                    fs.removexattr(f, "user.a")),
    "eexist": (None, lambda fs, d, e, f: fs.create(d, "f2", 0o644, 0, 0)),
    "enoent": (None, lambda fs, d, e, f: fs.unlink(d, "ghost")),
    "enotempty": (_nonempty_sub, lambda fs, d, e, f: fs.rmdir(d, "sub")),
}

#: Files in the work directory: 15 leave one free slot in one entry
#: block (linear search); 79 fill all but one slot of five blocks, past
#: ``HTREE_THRESHOLD_BLOCKS`` (hashed search).
_TRACE_SIZES = {"linear": 15, "htree": 79}


def _block_trace(op, size, monkeypatch):
    """Run ``op`` on a warm SimExt; return what it did to the block
    layer and the clock."""
    from repro.fs import simext

    # The htree leaf is picked by ``hash(name)``, which varies per
    # process for strings; pin it.
    monkeypatch.setattr(simext, "hash", lambda name: sum(name.encode()),
                        raising=False)
    costs = CostModel(dict(UNIT))
    fs = SimExtFs(costs)
    d = _mkdir(fs, fs.root_ino, "d")
    e = _mkdir(fs, fs.root_ino, "e")
    for i in range(_TRACE_SIZES[size]):
        fs.create(d, f"f{i}", 0o644, 0, 0)
    f = fs.lookup(d, "f1").ino
    setup, call = _TRACE_OPS[op]
    node = (setup(fs, d, e, f) if setup else None) or f
    accesses = []
    probe = fs.pagecache.probe

    def spy(block, for_write=False):
        accesses.append((block, for_write))
        return probe(block, for_write)

    fs.pagecache.probe = spy
    before = dict(costs.counts)
    try:
        result = call(fs, d, e, f)
        if isinstance(result, int):
            node = result
        outcome = "ok"
    except errors.FsError as exc:
        outcome = exc.errno
    fs.pagecache.probe = probe
    charged = {name: n - before.get(name, 0)
               for name, n in costs.counts.items()
               if n != before.get(name, 0)}

    def mtime(ino):
        try:
            return fs.peek(ino).mtime_ns
        except errors.ENOENT:
            return None

    usage = fs.statfs()
    return (outcome, accesses, charged, mtime(d), mtime(e), mtime(node),
            usage.used_blocks, usage.inode_count)


#: ``_block_trace`` per (operation, directory size): outcome, the
#: ``(block, for_write)`` accesses in order, the charges, the mtimes of
#: ``d``, ``e`` and the node, and statfs's used blocks and inodes.
_TRACE_PINS = {
    ("create", "htree"): (
        "ok", [(131075, False), (131078, False), (11, True), (1, True),
               (131079, True)],
        {"fs_create": 1, "fs_dirblock_scan": 2, "pagecache_hit": 5},
        737.0, 13.0, 736.0, 131079, 83),
    ("create", "linear"): (
        "ok", [(131075, False), (3, True), (1, True), (131075, True)],
        {"fs_create": 1, "fs_dirblock_scan": 1, "pagecache_hit": 4},
        117.0, 13.0, 116.0, 131075, 19),
    ("create_new_block", "htree"): (
        "ok", [(131075, False), (131078, False), (11, True), (131080, True),
               (1, True), (131080, True)],
        {"disk_seek": 1, "disk_seq_block": 1, "fs_create": 1,
         "fs_dirblock_scan": 2, "pagecache_hit": 5},
        747.0, 13.0, 744.0, 131080, 84),
    ("create_new_block", "linear"): (
        "ok", [(131075, False), (3, True), (131076, True), (1, True),
               (131076, True)],
        {"disk_seek": 1, "disk_seq_block": 1, "fs_create": 1,
         "fs_dirblock_scan": 1, "pagecache_hit": 4},
        125.0, 13.0, 122.0, 131076, 20),
    ("eexist", "htree"): (
        17, [(131075, False), (131076, False)],
        {"fs_create": 1, "fs_dirblock_scan": 2, "pagecache_hit": 2},
        722.0, 13.0, 26.0, 131079, 82),
    ("eexist", "linear"): (
        17, [(131075, False)],
        {"fs_create": 1, "fs_dirblock_scan": 1, "pagecache_hit": 1},
        106.0, 13.0, 26.0, 131075, 18),
    ("enoent", "htree"): (
        2, [],
        {"fs_unlink": 1},
        722.0, 13.0, 26.0, 131079, 82),
    ("enoent", "linear"): (
        2, [],
        {"fs_unlink": 1},
        106.0, 13.0, 26.0, 131075, 18),
    ("enotempty", "htree"): (
        39, [],
        {"fs_unlink": 1},
        737.0, 13.0, 745.0, 131080, 84),
    ("enotempty", "linear"): (
        39, [],
        {"fs_unlink": 1},
        117.0, 13.0, 125.0, 131076, 20),
    ("getattr", "htree"): (
        "ok", [(1, False)],
        {"pagecache_hit": 1},
        722.0, 13.0, 26.0, 131079, 82),
    ("getattr", "linear"): (
        "ok", [(1, False)],
        {"pagecache_hit": 1},
        106.0, 13.0, 26.0, 131075, 18),
    ("getxattr", "htree"): (
        "ok", [(1, False)],
        {"fs_xattr": 1, "pagecache_hit": 1},
        722.0, 13.0, 26.0, 131079, 82),
    ("getxattr", "linear"): (
        "ok", [(1, False)],
        {"fs_xattr": 1, "pagecache_hit": 1},
        106.0, 13.0, 26.0, 131075, 18),
    ("link", "htree"): (
        "ok", [(1, True), (131079, True), (1, True)],
        {"fs_create": 1, "pagecache_hit": 3},
        732.0, 13.0, 26.0, 131079, 82),
    ("link", "linear"): (
        "ok", [(1, True), (131075, True), (1, True)],
        {"fs_create": 1, "pagecache_hit": 3},
        114.0, 13.0, 26.0, 131075, 18),
    ("listxattr", "htree"): (
        "ok", [(1, False)],
        {"fs_xattr": 1, "pagecache_hit": 1},
        722.0, 13.0, 26.0, 131079, 82),
    ("listxattr", "linear"): (
        "ok", [(1, False)],
        {"fs_xattr": 1, "pagecache_hit": 1},
        106.0, 13.0, 26.0, 131075, 18),
    ("lookup_hit", "htree"): (
        "ok", [(1, False), (131075, False), (131079, False), (1, False)],
        {"fs_dirblock_scan": 2, "fs_lookup_base": 1, "pagecache_hit": 4},
        722.0, 13.0, 26.0, 131079, 82),
    ("lookup_hit", "linear"): (
        "ok", [(1, False), (131075, False), (1, False)],
        {"fs_dirblock_scan": 1, "fs_lookup_base": 1, "pagecache_hit": 3},
        106.0, 13.0, 26.0, 131075, 18),
    ("lookup_miss", "htree"): (
        "ok", [(1, False), (131075, False), (131077, False)],
        {"fs_dirblock_scan": 2, "fs_lookup_base": 1, "pagecache_hit": 3},
        722.0, 13.0, 26.0, 131079, 82),
    ("lookup_miss", "linear"): (
        "ok", [(1, False), (131075, False)],
        {"fs_dirblock_scan": 1, "fs_lookup_base": 1, "pagecache_hit": 2},
        106.0, 13.0, 26.0, 131075, 18),
    ("mkdir", "htree"): (
        "ok", [(131075, False), (131078, False), (11, True), (1, True),
               (131079, True)],
        {"fs_create": 1, "fs_dirblock_scan": 2, "pagecache_hit": 5},
        737.0, 13.0, 736.0, 131079, 83),
    ("mkdir", "linear"): (
        "ok", [(131075, False), (3, True), (1, True), (131075, True)],
        {"fs_create": 1, "fs_dirblock_scan": 1, "pagecache_hit": 4},
        117.0, 13.0, 116.0, 131075, 19),
    ("read", "htree"): (
        "ok", [(1, False), (131080, False), (131081, False)],
        {"pagecache_hit": 3, "read_write_base": 1},
        722.0, 13.0, 734.0, 131081, 82),
    ("read", "linear"): (
        "ok", [(1, False), (131076, False), (131077, False)],
        {"pagecache_hit": 3, "read_write_base": 1},
        106.0, 13.0, 116.0, 131077, 18),
    ("readdir", "htree"): (
        "ok", [(1, False), (131075, False), (131076, False), (131077, False),
               (131078, False), (131079, False)],
        {"fs_readdir_entry": 79, "pagecache_hit": 6},
        722.0, 13.0, 26.0, 131079, 82),
    ("readdir", "linear"): (
        "ok", [(1, False), (131075, False)],
        {"fs_readdir_entry": 15, "pagecache_hit": 2},
        106.0, 13.0, 26.0, 131075, 18),
    ("removexattr", "htree"): (
        "ok", [(1, True)],
        {"fs_xattr": 1, "pagecache_hit": 1},
        722.0, 13.0, 26.0, 131079, 82),
    ("removexattr", "linear"): (
        "ok", [(1, True)],
        {"fs_xattr": 1, "pagecache_hit": 1},
        106.0, 13.0, 26.0, 131075, 18),
    ("rename_across", "htree"): (
        "ok", [(131075, False), (131079, False), (1, True), (131080, True),
               (1, True)],
        {"disk_seek": 1, "disk_seq_block": 1, "fs_dirblock_scan": 2,
         "fs_rename": 1, "pagecache_hit": 4},
        736.0, 739.0, 26.0, 131080, 82),
    ("rename_across", "linear"): (
        "ok", [(131075, False), (1, True), (131076, True), (1, True)],
        {"disk_seek": 1, "disk_seq_block": 1, "fs_dirblock_scan": 1,
         "fs_rename": 1, "pagecache_hit": 3},
        116.0, 119.0, 26.0, 131076, 18),
    ("rename_over_empty_dir", "htree"): (
        "ok", [(131075, False), (131076, False), (1, True), (131075, False),
               (131080, False), (1, True), (1, True)],
        {"fs_dirblock_scan": 4, "fs_rename": 1, "fs_unlink": 1,
         "pagecache_hit": 7},
        761.0, 13.0, None, 131080, 83),
    ("rename_over_empty_dir", "linear"): (
        "ok", [(131075, False), (131076, False), (1, True), (131075, False),
               (131076, False), (1, True), (1, True)],
        {"fs_dirblock_scan": 4, "fs_rename": 1, "fs_unlink": 1,
         "pagecache_hit": 7},
        139.0, 13.0, None, 131076, 19),
    ("rename_over_file", "htree"): (
        "ok", [(131075, False), (131076, False), (1, True), (1, True),
               (131075, False), (131079, False), (1, True), (1, True)],
        {"fs_dirblock_scan": 4, "fs_rename": 1, "fs_unlink": 1,
         "pagecache_hit": 8},
        744.0, 13.0, 26.0, 131079, 81),
    ("rename_over_file", "linear"): (
        "ok", [(131075, False), (1, True), (1, True), (131075, False),
               (1, True), (1, True)],
        {"fs_dirblock_scan": 2, "fs_rename": 1, "fs_unlink": 1,
         "pagecache_hit": 6},
        122.0, 13.0, 26.0, 131075, 17),
    ("rename_within", "htree"): (
        "ok", [(131075, False), (131079, False), (1, True), (1, True)],
        {"fs_dirblock_scan": 2, "fs_rename": 1, "pagecache_hit": 4},
        737.0, 13.0, 26.0, 131079, 82),
    ("rename_within", "linear"): (
        "ok", [(131075, False), (1, True), (1, True)],
        {"fs_dirblock_scan": 1, "fs_rename": 1, "pagecache_hit": 3},
        117.0, 13.0, 26.0, 131075, 18),
    ("rmdir", "htree"): (
        "ok", [(131075, False), (131078, False), (1, True)],
        {"fs_dirblock_scan": 2, "fs_unlink": 1, "pagecache_hit": 3},
        744.0, 13.0, None, 131079, 82),
    ("rmdir", "linear"): (
        "ok", [(131075, False), (1, True)],
        {"fs_dirblock_scan": 1, "fs_unlink": 1, "pagecache_hit": 2},
        122.0, 13.0, None, 131075, 18),
    ("setattr_mode", "htree"): (
        "ok", [(1, True)],
        {"fs_setattr": 1, "pagecache_hit": 1},
        722.0, 13.0, 26.0, 131079, 82),
    ("setattr_mode", "linear"): (
        "ok", [(1, True)],
        {"fs_setattr": 1, "pagecache_hit": 1},
        106.0, 13.0, 26.0, 131075, 18),
    ("setattr_truncate", "htree"): (
        "ok", [(1, True)],
        {"fs_setattr": 1, "pagecache_hit": 1},
        722.0, 13.0, 5737.0, 131081, 82),
    ("setattr_truncate", "linear"): (
        "ok", [(1, True)],
        {"fs_setattr": 1, "pagecache_hit": 1},
        106.0, 13.0, 5119.0, 131077, 18),
    ("setxattr", "htree"): (
        "ok", [(1, True)],
        {"fs_xattr": 1, "pagecache_hit": 1},
        722.0, 13.0, 26.0, 131079, 82),
    ("setxattr", "linear"): (
        "ok", [(1, True)],
        {"fs_xattr": 1, "pagecache_hit": 1},
        106.0, 13.0, 26.0, 131075, 18),
    ("symlink", "htree"): (
        "ok", [(11, True), (1, True), (131079, True)],
        {"fs_create": 1, "pagecache_hit": 3},
        733.0, 13.0, 732.0, 131079, 83),
    ("symlink", "linear"): (
        "ok", [(3, True), (1, True), (131075, True)],
        {"fs_create": 1, "pagecache_hit": 3},
        115.0, 13.0, 114.0, 131075, 19),
    ("unlink_last", "htree"): (
        "ok", [(131075, False), (131079, False), (1, True), (1, True)],
        {"fs_dirblock_scan": 2, "fs_unlink": 1, "pagecache_hit": 4},
        736.0, 13.0, None, 131079, 81),
    ("unlink_last", "linear"): (
        "ok", [(131075, False), (1, True), (1, True)],
        {"fs_dirblock_scan": 1, "fs_unlink": 1, "pagecache_hit": 3},
        116.0, 13.0, None, 131075, 17),
    ("unlink_open", "htree"): (
        "ok", [(131075, False), (131079, False), (1, True), (1, True)],
        {"fs_dirblock_scan": 2, "fs_unlink": 1, "pagecache_hit": 4},
        736.0, 13.0, 26.0, 131079, 82),
    ("unlink_open", "linear"): (
        "ok", [(131075, False), (1, True), (1, True)],
        {"fs_dirblock_scan": 1, "fs_unlink": 1, "pagecache_hit": 3},
        116.0, 13.0, 26.0, 131075, 18),
    ("write", "htree"): (
        "ok", [(131080, True), (131081, True), (1, True)],
        {"disk_seek": 1, "disk_seq_block": 2, "pagecache_hit": 1,
         "read_write_base": 1},
        722.0, 13.0, 734.0, 131081, 82),
    ("write", "linear"): (
        "ok", [(131076, True), (131077, True), (1, True)],
        {"disk_seek": 1, "disk_seq_block": 2, "pagecache_hit": 1,
         "read_write_base": 1},
        106.0, 13.0, 116.0, 131077, 18),
}


class TestSimExtBlockTrace:
    """Every block SimExt touches, in order, per operation: the disk
    model's seeks and the page-cache LRU depend on that order, and so
    do the clock readings stamped into mtimes."""

    @pytest.mark.parametrize("size", sorted(_TRACE_SIZES))
    @pytest.mark.parametrize("op", sorted(_TRACE_OPS))
    def test_trace_is_pinned(self, op, size, monkeypatch):
        assert _block_trace(op, size, monkeypatch) == _TRACE_PINS[op, size]


class TestPseudoFs:
    def _make(self):
        costs = CostModel(dict(UNIT))
        fs = PseudoFs(costs)
        return fs

    def test_static_entries(self):
        fs = self._make()
        fs.add_static_file(fs.root_ino, "version", "6.0.0")
        info = fs.lookup(fs.root_ino, "version")
        assert info is not None
        assert fs.read(info.ino, 0, 10) == b"6.0.0"

    def test_provider_listing_changes(self):
        fs = self._make()
        pids = {"17": (base.S_IFDIR | 0o555, None)}
        fs.set_provider(fs.root_ino, lambda: dict(pids))
        assert fs.lookup(fs.root_ino, "17") is not None
        assert fs.lookup(fs.root_ino, "99") is None
        pids["99"] = (base.S_IFDIR | 0o555, None)
        assert fs.lookup(fs.root_ino, "99") is not None

    def test_stable_inode_identity(self):
        fs = self._make()
        fs.add_static_file(fs.root_ino, "stat", "cpu 1 2 3")
        first = fs.lookup(fs.root_ino, "stat").ino
        second = fs.lookup(fs.root_ino, "stat").ino
        assert first == second

    def test_readonly(self):
        fs = self._make()
        with pytest.raises(errors.EPERM):
            fs.create(fs.root_ino, "nope", 0o644, 0, 0)
        with pytest.raises(errors.EPERM):
            fs.unlink(fs.root_ino, "nope")

    def test_no_baseline_negative_dentries_flag(self):
        assert PseudoFs(CostModel(dict(UNIT))).baseline_negative_dentries \
            is False

    def test_nested_static_dirs(self):
        fs = self._make()
        sys_ino = fs.add_static_dir(fs.root_ino, "sys")
        fs.add_static_file(sys_ino, "hostname", "node1")
        info = fs.lookup(sys_ino, "hostname")
        assert info is not None
        names = {name for name, _i, _t in fs.readdir(sys_ino)}
        assert names == {"hostname"}
