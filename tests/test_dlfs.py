"""Unit tests for the DLFS-like path-keyed file system (§7)."""

from __future__ import annotations

import inspect

import pytest

from repro import O_CREAT, O_RDWR, errors, make_kernel
from repro.fs import dlfs
from repro.fs.base import NodeInfo
from repro.fs.dlfs import KEYED_IO_NS, REKEY_NS, DlfsLikeFs
from repro.fs.tmpfs import TmpFs
from repro.sim.costs import CostModel, UNIT


@pytest.fixture
def fs():
    return DlfsLikeFs(CostModel(dict(UNIT)))


class TestDlfsBasics:
    def test_create_lookup(self, fs):
        fs.create(fs.root_ino, "f", 0o644, 1, 2)
        info = fs.lookup(fs.root_ino, "f")
        assert info is not None and info.uid == 1

    def test_lookup_missing(self, fs):
        assert fs.lookup(fs.root_ino, "ghost") is None

    def test_nested_dirs(self, fs):
        a = fs.mkdir(fs.root_ino, "a", 0o755, 0, 0)
        b = fs.mkdir(a.ino, "b", 0o755, 0, 0)
        fs.create(b.ino, "f", 0o644, 0, 0)
        assert fs.lookup(b.ino, "f") is not None

    def test_readdir(self, fs):
        fs.create(fs.root_ino, "x", 0o644, 0, 0)
        d = fs.mkdir(fs.root_ino, "d", 0o755, 0, 0)
        fs.create(d.ino, "inner", 0o644, 0, 0)
        names = {name for name, _i, _t in fs.readdir(fs.root_ino)}
        assert names == {"x", "d"}  # inner not listed at the root

    def test_write_read(self, fs):
        info = fs.create(fs.root_ino, "f", 0o644, 0, 0)
        fs.write(info.ino, 0, b"payload")
        assert fs.read(info.ino, 0, 100) == b"payload"

    def test_unlink(self, fs):
        fs.create(fs.root_ino, "f", 0o644, 0, 0)
        fs.unlink(fs.root_ino, "f")
        assert fs.lookup(fs.root_ino, "f") is None

    def test_rmdir_nonempty(self, fs):
        d = fs.mkdir(fs.root_ino, "d", 0o755, 0, 0)
        fs.create(d.ino, "f", 0o644, 0, 0)
        with pytest.raises(errors.ENOTEMPTY):
            fs.rmdir(fs.root_ino, "d")

    def test_no_hard_links(self, fs):
        info = fs.create(fs.root_ino, "f", 0o644, 0, 0)
        with pytest.raises(errors.ENOTSUP):
            fs.link(fs.root_ino, "g", info.ino)


class TestDlfsRename:
    def test_rename_rekeys_descendants(self, fs):
        a = fs.mkdir(fs.root_ino, "a", 0o755, 0, 0)
        b = fs.mkdir(a.ino, "b", 0o755, 0, 0)
        fs.create(b.ino, "f1", 0o644, 0, 0)
        fs.create(b.ino, "f2", 0o644, 0, 0)
        fs.rename(fs.root_ino, "a", fs.root_ino, "z")
        # a + b + f1 + f2 all re-keyed.
        assert fs.rekey_count == 4
        z = fs.lookup(fs.root_ino, "z")
        zb = fs.lookup(z.ino, "b")
        assert fs.lookup(zb.ino, "f1") is not None
        assert fs.lookup(fs.root_ino, "a") is None

    def test_inode_identity_survives_rename(self, fs):
        info = fs.create(fs.root_ino, "f", 0o644, 0, 0)
        fs.rename(fs.root_ino, "f", fs.root_ino, "g")
        assert fs.lookup(fs.root_ino, "g").ino == info.ino
        assert fs.getattr(info.ino).ino == info.ino

    def test_rename_charges_per_object(self, fs):
        d = fs.mkdir(fs.root_ino, "d", 0o755, 0, 0)
        for i in range(10):
            fs.create(d.ino, f"f{i}", 0o644, 0, 0)
        before = fs.costs.now_ns
        fs.rename(fs.root_ino, "d", fs.root_ino, "e")
        elapsed = fs.costs.now_ns - before
        assert elapsed > 11 * 20_000  # 11 objects x ~24 us re-key


class TestDlfsUnderVfs:
    def test_full_kernel_stack(self):
        costs = CostModel()
        kernel = make_kernel("baseline", root_fs=DlfsLikeFs(costs),
                             costs=costs)
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/docs")
        fd = sys.open(task, "/docs/readme", O_CREAT | O_RDWR)
        sys.write(task, fd, b"hello dlfs")
        sys.close(task, fd)
        assert sys.stat(task, "/docs/readme").size == 10
        sys.rename(task, "/docs", "/papers")
        assert sys.stat(task, "/papers/readme").size == 10
        with pytest.raises(errors.ENOENT):
            sys.stat(task, "/docs/readme")

    def test_dual_equivalence_on_dlfs(self):
        from repro.core.kernel import BASELINE, OPTIMIZED
        from repro.testing import DualKernel

        dual = DualKernel((BASELINE, OPTIMIZED),
                          fs_factory=lambda costs: DlfsLikeFs(costs))
        root = dual.spawn_task(uid=0, gid=0)
        dual.mkdir(root, "/a")
        fd = dual.open(root, "/a/f", O_CREAT | O_RDWR)
        dual.close(root, fd)
        dual.stat(root, "/a/f")
        dual.stat(root, "/a/f")
        dual.rename(root, "/a", "/b")
        with pytest.raises(errors.ENOENT):
            dual.stat(root, "/a/f")
        assert dual.stat(root, "/b/f").filetype == "reg"
        dual.check_invariants()


def _fixture():
    """A fresh DLFS on UNIT costs: /d/{f,g,sub/x} and an empty /e."""
    fs = DlfsLikeFs(CostModel(dict(UNIT)))
    r = fs.root_ino
    d = fs.mkdir(r, "d", 0o755, 0, 0).ino
    e = fs.mkdir(r, "e", 0o700, 1, 1).ino
    f = fs.create(d, "f", 0o644, 1, 2).ino
    fs.write(f, 0, b"hello")
    fs.create(d, "g", 0o600, 0, 0)
    sub = fs.mkdir(d, "sub", 0o755, 0, 0).ino
    fs.create(sub, "x", 0o644, 0, 0)
    return fs, r, d, e, f


def _tree(fs, ino=1, path=""):
    """(path, ino, mode, nlink, file size) of every object below ``ino``."""
    out = []
    for name, child, _dtype in sorted(fs.readdir(ino)):
        info = fs.getattr(child)
        out.append((path + "/" + name, child, oct(info.mode), info.nlink,
                    None if info.is_dir else info.size))
        if info.is_dir:
            out.extend(_tree(fs, child, path + "/" + name))
    return out


#: name -> the call, on ``(fs, root, d, e, f)`` of a fresh ``_fixture``.
_OPS = {
    "create": lambda fs, r, d, e, f: fs.create(d, "new", 0o640, 3, 4),
    "create_eexist": lambda fs, r, d, e, f: fs.create(d, "f", 0o640, 3, 4),
    "mkdir": lambda fs, r, d, e, f: fs.mkdir(d, "nd", 0o750, 3, 4),
    "mkdir_eexist": lambda fs, r, d, e, f: fs.mkdir(d, "sub", 0o750, 3, 4),
    "symlink": lambda fs, r, d, e, f: fs.symlink(d, "ln", "/t/u", 3, 4),
    "symlink_eexist": lambda fs, r, d, e, f: fs.symlink(d, "g", "/t", 3, 4),
    "lookup_hit": lambda fs, r, d, e, f: fs.lookup(d, "f"),
    "lookup_miss": lambda fs, r, d, e, f: fs.lookup(d, "ghost"),
    "lookup_enotdir": lambda fs, r, d, e, f: fs.lookup(f, "x"),
    "readdir": lambda fs, r, d, e, f: list(fs.readdir(d)),
    "read": lambda fs, r, d, e, f: fs.read(f, 1, 100),
    "write": lambda fs, r, d, e, f: fs.write(f, 3, b"LOWORLD"),
    "write_eisdir": lambda fs, r, d, e, f: fs.write(d, 0, b"x"),
    "setattr": lambda fs, r, d, e, f: fs.setattr(f, mode=0o600, uid=7,
                                                  size=3),
    "link_enotsup": lambda fs, r, d, e, f: fs.link(e, "h", f),
    "unlink": lambda fs, r, d, e, f: fs.unlink(d, "f"),
    "unlink_enoent": lambda fs, r, d, e, f: fs.unlink(d, "ghost"),
    "unlink_eisdir": lambda fs, r, d, e, f: fs.unlink(d, "sub"),
    "rmdir": lambda fs, r, d, e, f: fs.rmdir(r, "e"),
    "rmdir_enoent": lambda fs, r, d, e, f: fs.rmdir(r, "ghost"),
    "rmdir_enotdir": lambda fs, r, d, e, f: fs.rmdir(d, "f"),
    "rmdir_enotempty": lambda fs, r, d, e, f: fs.rmdir(d, "sub"),
    "rename_file": lambda fs, r, d, e, f: fs.rename(d, "f", e, "f2"),
    "rename_dir": lambda fs, r, d, e, f: fs.rename(r, "d", e, "z"),
    "rename_over_file": lambda fs, r, d, e, f: fs.rename(d, "f", d, "g"),
    "rename_over_empty_dir": lambda fs, r, d, e, f: fs.rename(d, "sub", r,
                                                              "e"),
    "rename_enoent": lambda fs, r, d, e, f: fs.rename(d, "ghost", d, "h"),
}


def _run(op):
    """Run ``op`` on a fresh fixture: its result (a NodeInfo as a tuple
    without mtime, or the error's name), clock delta, charge counts,
    keyed I/Os, re-keys, and the tree entries it removed and added."""
    fs, r, d, e, f = _fixture()
    costs = fs.costs
    before = _tree(fs)
    t0, c0, p0 = costs.now_ns, dict(costs.counts), costs.by_primitive
    try:
        result = _OPS[op](fs, r, d, e, f)
        if isinstance(result, NodeInfo):
            result = (result.ino, result.mode, result.uid, result.gid,
                      result.nlink, result.size, result.symlink_target)
    except errors.FsError as exc:
        result = type(exc).__name__
    elapsed = costs.now_ns - t0
    p1 = costs.by_primitive
    counts = {k: v - c0.get(k, 0) for k, v in costs.counts.items()
              if v != c0.get(k, 0)}
    io = (p1.get("dlfs_io", 0) - p0.get("dlfs_io", 0)) / KEYED_IO_NS
    rekey = (p1.get("dlfs_rekey", 0) - p0.get("dlfs_rekey", 0)) / REKEY_NS
    after = _tree(fs)
    return (result, elapsed, counts, io, rekey,
            sorted(set(before) - set(after)), sorted(set(after) - set(before)))


#: ``_run`` per op.  Taken from the path-keyed implementation this class
#: replaced (its own dict of full paths and its own copy of the
#: directory rules): the change must not move a charge or a result.
_PINS = {
    'create': ((8, 33184, 3, 4, 1, 0, None),
               9001.0,
               {'fs_create': 1},
               1.0,
               0.0,
               [],
               [('/d/new', 8, '0o100640', 1, 0)]),
    'create_eexist': ('EEXIST', 1.0, {'fs_create': 1}, 0.0, 0.0, [], []),
    'mkdir': ((8, 16872, 3, 4, 2, 0, None),
              9001.0,
              {'fs_create': 1},
              1.0,
              0.0,
              [('/d', 2, '0o40755', 3, None)],
              [('/d', 2, '0o40755', 4, None),
               ('/d/nd', 8, '0o40750', 2, None)]),
    'mkdir_eexist': ('EEXIST', 1.0, {'fs_create': 1}, 0.0, 0.0, [], []),
    'symlink': ((8, 41471, 3, 4, 1, 4, '/t/u'),
                9001.0,
                {'fs_create': 1},
                1.0,
                0.0,
                [],
                [('/d/ln', 8, '0o120777', 1, 4)]),
    'symlink_eexist': ('EEXIST', 1.0, {'fs_create': 1}, 0.0, 0.0, [], []),
    'lookup_hit': ((4, 33188, 1, 2, 1, 5, None),
                   9001.0,
                   {'fs_lookup_base': 1},
                   1.0,
                   0.0,
                   [],
                   []),
    'lookup_miss': (None, 9001.0, {'fs_lookup_base': 1}, 1.0, 0.0, [], []),
    'lookup_enotdir': ('ENOTDIR',
                       9001.0,
                       {'fs_lookup_base': 1},
                       1.0,
                       0.0,
                       [],
                       []),
    'readdir': ([('f', 4, 'reg'), ('g', 5, 'reg'), ('sub', 6, 'dir')],
                3.0,
                {'fs_readdir_entry': 3},
                0.0,
                0.0,
                [],
                []),
    'read': (b'ello', 9005.0, {'read_write_base': 1}, 1.0, 0.0, [], []),
    'write': (7,
              9008.0,
              {'read_write_base': 1},
              1.0,
              0.0,
              [('/d/f', 4, '0o100644', 1, 5)],
              [('/d/f', 4, '0o100644', 1, 10)]),
    'write_eisdir': ('EISDIR', 9000.0, {}, 1.0, 0.0, [], []),
    'setattr': ((4, 33152, 7, 2, 1, 3, None),
                9001.0,
                {'fs_setattr': 1},
                1.0,
                0.0,
                [('/d/f', 4, '0o100644', 1, 5)],
                [('/d/f', 4, '0o100600', 1, 3)]),
    'link_enotsup': ('ENOTSUP', 0.0, {}, 0.0, 0.0, [], []),
    'unlink': (None,
               9001.0,
               {'fs_unlink': 1},
               1.0,
               0.0,
               [('/d/f', 4, '0o100644', 1, 5)],
               []),
    'unlink_enoent': ('ENOENT', 1.0, {'fs_unlink': 1}, 0.0, 0.0, [], []),
    'unlink_eisdir': ('EISDIR', 1.0, {'fs_unlink': 1}, 0.0, 0.0, [], []),
    'rmdir': (None,
              9001.0,
              {'fs_unlink': 1},
              1.0,
              0.0,
              [('/e', 3, '0o40700', 2, None)],
              []),
    'rmdir_enoent': ('ENOENT', 1.0, {'fs_unlink': 1}, 0.0, 0.0, [], []),
    'rmdir_enotdir': ('ENOTDIR', 1.0, {'fs_unlink': 1}, 0.0, 0.0, [], []),
    'rmdir_enotempty': ('ENOTEMPTY', 1.0, {'fs_unlink': 1}, 0.0, 0.0, [], []),
    'rename_file': (None,
                    24001.0,
                    {'fs_rename': 1},
                    0.0,
                    1.0,
                    [('/d/f', 4, '0o100644', 1, 5)],
                    [('/e/f2', 4, '0o100644', 1, 5)]),
    'rename_dir': (None,
                   120001.0,
                   {'fs_rename': 1},
                   0.0,
                   5.0,
                   [('/d', 2, '0o40755', 3, None),
                    ('/d/f', 4, '0o100644', 1, 5),
                    ('/d/g', 5, '0o100600', 1, 0),
                    ('/d/sub', 6, '0o40755', 2, None),
                    ('/d/sub/x', 7, '0o100644', 1, 0),
                    ('/e', 3, '0o40700', 2, None)],
                   [('/e', 3, '0o40700', 3, None),
                    ('/e/z', 2, '0o40755', 3, None),
                    ('/e/z/f', 4, '0o100644', 1, 5),
                    ('/e/z/g', 5, '0o100600', 1, 0),
                    ('/e/z/sub', 6, '0o40755', 2, None),
                    ('/e/z/sub/x', 7, '0o100644', 1, 0)]),
    'rename_over_file': (None,
                         33002.0,
                         {'fs_rename': 1, 'fs_unlink': 1},
                         1.0,
                         1.0,
                         [('/d/f', 4, '0o100644', 1, 5),
                          ('/d/g', 5, '0o100600', 1, 0)],
                         [('/d/g', 4, '0o100644', 1, 5)]),
    'rename_over_empty_dir': (None,
                              57002.0,
                              {'fs_rename': 1, 'fs_unlink': 1},
                              1.0,
                              2.0,
                              [('/d', 2, '0o40755', 3, None),
                               ('/d/sub', 6, '0o40755', 2, None),
                               ('/d/sub/x', 7, '0o100644', 1, 0),
                               ('/e', 3, '0o40700', 2, None)],
                              [('/d', 2, '0o40755', 2, None),
                               ('/e', 6, '0o40755', 2, None),
                               ('/e/x', 7, '0o100644', 1, 0)]),
    'rename_enoent': ('ENOENT', 1.0, {'fs_rename': 1}, 0.0, 0.0, [], []),
}


class TestDlfsPerOpPinned:
    @pytest.mark.parametrize("op", sorted(_OPS))
    def test_op_is_pinned(self, op):
        assert _run(op) == _PINS[op]

    def test_is_tmpfs_plus_costs(self):
        """DLFS keeps TmpFs's inode table and directory rules: no
        path-keyed dict and no directory-rule error of its own."""
        fs = DlfsLikeFs(CostModel(dict(UNIT)))
        assert isinstance(fs, TmpFs)
        assert not [name for name, value in vars(fs).items()
                    if isinstance(value, dict) and name != "_nodes"]
        source = inspect.getsource(dlfs)
        for rule in ("EEXIST", "ENOENT", "ENOTDIR", "EISDIR", "ENOTEMPTY"):
            assert rule not in source
