"""Unit tests for dentries, inodes, and the baseline dcache structures."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.base import DT_DIR, DT_LNK, DT_REG, S_IFDIR
from repro.fs.tmpfs import TmpFs
from repro.sim.costs import CostModel, UNIT
from repro.sim.stats import Stats
from repro.vfs.dcache import Dcache
from repro.vfs.dentry import NEG_ENOENT, NEG_ENOTDIR, Dentry


@pytest.fixture
def env():
    costs = CostModel(dict(UNIT))
    stats = Stats()
    fs = TmpFs(costs)
    dcache = Dcache(costs, stats, capacity=100)
    return costs, stats, fs, dcache


def _positive_child(dcache, fs, parent, name):
    info = fs.create(fs.root_ino, name, 0o644, 0, 0)
    inode = dcache.inode_table(fs).obtain(info)
    return dcache.d_alloc(parent, name, inode)


class TestRootDentry:
    def test_root_pinned_and_cached(self, env):
        _costs, _stats, fs, dcache = env
        root = dcache.root_dentry(fs)
        assert root.pin_count == 1
        assert root.parent is None
        assert dcache.root_dentry(fs) is root

    def test_root_path(self, env):
        _c, _s, fs, dcache = env
        assert dcache.root_dentry(fs).path_from_root() == "/"


class TestHashTable:
    def test_alloc_then_lookup(self, env):
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        child = _positive_child(dcache, fs, root, "a")
        assert dcache.d_lookup(root, "a") is child

    def test_lookup_miss(self, env):
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        assert dcache.d_lookup(root, "nope") is None

    def test_same_name_different_parent(self, env):
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        info = fs.mkdir(fs.root_ino, "d", 0o755, 0, 0)
        d = dcache.d_alloc(root, "d", dcache.inode_table(fs).obtain(info))
        inner_info = fs.create(info.ino, "x", 0o644, 0, 0)
        inner = dcache.d_alloc(d, "x",
                               dcache.inode_table(fs).obtain(inner_info))
        outer_info = fs.create(fs.root_ino, "x", 0o644, 0, 0)
        outer = dcache.d_alloc(root, "x",
                               dcache.inode_table(fs).obtain(outer_info))
        assert dcache.d_lookup(d, "x") is inner
        assert dcache.d_lookup(root, "x") is outer

    def test_double_alloc_rejected(self, env):
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        _positive_child(dcache, fs, root, "a")
        with pytest.raises(RuntimeError):
            dcache.d_alloc(root, "a", None)

    def test_negative_alloc(self, env):
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        neg = dcache.d_alloc(root, "ghost", None)
        assert neg.is_negative
        assert neg.neg_kind == NEG_ENOENT

    def test_charges_probe_costs(self, env):
        costs, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        before = costs.count("ht_probe")
        dcache.d_lookup(root, "a")
        assert costs.count("ht_probe") == before + 1


class TestNegativityTransitions:
    def test_make_negative(self, env):
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        child = _positive_child(dcache, fs, root, "a")
        dcache.make_negative(child)
        assert child.is_negative and child.inode is None

    def test_make_positive_reuses_dentry(self, env):
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        neg = dcache.d_alloc(root, "f", None)
        info = fs.create(fs.root_ino, "f", 0o644, 0, 0)
        dcache.make_positive(neg, dcache.inode_table(fs).obtain(info))
        assert not neg.is_negative
        assert dcache.d_lookup(root, "f") is neg

    def test_stub_alloc_and_kind(self, env):
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        stub = dcache.d_alloc_stubs(root, (("s", 42, "reg"),))
        assert stub.is_stub and not stub.is_negative
        assert stub.stub == (42, "reg")

    def test_stub_kind_derived_once(self, env, monkeypatch):
        """A readdir stub is built with its ``(ino, dtype)``, so its kind
        is derived once; setting the stub after construction derived it
        twice."""
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        derived = []
        real = Dentry.derive_kind

        def counted(self):
            derived.append(self.name)
            return real(self)
        monkeypatch.setattr(Dentry, "derive_kind", counted)
        entries = [(f"s{i}", 40 + i, DT_DIR if i % 2 else DT_REG)
                   for i in range(5)]
        dcache.d_alloc_stubs(root, entries)
        assert derived == [name for name, _ino, _dtype in entries]
        assert [root.children[name].is_dir for name, _i, _t in entries] \
            == [dtype == DT_DIR for _n, _i, dtype in entries]

    def test_enotdir_kind(self, env):
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        neg = dcache.d_alloc(root, "f", None)
        neg.neg_kind = NEG_ENOTDIR
        assert neg.is_negative and neg.neg_kind == NEG_ENOTDIR


class TestMove:
    def test_move_rehashes(self, env):
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        info = fs.mkdir(fs.root_ino, "d", 0o755, 0, 0)
        d = dcache.d_alloc(root, "d", dcache.inode_table(fs).obtain(info))
        child = _positive_child(dcache, fs, root, "f")
        dcache.d_move(child, d, "g")
        assert dcache.d_lookup(root, "f") is None
        assert dcache.d_lookup(d, "g") is child
        assert child.parent is d and child.name == "g"

    def test_move_over_existing_drops_victim(self, env):
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        a = _positive_child(dcache, fs, root, "a")
        b = _positive_child(dcache, fs, root, "b")
        dcache.d_move(a, root, "b")
        assert b.dead
        assert dcache.d_lookup(root, "b") is a

    def test_children_follow_moved_dir(self, env):
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        dinfo = fs.mkdir(fs.root_ino, "d", 0o755, 0, 0)
        d = dcache.d_alloc(root, "d", dcache.inode_table(fs).obtain(dinfo))
        finfo = fs.create(dinfo.ino, "f", 0o644, 0, 0)
        f = dcache.d_alloc(d, "f", dcache.inode_table(fs).obtain(finfo))
        dcache.d_move(d, root, "e")
        assert dcache.d_lookup(d, "f") is f
        assert f.path_from_root() == "/e/f"


class TestEviction:
    def test_lru_shrink_keeps_capacity(self, env):
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        for i in range(150):
            info = fs.create(fs.root_ino, f"f{i}", 0o644, 0, 0)
            dcache.d_alloc(root, f"f{i}",
                           dcache.inode_table(fs).obtain(info))
        assert len(dcache) <= 100

    def test_pinned_never_evicted(self, env):
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        pinned = _positive_child(dcache, fs, root, "keep")
        pinned.pin()
        for i in range(150):
            info = fs.create(fs.root_ino, f"f{i}", 0o644, 0, 0)
            dcache.d_alloc(root, f"f{i}",
                           dcache.inode_table(fs).obtain(info))
        assert not pinned.dead
        assert dcache.d_lookup(root, "keep") is pinned

    def test_parents_kept_while_children_cached(self, env):
        """The parent-in-cache invariant: evict bottom-up only."""
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        dinfo = fs.mkdir(fs.root_ino, "d", 0o755, 0, 0)
        d = dcache.d_alloc(root, "d", dcache.inode_table(fs).obtain(dinfo))
        finfo = fs.create(dinfo.ino, "f", 0o644, 0, 0)
        f = dcache.d_alloc(d, "f", dcache.inode_table(fs).obtain(finfo))
        f.pin()  # keep the leaf; the parent must then survive too
        for i in range(200):
            info = fs.create(fs.root_ino, f"x{i}", 0o644, 0, 0)
            dcache.d_alloc(root, f"x{i}",
                           dcache.inode_table(fs).obtain(info))
        assert not d.dead and not f.dead

    def test_eviction_breaks_completeness(self, env):
        _c, stats, fs, dcache = env
        root = dcache.root_dentry(fs)
        dinfo = fs.mkdir(fs.root_ino, "d", 0o755, 0, 0)
        d = dcache.d_alloc(root, "d", dcache.inode_table(fs).obtain(dinfo))
        d.dir_complete = True
        finfo = fs.create(dinfo.ino, "f", 0o644, 0, 0)
        f = dcache.d_alloc(d, "f", dcache.inode_table(fs).obtain(finfo))
        dcache.evict(f)
        assert d.dir_complete is False
        assert d.child_evictions == 1
        assert stats.get("dir_complete_broken") == 1

    def test_evicted_dentry_seq_bumped(self, env):
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        child = _positive_child(dcache, fs, root, "a")
        seq = child.seq
        dcache.evict(child)
        assert child.dead and child.seq == seq + 1

    def test_drop_all(self, env):
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        for i in range(20):
            info = fs.create(fs.root_ino, f"f{i}", 0o644, 0, 0)
            dcache.d_alloc(root, f"f{i}",
                           dcache.inode_table(fs).obtain(info))
        dcache.drop_all()
        assert len(root.children) == 0


class TestDentryTreeHelpers:
    def test_ancestors_and_descendants(self, env):
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        dinfo = fs.mkdir(fs.root_ino, "a", 0o755, 0, 0)
        a = dcache.d_alloc(root, "a", dcache.inode_table(fs).obtain(dinfo))
        binfo = fs.mkdir(dinfo.ino, "b", 0o755, 0, 0)
        b = dcache.d_alloc(a, "b", dcache.inode_table(fs).obtain(binfo))
        assert list(b.ancestors()) == [a, root]
        assert set(root.descendants()) == {a, b}
        assert a.is_ancestor_of(b)
        assert not b.is_ancestor_of(a)

    def test_path_from_root(self, env):
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        a = _positive_child(dcache, fs, root, "a")
        assert a.path_from_root() == "/a"

    def test_unbalanced_unpin_rejected(self, env):
        _c, _s, fs, dcache = env
        root = dcache.root_dentry(fs)
        child = _positive_child(dcache, fs, root, "a")
        with pytest.raises(RuntimeError):
            child.unpin()


class TestInodeTable:
    def test_identity_per_ino(self, env):
        _c, _s, fs, dcache = env
        table = dcache.inode_table(fs)
        info = fs.create(fs.root_ino, "f", 0o644, 0, 0)
        first = table.obtain(info)
        second = table.obtain(fs.lookup(fs.root_ino, "f"))
        assert first is second

    def test_obtain_refreshes_nlink(self, env):
        _c, _s, fs, dcache = env
        table = dcache.inode_table(fs)
        info = fs.create(fs.root_ino, "f", 0o644, 0, 0)
        inode = table.obtain(info)
        fs.link(fs.root_ino, "g", info.ino)
        table.obtain(fs.lookup(fs.root_ino, "g"))
        assert inode.nlink == 2

    def test_apply_bumps_seq(self, env):
        _c, _s, fs, dcache = env
        table = dcache.inode_table(fs)
        info = fs.create(fs.root_ino, "f", 0o644, 0, 0)
        inode = table.obtain(info)
        seq = inode.seq
        inode.apply(fs.setattr(info.ino, mode=0o600))
        assert inode.seq == seq + 1 and inode.perm_bits == 0o600

    def test_apply_refuses_a_type_change(self, env):
        """Positive dentries cache their inode's type, so it is fixed."""
        _c, _s, fs, dcache = env
        info = fs.create(fs.root_ino, "f", 0o644, 0, 0)
        inode = dcache.inode_table(fs).obtain(info)
        with pytest.raises(RuntimeError):
            inode.apply(dataclasses.replace(info, mode=S_IFDIR | 0o755))
        assert inode.filetype == DT_REG and not inode.is_dir
        assert inode.mode == info.mode and inode.seq == 0


def _expected_kind(dentry):
    """The kind fields, derived from scratch."""
    inode, stub, target = dentry.inode, dentry.stub, dentry.alias_target
    return (inode is None and stub is None and target is None,
            inode is None and stub is not None,
            target is not None,
            inode.is_dir if inode is not None
            else stub is not None and stub[1] == DT_DIR,
            inode is not None and inode.is_symlink)


_NAMES = st.sampled_from("abc")
_KINDS = st.sampled_from((None, DT_DIR, DT_REG, DT_LNK))
_KIND_OPS = st.lists(st.one_of(
    st.tuples(st.just("alloc"), _NAMES, _KINDS),
    st.tuples(st.just("stub"), _NAMES, st.sampled_from((DT_DIR, DT_REG))),
    st.tuples(st.just("alias"), _NAMES, _NAMES),
    st.tuples(st.just("negative"), _NAMES),
    st.tuples(st.just("positive"), _NAMES, _KINDS.filter(bool)),
), max_size=25)


class TestKindFields:
    @settings(max_examples=150, deadline=None)
    @given(ops=_KIND_OPS)
    def test_fields_follow_every_transition(self, ops):
        """Each dcache operation that assigns ``inode`` / ``stub`` /
        ``alias_target`` leaves the five kind fields derived from them."""
        costs = CostModel(dict(UNIT))
        fs = TmpFs(costs)
        dcache = Dcache(costs, Stats(), capacity=100)
        root = dcache.root_dentry(fs)
        table = dcache.inode_table(fs)
        inodes = {
            DT_DIR: table.obtain(fs.mkdir(fs.root_ino, "d", 0o755, 0, 0)),
            DT_REG: table.obtain(fs.create(fs.root_ino, "f", 0o644, 0, 0)),
            DT_LNK: table.obtain(fs.symlink(fs.root_ino, "l", "f", 0, 0)),
        }
        for op, name, *args in ops:
            child = root.children.get(name)
            if op == "alloc" and child is None:
                dcache.d_alloc(root, name, inodes.get(args[0]))
            elif op == "stub" and child is None:
                dcache.d_alloc_stubs(root, ((name, 7, args[0]),))
            elif op == "alias" and child is None:
                dcache.d_alloc_alias(root, name, root.children.get(args[0])
                                     or root)
            elif op == "negative" and child is not None:
                dcache.make_negative(child)
            elif op == "positive" and child is not None:
                dcache.make_positive(child, inodes[args[0]])
            for dentry in (root, *root.descendants()):
                assert (dentry.is_negative, dentry.is_stub, dentry.is_alias,
                        dentry.is_dir, dentry.is_symlink) \
                    == _expected_kind(dentry) == dentry.derive_kind(), \
                    (op, dentry)
