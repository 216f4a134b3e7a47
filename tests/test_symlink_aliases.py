"""Directed tests for symlink alias dentries (§4.2 internals)."""

from __future__ import annotations

import pytest

from repro import O_CREAT, O_RDWR, errors, make_kernel


@pytest.fixture
def kernel():
    return make_kernel("optimized")


@pytest.fixture
def task(kernel):
    return kernel.spawn_task(uid=0, gid=0)


def _mkfile(kernel, task, path, content=b""):
    fd = kernel.sys.open(task, path, O_CREAT | O_RDWR)
    if content:
        kernel.sys.write(task, fd, content)
    kernel.sys.close(task, fd)


def _dentry(kernel, *names):
    node = kernel.dcache.root_dentry(kernel.root_fs)
    for name in names:
        node = node.children[name]
    return node


class TestAliasCreation:
    def test_alias_child_under_link(self, kernel, task):
        kernel.sys.mkdir(task, "/real")
        _mkfile(kernel, task, "/real/f", b"x")
        kernel.sys.symlink(task, "/real", "/ln")
        kernel.sys.stat(task, "/ln/f")
        link = _dentry(kernel, "ln")
        alias = link.children.get("f")
        assert alias is not None and alias.is_alias
        assert alias.alias_target is _dentry(kernel, "real", "f")

    def test_alias_chain_two_deep(self, kernel, task):
        kernel.sys.mkdir(task, "/real")
        kernel.sys.mkdir(task, "/real/sub")
        _mkfile(kernel, task, "/real/sub/f", b"xy")
        kernel.sys.symlink(task, "/real", "/ln")
        assert kernel.sys.stat(task, "/ln/sub/f").size == 2
        link = _dentry(kernel, "ln")
        alias_sub = link.children["sub"]
        alias_f = alias_sub.children["f"]
        assert alias_sub.is_alias and alias_f.is_alias
        assert alias_f.alias_target is _dentry(kernel, "real", "sub", "f")
        # And the whole chain serves fastpath hits.
        kernel.stats.reset()
        kernel.sys.stat(task, "/ln/sub/f")
        assert kernel.stats.get("fastpath_hit") == 1

    def test_alias_fastpath_checks_both_pccs(self, kernel, task):
        """A fastpath alias hit probes the alias AND the target (§4.2)."""
        kernel.sys.mkdir(task, "/real")
        _mkfile(kernel, task, "/real/f")
        kernel.sys.symlink(task, "/real", "/ln")
        kernel.sys.stat(task, "/ln/f")
        kernel.costs.reset_attribution()
        kernel.sys.stat(task, "/ln/f")
        assert kernel.costs.count("pcc_probe") == 2

    def test_alias_survives_target_recreation(self, kernel, task):
        kernel.sys.mkdir(task, "/real")
        _mkfile(kernel, task, "/real/f", b"old")
        kernel.sys.symlink(task, "/real", "/ln")
        assert kernel.sys.stat(task, "/ln/f").size == 3
        kernel.sys.unlink(task, "/real/f")
        with pytest.raises(errors.ENOENT):
            kernel.sys.stat(task, "/ln/f")
        _mkfile(kernel, task, "/real/f", b"newer")
        assert kernel.sys.stat(task, "/ln/f").size == 5

    def test_alias_invalidated_by_link_removal(self, kernel, task):
        kernel.sys.mkdir(task, "/real")
        _mkfile(kernel, task, "/real/f")
        kernel.sys.symlink(task, "/real", "/ln")
        kernel.sys.stat(task, "/ln/f")
        kernel.sys.unlink(task, "/ln")
        with pytest.raises(errors.ENOENT):
            kernel.sys.stat(task, "/ln/f")
        assert kernel.sys.stat(task, "/real/f").filetype == "reg"

    def test_alias_invalidated_by_target_dir_rename(self, kernel, task):
        kernel.sys.mkdir(task, "/real")
        _mkfile(kernel, task, "/real/f", b"q")
        kernel.sys.symlink(task, "/real", "/ln")
        kernel.sys.stat(task, "/ln/f")
        kernel.sys.rename(task, "/real", "/moved")
        # The link now dangles; its alias must not serve stale hits.
        with pytest.raises(errors.ENOENT):
            kernel.sys.stat(task, "/ln/f")

    def test_second_symlink_in_path_resolves(self, kernel, task):
        """Only the first link grows an alias spine; later links still
        resolve correctly (just without alias caching)."""
        kernel.sys.mkdir(task, "/a")
        kernel.sys.mkdir(task, "/b")
        _mkfile(kernel, task, "/b/f", b"zz")
        kernel.sys.symlink(task, "/b", "/a/l2")
        kernel.sys.symlink(task, "/a", "/l1")
        for _ in range(3):
            assert kernel.sys.stat(task, "/l1/l2/f").size == 2


class TestLinkTargetSignature:
    def test_final_link_fastpath_double_probe(self, kernel, task):
        _mkfile(kernel, task, "/target", b"abc")
        kernel.sys.symlink(task, "/target", "/ln")
        kernel.sys.stat(task, "/ln")
        link = _dentry(kernel, "ln")
        assert link.fast is not None
        assert link.fast.link_target_state is not None

    def test_lstat_and_stat_coexist(self, kernel, task):
        _mkfile(kernel, task, "/target", b"abc")
        kernel.sys.symlink(task, "/target", "/ln")
        kernel.sys.stat(task, "/ln")
        kernel.sys.lstat(task, "/ln")
        kernel.stats.reset()
        assert kernel.sys.stat(task, "/ln").size == 3
        assert kernel.sys.lstat(task, "/ln").filetype == "lnk"
        assert kernel.stats.get("fastpath_hit") == 2

    def test_retargeted_path_followed_correctly(self, kernel, task):
        """New file created at the old target path: the stored target
        signature must find it (path semantics, not object identity)."""
        kernel.sys.mkdir(task, "/d")
        _mkfile(kernel, task, "/d/f", b"one")
        kernel.sys.symlink(task, "/d/f", "/ln")
        assert kernel.sys.stat(task, "/ln").size == 3
        kernel.sys.unlink(task, "/d/f")
        _mkfile(kernel, task, "/d/f", b"four")
        assert kernel.sys.stat(task, "/ln").size == 4
        kernel.stats.reset()
        assert kernel.sys.stat(task, "/ln").size == 4
        assert kernel.stats.get("fastpath_hit") == 1


class _EpochKernel:
    """Re-run a class on ``optimized-lazy``: the same flows through the
    alias / link-target arm of ``EpochCoherence.accept``.  (Subclasses,
    not fixture params, so the ``optimized`` test ids stay as they are.)"""

    @pytest.fixture
    def kernel(self):
        return make_kernel("optimized-lazy")


class TestAliasCreationLazy(_EpochKernel, TestAliasCreation):
    pass


class TestLinkTargetSignatureLazy(_EpochKernel, TestLinkTargetSignature):
    pass
