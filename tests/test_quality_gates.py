"""Repository-level quality gates.

These tests keep the library honest as it grows: every cost primitive is
actually charged by some code path, every public item carries a
docstring, the substrate does not import the optimized design, the
coherence policy is chosen in one place, the host-side layers hang off
one seam, and the packaging metadata stays importable.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro import O_CREAT, O_RDWR, errors, make_kernel
from repro.core.kernel import PROFILES
from repro.sim.costs import CALIBRATED

SRC = pathlib.Path(repro.__file__).resolve().parent


def _exercise_everything():
    """One kitchen-sink run touching every major code path."""
    from repro.fs.netfs import ExportServer, NfsLikeFs
    from repro.fs.pseudofs import PseudoFs
    from repro.fs.tmpfs import TmpFs

    from repro.vfs.lsm import SELinuxLikeLsm

    lsm = SELinuxLikeLsm()
    kernel = make_kernel("optimized", lsm=lsm)
    task = kernel.spawn_task(uid=0, gid=0)
    sys = kernel.sys
    sys.mkdir(task, "/d")
    fd = sys.open(task, "/d/f", O_CREAT | O_RDWR)
    sys.write(task, fd, b"x" * 100)
    sys.read(task, fd, 10)
    sys.close(task, fd)
    for _ in range(2):
        sys.stat(task, "/d/f")
    sys.symlink(task, "/d/f", "/ln")
    sys.stat(task, "/ln")
    sys.stat(task, "/ln")
    try:
        sys.stat(task, "/d/../d/f")
    except errors.FsError:
        pass
    for _ in range(2):
        try:
            sys.stat(task, "/miss/deep")
        except errors.ENOENT:
            pass
    sys.listdir(task, "/d")
    sys.listdir(task, "/d")
    sys.chmod(task, "/d", 0o700)
    sys.chown(task, "/d/f", uid=1, gid=1)
    sys.rename(task, "/d/f", "/d/g")
    sys.unlink(task, "/d/g")
    sys.setxattr(task, "/d", "user.k", b"v")
    sys.mkdir(task, "/mnt")
    sys.mount_fs(task, TmpFs(kernel.costs), "/mnt")
    fd = sys.open(task, "/mnt/t", O_CREAT | O_RDWR)
    sys.close(task, fd)
    sys.umount(task, "/mnt")
    sys.mkdir(task, "/proc")
    proc = PseudoFs(kernel.costs)
    proc.add_static_file(proc.root_ino, "version", "1")
    sys.mount_fs(task, proc, "/proc")
    sys.stat(task, "/proc/version")
    server = ExportServer(kernel.costs)
    sys.mkdir(task, "/net")
    sys.mount_fs(task, NfsLikeFs(server), "/net")
    fd = sys.open(task, "/net/r", O_CREAT | O_RDWR)
    sys.close(task, fd)
    sys.stat(task, "/net/r")
    kernel.drop_caches()
    sys.stat(task, "/d")  # cold: disk path
    import random
    fd, _name = sys.mkstemp(task, "/d", rng=random.Random(1))
    sys.close(task, fd)
    # PRF kernel to exercise the PRF primitive.
    # The borrowing kernels below only bump ``counts`` on the shared
    # cost model; it carries ``kernel``'s memo, so theirs stays off.
    prf = make_kernel("optimized", signature_scheme="prf",
                      costs=kernel.costs, resolution_memo=False)
    prf_task = prf.spawn_task(uid=0, gid=0)
    prf.sys.mkdir(prf_task, "/p")
    prf.sys.stat(prf_task, "/p")
    # A lazy kernel covers the epoch-coherence primitives.
    lazy = make_kernel("optimized-lazy", costs=kernel.costs,
                       resolution_memo=False)
    lazy_task = lazy.spawn_task(uid=0, gid=0)
    lazy.sys.mkdir(lazy_task, "/lz")
    lazy.sys.stat(lazy_task, "/lz")
    lazy.sys.chmod(lazy_task, "/lz", 0o700)
    lazy.sys.stat(lazy_task, "/lz")
    # A baseline kernel covers the classic walk-only primitives.
    base = make_kernel("baseline", costs=kernel.costs,
                       resolution_memo=False)
    base_task = base.spawn_task(uid=0, gid=0)
    base.sys.mkdir(base_task, "/b")
    fd = base.sys.open(base_task, "/b/f", O_CREAT | O_RDWR)
    base.sys.close(base_task, fd)
    base.sys.stat(base_task, "/b/f")
    base.sys.listdir(base_task, "/b")
    return kernel


class TestCostTableCoverage:
    def test_every_primitive_is_charged_somewhere(self):
        kernel = _exercise_everything()
        charged = set(kernel.costs.counts)
        never = {name for name in CALIBRATED
                 if not name.endswith("_per_byte")} - charged
        # "dotdot_extra_lookup" fires only on a fastpath dot-dot hit;
        # exercise it explicitly.
        k2 = make_kernel("optimized", costs=kernel.costs,
                         resolution_memo=False)
        t2 = k2.spawn_task(uid=0, gid=0)
        k2.sys.mkdir(t2, "/a")
        k2.sys.mkdir(t2, "/a/b")
        for _ in range(3):
            k2.sys.stat(t2, "/a/b/../b")
        charged = set(kernel.costs.counts)
        never = {name for name in CALIBRATED
                 if not name.endswith("_per_byte")} - charged
        assert not never, f"dead cost primitives: {sorted(never)}"

    def test_per_byte_entries_have_base(self):
        for name in CALIBRATED:
            if name.endswith("_per_byte"):
                assert name[:-len("_per_byte")] in CALIBRATED, name


def _public_defs(tree: ast.Module):
    """Module-level public classes and functions.

    Methods are exempt: overrides inherit their contract from the
    documented base class (e.g. the FileSystem and AppWorkload APIs).
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node


class TestDocumentation:
    def test_every_module_has_docstring(self):
        missing = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text())
            if ast.get_docstring(tree) is None:
                missing.append(str(path.relative_to(SRC)))
        assert not missing, f"modules without docstrings: {missing}"

    def test_public_items_have_docstrings(self):
        missing = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text())
            for node in _public_defs(tree):
                if ast.get_docstring(node) is None:
                    missing.append(
                        f"{path.relative_to(SRC)}:{node.lineno} "
                        f"{node.name}")
        assert not missing, \
            "public items without docstrings:\n" + "\n".join(missing)


def _module_level_imports(tree: ast.Module):
    """Dotted names imported anywhere outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield f"{node.module}.{alias.name}"
        stack.extend(ast.iter_child_nodes(node))


class TestLayering:
    def test_substrate_does_not_import_the_optimized_design(self):
        """Table 4's claim: ``repro.core`` hooks into an unchanged
        VFS / file-system / simulation substrate, never the reverse.  A
        function-local import (``vfs/syscalls.py`` reaching
        ``negative_after_removal``) is the one allowed form."""
        offenders = []
        for package in ("vfs", "fs", "sim"):
            for path in sorted((SRC / package).rglob("*.py")):
                tree = ast.parse(path.read_text())
                for name in _module_level_imports(tree):
                    if (name + ".").startswith("repro.core."):
                        offenders.append(f"{path.relative_to(SRC)}: {name}")
        assert not offenders, \
            "substrate modules importing repro.core:\n" + "\n".join(offenders)

    def test_only_the_test_oracles_import_repro_testing(self):
        """``repro.testing`` holds test oracles; the simulator and its
        workloads must run without them."""
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.parent == SRC / "testing":
                continue
            tree = ast.parse(path.read_text())
            for name in _module_level_imports(tree):
                if (name + ".").startswith("repro.testing."):
                    offenders.append(f"{path.relative_to(SRC)}: {name}")
        assert not offenders, \
            "modules importing repro.testing:\n" + "\n".join(offenders)


def _attribute_reads(tree: ast.Module, attr: str):
    """Line numbers of every ``<expr>.attr`` in the module."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == attr]


class TestCoherenceSeam:
    def test_the_policy_is_known_in_one_place(self):
        """The lookup engine never asks which coherence policy runs: it
        calls the policy object (``pos_state`` / ``accept`` /
        ``on_miss``), and only the kernel builder reads the config
        field that picks one."""
        fastpath = (SRC / "core" / "fastpath.py").read_text()
        assert "lazy_invalidation" not in fastpath
        assert not _attribute_reads(ast.parse(fastpath), "lazy")
        readers = [str(path.relative_to(SRC))
                   for path in sorted(SRC.rglob("*.py"))
                   if _attribute_reads(ast.parse(path.read_text()),
                                       "lazy_invalidation")]
        assert readers == ["core/kernel.py"]

    def test_eager_kernel_never_leaves_epoch_zero(self):
        """Population stamps ``coherence.epoch`` unconditionally; under
        the eager policy nothing advances it, so every stamp is the zero
        the fields were born with and no DLHT key is ever an extra."""
        kernel = _exercise_everything()
        assert kernel.coherence.epoch == 0
        dentries = {}
        stack = [mount.root_dentry for mount in kernel.root_ns.mounts]
        pccs, dlhts = kernel.live_caches()
        for dlht in dlhts:
            stack.extend(dentry for _key, dentry in dlht.items())
        for pcc in pccs:
            for dentry, _seq, epoch in pcc._entries.values():
                assert epoch == 0
                stack.append(dentry)
        while stack:
            dentry = stack.pop()
            if id(dentry) not in dentries:
                dentries[id(dentry)] = dentry
                stack.extend(dentry.children.values())
        assert len(dentries) > 5
        for dentry in dentries.values():
            assert dentry.epoch == 0
            fast = dentry.fast
            if fast is not None:
                assert fast.epoch_snapshot == 0


class TestLifetimes:
    def test_no_module_keeps_collector_timed_references(self):
        """Cache lifetimes follow the kernel's task table
        (``Kernel.live_caches``), never the host's garbage collector: no
        module imports ``weakref`` or declares a ``__weakref__`` slot."""
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            source = path.read_text()
            nodes = list(ast.walk(ast.parse(source)))
            modules = [alias.name for node in nodes
                       if isinstance(node, ast.Import)
                       for alias in node.names]
            modules += [node.module for node in nodes
                        if isinstance(node, ast.ImportFrom)]
            if "weakref" in modules or "__weakref__" in source:
                offenders.append(str(path.relative_to(SRC)))
        assert offenders == []


class TestHostSeam:
    """The resolution memo checks its own pins on read: no cache
    structure and no ``CostModel`` holds it or calls into it, and
    ``costs.forget()`` is the one bulk invalidation."""

    def test_no_structure_holds_or_calls_the_memo(self):
        sources = {str(path.relative_to(SRC)): path.read_text()
                   for path in sorted(SRC.rglob("*.py"))}
        trees = {name: ast.parse(text) for name, text in sources.items()}
        # Only the two readers of ``kernel.memo`` (memo or None) ask.
        askers = {name: text.count("memo is not None")
                  for name, text in sources.items()
                  if "memo is not None" in text or "memo is None" in text}
        assert askers == {"sim/memory.py": 2, "vfs/syscalls.py": 1}
        importers = sorted(
            name for name, tree in trees.items()
            if any(isinstance(node, ast.ImportFrom)
                   and node.module == "repro.core.resmemo"
                   for node in ast.walk(tree)))
        assert importers == ["core/kernel.py"]
        # The kernel builds it; the syscall facade resolves through it;
        # the memory report counts it; the inspect tool prints its
        # counters.  Nothing else reaches a memo.
        reachers = sorted(
            name for name, tree in trees.items()
            if any(isinstance(node, ast.Attribute) and node.attr == "memo"
                   for node in ast.walk(tree)))
        assert reachers == ["core/kernel.py", "sim/memory.py",
                            "tools/inspect.py", "vfs/syscalls.py"]
        for gone in ("_by_dep", "_by_miss", "_FAST_ENTRIES", "_fast_close",
                     "_fast_lseek", "_fast_fstat", "_fast_read",
                     "_fast_write", "_flush_memo", "_SCHEDULE_CACHE",
                     "_NoMemo", "kill_miss", "index_keys", "_unregister"):
            assert not [name for name, text in sources.items()
                        if gone in text], gone
        kernel = make_kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        for holder in (kernel.dcache, kernel.root_ns.dlht, task.cred.pcc,
                       kernel.coherence, kernel.costs):
            assert not hasattr(holder, "memo"), holder
        for holder in (kernel.dcache, kernel.root_ns.dlht, task.cred.pcc,
                       kernel.coherence):
            assert not hasattr(holder, "plans"), holder

    @pytest.mark.parametrize("profile", PROFILES)
    def test_forget_is_the_one_bulk_invalidation(self, profile):
        from repro.workloads.compile import build_loop_trace, compile_trace
        from repro.workloads.traces import replay_compiled

        kernel = make_kernel(profile)
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, "/d")
        for _ in range(4):
            kernel.sys.stat(task, "/d")
        memo = kernel.memo
        assert memo.hits > 0 and len(memo) > 0
        program = compile_trace(build_loop_trace(profile=profile))
        for _ in range(4):
            replay_compiled(kernel, task, program)
        plans = kernel.costs.plans
        applied, gen = plans.applied, plans.gen
        assert applied > 0
        kernel.costs.forget()
        assert plans.gen == gen + 1
        hits, stale = memo.hits, memo.stale
        kernel.sys.stat(task, "/d")
        assert (memo.hits, memo.stale) == (hits, stale + 1)
        replay_compiled(kernel, task, program)
        assert plans.invalidated > 0

        off = make_kernel(profile, resolution_memo=False)
        gen = off.costs.plans.gen
        off.costs.forget()  # no memo: not an error
        assert off.memo is None and off.costs.plans.gen == gen + 1

    def test_memoizing_kernels_may_share_a_cost_model(self):
        """Two memoizing kernels on one cost model end exactly as the
        same two kernels memo-off, while the second renames and chmods:
        its chmod's ``costs.forget()`` lapses the first's entries too."""
        from repro.testing.dual import fingerprint

        runs = {}
        for memo in (True, False):
            first = make_kernel("optimized", resolution_memo=memo)
            second = make_kernel("baseline", costs=first.costs,
                                 resolution_memo=memo)
            tasks = [kernel.spawn_task(uid=0, gid=0)
                     for kernel in (first, second)]
            out = []
            for kernel, task in zip((first, second), tasks):
                kernel.sys.mkdir(task, "/d")
            for _round in range(3):
                for kernel, task in zip((first, second), tasks):
                    for _ in range(4):
                        out.append(kernel.sys.stat(task, "/d").ino)
                        try:
                            kernel.sys.stat(task, "/e")
                        except errors.ENOENT:
                            out.append("ENOENT")
                second.sys.rename(tasks[1], "/d", "/e")
                second.sys.rename(tasks[1], "/e", "/d")
                second.sys.chmod(tasks[1], "/d", 0o755)
            if memo:
                assert first.memo is not second.memo
                assert first.memo.hits > 0 and second.memo.hits > 0
                assert first.memo.stale > 0
            runs[memo] = (out, fingerprint(first), fingerprint(second))
        assert runs[True] == runs[False]


class TestPackaging:
    def test_version_exposed(self):
        assert repro.__version__

    def test_public_exports_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackages_importable(self):
        import importlib
        for package in ("repro.core", "repro.vfs", "repro.fs",
                        "repro.sim", "repro.workloads", "repro.bench",
                        "repro.testing", "repro.tools"):
            importlib.import_module(package)
