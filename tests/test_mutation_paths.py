"""Mutation-path overhaul differentials (batched shootdowns, memoized
mutation resolves).

Two wall-clock optimizations share one contract: virtual costs must be
bit-identical with the optimization on or off, against a reference
implementation, on every profile.  This module pins each:

* the batched column-bound eager shootdown
  (:meth:`repro.core.coherence.Coherence.shootdown_subtree`) against an
  inline re-implementation of the old per-dentry recursive walk —
  fixed-tree golden check plus a hypothesis sweep over random subtree
  shapes including bind mounts, symlinks, and negative dentries;
* the scoped-invalidation resolution memo on mutation-heavy
  create/stat/rename/unlink churn, memo on vs. off.
"""

from __future__ import annotations

import pytest

from repro import O_CREAT, O_RDWR, make_kernel
from repro.core.coherence import SEQ_WRAP, EagerCoherence
from repro.core.kernel import PROFILES
from repro.errors import FsError
from repro.testing.dual import fingerprint


# -- batched vs. recursive shootdown ---------------------------------------

def _reference_shootdown_subtree(coh, dentry):
    """The pre-batching eager arm: one recursive per-dentry invalidation.

    Semantically what ``shootdown_subtree`` compiled to before the
    collect-then-bulk rewrite: descend the cached subtree (through
    mountpoints, cycle-safe), charge ``inval_per_dentry`` and bump the
    seq per dentry, drop fast state and DLHT registrations as
    encountered, and elide the global counter bump when no fastpath
    state was found and nothing is mid-walk.  Every accumulator the
    batched walk touches receives the same additions (visit order is
    immaterial: each accumulator folds N copies of the same float).
    """
    assert isinstance(coh, EagerCoherence)
    visited = set()
    found_fast = 0
    mounts = coh._mounts_on

    def invalidate_one(d):
        coh.costs.charge("inval_per_dentry")
        coh.stats.bump("inval_dentry")
        seq = d.seq + 1
        d.seq = seq
        if seq >= SEQ_WRAP:
            coh.wraparound_flush()
        fast = d.fast
        if fast is not None:
            fast.invalidate()
            if fast.dlht is not None:
                fast.dlht.remove(d)

    def walk(d):
        nonlocal found_fast
        if id(d) in visited:
            return
        visited.add(id(d))
        if d.fast is not None:
            found_fast += 1
        invalidate_one(d)
        for child in list(d.children.values()):
            walk(child)
        for root in mounts.get(id(d), ()):
            walk(root)

    walk(dentry)
    if found_fast == 0 and coh.walks_active == 0:
        coh.stats.bump("counter_bump_elided")
        return
    coh.bump_counter()


def _grow_tree(kernel, task, spec):
    """Build a tree under ``/t`` from a drawn op list; returns dir paths.

    Ops are ``(kind, a, b)`` with ``a``/``b`` small integers selecting
    parents/targets modulo the directories built so far, so any drawn
    list produces *some* valid tree — errors (duplicate names, mount
    loops the VFS rejects) are swallowed, keeping the generator total.
    """
    sys = kernel.sys
    sys.mkdir(task, "/t")
    dirs = ["/t"]
    for kind, a, b in spec:
        parent = dirs[a % len(dirs)]
        try:
            if kind == "dir":
                path = f"{parent}/d{b}"
                sys.mkdir(task, path)
                dirs.append(path)
            elif kind == "file":
                fd = sys.open(task, f"{parent}/f{b}", O_CREAT | O_RDWR)
                sys.close(task, fd)
            elif kind == "symlink":
                sys.symlink(task, dirs[b % len(dirs)], f"{parent}/l{b}")
            elif kind == "neg":
                sys.stat(task, f"{parent}/missing{b}")
            elif kind == "mount":
                dst = f"{parent}/m{b}"
                sys.mkdir(task, dst)
                sys.bind_mount(task, dirs[b % len(dirs)], dst)
        except FsError:
            continue
    # Warm fastpath/DLHT/PCC state over the whole tree so the shootdown
    # has cached descendants to invalidate.
    for path in dirs:
        try:
            sys.stat(task, path)
        except FsError:
            pass
    return dirs


def _shootdown_differential(spec, root_pick):
    """Run the real batched walk and the reference walk on twin kernels."""
    state = []
    for reference in (False, True):
        kernel = make_kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        dirs = _grow_tree(kernel, task, spec)
        target = dirs[root_pick % len(dirs)]
        dentry = kernel.sys._resolve(task, target, follow_last=True).dentry
        if reference:
            _reference_shootdown_subtree(kernel.coherence, dentry)
        else:
            kernel.coherence.shootdown_subtree(dentry)
        digest = []
        for path in dirs:
            try:
                d = kernel.sys._resolve(task, path,
                                        follow_last=True).dentry
            except FsError:
                digest.append((path, None, None))
                continue
            stale = d.fast is None or d.fast.hash_state is None
            digest.append((path, d.seq, stale))
        dlht_sizes = sorted(len(t) for t in kernel.coherence.dlhts)
        state.append((fingerprint(kernel), digest, dlht_sizes,
                      kernel.coherence.counter))
    assert state[0] == state[1]


class TestBatchedShootdown:
    def test_golden_fixed_tree(self):
        """Deterministic differential over a tree with every node kind."""
        spec = [("dir", 0, 0), ("dir", 1, 1), ("file", 1, 0),
                ("file", 2, 1), ("symlink", 0, 2), ("neg", 1, 0),
                ("dir", 0, 3), ("mount", 3, 1), ("file", 3, 2),
                ("neg", 2, 5)]
        _shootdown_differential(spec, root_pick=0)
        _shootdown_differential(spec, root_pick=1)

    def test_shootdown_on_cold_subtree_elides_bump(self):
        """No cached fastpath state + nothing mid-walk: both walks skip
        the counter bump and say so in the same stat."""
        kernel = make_kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, "/cold")
        dentry = kernel.sys._resolve(task, "/cold",
                                     follow_last=True).dentry
        # Strip the fast state the mkdir walk allocated: the elision is
        # for subtrees the fastpath never populated (an allocated-but-
        # invalidated FastDentry still counts as found, since a probe
        # may be holding it).
        dentry.fast = None
        for child in dentry.children.values():
            child.fast = None
        before = kernel.coherence.counter
        elided = kernel.stats.snapshot().get("counter_bump_elided", 0)
        kernel.coherence.shootdown_subtree(dentry)
        assert kernel.coherence.counter == before
        assert kernel.stats.snapshot()["counter_bump_elided"] == elided + 1

    def test_hypothesis_random_subtrees(self):
        """Property sweep: arbitrary tree shapes (dirs, files, symlinks,
        negative dentries, bind mounts), arbitrary shootdown roots."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        op = st.tuples(
            st.sampled_from(["dir", "file", "symlink", "neg", "mount"]),
            st.integers(0, 7), st.integers(0, 7))

        @given(spec=st.lists(op, min_size=3, max_size=16),
               root_pick=st.integers(0, 7))
        @settings(max_examples=25, deadline=None)
        def sweep(spec, root_pick):
            _shootdown_differential(spec, root_pick)

        sweep()


# -- memoized mutation-path resolution -------------------------------------

class TestMemoMutationChurn:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_memo_off_on_byte_identity(self, profile):
        """create/stat/rename/unlink churn: bit-identical memo on/off,
        and the memo actually replays across mutation cycles (the
        scoped-kill payoff — a bulk flush per mutation would leave zero
        hits on this workload).  Lazy coherence stamps the global epoch
        on every mutation and recordings never survive an epoch bump,
        so there the check is only that the memo engaged (misses
        recorded) without perturbing costs."""
        prints = {}
        hits = misses = None
        for memo_on in (False, True):
            kernel = make_kernel(profile, resolution_memo=memo_on)
            task = kernel.spawn_task(uid=0, gid=0)
            sys = kernel.sys
            sys.mkdir(task, "/w")
            sys.mkdir(task, "/w/keep")
            for _ in range(25):
                fd = sys.open(task, "/w/f", O_CREAT | O_RDWR)
                sys.close(task, fd)
                sys.stat(task, "/w/f")
                sys.stat(task, "/w/keep")
                sys.rename(task, "/w/f", "/w/g")
                sys.stat(task, "/w/g")
                sys.unlink(task, "/w/g")
            prints[memo_on] = fingerprint(kernel)
            if memo_on:
                hits = kernel.memo.hits
                misses = kernel.memo.misses
        assert prints[True] == prints[False]
        if profile == "optimized-lazy":
            assert misses > 0
        else:
            assert hits > 0
