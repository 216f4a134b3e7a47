"""Resolution memo (:mod:`repro.core.resmemo`) fidelity and invariants.

The memo is a host-side wall-clock cache: with it on, whole path
resolutions are answered by replaying recorded charge vectors instead of
re-running the resolve machinery.  The contract these tests pin is
*bit-identical virtual behaviour*: every virtual cost, every ``Stats``
counter, and every syscall outcome must be exactly equal with the memo
on and off, on all three kernel profiles, under arbitrary interleavings
of lookups and mutations.

Coverage:

* memo-on vs memo-off golden differential over a mixed workload
  (repeated hot stats through record/confirm/replay, renames, chmod,
  chown, unlink, symlink, ENOENT probes) — exact float equality of the
  virtual clock, per-primitive/per-scope charge tables, call counts,
  and the full ``Stats`` snapshot;
* 20 seeded mutation-heavy schedules through
  :class:`repro.testing.scheduler.ConcurrentRunner`, with post-run
  agreement between memoized answers and re-resolution after
  ``costs.forget()``;
* a hypothesis sweep over stat/listdir/rename/create/unlink/chmod
  interleavings (two credentials, a symlinked directory, a ``..``
  spelling, a PCC of 2, 4 or 4 096 entries, fixed or adaptive, a dcache
  of 12 entries or a million), differential against a memo-off twin
  down to PCC and dcache-LRU order;
* a recorded DLHT or PCC probe *miss* as a dependency, each in a
  minimal case and on the benchmark's own ``warm_lookup`` inputs (all
  ramp passes; respelled with ``..`` for the PCC);
* a full PCC: replay repeats recorded re-inserts, an entry resting on an
  eviction victim is found stale when next resolved, minimal cases and
  the ``warm_lookup`` inputs against a 128-entry PCC;
* admission: the doorkeeper (a cycle longer than the LRU is never
  recorded) and the governor (deterministic, never shut by a read-only
  loop, shut by a mutating one and reopened by quiet, free while shut
  and empty), and the benchmark's ``churn`` inputs run
  memo on and off while the governor cycles shut -> probe -> open -> shut;
* the whole quick experiment report, byte for byte, with every kernel
  built memo-off;
* replayed outcomes are data: an error replay raises a fresh instance
  equal to the resolver's, the memo holds no traceback or context and
  its heap does not grow with replays; equal recordings share one
  charge vector through a bounded intern table;
* the ``DcacheConfig.resolution_memo`` switch and capacity bound.
"""

from __future__ import annotations

import gc
import random
import re
import types
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import O_CREAT, O_RDWR, errors, make_kernel
from repro.bench import report as report_cli
from repro.core import resmemo
from repro.core.kernel import PROFILES, Kernel
from repro.core.resmemo import ResolutionMemo
from repro.testing.dual import _check_kernel_invariants, fingerprint
from repro.testing.races import assert_fastpath_consistent
from repro.testing.scheduler import ConcurrentRunner, normalize_stat

try:
    from hypothesis import example, given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the image
    HAVE_HYPOTHESIS = False

FAST_PROFILES = [name for name, config in PROFILES.items()
                 if config.fastpath]


def _cache_orders(kernel):
    """Each credential's PCC key order and the dcache LRU order, oldest
    first, as dentry paths: what the next eviction victims are picked
    from, which no counter shows until they are."""
    return ([[entry[0].path_from_root() for entry in pcc._entries.values()]
             for pcc in kernel.live_caches()[0]],
            [dentry.path_from_root()
             for dentry in kernel.dcache._lru.values()])


def _try_stat(kernel, task, path):
    try:
        return normalize_stat(kernel.sys.stat(task, path))
    except errors.FsError as exc:
        return ("err", type(exc).__name__, exc.errno, str(exc))


def _mkfile(kernel, task, path, content=b""):
    fd = kernel.sys.open(task, path, O_CREAT | O_RDWR)
    if content:
        kernel.sys.write(task, fd, content)
    kernel.sys.close(task, fd)


def _mixed_workload(kernel, task):
    """Lookup-heavy workload with mutations between hot phases.

    Every hot path is resolved at least four times per phase so each
    memo entry walks the full record -> confirm -> replay lifecycle,
    and every mutation class the memo must survive (rename, chmod,
    chown, unlink, negative probes) sits between phases.  Returns all
    observable outcomes so a memo-off twin can be compared exactly.
    """
    sys = kernel.sys
    out = []
    sys.mkdir(task, "/m")
    sys.mkdir(task, "/m/dir")
    for i in range(4):
        _mkfile(kernel, task, f"/m/dir/f{i}", b"x" * (i + 1))
    sys.symlink(task, "/m/dir/f0", "/m/ln")
    hot = [f"/m/dir/f{i}" for i in range(4)] + ["/m/ln", "/m/dir"]
    for _rep in range(4):
        for path in hot:
            out.append(_try_stat(kernel, task, path))
        out.append(_try_stat(kernel, task, "/m/dir/missing"))
    sys.rename(task, "/m/dir", "/m/dir2")
    for _rep in range(3):
        for i in range(4):
            out.append(_try_stat(kernel, task, f"/m/dir2/f{i}"))
        out.append(_try_stat(kernel, task, "/m/dir/f0"))   # now ENOENT
    sys.chmod(task, "/m/dir2", 0o700)
    user = kernel.spawn_task(uid=1000, gid=1000)
    for _rep in range(3):
        out.append(_try_stat(kernel, user, "/m/dir2/f1"))  # EACCES
        out.append(_try_stat(kernel, task, "/m/dir2/f1"))
    sys.chown(task, "/m/dir2/f2", 1000, 1000)
    for _rep in range(3):
        out.append(_try_stat(kernel, task, "/m/dir2/f2"))
    sys.unlink(task, "/m/dir2/f3")
    for _rep in range(3):
        out.append(_try_stat(kernel, task, "/m/dir2/f3"))  # negative
    out.append(sorted(sys.listdir(task, "/m/dir2")))
    return out


# -- golden differential ---------------------------------------------------

class TestGoldenDifferential:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_memo_on_off_bit_identical(self, profile):
        on = make_kernel(profile)
        off = make_kernel(profile, resolution_memo=False)
        assert on.memo is not None
        assert off.memo is None
        out_on = _mixed_workload(on, on.spawn_task(uid=0, gid=0))
        out_off = _mixed_workload(off, off.spawn_task(uid=0, gid=0))
        assert out_on == out_off
        assert fingerprint(on) == fingerprint(off)
        # The equality above is vacuous unless replays actually ran.
        assert on.memo.hits > 0
        assert on.memo.stale > 0

    @pytest.mark.parametrize("profile", PROFILES)
    def test_flush_midstream_changes_nothing_virtual(self, profile):
        """``costs.forget()`` at an arbitrary point is virtually
        invisible."""
        plain = make_kernel(profile)
        flushed = make_kernel(profile)
        t_plain = plain.spawn_task(uid=0, gid=0)
        t_flushed = flushed.spawn_task(uid=0, gid=0)
        for kernel, task in ((plain, t_plain), (flushed, t_flushed)):
            kernel.sys.mkdir(task, "/d")
            _mkfile(kernel, task, "/d/f")
            for _ in range(4):
                kernel.sys.stat(task, "/d/f")
        flushed.costs.forget()
        for kernel, task in ((plain, t_plain), (flushed, t_flushed)):
            for _ in range(4):
                kernel.sys.stat(task, "/d/f")
        assert fingerprint(plain) == fingerprint(flushed)


# -- concurrent schedules --------------------------------------------------

def _stat_op(kernel, task, path):
    def op():
        return kernel.sys.stat(task, path)
    return op


class TestConcurrentSchedules:
    @pytest.mark.parametrize("seed", range(20))
    def test_mutation_heavy_schedule(self, seed):
        """Memoized answers survive arbitrary hook-level interleavings.

        The memo is warmed before the schedule so live entries exist for
        the rename/chmod/create/unlink storm to invalidate mid-walk;
        afterwards, every probe must answer identically through the memo
        and through a real resolution after ``costs.forget()``.
        """
        kernel = make_kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        sys = kernel.sys
        sys.mkdir(task, "/s")
        sys.mkdir(task, "/s/d0")
        _mkfile(kernel, task, "/s/d0/a", b"a")
        _mkfile(kernel, task, "/s/d0/b", b"b")
        for _ in range(3):
            for path in ("/s/d0/a", "/s/d0/b", "/s/d0", "/s/d0/gone"):
                _try_stat(kernel, task, path)
        assert len(kernel.memo) > 0

        runner = ConcurrentRunner(kernel, seed)
        outcomes = runner.run([
            _stat_op(kernel, task, "/s/d0/a"),
            _stat_op(kernel, task, "/s/d0/b"),
            _stat_op(kernel, task, "/s/d1/a"),
            _stat_op(kernel, task, "/s/d0/gone"),
            lambda: sys.rename(task, "/s/d0", "/s/d1"),
            lambda: sys.chmod(task, "/s/d1", 0o700),
            lambda: _mkfile(kernel, task, "/s/d0/new"),
            lambda: sys.unlink(task, "/s/d1/b"),
        ])
        assert all(kind in ("ok", "err") for kind, _ in outcomes)

        probes = ["/s/d0/a", "/s/d0/b", "/s/d0/new", "/s/d0/gone",
                  "/s/d1/a", "/s/d1/b", "/s/d0", "/s/d1"]
        memoized = [_try_stat(kernel, task, p) for p in probes]
        kernel.costs.forget()
        resolved = [_try_stat(kernel, task, p) for p in probes]
        assert memoized == resolved
        assert_fastpath_consistent(kernel, task, probes)
        _check_kernel_invariants(kernel)


# -- hypothesis sweep ------------------------------------------------------

_H_TOKENS = (
    [("stat", p) for p in
     ("/h/d/a", "/h/d/b", "/h/d", "/h/e/a", "/h/e", "/h/d/nope",
      "/h/l/nope", "/h/l/a", "/h/d/../d/a")]
    + [("rename", "/h/d", "/h/e"), ("rename", "/h/e", "/h/d"),
       ("create", "/h/d/a"), ("create", "/h/e/c"),
       ("unlink", "/h/d/a"), ("unlink", "/h/e/c"),
       ("chmod", "/h/d", 0o700), ("chmod", "/h/d", 0o755),
       ("listdir", "/h/d")]
)


def _h_apply(kernel, task, op):
    sys = kernel.sys
    try:
        if op[0] == "stat":
            return normalize_stat(sys.stat(task, op[1]))
        if op[0] == "listdir":
            return sorted(sys.listdir(task, op[1]))
        if op[0] == "rename":
            sys.rename(task, op[1], op[2])
        elif op[0] == "create":
            _mkfile(kernel, task, op[1])
        elif op[0] == "unlink":
            sys.unlink(task, op[1])
        elif op[0] == "chmod":
            sys.chmod(task, op[1], op[2])
        return "ok"
    except errors.FsError as exc:
        return ("err", type(exc).__name__, exc.errno)


if HAVE_HYPOTHESIS:
    #: Examples in the sweep below: 25, or the loaded profile's count
    #: when it asks for more than Hypothesis's default
    #: (``--hypothesis-profile=thorough``).
    _H_EXAMPLES = (settings.default.max_examples
                   if settings.default.max_examples
                   > settings.get_profile("default").max_examples else 25)

    #: Pinned cases, each of which must replay memo entries.
    _H_PINNED = (
        # A listing makes /h/d complete, and a full dcache evicting a
        # child of it breaks that while four memo entries are live.
        dict(ops=[(False, ("create", "/h/e/c")),
                  (False, ("listdir", "/h/d")),
                  (False, ("stat", "/h/l/nope")),
                  (True, ("stat", "/h/l/nope")),
                  (False, ("stat", "/h/d")), (False, ("stat", "/h/d/a")),
                  (False, ("rename", "/h/d", "/h/e")),
                  (True, ("stat", "/h/d/../d/a")),
                  (False, ("stat", "/h/l/nope"))],
             profile="optimized", pcc_capacity=4096, pcc_adaptive=False,
             dcache_capacity=12),
        # An op drawn once replays on the fourth pass alone.
        dict(ops=[(False, ("stat", "/h/d/a"))], profile="optimized-lazy",
             pcc_capacity=4096, pcc_adaptive=False,
             dcache_capacity=10 ** 6),
    )

    @given(ops=st.lists(st.tuples(st.booleans(),
                                  st.sampled_from(_H_TOKENS)),
                        min_size=1, max_size=30),
           profile=st.sampled_from(list(PROFILES)),
           pcc_capacity=st.sampled_from((2, 4, 4096)),
           pcc_adaptive=st.booleans(),
           dcache_capacity=st.sampled_from((12, 10 ** 6)))
    @example(**_H_PINNED[0])
    @example(**_H_PINNED[1])
    @settings(max_examples=_H_EXAMPLES, deadline=None)
    def test_hypothesis_interleavings(ops, profile, pcc_capacity,
                                      pcc_adaptive, dcache_capacity):
        """Random stat/listdir/mutation interleavings: memo-on ==
        memo-off.

        Each generated sequence runs four times back to back: the memo
        sees an op drawn once on pass one, records it on pass two,
        confirms it on pass three and replays it on pass four, so the
        differential covers every stage of the entry lifecycle, not
        just cold recording, and the pinned cases must replay.  Each op
        runs as root or as an unprivileged user (whose mutations fail),
        through a symlinked directory and a ``..`` spelling too, against
        a PCC that holds two entries, four, or everything, fixed or
        growing from there, and a dcache of 12 entries (a listing's
        completeness is broken by evictions) or of a million; the caches
        must end in the same eviction order as well as the same
        counters.
        """
        results = []
        for memo_on in (True, False):
            kernel = make_kernel(profile, pcc_capacity=pcc_capacity,
                                 pcc_adaptive=pcc_adaptive,
                                 dcache_capacity=dcache_capacity,
                                 resolution_memo=memo_on)
            task = kernel.spawn_task(uid=0, gid=0)
            user = kernel.spawn_task(uid=1000, gid=1000)
            kernel.sys.mkdir(task, "/h")
            kernel.sys.mkdir(task, "/h/d")
            _mkfile(kernel, task, "/h/d/a", b"1")
            _mkfile(kernel, task, "/h/d/b", b"2")
            kernel.sys.symlink(task, "/h/d", "/h/l")
            out = []
            for _rep in range(4):
                for as_user, op in ops:
                    out.append(_h_apply(kernel, user if as_user else task,
                                        op))
            results.append((out, fingerprint(kernel),
                            _cache_orders(kernel)))
            if memo_on:
                hits = kernel.memo.hits
        assert results[0] == results[1]
        case = dict(ops=ops, profile=profile, pcc_capacity=pcc_capacity,
                    pcc_adaptive=pcc_adaptive,
                    dcache_capacity=dcache_capacity)
        assert hits > 0 or case not in _H_PINNED
else:  # pragma: no cover - hypothesis is in the image
    @pytest.mark.skip(reason="hypothesis not installed")
    def test_hypothesis_interleavings():
        pass


# -- a probe miss is a conclusion too ---------------------------------------

@pytest.fixture
def e2e(monkeypatch):
    """The end-to-end benchmark's modules (``benchmarks/e2e``)."""
    here = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
    monkeypatch.syspath_prepend(str(here))
    import adapters
    import gen
    import spans
    return SimpleNamespace(adapters=adapters, gen=gen, spans=spans)


def _memo_on_off_prints(e2e, inputs, profile, kernel_options=None,
                        min_hits=0, memo_capacity=None):
    """Fingerprints after every ramp pass and window of ``inputs``, on
    a default and on a memo-off kernel (each built with
    ``kernel_options`` on top of the adapter's own, the default one's
    memo then bounded to ``memo_capacity`` entries if given); the
    default kernel's memo must have hit more than ``min_hits`` times."""
    adapters, null = e2e.adapters, e2e.spans.NULL
    prints = {}
    for config in ("default", "memo_off"):
        adapter = adapters.StepAdapter(inputs, profile,
                                       adapters.CONFIGS[config])
        adapter.kernel_options.update(kernel_options or {})
        adapter.build(null)
        memo = adapter.kernel.memo
        if memo_capacity is not None and memo is not None:
            assert len(memo) <= memo_capacity
            memo.capacity = memo_capacity
        for index in range(len(inputs["ramp"])):
            adapter.ramp(index)
        for index in range(len(inputs["windows"])):
            adapter.window(index, null)
        prints[config] = fingerprint(adapter.kernel)
        if config == "default":
            assert adapter.kernel.memo.hits > min_hits
    return prints


class TestDlhtProbeMiss:
    def test_entry_dies_when_the_missed_signature_registers(self):
        """A confirmed EACCES resolution was recorded while its
        full-path signature missed the DLHT (the denied walk populates
        nothing).  Once another credential's walk registers that
        signature, a live fastpath hits, probes the PCC, misses and
        falls back — the memo must re-run the resolver, not replay the
        recording that lacks the ``pcc_probe``."""
        prints = {}
        for memo_on in (True, False):
            kernel = make_kernel("optimized", resolution_memo=memo_on)
            sys = kernel.sys
            root = kernel.spawn_task(uid=0, gid=0)
            owner = kernel.spawn_task(uid=1, gid=1)
            other = kernel.spawn_task(uid=2, gid=2)
            sys.mkdir(root, "/p")
            sys.mkdir(root, "/p/q")
            _mkfile(kernel, root, "/p/q/f")
            sys.chown(root, "/p", 1, 1)
            sys.chmod(root, "/p", 0o700)
            kernel.drop_caches()
            for _ in range(5):  # record, confirm, replay
                with pytest.raises(errors.EACCES):
                    sys.stat(other, "/p/q")
            if memo_on:
                assert kernel.memo.hits > 0
            sys.stat(owner, "/p/q/f")  # registers /p/q in the DLHT
            with pytest.raises(errors.EACCES):
                sys.stat(other, "/p/q")
            prints[memo_on] = fingerprint(kernel)
        assert prints[True] == prints[False]

    @pytest.mark.parametrize("seed", (2, 3, 7))
    def test_benchmark_inputs_all_ramp_passes(self, seed, e2e):
        """``warm_lookup`` as the end-to-end benchmark generates it, run
        through all 16 ramp passes (8 hot + 8 fill) and both windows:
        memo on and off end exactly equal on ``optimized``."""
        inputs = e2e.gen.make_inputs("warm_lookup", seed,
                                     e2e.gen.CHECK_SCALE, windows=2)
        assert len(inputs["ramp"]) == 16
        prints = _memo_on_off_prints(e2e, inputs, "optimized")
        assert prints["default"] == prints["memo_off"]


class TestPccProbeMiss:
    def test_entry_dies_when_the_missed_prefix_check_is_inserted(self):
        """Under lazy coherence a ``..`` lookup settles into probing the
        PCC and missing (the anchored reprove serves it without
        memoizing the prefix check), so the resolution confirms with
        the misses in it.  Once the plain spelling inserts those PCC
        entries a live resolver hits them — the memo must re-run the
        resolver, not replay the ``pcc_miss``."""
        prints = {}
        for memo_on in (True, False):
            kernel = make_kernel("optimized-lazy", resolution_memo=memo_on)
            sys = kernel.sys
            root = kernel.spawn_task(uid=0, gid=0)
            user = kernel.spawn_task(uid=2, gid=2)
            sys.mkdir(root, "/a")
            sys.mkdir(root, "/a/b")
            _mkfile(kernel, root, "/a/b/f")
            for _ in range(5):  # record, confirm, replay
                sys.stat(user, "/a/b/../b/f")
            if memo_on:
                assert kernel.memo.hits > 0
            sys.stat(user, "/a/b/f")  # inserts the missed PCC entries
            sys.stat(user, "/a/b/../b/f")
            prints[memo_on] = fingerprint(kernel)
        assert prints[True] == prints[False]

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_dotdot_benchmark_inputs_all_ramp_passes(self, seed, e2e):
        """The benchmark's ``warm_lookup`` inputs with every seventh
        distinct lookup respelled ``a/b/c`` -> ``a/b/../b/c`` (the
        generator emits no ``..``), all ramp passes and both windows on
        ``optimized-lazy``: memo on and off end exactly equal."""
        inputs = e2e.gen.make_inputs("warm_lookup", seed,
                                     e2e.gen.CHECK_SCALE, windows=2)
        respelled = {}

        def dotdot(step):
            kind, cred, op, args = step
            parts = args[0].split("/") if args else ()
            if len(parts) < 3 or len(respelled) % 7:
                return step
            parts[-1:-1] = ["..", parts[-2]]
            return (kind, cred, op, ("/".join(parts),) + args[1:])

        for passes in (inputs["ramp"], inputs["windows"]):
            for steps in passes:
                for i, step in enumerate(steps):
                    if step not in respelled:
                        respelled[step] = dotdot(step)
                    steps[i] = respelled[step]
        assert sum(new != old for old, new in respelled.items()) > 10
        prints = _memo_on_off_prints(e2e, inputs, "optimized-lazy")
        assert prints["default"] == prints["memo_off"]


# -- a full PCC: evicted victims go stale on read, replay repeats re-inserts -

#: Most memo hits the bulk-flushing parent commit reached on the
#: ``test_benchmark_inputs_under_eviction`` inputs (seeds 1-3).
_FLUSHING_HITS = {"optimized": 321, "optimized-lazy": 448}


def _resting_on_evicted(kernel):
    """Keys of memo entries with a PCC touch whose target that PCC no
    longer holds: what an eviction leaves behind, nothing being killed."""
    return [key for key, entry in kernel.memo._entries.items()
            if any(id(dentry) not in pcc._entries
                   for pcc, dentry, _epoch in entry.pcc_touches)]


def _stale_on_next_resolve(kernel, tasks, keys):
    """Resolve each memo key in ``keys`` once more, as the one of
    ``tasks`` holding its credential; how many were found stale."""
    memo = kernel.memo
    by_cred = {id(task.cred): task for task in tasks}
    stale = memo.stale
    for key in keys:
        try:
            memo.resolve(by_cred[key[3]], *key[4:])
        except errors.FsError:
            pass
    return memo.stale - stale


class TestPccPressure:
    @pytest.mark.parametrize("profile", FAST_PROFILES)
    def test_replay_repeats_pcc_reinserts(self, profile):
        """An ENOENT lookup through a symlinked directory slow-walks on
        every repetition and re-inserts the same PCC entries, so it
        confirms with the inserts in it.  A replay must refresh them to
        MRU as the walk does, or the next capacity eviction picks a
        different victim than on a memo-off kernel."""
        results = {}
        for memo_on in (True, False):
            kernel = make_kernel(profile, pcc_capacity=24,
                                 resolution_memo=memo_on)
            sys = kernel.sys
            root = kernel.spawn_task(uid=0, gid=0)
            user = kernel.spawn_task(uid=1000, gid=1000)
            for path in ("/a", "/a/b", "/a/b/c", "/l", "/x"):
                sys.mkdir(root, path)
            sys.symlink(root, "/a/b", "/l/d")
            for i in range(40):
                _mkfile(kernel, root, f"/x/f{i}")

            def absent(times):
                for _ in range(times):
                    with pytest.raises(errors.ENOENT):
                        sys.stat(user, "/l/d/c/absent")

            absent(4)  # record, confirm, replay
            for i in range(8):
                sys.stat(user, f"/x/f{i}")
                sys.stat(user, f"/x/f{i}")
            absent(4)
            for i in range(8, 22):  # evicts some of f0..f7, not all
                sys.stat(user, f"/x/f{i}")
            for i in range(8):
                sys.stat(user, f"/x/f{i}")
            absent(1)
            results[memo_on] = (fingerprint(kernel), _cache_orders(kernel))
            if memo_on:
                assert kernel.memo.hits > 0
                resting = _resting_on_evicted(kernel)
                assert _stale_on_next_resolve(
                    kernel, (root, user), resting) == len(resting)
        assert results[True] == results[False]

    @pytest.mark.parametrize("profile", FAST_PROFILES)
    def test_confirming_run_reinserts_an_evicted_entry(self, profile):
        """Record -> evict -> confirm: ``/x/t`` is recorded with its PCC
        entry pushed out (probe miss, slow walk, insert), pushed out
        again, and re-run.  The confirming run finds the recording stale:
        the PCC entry it recorded as inserted after its miss is gone."""
        prints = {}
        for memo_on in (True, False):
            kernel = make_kernel(profile, pcc_capacity=16,
                                 resolution_memo=memo_on)
            sys = kernel.sys
            root = kernel.spawn_task(uid=0, gid=0)
            user = kernel.spawn_task(uid=1000, gid=1000)
            sys.mkdir(root, "/x")
            _mkfile(kernel, root, "/x/t")
            for i in range(16):
                _mkfile(kernel, root, f"/x/f{i}")

            def push_out():
                for i in range(16):
                    sys.stat(user, f"/x/f{i}")

            sys.stat(user, "/x/t")
            push_out()
            sys.stat(user, "/x/t")  # recorded
            push_out()
            if memo_on:
                assert "/x/t" in [key[4] for key in
                                  _resting_on_evicted(kernel)]
                stale = kernel.memo.stale
            sys.stat(user, "/x/t")  # would confirm: stale instead
            if memo_on:
                assert kernel.memo.stale == stale + 1
            for _ in range(3):
                sys.stat(user, "/x/t")
            prints[memo_on] = (fingerprint(kernel), _cache_orders(kernel))
        assert prints[True] == prints[False]

    @pytest.mark.parametrize("profile", FAST_PROFILES)
    def test_adaptive_pcc_counts_every_miss(self, profile):
        """The ``..`` spelling slow-walks on every repetition on
        ``optimized-lazy`` and misses a PCC probe each time, so it
        confirms with the miss in it.  An adaptive PCC counts misses to
        decide when to grow; a replay would skip the count and the cache
        would grow later than on a memo-off kernel.  ``optimized`` hits
        its PCC here and is the control."""
        results = {}
        for memo_on in (True, False):
            kernel = make_kernel(profile, pcc_capacity=4, pcc_adaptive=True,
                                 resolution_memo=memo_on)
            sys = kernel.sys
            root = kernel.spawn_task(uid=0, gid=0)
            user = kernel.spawn_task(uid=2, gid=2)
            sys.mkdir(root, "/a")
            sys.mkdir(root, "/a/b")
            _mkfile(kernel, root, "/a/b/f")
            for i in range(24):
                _mkfile(kernel, root, f"/a/g{i}")
            dotdot = "/a/b/../b/f"
            for path in ("/a/g4", "/a/g2", "/a/g15", dotdot, dotdot, dotdot,
                         "/a/g17", "/a/g20", "/a/g7", "/a/g16", dotdot):
                sys.stat(user, path)
            assert kernel.stats.get("pcc_grow") > 0
            results[memo_on] = (fingerprint(kernel),
                                [pcc.capacity
                                 for pcc in kernel.live_caches()[0]])
        assert results[True] == results[False]

    @pytest.mark.parametrize("adaptive", (False, True))
    @pytest.mark.parametrize("profile", FAST_PROFILES)
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_benchmark_inputs_under_eviction(self, seed, profile, adaptive,
                                             e2e):
        """``warm_lookup`` at ``CHECK_SCALE`` is 1 755 dentries, which
        the default 4 096-entry PCC never evicts from; against 128
        entries (fixed, or growing from there) it evicts throughout.
        Memo on and off end exactly equal, and a capacity eviction no
        longer empties the memo: it hits more than when it did."""
        inputs = e2e.gen.make_inputs("warm_lookup", seed,
                                     e2e.gen.CHECK_SCALE, windows=2)
        prints = _memo_on_off_prints(
            e2e, inputs, profile,
            {"pcc_capacity": 128, "pcc_adaptive": adaptive},
            min_hits=0 if adaptive else _FLUSHING_HITS[profile])
        assert prints["default"] == prints["memo_off"]


# -- admission: doorkeeper and governor ---------------------------------------

def _governed_kernel(files=8):
    """A kernel with ``/g/d/f0..`` and the task that made them."""
    kernel = make_kernel("optimized")
    task = kernel.spawn_task(uid=0, gid=0)
    kernel.sys.mkdir(task, "/g")
    kernel.sys.mkdir(task, "/g/d")
    for i in range(files):
        _mkfile(kernel, task, f"/g/d/f{i}")
    return kernel, task


def _flips(kernel, task, ops):
    """Run ``ops``; the indices of those that left the governor in
    another state (open or shut) than they found it."""
    memo, flips = kernel.memo, []
    for index, op in enumerate(ops):
        was_open = memo._open
        _h_apply(kernel, task, op)
        if memo._open != was_open:
            flips.append(index)
    return flips


def _mutating_loop(rounds):
    """Two stats, then a rename of their directory, over and over: every
    recording goes stale before it can confirm."""
    ops, here, there = [], "/g/d", "/g/e"
    for i in range(rounds):
        ops += [("stat", f"{here}/f{i % 8}"), ("stat", f"{there}/f{i % 8}"),
                ("rename", here, there)]
        here, there = there, here
    return ops


class TestAdmission:
    def test_governor_is_deterministic_and_clockless(self):
        ops = (_mutating_loop(2 * ResolutionMemo._WINDOW)
               + [("stat", f"/g/d/f{i % 8}")
                  for i in range(4 * ResolutionMemo._WINDOW)])
        first, second = (_flips(*_governed_kernel(), ops) for _ in range(2))
        assert first == second
        assert len(first) >= 3  # shut, probe, ... : not vacuous
        source = Path(resmemo.__file__).read_text()
        assert "import time" not in source
        assert "perf_counter" not in source

    def test_read_only_zipf_loop_never_shuts(self):
        """Nothing goes stale, so nothing is wasted: every key is resolved
        plainly once, recorded, confirmed, and replayed from then on."""
        rng = random.Random(7)
        kernel, task = _governed_kernel(files=64)
        weights = [1 / (rank + 1) ** 1.1 for rank in range(64)]
        paths = rng.choices([f"/g/d/f{i}" for i in range(64)], weights,
                            k=6 * ResolutionMemo._WINDOW)
        memo = kernel.memo
        for path in paths:
            kernel.sys.stat(task, path)
            assert memo._open
        expected = sum(max(0, paths.count(p) - 3) for p in set(paths))
        assert memo.hits == expected
        assert memo._shut_for == 1

    def test_mutating_loop_shuts_and_quiet_reopens(self):
        kernel, task = _governed_kernel()
        memo, window = kernel.memo, ResolutionMemo._WINDOW
        # Every op resolves at least once, so 2 * window ops span at
        # least two verdicts.
        for op in _mutating_loop(window)[:2 * window]:
            _h_apply(kernel, task, op)
            if not memo._open:
                break
        assert not memo._open
        hits = memo.hits
        here = "/g/d" if _try_stat(kernel, task, "/g/d")[0] != "err" else "/g/e"
        quiet = 0
        while not memo._open:
            kernel.sys.stat(task, f"{here}/f{quiet % 8}")
            quiet += 1
            assert quiet <= window * ResolutionMemo._MAX_SHUT
        for i in range(4 * 8):
            kernel.sys.stat(task, f"{here}/f{i % 8}")
        assert memo.hits > hits

    @pytest.mark.parametrize("profile", PROFILES)
    def test_cycle_longer_than_the_lru_is_never_recorded(self, profile):
        """Three passes over 5 000 paths in a cycle: each key's second
        sight comes 4 999 new keys after its first, more than the LRU
        holds, so the doorkeeper has forgotten it and nothing is
        recorded.  A door four times the LRU's size recorded every
        key of the second and third passes, to replay none."""
        kernel = make_kernel(profile)
        memo = kernel.memo
        assert memo.capacity == resmemo.CAPACITY < 5000
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, "/s")
        paths = []
        for d in range(50):
            kernel.sys.mkdir(task, f"/s/d{d}")
            for i in range(100):
                paths.append(f"/s/d{d}/f{i}")
                _mkfile(kernel, task, paths[-1])
        for _ in range(3):
            for path in paths:
                kernel.sys.stat(task, path)
        assert len(memo) == 0
        assert memo.recorded == 0 and memo.hits == 0

    def test_shut_and_empty_touches_no_table(self):
        kernel, task = _governed_kernel()
        memo = kernel.memo
        kernel.costs.forget()
        memo._door.clear()
        memo._open, memo._left = False, 10 ** 6
        misses = memo.misses
        for i in range(1000):
            kernel.sys.stat(task, f"/g/d/f{i % 8}")
            kernel.sys.rename(task, f"/g/d/f{i % 8}", "/g/d/moved")
            kernel.sys.rename(task, "/g/d/moved", f"/g/d/f{i % 8}")
        assert len(memo._door) == len(memo._entries) == 0
        assert memo._left == 10 ** 6 - (memo.misses - misses)
        assert memo.misses - misses >= 1000 and memo.hits == 0

    @pytest.mark.parametrize("options", (
        {}, {"pcc_capacity": 4}, {"resolution_memo_capacity": 1}), ids=str)
    @pytest.mark.parametrize("profile", PROFILES)
    def test_churn_inputs_while_the_governor_cycles(self, profile, options,
                                                    e2e, monkeypatch):
        """The benchmark's ``churn`` pass, then its read steps alone
        (each six times running, so even a one-entry memo replays), then
        the pass again, under a 32-resolve governor window: recording
        shuts, probes, stays open through the quiet phase and shuts
        again, and memo on and off end exactly equal.  A
        ``resolution_memo_capacity`` option bounds the built kernel's
        memo."""
        gen = e2e.gen
        inputs = gen.make_inputs("churn", 1, gen.CHECK_SCALE, windows=1)
        churn = inputs["windows"][0]
        reads = [step for step in churn if step[0] == gen.CALL
                 and step[2] in ("stat", "lstat", "access_r", "readlink")]
        quiet = [step for step in reads for _ in range(6)]
        inputs["ramp"] = []
        inputs["windows"] = [churn, churn, quiet, quiet, churn, churn]
        monkeypatch.setattr(ResolutionMemo, "_WINDOW", 32)
        monkeypatch.setattr(ResolutionMemo, "_MAX_SHUT", 4)
        verdicts = []
        turn = ResolutionMemo._turn

        def logged_turn(memo):
            turn(memo)
            verdicts.append("O" if memo._open else "S")

        monkeypatch.setattr(ResolutionMemo, "_turn", logged_turn)
        options = dict(options)
        capacity = options.pop("resolution_memo_capacity", None)
        prints = _memo_on_off_prints(e2e, inputs, profile, options,
                                     memo_capacity=capacity)
        assert prints["default"] == prints["memo_off"]
        assert re.search("SOO+S", "".join(verdicts))


# -- the whole report, memo off ------------------------------------------------

def test_quick_report_is_byte_identical_with_the_memo_off(monkeypatch):
    """``python -m repro.bench.report --quick --jobs 1``, all experiments,
    once as it is and once with every kernel built memo-off."""
    default, ok = report_cli.generate(quick=True, jobs=1)
    assert ok
    built = []
    init = Kernel.__init__

    def memo_off_init(self, config, *args, **kwargs):
        init(self, config.variant(resolution_memo=False), *args, **kwargs)
        built.append(self.memo)

    monkeypatch.setattr(Kernel, "__init__", memo_off_init)
    memo_off, ok = report_cli.generate(quick=True, jobs=1)
    assert ok and built and all(memo is None for memo in built)
    assert memo_off == default


# -- replayed outcomes are data ----------------------------------------------

def _error_probes(profile, **options):
    """A kernel, and ``(task, path)`` probes failing with ENOENT and
    EACCES whose entries (given the memo) are confirmed and replaying."""
    kernel = make_kernel(profile, **options)
    root = kernel.spawn_task(uid=0, gid=0)
    user = kernel.spawn_task(uid=1000, gid=1000)
    kernel.sys.mkdir(root, "/o")
    kernel.sys.mkdir(root, "/o/locked")
    _mkfile(kernel, root, "/o/locked/f")
    kernel.sys.chmod(root, "/o/locked", 0o700)
    probes = [(root, "/o/missing"), (user, "/o/locked/f")]
    for _rep in range(5):
        for task, path in probes:
            _try_stat(kernel, task, path)
    return kernel, probes


def _caught(kernel, task, path):
    try:
        kernel.sys.stat(task, path)
    except errors.FsError as exc:
        return exc
    raise AssertionError(f"stat of {path} did not fail")


def _reachable_exceptions(root):
    """Every exception instance reachable from ``root`` through data
    (not through code, classes or modules)."""
    code = (type, types.ModuleType, types.FunctionType,
            types.BuiltinFunctionType, types.MethodType)
    seen, stack, found = {id(root)}, [root], []
    while stack:
        obj = stack.pop()
        if isinstance(obj, BaseException):
            found.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, code):
                seen.add(id(ref))
                stack.append(ref)
    return found


class _OtherError(Exception):
    pass


@pytest.mark.parametrize("profile", PROFILES)
class TestReplayedOutcomesAreData:
    REPLAYS = 2000

    def test_every_replay_raises_a_fresh_equal_instance(self, profile):
        kernel, probes = _error_probes(profile)
        plain, plain_probes = _error_probes(profile, resolution_memo=False)
        hits = kernel.memo.hits
        for (task, path), (plain_task, _) in zip(probes, plain_probes):
            want = _caught(plain, plain_task, path)
            raised = [_caught(kernel, task, path)
                      for _ in range(self.REPLAYS)]
            assert len({id(exc) for exc in raised}) == self.REPLAYS
            assert {(type(exc), exc.errno, exc.path, str(exc))
                    for exc in raised} == {
                (type(want), want.errno, want.path, str(want))}
        assert [type(_caught(kernel, *probe)) for probe in probes] == [
            errors.ENOENT, errors.EACCES]
        assert kernel.memo.hits - hits == len(probes) * (self.REPLAYS + 1)

    def test_memo_holds_no_traceback_and_heap_is_steady(self, profile):
        kernel, probes = _error_probes(profile)
        hits = kernel.memo.hits
        gc.collect()
        gc.disable()  # a replay must not leave even cyclic garbage
        try:
            before = len(gc.get_objects())
            for _ in range(self.REPLAYS):
                for task, path in probes:
                    _try_stat(kernel, task, path)
            assert len(gc.get_objects()) - before < 100
        finally:
            gc.enable()
        assert kernel.memo.hits - hits == len(probes) * self.REPLAYS
        held = _reachable_exceptions(kernel.memo)
        assert len(held) >= len(probes)
        for exc in held:
            assert exc.__traceback__ is None and exc.__context__ is None

    def test_replay_does_not_pin_the_handled_exception(self, profile):
        kernel, probes = _error_probes(profile)
        hits = kernel.memo.hits
        try:
            raise _OtherError()
        except _OtherError as held:
            ref = weakref.ref(held)
            for task, path in probes:
                _try_stat(kernel, task, path)
        assert kernel.memo.hits - hits == len(probes)
        assert ref() is None


class TestSharedVectors:
    @staticmethod
    def _entry(kernel, path):
        (entry,) = [entry for key, entry in kernel.memo._entries.items()
                    if key[4] == path]
        return entry

    @pytest.mark.parametrize("profile", PROFILES)
    def test_equal_recordings_share_one_vector(self, profile):
        kernel, task = _governed_kernel()
        kernel.sys.mkdir(task, "/g/longer")
        _mkfile(kernel, task, "/g/longer/f0")
        for _rep in range(5):
            for path in ("/g/d/f0", "/g/d/f1", "/g/d/no", "/g/d/on",
                         "/g/longer/f0"):
                _try_stat(kernel, task, path)
        for a, b in (("/g/d/f0", "/g/d/f1"), ("/g/d/no", "/g/d/on")):
            one, other = self._entry(kernel, a), self._entry(kernel, b)
            assert one.confirmed and other.confirmed
            assert one.vector is other.vector
            assert one.stat_deltas is other.stat_deltas
        assert (self._entry(kernel, "/g/longer/f0").vector
                is not self._entry(kernel, "/g/d/f0").vector)
        assert kernel.memo.event_count() < sum(  # a shared one counts once
            len(entry.vector) for entry in kernel.memo._entries.values())

    def test_intern_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(ResolutionMemo, "_INTERN_MAX", 6)
        kernel, task = _governed_kernel()
        memo, path, shapes = kernel.memo, "/g", set()
        for depth in range(12):
            path += "/" + "n" * (depth + 1)
            kernel.sys.mkdir(task, path)
            for _rep in range(4):
                kernel.sys.stat(task, path)
                assert len(memo._interned) <= 6
            shapes.add(id(self._entry(kernel, path).vector))
        assert len(shapes) == 12


# -- switch, capacity, counters --------------------------------------------

class TestSwitchAndBounds:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_switch_wiring(self, profile):
        on = make_kernel(profile)
        assert isinstance(on.memo, ResolutionMemo)
        off = make_kernel(profile, resolution_memo=False)
        assert off.memo is None

    def test_capacity_bound(self):
        kernel = make_kernel("optimized")
        kernel.memo.capacity = 2
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, "/c")
        for i in range(6):
            _mkfile(kernel, task, f"/c/f{i}")
        for _rep in range(3):
            for i in range(6):
                kernel.sys.stat(task, f"/c/f{i}")
        assert len(kernel.memo) <= 2

    def test_counters_move(self):
        kernel = make_kernel("optimized")
        task = kernel.spawn_task(uid=0, gid=0)
        kernel.sys.mkdir(task, "/t")
        _mkfile(kernel, task, "/t/f")
        for _ in range(5):
            kernel.sys.stat(task, "/t/f")
        assert kernel.memo.hits > 0
        stale = kernel.memo.stale
        kernel.sys.rename(task, "/t/f", "/t/g")
        with pytest.raises(errors.ENOENT):
            kernel.sys.stat(task, "/t/f")
        assert kernel.memo.stale == stale + 1
