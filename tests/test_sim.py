"""Unit tests for the simulation substrate: clock, costs, stats."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.sim.clock import Clock, Stopwatch
from repro.sim.concurrency import (ScalingParams, read_latency_curve,
                                   writer_latency_curve)
from repro.sim.costs import CALIBRATED, UNIT, CostModel, Recording
from repro.sim.stats import Stats


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now_ns == 0

    def test_advance_accumulates(self):
        clock = Clock()
        clock.advance(10)
        clock.advance(2.5)
        assert clock.now_ns == 12.5

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            Clock().advance(-1)

    def test_elapsed_since(self):
        clock = Clock()
        clock.advance(5)
        mark = clock.now_ns
        clock.advance(7)
        assert clock.elapsed_since(mark) == 7

    def test_stopwatch(self):
        clock = Clock()
        with Stopwatch(clock) as watch:
            clock.advance(42)
        assert watch.elapsed_ns == 42


class TestCostModel:
    def test_charge_advances_clock(self):
        costs = CostModel(dict(UNIT))
        costs.charge("ht_probe")
        assert costs.now_ns == 1

    def test_charge_times(self):
        costs = CostModel(dict(UNIT))
        costs.charge("ht_probe", times=5)
        assert costs.now_ns == 5
        assert costs.count("ht_probe") == 5

    def test_per_byte_component(self):
        costs = CostModel({"sig_hash": 10.0, "sig_hash_per_byte": 2.0})
        charged = costs.charge("sig_hash", nbytes=4)
        assert charged == 18.0

    def test_unknown_primitive_is_error(self):
        costs = CostModel(dict(UNIT))
        with pytest.raises(KeyError):
            costs.charge("not_a_primitive")

    def test_scopes_attribute_innermost(self):
        costs = CostModel(dict(UNIT))
        with costs.scope("outer"):
            costs.charge("ht_probe")
            with costs.scope("inner"):
                costs.charge("ht_probe")
        assert costs.scope_ns("outer") == 1
        assert costs.scope_ns("inner") == 1

    def test_reset_attribution_keeps_clock(self):
        costs = CostModel(dict(UNIT))
        costs.charge("ht_probe")
        costs.reset_attribution()
        assert costs.now_ns == 1
        assert costs.by_primitive == {}

    def test_charge_ns_raw(self):
        costs = CostModel(dict(UNIT))
        costs.charge_ns("compute", 123.0)
        assert costs.now_ns == 123.0

    def test_calibrated_covers_unit(self):
        assert set(UNIT) == set(CALIBRATED)

    def test_every_per_byte_has_base(self):
        for name in CALIBRATED:
            if name.endswith("_per_byte"):
                assert name[:-len("_per_byte")] in CALIBRATED


# -- integer time: charging is order-independent ---------------------------

_SCOPES = st.sampled_from([None, "init", "hash", "htlookup"])
_PRIMITIVES = st.sampled_from(["sig_hash", "ht_probe", "lru_touch",
                               "read_write_base", "disk_seek"])
_EVENT = st.one_of(
    st.tuples(st.just("charge"), _SCOPES, _PRIMITIVES,
              st.integers(1, 5), st.integers(0, 40)),
    st.tuples(st.just("charge_in"), _SCOPES.filter(bool), _PRIMITIVES,
              st.integers(1, 5), st.integers(0, 40)),
    st.tuples(st.just("charge_ns"), _SCOPES,
              st.sampled_from(["app_compute", "net_rpc"]),
              st.floats(0.01, 1e7, allow_nan=False), st.just(0)),
    st.tuples(st.just("charge_run"), _SCOPES.filter(bool), _PRIMITIVES,
              st.integers(1, 5), st.integers(0, 40)))
_EVENTS = st.lists(_EVENT, max_size=30)


def _charge(costs: CostModel, events) -> None:
    """Charge ``events`` one by one, each under its own scope."""
    for kind, scope, name, amount, nbytes in events:
        if kind == "charge_in":
            costs.charge_in(scope, name, times=amount, nbytes=nbytes)
        elif kind == "charge_run":  # ``name`` takes the bytes
            run = costs.run(((scope, name), ("miss", "lru_touch")), name)
            costs.charge_run(run.scaled(amount), nbytes)
        elif scope is None:
            (costs.charge(name, times=amount, nbytes=nbytes)
             if kind == "charge" else costs.charge_ns(name, amount))
        else:
            with costs.scope(scope):
                (costs.charge(name, times=amount, nbytes=nbytes)
                 if kind == "charge" else costs.charge_ns(name, amount))


def _state(costs: CostModel):
    return (costs.now_ns, costs.by_primitive, costs.by_scope,
            dict(costs.counts))


def vector_of(events):
    """The ChargeVector a recorder collects while ``events`` are charged."""
    costs = CostModel()
    with Recording(costs, Stats()) as rec:
        _charge(costs, events)
    return rec.vector


class TestIntegerTime:
    @given(st.data())
    def test_any_permutation_charges_the_same(self, data):
        events = data.draw(_EVENTS)
        shuffled = data.draw(st.permutations(events))
        one, other = CostModel(), CostModel()
        _charge(one, events)
        _charge(other, shuffled)
        assert _state(one) == _state(other)

    @given(_EVENTS)
    def test_apply_equals_charging_one_by_one(self, events):
        charged, applied = CostModel(), CostModel()
        _charge(charged, events)
        applied.apply(vector_of(events))
        assert _state(applied) == _state(charged)

    def test_rate_between_two_ticks_is_rejected(self):
        with pytest.raises(ValueError):
            CostModel({"ht_probe": 0.015})
        with pytest.raises(ValueError):
            CostModel({"sig_hash": 1.0, "sig_hash_per_byte": 0.015})
        assert CostModel({"ht_probe": 0.01}).charge("ht_probe") == 0.01

    def test_charge_ns_rounds_to_the_tick(self):
        costs = CostModel(dict(UNIT))
        costs.charge_ns("compute", 0.014)
        assert costs.now_ns == 0.01
        costs.charge_ns("compute", 0.016)
        assert costs.now_ns == 0.03
        assert costs.by_primitive == {"compute": 0.03}

    def test_every_shipped_rate_is_whole_ticks(self):
        CostModel(dict(CALIBRATED))
        CostModel(dict(UNIT))


_MEMBERS = st.lists(
    st.tuples(st.sampled_from(["init", "perm", "hash", "htlookup", "miss"]),
              st.sampled_from(sorted(CALIBRATED))),
    min_size=1, max_size=8)


class TestChargeRun:
    @given(st.data())
    def test_run_equals_one_charge_in_per_member(self, data):
        members = data.draw(_MEMBERS)
        per_byte = data.draw(st.one_of(
            st.none(), st.sampled_from([p for _s, p in members])))
        nbytes = data.draw(st.integers(0, 60)) if per_byte else 0
        times = data.draw(st.integers(1, 3))
        one, other = CostModel(), CostModel()
        with Recording(one, Stats()) as by_member:
            for _ in range(times):
                byte_left = nbytes
                for scope, primitive in members:
                    if primitive == per_byte:
                        one.charge_in(scope, primitive, nbytes=byte_left)
                        byte_left = 0
                    else:
                        one.charge_in(scope, primitive)
        run = other.run(members, per_byte)
        with Recording(other, Stats()) as by_run:
            for _ in range(times):
                other.charge_run(run, nbytes)
        assert _state(other) == _state(one)
        assert by_run.vector == by_member.vector
        assert by_run.vector.ticks == by_member.vector.ticks

    @given(st.data())
    def test_scaled_run_equals_k_charge_ins_per_member(self, data):
        """``charge_run(run.scaled(k), nbytes)``: ``k`` ``charge_in`` per
        member, plus the bytes on the byte member — for ``k = 1`` and a
        drawn ``k``, with or without a per-byte member."""
        members = data.draw(_MEMBERS)
        per_byte = data.draw(st.one_of(
            st.none(), st.sampled_from([p for _s, p in members])))
        nbytes = data.draw(st.integers(0, 200)) if per_byte else 0
        for k in (1, data.draw(st.integers(2, 40))):
            one, other = CostModel(), CostModel()
            with Recording(one, Stats()) as by_member:
                for _ in range(k):
                    for scope, primitive in members:
                        one.charge_in(scope, primitive)
                if nbytes:  # on the first member charging ``per_byte``
                    byte_scope = next(s for s, p in members if p == per_byte)
                    one.charge_in(byte_scope, per_byte, times=0,
                                  nbytes=nbytes)
            run = other.run(members, per_byte)
            with Recording(other, Stats()) as by_run:
                other.charge_run(run.scaled(k), nbytes)
            assert run.scaled(k) is run.scaled(k)
            assert _state(other) == _state(one)
            assert by_run.vector == by_member.vector
            assert by_run.vector.ticks == by_member.vector.ticks

    def test_unknown_member_and_foreign_per_byte_are_errors(self):
        costs = CostModel()
        with pytest.raises(KeyError):
            costs.run((("hash", "not_a_primitive"),))
        with pytest.raises(ValueError):
            costs.run((("hash", "ht_probe"),), "component_hash")


def _charge_and_count(costs: CostModel, stats: Stats, events) -> None:
    """:func:`_charge` plus one ``Stats`` bump per event, by kind."""
    for event in events:
        _charge(costs, [event])
        stats.bump(event[0], event[3] if event[0] != "charge_ns" else 1)


def _world(seed_events):
    """A cost model and stats that already hold ``seed_events``."""
    costs, stats = CostModel(), Stats()
    _charge_and_count(costs, stats, seed_events)
    return costs, stats


def _everything(costs: CostModel, stats: Stats):
    return _state(costs) + (stats.snapshot(),)


class TestRecordingSwap:
    """A :class:`Recording` charges into tables of its own and folds
    them back on exit; the world outside must never tell."""

    @given(_EVENTS, _EVENTS)
    def test_raise_inside_a_recording_folds_back(self, before, events):
        plain, recorded = _world(before), _world(before)
        for (costs, stats), recording in ((plain, False), (recorded, True)):
            with pytest.raises(RuntimeError):
                if recording:
                    with Recording(costs, stats):
                        _charge_and_count(costs, stats, events)
                        raise RuntimeError
                _charge_and_count(costs, stats, events)
                raise RuntimeError
            assert costs.recorder is None
        assert _everything(*recorded) == _everything(*plain)

    @given(_EVENTS, _EVENTS, _EVENTS, _EVENTS)
    def test_nested_recording_folds_into_the_outer(self, before, first,
                                                   inner, last):
        nested, flat, plain = _world(before), _world(before), _world(before)
        costs, stats = nested
        with Recording(costs, stats) as outer:
            _charge_and_count(costs, stats, first)
            with Recording(costs, stats) as rec:
                _charge_and_count(costs, stats, inner)
            assert costs.recorder is outer
            _charge_and_count(costs, stats, last)
        costs, stats = flat
        with Recording(costs, stats) as whole:
            _charge_and_count(costs, stats, first + inner + last)
        _charge_and_count(*plain, first + inner + last)
        assert outer.vector == whole.vector
        assert outer.stat_deltas == whole.stat_deltas
        assert rec.vector == vector_of(inner)
        assert _everything(*nested) == _everything(*plain)
        assert _everything(*flat) == _everything(*plain)

    def test_recorded_tables_are_the_run_alone(self):
        costs, stats = _world([("charge", None, "ht_probe", 2, 0)])
        stats.bump("lookup")
        start = costs.clock.capture_state()
        with Recording(costs, stats) as rec:
            costs.charge_in("hash", "sig_hash", nbytes=3)
            stats.bump("lookup")
            assert costs.counts == {"sig_hash": 1}
            assert stats.get("lookup") == 1
            assert costs.clock.capture_state() > start  # the real clock
        assert rec.stat_deltas == {"lookup": 1}
        assert rec.vector.ticks == costs.clock.capture_state() - start
        assert costs.counts == {"ht_probe": 2, "sig_hash": 1}
        assert stats.get("lookup") == 2


def _eager_charge_run(self, run, nbytes=0):
    """``CostModel.charge_run`` as it was before runs were counted as
    pending: every table updated at once (the reference below)."""
    ticks = run.ticks
    by_scope = self._by_scope
    for scope, scope_ticks in run.scopes:
        try:
            by_scope[scope] += scope_ticks
        except KeyError:
            by_scope[scope] = scope_ticks
    if nbytes:
        extra = run.byte_rate * nbytes
        ticks += extra
        byte_scope, byte_primitive, _ticks = run.members[run.byte_at]
        by_scope[byte_scope] += extra
        totals = self._nbytes
        totals[byte_primitive] = totals.get(byte_primitive, 0) + nbytes
    self.clock._ticks += ticks
    counts = self._counts
    times = run.times
    for primitive in run.primitives:
        try:
            counts[primitive] += times
        except KeyError:
            counts[primitive] = times


class _EagerCostModel(CostModel):
    charge_run = _eager_charge_run


#: A program: charges, reads, and recordings (nested, some raising)
#: holding programs of their own.
_STEP = st.recursive(
    st.one_of(_EVENT, st.just(("read",))),
    lambda inner: st.tuples(st.just("recording"), st.lists(inner, max_size=8),
                            st.booleans()),
    max_leaves=12)
_PROGRAM = st.lists(_STEP, max_size=25)


class _Raised(Exception):
    pass


def _tables(costs: CostModel):
    """Everything a reader can see; ``counts`` first, which folds."""
    counts = dict(costs.counts)
    return (costs.now_ns, counts, costs.by_scope, costs.by_primitive,
            dict(costs._nbytes))


def _run_program(costs: CostModel, program, runs, seen, vectors) -> None:
    """Execute ``program``, sharing one priced run per ``(scope,
    primitive)`` so the pending table counts repeats; every read goes
    to ``seen``, every recording's vector to ``vectors``."""
    for step in program:
        if step[0] == "read":
            seen.append(_tables(costs))
        elif step[0] == "recording":
            _kind, inner, raises = step
            rec = Recording(costs, Stats())
            try:
                with rec:
                    _run_program(costs, inner, runs, seen, vectors)
                    if raises:
                        raise _Raised
            except _Raised:
                pass
            vectors.append(rec.vector)
        elif step[0] == "charge_run":
            _kind, scope, name, amount, nbytes = step
            run = runs.get((scope, name))
            if run is None:
                run = runs[scope, name] = costs.run(
                    ((scope, name), ("miss", "lru_touch")), name)
            costs.charge_run(run if amount == 1 else run.scaled(amount),
                             nbytes)
        else:
            _charge(costs, [step])


class TestDeferredAttribution:
    """``charge_run`` advances the clock at once and counts its run as
    pending; every reader folds first, a recording swaps pending tables
    in and folds its own on exit."""

    @given(_PROGRAM)
    def test_interleaving_equals_the_eager_reference(self, program):
        deferred, eager = CostModel(), _EagerCostModel()
        seen, reference = [], []
        vectors, ref_vectors = [], []
        _run_program(deferred, program, {}, seen, vectors)
        _run_program(eager, program, {}, reference, ref_vectors)
        assert seen == reference
        assert vectors == ref_vectors
        assert [v.ticks for v in vectors] == [v.ticks for v in ref_vectors]
        assert _tables(deferred) == _tables(eager)

    def test_every_reader_sees_the_runs_charged_so_far(self):
        costs = CostModel(dict(UNIT))
        run = costs.run((("hash", "sig_hash"), ("miss", "lru_touch")),
                        "sig_hash")
        costs.charge_run(run, 2)
        assert costs.now_ns == 2 + 2 and costs.count("lru_touch") == 1
        costs.charge_run(run.scaled(3))
        assert costs.counts == {"sig_hash": 4, "lru_touch": 4}
        costs.charge_run(run)
        assert costs.scope_ns("miss") == 5
        costs.charge_run(run, 1)
        assert costs.by_scope == {"hash": 6 + 3, "miss": 6}
        costs.charge_run(run)
        assert costs.by_primitive == {"sig_hash": 7 + 3, "lru_touch": 7}
        costs.charge_run(run)
        with Recording(costs, Stats()) as rec:
            costs.charge_run(run, 4)
            assert costs.counts == {"sig_hash": 1, "lru_touch": 1}
            costs.charge_run(run)  # read first after the recording
        assert rec.vector.counts == {"sig_hash": 2, "lru_touch": 2}
        assert rec.vector.nbytes == {"sig_hash": 4}
        assert costs.counts == {"sig_hash": 10, "lru_touch": 10}
        costs.charge_run(run)
        costs.reset_attribution()
        assert costs.counts == {} and costs.by_scope == {}
        assert costs.now_ns == 29


class TestStats:
    def test_bump_and_get(self):
        stats = Stats()
        stats.bump("lookup")
        stats.bump("lookup", 2)
        assert stats.get("lookup") == 3

    def test_missing_counter_is_zero(self):
        assert Stats().get("nothing") == 0

    def test_hit_rate_no_lookups(self):
        assert Stats().hit_rate() == 1.0

    def test_hit_rate(self):
        stats = Stats()
        stats.bump("lookup", 10)
        stats.bump("fs_lookup", 3)
        assert stats.hit_rate() == pytest.approx(0.7)

    def test_negative_rate(self):
        stats = Stats()
        stats.bump("lookup", 4)
        stats.bump("negative_hit", 1)
        assert stats.negative_rate() == 0.25

    def test_reset(self):
        stats = Stats()
        stats.bump("x")
        stats.reset()
        assert stats.get("x") == 0

    def test_snapshot_is_copy(self):
        stats = Stats()
        stats.bump("x")
        snap = stats.snapshot()
        stats.bump("x")
        assert snap["x"] == 1


class TestConcurrencyModel:
    def test_read_curve_flat(self):
        curve = read_latency_curve(1000.0, 12)
        assert len(curve) == 12
        assert curve[0] == 1000.0
        assert curve[-1] <= 1100.0  # ≤10% growth at 12 threads

    def test_read_curve_monotonic(self):
        curve = read_latency_curve(500.0, 8)
        assert all(a <= b for a, b in zip(curve, curve[1:]))

    def test_writer_curve_contends(self):
        curve = writer_latency_curve(10_000.0, 12)
        assert curve[0] == 10_000.0
        assert curve[-1] > 5 * curve[0]

    def test_custom_params(self):
        params = ScalingParams(read_coherence_factor=0.0)
        curve = read_latency_curve(100.0, 4, params)
        assert curve == [100.0] * 4
