"""Unit tests for the simulation substrate: clock, costs, stats."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.pcc import PrefixCheckCache
from repro.sim.clock import Clock
from repro.sim.concurrency import (ScalingParams, read_latency_curve,
                                   writer_latency_curve)
from repro.sim.costs import (CALIBRATED, UNIT, ChargeVector, CostModel,
                              Recording)
from repro.sim.stats import Stats
from repro.vfs.dentry import Dentry


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now_ns == 0


class TestCostModel:
    def test_charge_advances_clock(self):
        costs = CostModel(dict(UNIT))
        costs.charge("ht_probe")
        assert costs.now_ns == 1

    def test_negative_charge_ns_rejected(self):
        """The clock cannot run backwards: a negative raw charge raises
        and leaves the clock and the tables as they were."""
        costs = CostModel(dict(UNIT))
        costs.charge("ht_probe")
        costs.charge_ns("app_compute", 2.5)
        now, by_primitive = costs.now_ns, costs.by_primitive
        with pytest.raises(ValueError):
            costs.charge_ns("app_compute", -1)
        assert costs.now_ns == now == 3.5
        assert costs.by_primitive == by_primitive

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

    def test_per_byte_rate_is_no_primitive(self):
        """A ``_per_byte`` rate only prices bytes: charging it by name,
        or pricing it as a member, is a typo like any other."""
        costs = CostModel()
        with pytest.raises(KeyError):
            costs.charge("sig_hash_per_byte", 3)
        with pytest.raises(KeyError):
            costs.run((("hash", "component_hash_per_byte"),))
        assert costs.now_ns == 0 and costs.counts == {}
        assert costs.by_primitive == {}

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
#: ``apply_one`` / ``apply_two`` apply a vector priced from ``(scope,
#: name)`` alone or with ``("miss", "lru_touch")``, ``amount`` times over,
#: ``name`` taking the bytes.
_EVENT = st.one_of(
    st.tuples(st.just("charge"), _SCOPES, _PRIMITIVES,
              st.integers(1, 5), st.integers(0, 40)),
    st.tuples(st.just("apply_one"), _SCOPES.filter(bool), _PRIMITIVES,
              st.integers(1, 5), st.integers(0, 40)),
    st.tuples(st.just("charge_ns"), _SCOPES,
              st.sampled_from(["app_compute", "net_rpc"]),
              st.floats(0.01, 1e7, allow_nan=False), st.just(0)),
    st.tuples(st.just("apply_two"), _SCOPES.filter(bool), _PRIMITIVES,
              st.integers(1, 5), st.integers(0, 40)))
_EVENTS = st.lists(_EVENT, max_size=30)


def _charge(costs: CostModel, events) -> None:
    """Charge ``events`` one by one, each under its own scope."""
    for kind, scope, name, amount, nbytes in events:
        if kind.startswith("apply"):
            members = ((scope, name),)
            if kind == "apply_two":
                members += (("miss", "lru_touch"),)
            costs.apply(costs.run(members, name), amount, nbytes)
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


#: Members of a priced vector: per-call primitives (a ``_per_byte``
#: rate is none).
_MEMBERS = st.lists(
    st.tuples(st.sampled_from(["init", "perm", "hash", "htlookup", "miss"]),
              st.sampled_from(sorted(name for name in CALIBRATED
                                     if not name.endswith("_per_byte")))),
    min_size=1, max_size=8)


class TestChargeRun:
    """A priced run, ``run(members, per_byte)``, charged by ``apply``:
    ``k`` charges per member, each in its scope, and the bytes on the
    byte member."""

    @given(st.data())
    def test_run_equals_one_charge_in_per_member(self, data):
        """Each ``apply(vector, 1, nbytes)`` equals one scoped charge per
        member, the bytes on the first member charging ``per_byte``."""
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
                    with one.scope(scope):
                        if primitive == per_byte:
                            one.charge(primitive, nbytes=byte_left)
                            byte_left = 0
                        else:
                            one.charge(primitive)
        vector = other.run(members, per_byte)
        with Recording(other, Stats()) as by_vector:
            for _ in range(times):
                other.apply(vector, 1, nbytes)
        assert _state(other) == _state(one)
        assert by_vector.vector == by_member.vector
        assert by_vector.vector.ticks == by_member.vector.ticks

    @given(st.data())
    def test_scaled_run_equals_k_charge_ins_per_member(self, data):
        """``apply(vector, k, nbytes)``: ``k`` scoped charges per member,
        plus the bytes on the byte member, for ``k = 1`` and a drawn
        ``k``, with or without a per-byte member: the clock, every table
        and a recording's vector."""
        members = data.draw(_MEMBERS)
        per_byte = data.draw(st.one_of(
            st.none(), st.sampled_from([p for _s, p in members])))
        nbytes = data.draw(st.integers(0, 200)) if per_byte else 0
        for k in (1, data.draw(st.integers(2, 40))):
            one, other = CostModel(), CostModel()
            with Recording(one, Stats()) as by_member:
                for _ in range(k):
                    for scope, primitive in members:
                        with one.scope(scope):
                            one.charge(primitive)
                if nbytes:  # on the first member charging ``per_byte``
                    byte_scope = next(s for s, p in members if p == per_byte)
                    with one.scope(byte_scope):
                        one.charge(per_byte, times=0, nbytes=nbytes)
            with Recording(other, Stats()) as by_vector:
                other.apply(other.run(members, per_byte), k, nbytes)
            assert _state(other) == _state(one)
            assert by_vector.vector == by_member.vector
            assert by_vector.vector.ticks == by_member.vector.ticks


class TestPricedVector:
    """How ``run`` prices a vector and what ``apply`` refuses."""

    def test_unknown_member_and_foreign_per_byte_are_errors(self):
        costs = CostModel()
        with pytest.raises(KeyError):
            costs.run((("hash", "not_a_primitive"),))
        with pytest.raises(ValueError):
            costs.run((("hash", "ht_probe"),), "component_hash")

    def test_equal_arguments_price_one_vector(self):
        """``run`` keeps one vector per ``(charges, per_byte)``, so a
        PCC per credential adds one pending key, not one each."""
        costs = CostModel(dict(UNIT))
        members = (("hash", "sig_hash"), ("miss", "lru_touch"))
        vector = costs.run(members, "sig_hash")
        assert costs.run(list(members), "sig_hash") is vector
        assert costs.run(members) is not vector
        pccs = [PrefixCheckCache(costs, Stats()) for _ in range(100)]
        dentry = Dentry("d", None, None)
        for pcc in pccs:
            assert not pcc.probe(dentry)
        assert len(costs._pending_vectors) == 1
        assert costs.counts == {"pcc_probe": 100}
        assert costs.by_scope == {"perm": 100}

    def test_bytes_without_a_per_byte_member_raise_before_anything_moves(
            self):
        costs = CostModel()
        vector = costs.run((("hash", "ht_probe"),))
        costs.apply(vector, 2)
        before = (costs.clock._ticks, dict(costs._counts),
                  dict(costs._by_scope), dict(costs._nbytes),
                  dict(costs._pending_vectors))
        with pytest.raises(ValueError):
            costs.apply(vector, 1, 5)
        assert (costs.clock._ticks, dict(costs._counts),
                dict(costs._by_scope), dict(costs._nbytes),
                dict(costs._pending_vectors)) == before


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
            costs.apply(costs.run((("hash", "sig_hash"),), "sig_hash"),
                        1, 3)
            stats.bump("lookup")
            assert costs.counts == {"sig_hash": 1}
            assert stats.get("lookup") == 1
            assert costs.clock.capture_state() > start  # the real clock
        assert rec.stat_deltas == {"lookup": 1}
        assert rec.vector.ticks == costs.clock.capture_state() - start
        assert costs.counts == {"ht_probe": 2, "sig_hash": 1}
        assert stats.get("lookup") == 2


def _eager_apply(self, vector, times=1, nbytes=0):
    """``CostModel.apply`` as it was before vectors were counted as
    pending: every table updated at once (the reference below)."""
    ticks = vector.ticks * times
    if nbytes:
        scope, primitive, rate = vector.per_byte
        ticks += rate * nbytes
        self._by_scope[scope] = self._by_scope.get(scope, 0) + rate * nbytes
        self._nbytes[primitive] = self._nbytes.get(primitive, 0) + nbytes
    for table, delta in ((self._counts, vector.counts),
                         (self._by_scope, vector.by_scope),
                         (self._nbytes, vector.nbytes),
                         (self._raw, vector.raw)):
        if delta:
            get = table.get
            for key, value in delta.items():
                table[key] = get(key, 0) + value * times
    self.clock._ticks += ticks


class _EagerCostModel(CostModel):
    apply = _eager_apply


#: The recorded vectors a ``replay`` step applies: bytes, raw time, a
#: scope-less charge, a priced vector, and nothing at all.
_STORED = (
    vector_of([("apply_one", "hash", "sig_hash", 2, 5),
               ("charge_ns", "init", "app_compute", 12.5, 0)]),
    vector_of([("charge", None, "ht_probe", 3, 0),
               ("apply_two", "miss", "disk_seek", 1, 0)]),
    vector_of([("apply_two", "htlookup", "read_write_base", 2, 17),
               ("charge_ns", None, "net_rpc", 0.37, 0)]),
    vector_of([]),
)


def _copy(vector: ChargeVector) -> ChargeVector:
    """An equal vector that is another object (another pending key)."""
    copy = ChargeVector()
    copy.counts.update(vector.counts)
    copy.nbytes.update(vector.nbytes)
    copy.raw.update(vector.raw)
    copy.by_scope.update(vector.by_scope)
    copy.ticks = vector.ticks
    return copy


#: Replay stored vector ``i`` ``times`` over, then ``copies`` distinct
#: equal ones once each: one or two steps apply more distinct vectors
#: than the pending bound (about a third of the programs fold a full
#: table).
_REPLAY = st.tuples(st.just("replay"), st.integers(0, len(_STORED) - 1),
                    st.integers(1, 3), st.integers(0, 80))

#: A program: charges (priced vectors among them), replays, reads, and
#: recordings (nested, some raising) holding programs of their own.
_STEP = st.recursive(
    st.one_of(_EVENT, _REPLAY, st.just(("read",))),
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


def _run_program(costs: CostModel, program, seen, vectors) -> None:
    """Execute ``program``; every read goes to ``seen``, every
    recording's vector to ``vectors``.  ``run`` prices equal members
    once, so the pending table counts repeats of one priced vector."""
    for step in program:
        if step[0] == "read":
            seen.append(_tables(costs))
        elif step[0] == "recording":
            _kind, inner, raises = step
            rec = Recording(costs, Stats())
            try:
                with rec:
                    _run_program(costs, inner, seen, vectors)
                    if raises:
                        raise _Raised
            except _Raised:
                pass
            vectors.append(rec.vector)
        elif step[0] == "replay":
            _kind, index, times, copies = step
            costs.apply(_STORED[index], times)
            for _ in range(copies):
                costs.apply(_copy(_STORED[index]))
        else:
            _charge(costs, [step])


class TestDeferredAttribution:
    """``apply`` advances the clock and the byte totals at once and
    counts its vector as pending; every reader folds first, a recording
    swaps the pending table in and folds its own on exit."""

    @given(_PROGRAM)
    def test_interleaving_equals_the_eager_reference(self, program):
        deferred, eager = CostModel(), _EagerCostModel()
        seen, reference = [], []
        vectors, ref_vectors = [], []
        _run_program(deferred, program, seen, vectors)
        _run_program(eager, program, reference, ref_vectors)
        assert seen == reference
        assert vectors == ref_vectors
        assert [v.ticks for v in vectors] == [v.ticks for v in ref_vectors]
        assert _tables(deferred) == _tables(eager)

    def test_every_reader_sees_the_runs_charged_so_far(self):
        costs = CostModel(dict(UNIT))
        run = costs.run((("hash", "sig_hash"), ("miss", "lru_touch")),
                        "sig_hash")
        costs.apply(run, 1, 2)
        assert costs.now_ns == 2 + 2 and costs.count("lru_touch") == 1
        costs.apply(run, 3)
        assert costs.counts == {"sig_hash": 4, "lru_touch": 4}
        costs.apply(run)
        assert costs.scope_ns("miss") == 5
        costs.apply(run, 1, 1)
        assert costs.by_scope == {"hash": 6 + 3, "miss": 6}
        costs.apply(run)
        assert costs.by_primitive == {"sig_hash": 7 + 3, "lru_touch": 7}
        costs.apply(run)
        with Recording(costs, Stats()) as rec:
            costs.apply(run, 1, 4)
            assert costs.counts == {"sig_hash": 1, "lru_touch": 1}
            costs.apply(run)  # read first after the recording
        assert rec.vector.counts == {"sig_hash": 2, "lru_touch": 2}
        assert rec.vector.nbytes == {"sig_hash": 4}
        assert costs.counts == {"sig_hash": 10, "lru_touch": 10}
        costs.apply(run)
        costs.reset_attribution()
        assert costs.counts == {} and costs.by_scope == {}
        assert costs.now_ns == 29

    def test_pending_vectors_stay_bounded_and_exits_stay_eager(self):
        """Without a reader, the pending table fills to
        ``MAX_PENDING_VECTORS`` vectors and never past it, and a
        recording's exit adds its tables at once: its own vector is
        pending nowhere, inside another recording or at top level."""
        deferred, eager = CostModel(), _EagerCostModel()
        sizes = []
        for i in range(3 * CostModel.MAX_PENDING_VECTORS):
            vector = _copy(_STORED[i % len(_STORED)])
            deferred.apply(vector)
            eager.apply(vector)
            sizes.append(len(deferred._pending_vectors))
        assert max(sizes) == CostModel.MAX_PENDING_VECTORS
        with Recording(deferred, Stats()) as outer:
            deferred.apply(_STORED[0])
            with Recording(deferred, Stats()) as inner:
                deferred.apply(_STORED[1])
            assert deferred._pending_vectors == {_STORED[0]: 1}
        assert all(v is not outer.vector and v is not inner.vector
                   for v in deferred._pending_vectors)
        eager.apply(_STORED[0])
        eager.apply(_STORED[1])
        assert _tables(deferred) == _tables(eager)


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
