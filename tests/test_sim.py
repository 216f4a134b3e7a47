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
              st.floats(0.01, 1e7, allow_nan=False), st.just(0)))
_EVENTS = st.lists(_EVENT, max_size=30)


def _charge(costs: CostModel, events) -> None:
    """Charge ``events`` one by one, each under its own scope."""
    for kind, scope, name, amount, nbytes in events:
        if kind == "charge_in":
            costs.charge_in(scope, name, times=amount, nbytes=nbytes)
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
