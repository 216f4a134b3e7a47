"""Tests of the end-to-end benchmark harness itself.

Run explicitly — ``pytest benchmarks/e2e -q`` — they are not part of
tier-1 (``testpaths = ["tests"]``): the smoke runs launch a few dozen
child processes and take most of a minute.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import compare  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SCALE = "0.05"


def run_py(*args: str, env=None, timeout: int = 170):
    merged = {k: v for k, v in os.environ.items()
              if not k.startswith("REPRO_")}
    merged.update(env or {})
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
        env=merged, capture_output=True, text=True, timeout=timeout)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke():
    """Two same-seed untraced smoke runs of all four workloads."""
    start = time.perf_counter()
    first = last_json(run_py("--scale", SMOKE_SCALE, "--seed", "7"))
    elapsed = time.perf_counter() - start
    second = last_json(run_py("--scale", SMOKE_SCALE, "--seed", "7"))
    return first["runs"][0], second["runs"][0], elapsed


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced smoke run of all four workloads, kept on disk."""
    out = tmp_path_factory.mktemp("traced")
    doc = last_json(run_py("--scale", SMOKE_SCALE, "--seed", "7",
                           "--trace", "1", "--out", str(out)))
    return doc["runs"][0], out


# -- the manifest -----------------------------------------------------------

def test_manifest_matches_declarations():
    for section, declared in (("end_to_end", metrics.END_TO_END),
                              ("per_layer", metrics.PER_LAYER)):
        listed = {(m["name"], m["unit"], m["better"])
                  for m in MANIFEST[section]}
        assert listed == {(m.name, m.unit, m.better) for m in declared}
    assert {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]} \
        == {m.name: m.bound for m in metrics.END_TO_END}
    assert [w["name"] for w in MANIFEST["workloads"]] == list(gen.WORKLOADS)
    assert MANIFEST["run_seconds"] == gen.PARAMS["run_seconds"]
    assert MANIFEST["paths"] == ["benchmarks/e2e"]


def test_manifest_respects_the_contract_limits():
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    names += [w["name"] for w in MANIFEST["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in MANIFEST["workloads"])


# -- inputs -------------------------------------------------------------------

@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(workload):
    one = gen.digest(gen.make_inputs(workload, 5, 0.05, windows=3))
    again = gen.digest(gen.make_inputs(workload, 5, 0.05, windows=3))
    other = gen.digest(gen.make_inputs(workload, 6, 0.05, windows=3))
    assert one == again
    assert one != other


def test_churn_pass_is_about_a_third_mutating():
    steps = gen.make_inputs("churn", 1)["windows"][0]
    assert 0.25 <= gen.mutating_steps(steps) / len(steps) <= 0.35


# -- the smoke runs -----------------------------------------------------------

def test_smoke_runs_all_four_workloads_quickly(smoke):
    first, _second, elapsed = smoke
    assert list(first["workloads"]) == list(gen.WORKLOADS)
    assert elapsed < 30, f"smoke took {elapsed:.1f}s"
    for workload, doc in first["workloads"].items():
        assert doc["correct"], (workload, doc["notes"])
        assert doc["failed_share"] == 0
    assert first["seed"] == 7 and first["params"] == gen.PARAMS


def test_untraced_run_emits_exactly_the_declared_end_to_end(smoke):
    declared = {m["name"] for m in MANIFEST["end_to_end"]}
    for doc in smoke[0]["workloads"].values():
        assert set(doc["end_to_end"]) == declared
        assert all(value > 0 for value in doc["end_to_end"].values())


def test_virtual_metrics_repeat_exactly_at_one_seed(smoke):
    first, second, _elapsed = smoke
    for workload in gen.WORKLOADS:
        a = first["workloads"][workload]
        b = second["workloads"][workload]
        assert a["input_digest"] == b["input_digest"]
        for name, value in a["end_to_end"].items():
            if metrics.BY_NAME[name].clock == "virt":
                assert value == b["end_to_end"][name], (workload, name)


def test_traced_run_emits_exactly_the_declared_per_layer(traced):
    declared = {m["name"] for m in MANIFEST["per_layer"]}
    run, _out = traced
    for workload, doc in run["workloads"].items():
        assert set(doc["per_layer"]) == declared, workload
        assert doc["correct"], (workload, doc["notes"])


def test_layers_show_where_the_issue_said_they_would(traced):
    layers = {w: doc["per_layer"]
              for w, doc in traced[0]["workloads"].items()}
    for profile in gen.PROFILES:
        assert layers["cold_scan"][f"resmemo.hit_ratio.{profile}"] < 0.01
        assert layers["cold_scan"][
            f"plans.applied_per_replay_call.{profile}"] == 0
        # (At full scale a full PCC flushes the memo on optimized*.)
        assert layers["warm_lookup"][f"resmemo.hit_ratio.{profile}"] > 0.3
        assert layers["fleet_replay"][
            f"plans.applied_per_replay_call.{profile}"] > 0
    assert layers["churn"][
        "coherence.inval_dentries_per_mutation.optimized"] > 0
    assert layers["churn"][
        "coherence.inval_dentries_per_mutation.optimized-lazy"] == 0
    assert layers["churn"]["virt.scope.lazy.ns_per_op.optimized-lazy"] > 0


def test_trace_file_loads_and_spans_nest(traced):
    _run, out = traced
    events = json.loads((out / "trace.json").read_text())["traceEvents"]
    spans_x = [e for e in events if e["ph"] == "X"]
    assert spans_x and all(e["dur"] >= 0 for e in spans_x)
    names = {e["name"] for e in spans_x}
    assert {"make_kernel", "drain_fleet", "replay_compiled", "drop_caches",
            "stat", "window"} <= names
    results = json.loads((out / "results.json").read_text())
    assert results["runs"][0]["workloads"]["churn"]["self_time_s"]


# -- guards -------------------------------------------------------------------

def test_leaked_switches_and_unknown_names_exit_2():
    leaked = run_py("--workload", "churn", "--scale", SMOKE_SCALE,
                    env={"REPRO_CHARGE_PLANS": "0"})
    assert leaked.returncode == 2 and "REPRO_CHARGE_PLANS" in leaked.stderr
    for flag in ("--workload", "--profile"):
        assert run_py(flag, "nonesuch").returncode == 2


def test_contract_form_ends_with_the_result_object():
    proc = run_py("--workload", "cold_scan", "--seed", "3", "--seconds",
                  "1", "--trace", "0", "--scale", SMOKE_SCALE)
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"]
                                      for m in MANIFEST["end_to_end"]}


def test_default_children_build_plain_make_kernel(monkeypatch):
    import adapters
    seen = []
    real = adapters.make_kernel
    monkeypatch.setattr(
        adapters, "make_kernel",
        lambda profile, **options: seen.append(options)
        or real(profile, **options))
    inputs = gen.make_inputs("churn", 3, 0.05, windows=1)
    for config in ("default", "memo_off"):
        adapters.StepAdapter(inputs, "optimized",
                             adapters.CONFIGS[config]).build(spans.NULL)
    assert seen == [{}, {"resolution_memo": False}]


def test_vacuity_guard_fires_when_the_memo_never_hits(monkeypatch):
    import adapters
    assert adapters.invisibility("warm_lookup", "optimized", 3)["ok"]
    monkeypatch.setitem(adapters.CONFIGS, "default",
                        adapters.CONFIGS["memo_off"])
    check = adapters.invisibility("warm_lookup", "optimized", 3)
    assert check["vacuous"] and not check["ok"]


def test_one_wrong_charge_on_one_profile_fails_every_op(monkeypatch):
    import adapters
    from repro.core.resmemo import ResolutionMemo
    honest = ResolutionMemo._replay

    def overcharging(self, entry):
        self.costs.charge("lookup_init")
        return honest(self, entry)

    monkeypatch.setattr(ResolutionMemo, "_replay", overcharging)
    check = adapters.invisibility("warm_lookup", "baseline", 3)
    assert not check["ok"] and not check["vacuous"] and check["diffs"]
    child = _fake_child("baseline", ["stat=ok"])
    child["invisibility"] = check
    verdict = metrics.judge({"baseline": child})
    assert verdict["failed"] == verdict["attempted"] > 0
    assert not verdict["correct"]


def test_one_wrong_outcome_on_one_profile_is_a_failed_op(monkeypatch):
    import child
    from repro.vfs.syscalls import Syscalls
    spec = {"workload": "warm_lookup", "seed": 3, "scale": 0.05,
            "windows": 2, "traced": False, "config": "default",
            "verify": True}
    baseline = child.run({**spec, "profile": "baseline"})
    # Users may not write root's files; this profile now says they may.
    monkeypatch.setattr(Syscalls, "access",
                        lambda self, task, path, mask: None)
    optimized = child.run({**spec, "profile": "optimized"})
    verdict = metrics.judge({"baseline": baseline, "optimized": optimized})
    assert 0 < verdict["failed"] < verdict["attempted"]
    assert not verdict["correct"]
    assert "differ from baseline" in verdict["notes"][0]


def test_a_window_that_raises_fails_its_ops():
    child = _fake_child("baseline", ["stat=ok"])
    child["planned_windows"] = 3
    child["errors"] = [{"window": 1, "error": "ReplayDivergence"}]
    verdict = metrics.judge({"baseline": child})
    assert verdict["attempted"] == 30 and verdict["failed"] == 20


def test_a_verify_phase_that_raises_fails_the_profile():
    crashed = _fake_child("optimized", ["stat=ok"])
    del crashed["outcomes"], crashed["invisibility"]
    crashed["errors"] = [{"window": None, "error": "ReplayDivergence"}]
    verdict = metrics.judge({"baseline": _fake_child("baseline", ["stat=ok"]),
                             "optimized": crashed})
    assert verdict["attempted"] == 20 and verdict["failed"] == 10
    assert not verdict["correct"]
    # So does a verify phase that left one of its results out.
    silent = _fake_child("baseline", ["stat=ok"])
    del silent["invisibility"]
    assert not metrics.judge({"baseline": silent})["correct"]


def test_a_crash_in_the_real_verify_phase_is_not_a_pass(monkeypatch):
    import adapters
    import child

    def boom(*_args):
        raise RuntimeError("verify crashed")

    monkeypatch.setattr(adapters, "invisibility", boom)
    result = child.run({"workload": "churn", "seed": 3, "scale": 0.05,
                        "windows": 2, "traced": False, "config": "default",
                        "verify": True, "profile": "baseline"})
    assert result["errors"][0]["window"] is None
    verdict = metrics.judge({"baseline": result})
    assert verdict["failed"] == verdict["attempted"] > 0
    assert not verdict["correct"]


def test_cross_check_fails_unlisted_differences_and_notes_listed_ones():
    def family(delta):
        default = _fake_child("optimized", [])
        off = _fake_child("optimized", [])
        off["windows"][0]["charges"] += delta
        return {"optimized": {"default": default, "memo_off": off}}

    assert metrics.cross_check("churn", family(0)) \
        == {"failed": 0, "notes": []}
    unlisted = metrics.cross_check("churn", family(3))
    assert unlisted["failed"] == 10 and "window 0" in unlisted["notes"][0]
    listed = metrics.cross_check("warm_lookup", family(3))
    assert listed["failed"] == 0
    assert "expected failure:" in listed["notes"][0]
    gone = metrics.cross_check("warm_lookup", family(0))
    assert gone["failed"] == 0 and "did not occur" in gone["notes"][0]
    broken = family(0)
    broken["optimized"]["memo_off"]["errors"] = [{"window": 0, "error": "x"}]
    assert metrics.cross_check("churn", broken)["failed"] == 10


def _fake_child(profile: str, outcomes: list) -> dict:
    return {"workload": "churn", "profile": profile, "traced": False,
            "input_digest": "x", "errors": [],
            "planned_windows": 1, "outcomes": outcomes,
            "invisibility": {"ok": True, "vacuous": False, "diffs": []},
            "setup_virt": {"now_ns": 5.0, "charges": 7},
            "windows": [{"ops": 10, "seconds": 0.1, "virt_ns": 1.0,
                         "mutations": 0, "charges": 1, "traced": False}]}


# -- spans --------------------------------------------------------------------

def test_span_self_times_sum_to_their_parents():
    rec = spans.Recorder()
    leaf = rec.wrap("leaf", lambda: sum(range(2000)), "path")
    with rec.span("root"):
        with rec.span("left"):
            leaf()
            leaf()
        with rec.span("right"):
            leaf()
    rows, self_ns = rec.spans, spans.self_times(rec.spans)
    for index, row in enumerate(rows):
        children = sum(r[spans.END] - r[spans.START] for r in rows
                       if r[spans.PARENT] == index)
        assert self_ns[index] + children == row[spans.END] - row[spans.START]
        assert self_ns[index] >= 0
    assert sum(self_ns) == rows[0][spans.END] - rows[0][spans.START]
    assert [r[spans.PARENT] for r in rows if r[spans.NAME] == "leaf"] \
        == [1, 1, 4]
    assert spans.NULL.wrap("x", leaf, "path") is leaf


# -- compare ------------------------------------------------------------------

def _runs(values, name="cpu_s", seeds=None):
    seeds = seeds or [1] * len(values)
    return [{"seed": seed, "workloads": {"w": {
        "end_to_end": {name: value}, "failed_share": 0.0}}}
        for seed, value in zip(seeds, values)]


def _verdict(a, b, name="cpu_s", bound=0.10):
    by_seed = [compare._by_seed(runs, "w", name) for runs in (a, b)]
    return compare.verdict(name, *by_seed, bound)[0]


def test_compare_verdicts():
    steady = _runs([10.0, 10.1, 9.9, 10.0, 10.05])
    assert _verdict(steady, _runs([10.2, 10.1, 10.3, 10.2, 10.25])) == "same"
    assert _verdict(steady, _runs([13.0, 13.1, 12.9, 13.0, 13.2])) == "worse"
    assert _verdict(steady, _runs([7.0, 7.1, 6.9, 7.0, 7.2])) == "better"
    noisy_a = _runs([8.0, 10.0, 12.0, 14.0, 16.0])
    noisy_b = _runs([10.0, 12.0, 14.0, 16.0, 18.0])
    assert _verdict(noisy_a, noisy_b) == "unresolved"
    # The absolute floor (0.5 s for cpu_s) outranks a small share.
    assert _verdict(_runs([1.0]), _runs([1.4])) == "same"
    # A higher-is-better metric reads the other way round.
    name = "ops_per_s.baseline"
    assert _verdict(_runs([100.0], name), _runs([70.0], name), name) == "worse"


def test_compare_holds_virtual_metrics_to_exact_repeats():
    name = "virt_ns_per_op.optimized"
    a = _runs([1000.0, 1100.0], name, seeds=[1, 2])
    assert _verdict(a, _runs([1000.0, 1100.0], name, seeds=[1, 2]),
                    name) == "same"
    assert _verdict(a, _runs([1000.0, 1100.5], name, seeds=[1, 2]),
                    name) == "worse"
    assert _verdict(a, _runs([999.0, 1100.0], name, seeds=[1, 2]),
                    name) == "better"


def test_compare_exit_status(capsys):
    def doc(wall, failed_share=0.0):
        run = _runs([wall])[0]
        run["workloads"]["w"]["failed_share"] = failed_share
        return {"runs": [run]}

    assert compare.report(doc(10.0), doc(10.1)) == 0
    assert compare.report(doc(10.0), doc(20.0)) == 1
    assert compare.report(doc(10.0), doc(10.0, failed_share=0.01)) == 1
    assert "REGRESSION" in capsys.readouterr().out
    # One failing run among five is a rise, whatever the median says.
    clean = {"runs": [doc(10.0)["runs"][0] for _ in range(5)]}
    spotted = {"runs": clean["runs"][:4]
               + doc(10.0, failed_share=0.5)["runs"]}
    assert compare.report(clean, spotted) == 1
    assert compare.report(spotted, clean) == 0
