"""Metric declarations and their derivation from child results.

Every number names its clock: **host** is what the simulator costs to
run, in CPU seconds at reference speed (see :mod:`clock`; noisy,
bounded by a share of the baseline), **virt** is what the modelled kernel would
take (deterministic: the same seed repeats it exactly).
``BENCHMARK.json`` carries names, units, directions and relative
bounds; this module carries what that file has no key for — clock,
absolute floor, definition — and the arithmetic.
"""

from __future__ import annotations

from statistics import median, quantiles
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

from gen import PROFILES
import spans

#: Break-even count reported when a layer never saves time.
NEVER = 1e12


class Metric(NamedTuple):
    """One declared metric (per-profile ones are declared per base)."""

    name: str
    unit: str
    clock: str
    better: str
    #: Relative bound (end-to-end only) and its absolute floor.
    bound: float
    floor: float
    definition: str


def _per_profile(base: str, *rest: Any) -> List[Metric]:
    return [Metric(f"{base}.{profile}", *rest) for profile in PROFILES]


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "host", "lower", 0.25, 0.25,
           "import + build + ramp passes, summed over profiles"),
    Metric("cpu_s", "s", "host", "lower", 0.25, 0.5,
           "setup + measured phase, summed over profiles"),
    Metric("peak_rss_mb", "MiB", "host", "lower", 0.25, 8.0,
           "max over the children of ru_maxrss at end of measured phase"),
    *_per_profile("ops_per_s", "ops/s", "host", "higher", 0.25, 0.0,
                  "median over windows of simulated syscalls per second"),
    # Across seeds; at one seed compare.py holds it to an exact repeat.
    *_per_profile("virt_ns_per_op", "ns/op", "virt", "lower", 0.15, 0.0,
                  "modelled kernel ns per syscall over the measured phase"),
]

#: base, unit, clock, better, which end-to-end metric it should move.
_LAYER_BASES = [
    ("kernel.build_s", "s", "host", "lower",
     "setup_s everywhere; ops_per_s on fleet_replay (sessions rebuild)"),
    ("compile.record_compile_s", "s", "host", "lower",
     "ops_per_s, cpu_s on fleet_replay; 0 elsewhere"),
    ("ramp_s", "s", "host", "lower", "setup_s"),
    ("ramp.slowest_pass_s", "s", "host", "lower",
     "setup_s on warm_lookup, churn (memo specialisation)"),
    ("traces.slowest_drain_s", "s", "host", "lower",
     "ops_per_s, cpu_s, peak_rss_mb on fleet_replay"),
    ("traces.steady_drain_ms", "ms", "host", "lower",
     "at most 1/5 of fleet_replay ops_per_s, by design"),
    ("steady.window_ms.p50", "ms", "host", "lower", "ops_per_s"),
    ("steady.window_ms.p75", "ms", "host", "lower", "ops_per_s"),
    ("syscalls.path_us.p50", "us", "host", "lower",
     "ops_per_s on warm_lookup"),
    ("syscalls.mutation_us.p50", "us", "host", "lower",
     "ops_per_s on churn"),
    ("syscalls.readdir_us.p50", "us", "host", "lower",
     "ops_per_s on cold_scan"),
    ("resmemo.hit_ratio", "ratio", "host", "higher",
     "ops_per_s on warm_lookup; ~0 on cold_scan"),
    ("resmemo.stale_ratio", "ratio", "host", "lower", "ops_per_s on churn"),
    ("plans.applied_per_replay_call", "count", "host", "higher",
     "ops_per_s on fleet_replay only"),
    ("plans.fallbacks_per_session", "count", "host", "lower",
     "ops_per_s on fleet_replay only"),
    ("fastpath.hit_ratio", "ratio", "virt", "higher",
     "virt_ns_per_op.optimized*, ops_per_s.optimized* on warm_lookup"),
    ("pcc.hit_ratio", "ratio", "virt", "higher",
     "virt_ns_per_op.optimized* on warm_lookup tail, churn chmod"),
    ("dcache.hit_ratio", "ratio", "virt", "higher",
     "virt_ns_per_op, ops_per_s on cold_scan; baseline warm_lookup"),
    ("walk.components_per_lookup", "count", "virt", "lower",
     "virt_ns_per_op.baseline, ops_per_s.baseline on warm_lookup"),
    ("fs.lookups_per_kop", "1/kop", "virt", "lower",
     "virt_ns_per_op on cold_scan"),
    ("fs.disk_reads_per_kop", "1/kop", "virt", "lower",
     "virt_ns_per_op on cold_scan"),
    ("virt.fs.ns_per_op", "ns/op", "virt", "lower",
     "virt_ns_per_op on cold_scan; ~0 on warm_lookup"),
    ("coherence.inval_dentries_per_mutation", "count", "virt", "lower",
     "virt_ns_per_op.optimized, ops_per_s.optimized on churn"),
    ("completeness.readdir_cached_ratio", "ratio", "virt", "higher",
     "virt_ns_per_op.optimized* on cold_scan, churn"),
    ("costs.charges_per_op", "count", "virt", "lower",
     "ops_per_s everywhere but plan-applied fleet_replay drains"),
    ("costs.host_ns_per_charge", "ns", "host", "lower",
     "ops_per_s everywhere"),
    *[(f"virt.scope.{scope}.ns_per_op", "ns/op", "virt", "lower",
       "virt_ns_per_op (the scopes sum to its lookup share)")
      for scope in ("init", "hash", "htlookup", "perm", "miss", "final",
                    "lazy")],
    ("ablate.memo_off.ops_per_s", "ops/s", "host", "higher",
     "the rent table: ops_per_s without the resolution memo"),
    ("ablate.plans_off.ops_per_s", "ops/s", "host", "higher",
     "the rent table: ops_per_s without charge plans"),
    ("breakeven_ops.memo", "ops", "host", "lower",
     "extra setup seconds / seconds saved per op; 1e12 = never"),
    ("breakeven_ops.plans", "ops", "host", "lower",
     "extra setup seconds / seconds saved per op; 1e12 = never"),
    ("rss_mb.after_ramp", "MiB", "host", "lower", "peak_rss_mb"),
]

PER_LAYER: List[Metric] = [
    metric for base, unit, clock, better, moves in _LAYER_BASES
    for metric in _per_profile(base, unit, clock, better, 0.0, 0.0, moves)
] + [
    Metric("steady.windows", "count", "host", "higher", 0.0, 0.0,
           "untraced windows per profile in the traced run"),
    Metric("trace.overhead_pct", "%", "host", "lower", 0.0, 0.0,
           "window time with the span recorder on vs off, one process"),
    Metric("ablate.memo_off.setup_s", "s", "host", "lower", 0.0, 0.0,
           "setup_s without the resolution memo"),
    Metric("ablate.plans_off.setup_s", "s", "host", "lower", 0.0, 0.0,
           "setup_s without charge plans"),
    Metric("ablate.memo_off.peak_rss_mb", "MiB", "host", "lower", 0.0, 0.0,
           "peak_rss_mb without the resolution memo"),
    Metric("ablate.plans_off.peak_rss_mb", "MiB", "host", "lower", 0.0,
           0.0, "peak_rss_mb without charge plans"),
]

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile; a lone value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q = quantiles(values, n=4)
    return q[0], q[2]


def p75(values: Sequence[float]) -> float:
    """Third quartile."""
    return quartiles(values)[1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _untraced(child: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [w for w in child["windows"] if not w["traced"]]


def window_ms(child: Dict[str, Any]) -> List[float]:
    """Host milliseconds of the untraced windows."""
    return [w["seconds"] * 1e3 for w in _untraced(child)] or [0.0]


def ops_per_s(child: Dict[str, Any], clock: str = "seconds") -> float:
    """Median over untraced windows of ops / host seconds."""
    rates = [w["ops"] / w[clock] for w in _untraced(child)]
    return median(rates) if rates else 0.0


def end_to_end(children: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """The end-to-end metrics of one workload from its untraced
    children (one per profile)."""
    out = {
        "setup_s": sum(c["setup_s"] for c in children.values()),
        "cpu_s": sum(c["cpu_s"] for c in children.values()),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children.values()),
    }
    for profile, child in children.items():
        ops = sum(w["ops"] for w in child["windows"])
        virt = sum(w["virt_ns"] for w in child["windows"])
        out[f"ops_per_s.{profile}"] = ops_per_s(child)
        out[f"virt_ns_per_op.{profile}"] = _ratio(virt, ops)
    return out


def raw_host(children: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """What the uncalibrated clocks read, for the record and for the
    README's noise table: the host metrics on plain ``process_time``,
    the wall clock, and the median slowdown the windows ran under."""
    kids = children.values()
    out = {"setup_s": sum(c["raw_setup_s"] for c in kids),
           "cpu_s": sum(c["raw_cpu_s"] for c in kids),
           "wall_s": sum(c["raw_wall_s"] for c in kids),
           "slowdown": median(w["slowdown"] for c in kids
                              for w in c["windows"])}
    for profile, child in children.items():
        out[f"ops_per_s.{profile}"] = ops_per_s(child, "raw_seconds")
    return out


def breakeven(default: Dict[str, Any], off: Dict[str, Any]) -> float:
    """Ops until a layer's extra setup is repaid by its faster ops."""
    on_rate, off_rate = ops_per_s(default), ops_per_s(off)
    if not on_rate or not off_rate or on_rate <= off_rate:
        return NEVER
    saved_per_op = 1.0 / off_rate - 1.0 / on_rate
    extra_setup = max(0.0, default["setup_s"] - off["setup_s"])
    return min(NEVER, extra_setup / saved_per_op)


def _span_p50_us(child: Dict[str, Any], cat: str) -> float:
    """Median span of one category, at reference speed: each span is
    scaled by the slowdown of the window it ran in."""
    slow = [w["slowdown"] for w in child["windows"]]
    durations = [(row[spans.END] - row[spans.START]) / slow[row[spans.WINDOW]]
                 for row in child["spans"]
                 if row[spans.CAT] == cat and row[spans.WINDOW] >= 0]
    return median(durations) / 1e3 if durations else 0.0


def _layer_values(configs: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer base values of one profile from its traced default
    child and ablation children."""
    child = configs["default"]
    # A configuration no child ran for is the default one: plans have
    # no switch to flip where no replay engine runs.
    memo_off = configs.get("memo_off", child)
    plans_off = configs.get("plans_off", child)
    totals = child["totals"]
    stats = totals.get("stats", {})
    memo = totals.get("memo", {})
    plans = totals.get("plans", {})
    scope = totals.get("by_scope", {})
    prims = totals.get("by_primitive", {})
    windows = child["windows"]
    untraced = _untraced(child)
    ops = sum(w["ops"] for w in windows)
    details = child["details"]
    steady_ms = window_ms(child)
    memo_probes = sum(memo.get(k, 0) for k in ("hits", "misses", "stale"))
    out = {
        "kernel.build_s": child["build_s"],
        "compile.record_compile_s": details.get("record_compile_s", 0.0),
        "ramp_s": sum(child["ramp_pass_s"]),
        "ramp.slowest_pass_s": max(child["ramp_pass_s"], default=0.0),
        "traces.slowest_drain_s": details.get("slowest_drain_s", 0.0),
        "traces.steady_drain_ms": details.get("steady_drain_ms", 0.0),
        "steady.window_ms.p50": median(steady_ms),
        "steady.window_ms.p75": p75(steady_ms),
        "syscalls.path_us.p50": _span_p50_us(child, "path"),
        "syscalls.mutation_us.p50": _span_p50_us(child, "mutation"),
        "syscalls.readdir_us.p50": _span_p50_us(child, "readdir"),
        "resmemo.hit_ratio": _ratio(memo.get("hits", 0), memo_probes),
        "resmemo.stale_ratio": _ratio(memo.get("stale", 0), memo_probes),
        "plans.applied_per_replay_call": _ratio(
            plans.get("applied", 0), details.get("replay_calls", 0)),
        "plans.fallbacks_per_session": _ratio(
            plans.get("fallbacks", 0),
            len(windows) if "replay_calls" in details else 0),
        "fastpath.hit_ratio": _ratio(stats.get("fastpath_hit", 0),
                                     stats.get("lookup", 0)),
        "pcc.hit_ratio": _ratio(
            stats.get("pcc_hit", 0),
            sum(stats.get(k, 0)
                for k in ("pcc_hit", "pcc_miss", "pcc_stale"))),
        "dcache.hit_ratio": _ratio(
            stats.get("dcache_hit", 0),
            stats.get("dcache_hit", 0) + stats.get("dcache_miss", 0)),
        "walk.components_per_lookup": _ratio(
            stats.get("component_step", 0), stats.get("lookup", 0)),
        "fs.lookups_per_kop": _ratio(1e3 * stats.get("fs_lookup", 0), ops),
        "fs.disk_reads_per_kop": _ratio(1e3 * stats.get("disk_read", 0),
                                        ops),
        "virt.fs.ns_per_op": _ratio(
            sum(ns for name, ns in prims.items()
                if name.startswith(("disk_", "fs_", "pagecache_"))), ops),
        "coherence.inval_dentries_per_mutation": _ratio(
            stats.get("inval_dentry", 0),
            sum(w["mutations"] for w in windows)),
        "completeness.readdir_cached_ratio": _ratio(
            stats.get("readdir_cached", 0),
            stats.get("readdir_cached", 0) + stats.get("readdir_fs", 0)),
        "costs.charges_per_op": _ratio(
            sum(w["charges"] for w in windows), ops),
        "costs.host_ns_per_charge": _ratio(
            1e9 * sum(w["seconds"] for w in untraced),
            sum(w["charges"] for w in untraced)),
        "ablate.memo_off.ops_per_s": ops_per_s(memo_off),
        "ablate.plans_off.ops_per_s": ops_per_s(plans_off),
        "breakeven_ops.memo": breakeven(child, memo_off),
        "breakeven_ops.plans": breakeven(child, plans_off),
        "rss_mb.after_ramp": child["rss_mb_after_ramp"],
    }
    for name in ("init", "hash", "htlookup", "perm", "miss", "final",
                 "lazy"):
        out[f"virt.scope.{name}.ns_per_op"] = _ratio(scope.get(name, 0.0),
                                                     ops)
    return out


def per_layer(traced: Dict[str, Dict[str, Dict[str, Any]]]
              ) -> Dict[str, float]:
    """The per-layer metrics of one workload from its traced run:
    ``traced[profile][config]`` is a child result."""
    out: Dict[str, float] = {}
    for profile, configs in traced.items():
        for base, value in _layer_values(configs).items():
            out[f"{base}.{profile}"] = value
    defaults = [configs["default"] for configs in traced.values()]
    on = sum(median([w["seconds"] for w in c["windows"] if w["traced"]]
                    or [0.0]) for c in defaults)
    off = sum(median([w["seconds"] for w in _untraced(c)] or [0.0])
              for c in defaults)
    out["steady.windows"] = min(len(_untraced(c)) for c in defaults)
    out["trace.overhead_pct"] = 100.0 * _ratio(on - off, off)
    for config in ("memo_off", "plans_off"):
        kids = [configs.get(config, configs["default"])
                for configs in traced.values()]
        out[f"ablate.{config}.setup_s"] = sum(k["setup_s"] for k in kids)
        out[f"ablate.{config}.peak_rss_mb"] = max(k["peak_rss_mb"]
                                                  for k in kids)
    return out


#: (workload, profile, ablation) triples whose default and ablated
#: kernels are known to end apart on the measured inputs: defects of
#: the program that this benchmark found and no change has fixed yet.
#: The traced run compares every triple at full scale
#: (:func:`cross_check`) and reports these as expected failures; on any
#: other triple a difference fails the profile.
EXPECTED_DIVERGENCE = {
    ("warm_lookup", "optimized", "memo_off"):
        "memo replays skip PCC probes once hot entries mix with tail "
        "draws (README, Not covered yet)",
}


def judge(children: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """The checks of one workload: ``attempted``/``failed`` ops and why.

    (1) a window that raised fails its ops and those of the windows it
    kept from running, and a verify phase that raised or left a result
    out fails every op of its profile: nothing vouches for them; (2) an
    op whose outcome differs from baseline's is failed (observational
    equivalence); (3) a profile whose default kernel ends somewhere
    else than the reference kernel has every op failed (virtual
    invisibility; a vacuous comparison counts as one).
    """
    attempted = failed = 0
    notes: List[str] = []
    per_profile_ops = {}
    for profile, child in children.items():
        done = child["windows"]
        typical = done[0]["ops"] if done else 1
        missing = child["planned_windows"] - len(done)
        ops = sum(w["ops"] for w in done) + missing * typical
        per_profile_ops[profile] = ops
        attempted += ops
        if missing:
            failed += missing * typical
        elif "outcomes" not in child or "invisibility" not in child:
            failed += ops
            notes.append(f"{profile}: the verify phase did not finish")
        if child["errors"]:
            notes.append(f"{profile}: {child['errors'][0]['error']}")
    digests = {c["input_digest"] for c in children.values()}
    if len(digests) > 1:
        failed = attempted
        notes.append("profiles saw different inputs")
    reference = children.get("baseline", {}).get("outcomes")
    if "baseline" not in children:
        notes.append("baseline did not run: outcomes not compared")
    for profile, child in children.items():
        outcomes = child.get("outcomes")
        if reference is not None and outcomes is not None \
                and profile != "baseline":
            wrong = sum(a != b for a, b in zip(reference, outcomes)) \
                + abs(len(reference) - len(outcomes))
            if wrong:
                failed += wrong
                first = next((i for i, (a, b) in
                              enumerate(zip(reference, outcomes)) if a != b),
                             min(len(reference), len(outcomes)))
                notes.append(f"{profile}: {wrong} outcomes differ from "
                             f"baseline, first at op {first}")
        check = child.get("invisibility")
        if check is not None and not check["ok"]:
            failed += per_profile_ops[profile]
            why = "vacuous: the layer never engaged" if check["vacuous"] \
                else "; ".join(check["diffs"])
            notes.append(f"{profile}: not virtually invisible ({why})")
        for (workload, known, config), why in EXPECTED_DIVERGENCE.items():
            if (workload, known) == (child["workload"], profile) \
                    and not child["traced"]:
                notes.append(f"{profile}: known, compared only by the "
                             f"traced run (default against {config}): {why}")
    failed = min(failed, attempted)
    return {"attempted": max(1, attempted), "failed": failed,
            "correct": failed == 0 and bool(attempted), "notes": notes}


def _first_difference(default: Dict[str, Any], other: Dict[str, Any]) -> str:
    """Where two children of one (workload, profile) first part ways in
    virtual terms: after setup, or in a window both ran; "" if nowhere."""
    a, b = default["setup_virt"], other["setup_virt"]
    if a["charges"] != b["charges"] or not _close(a["now_ns"], b["now_ns"]):
        return (f"setup on ({b['charges'] - a['charges']:+d} charges, "
                f"{b['now_ns'] - a['now_ns']:+.0f} virt ns)")
    for index, (x, y) in enumerate(zip(default["windows"], other["windows"])):
        if x["charges"] != y["charges"] \
                or not _close(x["virt_ns"], y["virt_ns"]):
            return (f"window {index} on ({y['charges'] - x['charges']:+d} "
                    f"charges, {y['virt_ns'] - x['virt_ns']:+.0f} virt ns)")
    return ""


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= 1e-9 * max(abs(a), abs(b))


def cross_check(workload: str, families: Dict[str, Dict[str, Dict[str, Any]]]
                ) -> Dict[str, Any]:
    """Virtual invisibility on the measured inputs themselves, from the
    traced run's children: an ablation child ran the same ramp passes
    and the same first windows as its default child, so where setup
    left the modelled kernel, and what every shared window added to its
    clock and charge count, must match.  A difference fails every op of
    the profile unless :data:`EXPECTED_DIVERGENCE` lists it; then it is
    a note, and so is a listed difference that no longer shows.  An
    ablation child that raised fails the profile as well."""
    failed = 0
    notes: List[str] = []
    for profile, configs in families.items():
        default = configs["default"]
        for config, child in configs.items():
            if config == "default":
                continue
            where = _first_difference(default, child)
            known = EXPECTED_DIVERGENCE.get((workload, profile, config))
            if child["errors"]:
                failed += sum(w["ops"] for w in default["windows"])
                notes.append(f"{profile}: the {config} child raised: "
                             f"{child['errors'][0]['error']}")
            elif where and known:
                notes.append(f"{profile}: expected failure: default and "
                             f"{config} kernels differ from {where}: {known}")
            elif where:
                failed += sum(w["ops"] for w in default["windows"])
                notes.append(f"{profile}: not virtually invisible at full "
                             f"scale: default and {config} kernels differ "
                             f"from {where}")
            elif known:
                notes.append(f"{profile}: expected failure did not occur: "
                             f"default and {config} kernels agree (drop it "
                             "from EXPECTED_DIVERGENCE once no full-scale "
                             "run shows it)")
    return {"failed": failed, "notes": notes}
