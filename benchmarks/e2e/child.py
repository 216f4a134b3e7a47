"""One child of the benchmark: one (workload, profile, config), fresh
and single-threaded.

Reads a JSON spec on stdin, generates its inputs from the seed, then
runs **setup** (import ``repro``, build, ramp passes), the **measured**
phase (W windows) and the untimed **verify** phase, and prints one JSON
result on stdout.  Host times are sums of timed regions of the program
under test (see :mod:`clock`): the harness's own work between regions —
input generation, binding steps, reading counters — is in none of them.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import traceback
from typing import Any, Dict, List

import gen
import spans
from clock import Timing, timed


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fold(totals: Dict[str, Any], before: Dict[str, Any],
          after: Dict[str, Any]) -> None:
    """Add ``after - before`` of one window's counters to ``totals``."""
    for group, values in after.items():
        base = before[group]
        if not isinstance(values, dict):
            totals[group] = totals.get(group, 0) + values - base
            continue
        into = totals.setdefault(group, {})
        for key, value in values.items():
            into[key] = into.get(key, 0) + value - base.get(key, 0)


def _sums(timings: List[Timing]) -> Dict[str, float]:
    return {"seconds": sum(t.seconds for t in timings),
            "raw_cpu": sum(t.raw_cpu for t in timings),
            "raw_wall": sum(t.raw_wall for t in timings)}


def run(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one child to completion; see the module docstring."""
    workload, profile = spec["workload"], spec["profile"]
    traced = spec["traced"]
    inputs = gen.make_inputs(workload, spec["seed"], spec["scale"],
                             spec["windows"])
    input_digest = gen.digest(inputs)

    rec: Any = spans.Recorder() if traced else spans.NULL

    def load() -> Any:
        with rec.span("import", "setup"):
            import adapters  # imports repro: part of setup
        return adapters

    adapters, import_timing = timed(load)
    adapter = adapters.ADAPTERS[workload](
        inputs, profile, adapters.CONFIGS[spec["config"]])
    build_timing = adapter.build(rec)
    ramp_timings = []
    for index in range(len(inputs["ramp"])):
        with rec.span("ramp_pass", "ramp"):
            ramp_timings.append(adapter.ramp(index))
    gc.collect()
    setup = _sums([import_timing, build_timing] + ramp_timings)
    rss_after_ramp = _rss_mb()
    ramped = adapter.states()[-1]

    # The traced child alternates untraced and traced windows, so the
    # span recorder's cost is measured inside one process.
    windows = []
    window_timings = []
    totals: Dict[str, Any] = {}
    errors = []
    for index in range(len(inputs["windows"])):
        window_traced = traced and index % 2 == 1
        rec.window = index
        try:
            win = adapter.window(index, rec if window_traced else spans.NULL)
        except Exception:  # a failed window fails all its ops
            errors.append({"window": index,
                           "error": traceback.format_exc(limit=3)})
            break
        _fold(totals, win.before, win.after)
        window_timings.append(win.timing)
        windows.append({
            "ops": win.ops, "seconds": win.timing.seconds,
            "raw_seconds": win.timing.raw_cpu,
            "slowdown": win.timing.slowdown, "mutations": win.mutations,
            "charges": sum(win.after["counts"].values())
            - sum(win.before["counts"].values()),
            # Modelled kernel time: the clock minus application gaps.
            "virt_ns": win.after["now_ns"] - win.before["now_ns"]
            - (win.after["app_ns"] - win.before["app_ns"]),
            "traced": window_traced})
    rec.window = -1
    measured = _sums(window_timings)
    details = adapter.details()

    result = {
        "workload": workload, "profile": profile, "config": spec["config"],
        "traced": traced, "input_digest": input_digest,
        "setup_s": setup["seconds"],
        "cpu_s": setup["seconds"] + measured["seconds"],
        "raw_setup_s": setup["raw_cpu"],
        "raw_cpu_s": setup["raw_cpu"] + measured["raw_cpu"],
        "raw_wall_s": setup["raw_wall"] + measured["raw_wall"],
        "peak_rss_mb": _rss_mb(), "rss_mb_after_ramp": rss_after_ramp,
        "build_s": details.pop("build_s", build_timing.seconds),
        "ramp_pass_s": [t.seconds for t in ramp_timings],
        # Where setup left the modelled kernel (see metrics.cross_check).
        "setup_virt": {"now_ns": ramped["now_ns"],
                       "charges": sum(ramped["counts"].values())},
        "windows": windows,
        "planned_windows": len(inputs["windows"]), "errors": errors,
        "totals": totals, "details": details,
        "spans": rec.spans if traced else [],
    }
    if spec["verify"] and not errors:
        try:
            result["outcomes"] = adapter.outcomes()
            result["invisibility"] = adapters.invisibility(
                workload, profile, spec["seed"])
        except Exception:
            errors.append({"window": None,
                           "error": traceback.format_exc(limit=3)})
    return result


if __name__ == "__main__":
    json.dump(run(json.load(sys.stdin)), sys.stdout)
