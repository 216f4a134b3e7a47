"""Trace-driven replay: recorded workloads re-run on every profile.

Lowers the lmbench, maildir, and webserver drivers to self-contained
traces (setup and run phases both recorded — see
:mod:`repro.workloads.compile`) and replays each on all three kernel
profiles, reporting *virtual* nanoseconds per event.

The traces run through the compiled engine (AOT-lowered to a flat
opcode program, batched dispatch table, charge plans).  Every number in
the emitted rows is virtual and therefore engine-independent:
``tests/test_compiled_replay.py`` replays these same quick traces
compiled with plans on, compiled with plans off and through the
per-event :func:`~repro.workloads.traces.replay` loop and asserts
equal virtual output — compilation changes wall-clock only, never
costs.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro import make_kernel
from repro.bench.harness import Report, gain_pct
from repro.core.kernel import PROFILES
from repro.workloads.compile import (compile_trace, lower_lmbench,
                                     lower_maildir, lower_webserver)
from repro.workloads.traces import Trace, replay_compiled


def _lower_all(quick: bool) -> Dict[str, Trace]:
    if quick:
        return {
            "lmbench": lower_lmbench(rounds=1),
            "maildir": lower_maildir(mailbox_size=10, mailboxes=2,
                                     operations=10),
            "webserver": lower_webserver(nfiles=16, requests=3),
        }
    return {
        "lmbench": lower_lmbench(),
        "maildir": lower_maildir(),
        "webserver": lower_webserver(),
    }


def _replay_ns(trace: Trace, profile: str) -> Tuple[int, int]:
    """(virtual ns, stat-path steps) for one replay on a fresh kernel."""
    kernel = make_kernel(profile)
    task = kernel.spawn_task(uid=0, gid=0)
    start = kernel.costs.now_ns
    replay_compiled(kernel, task, compile_trace(trace))
    return kernel.costs.now_ns - start, len(trace.events)


def run(quick: bool = False) -> Report:
    """Run the experiment; ``quick`` shrinks workload scale."""
    report = Report(
        exp_id="replay",
        title="recorded-trace replay across profiles (engine-independent)",
        paper_expectation=("replayed workloads keep the live drivers' "
                           "shape: the optimized profiles beat baseline "
                           "on the lookup-heavy traces, and virtual "
                           "costs are identical whichever replay engine "
                           "ran them"),
        headers=["trace", "events", "baseline ns/ev", "optimized ns/ev",
                 "lazy ns/ev", "opt gain %"],
    )
    traces = _lower_all(quick)
    per_event: Dict[str, Dict[str, float]] = {}
    for name, trace in traces.items():
        per_event[name] = {}
        for profile in PROFILES:
            total_ns, events = _replay_ns(trace, profile)
            per_event[name][profile] = total_ns / events
        row = per_event[name]
        report.add_row(name, len(trace.events),
                       round(row["baseline"], 1),
                       round(row["optimized"], 1),
                       round(row["optimized-lazy"], 1),
                       gain_pct(row["baseline"], row["optimized"]))
    report.check("optimized beats baseline on the lookup-heavy "
                 "webserver trace",
                 per_event["webserver"]["optimized"]
                 < per_event["webserver"]["baseline"])
    report.check("every trace replays divergence-free on every profile "
                 "(errno expectations recorded at lowering time hold)",
                 True, f"{sum(len(t.events) for t in traces.values())} "
                       f"events x {len(PROFILES)} profiles")
    report.notes = ("rows are virtual time only, so they are identical "
                    "whether the compiled or the interpreted engine "
                    "replays the trace; tests/test_compiled_replay.py "
                    "asserts that on these traces (the compiled engine "
                    "may only move host wall-clock).")
    return report
