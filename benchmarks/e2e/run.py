#!/usr/bin/env python3
"""End-to-end benchmark of the dcache reproduction: whole-run host
cost, virtual cost and per-layer rent on four workloads x three kernel
profiles.

    python3 benchmarks/e2e/run.py --seed 1              # untraced, all
    python3 benchmarks/e2e/run.py --seed 1 --trace      # + per-layer run
    python3 benchmarks/e2e/run.py --workload churn --seed 3 \\
        --seconds 10 --trace 0                          # driver form

One process drives; it launches one fresh single-threaded child per
(workload, profile, configuration), one at a time.  With one workload
and ``--trace 0|1`` the last stdout line is the benchmark contract's
JSON object; otherwise it is the list of run documents.  Nothing is
written to disk unless ``--out`` or ``--append-history`` asks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402

SCHEMA = "dcache-repro-e2e/1"
HISTORY = HERE / "history.jsonl"

#: Switches of the program under test that must not leak in from the
#: caller's shell: every child runs plain ``make_kernel(profile)``.
GUARDED_ENV = ("REPRO_RESOLUTION_MEMO", "REPRO_CHARGE_PLANS",
               "REPRO_REPLAY_MODE", "REPRO_CPROFILE")

#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    """A child exited without a result."""


def run_child(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one child to completion and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    # Same dict/set layouts every run: one less source of host noise.
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")],
            input=json.dumps(spec), capture_output=True, text=True,
            env=env, timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child timed out: {spec}") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {spec}\n"
                          f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def fingerprint() -> Dict[str, Any]:
    """The machine and commit a row of numbers belongs to."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "commit": commit}


def run_workload(workload: str, profiles: List[str], seed: int,
                 seconds: float, scale: float, untraced: bool,
                 traced: bool) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """One workload of one run: its children, metrics and checks, and
    the traced children (for the Chrome trace)."""
    base = {"workload": workload, "seed": seed, "scale": scale}
    doc: Dict[str, Any] = {}
    kept_spans: List[Dict[str, Any]] = []
    if untraced:
        windows = gen.windows_for(workload, seconds, traced=False)
        children = {
            profile: run_child({**base, "profile": profile,
                                "windows": windows, "traced": False,
                                "config": "default", "verify": True})
            for profile in profiles}
        doc["end_to_end"] = metrics.end_to_end(children)
        doc["raw_host"] = metrics.raw_host(children)
        doc["windows"] = {
            profile: _window_summary(child)
            for profile, child in children.items()}
        verdict = metrics.judge(children)
    if traced:
        # Half the traced child's windows run untraced (see child.py).
        windows = gen.windows_for(workload, seconds, traced=True)
        configs = ["default", "memo_off"]
        if workload == "fleet_replay":
            configs.append("plans_off")
        families: Dict[str, Dict[str, Any]] = {}
        for profile in profiles:
            families[profile] = {
                config: run_child({
                    **base, "profile": profile, "config": config,
                    "windows": windows * (2 if config == "default" else 1),
                    "traced": config == "default",
                    "verify": config == "default" and not untraced})
                for config in configs}
        doc["per_layer"] = metrics.per_layer(families)
        defaults = {p: fam["default"] for p, fam in families.items()}
        doc["self_time_s"] = {
            profile: spans.self_time_by_name(child["spans"])
            for profile, child in defaults.items()}
        kept_spans = list(defaults.values())
        if not untraced:
            verdict = metrics.judge(defaults)
            children = defaults
        cross = metrics.cross_check(workload, families)
        verdict["failed"] = min(verdict["attempted"],
                                verdict["failed"] + cross["failed"])
        verdict["correct"] = verdict["correct"] and not cross["failed"]
        verdict["notes"] += cross["notes"]
    doc["input_digest"] = next(iter(children.values()))["input_digest"]
    doc.update(verdict)
    doc["failed_share"] = verdict["failed"] / verdict["attempted"]
    return doc, kept_spans


def _window_summary(child: Dict[str, Any]) -> Dict[str, float]:
    ms = metrics.window_ms(child)
    return {"n": len(ms), "p50_ms": median(ms), "p75_ms": metrics.p75(ms)}


def run_suite(args: argparse.Namespace, seed: int,
              trace_children: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One run: every selected workload at one seed.  Traced children
    are appended to ``trace_children``."""
    run: Dict[str, Any] = {
        "schema": SCHEMA, "seed": seed, "seconds": args.seconds,
        "scale": args.scale, "trace": args.trace, "profiles": args.profile,
        "params": gen.PARAMS, "workloads": {}}
    for workload in args.workload:
        doc, kept = run_workload(
            workload, args.profile, seed, args.seconds, args.scale,
            untraced=args.trace in ("0", "both"),
            traced=args.trace in ("1", "both"))
        run["workloads"][workload] = doc
        trace_children += kept
        print_workload(workload, doc)
    return run


def print_workload(workload: str, doc: Dict[str, Any]) -> None:
    """Every metric by name, with its unit and clock, then the checks."""
    print(f"\n== {workload}  (inputs {doc['input_digest']})")
    for section in ("end_to_end", "per_layer"):
        for name, value in doc.get(section, {}).items():
            meta = metrics.BY_NAME[name]
            extra = ""
            if name.startswith("ops_per_s."):
                w = doc["windows"][name.split(".", 1)[1]]
                extra = (f"  n={w['n']} p50={w['p50_ms']:.1f}ms "
                         f"p75={w['p75_ms']:.1f}ms")
            print(f"  {name:<52} {value:>16.6g} {meta.unit:<6} "
                  f"{meta.clock}{extra}")
    if "raw_host" in doc:
        raw = doc["raw_host"]
        rates = " ".join(f"{raw[f'ops_per_s.{p}']:.0f}"
                         for p in doc["windows"])
        print(f"  uncalibrated: setup_s={raw['setup_s']:.3f} "
              f"cpu_s={raw['cpu_s']:.3f} wall_s={raw['wall_s']:.3f} "
              f"ops_per_s={rates}; median slowdown "
              f"{raw['slowdown']:.2f}x of reference speed")
    status = "pass" if doc["correct"] else "FAIL"
    print(f"  checks: {status}  attempted={doc['attempted']} "
          f"failed={doc['failed']} failed_share={doc['failed_share']:.6g}")
    for note in doc["notes"]:
        print(f"    ! {note}")


def contract_line(doc: Dict[str, Any], section: str) -> str:
    """The benchmark contract's result object for one workload."""
    return json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value,
                           "unit": metrics.BY_NAME[name].unit}
                    for name, value in doc[section].items()}})


def history_row(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Median and quartiles per (workload, end-to-end metric)."""
    row: Dict[str, Any] = {
        "schema": SCHEMA, "fingerprint": runs[0]["fingerprint"],
        "runs": len(runs), "seeds": [run["seed"] for run in runs],
        "seconds": runs[0]["seconds"], "scale": runs[0]["scale"],
        "workloads": {}}
    for workload in runs[0]["workloads"]:
        cells = {}
        for name in runs[0]["workloads"][workload].get("end_to_end", {}):
            values = [run["workloads"][workload]["end_to_end"][name]
                      for run in runs]
            q1, q3 = metrics.quartiles(values)
            cells[name] = {"median": median(values), "q1": q1, "q3": q3,
                           "unit": metrics.BY_NAME[name].unit}
        # The worst run, not the median: one failing run in five counts.
        cells["failed_share"] = {
            "max": max(run["workloads"][workload]["failed_share"]
                       for run in runs), "unit": "ratio"}
        row["workloads"][workload] = cells
    return row


def _names(value: str, known: tuple, what: str) -> List[str]:
    names = [n for n in value.split(",") if n]
    unknown = [n for n in names if n not in known]
    if unknown or not names:
        print(f"error: unknown {what} {unknown or value!r}; "
              f"choose from {', '.join(known)}", file=sys.stderr)
        raise SystemExit(2)
    return names


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=",".join(gen.WORKLOADS),
                        help="NAME[,NAME]; default all four")
    parser.add_argument("--profile", default=",".join(gen.PROFILES),
                        help="NAME[,NAME]; default all three")
    parser.add_argument("--seed", default="1",
                        help="N[,N]: run i uses seed i modulo the list")
    parser.add_argument("--seconds", type=float,
                        default=gen.PARAMS["run_seconds"],
                        help="measured-phase length: scales W from its "
                        "pinned value at %(default)s")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier (ops per window, "
                        "trees, fleet)")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=["0", "1", "both"],
                        help="0: end-to-end run; 1: traced per-layer run; "
                        "bare or 'both': one after the other")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out", type=Path,
                        help="directory for results.json and trace.json")
    parser.add_argument("--self-check", action="store_true",
                        help="run everything twice and compare the two")
    parser.add_argument("--append-history", action="store_true",
                        help=f"append a row to {HISTORY.name}")
    args = parser.parse_args(argv)
    args.workload = _names(args.workload, gen.WORKLOADS, "workload")
    args.profile = _names(args.profile, gen.PROFILES, "profile")
    try:
        args.seed = [int(s) for s in args.seed.split(",")]
    except ValueError:
        parser.error("--seed takes integers")
    if args.seconds <= 0 or args.scale <= 0 or args.runs < 1:
        parser.error("--seconds, --scale and --runs must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = parse_args(argv)
    leaked = [name for name in GUARDED_ENV if name in os.environ]
    if leaked:
        print(f"error: unset {', '.join(leaked)}: the benchmark measures "
              "plain make_kernel(profile) defaults", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    trace_children: List[Dict[str, Any]] = []

    def one_set() -> List[Dict[str, Any]]:
        return [run_suite(args, args.seed[i % len(args.seed)],
                          trace_children)
                for i in range(args.runs)]

    try:
        runs = one_set()
        second = one_set() if args.self_check else None
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.out is not None or args.append_history:
        # Only a kept result needs to say where it was measured: a
        # plain run reads nothing outside the checkout.
        stamp = fingerprint()
        for run in runs + (second or []):
            run["fingerprint"] = stamp
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "results.json").write_text(
            json.dumps({"schema": SCHEMA, "runs": runs}, indent=1))
        if trace_children:
            (args.out / "trace.json").write_text(
                json.dumps(spans.chrome_trace(trace_children)))
        print(f"\nwrote {args.out}/results.json"
              + (" and trace.json" if trace_children else ""))
    elif trace_children:
        print("\n(pass --out DIR to keep results.json and the Chrome "
              "trace)")
    if args.append_history:
        with HISTORY.open("a") as handle:
            handle.write(json.dumps(history_row(runs)) + "\n")
        print(f"appended a row to {HISTORY}")

    status = 0 if all(doc["correct"] for run in runs
                      for doc in run["workloads"].values()) else 1
    if second is not None:
        status = max(status, compare.report({"runs": runs},
                                            {"runs": second}))
    single = (len(runs) == 1 and len(args.workload) == 1
              and args.trace != "both" and second is None)
    if single:
        doc = runs[0]["workloads"][args.workload[0]]
        print(contract_line(
            doc, "end_to_end" if args.trace == "0" else "per_layer"))
        # The contract reports failures in the object, not the code.
        return 0
    print(json.dumps({"schema": SCHEMA, "runs": runs}))
    return status


if __name__ == "__main__":
    sys.exit(main())
