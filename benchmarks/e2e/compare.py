#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric), A the parent and B the
change, with a verdict:

* ``same`` — B's median is within the metric's bound of A's;
* ``better`` / ``worse`` — it is beyond the bound, and the two sides'
  quartile ranges do not overlap by more than the bound;
* ``unresolved`` — beyond the bound but the run-to-run spread is too
  wide to tell (quartile ranges overlap by more than the bound), or
  within it while either side's own quartile range is wider than it.

The bound is the metric's share from ``BENCHMARK.json`` or its absolute
floor, whichever is larger.  A **virt** metric is deterministic: where
both sides ran the same seed it must repeat to 1e-9, so any difference
there is ``better`` or ``worse`` outright.  ``failed_share`` is compared
by each side's worst run.  Exit status 1 on any ``worse`` or any rise in
``failed_share``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

#: Relative tolerance of a virt metric at one seed.
VIRT_RTOL = 1e-9


def bounds() -> Dict[str, float]:
    """Relative bound per end-to-end metric, from ``BENCHMARK.json``."""
    manifest = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in manifest["end_to_end"]}


def _by_seed(runs: List[Dict[str, Any]], workload: str,
             name: str) -> Dict[int, List[float]]:
    out: Dict[int, List[float]] = {}
    for run in runs:
        value = run["workloads"][workload]["end_to_end"].get(name)
        if value is not None:
            out.setdefault(run["seed"], []).append(value)
    return out


def verdict(name: str, a: Dict[int, List[float]], b: Dict[int, List[float]],
            bound: float) -> Tuple[str, float, float, float]:
    """(verdict, median A, median B, change as a share of A; > 0 worse)."""
    meta = metrics.BY_NAME[name]
    flat_a = [v for values in a.values() for v in values]
    flat_b = [v for values in b.values() for v in values]
    med_a, med_b = median(flat_a), median(flat_b)
    sign = 1.0 if meta.better == "lower" else -1.0
    worse_by = sign * (med_b - med_a)
    share = worse_by / abs(med_a) if med_a else 0.0
    if meta.clock == "virt" and set(a) & set(b):
        drift = 0.0
        for seed in set(a) & set(b):
            for x, y in zip(a[seed], b[seed]):
                if abs(x - y) > VIRT_RTOL * max(abs(x), abs(y)):
                    drift += sign * (y - x)
        if drift:
            return ("worse" if drift > 0 else "better"), med_a, med_b, share
        return "same", med_a, med_b, share
    allowed = max(bound * abs(med_a), meta.floor)
    (a1, a3), (b1, b3) = (metrics.quartiles(flat_a),
                          metrics.quartiles(flat_b))
    overlap = min(a3, b3) - max(a1, b1)
    if abs(worse_by) <= allowed:
        noisy = max(a3 - a1, b3 - b1) > allowed
        return ("unresolved" if noisy else "same"), med_a, med_b, share
    if overlap > allowed:
        return "unresolved", med_a, med_b, share
    return ("worse" if worse_by > 0 else "better"), med_a, med_b, share


def report(doc_a: Dict[str, Any], doc_b: Dict[str, Any]) -> int:
    """Print the comparison table; returns the exit status."""
    limits = bounds()
    runs_a, runs_b = doc_a["runs"], doc_b["runs"]
    status = 0
    print(f"\n{'workload':<14}{'metric':<32}{'A':>14}{'B':>14}"
          f"{'change':>9}  verdict")
    for workload in runs_a[0]["workloads"]:
        if workload not in runs_b[0]["workloads"]:
            continue
        for name, bound in limits.items():
            a = _by_seed(runs_a, workload, name)
            b = _by_seed(runs_b, workload, name)
            if not a or not b:
                continue
            word, med_a, med_b, share = verdict(name, a, b, bound)
            if word == "worse":
                status = 1
            print(f"{workload:<14}{name:<32}{med_a:>14.6g}{med_b:>14.6g}"
                  f"{share:>+9.1%}  {word}")
        # Each side's worst run: a median would hide a failing minority.
        fail_a = max(r["workloads"][workload]["failed_share"]
                     for r in runs_a)
        fail_b = max(r["workloads"][workload]["failed_share"]
                     for r in runs_b)
        word = "worse" if fail_b > fail_a else "same"
        if fail_b > fail_a:
            status = 1
        print(f"{workload:<14}{'failed_share':<32}{fail_a:>14.6g}"
              f"{fail_b:>14.6g}{'':>9}  {word}")
    print(f"\n{'no regression' if status == 0 else 'REGRESSION'} "
          f"(A: {len(runs_a)} runs, B: {len(runs_b)} runs; change > 0 is "
          "worse)")
    return status


def main(argv: List[str]) -> int:
    """Entry point; returns the process exit code."""
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    docs = [json.loads(Path(path).read_text()) for path in argv]
    return report(*docs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
