"""Table 1: real-world application performance, warm cache.

Paper's headline gains: find +19.2%, updatedb +29.1%, du +12.7%,
git diff +9.9%, git status +4.3%; tar/make within noise; rm -2.3%.
Path statistics (hit rate, negative rate, path shapes) are reported per
application as in the paper.
"""

from __future__ import annotations

from typing import Dict

from repro import make_kernel
from repro.bench.harness import Report, gain_pct
from repro.workloads import apps

#: Paper's Table 1 gains (%) for side-by-side context.
PAPER_GAINS = {
    "find": 19.2, "tar xzf": 0.05, "rm -r": -2.32, "make": -0.07,
    "make -j12": -0.34, "du -s": 12.65, "updatedb": 29.12,
    "git status": 4.26, "git diff": 9.89,
}


def run(quick: bool = False, warm: bool = True) -> Report:
    """Run the experiment; ``quick`` shrinks scale, ``warm`` selects the
    Table 1 (warm) vs Table 2 (cold) variant."""
    report = Report(
        exp_id="Table 1" if warm else "Table 2",
        title=("Application execution time, warm cache" if warm
               else "Application execution time, cold cache"),
        paper_expectation=("warm: find +19%, updatedb +29%, du +13%, "
                           "git diff +10%; others near zero"
                           if warm else
                           "cold: all gains/losses within noise; hit "
                           "rates drop (find 38%, du 6%)"),
        headers=["app", "base (ms)", "opt (ms)", "gain %", "paper gain %",
                 "hit %", "neg %", "path bytes", "path comps"],
    )
    gains: Dict[str, float] = {}
    hits: Dict[str, float] = {}
    for factory in apps.ALL_APPS:
        results = {}
        for profile in ("baseline", "optimized"):
            app = factory()
            if quick:
                app.tree_scale = "small"
            kernel = make_kernel(profile)
            results[profile] = apps.run_app(kernel, app, warm=warm)
        base, opt = results["baseline"], results["optimized"]
        gain = gain_pct(base.total_ns, opt.total_ns)
        gains[base.name] = gain
        hits[base.name] = base.component_hit_rate
        report.add_row(base.name, base.total_ns / 1e6, opt.total_ns / 1e6,
                       gain, PAPER_GAINS.get(base.name, "-") if warm else "-",
                       100 * base.component_hit_rate,
                       100 * base.negative_rate, base.avg_path_bytes,
                       base.avg_path_components)

    if warm:
        report.check("metadata-intensive apps gain double digits "
                     "(find/du/updatedb)",
                     gains["find"] > 10 and gains["du -s"] > 10
                     and gains["updatedb"] > 10,
                     f"find {gains['find']:.1f}%, du {gains['du -s']:.1f}%, "
                     f"updatedb {gains['updatedb']:.1f}%")
        report.check("git workloads gain single digits",
                     2.0 < gains["git diff"] < 15.0
                     and 2.0 < gains["git status"] < 15.0)
        report.check("compute/IO-bound apps within noise "
                     "(tar, make, rm within ±5%)",
                     all(abs(gains[n]) < 5.0
                         for n in ("tar xzf", "make", "make -j12", "rm -r")))
        report.check("warm hit rates high (paper 84-100%)",
                     all(rate > 0.70 for rate in hits.values()),
                     ", ".join(f"{n}:{100*r:.0f}%"
                               for n, r in hits.items()))
    else:
        report.notes = ("this repo does not hold the paper's Table 2 gains, "
                        "so the paper gain column reads \"-\".")
        report.check("cold-cache deltas within noise (paper ≤ ~3%, "
                     "device time dominates)",
                     all(abs(g) < 8.0 for g in gains.values()),
                     ", ".join(f"{n}:{g:+.1f}%" for n, g in gains.items()))
        report.check("cold hit rates collapse for scan-heavy apps",
                     hits["find"] < 0.75,
                     f"find {100*hits['find']:.0f}%")
    return report
