"""Figure 7: chmod/rename latency on populated directories.

The optimized kernel's deliberate trade-off: directory permission and
structure changes recursively invalidate every cached descendant, so
their cost grows linearly with the cached subtree (≈330 µs at 10,000
descendants in the paper) while the baseline stays ~constant.

``optimized-lazy`` is judged here too, on the cost it claims to
remove: its mutation is one epoch bump at any subtree size, and it
pays instead when the moved paths are next looked up.  The
"mutation + re-touch" columns add one ``stat`` of every moved path to
chmod plus rename, so eager's shootdown and lazy's revalidation are
priced on the same work.
"""

from __future__ import annotations

from repro import make_kernel
from repro.bench.harness import Report
from repro.workloads import lmbench

DEPTHS = [0, 1, 2, 3, 4]  # 1, 10, 100, 1k, 10k files
LABELS = ["single file", "depth=1, 10 files", "depth=2, 100 files",
          "depth=3, 1000 files", "depth=4, 10000 files"]
#: Subtree size from which lazy's mutation + re-touch must beat
#: eager's, and up to which (the PCC holding the tree) their warm
#: second passes must be equal.
LAZY_CROSSOVER = 1110


def run(quick: bool = False) -> Report:
    """Run the experiment; ``quick`` shrinks workload scale."""
    depths = DEPTHS[:-1] if quick else DEPTHS
    report = Report(
        exp_id="Figure 7",
        title="chmod / rename latency vs cached subtree size (us)",
        paper_expectation=("baseline ~constant; optimized grows linearly "
                           "with descendants, ~330 us at 10k children; "
                           "slowdown up to ~30,000%"),
        headers=["subtree", "chmod base", "chmod opt", "chmod slowdown %",
                 "rename base", "rename opt", "rename slowdown %",
                 "descendants", "chmod lazy", "rename lazy",
                 "mutation + re-touch base", "mutation + re-touch opt",
                 "mutation + re-touch lazy"],
    )
    results = []
    for depth, label in zip(depths, LABELS):
        base, opt, lazy = (lmbench.measure_mutation_latency(
            make_kernel(profile), depth)
            for profile in ("baseline", "optimized", "optimized-lazy"))
        results.append((base, opt, lazy))
        report.add_row(label, base.chmod_ns / 1000, opt.chmod_ns / 1000,
                       100.0 * (opt.chmod_ns / base.chmod_ns - 1.0),
                       base.rename_ns / 1000, opt.rename_ns / 1000,
                       100.0 * (opt.rename_ns / base.rename_ns - 1.0),
                       opt.descendants, lazy.chmod_ns / 1000,
                       lazy.rename_ns / 1000, base.retouch_ns / 1000,
                       opt.retouch_ns / 1000, lazy.retouch_ns / 1000)

    (base0, opt0, lazy0), (base1, opt1, lazy1) = results[0], results[-1]
    report.check("baseline mutation cost ~constant across subtree sizes",
                 base1.chmod_ns < 4 * base0.chmod_ns
                 and base1.rename_ns < 4 * base0.rename_ns,
                 f"chmod {base0.chmod_ns:.0f} -> {base1.chmod_ns:.0f} ns")
    report.check("optimized mutation cost grows with cached descendants",
                 opt1.chmod_ns > 20 * opt0.chmod_ns,
                 f"chmod {opt0.chmod_ns:.0f} -> {opt1.chmod_ns:.0f} ns")
    if not quick:
        report.check("10k-descendant mutation lands near paper's ~330 us",
                     100_000 <= opt1.chmod_ns <= 1_500_000,
                     f"chmod {opt1.chmod_ns/1000:.0f} us, "
                     f"rename {opt1.rename_ns/1000:.0f} us")
    per_dentry = (opt1.chmod_ns - opt0.chmod_ns) / max(1, opt1.descendants)
    report.check("per-descendant invalidation cost is tens of ns",
                 10.0 <= per_dentry <= 100.0, f"{per_dentry:.0f} ns")
    report.check("lazy mutation cost ~constant across subtree sizes",
                 lazy1.chmod_ns < 4 * lazy0.chmod_ns
                 and lazy1.rename_ns < 4 * lazy0.rename_ns,
                 f"chmod {lazy0.chmod_ns:.0f} -> {lazy1.chmod_ns:.0f} ns, "
                 f"rename {lazy0.rename_ns:.0f} -> {lazy1.rename_ns:.0f} ns")
    big = [(opt, lazy) for _base, opt, lazy in results
           if opt.descendants >= LAZY_CROSSOVER]
    report.check(f"at >= {LAZY_CROSSOVER} descendants lazy's mutation + "
                 "re-touch is below eager's",
                 bool(big) and all(lazy.retouch_ns < opt.retouch_ns
                                   for opt, lazy in big),
                 "eager / lazy: " + ", ".join(
                     f"{opt.retouch_ns / 1000:.1f} / "
                     f"{lazy.retouch_ns / 1000:.1f} us" for opt, lazy in big))
    fits = [(opt, lazy) for _base, opt, lazy in results
            if opt.descendants <= LAZY_CROSSOVER]
    report.check(f"at <= {LAZY_CROSSOVER} descendants lazy's second pass "
                 "equals eager's",
                 all(lazy.second_pass_ns == opt.second_pass_ns
                     for opt, lazy in fits),
                 "eager / lazy: " + ", ".join(
                     f"{opt.second_pass_ns / 1000:.1f} / "
                     f"{lazy.second_pass_ns / 1000:.1f} us"
                     for opt, lazy in fits))
    report.notes = ("mutation + re-touch is chmod + rename + one stat of "
                    "every moved path. At 10000 files (11110 "
                    "descendants) the tree outgrows the 4096-entry PCC, "
                    "so each pass over it cycles the LRU: there "
                    "optimized's warm stats cost more than baseline's, "
                    "and lazy's second pass more than its first (see "
                    "the PCC-capacity item in ROADMAP.md)")
    return report
