"""Figure 1: fraction of execution time in path-based system calls.

The paper measures, with ftrace and a warm cache, how much of each
utility's runtime goes to path-based syscalls (access/stat, open,
chmod/chown, unlink): 6–54% across the roster, motivating lookup latency
as the optimization target.  We attribute virtual time per syscall with
the MeteredSyscalls wrapper over the baseline kernel.
"""

from __future__ import annotations

from repro import make_kernel
from repro.bench.harness import Report
from repro.workloads import apps
from repro.workloads.traces import PATH_LOOKUP_OPS


def run(quick: bool = False) -> Report:
    """Run the experiment; ``quick`` shrinks workload scale."""
    report = Report(
        exp_id="Figure 1",
        title="Fraction of execution time in path-based syscalls",
        paper_expectation=("path-based syscalls account for 6-54% of "
                           "total execution time; dominated by stat/open "
                           "for all utilities except rm"),
        headers=["app", "total (ms)", "path syscalls (ms)", "fraction %",
                 "stat/open share %", "lookup calls % (§1)"],
    )
    fractions = {}
    for factory in apps.ALL_APPS:
        app = factory()
        if quick:
            app.tree_scale = "small"
        kernel = make_kernel("baseline")
        result = apps.run_app(kernel, app, warm=True)
        stat_open = sum(result.syscall_counts.get(op, 0)
                        for op in ("stat", "lstat", "fstatat", "open",
                                   "openat"))
        path_calls = sum(result.syscall_counts.get(op, 0)
                         for op in PATH_LOOKUP_OPS)
        total_calls = sum(result.syscall_counts.values())
        share = 100.0 * stat_open / path_calls if path_calls else 0.0
        # §1's iBench statistic: the fraction of all syscalls that do a
        # path lookup (10-20% for desktop apps; higher for FS utilities).
        count_fraction = (100.0 * path_calls / total_calls
                          if total_calls else 0.0)
        fractions[app.name] = result.path_fraction
        report.add_row(app.name, result.total_ns / 1e6,
                       result.path_syscall_ns / 1e6,
                       100.0 * result.path_fraction, share,
                       count_fraction)
    spread = [f for f in fractions.values()]
    report.check("every app spends a measurable share in path syscalls",
                 min(spread) > 0.005,
                 f"min={100*min(spread):.1f}%")
    report.check("path-heavy utilities exceed 30% (find/du/git diff)",
                 max(fractions["find"], fractions["du -s"],
                     fractions["git diff"]) > 0.30)
    report.check("compute-bound utilities sit in single digits (make)",
                 fractions["make"] < 0.10,
                 f"make={100*fractions['make']:.1f}%")
    return report
