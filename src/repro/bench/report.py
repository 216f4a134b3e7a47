"""Regenerate every experiment and render EXPERIMENTS.md.

Usage::

    python -m repro.bench.report              # full run, writes EXPERIMENTS.md
    python -m repro.bench.report --quick      # smaller scales, stdout only
    python -m repro.bench.report --jobs 4     # process-parallel run
    python -m repro.bench.report --only fig6,table1

Experiments are fanned out across a worker pool (``--jobs``, default one
per CPU) by :mod:`repro.bench.parallel`; results are merged in registry
order, so the rendered markdown is byte-identical to a serial run.
Harness wall-clock per experiment is printed to stderr, and ``--timing``
appends it to the markdown as an appendix (off by default to keep the
output deterministic).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Sequence, Tuple

from repro.bench import (exp_ablation, exp_buckets, exp_collisions,
                         exp_dlfs, exp_fig1, exp_fig2, exp_fig3, exp_fig6,
                         exp_fig7, exp_fig8, exp_fig9, exp_fig10,
                         exp_netfs, exp_pcc, exp_replay, exp_sigscheme,
                         exp_space, exp_table1, exp_table2, exp_table3,
                         exp_table4)
from repro.bench import parallel
from repro.bench.harness import Report

#: Every experiment in paper order.
EXPERIMENTS: List[Tuple[str, Callable[..., Report]]] = [
    ("fig1", exp_fig1.run),
    ("fig2", exp_fig2.run),
    ("fig3", exp_fig3.run),
    ("fig6", exp_fig6.run),
    ("fig6-at", lambda quick=False: exp_fig6.run_at_variants()),
    ("fig7", exp_fig7.run),
    ("fig8", exp_fig8.run),
    ("fig9", exp_fig9.run),
    ("fig10", exp_fig10.run),
    ("table1", exp_table1.run),
    ("table2", exp_table2.run),
    ("table3", exp_table3.run),
    ("table4", exp_table4.run),
    ("collisions", exp_collisions.run),
    ("containment", lambda quick=False: exp_collisions.run_containment()),
    ("pcc", exp_pcc.run),
    ("ablation", exp_ablation.run),
    ("space", exp_space.run),
    ("buckets", exp_buckets.run),
    ("sigscheme", exp_sigscheme.run),
    ("netfs", exp_netfs.run),
    ("dlfs", exp_dlfs.run),
    ("replay", exp_replay.run),
]

_HEADER = """\
# EXPERIMENTS — paper vs. measured

Generated by ``python -m repro.bench.report``.  Latencies are virtual
nanoseconds from the calibrated cost model (see ``repro.sim.costs``);
the reproduction targets are *shapes* — who wins, by roughly what
factor, where crossovers fall — not absolute hardware numbers.  Each
experiment lists the paper's expectation and the measured rows, plus
pass/fail checks of the qualitative claims.

Kernel profiles: ``baseline`` (unmodified walk), ``optimized`` (the
paper's caches with eager shootdowns), and ``optimized-lazy`` (same
caches, epoch-based lazy invalidation — see ``docs/coherence.md``).
"""


class UnknownExperimentError(ValueError):
    """``--only`` named experiments that do not exist."""

    def __init__(self, names: Sequence[str]):
        self.names = list(names)
        super().__init__("unknown experiment(s): " + ", ".join(self.names))


def select_experiments(only: str = "") -> List[str]:
    """Registry-ordered names matching a comma-separated ``--only`` list.

    Raises :class:`UnknownExperimentError` when any requested name does
    not exist — a silent header-only report helps nobody.
    """
    known = [name for name, _ in EXPERIMENTS]
    if not only:
        return known
    requested = [token.strip() for token in only.split(",") if token.strip()]
    unknown = [name for name in requested if name not in known]
    if unknown or not requested:
        raise UnknownExperimentError(unknown or [only])
    wanted = set(requested)
    return [name for name in known if name in wanted]


def run_experiment(name: str, quick: bool = False) -> Report:
    """Run one experiment by registry name (the parallel work unit)."""
    for reg_name, runner in EXPERIMENTS:
        if reg_name == name:
            return runner(quick=quick)
    raise UnknownExperimentError([name])


def generate(quick: bool = False, only: str = "", jobs: int = 1,
             timing: bool = False,
             progress: bool = True) -> Tuple[str, bool]:
    """Run experiments; returns (markdown, all_checks_passed).

    ``jobs`` > 1 fans the selected experiments out across a process
    pool; the returned markdown is byte-identical to a serial run (the
    ``timing`` appendix, which is wall-clock and run-dependent, is off
    by default).
    """
    names = select_experiments(only)
    tasks: List[parallel.TaskSpec] = [
        (name, run_experiment, (name, quick)) for name in names]
    results = parallel.run_tasks(tasks, jobs=jobs, progress=progress)

    sections = [_HEADER]
    all_ok = True
    for result in results:
        report: Report = result.value
        report.wall_clock_s = result.wall_clock_s
        report.worker = result.worker
        sections.append(report.to_markdown())
        if not report.all_passed:
            all_ok = False
        if progress:
            print(report.to_text(), file=sys.stderr, flush=True)
    if progress:
        parallel.print_timing_table(results)
    if timing:
        sections.append(parallel.timing_appendix(results))
    return "\n".join(sections), all_ok


def main(argv=None) -> int:
    """CLI entry point; returns a shell exit status."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads, stdout only")
    parser.add_argument("--only", default="",
                        help="comma-separated experiment names to run "
                             "(e.g. fig6,table1); unknown names are an "
                             "error")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="worker processes (default: one per CPU; "
                             "1 forces a serial run)")
    parser.add_argument("--timing", action="store_true",
                        help="append the harness wall-clock appendix to "
                             "the markdown (makes output run-dependent)")
    parser.add_argument("--output", default="EXPERIMENTS.md",
                        help="markdown output path (full runs)")
    args = parser.parse_args(argv)
    try:
        markdown, all_ok = generate(quick=args.quick, only=args.only,
                                    jobs=args.jobs, timing=args.timing)
    except UnknownExperimentError as exc:
        known = ", ".join(name for name, _ in EXPERIMENTS)
        print(f"error: {exc}\nknown experiments: {known}", file=sys.stderr)
        return 2
    if args.quick or args.only:
        print(markdown)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(markdown)
        print(f"wrote {args.output}", file=sys.stderr)
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
