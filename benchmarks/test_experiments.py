"""Shape checks: every paper experiment, at quick scale, under
pytest-benchmark.

Each case runs one :data:`repro.bench.report.EXPERIMENTS` entry once —
the wall time measures the simulator, and every one of the Report's
checks of the paper's qualitative claims must pass.  Full tables for
EXPERIMENTS.md come from ``python -m repro.bench.report``.
"""

from __future__ import annotations

import pytest

from repro.bench.report import EXPERIMENTS

#: Claims some experiments make beyond their Report's own checks.
EXTRA_CLAIMS = {
    "fig1": lambda report: len(report.rows) == 9,  # the utility roster
    "fig2": lambda report: sum(row[2] == "measured"
                               for row in report.rows) == 2,
    "fig3": lambda report: len(report.rows) == 8,  # 4 paths x 2 kernels
    "fig6": lambda report: len(report.rows) == 11,  # all path patterns
    "fig7": lambda report: len(report.rows) == 4,  # 1 to 1110 descendants
    "fig8": lambda report: len(report.rows) == 13,  # 1..12 threads + writer
    "table1": lambda report: len(report.rows) == 9,
    # The library is a real system, not a stub.
    "table4": lambda report: sum(row[2] for row in report.rows) > 5000,
}


@pytest.mark.parametrize("name, runner", EXPERIMENTS,
                         ids=[name for name, _ in EXPERIMENTS])
def test_experiment(benchmark, name, runner):
    report = benchmark.pedantic(lambda: runner(quick=True),
                                iterations=1, rounds=1)
    failures = [check for check in report.checks if not check.passed]
    assert not failures, "shape checks failed:\n" + "\n".join(
        f"  {c.claim}: {c.detail}" for c in failures)
    assert EXTRA_CLAIMS.get(name, lambda report: True)(report)
