"""Fast experiment shape checks inside the unit suite.

The heavyweight sweeps run under benchmarks/; these are the experiments
cheap enough to gate every `pytest tests/` run.
"""

from __future__ import annotations

import pytest

from repro.bench import (exp_collisions, exp_dlfs, exp_fig2, exp_fig3,
                         exp_fig7, exp_netfs, exp_space, exp_table4)


@pytest.mark.parametrize("runner", [
    exp_fig2.run,
    exp_fig3.run,
    exp_fig7.run,
    exp_table4.run,
    exp_collisions.run,
    exp_space.run,
    exp_netfs.run,
    exp_dlfs.run,
], ids=["fig2", "fig3", "fig7", "table4", "collisions", "space", "netfs",
        "dlfs"])
def test_quick_experiment_shapes(runner):
    report = runner(quick=True)
    failures = [c for c in report.checks if not c.passed]
    assert not failures, report.to_text()


def test_containment_experiment():
    report = exp_collisions.run_containment()
    assert report.all_passed, report.to_text()
