"""The process-parallel benchmark engine and its determinism contract.

Serial and parallel runs must be indistinguishable in everything except
wall-clock: identical markdown from ``repro.bench.report``.  Also
covers the CLI satellite: comma-separated ``--only`` with loud
unknown-name errors.
"""

from __future__ import annotations

import os

import pytest

from repro.bench import parallel, report

#: A cheap, fully deterministic experiment subset for equality tests.
SUBSET = "fig2,table4,space"


def _square(x):
    return x * x


def _task_name(_ignored):
    import random
    return random.random()


class TestRunTasks:
    def test_order_preserved_serial(self):
        tasks = [(f"t{i}", _square, (i,)) for i in range(7)]
        results = parallel.run_tasks(tasks, jobs=1, progress=False)
        assert [r.value for r in results] == [i * i for i in range(7)]
        assert [r.index for r in results] == list(range(7))
        assert all(r.worker == "main" for r in results)

    def test_order_preserved_parallel(self):
        tasks = [(f"t{i}", _square, (i,)) for i in range(7)]
        results = parallel.run_tasks(tasks, jobs=3, progress=False)
        assert [r.value for r in results] == [i * i for i in range(7)]
        assert all(r.wall_clock_s >= 0.0 for r in results)
        assert all(r.worker for r in results)

    def test_per_task_seeding_is_deterministic(self):
        tasks = [(name, _task_name, (None,)) for name in ("a", "b", "a")]
        serial = parallel.run_tasks(tasks, jobs=1, progress=False)
        again = parallel.run_tasks(tasks, jobs=2, progress=False)
        assert [r.value for r in serial] == [r.value for r in again]
        # Same name -> same seed -> same draw; different name differs.
        assert serial[0].value == serial[2].value
        assert serial[0].value != serial[1].value

    def test_resolve_jobs(self):
        assert parallel.resolve_jobs(None) == (os.cpu_count() or 1)
        assert parallel.resolve_jobs(0) == (os.cpu_count() or 1)
        assert parallel.resolve_jobs(1) == 1
        assert parallel.resolve_jobs(-3) == 1
        assert parallel.resolve_jobs(5) == 5

    def test_timing_appendix_mentions_every_task(self):
        tasks = [(f"t{i}", _square, (i,)) for i in range(3)]
        results = parallel.run_tasks(tasks, jobs=1, progress=False)
        appendix = parallel.timing_appendix(results)
        assert "## Appendix: harness timing" in appendix
        for i in range(3):
            assert f"| t{i} |" in appendix


class TestReportEngine:
    def test_parallel_markdown_byte_identical(self):
        serial, ok1 = report.generate(quick=True, only=SUBSET, jobs=1,
                                      progress=False)
        fanned, ok2 = report.generate(quick=True, only=SUBSET, jobs=2,
                                      progress=False)
        assert serial == fanned
        assert ok1 == ok2

    def test_timing_appendix_is_opt_in(self):
        plain, _ = report.generate(quick=True, only="table4", jobs=1,
                                   progress=False)
        timed, _ = report.generate(quick=True, only="table4", jobs=1,
                                   timing=True, progress=False)
        assert "Appendix: harness timing" not in plain
        assert "Appendix: harness timing" in timed
        assert "| table4 |" in timed

    def test_select_experiments_comma_list_keeps_registry_order(self):
        names = report.select_experiments("table4,fig2")
        assert names == ["fig2", "table4"]

    def test_select_experiments_unknown_names_raise(self):
        with pytest.raises(report.UnknownExperimentError) as exc:
            report.select_experiments("fig2,bogus,nope")
        assert exc.value.names == ["bogus", "nope"]

    def test_main_unknown_only_exits_nonzero(self, capsys):
        status = report.main(["--quick", "--only", "doesnotexist"])
        err = capsys.readouterr().err
        assert status == 2
        assert "doesnotexist" in err

    def test_wall_clock_fields_populated(self):
        results = parallel.run_tasks(
            [("table4", report.run_experiment, ("table4", True))],
            jobs=1, progress=False)
        rep = results[0].value
        rep.wall_clock_s = results[0].wall_clock_s
        rep.worker = results[0].worker
        assert rep.wall_clock_s > 0.0
        assert "harness:" in rep.to_text()
