"""The benchmark's output checks, run on round 0 of each workload at seed 1, so
that a change the benchmark would refuse as incorrect output (a removed report
key, a changed CSV header) fails here before any benchmark run.  The job list
and the checks are read from ``perfbench/`` as they are."""

import pytest

from dsfield.catalog import build_case, case_names
from dsfield.cli import main

from conftest import perfbench_module

jobs, checks = perfbench_module("jobs"), perfbench_module("checks")


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_round_0_passes_the_benchmark_output_checks(tmp_path, workload):
    catalog = {name: build_case(name) for name in case_names()}
    plan = jobs.Plan(workload, 1, str(tmp_path), catalog)
    failed = {}
    for job in plan.round(0):
        outcome = checks.check(job, main(job.argv), catalog)
        if not outcome.ok:
            failed[job.id] = (job.argv, outcome.reason)
    assert plan.round(0) and not failed
