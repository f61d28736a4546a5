"""The benchmark's output checks, run on rounds 0 and 1 of each workload at seed
1, so that a change the benchmark would refuse as incorrect output (a removed
report key, a changed CSV header, a period or decay value off its reference)
fails here before any benchmark run; round 1 holds the 40-time global_max
period scan and more decay windows.  The job list and the checks are read from
``perfbench/`` as they are."""

import pytest

from dsfield.catalog import build_case, case_names
from dsfield.cli import main

from conftest import perfbench_module

jobs, checks = perfbench_module("jobs"), perfbench_module("checks")


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
@pytest.mark.parametrize("round_index", [0, 1])
def test_round_passes_the_benchmark_output_checks(tmp_path, workload, round_index):
    catalog = {name: build_case(name) for name in case_names()}
    plan = jobs.Plan(workload, 1, str(tmp_path), catalog)
    failed = {}
    for job in plan.round(round_index):
        outcome = checks.check(job, main(job.argv), catalog)
        if not outcome.ok:
            failed[job.id] = (job.argv, outcome.reason)
    assert plan.round(round_index) and not failed
