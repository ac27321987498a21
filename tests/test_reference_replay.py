"""Replay every benchmark reference job through the CLI entry points.

``perfbench/reference.json`` holds the exit status and structured report of
every job of the four benchmark workloads, for both ladder seeds.  Running
each job through ``cli.run`` and ``cli.emit_report`` and checking it with
``perfbench/reference.py`` makes a report drift fail this suite, not only
the benchmark.
"""

import json

import pytest

import borelweyl.cli as cli
from conftest import module_at

ladders = module_at("perfbench/ladders.py")
reference = module_at("perfbench/reference.py")


@pytest.mark.parametrize("ladder_seed", [ladders.DEFAULT_LADDER_SEED, ladders.HELDOUT_LADDER_SEED])
@pytest.mark.parametrize("workload", ladders.WORKLOADS)
def test_every_reference_job_replays(workload, ladder_seed):
    recorded = reference.load()
    wrong = []
    for job in ladders.plan(workload, ladder_seed):
        report, status = cli.run(ladders.job_spec(cli, job))
        projection = reference.project(json.loads(cli.emit_report(report)))
        why = reference.check(recorded, job.key, status, projection)
        if why:
            wrong.append((job.key, why))
    assert wrong == []
