"""Checks of the benchmark itself: the reference control, the tracer's
coverage and determinism, and the agreement of the metric lists.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from dataclasses import replace

import pytest

import ladders
import reference
import run
import tracer as tracing
import worker
from borelweyl import cli


@pytest.fixture
def installed():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def _runner(jobs):
    return worker.Runner(cli, jobs, [ladders.job_spec(cli, job) for job in jobs])


def test_corrupt_beta_job_fails_and_clean_job_passes():
    job = next(j for j in ladders.plan("verify-classical") if j.matrix == "A3")
    runner = _runner([job, job])
    runner.specs[1] = replace(runner.specs[1], corrupt_beta=True)
    runner.run_pass([0, 1])
    ref = reference.load()
    (_, clean_status, clean), (_, corrupt_status, corrupt) = runner.outcomes
    assert reference.check(ref, job.key, clean_status, runner.reports[job.key, clean]) is None
    assert reference.check(ref, job.key, corrupt_status, runner.reports[job.key, corrupt])
    assert len(runner.failures()) == 1


def test_reference_ignores_added_and_volatile_keys():
    want = {"a": [1, {"b": "x"}], "passed": True}
    got = {"a": [1, {"b": "x", "stats": {"calls": 3}}], "passed": True, "timings": {}}
    assert reference.difference(want, reference.project(got)) is None
    assert reference.difference(want, {"a": [1, {"b": "y"}], "passed": True}) == \
        "report.a[1].b: expected 'x', got 'y'"
    assert reference.difference({"passed": True}, {"passed": 1}) is not None


@pytest.mark.parametrize("workload", ladders.WORKLOADS)
@pytest.mark.parametrize("ladder_seed", [ladders.DEFAULT_LADDER_SEED, ladders.HELDOUT_LADDER_SEED])
def test_every_job_has_a_reference(workload, ladder_seed):
    jobs = ladders.plan(workload, ladder_seed)
    assert len({job.key for job in jobs}) == len(jobs)
    assert len(ladders.rungs(jobs)) == 2
    assert {job.key for job in jobs} <= set(reference.load())


def test_wrappers_rebind_every_namespace(installed):
    import borelweyl.cartan
    import borelweyl.datum

    wrapped = borelweyl.cartan.quasi_inverse
    assert wrapped.__wrapped__ is installed.originals["cartan.quasi_inverse"]
    assert borelweyl.datum.quasi_inverse is wrapped
    assert cli.quasi_inverse is wrapped


@pytest.mark.parametrize("workload", ladders.WORKLOADS)
def test_wrappers_see_every_call(installed, workload):
    spec = ladders.job_spec(cli, ladders.selftest_job(workload))
    assert installed.unseen_calls(lambda: cli.emit_report(cli.run(spec)[0])) == {}


def test_uninstall_restores_the_originals():
    from borelweyl.exact import QScalar

    before = (cli.run, cli.quasi_inverse, QScalar.__init__, QScalar.__add__, QScalar.__radd__)
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.run is not before[0]
    tracer.uninstall()
    assert (cli.run, cli.quasi_inverse, QScalar.__init__, QScalar.__add__, QScalar.__radd__) == before


def test_traced_counts_repeat(installed):
    spec = ladders.job_spec(cli, ladders.selftest_job("verify-quantum"))
    snapshots = []
    for _ in range(2):
        installed.reset()
        cli.emit_report(cli.run(spec)[0])
        snapshots.append(installed.snapshot(1))
    assert tracing.differing_counts(snapshots) == []
    metrics = tracing.layer_metrics(snapshots)
    assert metrics["exact.QScalar.new.calls"][0] > 0
    assert metrics["morphisms.relations"][0] > 0
    assert snapshots[0].counters["trace.hook_errors"] == 0


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ladders.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(ladders.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = {name: unit for name, unit, _ in tracing.PER_LAYER}
    layer.update(tracing.TRACE_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer


def test_refuses_to_run_under_optimize():
    done = subprocess.run(
        [sys.executable, "-O", str(ladders.HERE / "run.py"), "--workload", "analyze-ladder",
         "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "-O" in done.stderr


def test_yardstick_work_is_fixed():
    from fractions import Fraction

    import yardstick

    assert yardstick._det(yardstick._MATRIX) == -2401
    product = yardstick._product()
    assert (len(product), sum(product.values())) == (214, Fraction(625, 16))
    assert len(yardstick._euclid()) == 1  # coprime inputs: the Euclid ends on a constant
