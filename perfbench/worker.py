"""Run one workload in a fresh interpreter and print its measurements as JSON.

A single client runs one job at a time (closed loop).  A job is
``cli.run(JobSpec)`` followed by ``cli.emit_report``, which is what
``borelweyl <command> --format structured`` does.  A pass runs every job of
the workload once, in an order drawn from the run seed; passes repeat until
``--seconds`` have gone by.  Only the jobs are timed: checking a report
against the reference happens between jobs, outside the timed part.  The
yardstick is timed before the first job and after each job, and its median
over the pass rescales the pass's times to a fixed host speed (yardstick.py).

With ``--trace`` the worker installs the tracer, checks its coverage on a
small job against sys.setprofile, runs at least two traced passes, whose
counts must agree, and then times one untraced pass.

    python3 perfbench/worker.py --workload verify-quantum --seed 1 --seconds 10 [--trace]
    python3 perfbench/worker.py --workload verify-quantum --setup-only
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from statistics import mean, median

import ladders
import reference
import yardstick

clock = time.perf_counter


def setup(workload, ladder_seed):
    """Import borelweyl and build the JobSpecs; returns (seconds, cli, jobs, specs)."""
    started = clock()
    import borelweyl.cli as cli

    jobs = ladders.plan(workload, ladder_seed)
    specs = [ladders.job_spec(cli, job) for job in jobs]
    return clock() - started, cli, jobs, specs


class Runner:
    """Runs jobs, timing each, and keeps what is needed to check them later."""

    def __init__(self, cli, jobs, specs):
        self.cli, self.jobs, self.specs = cli, jobs, specs
        self.outcomes = []  # per execution: (key, exit status, digest) or (key, None, error)
        self.reports = {}  # (key, digest) -> projection; one per distinct report

    def run(self, i) -> float:
        key, cli = self.jobs[i].key, self.cli
        started = clock()
        try:
            report, status = cli.run(self.specs[i])
            text = cli.emit_report(report)
        except Exception as exc:  # a raising job is a failed job, and the loop goes on
            elapsed = clock() - started
            self.outcomes.append((key, None, f"raised {type(exc).__name__}: {exc}"))
            return elapsed
        elapsed = clock() - started
        projection = reference.project(json.loads(text))
        digest = hashlib.sha256(json.dumps(projection, sort_keys=True).encode()).hexdigest()
        self.reports.setdefault((key, digest), projection)
        self.outcomes.append((key, status, digest))
        return elapsed

    def run_pass(self, order, on_job=None):
        """Run every job once; returns the job seconds and the median yardstick seconds."""
        times = [0.0] * len(self.jobs)
        yards = [yardstick.seconds()]
        for i in order:
            if on_job:
                on_job(i)
            times[i] = self.run(i)
            yards.append(yardstick.seconds())
        return times, median(yards)

    def failures(self) -> list:
        """(key, reason) for every execution that raised or differs from the reference."""
        ref = reference.load()
        verdicts = {}
        out = []
        for key, status, digest in self.outcomes:
            if status is None:
                out.append((key, digest))
                continue
            if (key, status, digest) not in verdicts:
                verdicts[key, status, digest] = reference.check(
                    ref, key, status, self.reports[key, digest])
            if verdicts[key, status, digest]:
                out.append((key, verdicts[key, status, digest]))
        return out


def pass_metrics(passes, jobs) -> dict:
    names = ladders.rungs(jobs)
    top = [i for i, job in enumerate(jobs) if job.rung == names[-1]]
    below = [i for i, job in enumerate(jobs) if job.rung == names[-2]]
    scales = [yardstick.REFERENCE_S / yard for _, yard in passes]
    totals = [sum(times) * k for (times, _), k in zip(passes, scales)]
    top_means = [mean(times[i] for i in top) * k for (times, _), k in zip(passes, scales)]
    below_means = [mean(times[i] for i in below) * k for (times, _), k in zip(passes, scales)]
    out = {
        "pass_s": median(totals),
        "top_rung_s": median(top_means),
        "rung_growth": median(t / b for t, b in zip(top_means, below_means)),
        "passes": len(passes),
        "pass_wall_s": median(sum(times) for times, _ in passes),
        "yardstick_s": median(yard for _, yard in passes),
    }
    if len(passes) > 10:  # the highest percentile with ten passes beyond it
        out["pass_tail"] = [100 * (len(passes) - 10) / len(passes), sorted(totals)[-11]]
    return out


def run_plain(runner, orders, seconds) -> list:
    passes = []
    started = clock()
    while not passes or clock() - started < seconds:
        passes.append(runner.run_pass(next(orders)))
    return passes


def run_traced(runner, orders, seconds, workload, seed) -> dict:
    from tracer import Tracer, differing_counts, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        cli = runner.cli
        small = ladders.job_spec(cli, ladders.selftest_job(workload))
        unseen = tracer.unseen_calls(lambda: cli.emit_report(cli.run(small)[0]))
        snapshots, totals = [], []
        started = clock()
        while len(snapshots) < 2 or clock() - started < seconds:
            tracer.reset()
            times, yard = runner.run_pass(next(orders), on_job=lambda i: setattr(tracer, "job_id", i))
            totals.append(sum(times) * yardstick.REFERENCE_S / yard)
            snapshots.append(tracer.snapshot(len(runner.jobs), yardstick.REFERENCE_S / yard))
    finally:
        tracer.uninstall()
    times, yard = runner.run_pass(next(orders))  # untraced, after the same warm-up
    untraced = sum(times) * yardstick.REFERENCE_S / yard
    differing = differing_counts(snapshots)
    for name, missed in sorted(unseen.items()):
        print(f"tracer missed {missed} calls of {name}", file=sys.stderr)
    for name in differing:
        print(f"counter differs between traced passes: {name}", file=sys.stderr)
    spans_dir = ladders.ROOT / ".bench_out"
    spans_dir.mkdir(exist_ok=True)
    (spans_dir / f"spans-{workload}-seed{seed}.json").write_text(
        json.dumps([list(s) for s in snapshots[-1].spans]))
    metrics = layer_metrics(snapshots)
    metrics["trace.pass_s"] = (median(totals), "s")
    metrics["trace.overhead_s"] = (median(totals) - untraced, "s")
    metrics["trace.unseen_calls"] = (sum(abs(v) for v in unseen.values()), "count")
    metrics["trace.nondeterministic_counters"] = (len(differing), "count")
    metrics["trace.hook_errors"] = (snapshots[0].counters["trace.hook_errors"], "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ladders.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--ladder-seed", type=int, default=ladders.DEFAULT_LADDER_SEED)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not __debug__:
        print("error: the verdict-deciding asserts are stripped under -O; refusing to run",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(ladders.SRC))
    setup_s, cli, jobs, specs = setup(args.workload, args.ladder_seed)
    if args.setup_only:
        yard = median(yardstick.seconds() for _ in range(3))
        print(json.dumps({"setup_wall_s": setup_s, "setup_s": setup_s * yardstick.REFERENCE_S / yard}))
        return 0
    runner = Runner(cli, jobs, specs)
    orders = ladders.pass_orders(args.seed, len(jobs))
    out = {}
    if args.trace:
        out["layers"] = run_traced(runner, orders, args.seconds, args.workload, args.seed)
    else:
        passes = run_plain(runner, orders, args.seconds)
        out.update(pass_metrics(passes, jobs))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = runner.failures()
    out["attempted"] = len(runner.outcomes)
    out["failed"] = len(failures)
    out["failures"] = failures[:20]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
