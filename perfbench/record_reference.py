"""Record reference.json: every job of every workload, for the default and the
held-out ladder seed.  It was run once on the seed code; the benchmark checks
later code against what it wrote.  Running it again would make the reference
follow the code under test, so only do that on purpose.

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys

import ladders
import reference


def main() -> int:
    sys.path.insert(0, str(ladders.SRC))
    import borelweyl.cli as cli

    jobs = {}
    for workload in ladders.WORKLOADS:
        for seed in (ladders.DEFAULT_LADDER_SEED, ladders.HELDOUT_LADDER_SEED):
            for job in ladders.plan(workload, seed):
                if job.key in jobs:
                    continue
                report, status = cli.run(ladders.job_spec(cli, job))
                jobs[job.key] = {
                    "status": status,
                    "report": reference.project(json.loads(cli.emit_report(report))),
                }
                print(f"{job.key}: exit {status}", file=sys.stderr)
    reference.PATH.write_text(json.dumps(
        {"recorded_with": "borelweyl 0.1.0, the seed code", "jobs": jobs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
