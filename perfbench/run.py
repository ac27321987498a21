"""Rank-ladder benchmark for borelweyl: one workload, untraced or traced.

    python3 perfbench/run.py --workload verify-classical --seed 3 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time, taken as the
median over several fresh interpreters, then the workload in a fresh worker
process.  Times are rescaled to a fixed host speed by yardstick.py; the raw
wall-clock medians are printed beside them.  ``--trace 1`` runs the workload
under the per-layer tracer instead.  Every report is checked against
reference.json.  Human-readable lines go
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

import ladders

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 170
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "top_rung_s": "s", "rung_growth": "ratio",
                    "peak_rss_mb": "MB"}


def _worker(*args, timeout) -> dict:
    done = subprocess.run([sys.executable, str(WORKER), *args], capture_output=True, text=True,
                          timeout=timeout, check=False)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"error: worker exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _setup_seconds(workload, ladder_seed) -> tuple:
    """Median set-up time over fresh interpreters, after one unmeasured
    warm-up: (rescaled, wall clock)."""
    args = ["--workload", workload, "--ladder-seed", str(ladder_seed), "--setup-only"]
    _worker(*args, timeout=60)
    samples = [_worker(*args, timeout=60) for _ in range(SETUP_SAMPLES)]
    return median(s["setup_s"] for s in samples), median(s["setup_wall_s"] for s in samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ladders.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="draws the job order of each pass")
    parser.add_argument("--seconds", type=float, required=True, help="measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ladder-seed", type=int, default=ladders.DEFAULT_LADDER_SEED,
                        help=f"draws the rewrite words; {ladders.HELDOUT_LADDER_SEED} is held out for claims")
    args = parser.parse_args(argv)
    if not __debug__:
        print("error: python -O strips the verdict-deciding asserts; refusing to run", file=sys.stderr)
        return 2
    if not (ladders.SRC / "borelweyl" / "__init__.py").is_file():
        print(f"error: no borelweyl sources under {ladders.SRC}", file=sys.stderr)
        return 2

    run_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--ladder-seed", str(args.ladder_seed)] + (["--trace"] if args.trace else [])
    result = _worker(*run_args, timeout=RUN_TIMEOUT_S)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["layers"].items()}
    else:
        result["setup_s"], result["setup_wall_s"] = _setup_seconds(args.workload, args.ladder_seed)
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  ladder seed {args.ladder_seed}"
          f"  trace {args.trace}  jobs {attempted}")
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        print(f"  {'passes':<48} {result['passes']:>14}")
        for name in ("setup_wall_s", "pass_wall_s", "yardstick_s"):
            print(f"  {name:<48} {result[name]:>14.6g} s (wall clock)")
        if "pass_tail" in result:
            pct, value = result["pass_tail"]
            print(f"  {f'pass_s p{pct:.0f}':<48} {value:>14.6g} s")
    print(f"  {'failed_ratio':<48} {failed / attempted:>14.6g} ratio ({failed} of {attempted})")
    for key, reason in result["failures"]:
        print(f"  FAILED {key}: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
