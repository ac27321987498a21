"""The four workload ladders, generated from the ladder seed.

A workload is a list of rungs; a rung is the set of jobs at one scale (rank
for verify, matrix size for analyze, word length for rewrite).  The matrices
and rungs are fixed in workloads.json.  The ladder seed draws the rewrite
words, so the default seed and the held-out seed give different word lists;
the run seed (``--seed``) only draws the order in which a pass runs the jobs,
which keeps the work of a pass the same from seed to seed.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((HERE / "workloads.json").read_text())
WORKLOADS = tuple(SPEC["workloads"])
DEFAULT_LADDER_SEED = SPEC["default_ladder_seed"]
HELDOUT_LADDER_SEED = SPEC["heldout_ladder_seed"]


@dataclass(frozen=True)
class Job:
    key: str  # unique within a ladder; indexes the reference
    rung: str
    command: str
    matrix: str
    mode: str = "both"
    degree_bound: int = 4
    word: str = ""


def matrix_rows(name: str) -> list:
    """Rows of a named matrix: An, the affine An~, or an entry of workloads.json."""
    m = re.fullmatch(r"A(\d+)(~?)", name)
    if m is None:
        return [[int(x) for x in row.split()] for row in SPEC["matrices"][name].split(";")]
    affine = bool(m.group(2))
    n = int(m.group(1)) + affine
    if affine and n < 3:
        raise ValueError("affine type A needs size 3 or more here")
    rows = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    if affine:
        rows[0][n - 1] = rows[n - 1][0] = -1
    return rows


def plan(workload: str, ladder_seed: int = DEFAULT_LADDER_SEED) -> list:
    """Every job of the workload, lower rungs first."""
    spec = SPEC["workloads"][workload]
    base = spec["job"]
    command = base["command"]
    jobs = []
    if command != "rewrite":
        mode = base.get("mode", "both")
        for rung, names in spec["rungs"]:
            for name in names:
                jobs.append(Job(f"{command}/{mode}/{name}", rung, command, name, mode,
                                base.get("degree_bound", 4)))
        return jobs
    rng = random.Random(ladder_seed)
    for rung, length in spec["rungs"]:
        for name in spec["matrices"]:
            n = len(matrix_rows(name))
            letters = [f"{x}{i + 1}" for x in "EF" for i in range(n)]
            for mode in spec["modes"]:
                for _ in range(spec["words_per_matrix_and_mode"]):
                    word = " ".join(rng.choice(letters) for _ in range(length))
                    jobs.append(Job(f"rewrite/{mode}/{name}/{word}", rung, command, name, mode,
                                    word=word))
    return jobs


def rungs(jobs) -> list:
    """Rung names in ladder order."""
    return list(dict.fromkeys(job.rung for job in jobs))


def job_spec(cli, job: Job):
    """The cli.JobSpec for a job, asking for the structured report."""
    from borelweyl.cartan import validate_gcm

    return cli.JobSpec(
        command=job.command,
        matrix=validate_gcm(matrix_rows(job.matrix)),
        mode=job.mode,
        degree_bound=job.degree_bound,
        fmt="structured",
        word=job.word,
        matrix_name=job.matrix,
    )


def selftest_job(workload: str) -> Job:
    """A small job of the workload's kind, for checking the tracer's coverage."""
    job = plan(workload)[0]
    return replace(job, key="selftest", matrix="A2", word="E1 F2 E2 F1 E1 F1" if job.word else "")


def pass_orders(seed: int, count: int):
    """Job order for each pass, drawn from the run seed."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(range(count), count)
