"""Exit-contract census: random generalized Cartan matrices through the command line.

The paper claims its result for every Kac-Moody algebra, and the command line
promises one exit contract for every matrix: 0 when every section passes, 1
when a section fails, 2 for bad input with nothing on stdout.  A seeded sample
of 30 random GCMs of size at most 3 (off-diagonal entries in 0, -1 ... -4, an
entry zero exactly when its transpose is) runs `verify --mode both
--degree-bound 4` and `analyze` through `cli.main`.  The sample holds finite,
affine, indefinite and non-symmetrizable matrices; the last are bad input and
exit 2.  A structured report that exits 0 or 1 says passed exactly when it
exits 0.

Each section's verdict also meets a predicate stated below, over the 25
symmetrizable draws.  Quantum Borel passes exactly when every off-diagonal
entry is even, and classical Borel exactly when the matrix is diagonal.  The
quantum datum and quantum Weyl sections pass on every draw.  The classical
datum passes on every draw of corank 0 (not only there: A1affine, outside the
sample, passes too), and the Weyl embedding has its verdict.  The biproduct
has one verdict in both modes: it passes on every draw of size at most 2 and
fails on some 3×3 draw.

`docs/census.py` counts the same runs by class of matrix (finite, affine,
indefinite, non-symmetrizable) into `docs/census.md`, and a test checks
that the committed table is what the script writes.

Every check that decides a verdict is a raise or an `if`, never an assert, so
one `python -O` subprocess over two census matrices prints the same
structured report as a normal run once the timings are dropped.
"""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest

import borelweyl
from borelweyl.cli import main
from conftest import ROOT, module_at

SEED = 20211


def census(size=30):
    """`size` distinct matrix texts such as "2 -1; -3 2", drawn from SEED."""
    rng = random.Random(SEED)
    seen = []
    while len(seen) < size:
        n = rng.choice((1, 2, 3, 3))
        rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                upper = rng.choice((0, -1, -2, -3, -4))
                rows[i][j] = upper
                rows[j][i] = upper and rng.choice((-1, -2, -3, -4))
        text = "; ".join(" ".join(str(x) for x in row) for row in rows)
        if text not in seen:
            seen.append(text)
    return seen


CENSUS = census()
VERIFY = ("verify", "--mode", "both", "--degree-bound", "4", "--format", "structured")


@cache
def run_cli(*argv):
    """(exit code, stdout) of one in-process run of the command line."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        status = main(list(argv))
    return status, out.getvalue()


def test_the_census_spans_every_size_and_exit_code():
    assert len(set(CENSUS)) == 30
    assert {text.count(";") + 1 for text in CENSUS} == {1, 2, 3}
    assert {run_cli(*VERIFY, "--matrix", text)[0] for text in CENSUS} == {0, 1, 2}


@pytest.mark.parametrize("text", CENSUS)
def test_verify_keeps_the_exit_contract(text):
    status, out = run_cli(*VERIFY, "--matrix", text)
    assert status in (0, 1, 2), text
    if status == 2:
        assert out == "", text
    else:
        assert json.loads(out)["passed"] is (status == 0), text


@pytest.mark.parametrize("text", CENSUS)
def test_analyze_keeps_the_exit_contract(text):
    status, out = run_cli("analyze", "--matrix", text)
    assert status in (0, 1, 2), text
    assert (out == "") is (status == 2), text


def _verdicts():
    """(matrix rows, corank, {(check, mode): passed}) for every symmetrizable draw."""
    out = []
    for text in CENSUS:
        status, stdout = run_cli(*VERIFY, "--matrix", text)
        if status != 2:
            report = json.loads(stdout)
            passed = {(s["check"], s["mode"]): s["passed"] for s in report["checks"]}
            out.append((report["matrix"], report["derived"]["corank"], passed))
    return out


def _off_diagonal(rows):
    return [x for i, row in enumerate(rows) for j, x in enumerate(row) if i != j]


def test_every_section_verdict_meets_its_predicate():
    verdicts = _verdicts()
    assert len(verdicts) == 25
    for rows, corank, passed in verdicts:
        even = all(x % 2 == 0 for x in _off_diagonal(rows))
        diagonal = not any(_off_diagonal(rows))
        for side in ("borel-upper", "borel-lower"):
            assert passed[side, "quantum"] is even, rows
            assert passed[side, "classical"] is diagonal, rows
        assert passed["datum", "quantum"] and passed["quantum-weyl", "quantum"], rows
        if corank == 0:
            assert passed["datum", "classical"], rows
        assert passed["weyl-embedding", "classical"] is passed["datum", "classical"], rows
        assert passed["biproduct", "classical"] is passed["biproduct", "quantum"], rows
        if len(rows) <= 2:
            assert passed["biproduct", "classical"], rows
    assert sum(all(x % 2 == 0 for x in _off_diagonal(rows)) for rows, _, _ in verdicts) == 4
    assert sum(not any(_off_diagonal(rows)) for rows, _, _ in verdicts) == 3
    assert any(len(rows) == 3 and not passed["biproduct", "classical"] for rows, _, passed in verdicts)


def test_the_committed_census_table_is_current():
    # docs/census.md is what docs/census.py writes, counted from this
    # module's cached runs rather than from runs of its own
    census_table = module_at("docs/census.py").table
    written = census_table(CENSUS, lambda text: run_cli(*VERIFY, "--matrix", text))
    assert written == (ROOT / "docs" / "census.md").read_text()


def _stripped(stdout):
    report = json.loads(stdout)
    report.pop("timings")
    for section in report["checks"]:
        section.pop("seconds")
    return report


def test_python_O_prints_the_same_census_reports():
    # the first two census matrices of rank 2 or more that are not bad input
    src = Path(borelweyl.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    picked = [text for text in CENSUS if ";" in text and run_cli(*VERIFY, "--matrix", text)[0] != 2][:2]
    assert len(picked) == 2
    for text in picked:
        status, normal = run_cli(*VERIFY, "--matrix", text)
        done = subprocess.run(
            [sys.executable, "-O", "-m", "borelweyl", *VERIFY, "--matrix", text],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode == status, done.stderr
        assert _stripped(done.stdout) == _stripped(normal), text
