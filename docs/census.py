"""Write the census table: `verify` verdicts over random Cartan matrices.

Runs the 30 seeded draws of ``tests/test_census.py`` (its ``census()``)
through the command line, ``verify --mode both --degree-bound 4 --format
structured`` in process by that module's ``run_cli``, and counts for each
class of matrix how many draws pass each section in each mode.  The table
goes to ``docs/census.md``:

    PYTHONPATH=src python3 docs/census.py

so that work on the open correctness items shows as numbers.  A matrix
that `cartan.symmetrize` rejects is non-symmetrizable, bad input with exit
status 2 and no sections.  Otherwise its class is Kac's type (Kac, ch. 4):
an indecomposable block is finite when every principal minor is positive,
affine when its determinant is 0 and every proper principal minor is
positive, and indefinite otherwise.  A matrix is finite when every block
is, affine when every block is finite or affine and one is affine, and
indefinite when some block is.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
CLASSES = ("finite", "affine", "indefinite", "non-symmetrizable")


def _det(rows) -> Fraction:
    """Exact determinant by elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((r for r in range(k, len(m)) if m[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, len(m)):
            factor = m[r][k] / m[k][k]
            m[r] = [a - factor * b for a, b in zip(m[r], m[k])]
    return det


def _blocks(rows) -> list:
    """The index sets of the indecomposable blocks."""
    n, seen, blocks = len(rows), set(), []
    for root in range(n):
        if root not in seen:
            block, stack = [], [root]
            seen.add(root)
            while stack:
                i = stack.pop()
                block.append(i)
                for j in range(n):
                    if j not in seen and rows[i][j]:
                        seen.add(j)
                        stack.append(j)
            blocks.append(sorted(block))
    return blocks


def _block_type(rows, block) -> str:
    def minor(indices):
        return _det([[rows[i][j] for j in indices] for i in indices])

    proper = all(minor(s) > 0 for k in range(1, len(block)) for s in combinations(block, k))
    whole = minor(block)
    if proper and whole > 0:
        return "finite"
    return "affine" if proper and whole == 0 else "indefinite"


def matrix_class(rows) -> str:
    from borelweyl.cartan import CartanError, symmetrize, validate_gcm

    try:
        symmetrize(validate_gcm(rows))
    except CartanError:
        return "non-symmetrizable"
    types = {_block_type(rows, block) for block in _blocks(rows)}
    if "indefinite" in types:
        return "indefinite"
    return "affine" if "affine" in types else "finite"


def table(texts, run) -> str:
    """The census page for the matrix texts, given run(text) -> (exit status,
    stdout) of the structured verify command."""
    draws = dict.fromkeys(CLASSES, 0)
    exits = {status: dict.fromkeys(CLASSES, 0) for status in (0, 1, 2)}
    passes = {}  # (check, mode) -> {class: draws passed}, in report order
    for text in texts:
        kind = matrix_class([[int(x) for x in row.split()] for row in text.split(";")])
        status, out = run(text)
        draws[kind] += 1
        exits[status][kind] += 1
        for section in json.loads(out)["checks"] if out else ():
            count = passes.setdefault((section["check"], section["mode"]), {})
            count[kind] = count.get(kind, 0) + section["passed"]
    lines = [
        "# Census of `verify` verdicts",
        "",
        f"Written by `docs/census.py` from the {len(texts)} seeded draws of",
        "`tests/test_census.py` (seed 20211, size at most 3, off-diagonal entries",
        "0 to -4), each run as `verify --mode both --degree-bound 4`.  A column",
        "is a class of matrix with its number of draws; a cell counts the draws",
        "of that class whose section passed.  A non-symmetrizable draw is bad",
        "input (exit status 2) and has no sections.",
        "",
        "| section | mode | " + " | ".join(f"{c} ({draws[c]})" for c in CLASSES) + " |",
        "|---|---|" + "---|" * len(CLASSES),
    ]
    for status, count in exits.items():
        lines.append(f"| exit status {status} | | " + " | ".join(str(count[c]) for c in CLASSES) + " |")
    for (check, mode), count in passes.items():
        lines.append(f"| {check} | {mode} | " + " | ".join(str(count.get(c, "-")) for c in CLASSES) + " |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "tests"))
    from test_census import VERIFY, census, run_cli

    (HERE / "census.md").write_text(table(census(), lambda text: run_cli(*VERIFY, "--matrix", text)))
