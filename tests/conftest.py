"""Scoreboard for the acceptance suite: one verdict line per criterion.

Tests named ``test_criterion_<n>_*`` in test_acceptance.py are grouped by
number.  A criterion passes when every clause passed outright; clauses that
are known to be unattainable are marked xfail(strict=True) and turn the
verdict into an expected failure, which is reported as such rather than
hidden.  Anything else (a plain failure, an xpass, an error) is unexpected.

It also holds the oracles that several test modules share:
`reference_redexes`, every redex of a word at every position;
`reference_normal_form`, the independent reducer that the biproduct and
acceptance tests compare `normal_form` with; `evaluate_laurent` and
`evaluate_q`, which specialize an exact value at rational points;
`evaluate_word`, the image of one polynomial under an assignment; and
`flipped_upper_assignment`, a quantum assignment with the wrong orientation;
and `module_at`, which loads a benchmark or docs script by path.
"""

import importlib.util
import re
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from borelweyl.biproduct import NCPoly, RewriteLimitError, word_str
from borelweyl.morphisms import _oriented_image, _prepare_images, fix_orientation

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_")

_TITLES = {
    1: "classical Borel catalog: datum solved, relations evaluated exactly",
    2: "canonical pairs embed, including the affine generalized pairing",
    3: "quantum Borel catalog under the computed orientation",
    4: "omega scaling table and quantum canonical pairs",
    5: "bounded-degree confluence and strategy-independent normal forms",
    6: "negative controls are detected and reported",
    7: "plain versus localized window conditions, both reported",
    8: "exact arithmetic throughout; denominators factored by the witness",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    buckets = {}
    for category, reports in terminalreporter.stats.items():
        for report in reports:
            nodeid = getattr(report, "nodeid", "")
            match = _CRITERION.search(nodeid)
            if not match or getattr(report, "when", "call") != "call":
                continue
            buckets.setdefault(int(match.group(1)), []).append(category)
    if not buckets:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(_TITLES):
        categories = buckets.get(number)
        if categories is None:
            terminalreporter.write_line(f"criterion {number}: NOT RUN - {_TITLES[number]}")
            continue
        expected_red = categories.count("xfailed")
        clean = all(c in ("passed", "xfailed") for c in categories)
        if not clean:
            verdict = "FAIL"
        elif expected_red:
            verdict = f"FAIL (expected: {expected_red} clause(s) red by design analysis)"
        else:
            verdict = "PASS"
        terminalreporter.write_line(f"criterion {number}: {verdict} - {_TITLES[number]}")


def reference_redexes(R):
    """R's redexes at every position, by a per-first-letter lead lookup.

    The returned function lists (position, rule) for every lead occurrence
    in a word, ordered by position, then by rule construction order.
    `RewriteSystem.redexes` must return this list's first entry at or after
    its start.
    """
    by_first = {}
    for rule in R.rules:
        by_first.setdefault(rule.lead[0], []).append(rule)

    def redexes(word):
        return [
            (pos, rule)
            for pos, letter in enumerate(word)
            for rule in by_first.get(letter, ())
            if word[pos : pos + len(rule.lead)] == rule.lead
        ]

    return redexes


def reference_normal_form(p, R, strategy, step_limit=200_000, popped=None):
    """Reduce p by a max-scan loop over `reference_redexes`.

    Always the largest word, the redex picked by ``strategy`` ("leftmost",
    "rightmost" or a callable on the redex list).  Under "leftmost" this is
    the order that `normal_form`'s heap and lead index must reproduce, step
    for step and with the same `RewriteLimitError`.  A ``popped`` list
    receives every word the loop takes, in order.
    """
    redexes = reference_redexes(R)
    pick = {"leftmost": lambda rs: rs[0], "rightmost": lambda rs: rs[-1]}.get(strategy, strategy)
    work, done, steps, trace = dict(p.terms), {}, 0, []
    # the term order: graded, then letter by letter by place in the alphabet
    place = {letter: k for k, letter in enumerate(R.alphabet)}
    while work:
        word = max(work, key=lambda w: (len(w), [place[letter] for letter in w]))
        coeff = work.pop(word)
        if popped is not None:
            popped.append(word)
        found = redexes(word)
        # R.redexes gives the leftmost position and the first rule there
        assert found[:1] == R.redexes(word)
        if not found:
            s = coeff + done[word] if word in done else coeff
            if s:
                done[word] = s
            else:
                done.pop(word, None)
            continue
        steps += 1
        pos, rule = pick(found)
        trace.append(f"{word_str(word)} at {pos} via {word_str(rule.lead)}")
        if len(trace) > 12:
            trace.pop(0)
        if steps > step_limit:
            raise RewriteLimitError(steps, trace)
        head, tail = word[:pos], word[pos + len(rule.lead) :]
        for w, c in rule.rhs.terms.items():
            nw = head + w + tail
            s = coeff * c + work[nw] if nw in work else coeff * c
            if s:
                work[nw] = s
            else:
                work.pop(nw, None)
    return NCPoly(done)


def evaluate_laurent(f, point):
    """An MLaurent at concrete scalars; negative exponents need nonzero entries."""
    total = Fraction(0)
    for e, c in f.terms.items():
        for i, k in enumerate(e):
            if k:
                c = c * point[i] ** k
        total = total + c
    return total


def evaluate_q(x, value):
    """A QScalar with q specialized to a rational number; q stays formal in the engine."""
    num = sum(Fraction(c) * value**e for e, c in enumerate(x.num))
    den = sum(Fraction(c) * value**e for e, c in enumerate(x.den))
    return num / den


def evaluate_word(assignment, p):
    """The image of a noncommutative polynomial ((coeff, word), ...) under the
    assignment, by the evaluation `verify` runs on each relation."""
    p = tuple(p)
    return _prepare_images(assignment.context, assignment.images, [p]).evaluate(p)


def flipped_upper_assignment(qdatum):
    """The quantum upper assignment with every E_i sent to b_i·t_i^{-1}, the
    sign that `fix_orientation` rejects: its own assignment, E images flipped."""
    assignment, _ = fix_orientation(qdatum, "upper")
    flipped = {f"E{i + 1}": _oriented_image(qdatum, i, -1) for i in range(qdatum.context.n)}
    return replace(assignment, images={**assignment.images, **flipped}, conventions=())



ROOT = Path(__file__).resolve().parents[1]


def module_at(path):
    """The module of a file under the repository root, loaded once by path
    under a name of its own, such as ``perfbench_ladders``."""
    path = ROOT / path
    name = f"{path.parent.name}_{path.stem}"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module
