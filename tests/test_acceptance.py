"""The acceptance gate, one criterion per test group.

Every check is exact: residuals compare against literal zero, never against a
tolerance.  Clauses that provably cannot hold are marked xfail(strict=True)
with the blocking facts frozen in the reason, so the scoreboard in conftest
reports those criteria as expected failures instead of quietly skipping them.
"""

import random
import re
import time
import tokenize
from fractions import Fraction
from io import BytesIO
from pathlib import Path

import pytest

from borelweyl.biproduct import (
    NCPoly,
    RewriteSystem,
    Rule,
    build_rules,
    check_local_confluence,
    mixed_relation_check,
    normal_form,
)
from borelweyl.cartan import catalog_matrix, quasi_inverse
from borelweyl.datum import (
    ClassicalDatum,
    build_quantum_datum,
    check_bound_classical,
    check_bound_quantum,
    solve_beta,
)
from borelweyl.exact import MLaurent, q_power
from borelweyl.morphisms import (
    birational_witness,
    classical_borel_assignment,
    fix_orientation,
    quantum_weyl_assignment,
    verify,
    weyl_assignment,
)
from borelweyl.skew import SkewElem
from conftest import flipped_upper_assignment, reference_normal_form

FINITE = ("A1", "A2", "A1xA1", "A3", "B2", "G2")
EVERYTHING = FINITE + ("A1affine",)

_SERRE_NAME = re.compile(r"ad(?:_q)?\([EF](\d+)\)\^\d+\([EF](\d+)\)")


def serre_indices(name):
    acting, target = _SERRE_NAME.match(name).groups()
    return int(acting) - 1, int(target) - 1


# -- criterion 1: classical Borel catalog -------------------------------------


def test_criterion_1_datum_solves_and_relations_split_as_proven():
    """Datum conditions close exactly; relation families behave per the
    vanishing law (a Serre image is zero iff the matrix entry is zero)."""
    started = time.perf_counter()
    for name in FINITE:
        C = catalog_matrix(name)
        datum = solve_beta(quasi_inverse(C))
        assert all(c.passed for c in check_bound_classical(datum)), name
        for side in ("upper", "lower"):
            report = verify(classical_borel_assignment(datum, side=side))
            for entry in report.entries:
                if entry.family == "serre":
                    i, j = serre_indices(entry.name)
                    assert entry.passed == (C[i, j] == 0), (name, entry.name)
                else:
                    assert entry.passed, (name, entry.name)
    assert time.perf_counter() - started < 60.0


_CLASSICAL_SERRE_SPOT = {
    "A2": "22 and -913/8",
    "A3": "161/8, -259/4, -125/8 and -85/8",
    "B2": "1407/4 and -3129/16",
    "G2": "147/4 and 169587/64",
}


def _red_classical(name):
    reason = (
        "adjacent Serre images are nonzero polynomials in the h's: the upper-"
        f"side residuals of {name} evaluate at h = (2, 5, ...) to "
        f"{_CLASSICAL_SERRE_SPOT[name]}"
    )
    return pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=reason))


@pytest.mark.parametrize(
    "name",
    ["A1", "A1xA1", _red_classical("A2"), _red_classical("A3"), _red_classical("B2"), _red_classical("G2")],
)
def test_criterion_1_every_borel_relation_maps_to_zero(name):
    datum = solve_beta(quasi_inverse(catalog_matrix(name)))
    for side in ("upper", "lower"):
        assert verify(classical_borel_assignment(datum, side=side)).passed


# -- criterion 2: Weyl embedding ----------------------------------------------


def test_criterion_2_rank_zero_kernel_images_are_the_catalog_ones():
    for name in FINITE:
        C = catalog_matrix(name)
        datum = solve_beta(quasi_inverse(C))
        assignment = weyl_assignment(datum)
        ctx = datum.context
        for i in range(C.n):
            down = tuple(-1 if k == i else 0 for k in range(C.n))
            up = tuple(1 if k == i else 0 for k in range(C.n))
            x_expected = SkewElem.monomial(ctx, datum.alpha[i], down)
            y_expected = SkewElem.monomial(ctx, ctx.coeff_scalar(-1), up)
            assert assignment.images[f"x{i + 1}"] == x_expected, name
            assert assignment.images[f"y{i + 1}"] == y_expected, name
        report = verify(assignment)
        assert report.passed, name
        assert birational_witness(report).passed


def test_criterion_2_affine_generalized_pairing_closes_with_the_gap_note():
    datum = solve_beta(quasi_inverse(catalog_matrix("A1affine")))
    assignment = weyl_assignment(datum)
    assert assignment.presentation.name == "Weyl(1,2) + 1 central"
    report = verify(assignment)
    assert report.passed
    assert any("combined torus directions" in note for note in report.conventions)


# -- criterion 3: quantum Borel catalog ----------------------------------------


def test_criterion_3_quantum_catalog_under_the_computed_orientation():
    """Orientation search settles on t^{+1} upstairs and t^{-1} downstairs;
    every non-Serre relation closes and Serre images vanish iff the entry is
    even.  The localized window and scaling conditions hold throughout."""
    started = time.perf_counter()
    for name in FINITE:
        C = catalog_matrix(name)
        qd = build_quantum_datum(quasi_inverse(C))
        for condition in check_bound_quantum(qd):
            if condition.label.startswith(
                ("scaling:", "localized scaling:", "localized window (weight-adapted):")
            ):
                assert condition.passed, (name, condition.label)
        for side, sign in (("upper", 1), ("lower", -1)):
            assignment, choice = fix_orientation(qd, side=side)
            assert assignment is not None and choice.signs == (sign,) * C.n
            report = verify(assignment)
            for entry in report.entries:
                if entry.family == "serre":
                    i, j = serre_indices(entry.name)
                    assert entry.passed == (C[i, j] % 2 == 0), (name, entry.name)
                else:
                    assert entry.passed, (name, entry.name)
    assert time.perf_counter() - started < 300.0


_QUANTUM_SERRE_NOTE = {
    "A2": "both adjacent pairs (entries -1)",
    "A3": "all four adjacent pairs (entries -1)",
    "B2": "the (2,1) pair (entry -1; the even -2 side closes)",
    "G2": "both pairs (entries -1 and -3)",
}


def _red_quantum(name):
    reason = (
        "odd matrix entries leave a quantum Serre residual proportional to "
        f"(q - 1)^2/q times a K-monomial: {_QUANTUM_SERRE_NOTE[name]}"
    )
    return pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=reason))


@pytest.mark.parametrize(
    "name",
    ["A1", "A1xA1", _red_quantum("A2"), _red_quantum("A3"), _red_quantum("B2"), _red_quantum("G2")],
)
def test_criterion_3_every_quantum_borel_relation_maps_to_zero(name):
    qd = build_quantum_datum(quasi_inverse(catalog_matrix(name)))
    for side in ("upper", "lower"):
        assignment, _ = fix_orientation(qd, side=side)
        assert verify(assignment).passed


# -- criterion 4: scaling table and quantum Weyl --------------------------------


def test_criterion_4_omega_scalings_and_quantum_weyl_relations_are_exact():
    for name in EVERYTHING:
        qd = build_quantum_datum(quasi_inverse(catalog_matrix(name)))
        r = qd.aux.rank
        for i, row in enumerate(qd.scaling_exponents):
            for j, exponent in enumerate(row):
                expected = qd.g[i] if (i == j and i < r) else 0
                assert exponent == expected, (name, i, j)
        report = verify(quantum_weyl_assignment(qd))
        assert report.passed, name
        assert birational_witness(report).passed


# -- criterion 5: confluence and strategy-free normal forms ---------------------


def test_criterion_5_small_rank_systems_are_locally_confluent_to_degree_four():
    for name in ("A1", "A2"):
        C = catalog_matrix(name)
        for mode in ("classical", "quantum"):
            report = check_local_confluence(build_rules(quasi_inverse(C), mode=mode), 4)
            assert report.passed, (name, mode)


def test_criterion_5_cross_pair_normal_forms_hold_verbatim():
    for name in ("A1", "A2"):
        C = catalog_matrix(name)
        for mode in ("classical", "quantum"):
            R = build_rules(quasi_inverse(C), mode=mode)
            for i in range(C.n):
                for j in range(C.n):
                    got = normal_form(R.poly((f"F{j + 1}", f"E{i + 1}")), R)
                    want = R.poly((f"E{i + 1}", f"F{j + 1}"))
                    if i == j and mode == "classical":
                        want = want - R.poly((f"H{j + 1}",))
                    elif i == j:
                        c = (q_power(R.d[i]) - q_power(-R.d[i])).inverse()
                        want = (
                            want
                            + R.poly((f"K{i + 1}^-1",), c)
                            - R.poly((f"K{i + 1}",), c)
                        )
                    assert got == want, (name, mode, i, j)


def test_criterion_5_normal_forms_do_not_depend_on_the_reduction_order():
    for name in ("A1", "A2"):
        C = catalog_matrix(name)
        for mode in ("classical", "quantum"):
            R = build_rules(quasi_inverse(C), mode=mode)
            rng = random.Random(f"acceptance/{name}/{mode}")

            def chaotic(redexes):
                return rng.choice(redexes)

            for _ in range(100):
                word = tuple(rng.choice(R.alphabet) for _ in range(rng.randint(0, 4)))
                poly = R.poly(word)
                nf = normal_form(poly, R)
                assert reference_normal_form(poly, R, "rightmost") == nf
                assert reference_normal_form(poly, R, chaotic) == nf


# -- criterion 6: negative controls ---------------------------------------------


def test_criterion_6_dropping_beta_fails_exactly_the_window_conditions():
    C = catalog_matrix("A2")
    datum = solve_beta(quasi_inverse(C))
    n = C.n
    bare = []
    for j in range(n):
        hj = MLaurent.var(n, j)
        bare.append((hj * hj - hj * 2) * Fraction(1, 4))
    zero = MLaurent.const(n, Fraction(0))
    corrupted = ClassicalDatum(datum.context, datum.aux, datum.alpha, (zero,) * n, tuple(bare))
    failing = [c for c in check_bound_classical(corrupted) if not c.passed]
    assert [c.label for c in failing] == ["D1^2(b2) = 0", "D2^2(b1) = 0"]
    assert all(c.residual == "1/2" for c in failing)
    assert not verify(classical_borel_assignment(corrupted, side="upper")).passed


def test_criterion_6_flipped_orientation_fails_the_weight_relations():
    qd = build_quantum_datum(quasi_inverse(catalog_matrix("A1")))
    report = verify(flipped_upper_assignment(qd))
    assert not report.passed
    failed = [e.name for e in report.entries if not e.passed and e.family == "weight"]
    assert "E1K1 = q^-2*K1E1" in failed
    assert "E1K1^-1 = q^2*K1^-1E1" in failed


def _with_pairing_rhs(R, terms):
    bad = Rule(("F1", "E1"), NCPoly(terms))
    rules = tuple(bad if rule.lead == ("F1", "E1") else rule for rule in R.rules)
    return RewriteSystem(R.mode, R.matrix, R.d, rules)


def test_criterion_6_corrupting_the_pairing_rule_breaks_local_confluence():
    R = _with_pairing_rhs(build_rules(quasi_inverse(catalog_matrix("A1"))), {("E1", "F1"): 1, ("E1",): -1})
    report = check_local_confluence(R, 4)
    assert not report.passed
    (ambiguity,) = report.unresolved()
    assert ambiguity.word == ("F1", "H1", "E1")
    assert not mixed_relation_check(R).passed


def test_criterion_6_merely_dropping_the_h_term_is_caught_by_the_cross_check():
    # this milder corruption presents a consistent algebra ([E,F] = 0 with the
    # same weights), so confluence survives and detection falls to the cross
    # relations, which report the missing -H on the diagonal
    R = _with_pairing_rhs(build_rules(quasi_inverse(catalog_matrix("A1"))), {("E1", "F1"): 1})
    assert check_local_confluence(R, 4).passed
    report = mixed_relation_check(R)
    assert not report.passed
    assert report.entries[0][1] == "-H1"


# -- criterion 7: plain versus localized windows ---------------------------------


def test_criterion_7_plain_window_fails_exactly_below_zero_and_both_appear():
    for name in EVERYTHING:
        C = catalog_matrix(name)
        by_label = {c.label: c for c in check_bound_quantum(build_quantum_datum(quasi_inverse(C)))}
        for i in range(C.n):
            for j in range(C.n):
                if i == j:
                    continue
                window = 1 - C[i, j]
                plain = by_label[
                    f"plain window: prod(sigma{i + 1} - q^2l·d{i + 1}, l<{window})(b{j + 1}) = 0"
                ]
                adapted = by_label[
                    f"localized window (weight-adapted): Ad-product on E{j + 1} along {i + 1}"
                ]
                assert plain.passed == (C[i, j] == 0), (name, i, j)
                assert adapted.passed, (name, i, j)


# -- criterion 8: exactness hygiene ----------------------------------------------


def test_criterion_8_the_computational_modules_never_touch_floats():
    # the driver's wall-clock timing fields are the single documented float
    # surface and never feed a computed value, so cli.py sits outside the scan
    import borelweyl

    root = Path(borelweyl.__file__).parent
    for path in sorted(root.rglob("*.py")):
        if path.name == "cli.py":
            continue
        for token in tokenize.tokenize(BytesIO(path.read_bytes()).readline):
            if token.type == tokenize.NAME:
                assert token.string != "float", (path.name, token.start)
            if token.type == tokenize.NUMBER:
                assert re.fullmatch(r"[0-9_]+", token.string), (path.name, token.string)


def test_criterion_8_every_inverted_denominator_is_factored_by_the_witness():
    allowed = {"torus-unit", "h-generator", "shifted-b"}
    for name in EVERYTHING:
        C = catalog_matrix(name)
        datum = solve_beta(quasi_inverse(C))
        qd = build_quantum_datum(quasi_inverse(C))
        reports = [
            verify(classical_borel_assignment(datum, side=side))
            for side in ("upper", "lower")
        ]
        reports.append(verify(weyl_assignment(datum)))
        for side in ("upper", "lower"):
            assignment, _ = fix_orientation(qd, side=side)
            reports.append(verify(assignment))
        reports.append(verify(quantum_weyl_assignment(qd)))
        for report in reports:
            witness = birational_witness(report)
            assert witness.passed and witness.flagged() == (), name
            assert {entry.kind for entry in witness.entries} <= allowed, name
