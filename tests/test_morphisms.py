import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import product as iproduct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import borelweyl
from borelweyl import morphisms
from borelweyl.biproduct import build_rules, normal_form, parse_word
from borelweyl.cartan import catalog_matrix, quasi_inverse, validate_gcm
from borelweyl.cli import _corrupted, _witness_block
from borelweyl.datum import ClassicalDatum, QuantumDatum, build_quantum_datum, check_bound_quantum, solve_beta
from borelweyl.exact import MLaurent, PolyFrac, QQ_ONE, QScalar, q_power
from borelweyl.skew import ModelContext
from borelweyl.morphisms import (
    GeneratorAssignment,
    Relation,
    Presentation,
    VerificationReport,
    _classify_classical,
    birational_witness,
    classical_borel_assignment,
    fix_orientation,
    quantum_weyl_assignment,
    reflect,
    verify,
    weyl,
    weyl_assignment,
)
from borelweyl.skew import SkewElem
from conftest import evaluate_laurent, evaluate_word, flipped_upper_assignment

CATALOG = ["A1", "A2", "A1xA1", "A3", "B2", "G2", "A1affine"]

# Serre residuals are polynomials in the h-variables; we pin them down by
# evaluating at two points, chosen so that every nonzero residual is nonzero
# at the second one.  Points are written in the dual coordinates (the ones the
# shifts act on by unit translation) and mapped through h = C * coords.
COORD_P1 = (1, 2, 3)
COORD_P2 = (2, 5, 1)


def h_point(C, coords):
    return tuple(
        Fraction(sum(C[u, v] * coords[v] for v in range(C.n))) for u in range(C.n)
    )


# (matrix, side) -> {(i, j): value at P2}; pairs with a_ij = 0 must vanish
# identically and are listed as None.
SERRE_AT_P2 = {
    ("A2", "upper"): {(1, 2): Fraction(22), (2, 1): Fraction(-913, 8)},
    ("A2", "lower"): {(1, 2): Fraction(491, 2), (2, 1): Fraction(-4927, 8)},
    ("A1xA1", "upper"): {(1, 2): None, (2, 1): None},
    ("A1xA1", "lower"): {(1, 2): None, (2, 1): None},
    ("A3", "upper"): {
        (1, 2): Fraction(161, 8),
        (2, 1): Fraction(-259, 4),
        (2, 3): Fraction(-125, 8),
        (3, 2): Fraction(-85, 8),
        (1, 3): None,
        (3, 1): None,
    },
    ("A3", "lower"): {
        (1, 2): Fraction(1791, 8),
        (2, 1): Fraction(-1727, 4),
        (2, 3): Fraction(-1859, 8),
        (3, 2): Fraction(961, 8),
        (1, 3): None,
        (3, 1): None,
    },
    ("B2", "upper"): {(1, 2): Fraction(1407, 4), (2, 1): Fraction(-3129, 16)},
    ("B2", "lower"): {(1, 2): Fraction(52757, 4), (2, 1): Fraction(-16743, 16)},
    ("G2", "upper"): {(1, 2): Fraction(147, 4), (2, 1): Fraction(169587, 64)},
    ("G2", "lower"): {(1, 2): Fraction(27, 4), (2, 1): Fraction(-1127601, 64)},
    ("A1affine", "upper"): {(1, 2): Fraction(23040), (2, 1): Fraction(-576)},
    ("A1affine", "lower"): {(1, 2): Fraction(-576), (2, 1): Fraction(23040)},
}


# -- presentation shapes -------------------------------------------------------


def test_borel_upper_rank_one_is_a_single_weight_relation():
    pres = classical_borel_assignment(solve_beta(quasi_inverse(catalog_matrix("A1")))).presentation
    assert pres.generators == ("H1", "E1")
    assert len(pres.relations) == 1
    (rel,) = pres.relations
    assert rel.family == "weight"
    assert rel.terms == (
        (Fraction(1), ("H1", "E1")),
        (Fraction(-1), ("E1", "H1")),
        (Fraction(-2), ("E1",)),
    )


def test_weyl_one_one_is_the_canonical_commutator():
    pres = weyl(1, 1)
    (rel,) = pres.relations
    assert rel.terms == (
        (Fraction(1), ("x1", "y1")),
        (Fraction(-1), ("y1", "x1")),
        (Fraction(-1), ()),
    )


def quantum_upper_presentation(name):
    """The quantum upper Borel presentation that `fix_orientation` hands over."""
    asg, _ = fix_orientation(build_quantum_datum(quasi_inverse(catalog_matrix(name))), "upper")
    return asg.presentation


def test_quantum_serre_coefficients_are_balanced():
    pres = quantum_upper_presentation("A2")
    serre = pres.by_family("serre")
    assert len(serre) == 2
    rel = next(r for r in serre if r.name.startswith("ad_q(E1)"))
    coeffs = [c for c, _ in rel.terms]
    two_q = q_power(1) + q_power(-1)
    assert coeffs == [QQ_ONE, -two_q, QQ_ONE]
    words = [w for _, w in rel.terms]
    assert words == [("E1", "E1", "E2"), ("E1", "E2", "E1"), ("E2", "E1", "E1")]


def test_g2_window_reaches_four():
    pres = quantum_upper_presentation("G2")
    rel = next(r for r in pres.by_family("serre") if r.name.startswith("ad_q(E2)"))
    assert len(rel.terms) == 5  # window 1 - (-3) = 4


def test_presentation_rejects_undeclared_symbols():
    bad = Relation("nope", "commute", ((Fraction(1), ("Z9",)),))
    with pytest.raises(ValueError, match="undeclared"):
        Presentation("broken", ("H1",), (bad,))


def test_an_assignment_must_send_every_generator_somewhere():
    # every relation `verify` evaluates uses declared generators only, so this
    # check is what gives each of its letters an image
    classical = classical_borel_assignment(solve_beta(quasi_inverse(catalog_matrix("A2"))))
    quantum, _ = fix_orientation(build_quantum_datum(quasi_inverse(catalog_matrix("B2"))), "upper")
    for asg, dropped in ((classical, "E2"), (quantum, "K2^-1")):
        images = {sym: img for sym, img in asg.images.items() if sym != dropped}
        with pytest.raises(ValueError) as err:
            replace(asg, images=images)
        assert str(err.value) == f"unassigned generators: {[dropped]}"


def test_evaluate_word_empty_and_single():
    datum = solve_beta(quasi_inverse(catalog_matrix("A1")))
    asg = classical_borel_assignment(datum)
    one = SkewElem.torus(asg.context, (0,))
    assert evaluate_word(asg, ((Fraction(1), ()),)) == one
    assert evaluate_word(asg, ((Fraction(1), ("E1",)),)) == asg.images["E1"]


# -- Horner evaluation against word-by-word products ---------------------------


def word_by_word(asg, p):
    """Each word multiplied out from the identity, scaled and summed: the
    evaluation that the packed Horner chain (over ℚ) and the monomial ring
    (over ℚ(q)) replaced, kept as an oracle."""
    ctx = asg.context
    total = SkewElem.zero(ctx)
    for coeff, word in p:
        cur = SkewElem.torus(ctx, (0,) * ctx.n)
        for sym in word:
            cur = cur * asg.images[sym]
        total = total + cur.scale(coeff)
    return total


@cache
def horner_assignment(kind):
    """The classical A3 and the quantum B2 upper assignments."""
    if kind == "classical":
        return classical_borel_assignment(solve_beta(quasi_inverse(catalog_matrix("A3"))), "upper")
    asg, _ = fix_orientation(build_quantum_datum(quasi_inverse(catalog_matrix("B2"))), "upper")
    return asg


_scalars = {
    "classical": st.fractions(min_value=-3, max_value=3, max_denominator=4),
    "quantum": st.tuples(st.integers(-2, 2), st.integers(-3, 3)).map(lambda t: q_power(t[0]) * t[1]),
}


@pytest.mark.parametrize("kind", ["classical", "quantum"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_horner_evaluation_matches_word_by_word_products(kind, data):
    asg = horner_assignment(kind)
    letters = st.sampled_from(asg.presentation.generators)
    # words drawn from a small pool, so that terms repeat words and share
    # prefixes and last letters; the empty word is a word of length 0
    pool = data.draw(st.lists(st.lists(letters, max_size=4).map(tuple), min_size=1, max_size=4))
    p = data.draw(st.lists(st.tuples(_scalars[kind], st.sampled_from(pool)), max_size=6))
    assert evaluate_word(asg, tuple(p)) == word_by_word(asg, p)


@pytest.mark.parametrize("kind", ["classical", "quantum"])
def test_horner_evaluation_of_cancelling_terms_is_zero(kind):
    asg = horner_assignment(kind)
    one = asg.context.one
    torus = ("H1", "H2") if kind == "classical" else ("K1", "K2")
    p = (
        (one, ("E1", "E2", "E1")), (-one, ("E1", "E2", "E1")),  # one word twice
        (one, torus), (-one, torus[::-1]),  # commuting letters
        (one * 3, ()), (-one * 3, ()),
    )
    assert word_by_word(asg, p) == SkewElem.zero(asg.context)
    assert evaluate_word(asg, p) == SkewElem.zero(asg.context)
    assert not evaluate_word(asg, p).terms


# -- cleared evaluation against naive products over ℚ ----------------------------


def classical_assignments(name):
    """The classical upper, lower and Weyl assignments of a catalog or ladder matrix."""
    datum = solve_beta(quasi_inverse(validate_gcm(LADDER[name]) if name in LADDER else catalog_matrix(name)))
    return [classical_borel_assignment(datum, side) for side in ("upper", "lower")] + [weyl_assignment(datum)]


@pytest.mark.parametrize("name", CATALOG + ["B3", "D4"])
def test_cleared_evaluation_matches_naive_fraction_products(name):
    # every relation, evaluated on integer images and divided once by the lcm,
    # against each word multiplied out on the Fraction images, scaled and summed
    cleared = 0
    for asg in classical_assignments(name):
        relations = asg.presentation.relations
        ring = morphisms._prepare_images(asg.context, asg.images, [rel.terms for rel in relations])
        cleared += sum(d > 1 for d in ring.dens.values())
        for rel in relations:
            assert ring.evaluate(rel.terms) == word_by_word(asg, rel.terms), rel.name
    assert cleared  # some image has a denominator to clear


def _scalars_of(f):
    """The scalars of a coefficient: an MLaurent's, or a PolyFrac's two parts'."""
    return [c for part in ((f.num, f.den) if isinstance(f, PolyFrac) else (f,)) for c in part.terms.values()]


@pytest.mark.parametrize("name", CATALOG + ["B3"])
def test_classical_runs_keep_every_scalar_exact(name):
    # the static guard sees no float literal, but int / int makes a float at
    # run time: every scalar the classical path makes is a nonzero int or Fraction
    assignments = classical_assignments(name)
    datum = assignments[0].datum
    seen = [c for b in datum.b for c in _scalars_of(b)]
    for asg in assignments:
        report = verify(asg)
        elements = [e.residual for e in report.entries] + list(report.recovered.values())
        seen += [c for elem in elements for f in elem.terms.values() for c in _scalars_of(f)]
    if name in CATALOG:
        R = build_rules(datum.aux)
        n = datum.context.n
        word = [f"F{i}" for i in range(n, 0, -1)] + [f"E{i}" for i in range(n, 0, -1)] * 2
        seen += list(normal_form(R.poly(parse_word(" ".join(word), R)), R).terms.values())
    assert seen
    bad = [c for c in seen if type(c) not in (int, Fraction) or not c]
    assert bad == [], name


def test_verify_shares_products_between_words(monkeypatch):
    # Horner on the last letter: the 18 relations of the classical A3 upper
    # Borel have 101 letters, one product each word by word (the recovery adds
    # 6 skew products), so verify made 107 products; sharing right products
    # makes 54: 48 packed right products by an image, and the recovery's 6
    asg = classical_borel_assignment(solve_beta(quasi_inverse(catalog_matrix("A3"))), "upper")
    relations = asg.presentation.relations
    letters = sum(len(word) for rel in relations for _, word in rel.terms)
    assert (len(relations), letters) == (18, 101)
    calls = []

    def counted(kind, product):
        def wrapper(*args):
            calls.append(kind)
            return product(*args)

        return wrapper

    monkeypatch.setattr(SkewElem, "__mul__", counted("skew", SkewElem.__mul__))
    monkeypatch.setattr(morphisms._PackedImages, "times", counted("packed", morphisms._PackedImages.times))
    report = verify(asg)
    assert report.recovered
    assert (calls.count("packed"), calls.count("skew")) == (48, 6)
    assert len(calls) == 54 < letters + 6 == 107


# -- the packed classical chain --------------------------------------------------


@cache
def packed_assignment(case):
    """A classical Borel assignment: A3's own datum, or the corrupted A2/B2 ones,
    whose b_j = h_j(h_j - 2)/4 clear a denominator of 4."""
    name, side = case.split()
    datum = solve_beta(quasi_inverse(catalog_matrix(name.removesuffix("-corrupt"))))
    if name.endswith("-corrupt"):
        datum = _corrupted(datum)
    return classical_borel_assignment(datum, side)


PACKED_CASES = ["A3 upper", "A3 lower", "A2-corrupt upper", "B2-corrupt lower"]


@pytest.mark.parametrize("case", PACKED_CASES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_packed_chain_matches_word_by_word_products(case, data):
    asg = packed_assignment(case)
    letters = st.sampled_from(asg.presentation.generators)  # the H's and the E's or F's
    pool = data.draw(st.lists(st.lists(letters, max_size=5).map(tuple), min_size=1, max_size=4))
    p = data.draw(st.lists(st.tuples(_scalars["classical"], st.sampled_from(pool)), max_size=6))
    got = evaluate_word(asg, tuple(p))
    assert got == word_by_word(asg, p)
    assert all(type(c) in (int, Fraction) and c for f in got.terms.values() for c in f.terms.values())


@pytest.mark.parametrize("name", ["A2", "B2"])
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_corrupted_data_leave_nonzero_fraction_residuals(name, side):
    asg = packed_assignment(f"{name}-corrupt {side}")
    relations = asg.presentation.relations
    ring = morphisms._prepare_images(asg.context, asg.images, [rel.terms for rel in relations])
    letter = "E" if side == "upper" else "F"
    assert {ring.dens[f"{letter}{i}"] for i in (1, 2)} == {4}
    fractions = 0
    for rel in relations:
        residual = ring.evaluate(rel.terms)
        assert residual == word_by_word(asg, rel.terms), rel.name
        assert bool(residual) == (rel.family == "serre"), rel.name
        fractions += any(type(c) is Fraction and c.denominator > 1
                         for f in residual.terms.values() for c in f.terms.values())
    assert fractions == 2  # both Serre residuals are divided by L != 1


def test_a_product_exponent_of_all_ones_fits_the_width(monkeypatch):
    # the A2 Weyl images have per-variable degree 1, so x1^7 reaches exponent
    # 7 = 2^3 - 1: the width rule gives exactly 3 bits, and 2 bits corrupt it
    asg = weyl_assignment(solve_beta(quasi_inverse(catalog_matrix("A2"))))
    p = ((1, ("x1",) * 7),)
    expected = word_by_word(asg, p)
    assert max(x for f in expected.terms.values() for e in f.terms for x in e) == 7
    assert morphisms._key_width(7, 1) == 3
    assert evaluate_word(asg, p) == expected
    width = morphisms._key_width
    monkeypatch.setattr(morphisms, "_key_width", lambda longest, degree: width(longest, degree) - 1)
    assert evaluate_word(asg, p) != expected


def test_a_classical_image_must_be_a_polynomial():
    asg = packed_assignment("A3 upper")
    ctx = asg.context
    for bad in (PolyFrac(ctx.coeff_one(), ctx.coeff_var(0)), MLaurent(3, {(-1, 0, 0): 1})):
        images = dict(asg.images, E1=SkewElem.monomial(ctx, bad, (-1, 0, 0)))
        with pytest.raises(ValueError, match="the image of E1 has a coefficient that is not a polynomial"):
            morphisms._prepare_images(ctx, images, [((1, ("E1",)),)])


@pytest.mark.parametrize("side", ["upper", "lower", "weyl"])
def test_classical_relations_stay_packed_until_a_nonzero_residual(monkeypatch, side):
    # while verify evaluates the relations of A3 (up to the recovery phase), no
    # MLaurent product runs, each σ^m of a coefficient is shifted once, and an
    # MLaurent is built only for a term of a nonzero residual
    datum = solve_beta(quasi_inverse(catalog_matrix("A3")))
    asg = weyl_assignment(datum) if side == "weyl" else classical_borel_assignment(datum, side)
    counts = {"mul": 0, "init": 0}
    shifts, inside_shift, at_recovery = [], [], {}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += not inside_shift
            return fn(*args, **kwargs)

        return wrapper

    def shift(f, u):
        shifts.append((id(f), tuple(u)))
        inside_shift.append(1)
        try:
            return real_shift(f, u)
        finally:
            inside_shift.pop()

    def snapshot(assignment, inverted):
        at_recovery.update(counts, shifts=list(shifts))
        return asg.recover(assignment, inverted)

    traced = replace(asg, recover=snapshot)
    real_shift = borelweyl.skew.shift
    monkeypatch.setattr(borelweyl.skew, "shift", shift)
    monkeypatch.setattr(MLaurent, "__mul__", counting("mul", MLaurent.__mul__))
    monkeypatch.setattr(MLaurent, "__init__", counting("init", MLaurent.__init__))
    report = verify(traced)
    residual_terms = sum(len(e.residual.terms) for e in report.entries if e.family != "recovery")
    assert at_recovery["mul"] == 0
    assert at_recovery["shifts"]
    assert len(set(at_recovery["shifts"])) == len(at_recovery["shifts"])
    assert at_recovery["init"] == residual_terms
    assert (residual_terms > 0) == (side != "weyl")


# -- the monomial quantum chain --------------------------------------------------

AFFINE_A2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def quantum_assignments(name):
    """The quantum upper, lower and Weyl assignments of a catalog or ladder
    matrix, or of Ã2, and the upper one with every E_i flipped."""
    rows = {"A2~": AFFINE_A2, **LADDER}.get(name)
    qd = build_quantum_datum(quasi_inverse(catalog_matrix(name) if rows is None else validate_gcm(rows)))
    borels = [fix_orientation(qd, side)[0] for side in ("upper", "lower")]
    return borels + [quantum_weyl_assignment(qd), flipped_upper_assignment(qd)]


@pytest.mark.parametrize("name", CATALOG + ["B3", "D4", "A2~"])
def test_monomial_evaluation_matches_skew_products(name):
    # every relation, evaluated as q-weighted monomials, against each word
    # multiplied out on the SkewElem images, scaled and summed
    nonzero = 0
    for asg in quantum_assignments(name):
        relations = asg.presentation.relations
        ring = morphisms._prepare_images(asg.context, asg.images, [rel.terms for rel in relations])
        for rel in relations:
            got, want = ring.evaluate(rel.terms), word_by_word(asg, rel.terms)
            assert got == want, rel.name
            assert got.to_str(asg.context.names) == want.to_str(asg.context.names), rel.name
            nonzero += bool(got)
    assert nonzero  # the flipped weight relations at least leave residuals


@pytest.mark.parametrize("side", ["upper", "lower", "weyl"])
def test_quantum_relations_make_no_skew_product_and_no_gcd(monkeypatch, side):
    # while verify evaluates the relations of the quantum A3 (up to the
    # recovery phase), no SkewElem product and no polynomial gcd runs, and a
    # QScalar is built only for a coefficient of a nonzero residual
    qd = quantum_datum("A3")
    asg = quantum_weyl_assignment(qd) if side == "weyl" else fix_orientation(qd, side)[0]
    counts = {"skew": 0, "gcd": 0, "qscalar": 0}
    at_recovery = {}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(assignment, inverted):
        at_recovery.update(counts)
        return asg.recover(assignment, inverted)

    traced = replace(asg, recover=snapshot)
    monkeypatch.setattr(SkewElem, "__mul__", counting("skew", SkewElem.__mul__))
    monkeypatch.setattr(borelweyl.exact.qq, "_pgcd", counting("gcd", borelweyl.exact.qq._pgcd))
    monkeypatch.setattr(QScalar, "__init__", counting("qscalar", QScalar.__init__))
    monkeypatch.setattr(QScalar, "_reduced", staticmethod(counting("qscalar", QScalar._reduced)))
    report = verify(traced)
    residual_terms = sum(
        len(f.terms) for e in report.entries if e.family != "recovery" for f in e.residual.terms.values()
    )
    assert (at_recovery["skew"], at_recovery["gcd"]) == (0, 0)
    assert at_recovery["qscalar"] == residual_terms
    assert (residual_terms > 0) == (side != "weyl")  # the adjacent Serre relations fail
    assert counts["skew"] > 0  # the recovery still multiplies SkewElems


def test_a_tampered_inverse_image_fails_exactly_its_unit_relations():
    # an assignment is built without checking its inverse pairs: the unit
    # relations K_i*K_i^-1 = 1 and K_i^-1*K_i = 1 are the check, and verify
    # reports them.  K2^-1 -> q·K2^-1 still q-commutes with every letter, so
    # every other row keeps its verdict and residual
    asg, _ = fix_orientation(quantum_datum("B2"), "upper")
    tampered = replace(asg, images=dict(asg.images, **{"K2^-1": asg.images["K2^-1"].scale(q_power(1))}))
    before, after = verify(asg), verify(tampered)
    changed = [(e.name, e.passed, e.residual_str) for e, o in zip(after.entries, before.entries)
               if (e.name, e.passed, e.residual_str) != (o.name, o.passed, o.residual_str)]
    assert changed == [("K2*K2^-1 = 1", False, "((q - 1))"), ("K2^-1*K2 = 1", False, "((q - 1))")]
    assert [e.name for e in before.entries] == [e.name for e in after.entries]
    assert before.denominators == after.denominators


def test_a_quantum_image_must_be_one_monomial_with_a_laurent_scalar():
    asg = horner_assignment("quantum")
    ctx = asg.context
    K1, K2 = ctx.coeff_var(0), ctx.coeff_var(1)
    one_over = QScalar((1,), (-1, 0, 1))  # 1/(q^2 - 1)
    for bad, message in (
        (asg.images["E1"] + SkewElem.torus(ctx, (0, 0)), "the image of E1 is not one monomial"),
        (SkewElem.monomial(ctx, K1 + K2, (1, 0)), "the image of E1 is not one monomial"),
        (SkewElem.monomial(ctx, K1 * one_over, (1, 0)), r"the image of E1 has the scalar 1/\(q\^2 - 1\), not a Laurent"),
    ):
        with pytest.raises(ArithmeticError, match=message):
            morphisms._prepare_images(ctx, dict(asg.images, E1=bad), [])
    ring = morphisms._prepare_images(ctx, asg.images, [])
    with pytest.raises(ArithmeticError, match=r"the coefficient 1/\(q\^2 - 1\) of \('E1',\) is not a Laurent"):
        ring.evaluate(((one_over, ("E1",)),))


def test_a_laurent_image_scalar_multiplies_through_the_word():
    # every image the package builds has scalar 1; a Laurent scalar such as
    # 2q^-1 + q^3, on an image or on a coefficient, must still multiply out
    asg = horner_assignment("quantum")
    ctx = asg.context
    c = q_power(-1) * 2 + q_power(3)
    images = dict(asg.images, E1=asg.images["E1"].scale(c))
    ring = morphisms._prepare_images(ctx, images, [])
    p = ((QQ_ONE, ("E1", "E1")), (c, ("K1", "E1", "E2", "E1")), (-c, ("E1", "K1^-1")), (q_power(2), ()))
    assert ring.evaluate(p) == word_by_word(replace(asg, images=images), p)


# -- classical Borel maps ------------------------------------------------------


def serre_pairs(report):
    out = {}
    C = report.assignment.datum.aux.matrix
    letter = "E" if "upper" in report.assignment.presentation.name else "F"
    for i in range(C.n):
        for j in range(C.n):
            if i == j:
                continue
            m = 1 - C[i, j]
            name = f"ad({letter}{i + 1})^{m}({letter}{j + 1}) = 0"
            (entry,) = [e for e in report.entries if e.name == name]
            out[(i + 1, j + 1)] = entry
    return out


@pytest.mark.parametrize("name", CATALOG)
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_classical_borel_relations(name, side):
    C = catalog_matrix(name)
    datum = solve_beta(quasi_inverse(C))
    report = verify(classical_borel_assignment(datum, side))
    for entry in report.entries:
        if entry.family != "serre":
            assert entry.passed, entry
    expected = SERRE_AT_P2[(name, side)] if C.n > 1 else {}
    point = h_point(C, COORD_P2)
    for (i, j), entry in serre_pairs(report).items():
        want = expected[(i, j)]
        if want is None:
            assert entry.passed, f"({i},{j}) should vanish: {entry.residual_str}"
        else:
            assert not entry.passed
            ((_, coeff),) = entry.residual.terms.items()
            assert evaluate_laurent(coeff, point) == want, (name, side, i, j)


def test_a2_upper_serre_spot_value_at_first_point():
    C = catalog_matrix("A2")
    report = verify(classical_borel_assignment(solve_beta(quasi_inverse(C))))
    entry = serre_pairs(report)[(1, 2)]
    ((_, coeff),) = entry.residual.terms.items()
    assert evaluate_laurent(coeff, h_point(C, COORD_P1)) == Fraction(-13, 8)


@pytest.mark.parametrize("name", CATALOG)
def test_reflected_b_is_the_diagonal_shift(name):
    # the lower coefficients coincide with sigma_i(b_i) on this whole catalog;
    # the recovery phase leans on the weaker fact that they factor as shifts
    datum = solve_beta(quasi_inverse(catalog_matrix(name)))
    ctx = datum.context
    for i, b in enumerate(datum.b):
        assert reflect(b) == ctx.apply(i, b)


def test_sl2_witness_names_exactly_h_b_and_torus():
    datum = solve_beta(quasi_inverse(catalog_matrix("A1")))
    report = verify(classical_borel_assignment(datum))
    witness = birational_witness(report)
    assert witness.passed
    assert witness.generators == ("b1", "h1", "torus unit")


@pytest.mark.parametrize("name", CATALOG)
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_classical_witness_factors_everywhere(name, side):
    datum = solve_beta(quasi_inverse(catalog_matrix(name)))
    report = verify(classical_borel_assignment(datum, side))
    witness = birational_witness(report)
    assert witness.passed, [e.detail for e in witness.flagged()]
    kinds = {e.kind for e in witness.entries}
    assert kinds == {"torus-unit", "h-generator", "shifted-b"}
    if side == "lower":
        shifts = [e.detail for e in witness.entries if e.kind == "shifted-b"]
        assert all(d.startswith("sigma^") for d in shifts)


def test_recovery_exposes_model_generators():
    datum = solve_beta(quasi_inverse(catalog_matrix("A2")))
    report = verify(classical_borel_assignment(datum))
    ctx = report.assignment.context
    assert report.recovered["t1"] == SkewElem.torus(ctx, (1, 0))
    assert report.recovered["b2"] == SkewElem.from_coeff(ctx, datum.b[1])
    assert report.recovered["t2"] * report.recovered["t2^-1"] == SkewElem.torus(ctx, (0, 0))


# -- Weyl embeddings -----------------------------------------------------------


@pytest.mark.parametrize("name", CATALOG)
def test_weyl_embedding_satisfies_all_relations(name):
    datum = solve_beta(quasi_inverse(catalog_matrix(name)))
    report = verify(weyl_assignment(datum))
    assert report.passed, [str(e) for e in report.entries if not e.passed]
    witness = birational_witness(report)
    assert witness.passed
    hs = {f"h{i + 1}" for i in range(datum.context.n)}
    assert hs <= set(witness.generators)
    assert set(witness.generators) == hs | {"torus unit"}


def test_affine_weyl_presentation_has_one_central_generator():
    datum = solve_beta(quasi_inverse(catalog_matrix("A1affine")))
    asg = weyl_assignment(datum)
    assert asg.presentation.name == "Weyl(1,2) + 1 central"
    assert "z1" in asg.images
    assert any("combined" in line for line in asg.conventions)
    assert verify(asg).passed


def test_weyl_pairing_needs_the_dual_directions():
    # swapping the two y-directions pairs x1 against the wrong shift, so
    # [x1,y1] picks up a vanishing difference and the constant term survives
    datum = solve_beta(quasi_inverse(catalog_matrix("B2")))
    asg = weyl_assignment(datum)
    images = dict(asg.images)
    images["y1"], images["y2"] = images["y2"], images["y1"]
    bad = GeneratorAssignment(asg.presentation, asg.context, images, asg.recover, datum)
    report = verify(bad)
    assert not report.passed
    assert "[x1,y1] = 1" in [r.name for r in report.entries if not r.passed]


# -- quantum Borel maps --------------------------------------------------------


def quantum_datum(name):
    C = catalog_matrix(name)
    qd = build_quantum_datum(quasi_inverse(C))
    return qd


@pytest.mark.parametrize("name", CATALOG)
def test_fix_orientation_chooses_plus_for_e_minus_for_f(name):
    qd = quantum_datum(name)
    asg_up, choice_up = fix_orientation(qd, "upper")
    assert choice_up.passed and set(choice_up.signs) == {1}
    asg_lo, choice_lo = fix_orientation(qd, "lower")
    assert choice_lo.passed and set(choice_lo.signs) == {-1}
    assert all("the other sign fails" in line for line in choice_up.detail)
    assert asg_up.conventions[0] == "orientation E1: t^+1"
    assert asg_lo.conventions[0] == "orientation F1: t^-1"


@pytest.mark.parametrize("name", CATALOG)
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_quantum_borel_relations_split_by_parity(name, side):
    qd = quantum_datum(name)
    asg, _ = fix_orientation(qd, side)
    report = verify(asg)
    C = qd.aux.matrix
    for entry in report.entries:
        if entry.family != "serre":
            assert entry.passed, entry
    letter = "E" if side == "upper" else "F"
    for i in range(C.n):
        for j in range(C.n):
            if i == j:
                continue
            m = 1 - C[i, j]
            name_ij = f"ad_q({letter}{i + 1})^{m}({letter}{j + 1}) = 0"
            (entry,) = [e for e in report.entries if e.name == name_ij]
            assert entry.passed == (C[i, j] % 2 == 0), (name, side, i, j, entry.residual_str)
    witness = birational_witness(report)
    assert witness.passed
    assert set(witness.generators) == {"torus unit"}


def test_flipped_orientation_fails_the_weight_relations():
    qd = quantum_datum("A1")
    report = verify(flipped_upper_assignment(qd))
    failed = {e.name for e in report.entries if not e.passed}
    assert "E1K1 = q^-2*K1E1" in failed
    # the residual shows the wrong power landing on the K E word
    (entry,) = [e for e in report.entries if e.name == "E1K1 = q^-2*K1E1"]
    assert "q^2" in entry.residual_str or "q^-" in entry.residual_str


def test_flipped_orientation_on_orthogonal_rank_two_fails_only_diagonal():
    qd = quantum_datum("A1xA1")
    report = verify(flipped_upper_assignment(qd))
    failed = {e.name for e in report.entries if not e.passed}
    assert failed == {
        "E1K1 = q^-2*K1E1",
        "E1K1^-1 = q^2*K1^-1E1",
        "E2K2 = q^-2*K2E2",
        "E2K2^-1 = q^2*K2^-1E2",
    }


def test_orientation_search_reports_residuals_when_nothing_works():
    # with a non-symmetrizing weight vector the cross relations demand a
    # fractional twist, so neither sign can win; both residuals get reported
    aux = replace(quasi_inverse(catalog_matrix("A2")), d=(1, 2))
    b = tuple(MLaurent.var(2, i, -1, one=QQ_ONE) for i in range(2))
    qd = QuantumDatum(ModelContext("quantum", aux), aux, b, (), (), (), ())
    asg, choice = fix_orientation(qd, "upper")
    assert asg is None and not choice.passed
    assert any("no sign works" in line for line in choice.detail)
    assert all("t^+1" in line and "t^-1" in line for line in choice.detail if "no sign" in line)


def test_orientation_search_refuses_when_both_signs_pass(monkeypatch):
    # no GCM lets both signs pass; with every residual zero both do, and the
    # search must refuse the assignment without reading a residual that is not there
    qd = quantum_datum("A2")
    monkeypatch.setattr(morphisms._MonomialImages, "evaluate", lambda ring, terms: SkewElem.zero(ring.ctx))
    asg, choice = fix_orientation(qd, "upper")
    assert asg is None and not choice.passed
    assert choice.signs == (None, None)
    assert choice.detail == tuple(f"E{i}: no sign works (t^+1 residual 0; t^-1 residual 0)" for i in (1, 2))


# -- quantum Weyl maps ---------------------------------------------------------


@pytest.mark.parametrize("name", CATALOG)
def test_quantum_weyl_embedding_passes(name):
    C = catalog_matrix(name)
    qd = build_quantum_datum(quasi_inverse(C))
    report = verify(quantum_weyl_assignment(qd))
    assert report.passed, [str(e) for e in report.entries if not e.passed]
    witness = birational_witness(report)
    assert witness.passed
    assert set(witness.generators) == {"torus unit"}


def test_quantum_weyl_scaling_relations_carry_the_computed_exponents():
    qd = build_quantum_datum(quasi_inverse(catalog_matrix("B2")))
    asg = quantum_weyl_assignment(qd)
    names = {r.name for r in asg.presentation.by_family("pairing")}
    assert f"y1x1 = q^{qd.g[0]}*x1y1" in names
    assert qd.g == (2, 2)


def test_affine_quantum_weyl_has_central_invariant():
    qd = build_quantum_datum(quasi_inverse(catalog_matrix("A1affine")))
    asg = quantum_weyl_assignment(qd)
    assert [g for g in asg.presentation.generators if g.startswith("z")] == ["z1"]
    report = verify(asg)
    assert report.passed
    assert "omega2" in report.recovered


# -- the witness's shift solve against the brute force ---------------------------


def brute_force_classify(ctx, datum, f, shift_bound=2):
    """The original classifier: try every v in the window for every b_j."""
    if isinstance(f, MLaurent) and f.is_const():
        return "torus-unit", "torus unit"
    for i in range(ctx.n):
        if f == ctx.coeff_var(i):
            return "h-generator", f"h{i + 1}"
    if datum is not None:
        window = range(-shift_bound, shift_bound + 1)
        for j, b in enumerate(datum.b):
            for v in iproduct(window, repeat=ctx.n):
                if f == ctx.apply_vec(v, b):
                    detail = f"b{j + 1}" if not any(v) else f"sigma^{v}(b{j + 1})"
                    return "shifted-b", detail
    return "unrecognized", "unrecognized"


def solved_classify(datum, f):
    return _classify_classical(datum.context, datum, f)


def logged_denominators(datum):
    reports = [verify(classical_borel_assignment(datum, side)) for side in ("upper", "lower")]
    reports.append(verify(weyl_assignment(datum)))
    return [coeff for report in reports for coeff, _ in report.denominators]


# the verify-classical ladder matrices outside the catalog: rank-3 non-simply-laced
# data and a rank-4 branch node; on each, some searches leave v free coordinates
LADDER = {
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
}


@pytest.mark.parametrize("name", CATALOG + list(LADDER))
def test_solved_shift_matches_the_brute_force_on_the_catalog(name):
    datum = solve_beta(quasi_inverse(validate_gcm(LADDER[name]) if name in LADDER else catalog_matrix(name)))
    denominators = logged_denominators(datum)
    for f in denominators:
        assert solved_classify(datum, f) == brute_force_classify(datum.context, datum, f)
    if name in LADDER:
        assert denominators


def test_solved_shift_matches_the_brute_force_on_a_corrupted_datum():
    datum = _corrupted(solve_beta(quasi_inverse(catalog_matrix("A2"))))
    kinds = set()
    for f in logged_denominators(datum):
        expected = brute_force_classify(datum.context, datum, f)
        assert solved_classify(datum, f) == expected
        kinds.add(expected[0])
    assert "shifted-b" in kinds


def synthetic_denominators(datum):
    ctx = datum.context
    b1, b2 = datum.b
    out = {
        "corner (-2,-2)": ctx.apply_vec((-2, -2), b1),
        "corner (2,2)": ctx.apply_vec((2, 2), b2),
        "corner (2,-2)": ctx.apply_vec((2, -2), b1),
        "just outside": ctx.apply_vec((3, -3), b1),
        # on B2 and G2 some b has a period that folds these back into the window
        "outside, b1": ctx.apply_vec((3, 0), b1),
        "outside, b2": ctx.apply_vec((3, 0), b2),
        "b1 + 1": b1 + 1,
        "b2 squared": b2 * b2,
    }
    out["fraction"] = PolyFrac(ctx.coeff_one(), b1)  # 1/b1: b1 sits in a denominator
    return out


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_solved_shift_matches_the_brute_force_on_synthetic_denominators(name):
    datum = solve_beta(quasi_inverse(catalog_matrix(name)))
    for label, f in synthetic_denominators(datum).items():
        expected = brute_force_classify(datum.context, datum, f)
        assert solved_classify(datum, f) == expected, label
        if label.startswith("corner"):
            assert expected[0] == "shifted-b", label
        if label in ("just outside", "b1 + 1", "b2 squared", "fraction"):
            assert expected == ("unrecognized", "unrecognized"), label


def a_n(n):
    return validate_gcm([[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)])


def test_shift_candidates_stop_growing_with_rank(monkeypatch):
    # b1 + 1 matches b1 in degrees 2 and 1; the constant-term equation used to be
    # left to exact equality, which then confirmed 25, 125 and 625 candidates
    tried = []
    apply_vec = ModelContext.apply_vec
    monkeypatch.setattr(ModelContext, "apply_vec", lambda self, m, f: tried.append(m) or apply_vec(self, m, f))
    counts = {}
    for n in (4, 5, 6):
        datum = solve_beta(quasi_inverse(a_n(n)))
        ctx = datum.context
        shifted = apply_vec(ctx, (1,) + (0,) * (n - 2) + (-1,), datum.b[1])
        del tried[:]
        assert solved_classify(datum, datum.b[0] + 1) == ("unrecognized", "unrecognized")
        unrecognized = len(tried)
        assert solved_classify(datum, shifted)[0] == "shifted-b"
        counts[n] = (unrecognized, len(tried) - unrecognized)
    assert counts == {4: (0, 1), 5: (0, 1), 6: (0, 1)}


@pytest.mark.parametrize(
    "name, index, detail",
    [("A1xA1", 0, "sigma^(0, -2)(b1)"), ("A1affine", 1, "sigma^(-2, -2)(b2)")],
)
def test_a_periodic_b_prints_its_first_shift_in_the_window(name, index, detail):
    # sigma^v fixes b_j along a period, so the plain b_j is first met at v != 0
    datum = solve_beta(quasi_inverse(catalog_matrix(name)))
    f = datum.b[index]
    assert brute_force_classify(datum.context, datum, f) == ("shifted-b", detail)
    assert solved_classify(datum, f) == ("shifted-b", detail)


def test_a_period_with_mixed_signs_keeps_the_lexicographic_order():
    # sigma^v fixes (h1 + h2)^2 exactly when v1 = -v2, so the first v in the
    # window is (-2, 2); reading v1 off v2 instead would meet (2, -2) first
    datum = solve_beta(quasi_inverse(catalog_matrix("A1xA1")))
    h1, h2 = (datum.context.coeff_var(i) for i in range(2))
    b1 = (h1 + h2) * (h1 + h2)
    datum = ClassicalDatum(datum.context, datum.aux, datum.alpha, datum.beta, (b1, datum.b[1]))
    expected = ("shifted-b", "sigma^(-2, 2)(b1)")
    assert brute_force_classify(datum.context, datum, b1) == expected
    assert solved_classify(datum, b1) == expected


def test_rank_four_b1_keeps_its_lexicographic_name():
    rows = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
    datum = solve_beta(quasi_inverse(validate_gcm(rows)))
    f = datum.b[0]
    assert solved_classify(datum, f) == ("shifted-b", "sigma^(0, 0, -2, -2)(b1)")


def test_a_classical_assignment_without_a_datum_still_gets_a_witness():
    # GeneratorAssignment.datum defaults to None: units and h generators are
    # still classified, and every other denominator is flagged, not an error
    datum = solve_beta(quasi_inverse(catalog_matrix("A2")))
    report = verify(classical_borel_assignment(datum))
    bare = GeneratorAssignment(report.assignment.presentation, report.assignment.context,
                               report.assignment.images, report.assignment.recover)
    assert bare.datum is None
    ctx = bare.context
    h1 = ctx.coeff_var(0)
    denominators = ((MLaurent.const(2, Fraction(3)), (0, 0)), (h1, (0, 0)), (datum.b[0], (1, 0)))
    witness = birational_witness(
        VerificationReport(bare, report.entries, denominators, report.recovered, report.conventions)
    )
    assert [(e.kind, e.detail) for e in witness.entries] == [
        ("torus-unit", "torus unit"), ("h-generator", "h1"), ("unrecognized", "unrecognized")
    ]
    assert not witness.passed
    # the same denominators with the datum: b1 is recognised
    assert [e.kind for e in birational_witness(
        VerificationReport(report.assignment, report.entries, denominators, report.recovered, report.conventions)
    ).entries] == ["torus-unit", "h-generator", "shifted-b"]


def test_an_unrecognized_denominator_fails_the_witness():
    datum = solve_beta(quasi_inverse(catalog_matrix("A2")))
    report = verify(classical_borel_assignment(datum))
    ctx = report.assignment.context
    stray = datum.b[0] + 1
    tampered = VerificationReport(
        report.assignment,
        report.entries,
        report.denominators + ((stray, (0, 0)),),
        report.recovered,
        report.conventions,
    )
    witness = birational_witness(tampered)
    assert witness.entries[-1].kind == "unrecognized"
    assert not witness.passed
    assert witness.flagged() == (witness.entries[-1],)
    _, block = _witness_block(tampered)
    assert block["passed"] is False
    assert block["flagged"] == [f"{stray.to_str(['h1', 'h2'])} (torus exponent [0, 0])"]


# -- recovery checks survive python -O ---------------------------------------------


def tampered_upper_assignment():
    datum = solve_beta(quasi_inverse(catalog_matrix("A2")))
    asg = classical_borel_assignment(datum)
    images = dict(asg.images)
    images["E1"] = images["E1"].scale(2)
    return GeneratorAssignment(asg.presentation, asg.context, images, asg.recover, datum)


def test_a_tampered_image_aborts_the_recovery():
    report = verify(tampered_upper_assignment())
    (entry,) = [e for e in report.entries if e.family == "recovery"]
    assert entry.name == "recovery of the inverse map"
    assert entry.residual_str == "aborted: torus recovery failed"
    assert not report.passed


def test_an_aborted_recovery_still_lists_what_it_inverted():
    # E1 ↦ 2·b1·t1⁻¹ inverts, and then the torus check aborts the recovery:
    # the one inversion made is listed, and 2·b1 is no σ-shift of any b_j
    asg = tampered_upper_assignment()
    report = verify(asg)
    b1 = asg.datum.b[0]
    assert report.denominators == ((b1 * 2, (-1, 0)),)
    witness = birational_witness(report)
    assert witness.flagged() == witness.entries
    assert [(e.coeff_str, e.torus_exp) for e in witness.entries] == [((b1 * 2).to_str(["h1", "h2"]), (-1, 0))]
    assert not witness.passed


def test_verify_lists_only_the_inversions_of_its_own_recovery(monkeypatch):
    # check_bound_quantum inverts each u_i = K_i^-1·E_i once, through
    # `SkewElem.invert` on the same context; neither that nor an earlier
    # verify shows up in a report's denominators
    qd = build_quantum_datum(quasi_inverse(catalog_matrix("B2")))
    asg, _ = fix_orientation(qd, "upper")
    inverted = []
    invert = SkewElem.invert

    def recording(x):
        x_inv = invert(x)
        ((m, f),) = x.terms.items()
        inverted.append((f, m))
        return x_inv

    monkeypatch.setattr(SkewElem, "invert", recording)
    first = verify(asg)
    own = tuple(inverted)
    inverted.clear()
    check_bound_quantum(qd)
    assert inverted  # the datum check inverted too
    inverted.clear()
    second = verify(asg)
    assert own and first.denominators == second.denominators == own == tuple(inverted)


def test_recovery_checks_still_run_under_python_O():
    script = (
        "import sys, test_morphisms as t\n"
        "report = t.verify(t.tampered_upper_assignment())\n"
        "print(sys.flags.optimize)\n"
        "print([(e.name, e.residual_str) for e in report.entries if e.family == 'recovery'])\n"
    )
    src = Path(borelweyl.__file__).resolve().parents[1]
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(here)]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    optimize, entries = done.stdout.splitlines()
    assert optimize == "1"
    assert entries == "[('recovery of the inverse map', 'aborted: torus recovery failed')]"


def test_corrupted_residuals_are_the_same_under_python_O():
    # a relation's verdict is an `if` on its packed sum, not an assert, so
    # -O lists the same failed relations with the same residuals
    src = Path(borelweyl.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    verify_a2 = ["-m", "borelweyl", "verify", "--catalog", "A2", "--mode", "classical",
                 "--corrupt-beta", "--format", "structured"]
    failed = []
    for flags in ([], ["-O"]):
        done = subprocess.run([sys.executable, *flags, *verify_a2], capture_output=True, text=True, env=env)
        assert done.returncode == 1, done.stderr
        checks = json.loads(done.stdout)["checks"]
        failed.append([line for c in checks for line in c["lines"] if line.startswith("[FAIL]")])
    assert failed[0] == failed[1]
    assert sum(" residual: (" in line for line in failed[0]) == 4  # the four Serre residuals


def test_an_assertion_error_inside_a_recovery_is_not_swallowed(monkeypatch):
    # recovery checks raise RecoveryError; an AssertionError can only be a bug
    def broken(assignment, inverted):
        raise AssertionError("a bug in the recovery")

    asg = classical_borel_assignment(solve_beta(quasi_inverse(catalog_matrix("A1"))))
    with pytest.raises(AssertionError, match="a bug in the recovery"):
        verify(replace(asg, recover=broken))
