"""The shared presentation templates against copies of the hand-made builders.

The Borel, quantum Borel and Weyl presentations, the Serre rewriting rules
and the recoveries used to be written out once per side and once per mode.
The copies below are those builders as they were; every relation, every
Serre rule, every recovered element and every logged denominator of the
shared templates must match them in order.
"""

from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from borelweyl.biproduct import NCPoly, Rule, build_rules
from borelweyl.cartan import _inverse, catalog_matrix, quasi_inverse, symmetrize, validate_gcm
from borelweyl.datum import DatumError, _directions, build_quantum_datum, solve_beta
from borelweyl.exact import QQ_ONE, q_binom, q_power
from borelweyl.morphisms import (
    Presentation,
    Relation,
    _borel,
    _quantum_borel,
    classical_borel_assignment,
    fix_orientation,
    quantum_weyl,
    quantum_weyl_assignment,
    reflect,
    verify,
    weyl,
    weyl_assignment,
)
from borelweyl.skew import SkewElem

MATRICES = {
    **{name: catalog_matrix(name) for name in ["A1", "A2", "A1xA1", "A3", "B2", "G2", "A1affine"]},
    "A4": validate_gcm([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]),
    "B3": validate_gcm([[2, -1, 0], [-1, 2, -2], [0, -1, 2]]),
    "D4": validate_gcm([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]),
    "A2~": validate_gcm([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]),
}


# -- the builders as they were ---------------------------------------------------


def old_unit_relations(inverse_pairs, one):
    rels = []
    for g, ginv in inverse_pairs:
        rels.append(Relation(f"{g}*{ginv} = 1", "unit", ((one, (g, ginv)), (-one, ()))))
        rels.append(Relation(f"{ginv}*{g} = 1", "unit", ((one, (ginv, g)), (-one, ()))))
    return rels


def old_commutator_terms(a, b, one):
    return ((one, (a, b)), (-one, (b, a)))


def old_serre_terms(gi, gj, window, coeff_of):
    terms = []
    for k in range(window + 1):
        c = coeff_of(k)
        if k % 2:
            c = -c
        terms.append((c, (gi,) * (window - k) + (gj,) + (gi,) * k))
    return tuple(terms)


def old_borel(C, letter, weight_sign):
    n = C.n
    H = [f"H{i + 1}" for i in range(n)]
    X = [f"{letter}{i + 1}" for i in range(n)]
    one = Fraction(1)
    rels = []
    for i in range(n):
        for j in range(i + 1, n):
            rels.append(Relation(f"[{H[i]},{H[j]}] = 0", "commute", old_commutator_terms(H[i], H[j], one)))
    for i in range(n):
        for j in range(n):
            a = weight_sign * C[i, j]
            rels.append(
                Relation(
                    f"[{H[i]},{X[j]}] = {a}*{X[j]}",
                    "weight",
                    old_commutator_terms(H[i], X[j], one) + ((Fraction(-a), (X[j],)),),
                )
            )
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            m = 1 - C[i, j]
            rels.append(
                Relation(
                    f"ad({X[i]})^{m}({X[j]}) = 0",
                    "serre",
                    old_serre_terms(X[i], X[j], m, lambda k, m=m: Fraction(comb(m, k))),
                )
            )
    side = "upper" if letter == "E" else "lower"
    return Presentation(f"{side} Borel, rank {n}", tuple(H + X), tuple(rels))


def old_weyl(m, n, central=0):
    xs = [f"x{i + 1}" for i in range(m)]
    ys = [f"y{j + 1}" for j in range(n)]
    zs = [f"z{c + 1}" for c in range(central)]
    one = Fraction(1)
    rels = []
    for i in range(m):
        for k in range(i + 1, m):
            rels.append(Relation(f"[{xs[i]},{xs[k]}] = 0", "commute", old_commutator_terms(xs[i], xs[k], one)))
    for j in range(n):
        for k in range(j + 1, n):
            rels.append(Relation(f"[{ys[j]},{ys[k]}] = 0", "commute", old_commutator_terms(ys[j], ys[k], one)))
    for i in range(m):
        for j in range(n):
            delta = Fraction(1 if i == j else 0)
            rels.append(
                Relation(
                    f"[{xs[i]},{ys[j]}] = {delta}",
                    "pairing",
                    old_commutator_terms(xs[i], ys[j], one) + ((-delta, ()),),
                )
            )
    for c in range(central):
        for other in xs + ys + zs[c + 1 :]:
            rels.append(Relation(f"[{zs[c]},{other}] = 0", "central", old_commutator_terms(zs[c], other, one)))
    name = f"Weyl({m},{n})" + (f" + {central} central" if central else "")
    return Presentation(name, tuple(xs + ys + zs), tuple(rels))


def old_quantum_weyl(m, n, g, central=0):
    g = tuple(int(x) for x in g)
    xs = [f"x{i + 1}" for i in range(m)]
    ys = [f"y{j + 1}" for j in range(n)]
    zs = [f"z{c + 1}" for c in range(central)]
    one = QQ_ONE
    rels = []
    for i in range(m):
        for k in range(i + 1, m):
            rels.append(Relation(f"[{xs[i]},{xs[k]}] = 0", "commute", old_commutator_terms(xs[i], xs[k], one)))
    for j in range(n):
        for k in range(j + 1, n):
            rels.append(Relation(f"[{ys[j]},{ys[k]}] = 0", "commute", old_commutator_terms(ys[j], ys[k], one)))
    for i in range(m):
        for j in range(n):
            e = g[i] if i == j else 0
            rels.append(
                Relation(
                    f"{ys[j]}{xs[i]} = q^{e}*{xs[i]}{ys[j]}",
                    "pairing",
                    ((one, (ys[j], xs[i])), (-q_power(e), (xs[i], ys[j]))),
                )
            )
    for c in range(central):
        for other in xs + ys + zs[c + 1 :]:
            rels.append(Relation(f"[{zs[c]},{other}] = 0", "central", old_commutator_terms(zs[c], other, one)))
    name = f"qWeyl({m},{n})" + (f" + {central} central" if central else "")
    return Presentation(name, tuple(xs + ys + zs), tuple(rels))


def old_torus_commutes(symbols, inverse_pairs, one):
    paired = {frozenset(p) for p in inverse_pairs}
    rels = []
    for a in range(len(symbols)):
        for b in range(a + 1, len(symbols)):
            s, t = symbols[a], symbols[b]
            if frozenset((s, t)) in paired:
                continue
            rels.append(Relation(f"[{s},{t}] = 0", "commute", old_commutator_terms(s, t, one)))
    return rels


def old_quantum_borel(C, d, letter, weight_sign):
    n = C.n
    if d is None:
        d = symmetrize(C)
    d = tuple(int(x) for x in d)
    K = [f"K{i + 1}" for i in range(n)]
    Kinv = [f"K{i + 1}^-1" for i in range(n)]
    X = [f"{letter}{i + 1}" for i in range(n)]
    one = QQ_ONE
    pairs = tuple(zip(K, Kinv))
    torus = [s for p in zip(K, Kinv) for s in p]
    rels = old_torus_commutes(torus, pairs, one) + old_unit_relations(pairs, one)
    for i in range(n):
        for j in range(n):
            e = weight_sign * d[i] * C[i, j]
            rels.append(
                Relation(
                    f"{X[j]}{K[i]} = q^{e}*{K[i]}{X[j]}",
                    "weight",
                    ((one, (X[j], K[i])), (-q_power(e), (K[i], X[j]))),
                )
            )
            rels.append(
                Relation(
                    f"{X[j]}{Kinv[i]} = q^{-e}*{Kinv[i]}{X[j]}",
                    "weight",
                    ((one, (X[j], Kinv[i])), (-q_power(-e), (Kinv[i], X[j]))),
                )
            )
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            m = 1 - C[i, j]
            rels.append(
                Relation(
                    f"ad_q({X[i]})^{m}({X[j]}) = 0",
                    "serre",
                    old_serre_terms(X[i], X[j], m, lambda k, m=m, di=d[i]: q_binom(m, k, di)),
                )
            )
    side = "upper" if letter == "E" else "lower"
    return Presentation(f"quantum {side} Borel, rank {n}", tuple(torus + X), tuple(rels))


def old_serre_rules(letter, i, j, m, coeffs):
    li, lj = f"{letter}{i + 1}", f"{letter}{j + 1}"
    words = [(li,) * (m - k) + (lj,) + (li,) * k for k in range(m + 1)]
    if i > j:
        lead, lead_c = words[0], coeffs[0]
    else:
        lead, lead_c = words[m], coeffs[m]
    rhs = {w: -(c / lead_c) for w, c in zip(words, coeffs) if w != lead}
    return Rule(lead, NCPoly(rhs))


def old_serre_block(C, mode):
    n = C.n
    d = symmetrize(C)
    rules = []
    for i in range(n):
        for j in range(n):
            if i != j and C[i, j] < 0:
                m = 1 - C[i, j]
                if mode == "classical":
                    coeffs = [Fraction((-1) ** k * comb(m, k)) for k in range(m + 1)]
                else:
                    coeffs = [(-1) ** k * q_binom(m, k, d[i]) for k in range(m + 1)]
                for letter in ("E", "F"):
                    rules.append(old_serre_rules(letter, i, j, m, coeffs))
    return rules


def _unit_vec(n, i, sign=1):
    return tuple(sign if k == i else 0 for k in range(n))


def old_recover_classical_upper(assignment):
    ctx = assignment.context
    datum = assignment.datum
    out = {}
    for i in range(ctx.n):
        e_hat = assignment.images[f"E{i + 1}"]
        e_inv = e_hat.invert()
        t_i = SkewElem.from_coeff(ctx, ctx.apply(i, datum.b[i])) * e_inv
        assert t_i == SkewElem.torus(ctx, _unit_vec(ctx.n, i))
        t_inv = t_i.invert()
        b_hat = e_hat * t_i
        assert b_hat == SkewElem.from_coeff(ctx, datum.b[i])
        h_inv = assignment.images[f"H{i + 1}"].invert()
        out[f"t{i + 1}"] = t_i
        out[f"t{i + 1}^-1"] = t_inv
        out[f"b{i + 1}"] = b_hat
        out[f"h{i + 1}^-1"] = h_inv
    return out


def old_recover_classical_lower(assignment):
    ctx = assignment.context
    datum = assignment.datum
    out = {}
    for i in range(ctx.n):
        f_hat = assignment.images[f"F{i + 1}"]
        f_inv = f_hat.invert()
        bbar = reflect(datum.b[i])
        t_inv = f_inv * SkewElem.from_coeff(ctx, bbar)
        assert t_inv == SkewElem.torus(ctx, _unit_vec(ctx.n, i, -1))
        t_i = t_inv.invert()
        b_hat = f_hat * t_inv
        assert b_hat == SkewElem.from_coeff(ctx, bbar)
        h_inv = assignment.images[f"H{i + 1}"].invert()
        out[f"t{i + 1}"] = t_i
        out[f"t{i + 1}^-1"] = t_inv
        out[f"bbar{i + 1}"] = b_hat
        out[f"h{i + 1}^-1"] = h_inv
    return out


def old_recover_weyl(assignment):
    ctx = assignment.context
    datum = assignment.datum
    aux = datum.aux
    n, r = ctx.n, aux.rank
    out = {}
    coord_hats = []
    for k in range(n):
        raiser = assignment.images[f"x{k + 1}"] if k < r else assignment.images[f"z{k - r + 1}"]
        coord = -(raiser * assignment.images[f"y{k + 1}"])
        assert coord == SkewElem.from_coeff(ctx, datum.alpha[k])
        coord_hats.append(coord)
        t_neg = assignment.images[f"y{k + 1}"].scale(-1).invert()
        out[f"t^{tuple(aux.dual_pairs[k][1]) if k < r else tuple(aux.torus_complement[k - r])}inv"] = t_neg
    hcoords = _inverse(aux.Q)
    for i in range(n):
        h_hat = SkewElem.zero(ctx)
        for k in range(n):
            h_hat = h_hat + coord_hats[k].scale(hcoords[i][k])
        assert h_hat == SkewElem.from_coeff(ctx, ctx.coeff_var(i))
        out[f"h{i + 1}"] = h_hat
        out[f"h{i + 1}^-1"] = h_hat.invert()
    return out


def old_recover_quantum_weyl(assignment):
    ctx = assignment.context
    qdatum = assignment.datum
    r = len(qdatum.g)
    out = {}
    for k in range(ctx.n):
        raiser = assignment.images[f"x{k + 1}"] if k < r else assignment.images[f"z{k - r + 1}"]
        omega_hat = raiser * assignment.images[f"y{k + 1}"]
        assert omega_hat == SkewElem.from_coeff(ctx, qdatum.omega[k])
        out[f"omega{k + 1}"] = omega_hat
        out[f"omega{k + 1}^-1"] = omega_hat.invert()
        out[f"t^{tuple(_directions(qdatum.aux)[k])}inv"] = assignment.images[f"y{k + 1}"].invert()
    return out


# -- comparisons ---------------------------------------------------------------------


def same_presentation(new, old):
    assert (new.name, new.generators) == (old.name, old.generators)
    assert [(r.name, r.family, r.terms) for r in new.relations] == [
        (r.name, r.family, r.terms) for r in old.relations
    ]


def same_recovery(monkeypatch, assignment, old_recover):
    """verify's recovered elements and denominators against the old recovery's,
    whose inversions are recorded by wrapping `SkewElem.invert`."""
    report = verify(assignment)
    assert all(e.family == "serre" for e in report.entries if not e.passed)
    inverted = []
    invert = SkewElem.invert

    def recording(x):
        x_inv = invert(x)
        ((m, f),) = x.terms.items()
        inverted.append((f, m))
        return x_inv

    with monkeypatch.context() as patch:
        patch.setattr(SkewElem, "invert", recording)
        recovered = old_recover(assignment)
    assert list(report.recovered) == list(recovered)
    assert all(report.recovered[key] == value for key, value in recovered.items())
    assert report.denominators == tuple(inverted)


@pytest.mark.parametrize("name", MATRICES)
def test_borel_presentations_match_the_old_builders(name):
    C = MATRICES[name]
    same_presentation(_borel(C, "E", +1), old_borel(C, "E", +1))
    same_presentation(_borel(C, "F", -1), old_borel(C, "F", -1))
    same_presentation(_quantum_borel(quasi_inverse(C), "E", -1), old_quantum_borel(C, None, "E", -1))
    same_presentation(_quantum_borel(quasi_inverse(C), "F", +1), old_quantum_borel(C, None, "F", +1))
    d = tuple(2 * x for x in symmetrize(C))
    same_presentation(_quantum_borel(replace(quasi_inverse(C), d=d), "E", -1), old_quantum_borel(C, d, "E", -1))


@pytest.mark.parametrize("name", MATRICES)
def test_weyl_presentations_match_the_old_builders(name):
    qd = build_quantum_datum(quasi_inverse(MATRICES[name]))
    r, n = qd.aux.rank, qd.aux.matrix.n
    same_presentation(weyl(r, n, central=n - r), old_weyl(r, n, central=n - r))
    same_presentation(quantum_weyl(r, n, qd.g, central=n - r), old_quantum_weyl(r, n, qd.g, central=n - r))
    same_presentation(weyl(2, 3, central=2), old_weyl(2, 3, central=2))
    same_presentation(quantum_weyl(2, 3, (1, 3), central=2), old_quantum_weyl(2, 3, (1, 3), central=2))


@pytest.mark.parametrize("name", MATRICES)
@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_serre_rules_match_the_old_serre_block(name, mode):
    C = MATRICES[name]
    rules = build_rules(quasi_inverse(C), mode=mode).rules
    old = old_serre_block(C, mode)
    serre = rules[len(rules) - len(old) :]  # the Serre rules come last
    assert [(r.lead, list(r.rhs.terms.items())) for r in serre] == [
        (r.lead, list(r.rhs.terms.items())) for r in old
    ]


CLASSICAL = [name for name in MATRICES if name != "A2~"]


def test_a2_affine_has_no_classical_datum():
    # no beta free of its own coordinate solves b1's conditions on Ã2, so its
    # classical recoveries are not compared
    with pytest.raises(DatumError, match=r"no admissible beta for this matrix: the conditions on b1 "):
        solve_beta(quasi_inverse(MATRICES["A2~"]))


@pytest.mark.parametrize("name", CLASSICAL)
def test_classical_recoveries_match_the_old_ones(monkeypatch, name):
    datum = solve_beta(quasi_inverse(MATRICES[name]))
    same_recovery(monkeypatch, classical_borel_assignment(datum, "upper"), old_recover_classical_upper)
    same_recovery(monkeypatch, classical_borel_assignment(datum, "lower"), old_recover_classical_lower)
    same_recovery(monkeypatch, weyl_assignment(datum), old_recover_weyl)


@pytest.mark.parametrize("name", MATRICES)
def test_quantum_weyl_recovery_matches_the_old_one(monkeypatch, name):
    qd = build_quantum_datum(quasi_inverse(MATRICES[name]))
    same_recovery(monkeypatch, quantum_weyl_assignment(qd), old_recover_quantum_weyl)


@pytest.mark.parametrize("name", MATRICES)
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_fix_orientation_hands_over_the_presentation_it_searched(name, side):
    qd = build_quantum_datum(quasi_inverse(MATRICES[name]))
    assignment, choice = fix_orientation(qd, side)
    letter, sign = ("E", -1) if side == "upper" else ("F", +1)
    same_presentation(assignment.presentation, old_quantum_borel(qd.aux.matrix, qd.aux.d, letter, sign))
    assert choice.passed
