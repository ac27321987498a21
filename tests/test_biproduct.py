"""Straightening engine: rule shapes, normal forms, confluence, PBW counts."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import borelweyl
from borelweyl import biproduct
from borelweyl.biproduct import (
    Ambiguity,
    NCPoly,
    RewriteLimitError,
    RewriteSystem,
    Rule,
    build_rules,
    check_local_confluence,
    mixed_relation_check,
    normal_form,
    parse_word,
    _serre_rule,
    word_str,
)
from borelweyl.cartan import CartanError, catalog_matrix, quasi_inverse, validate_gcm
from borelweyl.exact import QQ_ONE, QScalar, q_binom, q_power
from borelweyl.exact import qq
from borelweyl.exact.qq import _padd, _pmul
from conftest import module_at, reference_normal_form, reference_redexes

CATALOG = ["A1", "A2", "A1xA1", "A3", "B2", "G2", "A1affine"]
ROWS = {
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "A6": [[2 if i == j else -int(abs(i - j) == 1) for j in range(6)] for i in range(6)],
    "A1^3": [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "A2~": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
}


def system(name, mode="classical"):
    matrix = validate_gcm(ROWS[name]) if name in ROWS else catalog_matrix(name)
    return build_rules(quasi_inverse(matrix), mode=mode)


def rule_for(R, lead):
    hits = [r for r in R.rules if r.lead == lead]
    assert len(hits) == 1, f"no unique rule with lead {lead}"
    return hits[0]


def swap_rule(R, lead, replacement):
    rules = tuple(replacement if r.lead == lead else r for r in R.rules)
    return RewriteSystem(R.mode, R.matrix, R.d, rules)


# -- construction ---------------------------------------------------------------


def test_sl2_classical_has_exactly_the_three_cross_rules():
    R = build_rules(quasi_inverse(catalog_matrix("A1")))
    assert {r.lead for r in R.rules} == {("F1", "E1"), ("H1", "E1"), ("F1", "H1")}
    pair = rule_for(R, ("F1", "E1"))
    assert pair.rhs == NCPoly({("E1", "F1"): 1, ("H1",): -1})
    weight = rule_for(R, ("H1", "E1"))
    assert weight.rhs == NCPoly({("E1", "H1"): 1, ("E1",): 2})


def test_a2_serre_rules_reduce_the_order_maximal_word():
    R = build_rules(quasi_inverse(catalog_matrix("A2")))
    up = rule_for(R, ("E2", "E2", "E1"))
    assert up.rhs == NCPoly({("E2", "E1", "E2"): 2, ("E1", "E2", "E2"): -1})
    down = rule_for(R, ("E2", "E1", "E1"))
    assert down.rhs == NCPoly({("E1", "E2", "E1"): 2, ("E1", "E1", "E2"): -1})
    # the F half mirrors the E half word for word
    assert rule_for(R, ("F2", "F1", "F1")).rhs == NCPoly(
        {("F1", "F2", "F1"): 2, ("F1", "F1", "F2"): -1}
    )


def test_serre_rule_needs_a_unit_end_coefficient():
    # the lead's coefficient multiplies the rest, which is its inverse only for ±1
    window = ((2, ("E1", "E1", "E2")), (-2, ("E1", "E2", "E1")), (1, ("E2", "E1", "E1")))
    with pytest.raises(ValueError, match="must end in ±1"):
        _serre_rule(window, True)
    rule = _serre_rule(window, False)
    assert rule.rhs == NCPoly({("E1", "E1", "E2"): -2, ("E1", "E2", "E1"): 2})


def test_quantum_serre_coefficients_are_balanced_binomials():
    R = build_rules(quasi_inverse(catalog_matrix("A2")), mode="quantum")
    r = rule_for(R, ("E2", "E2", "E1"))
    assert r.rhs.terms[("E2", "E1", "E2")] == q_binom(2, 1, 1)
    assert r.rhs.terms[("E1", "E2", "E2")] == -QQ_ONE
    # G2's wide window: ad-power 4, so a five-letter lead with four survivors
    G = build_rules(quasi_inverse(catalog_matrix("G2")), mode="quantum")
    wide = rule_for(G, ("E2",) * 4 + ("E1",))
    assert len(wide.rhs.terms) == 4
    assert wide.rhs.terms[("E2", "E2", "E2", "E1", "E2")] == q_binom(4, 1, G.d[1])


def test_quantum_weight_rules_scale_by_the_symmetrized_exponent():
    R = build_rules(quasi_inverse(catalog_matrix("B2")), mode="quantum")
    assert R.d == (1, 2)
    assert rule_for(R, ("K1", "E2")).rhs == NCPoly({("E2", "K1"): q_power(-2)})
    assert rule_for(R, ("F2", "K1")).rhs == NCPoly({("K1", "F2"): q_power(-2)})
    assert rule_for(R, ("K1^-1", "E2")).rhs == NCPoly({("E2", "K1^-1"): q_power(2)})


@pytest.mark.parametrize("name", ["A1xA1", "B2", "G2"])
def test_the_system_chooses_every_scalar(name):
    # classical rules and input stay on int; quantum ones are QScalar throughout
    for mode, kind in (("classical", int), ("quantum", QScalar)):
        R = build_rules(quasi_inverse(catalog_matrix(name)), mode=mode)
        coefficients = [c for rule in R.rules for c in rule.rhs.terms.values()]
        coefficients += R.poly(("E1",), 2).terms.values()
        assert {type(c) for c in coefficients} == {kind}, mode


def test_disconnected_letters_get_sort_rules():
    R = build_rules(quasi_inverse(catalog_matrix("A1xA1")))
    assert rule_for(R, ("E2", "E1")).rhs == R.poly(("E1", "E2"))
    # connected pairs are governed by Serre windows instead
    S = build_rules(quasi_inverse(catalog_matrix("A2")))
    assert not [r for r in S.rules if r.lead == ("E2", "E1")]


def test_rules_must_decrease_the_term_order():
    C = catalog_matrix("A1")
    backwards = Rule(("E1", "F1"), NCPoly({("F1", "E1"): 1}))
    with pytest.raises(ValueError, match="does not decrease"):
        RewriteSystem("classical", C, None, (backwards,))


def test_quantum_mode_requires_a_symmetrizable_matrix():
    loop = [[2, -1, -2], [-1, 2, -1], [-1, -1, 2]]
    with pytest.raises(CartanError, match="not symmetrizable"):
        build_rules(quasi_inverse(validate_gcm(loop)), mode="quantum")
    with pytest.raises(ValueError, match="unknown mode"):
        build_rules(quasi_inverse(catalog_matrix("A1")), mode="super")


# -- term order ----------------------------------------------------------------


def test_order_is_graded_with_f_above_h_above_e():
    R = build_rules(quasi_inverse(catalog_matrix("A2")))
    place = {letter: k for k, letter in enumerate(R.alphabet)}

    def key(word):  # graded, then letter by letter by place in the alphabet
        return len(word), [place[letter] for letter in word]

    assert key(("F1", "E1")) > key(("E1", "F1"))
    assert key(("H1", "E2")) > key(("E2", "H1"))
    assert key(("F1", "H2")) > key(("H2", "F1"))
    assert key(("H2", "H1")) > key(("H1", "H2"))
    assert key(("E1", "E1", "E1")) > key(("F1", "F1"))  # degree first


# -- normal forms --------------------------------------------------------------


def test_pairing_normal_form_verbatim():
    R = build_rules(quasi_inverse(catalog_matrix("A1")))
    nf = normal_form(R.poly(("F1", "E1")), R)
    assert nf == NCPoly({("E1", "F1"): 1, ("H1",): -1})
    assert nf.to_str() == "E1*F1 - H1"


def test_quantum_pairing_normal_form_verbatim():
    R = build_rules(quasi_inverse(catalog_matrix("A1")), mode="quantum")
    c = (q_power(1) - q_power(-1)).inverse()
    nf = normal_form(R.poly(("F1", "E1")), R)
    assert nf == NCPoly({("E1", "F1"): QQ_ONE, ("K1",): -c, ("K1^-1",): c})
    assert nf.to_str() == "E1*F1 + (q/(q^2 - 1))*K1^-1 - (q/(q^2 - 1))*K1"


def test_normal_word_is_left_alone():
    R = build_rules(quasi_inverse(catalog_matrix("A1")))
    p = R.poly(("E1", "H1", "F1"))
    assert normal_form(p, R) == p


def test_straightening_h_f_e():
    # H·F·E = E·H·F + 2·E·F - H·H, found by hand and by the engine both ways
    R = build_rules(quasi_inverse(catalog_matrix("A1")))
    expected = NCPoly({("E1", "H1", "F1"): 1, ("E1", "F1"): 2, ("H1", "H1"): -1})
    assert normal_form(R.poly(("H1", "F1", "E1")), R) == expected
    assert reference_normal_form(R.poly(("H1", "F1", "E1")), R, "rightmost") == expected


def test_k_and_its_inverse_cancel_both_ways():
    R = build_rules(quasi_inverse(catalog_matrix("A2")), mode="quantum")
    one = R.poly(())
    assert normal_form(R.poly(("K1", "K1^-1")), R) == one
    assert normal_form(R.poly(("K1^-1", "K1")), R) == one
    assert normal_form(R.poly(("K2", "K1", "K2^-1")), R) == R.poly(("K1",))


def test_step_limit_error_carries_a_trace(monkeypatch):
    R = build_rules(quasi_inverse(catalog_matrix("A1")))
    monkeypatch.setattr(biproduct, "_STEP_LIMIT", 0)
    with pytest.raises(RewriteLimitError) as err:
        normal_form(R.poly(("F1", "E1")), R)
    assert str(err.value) == "no normal form after 1 steps; last reductions:\n  F1*E1 at 0 via F1*E1"
    # past twelve steps only the last twelve reductions are kept
    monkeypatch.setattr(biproduct, "_STEP_LIMIT", 20)
    with pytest.raises(RewriteLimitError) as err:
        normal_form(R.poly(("F1",) * 3 + ("E1",) * 3), R)
    tail = (
        "F1*F1*H1*E1*E1 at 1 via F1*H1",
        "F1*H1*F1*E1*E1 at 0 via F1*H1",
        "H1*F1*F1*E1*E1 at 2 via F1*E1",
        "H1*F1*E1*F1*E1 at 1 via F1*E1",
        "H1*E1*F1*F1*E1 at 0 via H1*E1",
        "E1*F1*F1*H1*E1 at 2 via F1*H1",
        "E1*F1*H1*F1*E1 at 1 via F1*H1",
        "E1*H1*F1*F1*E1 at 3 via F1*E1",
        "E1*H1*F1*E1*F1 at 2 via F1*E1",
        "E1*H1*E1*F1*F1 at 1 via H1*E1",
        "E1*E1*F1*F1*H1 at 3 via F1*H1",
        "E1*E1*F1*H1*F1 at 2 via F1*H1",
    )
    assert str(err.value) == "no normal form after 21 steps; last reductions:\n  " + "\n  ".join(tail)


def test_redexes_at_one_position_keep_construction_order():
    R = build_rules(quasi_inverse(catalog_matrix("A1")))
    extra = Rule(("F1", "E1", "E1"), R.poly(("E1", "E1", "F1")))
    pairing = rule_for(R, ("F1", "E1"))
    word = ("F1", "E1", "E1")
    first = RewriteSystem(R.mode, R.matrix, R.d, (extra,) + R.rules)
    assert first.redexes(word) == [(0, extra)]
    last = RewriteSystem(R.mode, R.matrix, R.d, R.rules + (extra,))
    assert last.redexes(word) == [(0, pairing)]


def _with_extra_rule(R):
    # a second lead at the pairing's position, so one position can hold two rules
    extra = Rule(("F1", "E1", "E1"), R.poly(("E1", "E1", "F1")))
    return RewriteSystem(R.mode, R.matrix, R.d, R.rules + (extra,))


_REDEX_SYSTEMS = [
    R
    for name in ("A1", "B2", "G2", "A3")
    for mode in ("classical", "quantum")
    for R in (system(name, mode), _with_extra_rule(system(name, mode)))
]


@given(st.data())
def test_redexes_stop_at_the_leftmost_position_from_start(data):
    R = data.draw(st.sampled_from(_REDEX_SYSTEMS))
    letters = data.draw(st.lists(st.sampled_from(R.alphabet), min_size=1, max_size=4, unique=True))
    word = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=10)))
    every = reference_redexes(R)(word)
    for start in range(len(word) + 2):
        later = [hit for hit in every if hit[0] >= start]
        assert R.redexes(word, start) == later[:1]


def _length_loop_leftmost(R, coded, start=0):
    """The redex scan without the first-two-letters index: at each position,
    one lookup per lead length, keeping the lowest rule index found."""
    first = {}
    for index, (lead, _) in enumerate(R._coded_rules):
        first.setdefault(lead, index)
    lengths, n = sorted({len(lead) for lead in first}), len(coded)
    for pos in range(start, n):
        best = None
        for end in lengths:
            end += pos
            if end > n:
                break
            index = first.get(coded[pos:end])
            if index is not None and (best is None or index < best):
                best = index
        if best is not None:
            return pos, best
    return None


def _shared_heads_system():
    # a one-letter lead, and leads that share their first two letters at
    # lengths 2 and 3, in an order that no lead length decides
    R = system("A2")
    rules = (
        Rule(("F2", "F1", "H1"), R.poly(("H1", "F2"))),
        Rule(("F2", "F1"), R.poly(("E1",))),
        Rule(("F2", "F1", "E2"), R.poly(())),
        Rule(("F1",), R.poly(("E1",), 2)),
        Rule(("F1", "F2", "E1"), R.poly(("E2",))),
        Rule(("F1",), R.poly(("E2",))),
        Rule(("H2", "F1", "F1", "E1"), R.poly(("H2",))),
    )
    return RewriteSystem(R.mode, R.matrix, R.d, rules)


_SCAN_SYSTEMS = [system(name, mode) for name in ("B2", "G2", "A3", "A4") for mode in ("classical", "quantum")]
_SCAN_SYSTEMS.append(_shared_heads_system())


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_the_redex_scan_matches_the_length_loop(data):
    R = data.draw(st.sampled_from(_SCAN_SYSTEMS))
    word = tuple(data.draw(st.lists(st.sampled_from(R.alphabet), max_size=14)))
    start = data.draw(st.integers(0, len(word) + 1))
    coded = R._encode(word)
    assert R._leftmost(coded, start) == _length_loop_leftmost(R, coded, start)


def test_the_redex_scan_takes_the_first_rule_among_shared_heads():
    R = _shared_heads_system()
    cases = {
        ("F2", "F1", "H1"): (0, 0),  # the 3-letter lead comes before the 2-letter one
        ("F2", "F1", "E2"): (0, 1),  # the 2-letter lead comes before the 3-letter one
        ("H1", "F2", "F1"): (1, 1),
        ("F1", "F2", "E1"): (0, 3),  # the one-letter lead comes first
        ("E1", "F1"): (1, 3),  # the one-letter lead as the last letter
        ("H2", "F1", "F1", "E1"): (0, 6),
        ("H2", "E1", "E2"): None,
    }
    for word, expected in cases.items():
        coded = R._encode(word)
        assert R._leftmost(coded) == _length_loop_leftmost(R, coded) == expected


def _outcome(reduce, *args):
    try:
        return reduce(*args)
    except RewriteLimitError as err:
        return str(err)  # it names the step count and the trace


@pytest.mark.parametrize(
    "name, mode",
    [(name, mode) for name in ("A3", "B2", "G2") for mode in ("classical", "quantum")]
    + [("A4", "quantum"), ("D4", "quantum")],
)
def test_reduction_order_matches_the_max_scan(monkeypatch, name, mode):
    # normal_form starts each redex scan at a hint; the leftmost redex it
    # finds must still be the max-scan's, step for step up to the limit
    R = system(name, mode)
    rng = random.Random(f"{name}-{mode}")
    e_and_f = [letter for letter in R.alphabet if letter[0] in "EF"]
    for _ in range(20):
        p = NCPoly()
        letters = rng.choice([R.alphabet, e_and_f])
        for _ in range(rng.randint(1, 3)):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 12)))
            p = p + R.poly(word, rng.choice([1, -1, 2]))
        limit = rng.choice([rng.randint(0, 40), 200_000])
        monkeypatch.setattr(biproduct, "_STEP_LIMIT", limit)
        expected = _outcome(reference_normal_form, p, R, "leftmost", limit)
        assert _outcome(normal_form, p, R) == expected


@pytest.mark.parametrize("name, mode", [("G2", "classical"), ("A3", "quantum"), ("D4", "quantum")])
def test_normal_form_scans_each_popped_live_word_once(monkeypatch, name, mode):
    # the reference pops exactly the live words, in order; normal_form must
    # run its compiled redex scan once for each of them, and for nothing else
    R = system(name, mode)
    rng = random.Random(f"popped/{name}/{mode}")
    for _ in range(10):
        p = random_poly(R, rng, 8) - random_poly(R, rng, 8)
        popped, asked = [], []
        expected = reference_normal_form(p, R, "leftmost", popped=popped)
        scan = R._leftmost
        monkeypatch.setattr(R, "_leftmost", lambda w, start=0: asked.append(R._decode(w)) or scan(w, start))
        assert normal_form(p, R) == expected
        monkeypatch.undo()
        assert asked == popped


@given(st.lists(st.sampled_from(["E1", "H1", "F1"]), max_size=5))
def test_sl2_normal_form_is_stable_and_strategy_free(letters):
    R = build_rules(quasi_inverse(catalog_matrix("A1")))
    p = R.poly(tuple(letters))
    nf = normal_form(p, R)
    assert normal_form(nf, R) == nf
    assert reference_normal_form(p, R, "rightmost") == nf
    assert all(not R.redexes(w) for w in nf.terms)


def _full_gcd_add(x, y):
    """x + y reduced from scratch: one gcd of the grown numerator and b·d."""
    y = QScalar._coerce(y)
    if y is NotImplemented:
        return NotImplemented
    return QScalar(_padd(_pmul(x.num, y.den), _pmul(y.num, x.den)), _pmul(x.den, y.den))


def _full_gcd_mul(x, y):
    """x · y reduced from scratch, like `_full_gcd_add`."""
    y = QScalar._coerce(y)
    if y is NotImplemented:
        return NotImplemented
    return QScalar(_pmul(x.num, y.num), _pmul(x.den, y.den))


def _is_q_power(den):
    """True when a dense coefficient tuple is q^k for some k ≥ 0, 1 included."""
    return den[-1] == 1 and not any(den[:-1])


def _quantum_normal_form(name, word):
    R = build_rules(quasi_inverse(catalog_matrix(name)), mode="quantum")
    nf = normal_form(R.poly(tuple(word.split())), R)
    return {w: (c.num, c.den) for w, c in nf.terms.items()}


@pytest.mark.parametrize(
    "name, word",
    [
        ("B2", "F2 F1 F1 F1 E2 E2 F2 E2 E2 E1 E1 E1"),
        ("B2", "E2 E2 E1 F1 F2 F1 E2 E1 F1 F1"),
        ("G2", "F2 E2 F1 F1 F2 F1 F1 E1 E2 E1"),
        ("G2", "F2 F1 F2 E2 E1 F2 F1 F1 E1 F2"),
        ("A3", "E1 F1 F3 F3 F2 F2 E2 F2 F2 E3 E1 F1"),
        ("A3", "E2 E2 F3 F2 F3 E1 E3 F3 E1 F3"),
    ],
)
def test_quantum_normal_forms_match_full_gcd_arithmetic(monkeypatch, name, word):
    # sums and products reduce by gcds of the operands' parts only; the
    # coefficients must be the very pairs that reducing from scratch gives
    got = _quantum_normal_form(name, word)
    assert any(not _is_q_power(den) for _, den in got.values())  # fractions beyond Laurent ones
    for attr, op in (("__add__", _full_gcd_add), ("__radd__", _full_gcd_add),
                     ("__mul__", _full_gcd_mul), ("__rmul__", _full_gcd_mul)):
        monkeypatch.setattr(QScalar, attr, op)
    assert got == _quantum_normal_form(name, word)


def test_the_rescaled_straightening_takes_no_gcd(monkeypatch):
    # every coefficient inside _reduce is a Laurent polynomial, so its sums and
    # products take the closed forms of exact.qq; only dividing back by β may
    # take gcds, and that happens outside _reduce
    R = build_rules(quasi_inverse(catalog_matrix("G2")), mode="quantum")
    inside, calls = [False], []
    reduce, pgcd = biproduct._reduce, qq._pgcd

    def flagged(terms, R):
        inside[0] = True
        try:
            return reduce(terms, R)
        finally:
            inside[0] = False

    def counted(a, b):
        calls.append(inside[0])
        return pgcd(a, b)

    monkeypatch.setattr(biproduct, "_reduce", flagged)
    monkeypatch.setattr(qq, "_pgcd", counted)
    nf = normal_form(R.poly(("F2", "F2", "E1", "E2", "E2", "F1", "E1", "F1", "E2", "F2")), R)
    assert any(not _is_q_power(c.den) for c in nf.terms.values())  # divided back by β
    assert calls.count(False) > 0  # the counter sees the gcds of dividing back
    assert calls.count(True) == 0


# -- the rescaled basis --------------------------------------------------------


def _with_dropper(R):
    # F1·F2·E1 -> F1·F2/(q^2 - 1) + q·E1·F1·F2: a rule outside build_rules
    # that drops an E letter with a coefficient outside Z[q, 1/q]
    drop = NCPoly({("F1", "F2"): QScalar((1,), (-1, 0, 1)), ("E1", "F1", "F2"): q_power(1)})
    return RewriteSystem(R.mode, R.matrix, R.d, R.rules + (Rule(("F1", "F2", "E1"), drop),))


_ORACLE_SYSTEMS = {name: system(name, "quantum") for name in ("A1", "A2", "B2", "G2", "A3", "A2~")}
_ORACLE_SYSTEMS["A2 with a dropper"] = _with_dropper(_ORACLE_SYSTEMS["A2"])
# ints, q-powers, 1/(q^2 - 1) and (2 + q)/(1 + q^3)
_ORACLE_SCALARS = [
    1, -2, 3, q_power(1), -q_power(-2), q_power(3), QScalar((1,), (-1, 0, 1)), QScalar((2, 1), (1, 0, 0, 1))
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rescaled_normal_forms_match_the_rules_as_written(data):
    # normal_form straightens on E_i rescaled by q^{d_i} - q^{-d_i} and
    # divides back; the reference straightens on R.rules, never rescaled,
    # so any slip in the lift, the compiled rules or the division shows
    name = data.draw(st.sampled_from(sorted(_ORACLE_SYSTEMS)))
    R = _ORACLE_SYSTEMS[name]
    words = st.lists(st.sampled_from(R.alphabet), max_size=7).map(tuple)
    p = NCPoly(data.draw(st.dictionaries(words, st.sampled_from(_ORACLE_SCALARS), min_size=1, max_size=4)))
    limit = data.draw(st.sampled_from([2, 15, 200_000]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(biproduct, "_STEP_LIMIT", limit)
        assert _outcome(normal_form, p, R) == _outcome(reference_normal_form, p, R, "leftmost", limit), name


def test_the_dropper_divides_back_outside_build_rules():
    R = _ORACLE_SYSTEMS["A2 with a dropper"]
    p = R.poly(("F1", "F2", "E1"))
    expected = reference_normal_form(p, R, "leftmost")
    assert normal_form(p, R) == expected
    # the dropped word keeps the non-Laurent coefficient it was written with
    assert expected.terms[("F1", "F2")] == QScalar((1,), (-1, 0, 1))


_LAURENT_SYSTEMS = CATALOG + ["B3", "C3", "D4", "A2~"]


@pytest.mark.parametrize("name", _LAURENT_SYSTEMS)
def test_every_compiled_quantum_coefficient_is_laurent(name):
    # in the rescaled basis no rule of build_rules keeps a denominator
    # other than a power of q, though the pairings as written do
    R = system(name, "quantum")
    compiled = [c for _, rhs in R._coded_rules for _, c in rhs]
    assert compiled and all(_is_q_power(c.den) for c in compiled)
    assert not all(_is_q_power(c.den) for rule in R.rules for c in rule.rhs.terms.values())


@pytest.mark.parametrize("name", _LAURENT_SYSTEMS)
def test_classical_rules_compile_to_their_own_scalars(name):
    R = system(name, "classical")
    for rule, (lead, rhs) in zip(R.rules, R._coded_rules):
        assert R._decode(lead) == rule.lead
        compiled = [(R._decode(w), c, type(c)) for w, c in rhs]
        assert compiled == [(w, c, type(c)) for w, c in rule.rhs.terms.items()]


@pytest.mark.parametrize("ladder_seed", [1, 2])
def test_rewrite_ladder_words_straighten_without_a_heuristic_gcd(monkeypatch, ladder_seed):
    # the quantum words of the rewrite-words benchmark ladder: every
    # coefficient inside the straightening is a Laurent polynomial, so no
    # two non-trivial polynomials ever meet in a gcd there
    ladders = module_at("perfbench/ladders.py")
    calls, inside = [], []
    heuristic, reduce = qq._pgcd_heuristic, biproduct._reduce

    def counted(a, b):
        if inside:
            calls.append((a, b))
        return heuristic(a, b)

    def marked(terms, R):
        inside.append(True)
        try:
            return reduce(terms, R)
        finally:
            inside.pop()

    monkeypatch.setattr(qq, "_pgcd_heuristic", counted)
    monkeypatch.setattr(biproduct, "_reduce", marked)
    words = 0
    for job in ladders.plan("rewrite-words", ladder_seed):
        if job.mode == "quantum":
            R = build_rules(quasi_inverse(validate_gcm(ladders.matrix_rows(job.matrix))), "quantum")
            assert normal_form(R.poly(tuple(job.word.split())), R)
            words += 1
    assert words == 24
    assert calls == []


# -- PBW counts ----------------------------------------------------------------


def normal_words(R, degree):
    return [w for w in product(R.alphabet, repeat=degree) if not R.redexes(w)]


@pytest.mark.parametrize("degree", range(7))
def test_sl2_classical_normal_words_count_ordered_monomials(degree):
    R = build_rules(quasi_inverse(catalog_matrix("A1")))
    ordered = {
        ("E1",) * a + ("H1",) * b + ("F1",) * (degree - a - b)
        for a in range(degree + 1)
        for b in range(degree + 1 - a)
    }
    assert set(normal_words(R, degree)) == ordered
    assert len(ordered) == comb(degree + 2, 2)


@pytest.mark.parametrize("degree", range(7))
def test_sl2_quantum_normal_words_are_e_krun_f(degree):
    R = build_rules(quasi_inverse(catalog_matrix("A1")), mode="quantum")
    # E^a (K-run) F^c: one empty run plus a K1-run and a K1^-1-run per length
    assert len(normal_words(R, degree)) == (degree + 1) ** 2


@pytest.mark.parametrize("a,b", [(a, b) for a in range(4) for b in range(4) if a + b])
def test_a2_e_block_bidegree_count(a, b):
    R = build_rules(quasi_inverse(catalog_matrix("A2")))
    words = [
        w
        for w in product(("E1", "E2"), repeat=a + b)
        if w.count("E1") == a and not R.redexes(w)
    ]
    assert len(words) == min(a, b) + 1


# -- local confluence ------------------------------------------------------------


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("name", ["A1", "A2"])
def test_small_rank_systems_are_degree_four_confluent(name, mode):
    R = build_rules(quasi_inverse(catalog_matrix(name)), mode=mode)
    report = check_local_confluence(R, 4)
    assert report.passed
    assert report.ambiguities  # something was actually checked


def test_sl2_classical_has_the_single_famous_overlap():
    R = build_rules(quasi_inverse(catalog_matrix("A1")))
    report = check_local_confluence(R, 4)
    assert [a.word for a in report.ambiguities] == [("F1", "H1", "E1")]
    assert report.passed


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_a3_degree_four_finds_the_missing_composite_root(mode):
    # bare Serre rules stop being a complete basis at rank three: the
    # adjacent-window overlap needs a composite-root reduction we do not carry
    R = build_rules(quasi_inverse(catalog_matrix("A3")), mode=mode)
    assert check_local_confluence(R, 3).passed
    report = check_local_confluence(R, 4)
    assert not report.passed
    assert [a.word for a in report.unresolved()] == [
        ("E3", "E2", "E2", "E1"),
        ("F3", "F2", "F2", "F1"),
    ]


def rule_pair_overlaps(R, bound):
    """Every (r1, r2, word, pos) with r1's lead at 0 of word and r2's at pos,
    for every ordered pair of rules, overlaps before containments; two rules
    on one lead meet once, at 0, the earlier rule first."""
    for i1, r1 in enumerate(R.rules):
        l1 = r1.lead
        for i2, r2 in enumerate(R.rules):
            l2 = r2.lead
            for k in range(1, min(len(l1), len(l2))):
                if l1[len(l1) - k :] == l2[:k] and len(l1) + len(l2) - k <= bound:
                    yield r1, r2, l1 + l2[k:], len(l1) - k
            if len(l1) <= bound and (len(l2) < len(l1) or (l2 == l1 and i2 > i1)):
                for pos in range(len(l1) - len(l2) + 1):
                    if l1[pos : pos + len(l2)] == l2:
                        yield r1, r2, l1, pos


def chased_ambiguities(R, bound):
    """Every ambiguity of `rule_pair_overlaps`, both sides chased by normal_form."""

    def one_step(word, pos, rule):
        head, tail = word[:pos], word[pos + len(rule.lead) :]
        return NCPoly({head + w + tail: c for w, c in rule.rhs.terms.items()})

    out = []
    for r1, r2, word, pos in rule_pair_overlaps(R, bound):
        nf1 = normal_form(one_step(word, 0, r1), R)
        nf2 = normal_form(one_step(word, pos, r2), R)
        left, right = f"{word_str(r1.lead)} at 0", f"{word_str(r2.lead)} at {pos}"
        out.append(Ambiguity(word, left, right, nf1, nf2, nf1 == nf2))
    return out


def _twin(R):
    # a second rule on F1·E1 that forgets the bracket
    return RewriteSystem(R.mode, R.matrix, R.d, R.rules + (Rule(("F1", "E1"), R.poly(("E1", "F1"))),))


def _detour(R):
    # F3 passes F2·E1 and E1 passes F3·F2, but F2·F3·E1, one step into the
    # left side of F3·F2·E1, now reduces at 0 by a rule that doubles, so
    # neither move is the leftmost redex there
    return RewriteSystem(R.mode, R.matrix, R.d, R.rules + (Rule(("F2", "F3", "E1"), R.poly(("E1", "F2", "F3"), 2)),))


def _stopper(R):
    # E1·F2·F3, the word both sides of F3·F2·E1 end in, is no longer irreducible
    return RewriteSystem(R.mode, R.matrix, R.d, R.rules + (Rule(("E1", "F2", "F3"), R.poly(("E1", "F2"))),))


@pytest.mark.parametrize(
    "name, bound",
    [(name, bound) for name in CATALOG + ["A4", "D4"] for bound in (4, 6)]
    + [("A6", 4)]
    + [(name, 6) for name in ("B3", "C3", "A2~")],
)
@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_every_ambiguity_field_matches_chasing_every_overlap(name, mode, bound):
    # certified ambiguities must hold the very normal forms the chase returns;
    # equality reads every field, so this builds every deferred normal form
    R = system(name, mode)
    assert list(check_local_confluence(R, bound).ambiguities) == chased_ambiguities(R, bound)


def _cartan1(R):
    return "H1" if R.mode == "classical" else "K1"


def _with(R, *rules, ahead=False):
    """R with more rules, after its own or ahead of them."""
    return RewriteSystem(R.mode, R.matrix, R.d, rules + R.rules if ahead else R.rules + rules)


def _second_weight_rule(R):
    # H1 (or K1) no longer passes E2 by the only rule on H1·E2
    return _with(R, Rule((_cartan1(R), "E2"), R.poly(("E2", _cartan1(R)))))


def _stray_lead(R):
    # a lead E1·H1 (or E1·K1) holds the mover without being one of its moves
    return _with(R, Rule(("E1", _cartan1(R)), R.poly(("E1",))))


def _skewed_serre(R):
    # E1·E1·E1 has another weight than E2·E2·E1, so H1 and K1 move past it otherwise
    serre = rule_for(R, ("E2", "E2", "E1"))
    return swap_rule(R, serre.lead, Rule(serre.lead, serre.rhs + R.poly(("E1", "E1", "E1"))))


def _leaving_rule(R):
    # E1·E1 -> H2 (or K2) takes the E's out of the alphabet H1 (or K1) passes
    return _with(R, Rule(("E1", "E1"), R.poly((_cartan1(R)[0] + "2",))))


def _reducible_prefix(R):
    # E2·E2 -> 0 makes the Serre lead E2·E2·E1 reducible without its last letter
    return _with(R, Rule(("E2", "E2"), NCPoly()))


def _second_serre_rule(R):
    # a rule on E2·E2·E1 ahead of the Serre rule, so that one is not the first at 0
    return _with(R, Rule(("E2", "E2", "E1"), R.poly(("E1", "E2", "E2"))), ahead=True)


def _reducible_right_word(R):
    # E2·E3·E1 -> E2·E1·E3, whose prefix E2·E1 the sort rule reduces while
    # E2·E1·E3 itself reduces first by a rule that doubles
    R = _with(R, Rule(("E2", "E1", "E3"), R.poly(("E1", "E3", "E2"), 2)), ahead=True)
    return _with(R, Rule(("E2", "E3", "E1"), R.poly(("E2", "E1", "E3"))))


def _reducible_left_word(R):
    # F1·F3, the right side of the sort rule on F3·F1, now reduces to a word
    # of another weight, before H1 (or K1) can move left through it
    return _with(R, Rule(("F1", "F3"), R.poly(("F1", "F1"))))


@pytest.mark.parametrize(
    "extend, name, letters, left, hows",
    [
        (_second_weight_rule, "A2", "X E2 E2 E1", "X*E2 at 0", ["chased", "chased"]),
        (_stray_lead, "A2", "X E2 E2 E1", "X*E2 at 0", ["chased"]),
        (_skewed_serre, "A2", "X E2 E2 E1", "X*E2 at 0", ["chased"]),
        (_leaving_rule, "A2", "X E2 E1 E1", "X*E2 at 0", ["chased"]),
        (_reducible_prefix, "A2", "X E2 E2 E1", "X*E2 at 0", ["chased"]),
        (_second_serre_rule, "A2", "X E2 E2 E1", "X*E2 at 0", ["transport", "chased"]),
        (_reducible_right_word, "A1^3", "X E2 E3 E1", "X*E2 at 0", ["chased"]),
        (_reducible_left_word, "A1^3", "F3 F1 X", "F3*F1 at 0", ["chased"]),
    ],
    ids=[
        "second-weight-rule",
        "stray-lead",
        "skewed-serre",
        "leaving-rule",
        "reducible-prefix",
        "second-serre-rule",
        "reducible-right-word",
        "reducible-left-word",
    ],
)
@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_transport_falls_back_to_the_chase(extend, name, letters, left, hows, mode):
    # each system breaks one condition of the transport certificate for an
    # overlap H1·L or L·H1 (K1 in quantum mode) that the base system
    # certifies, where it has it; the overlap must be chased, and every
    # field must match the chase
    base = system(name, mode)
    R = extend(base)
    word = tuple(letters.replace("X", _cartan1(R)).split())
    left = left.replace("X", _cartan1(R))

    def found(report):
        return [a.how for a in report.ambiguities if a.word == word and a.left == left]

    report = check_local_confluence(R, 4)
    assert list(report.ambiguities) == chased_ambiguities(R, 4)
    assert found(report) == hows
    assert found(check_local_confluence(base, 4)) in ([], ["transport"])


def _shifted_moves(R):
    # H2·E1 -> E1·H2 + H2/3 and H3·E1 -> E1·H3 + 2·H3 (the K's with
    # 1/(q^2 - 1) and q in quantum mode): E1 passes H2 and H3 leftward with
    # shifts that drop E1, and neither passes E1 rightward any more, so
    # transport settles H3·H2·E1 by E1's move, with δ ≠ 0 read off the
    # rules as written.  In quantum mode E1 also passes K1 and K1^-1 with
    # λ ≠ 1, so its weight would depend on letter order and it is chased
    shifts = (Fraction(1, 3), 2) if R.mode == "classical" else (QScalar((1,), (-1, 0, 1)), q_power(1))
    for x, shift in zip(_cartan_letters(R), shifts):
        rule = rule_for(R, (x, "E1"))
        R = swap_rule(R, rule.lead, Rule(rule.lead, rule.rhs + NCPoly({(x,): shift})))
    return R


def _cartan_letters(R):
    return ("H2", "H3") if R.mode == "classical" else ("K2", "K3")


@pytest.mark.parametrize(
    "extend", [_twin, _detour, _stopper, _shifted_moves], ids=["twin", "detour", "stopper", "shifted-moves"]
)
@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_extended_systems_match_chasing_every_overlap(extend, mode):
    # a certificate taken where a move is not the leftmost redex, or a pair
    # of rules on one lead left out, would show here as a field the chase
    # does not give
    R = extend(system("A1^3", mode))
    assert list(check_local_confluence(R, 4).ambiguities) == chased_ambiguities(R, 4)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_a_shifted_move_is_transported_with_its_shift(mode):
    R = _shifted_moves(system("A1^3", mode))
    x2, x3 = _cartan_letters(R)
    (a,) = [a for a in check_local_confluence(R, 4).ambiguities if a.word == (x3, x2, "E1")]
    how = "transport" if mode == "classical" else "chased"  # see `_shifted_moves`
    assert (a.how, a.left) == (how, f"{x3}*{x2} at 0")
    shifts = Fraction(7, 3) if mode == "classical" else QScalar((1,), (-1, 0, 1)) + q_power(1)
    assert a.nf_left == NCPoly({("E1", x2, x3): R.one, (x2, x3): shifts})


def _order_dependent_shifts(R):
    # K1·E1 -> q^2·E1·K1 + K1 and K2·E1 -> q^-1·E1·K2 + q·K2: E1 passes
    # K1 and K2 leftward with λ ≠ 1 and κ ≠ 0 at once, so (χ, δ) depends on
    # the order of a word's letters, and K2·K1 and K1·K2 weigh differently
    for x, shift in (("K1", R.one), ("K2", q_power(1))):
        rule = rule_for(R, (x, "E1"))
        R = swap_rule(R, rule.lead, Rule(rule.lead, rule.rhs + NCPoly({(x,): shift})))
    return R


def test_a_weight_that_depends_on_letter_order_is_not_keyed_by_letters():
    # the overlap K2·K1·E1 meets E1's move past K2·K1 with the sort rule
    # K2·K1 -> K1·K2, which keeps the lead's letters; the weights differ, so
    # it must be chased, and every field must match the chase
    base = system("A2", "quantum")
    R = _order_dependent_shifts(base)
    word = ("K2", "K1", "E1")

    def hows(report):
        return [a.how for a in report.ambiguities if a.word == word]

    report = check_local_confluence(R, 4)
    assert list(report.ambiguities) == chased_ambiguities(R, 4)
    assert hows(report) == ["chased"]
    assert hows(check_local_confluence(base, 4)) == ["transport"]


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_a_right_side_that_straightens_through_a_pairing_is_transported(mode):
    # E1·F1·F1·E1 -> E1·F1·E1, whose right side straightens through the
    # pairing F1·E1 although the rule keeps E-content; F2 passes every
    # letter of its lead, so transport settles F2·E1·F1·F1·E1 from
    # N(E1·F1·E1), which a quantum check must divide back in part
    base = system("A1^3", mode)
    R = _with(base, Rule(("E1", "F1", "F1", "E1"), base.poly(("E1", "F1", "E1"))))
    report = check_local_confluence(R, 5)
    assert list(report.ambiguities) == chased_ambiguities(R, 5)
    (a,) = [a for a in report.ambiguities if a.word == ("F2", "E1", "F1", "F1", "E1")]
    assert a.how == "transport"


def test_two_rules_on_one_lead_are_compared():
    R = _twin(system("A1"))
    report = check_local_confluence(R, 4)
    assert report.summary_lines()[0].endswith("2 ambiguities, 1 resolved")
    (bad,) = report.unresolved()
    assert str(bad) == "[FAIL] F1*E1  (F1*E1 at 0 vs F1*E1 at 0)"
    assert bad.nf_left - bad.nf_right == R.poly(("H1",), -1)


def _passing_leads(R):
    """Leads x·a whose only rule rewrites them to λ·a·x + κ·a (x passes a
    rightward), and leads a·x whose only rule gives λ·x·a + κ·a (leftward)."""
    rules = {}
    for rule in R.rules:
        rules.setdefault(rule.lead, []).append(rule)
    swaps = {
        lead: set(rule.rhs.terms)
        for lead, (rule, *others) in rules.items()
        if not others and len(lead) == 2 and lead[::-1] in rule.rhs.terms
    }
    rightward = {lead for lead, words in swaps.items() if words <= {lead[::-1], lead[1:]}}
    leftward = {lead for lead, words in swaps.items() if words <= {lead[::-1], lead[:1]}}
    return rightward, leftward


def test_a4_quantum_chases_only_what_it_cannot_certify(monkeypatch):
    # transport: a letter passing a whole lead, x·L or L·x, met by the rule
    # on L, three pairwise commuting letters among them; the rest is chased
    R = system("A4", "quantum")
    rightward, leftward = _passing_leads(R)
    leads = {r.lead for r in R.rules}

    def how(a):
        """(how, the lead transported or None)"""
        w = a.word
        head, tail = w[:-1], w[1:]
        if a.right == f"{word_str(tail)} at 1" and tail in leads and {(w[0], x) for x in tail} <= rightward:
            return "transport", tail
        if a.left == f"{word_str(head)} at 0" and head in leads and {(x, w[-1]) for x in head} <= leftward:
            return "transport", head
        return "chased", None

    ambiguities = chased_ambiguities(R, 6)
    expected = [how(a) for a in ambiguities]
    hows = [h for h, _ in expected]
    assert [hows.count(h) for h in ("transport", "chased")] == [626, 96]
    calls = []
    reduce = biproduct._reduce
    monkeypatch.setattr(biproduct, "_reduce", lambda terms, R: calls.append(terms) or reduce(terms, R))
    assert [a.how for a in check_local_confluence(R, 6).ambiguities] == hows
    # two chases per chased overlap, and one N(rhs r) per rule transported
    assert len(calls) == 2 * 96 + len({lead for _, lead in expected if lead})


def test_a_resolved_ambiguity_builds_its_normal_forms_only_when_read(monkeypatch):
    # the check builds no polynomial and divides nothing back beyond what
    # the unresolved ambiguities need; read later, every form is the chase's
    R = system("A4", "quantum")
    made = {"NCPoly": 0, "_unscale": 0}
    init, unscale = NCPoly.__init__, RewriteSystem._unscale

    def counted_init(self, terms=None):
        made["NCPoly"] += 1
        init(self, terms)

    def counted_unscale(self, terms, ref):
        made["_unscale"] += 1
        return unscale(self, terms, ref)

    monkeypatch.setattr(NCPoly, "__init__", counted_init)
    monkeypatch.setattr(RewriteSystem, "_unscale", counted_unscale)
    report = check_local_confluence(R, 6)
    unresolved = len(report.unresolved())
    assert unresolved > 0
    assert made["NCPoly"] <= 2 * unresolved and made["_unscale"] <= 2 * unresolved
    monkeypatch.undo()
    chased = chased_ambiguities(R, 6)
    assert [(a.nf_left, a.nf_right) for a in report.ambiguities] == [(a.nf_left, a.nf_right) for a in chased]


def test_certificates_decide_alike_under_python_O():
    # the certificates decide with if, never assert: -O must print the same
    # summary, build the same deferred normal forms (a digest of every
    # ambiguity's two sides) and settle every ambiguity the same way
    script = (
        "import hashlib\n"
        "import sys\n"
        "from borelweyl.biproduct import build_rules, check_local_confluence\n"
        "from borelweyl.cartan import quasi_inverse, validate_gcm\n"
        f"A4 = {ROWS['A4']}\n"
        "print(sys.flags.optimize)\n"
        "for mode, bound in (('quantum', 6), ('classical', 4)):\n"
        "    report = check_local_confluence(build_rules(quasi_inverse(validate_gcm(A4)), mode), bound)\n"
        "    print(*report.summary_lines(), sep='\\n')\n"
        "    forms = ' '.join(f'{a.nf_left.to_str()} | {a.nf_right.to_str()}' for a in report.ambiguities)\n"
        "    print(hashlib.sha256(forms.encode()).hexdigest())\n"
        "    print(*(a.how for a in report.ambiguities))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(borelweyl.__file__)))
    plain, optimized = (
        subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env, check=True)
        .stdout.splitlines()
        for flags in ([], ["-O"])
    )
    assert (plain[0], optimized[0]) == ("0", "1")
    assert plain[1:] == optimized[1:]
    assert set(plain[-1].split()) == {"chased", "transport"}


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("name", ["B2", "A3"])
def test_ambiguities_come_in_rule_pair_order(name, mode):
    # every ordered pair of rules, overlaps before containments, as the report lists them
    R = build_rules(quasi_inverse(catalog_matrix(name)), mode=mode)
    expected = [(word, f"{word_str(r2.lead)} at {pos}") for _, r2, word, pos in rule_pair_overlaps(R, 4)]
    found = check_local_confluence(R, 4).ambiguities
    assert [(a.word, a.right) for a in found] == expected


def test_confluence_bound_must_cover_a_rule():
    R = build_rules(quasi_inverse(catalog_matrix("A1")))
    with pytest.raises(ValueError, match="degree bound"):
        check_local_confluence(R, 1)


def test_a_lead_inside_another_lead_is_chased():
    # F1·E1·E1 contains the pairing lead F1·E1 at 0: the containment branch
    R = build_rules(quasi_inverse(catalog_matrix("A1")))
    word = ("F1", "E1", "E1")
    pair = "F1*E1*E1  (F1*E1*E1 at 0 vs F1*E1 at 0)"

    def with_rhs(rhs):
        return RewriteSystem(R.mode, R.matrix, R.d, R.rules + (Rule(word, rhs),))

    wrong = check_local_confluence(with_rhs(R.poly(("E1", "E1", "F1"))), 4)
    assert [str(a) for a in wrong.unresolved()] == [f"[FAIL] {pair}"]
    right = check_local_confluence(with_rhs(normal_form(R.poly(word), R)), 4)
    assert right.passed
    assert f"[ok  ] {pair}" in [str(a) for a in right.ambiguities]


def test_summary_lines_show_the_failure_pair():
    R = build_rules(quasi_inverse(catalog_matrix("A3")))
    lines = check_local_confluence(R, 4).summary_lines()
    assert "112 ambiguities, 110 resolved" in lines[0]
    assert any("E3*E2*E2*E1" in line for line in lines)


def test_a_resolved_ambiguity_is_never_rendered(monkeypatch):
    R = build_rules(quasi_inverse(catalog_matrix("A2")), mode="quantum")
    calls = []
    render = NCPoly.to_str

    def counted(p):
        calls.append(1)
        return render(p)

    monkeypatch.setattr(NCPoly, "to_str", counted)
    assert check_local_confluence(R, 4).passed
    assert calls == []
    mixed_relation_check(R)
    assert len(calls) == R.n * R.n  # the counter does see renders


def _summary_rendering_every_ambiguity(R, bound):
    """The confluence summary built independently: normalise and render both
    sides of every ambiguity, resolved or not, in rule pair order."""
    rows = chased_ambiguities(R, bound)
    bad = [a for a in rows if a.nf_left != a.nf_right]
    lines = [
        f"{R.mode} rewriting, overlaps of degree <= {bound}: "
        f"{len(rows)} ambiguities, {len(rows) - len(bad)} resolved"
    ]
    for a in bad:
        lines += [
            f"  [FAIL] {word_str(a.word)}  ({a.left} vs {a.right})",
            f"    one way:   {a.nf_left.to_str()}",
            f"    other way: {a.nf_right.to_str()}",
        ]
    return lines


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_summary_lines_match_rendering_every_ambiguity(name):
    R = system(name, "quantum")
    lines = check_local_confluence(R, 6).summary_lines()
    assert len(lines) > 1  # both systems leave ambiguities unresolved at degree 6
    assert lines == _summary_rendering_every_ambiguity(R, 6)


# -- negative controls -----------------------------------------------------------


def corrupt_pairing(R, rhs_terms):
    bad = Rule(("F1", "E1"), NCPoly(rhs_terms))
    return swap_rule(R, ("F1", "E1"), bad)


def test_dropping_the_h_term_is_caught_by_the_cross_check_not_confluence():
    # F·E -> E·F alone still presents a consistent algebra ([E,F] = 0 with the
    # same weights), so every overlap resolves; what breaks is [E,F] - H itself
    R = corrupt_pairing(build_rules(quasi_inverse(catalog_matrix("A1"))), {("E1", "F1"): 1})
    assert check_local_confluence(R, 4).passed
    report = mixed_relation_check(R)
    assert not report.passed
    assert report.entries[0][1] == "-H1"


def test_wrong_weight_term_breaks_the_f_h_e_overlap():
    # replacing -H by -E injects a weight-two term where weight zero is forced,
    # and the F·H·E ambiguity stops resolving (the two ways differ by 2·E)
    R = corrupt_pairing(
        build_rules(quasi_inverse(catalog_matrix("A1"))), {("E1", "F1"): 1, ("E1",): -1}
    )
    report = check_local_confluence(R, 4)
    assert not report.passed
    (bad,) = report.unresolved()
    assert bad.word == ("F1", "H1", "E1")
    assert not mixed_relation_check(R).passed


# -- cross relations --------------------------------------------------------------


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("name", CATALOG)
def test_mixed_relations_normalize_to_zero(name, mode):
    R = build_rules(quasi_inverse(catalog_matrix(name)), mode=mode)
    report = mixed_relation_check(R)
    assert report.passed
    assert len(report.entries) == R.n * R.n
    assert all(nf == "0" for _, nf, _ in report.entries)


# -- order independence ------------------------------------------------------------


def random_poly(R, rng, max_degree):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.choice(R.alphabet) for _ in range(rng.randint(0, max_degree)))
        terms[word] = terms.get(word, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
    return NCPoly(terms)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("name", CATALOG)
def test_normal_forms_do_not_depend_on_the_reduction_order(name, mode):
    # A3's rules are degree-4 incomplete (see the confluence test), so its
    # guarantee only reaches degree-3 inputs; everywhere else degree 4 is safe
    max_degree = 3 if name == "A3" else 4
    R = build_rules(quasi_inverse(catalog_matrix(name)), mode=mode)
    rng = random.Random(f"{name}/{mode}")
    chaotic = lambda redexes: redexes[rng.randrange(len(redexes))]
    for _ in range(100):
        p = random_poly(R, rng, max_degree)
        nf = normal_form(p, R)
        assert reference_normal_form(p, R, "rightmost") == nf
        assert reference_normal_form(p, R, chaotic) == nf


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("name", ["A1", "A2"])
def test_degree_six_reductions_terminate(name, mode):
    R = build_rules(quasi_inverse(catalog_matrix(name)), mode=mode)
    rng = random.Random(f"terminate/{name}/{mode}")
    for _ in range(25):
        p = random_poly(R, rng, 6)
        nf = normal_form(p, R)  # would raise RewriteLimitError on a loop
        assert all(not R.redexes(w) for w in nf.terms)


# -- parsing and display -----------------------------------------------------------


def test_parse_word_accepts_stars_and_spaces():
    R = build_rules(quasi_inverse(catalog_matrix("A2")), mode="quantum")
    assert parse_word("F1*E2", R) == ("F1", "E2")
    assert parse_word("  K1^-1 E1 ", R) == ("K1^-1", "E1")
    with pytest.raises(ValueError, match="unknown generator 'E9'"):
        parse_word("E9", R)
    with pytest.raises(ValueError, match="unknown generator"):
        parse_word("H1", R)  # classical letter in a quantum system


def test_word_and_poly_display():
    assert word_str(()) == "1"
    p = NCPoly({("E1", "F1"): Fraction(-1, 2), (): 3})
    assert p.to_str() == "-(1/2)*E1*F1 + 3"
    assert NCPoly().to_str() == "0"
