"""Straightening engine for the merged algebra of the two Borel halves.

Words over the letters E_i, H_i (or K_i^{±1}), F_i are reduced by oriented
rules until every E sits left of every Cartan letter and every Cartan letter
left of every F.  The rule set encodes the cross relations that merge the
halves into one algebra, so the irreducible words are exactly the ordered
monomials of a PBW basis.  The Serre rules are oriented Serre windows: the
window of the presentations in `morphisms`, with its order-maximal word as
the lead.  Confluence of the rules is not assumed: it is checked on all
overlap ambiguities up to a degree bound, which is the finite,
machine-checkable shadow of the PBW claim.

The system, not the polynomial, chooses the scalars.  `build_rules` writes
every classical rule with integer coefficients and every quantum rule with
exact rational functions of q (`QScalar`), and `RewriteSystem.poly` scales
an input word by the system's one, so classical input stays on ``int`` or
``Fraction`` as given and quantum input becomes `QScalar`.  A polynomial
holds whatever scalars it is given; nothing here ever touches floating
point.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .cartan import CartanAux
from .exact import QQ_ONE, q_power
from .exact.laurent import _accumulate
from .morphisms import _serre_windows

__all__ = [
    "NCPoly",
    "Rule",
    "RewriteSystem",
    "RewriteLimitError",
    "Ambiguity",
    "ConfluenceReport",
    "MixedRelationReport",
    "build_rules",
    "normal_form",
    "check_local_confluence",
    "mixed_relation_check",
    "parse_word",
    "word_str",
]


# -- words and polynomials ----------------------------------------------------


def word_str(word) -> str:
    return "*".join(word) if word else "1"


class NCPoly:
    """Finite scalar combination of words in the generator letters.

    Nothing is reordered here; `normal_form` straightens.  The terms map
    never stores zero coefficients; the scalars are the ones given, and a
    `RewriteSystem` chooses them for its rules and input words.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", {w: c for w, c in (terms or {}).items() if c})

    def __setattr__(self, *a):
        raise AttributeError("NCPoly is immutable")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return NCPoly(_accumulate((self.terms, other.terms)))

    def __neg__(self):
        return NCPoly({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self + (-other)

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        words = sorted(self.terms, key=lambda w: (len(w), w), reverse=True)
        parts = []
        for w in words:
            cs = str(self.terms[w])
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            if "+" in cs or " - " in cs or "/" in cs:
                cs = f"({cs})"
            if not w:
                body = cs
            elif cs == "1":
                body = word_str(w)
            else:
                body = f"{cs}*{word_str(w)}"
            parts.append("-" + body if neg else body)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return self.to_str()


# -- rules and systems --------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """One oriented reduction: the lead word rewrites to the replacement.

    The lead always carries an implicit coefficient 1, so systems built from
    relations must normalize the relation's leading coefficient away first.
    """

    lead: tuple
    rhs: NCPoly
    tag: str

    def __str__(self):
        return f"{word_str(self.lead)} -> {self.rhs.to_str()}"


class RewriteLimitError(RuntimeError):
    """A reduction ran past the step limit; carries the trailing trace."""

    def __init__(self, steps: int, trace):
        self.steps = steps
        self.trace = tuple(trace)
        tail = "\n  ".join(self.trace)
        super().__init__(f"no normal form after {steps} steps; last reductions:\n  {tail}")


class RewriteSystem:
    """An oriented rule set over a fixed alphabet, with its term order.

    The order is graded (longer words are larger) with letter precedence
    F > H/K > E and index tiebreak inside a family; every rule must strictly
    decrease it, which makes any reduction sequence terminate.
    """

    def __init__(self, mode: str, matrix, d, rules):
        if mode not in ("classical", "quantum"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.matrix = matrix
        self.d = d
        self.one = 1 if mode == "classical" else QQ_ONE
        self.n = n = matrix.n
        if mode == "classical":
            cartan = [f"H{i + 1}" for i in range(n)]
        else:
            cartan = [k for i in range(n) for k in (f"K{i + 1}", f"K{i + 1}^-1")]
        self.alphabet = tuple(
            [f"E{i + 1}" for i in range(n)] + cartan + [f"F{i + 1}" for i in range(n)]
        )
        # the alphabet is in term order, so a letter's place in it is its rank
        self._place = {letter: place for place, letter in enumerate(self.alphabet)}
        # normal_form's heap keys negate the places, so the largest word pops first
        self._neg_place = {letter: -place for letter, place in self._place.items()}
        self.order = "graded, F > " + ("H" if mode == "classical" else "K") + " > E, index tiebreak"
        self.rules = tuple(rules)
        by_lead = {}
        for index, rule in enumerate(self.rules):
            if not rule.lead:
                raise ValueError("empty lead word")
            for letter in rule.lead:
                if letter not in self._place:
                    raise ValueError(f"rule lead uses unknown letter {letter!r}")
            lead_key = self.order_key(rule.lead)
            for w in rule.rhs.terms:
                if self.order_key(w) >= lead_key:
                    raise ValueError(f"rule {rule} does not decrease the term order")
            by_lead.setdefault(rule.lead, []).append((index, rule))
        self._by_lead = by_lead
        self._lead_lengths = sorted({len(lead) for lead in by_lead})

    def order_key(self, word):
        return (len(word), tuple(self._place[letter] for letter in word))

    def redexes(self, word, start=0):
        """Every (position, rule) at the leftmost redex position ≥ start.

        A position holds a redex when some rule's lead occurs there.  The
        scan stops at the first such position and returns all of its rules
        in construction order; an empty list means no lead starts at or
        after ``start``.  Positions before ``start`` are not looked at, so a
        caller passes a start only when it knows no redex begins earlier.
        """
        by_lead, lengths, n = self._by_lead, self._lead_lengths, len(word)
        for pos in range(start, n):
            hits = None
            for length in lengths:
                if pos + length > n:
                    break
                found = by_lead.get(word[pos : pos + length])
                if found:
                    hits = found if hits is None else sorted(hits + found)
            if hits:
                return [(pos, rule) for _, rule in hits]
        return []

    def poly(self, letters, coeff=1) -> NCPoly:
        """coeff·letters, with coeff scaled into the system's scalars."""
        return NCPoly({tuple(letters): coeff * self.one})


# -- rule construction --------------------------------------------------------


def _serre_rule(window, first_leads: bool) -> Rule:
    """The order-maximal word of a Serre window rewrites to the rest.

    The window runs from x_i^m·x_j to x_j·x_i^m, so its first word is the
    largest when i > j and its last word otherwise.  Both end coefficients
    are ±1, so the lead's is its own inverse: the rest is multiplied by it,
    which keeps an integer window on integers and a q-window division-free.
    """
    lead_c, lead = window[0] if first_leads else window[-1]
    if lead_c not in (1, -1):
        raise ValueError(f"a Serre window must end in ±1, not {lead_c}")
    rhs = {w: -(c * lead_c) for c, w in window if w != lead}
    return Rule(lead, NCPoly(rhs), "serre")


def _bracket(mode, d, i) -> dict:
    """[E_i, F_i] as {word: coefficient}: H_i, or the balanced
    (K_i - K_i^-1)/(q^{d_i} - q^{-d_i}) in quantum mode."""
    if mode == "classical":
        return {(f"H{i + 1}",): 1}
    c = (q_power(d[i]) - q_power(-d[i])).inverse()
    return {(f"K{i + 1}",): c, (f"K{i + 1}^-1",): -c}


def build_rules(aux: CartanAux, mode: str = "classical") -> RewriteSystem:
    """Assemble the straightening rules for the matrix of aux, at q^{d_i} with d = aux.d.

    Classical rules move every F right past H and E, every H right past E,
    sort commuting letters by index, and reduce the maximal word of each
    Serre window.  Quantum rules do the same with K-letter scalings and
    balanced q-binomial Serre coefficients; K and K^-1 cancel on contact.
    """
    C, n = aux.matrix, aux.matrix.n
    if mode == "classical":
        one, d = 1, None
        cartan = [(f"H{i + 1}",) for i in range(n)]
    elif mode == "quantum":
        one, d = QQ_ONE, aux.d
        cartan = [(f"K{i + 1}", f"K{i + 1}^-1") for i in range(n)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    E = [f"E{i + 1}" for i in range(n)]
    F = [f"F{i + 1}" for i in range(n)]
    rules = []
    if mode == "quantum":
        for ki, kinv in cartan:
            rules.append(Rule((ki, kinv), NCPoly({(): one}), "unit"))
            rules.append(Rule((kinv, ki), NCPoly({(): one}), "unit"))
    for j in range(n):
        for i in range(n):
            rhs = {(E[i], F[j]): one}
            if i == j:
                rhs.update((w, -c) for w, c in _bracket(mode, d, i).items())
            rules.append(Rule((F[j], E[i]), NCPoly(rhs), "pairing"))
    for i in range(n):
        for j in range(n):
            # classically h moves past E_j by a shift a_ij, in quantum mode K^±1 by q^{±d_i a_ij}
            for k, s in zip(cartan[i], (1, -1)):
                scale, shift = (one, C[i, j]) if mode == "classical" else (q_power(s * d[i] * C[i, j]), 0)
                rules.append(Rule((k, E[j]), NCPoly({(E[j], k): scale, (E[j],): shift}), "weight"))
                rules.append(Rule((F[j], k), NCPoly({(k, F[j]): scale, (F[j],): shift}), "weight"))
    for i in range(n):
        for j in range(i):
            for hi in cartan[i]:
                for lo in cartan[j]:
                    rules.append(Rule((hi, lo), NCPoly({(lo, hi): one}), "sort"))
    # disconnected E's (and F's) commute outright; connected ones reduce by Serre
    for i in range(n):
        for j in range(i):
            if C[i, j] == 0:
                for X in (E, F):
                    rules.append(Rule((X[i], X[j]), NCPoly({(X[j], X[i]): one}), "sort"))
    for i in range(n):
        for j in range(n):
            if i != j and C[i, j] < 0:
                for window in _serre_windows((E, F), i, j, 1 - C[i, j], None if d is None else d[i]):
                    rules.append(_serre_rule(window, i > j))
    return RewriteSystem(mode, C, d, rules)


# -- reduction ----------------------------------------------------------------


def _apply_at(word, pos, rule) -> NCPoly:
    head, tail = word[:pos], word[pos + len(rule.lead) :]
    return NCPoly({head + w + tail: c for w, c in rule.rhs.terms.items()})


_STEP_LIMIT = 200_000  # a tripwire: every rule lowers the order, so reductions end


def normal_form(p: NCPoly, R: RewriteSystem) -> NCPoly:
    """Reduce until no rule applies to any word.

    Always reduces the leftmost redex of the largest remaining word, ties at
    one position broken by rule construction order.  Every rule decreases
    the term order, so this terminates; past `_STEP_LIMIT` steps it raises
    an error that carries the tail of the reduction trace.

    Each popped live word costs one `R.redexes` call, which starts at a
    hint.  Rewriting ``head + lead + tail`` at its leftmost redex ``pos``
    gives words ``head + w + tail``.  A redex of such a word that starts
    before ``pos - (L - 1)``, with L the longest lead, ends before ``pos``,
    so it lies inside ``head`` and would have been a redex of the rewritten
    word left of ``pos``; there was none.  So each hint is a fact about the
    word itself, whichever arrival gave it, and `hints` keeps the largest.
    """
    neg_place = R._neg_place
    back = R._lead_lengths[-1] - 1 if R._lead_lengths else 0

    def entry(word):
        return (-len(word), tuple([neg_place[letter] for letter in word])), word

    work = dict(p.terms)
    hints = {}  # word -> a position before which it holds no redex
    heap = [entry(word) for word in work]
    heapify(heap)
    done = {}
    steps = 0
    trace = deque(maxlen=12)
    while heap:
        word = heappop(heap)[1]
        coeff = work.pop(word, None)
        if coeff is None:
            continue  # cancelled since it was pushed
        redexes = R.redexes(word, hints.pop(word, 0))
        if not redexes:
            # every rule lowers the order and the largest word pops first, so
            # a popped word never comes back: this is its only arrival
            done[word] = coeff
            continue
        steps += 1
        pos, rule = redexes[0]
        trace.append((word, pos, rule))
        if steps > _STEP_LIMIT:
            raise RewriteLimitError(
                steps, [f"{word_str(w)} at {i} via {word_str(r.lead)}" for w, i, r in trace]
            )
        head, tail = word[:pos], word[pos + len(rule.lead) :]
        hint = pos - back
        for w, c in rule.rhs.terms.items():
            nw = head + w + tail
            prev = work.get(nw)
            s = coeff * c if prev is None else prev + coeff * c
            if s:
                if prev is None:
                    heappush(heap, entry(nw))
                work[nw] = s
            else:
                work.pop(nw, None)
            if hint > hints.get(nw, 0):
                hints[nw] = hint
    return NCPoly(done)


# -- local confluence ---------------------------------------------------------


@dataclass(frozen=True)
class Ambiguity:
    """One overlap word with its two one-step reducts chased to normal form.

    ``left`` and ``right`` name the rule applied first on each side;
    ``nf_left`` and ``nf_right`` are the two normal forms as NCPoly, which
    the report renders only for an unresolved ambiguity.
    """

    word: tuple
    left: str
    right: str
    nf_left: NCPoly
    nf_right: NCPoly
    resolved: bool

    def __str__(self):
        mark = "ok  " if self.resolved else "FAIL"
        return f"[{mark}] {word_str(self.word)}  ({self.left} vs {self.right})"


@dataclass(frozen=True)
class ConfluenceReport:
    mode: str
    degree_bound: int
    ambiguities: tuple

    @property
    def passed(self) -> bool:
        return all(a.resolved for a in self.ambiguities)

    def unresolved(self):
        return tuple(a for a in self.ambiguities if not a.resolved)

    def summary_lines(self):
        bad = self.unresolved()
        lines = [
            f"{self.mode} rewriting, overlaps of degree <= {self.degree_bound}: "
            f"{len(self.ambiguities)} ambiguities, {len(self.ambiguities) - len(bad)} resolved"
        ]
        for a in bad:
            lines.append(f"  {a}")
            lines.append(f"    one way:   {a.nf_left.to_str()}")
            lines.append(f"    other way: {a.nf_right.to_str()}")
        return lines


def check_local_confluence(R: RewriteSystem, degree_bound: int) -> ConfluenceReport:
    """Resolve every rule overlap of total degree up to the bound.

    Covers proper overlaps (a suffix of one lead is a prefix of the other),
    containments (one lead inside the other) and each pair of distinct rules
    on one lead, counted once at position 0.  Each ambiguity is reduced both
    ways and chased to normal form.  Unresolved ambiguities land in the
    report rather than raising: they are the finding.

    Overlaps of commuting letters are certified instead of chased.  A rule
    is *pure* when its lead is x·y, its right side is exactly λ·y·x, and it
    is the only rule on x·y.  When the pairs cb, ba and ca of an overlap
    x_c·x_b·x_a all have pure rules, both sides reach λ_cb·λ_ca·λ_ba times
    x_a·x_b·x_c in three steps (the commutation case of Bergman's diamond
    lemma, as in Cartier–Foata).  The certificate is taken only when
    `R.redexes` shows that `normal_form` takes exactly those steps on both
    sides and x_a·x_b·x_c is irreducible, so the recorded normal forms are
    the ones the chase would return.
    """
    if degree_bound < 2:
        raise ValueError("degree bound below any two rule leads")
    found = []
    pure = {}
    for lead, hits in R._by_lead.items():
        if len(lead) == 2 and len(hits) == 1 and list(hits[0][1].rhs.terms) == [lead[::-1]]:
            pure[lead] = hits[0][1]

    def commuted(word, r1, r2):
        """The normal form of both sides of a pure overlap x_c·x_b·x_a, or None."""
        if len(word) != 3 or pure.get(r1.lead) is not r1 or pure.get(r2.lead) is not r2:
            return None
        c, b, a = word
        ca = pure.get((c, a))
        if ca is None:
            return None
        # normal_form's steps after r1 (left side) and after r2 (right side)
        for w, pos, rule in (((b, c, a), 1, ca), ((b, a, c), 0, r2), ((c, a, b), 0, ca), ((a, c, b), 1, r1)):
            first = R.redexes(w)
            if not first or first[0][0] != pos or first[0][1] is not rule:
                return None
        if R.redexes((a, b, c)):
            return None
        return NCPoly({(a, b, c): r1.rhs.terms[(b, c)] * ca.rhs.terms[(a, c)] * r2.rhs.terms[(a, b)]})

    def chase(word, pos1, r1, pos2, r2):
        nf1 = nf2 = commuted(word, r1, r2)
        if nf1 is None:
            nf1 = normal_form(_apply_at(word, pos1, r1), R)
            nf2 = normal_form(_apply_at(word, pos2, r2), R)
        found.append(
            Ambiguity(
                word,
                f"{word_str(r1.lead)} at {pos1}",
                f"{word_str(r2.lead)} at {pos2}",
                nf1,
                nf2,
                nf1 == nf2,
            )
        )

    by_first = {}
    for index, rule in enumerate(R.rules):
        by_first.setdefault(rule.lead[0], []).append(index)
    for i1, r1 in enumerate(R.rules):
        l1 = r1.lead
        # a lead that overlaps l1 or sits inside it starts with a letter of l1
        partners = sorted({index for letter in set(l1) for index in by_first.get(letter, ())})
        for index in partners:
            r2 = R.rules[index]
            l2 = r2.lead
            for k in range(1, min(len(l1), len(l2))):
                if l1[len(l1) - k :] == l2[:k]:
                    word = l1 + l2[k:]
                    if len(word) <= degree_bound:
                        chase(word, 0, r1, len(l1) - k, r2)
            if len(l1) <= degree_bound and (len(l2) < len(l1) or (l2 == l1 and index > i1)):
                for pos in range(len(l1) - len(l2) + 1):
                    if l1[pos : pos + len(l2)] == l2:
                        chase(l1, 0, r1, pos, r2)
    return ConfluenceReport(R.mode, degree_bound, tuple(found))


# -- the cross relations, checked through the engine ---------------------------


@dataclass(frozen=True)
class MixedRelationReport:
    mode: str
    entries: tuple  # (name, normal-form string, passed)

    @property
    def passed(self) -> bool:
        return all(ok for _, _, ok in self.entries)

    def summary_lines(self):
        return [
            f"[{'pass' if ok else 'FAIL'}] {name}  ->  {nf}" for name, nf, ok in self.entries
        ]


def mixed_relation_check(R: RewriteSystem) -> MixedRelationReport:
    """Normalize [E_i, F_j] minus its expected value for every pair.

    The expected value is delta_ij H_i classically and the balanced
    (K_i - K_i^-1) quotient in quantum mode; a healthy system sends each
    difference to zero in one pairing step plus straightening.
    """
    n = R.n
    entries = []
    for i in range(n):
        for j in range(n):
            ei, fj = f"E{i + 1}", f"F{j + 1}"
            p = R.poly((ei, fj)) - R.poly((fj, ei))
            if i == j:
                p = p - NCPoly(_bracket(R.mode, R.d, i))
            nf = normal_form(p, R)
            entries.append((f"[{ei},{fj}] cross relation", nf.to_str(), not nf))
    return MixedRelationReport(R.mode, tuple(entries))


# -- parsing (for the command line) --------------------------------------------


def parse_word(text: str, R: RewriteSystem):
    """Split 'F1*E1' or 'F1 E1' into a word over the system's alphabet."""
    tokens = [t for t in re.split(r"[\s*]+", text.strip()) if t]
    word = []
    for tok in tokens:
        if tok not in R._place:
            raise ValueError(
                f"unknown generator {tok!r}; expected one of {', '.join(R.alphabet)}"
            )
        word.append(tok)
    return tuple(word)
