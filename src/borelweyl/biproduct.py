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

The engine runs on letter codes.  A `RewriteSystem` compiles its alphabet
once into codes, minus each letter's place in the term order, so that a
coded word is its own heap key after its length, and it pre-encodes every
lead and right side.  `normal_form` encodes its input and decodes its
result; `RewriteSystem.redexes` is the string-word view of the same scan.
The confluence check settles an overlap in closed form rather than by
chasing both sides when a letter moves past every letter of a rule (the
Cartan letters past the Borel rules, and letters that commute with a
rule's letters); see `check_local_confluence`.

The system, not the polynomial, chooses the scalars.  `build_rules` writes
every classical rule with integer coefficients and every quantum rule with
exact rational functions of q (`QScalar`), and `RewriteSystem.poly` scales
an input word by the system's one, so classical input stays on ``int`` or
``Fraction`` as given and quantum input becomes `QScalar`.  A polynomial
holds whatever scalars it is given; nothing here ever touches floating
point.

A quantum system straightens in the rescaled generators Ē_i = β_i·E_i,
β_i = q^{d_i} − q^{−d_i}, the usual ℤ[q, q⁻¹]-form of U_q.  The one rule
of `build_rules` with a coefficient outside ℤ[q, q⁻¹] is the pairing
[E_i, F_i] = (K_i − K_i⁻¹)/β_i, which reads [Ē_i, F_i] = K_i − K_i⁻¹, and
every other rule is homogeneous in each E_i; so every compiled coefficient
is a Laurent polynomial, and a long straightening multiplies no
denominator into its coefficients.  With e(w) the number of E_i letters of
w for each i, a word w is β^{−e(w)} times the same word in the Ē_i, so
the rule lead → Σ c_w·w compiles to lead → Σ c_w·β^{e(lead) − e(w)}·w,
and `RewriteSystem.rules` keeps the rules as written.  The change of basis
is diagonal in the words, so it is exact: each lead still matches exactly
where it did, every reduction takes the same steps and cancels the same
words, and only each word's coefficient is multiplied by a fixed nonzero
power of β.  The division back happens once per output word, and only a
word whose E-content differs from its source's needs it; only a rule that
changes E-content makes such a word, and in `build_rules` systems those
are the n pairings F_i·E_i.  `normal_form` divides back relative to its
lifted input, and `check_local_confluence` relative to each overlap word.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from operator import sub

from .cartan import CartanAux
from .exact import QQ_ONE, QScalar, q_power
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

    def __str__(self):
        return f"{word_str(self.lead)} -> {self.rhs.to_str()}"


class RewriteLimitError(RuntimeError):
    """A reduction ran past the step limit; the message ends with the trailing trace."""

    def __init__(self, steps: int, trace):
        tail = "\n  ".join(trace)
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
        # a letter's code is minus its place, so coded words sort largest first
        # and a coded word is its own heap key after its length
        self._code = {letter: -place for letter, place in self._place.items()}
        self.order = "graded, F > " + ("H" if mode == "classical" else "K") + " > E, index tiebreak"
        self.rules = tuple(rules)
        # quantum rules compile in the rescaled basis Ē_i = β_i·E_i (see the module
        # docstring): lead → Σ c_w·w reads Ē-lead → Σ c_w·β^{e(lead) − e(w)}·Ē-w
        self._beta = None
        if mode == "quantum":
            if d is None:
                raise ValueError("quantum mode needs the symmetrizer d")
            # β_i = q^{d_i} − q^{−d_i} = (q^{2d_i} − 1)/q^{d_i}, built as one fraction
            self._beta = tuple(QScalar((-1,) + (0,) * (2 * k - 1) + (1,), (0,) * k + (1,)) for k in d)
        rescale = self._beta is not None
        self._e_codes = tuple(self._code[f"E{i + 1}"] for i in range(n))
        self._beta_powers = {}  # exponent vector k -> β^k
        self._contents = {}  # coded word -> `_e_content`
        by_lead = {}
        coded = []
        changing = []
        for index, rule in enumerate(self.rules):
            if not rule.lead:
                raise ValueError("empty lead word")
            for letter in rule.lead:
                if letter not in self._place:
                    raise ValueError(f"rule lead uses unknown letter {letter!r}")
            lead = self._encode(rule.lead)
            rhs = tuple((self._encode(w), c) for w, c in rule.rhs.terms.items())
            for w, _ in rhs:
                # codes reverse the letter order, so w ≥ lead in the term order reads so
                if len(w) > len(lead) or (len(w) == len(lead) and w <= lead):
                    raise ValueError(f"rule {rule} does not decrease the term order")
            by_lead.setdefault(lead, []).append(index)
            # only a word with other letters than the lead's can change E-content
            letters = sorted(lead) if rescale else None
            if rescale and any(sorted(w) != letters for w, _ in rhs):
                content = self._e_content(lead)
                shifts = [_minus(content, self._e_content(w)) for w, _ in rhs]
                if any(map(any, shifts)):
                    changing.append(index)
                    rhs = tuple(
                        (w, c * self._beta_power(k) if any(k) else c) for (w, c), k in zip(rhs, shifts)
                    )
            coded.append((lead, rhs))
        # coded lead -> its rules' indices, in construction order
        self._by_lead = by_lead
        # rule index -> (coded lead, ((coded word, coefficient), ...)), rescaled in quantum mode
        self._coded_rules = tuple(coded)
        # the rules that change a word's E-content, and so its scale
        self._changing = tuple(changing)
        self._first_rule = {lead: indices[0] for lead, indices in by_lead.items()}
        self._lead_lengths = sorted({len(lead) for lead in by_lead})

    def _encode(self, word) -> tuple:
        code = self._code
        return tuple([code[letter] for letter in word])

    def _decode(self, coded) -> tuple:
        alphabet = self.alphabet
        return tuple([alphabet[-c] for c in coded])

    def _leftmost(self, coded, start=0):
        """(position, rule index) of the leftmost redex of a coded word at or
        after start, with the first rule there in construction order; None
        when no lead starts at or after ``start``."""
        first, lengths, n = self._first_rule, self._lead_lengths, len(coded)
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

    def _e_content(self, coded) -> tuple:
        """e(w): the number of E_i letters in a coded word, for each i."""
        content = self._contents.get(coded)
        if content is None:
            content = self._contents[coded] = tuple(map(coded.count, self._e_codes))
        return content

    def _beta_power(self, k) -> "QScalar":
        """β^k = Π β_i^{k_i} for an integer vector k, built once per system."""
        power = self._beta_powers.get(k)
        if power is None:
            power = self.one
            for beta, e in zip(self._beta, k):
                for _ in range(abs(e)):
                    power = power * (beta if e > 0 else beta.inverse())
            self._beta_powers[k] = power
        return power

    def _unscale(self, terms, ref) -> dict:
        """Rescaled {coded word: coefficient} of a polynomial whose words
        started at E-content ``ref``, back in the basis of the E_i: a word w
        takes β^{e(w) − ref}, which is 1 unless an E-changing rule made it."""
        content, power = self._e_content, self._beta_power
        out = {}
        for w, c in terms.items():
            e = content(w)
            out[w] = c if e == ref else c * power(_minus(e, ref))
        return out

    def redexes(self, word, start=0):
        """The leftmost redex at or after start, as [(position, rule)].

        The rule is the first one there in construction order, the one
        `normal_form` applies; an empty list means no lead starts at or
        after ``start``.  This is the string-word view of the scan that
        `normal_form` runs on letter codes.
        """
        hit = self._leftmost(self._encode(word), start)
        return [] if hit is None else [(hit[0], self.rules[hit[1]])]

    def poly(self, letters, coeff=1) -> NCPoly:
        """coeff·letters, with coeff scaled into the system's scalars."""
        return NCPoly({tuple(letters): coeff * self.one})


def _minus(a, b) -> tuple:
    return tuple(map(sub, a, b))


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
    return Rule(lead, NCPoly(rhs))


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
            rules.append(Rule((ki, kinv), NCPoly({(): one})))
            rules.append(Rule((kinv, ki), NCPoly({(): one})))
    for j in range(n):
        for i in range(n):
            rhs = {(E[i], F[j]): one}
            if i == j:
                rhs.update((w, -c) for w, c in _bracket(mode, d, i).items())
            rules.append(Rule((F[j], E[i]), NCPoly(rhs)))
    for i in range(n):
        for j in range(n):
            # classically h moves past E_j by a shift a_ij, in quantum mode K^±1 by q^{±d_i a_ij}
            for k, s in zip(cartan[i], (1, -1)):
                scale, shift = (one, C[i, j]) if mode == "classical" else (q_power(s * d[i] * C[i, j]), 0)
                rules.append(Rule((k, E[j]), NCPoly({(E[j], k): scale, (E[j],): shift})))
                rules.append(Rule((F[j], k), NCPoly({(k, F[j]): scale, (F[j],): shift})))
    for i in range(n):
        for j in range(i):
            for hi in cartan[i]:
                for lo in cartan[j]:
                    rules.append(Rule((hi, lo), NCPoly({(lo, hi): one})))
    # disconnected E's (and F's) commute outright; connected ones reduce by Serre
    for i in range(n):
        for j in range(i):
            if C[i, j] == 0:
                for X in (E, F):
                    rules.append(Rule((X[i], X[j]), NCPoly({(X[j], X[i]): one})))
    for i in range(n):
        for j in range(n):
            if i != j and C[i, j] < 0:
                for window in _serre_windows((E, F), i, j, 1 - C[i, j], None if d is None else d[i]):
                    rules.append(_serre_rule(window, i > j))
    return RewriteSystem(mode, C, d, rules)


# -- reduction ----------------------------------------------------------------


_STEP_LIMIT = 200_000  # a tripwire: every rule lowers the order, so reductions end


def normal_form(p: NCPoly, R: RewriteSystem) -> NCPoly:
    """Reduce until no rule applies to any word.

    Always reduces the leftmost redex of the largest remaining word, ties at
    one position broken by rule construction order.  Every rule decreases
    the term order, so this terminates; past `_STEP_LIMIT` steps it raises
    an error that carries the tail of the reduction trace.

    The words are straightened as letter codes (`RewriteSystem._encode`) and
    decoded once at the end.  A quantum system straightens in the rescaled
    basis (see the module docstring): each word w of the input is lifted to
    the largest E-content ``ref`` present, as c_w·β^{ref − e(w)}, and each
    word of the result whose E-content is not ``ref`` is divided back by
    β^{ref − e(w)}.  The steps are the ones the rules as written take.
    """
    terms = {R._encode(w): c for w, c in p.terms.items()}
    if not (R._changing and terms):
        coded = _reduce(terms, R)
    else:
        # lift every word to the largest E-content present, straighten, divide back
        contents = {w: R._e_content(w) for w in terms}
        ref = tuple(map(max, zip(*contents.values())))
        for w, e in contents.items():
            if e != ref:
                terms[w] = terms[w] * R._beta_power(_minus(ref, e))
        coded = R._unscale(_reduce(terms, R), ref)
    return NCPoly({R._decode(w): c for w, c in coded.items()})


def _reduce(terms: dict, R: RewriteSystem) -> dict:
    """`normal_form` on a {coded word: coefficient} map, returned the same way.

    Each popped live word costs one `R._leftmost` scan, which starts at a
    hint.  Rewriting ``head + lead + tail`` at its leftmost redex ``pos``
    gives words ``head + w + tail``.  A redex of such a word that starts
    before ``pos - (L - 1)``, with L the longest lead, ends before ``pos``,
    so it lies inside ``head`` and would have been a redex of the rewritten
    word left of ``pos``; there was none.  So each hint is a fact about the
    word itself, whichever arrival gave it, and `hints` keeps the largest.

    The coefficients are those of ``R._coded_rules``, so a quantum system
    reduces in the rescaled basis on Laurent coefficients, and the caller
    divides the result back.
    """
    scan, coded = R._leftmost, R._coded_rules
    back = R._lead_lengths[-1] - 1 if R._lead_lengths else 0
    work = dict(terms)
    hints = {}  # word -> a position before which it holds no redex
    heap = [(-len(word), word) for word in work]
    heapify(heap)
    done = {}
    steps = 0
    trace = deque(maxlen=12)
    while heap:
        word = heappop(heap)[1]
        coeff = work.pop(word, None)
        if coeff is None:
            continue  # cancelled since it was pushed
        hit = scan(word, hints.pop(word, 0))
        if hit is None:
            # every rule lowers the order and the largest word pops first, so
            # a popped word never comes back: this is its only arrival
            done[word] = coeff
            continue
        steps += 1
        pos, index = hit
        trace.append((word, pos, index))
        if steps > _STEP_LIMIT:
            raise RewriteLimitError(
                steps,
                [f"{word_str(R._decode(w))} at {i} via {word_str(R.rules[r].lead)}" for w, i, r in trace],
            )
        lead, rhs = coded[index]
        head, tail = word[:pos], word[pos + len(lead) :]
        hint = pos - back
        for w, c in rhs:
            nw = head + w + tail
            prev = work.get(nw)
            s = coeff * c if prev is None else prev + coeff * c
            if s:
                if prev is None:
                    heappush(heap, (-len(nw), nw))
                work[nw] = s
            else:
                work.pop(nw, None)
            if hint > hints.get(nw, 0):
                hints[nw] = hint
    return done


# -- local confluence ---------------------------------------------------------


@dataclass(frozen=True)
class Ambiguity:
    """One overlap word with its two one-step reducts chased to normal form.

    ``left`` and ``right`` name the rule applied first on each side;
    ``nf_left`` and ``nf_right`` are the two normal forms as NCPoly, which
    the report renders only for an unresolved ambiguity.  ``how`` says how
    they were found: "chased" by `normal_form`, or taken from the
    "transport" certificate of `check_local_confluence`.  It takes no part
    in equality, since both ways give the same fields.
    """

    word: tuple
    left: str
    right: str
    nf_left: NCPoly
    nf_right: NCPoly
    resolved: bool
    how: str = field(default="chased", compare=False)

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


def _apply_at(word, pos, rule) -> dict:
    """One rewrite of a coded word by a coded rule, as {coded word: coefficient}."""
    lead, rhs = rule
    head, tail = word[:pos], word[pos + len(lead) :]
    return {head + w + tail: c for w, c in rhs}


def _movers(R: RewriteSystem) -> dict:
    """The transport movers of R: (x, right) -> (λ, κ) over coded letters.

    A right mover x passes a letter a when the only rule on x·a is
    x·a → λ_a·a·x + κ_a·a, a left mover when the only rule on a·x is
    a·x → λ_a·x·a + κ_a·a; its alphabet A_x is every letter it passes, the
    keys of λ, and κ keeps only the nonzero shifts.  λ and κ are read off
    the rules as written, not off the rescaled ones that `_reduce` runs on.
    A mover is kept when no other lead over A_x ∪ {x} holds x and every
    rule over A_x rewrites to words over A_x.  Only the few rules whose right side brings in a
    letter their lead lacks (the pairings F_i·E_i) can leave A_x, so the
    cost is a pass over the leads and one over the rules, plus those few
    rules once per mover.
    """
    by_lead, coded, encode = R._by_lead, R._coded_rules, R._encode
    movers = {}
    for lead, hits in by_lead.items():
        if len(lead) != 2 or len(hits) != 1 or lead[0] == lead[1]:
            continue
        rhs = {encode(w): c for w, c in R.rules[hits[0]].rhs.terms.items()}
        scale = rhs.pop(lead[::-1], 0)
        # x·a -> λ·a·x + κ·a moves x right past a; a·x -> λ·x·a + κ·a moves x left
        for x, a, right in ((lead[0], lead[1], True), (lead[1], lead[0], False)):
            shift = rhs.get((a,), 0)
            if scale and len(rhs) == (1 if shift else 0):
                lam, kap = movers.setdefault((x, right), ({}, {}))
                lam[a] = scale
                if shift:
                    kap[a] = shift
    dropped = set()
    for lead in by_lead:
        for x in set(lead):
            for right in (True, False):
                mover = movers.get((x, right))
                own = len(lead) == 2 and lead[not right] == x != lead[right]
                if mover and not own and all(a == x or a in mover[0] for a in lead):
                    dropped.add((x, right))
    brought = []  # (lead letters, letters its right side adds)
    for lead, rhs in coded:
        extra = {a for w, _ in rhs for a in w}.difference(lead)
        if extra:
            brought.append((set(lead), extra))
    for key, (lam, _) in movers.items():
        if any(inside <= lam.keys() and not extra <= lam.keys() for inside, extra in brought):
            dropped.add(key)
    return {key: mover for key, mover in movers.items() if key not in dropped}


def check_local_confluence(R: RewriteSystem, degree_bound: int) -> ConfluenceReport:
    """Resolve every rule overlap of total degree up to the bound.

    Covers proper overlaps (a suffix of one lead is a prefix of the other),
    containments (one lead inside the other) and each pair of distinct rules
    on one lead, counted once at position 0.  Each ambiguity is reduced both
    ways and chased to normal form.  Unresolved ambiguities land in the
    report rather than raising: they are the finding.  Words, rules and
    normal forms are handled as letter codes and decoded for the report.
    A quantum chase runs in the rescaled basis of the module docstring, and
    each side's normal form is divided back relative to the overlap word.

    Overlaps that a letter moves through are certified instead of chased;
    ``how`` on each ambiguity says which way it went.  The certificate
    gives the very normal forms the chase would return, resolved or not,
    and decides with plain ``if``s.

    *Transport.*  A Cartan letter acts on each Borel half by an
    automorphism or a shift, so it passes through every rule of that half
    (the diamond lemma for algebras of solvable type).  A *mover* (see
    `_movers`) is a letter x with an alphabet A_x of letters it passes,
    each a by the only rule on x·a, x·a → λ_a·a·x + κ_a·a (a right mover,
    as K_i or H_i past the E's), or by the only rule on a·x,
    a·x → λ_a·x·a + κ_a·a (a left mover, as K_i or H_i past the F's and
    E_j past the K's); no other lead over A_x ∪ {x} holds x, and every rule
    over A_x rewrites to words over A_x.  For a word u over A_x let
    χ(u) = Π λ_{u_j} and δ(u) = Σ_j κ_{u_j}·Π_{i<j} λ_{u_i} (i > j for a
    left mover).  The overlap x·L of a right mover with the lead L of a
    rule r over A_x is settled when r is the first rule at position 0 of L,
    L without its last letter is irreducible, and every word w of r's
    right side has the lead's (χ, δ) and is irreducible without its last
    letter.  Then both sides normalise to

        χ(L)·N(rhs r)·x + δ(L)·N(rhs r),

    and the overlap L·x of a left mover, under the same conditions but with
    every w irreducible, to χ(L)·x·N(rhs r) + δ(L)·N(rhs r).  Proof: x's
    move is always the leftmost redex, since the letters on its near side
    form an irreducible word and every lead that holds x is a mover lead;
    rewriting inside an A_x-word never meets x, so N(t·x) = N(t)·x and
    N(x·t) = x·N(t); and N, which takes one fixed redex in each word, is
    linear.  So the side that moves x first gives χ(L)·N(L)·x + δ(L)·N(L),
    with N(L) = N(rhs r) as r is the first rule on L, and the side that
    applies r gives Σ c_w·(χ(w)·N(w)·x + δ(w)·N(w)), the same sum.  N(rhs r)
    is straightened once per rule within one check, and a quantum check
    divides it back relative to L once; λ and κ are those of the rules as
    written.  A letter that commutes with others up to a scalar is a mover
    with κ = 0, so three pairwise commuting letters x_c·x_b·x_a are settled
    this way too: the commutation case of the diamond lemma, as in
    Cartier–Foata.
    """
    if degree_bound < 2:
        raise ValueError("degree bound below any two rule leads")
    reduce, scan, decode, coded = _reduce, R._leftmost, R._decode, R._coded_rules
    found = []
    movers = _movers(R)
    rule_facts = {}  # rule index -> `transportable`

    def transportable(r):
        """(r passes a right mover, r passes a left mover, N(rhs r) unscaled), as far
        as r itself decides: its lead is its first redex and irreducible
        without its last letter, and its right side's words are irreducible
        without their last letter (right) or whole (left)."""
        if r not in rule_facts:
            lead, rhs = coded[r]
            ok = scan(lead) == (0, r) and scan(lead[:-1]) is None
            normal = reduce(dict(rhs), R) if ok else None
            if ok and R._changing:
                normal = R._unscale(normal, R._e_content(lead))
            rule_facts[r] = (
                ok and all(scan(w[:-1]) is None for w, _ in rhs),
                ok and all(scan(w) is None for w, _ in rhs),
                normal,
            )
        return rule_facts[r]

    def weight(word, lam, kap, right):
        """(χ, δ) of a word over a mover's alphabet."""
        chi, delta = R.one, 0
        for a in word if right else reversed(word):
            shift = kap.get(a)
            if shift:
                delta = delta + shift * chi
            chi = chi * lam[a]
        return chi, delta

    def transported(word, i1, pos2, i2):
        """The normal form of both sides of a mover overlap x·L or L·x, or None,
        in the basis of the E_i."""
        l1, l2 = coded[i1][0], coded[i2][0]
        shapes = []
        if len(l1) == 2 and pos2 == 1 and word[1:] == l2:
            shapes.append((l1[0], l1[1], True, i2))  # x·L: x's move at 0, r on L at 1
        if len(l2) == 2 and word[:-1] == l1:
            shapes.append((l2[1], l2[0], False, i1))  # L·x: r on L at 0, x's move last
        for x, a, right, r in shapes:
            lam, kap = movers.get((x, right), ({}, None))
            lead, rhs = coded[r]
            if a not in lam or not lam.keys() >= set(lead):
                continue
            right_words, left_words, normal = transportable(r)
            if not (right_words if right else left_words):
                continue
            chi, delta = weight(lead, lam, kap, right)
            if any(weight(w, lam, kap, right) != (chi, delta) for w, _ in rhs):
                continue
            nf = {(s + (x,) if right else (x,) + s): chi * c for s, c in normal.items()}
            if delta:
                nf.update((s, delta * c) for s, c in normal.items())
            return nf
        return None

    def chase(word, i1, pos2, i2):
        how, nf1 = "transport", transported(word, i1, pos2, i2)
        nf2 = nf1
        if nf1 is None:
            how = "chased"
            nf1 = reduce(_apply_at(word, 0, coded[i1]), R)
            nf2 = reduce(_apply_at(word, pos2, coded[i2]), R)
            if nf1 == nf2:
                nf2 = nf1  # one normal form, unscaled and decoded once
            if R._changing:
                ref = R._e_content(word)
                same, nf1 = nf2 is nf1, R._unscale(nf1, ref)
                nf2 = nf1 if same else R._unscale(nf2, ref)
        resolved = nf2 is nf1
        left = NCPoly({decode(w): c for w, c in nf1.items()})
        right = left if resolved else NCPoly({decode(w): c for w, c in nf2.items()})
        l1, l2 = R.rules[i1].lead, R.rules[i2].lead
        found.append(
            Ambiguity(
                l1 + l2[len(l1) - pos2 :],
                f"{word_str(l1)} at 0",
                f"{word_str(l2)} at {pos2}",
                left,
                right,
                resolved,
                how,
            )
        )

    by_first = {}
    for index, (lead, _) in enumerate(coded):
        by_first.setdefault(lead[0], []).append(index)
    for i1, (l1, _) in enumerate(coded):
        # a lead that overlaps l1 or sits inside it starts with a letter of l1
        partners = sorted({index for letter in set(l1) for index in by_first.get(letter, ())})
        for index in partners:
            l2 = coded[index][0]
            for k in range(1, min(len(l1), len(l2))):
                if l1[len(l1) - k :] == l2[:k]:
                    word = l1 + l2[k:]
                    if len(word) <= degree_bound:
                        chase(word, i1, len(l1) - k, index)
            if len(l1) <= degree_bound and (len(l2) < len(l1) or (l2 == l1 and index > i1)):
                for pos in range(len(l1) - len(l2) + 1):
                    if l1[pos : pos + len(l2)] == l2:
                        chase(l1, i1, pos, index)
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
