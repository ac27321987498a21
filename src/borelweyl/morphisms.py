"""Presentations by generators and relations, and verified maps into skew models.

The algebras in play (Borel halves of a Kac-Moody algebra, Weyl algebras,
their quantum versions) are stored as plain relation lists over a free
algebra: each relation is a finite sum of scalar * word.  A generator
assignment sends every generator to a skew-model element, and `verify`
pushes each relation through the assignment and records the residual.
Over ℚ it runs on packed integer polynomials, by Horner on the last letter:
once per run each image is split into an integer image over one
denominator, each coefficient becomes a map from integer keys, one
exponent vector each, to integers, and the words that end in the same
generator share one right product by its image.  Over ℚ(q) every image is
one monomial c·K^a·t^m, so every word is a q-power times one monomial and a
relation sums integer Laurent polynomials in q, one per monomial, by the
quantum model's one product rule (`skew._MonomialImages`).  Either
way a relation is satisfied exactly when its sum is empty, and only a
nonzero residual becomes `MLaurent`s; there is no tolerance anywhere.

Classical and quantum, upper and lower presentations share their pieces:
`_serre_windows` writes out every Serre window (the rewriting rules of
`biproduct` orient the same windows), one `_ClassicalSide` row per Borel
half drives both its assignment and its recovery, and `weyl` and
`quantum_weyl` fill one template that differs only in the pairing relation.

Verification never inverts a model element.  The inversion happens
afterwards, in a recovery phase that re-expresses the model's own
generators (torus units, coefficient generators) inside the localized
image.  Each assignment carries its own recovery, which its builder hands
over, and the recovery lists every inversion it makes in a list that
`verify` owns and puts in the report.  `birational_witness` factors that
list into the expected multiplicative set: shifted b's, the h generators,
and torus units, asking the classical datum (`ClassicalDatum.find_shift`)
which sigma-shift of which b a denominator is.  Anything else is flagged.
Recovery checks raise RecoveryError, not assert, so they also run under
python -O.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, combinations
from math import comb, lcm, prod
from operator import add, lshift

from .cartan import CartanAux, _inverse
from .datum import ClassicalDatum, QuantumDatum, _directions
from .exact import MLaurent, QQ_ONE, q_binom, q_power
from .exact.laurent import _accumulate
from .skew import ModelContext, SkewElem, _MonomialImages

__all__ = [
    "RecoveryError",
    "Relation",
    "Presentation",
    "GeneratorAssignment",
    "RelationResult",
    "VerificationReport",
    "OrientationChoice",
    "WitnessEntry",
    "OreWitness",
    "weyl",
    "quantum_weyl",
    "classical_borel_assignment",
    "weyl_assignment",
    "quantum_weyl_assignment",
    "fix_orientation",
    "verify",
    "birational_witness",
    "reflect",
]


# -- presentations -------------------------------------------------------------


@dataclass(frozen=True)
class Relation:
    """One defining relation: sum of coeff * word, understood as = 0."""

    name: str
    family: str  # commute | weight | serre | pairing | central | unit
    terms: tuple  # ((coeff, (symbol, ...)), ...)


@dataclass(frozen=True, eq=False)
class Presentation:
    name: str
    generators: tuple
    relations: tuple

    def __post_init__(self):
        declared = set(self.generators)
        for rel in self.relations:
            for _, word in rel.terms:
                for sym in word:
                    if sym not in declared:
                        raise ValueError(f"relation {rel.name!r} uses undeclared {sym!r}")

    def by_family(self, family: str) -> tuple:
        return tuple(r for r in self.relations if r.family == family)


def _unit_relations(pairs, one):
    rels = []
    for g, ginv in pairs:
        rels.append(Relation(f"{g}*{ginv} = 1", "unit", ((one, (g, ginv)), (-one, ()))))
        rels.append(Relation(f"{ginv}*{g} = 1", "unit", ((one, (ginv, g)), (-one, ()))))
    return rels


def _commutator_terms(a, b, one):
    return ((one, (a, b)), (-one, (b, a)))


def _commute_relations(symbols, one, skip=()) -> list:
    """[s,t] = 0 for every pair of symbols in order, except the pairs in skip."""
    skip = {frozenset(p) for p in skip}
    return [
        Relation(f"[{s},{t}] = 0", "commute", _commutator_terms(s, t, one))
        for s, t in combinations(symbols, 2)
        if frozenset((s, t)) not in skip
    ]


def _q_commutation(a, b, e, family) -> Relation:
    """a·b = q^e·b·a."""
    return Relation(f"{a}{b} = q^{e}*{b}{a}", family, ((QQ_ONE, (a, b)), (-q_power(e), (b, a))))


def _serre_windows(families, i: int, j: int, m: int, d) -> list:
    """For each family X of symbols, the Serre window ((c_k, X_i^{m-k}·X_j·X_i^k) for k = 0..m).

    c_k is (-1)^k·binom(m, k), an int, or (-1)^k times the
    balanced q-binomial at q^d when d is not None; the families share one
    computation of them.  Every Serre word in the package, relation or
    rewriting rule, is written out here.
    """
    coeffs = [comb(m, k) if d is None else q_binom(m, k, d) for k in range(m + 1)]
    return [
        tuple((-c if k % 2 else c, (X[i],) * (m - k) + (X[j],) + (X[i],) * k) for k, c in enumerate(coeffs))
        for X in families
    ]


def _serre_relations(C, X, ad: str, d) -> list:
    """ad(X_i)^{1-a_ij}(X_j) = 0 for every i != j, q-binomials at q^{d_i} when d is not None."""
    rels = []
    for i in range(C.n):
        for j in range(C.n):
            if i != j:
                m = 1 - C[i, j]
                (window,) = _serre_windows([X], i, j, m, None if d is None else d[i])
                rels.append(Relation(f"{ad}({X[i]})^{m}({X[j]}) = 0", "serre", window))
    return rels


def _borel(C, letter: str, weight_sign: int) -> Presentation:
    """H_i and the letter's generators: [H_i, X_j] = weight_sign·a_ij·X_j plus Serre."""
    n = C.n
    H = [f"H{i + 1}" for i in range(n)]
    X = [f"{letter}{i + 1}" for i in range(n)]
    one = 1
    rels = _commute_relations(H, one)
    for i in range(n):
        for j in range(n):
            a = weight_sign * C[i, j]
            rels.append(
                Relation(
                    f"[{H[i]},{X[j]}] = {a}*{X[j]}",
                    "weight",
                    _commutator_terms(H[i], X[j], one) + ((-a, (X[j],)),),
                )
            )
    rels += _serre_relations(C, X, "ad", None)
    side = "upper" if letter == "E" else "lower"
    return Presentation(f"{side} Borel, rank {n}", tuple(H + X), tuple(rels))


def _weyl(m, n, central, one, pairing, stem) -> Presentation:
    """Commuting x's and commuting y's, pairing(i, j, x_i, y_j) for every pair,
    and `central` generators z_c commuting with everything."""
    xs = [f"x{i + 1}" for i in range(m)]
    ys = [f"y{j + 1}" for j in range(n)]
    zs = [f"z{c + 1}" for c in range(central)]
    rels = _commute_relations(xs, one) + _commute_relations(ys, one)
    for i in range(m):
        for j in range(n):
            rels.append(pairing(i, j, xs[i], ys[j]))
    for c in range(central):
        for other in xs + ys + zs[c + 1 :]:
            rels.append(Relation(f"[{zs[c]},{other}] = 0", "central", _commutator_terms(zs[c], other, one)))
    name = f"{stem}({m},{n})" + (f" + {central} central" if central else "")
    return Presentation(name, tuple(xs + ys + zs), tuple(rels))


def weyl(m: int, n: int, central: int = 0) -> Presentation:
    """A_{m,n}: m raising and n lowering generators, [x_i, y_j] = delta_ij,
    optionally tensored with `central` commuting polynomial generators."""
    if m < 0 or n < m or central < 0:
        raise ValueError(f"need 0 <= m <= n and central >= 0, got ({m},{n},{central})")
    one = 1

    def pairing(i, j, x, y):
        delta = 1 if i == j else 0
        return Relation(f"[{x},{y}] = {delta}", "pairing", _commutator_terms(x, y, one) + ((-delta, ()),))

    return _weyl(m, n, central, one, pairing, "Weyl")


def quantum_weyl(m: int, n: int, g, central: int = 0) -> Presentation:
    """q-Weyl algebra: y_j x_i = q^{g_i delta_ij} x_i y_j, x's and y's commute
    among themselves, plus optional central generators."""
    g = tuple(int(x) for x in g)
    if m < 0 or n < m or central < 0 or len(g) != m:
        raise ValueError(f"need 0 <= m <= n, len(g) == m, central >= 0")
    if any(x <= 0 for x in g):
        raise ValueError(f"scaling exponents must be positive, got {g}")

    def pairing(i, j, x, y):
        return _q_commutation(y, x, g[i] if i == j else 0, "pairing")

    return _weyl(m, n, central, QQ_ONE, pairing, "qWeyl")


def _quantum_borel(aux: CartanAux, letter: str, weight_sign: int) -> Presentation:
    C, d, n = aux.matrix, aux.d, aux.matrix.n
    K = [f"K{i + 1}" for i in range(n)]
    Kinv = [f"K{i + 1}^-1" for i in range(n)]
    X = [f"{letter}{i + 1}" for i in range(n)]
    pairs = tuple(zip(K, Kinv))
    torus = [s for p in pairs for s in p]
    rels = _commute_relations(torus, QQ_ONE, skip=pairs) + _unit_relations(pairs, QQ_ONE)
    for i in range(n):
        for j in range(n):
            e = weight_sign * d[i] * C[i, j]
            rels.append(_q_commutation(X[j], K[i], e, "weight"))
            rels.append(_q_commutation(X[j], Kinv[i], -e, "weight"))
    rels += _serre_relations(C, X, "ad_q", d)
    side = "upper" if letter == "E" else "lower"
    return Presentation(f"quantum {side} Borel, rank {n}", tuple(torus + X), tuple(rels))


# -- assignments ---------------------------------------------------------------


@dataclass(eq=False)
class GeneratorAssignment:
    presentation: Presentation
    context: ModelContext
    images: dict  # symbol -> SkewElem
    recover: object  # recover(assignment, inverted) -> recovered elements; see `verify`
    datum: object = None  # ClassicalDatum | QuantumDatum
    conventions: tuple = ()

    def __post_init__(self):
        missing = [g for g in self.presentation.generators if g not in self.images]
        if missing:
            raise ValueError(f"unassigned generators: {missing}")


def reflect(f: MLaurent) -> MLaurent:
    """Negate every variable: the coefficient pick-up is (-1)^total degree."""
    return MLaurent(f.n, {e: c * (-1) ** (sum(e) % 2) for e, c in f.terms.items()})


def _unit_vec(n, i, sign=1):
    return tuple(sign if k == i else 0 for k in range(n))


@dataclass(frozen=True)
class _ClassicalSide:
    """One Borel half in the classical model: X_i -> c_i·t_i^sign."""

    letter: str
    sign: int  # torus sign s; the weight relations carry -s
    reflected: bool  # c_i is reflect(b_i) rather than b_i
    stem: str  # recovered coefficients are named stem1, stem2, ...
    convention: str

    def coeff(self, b: MLaurent) -> MLaurent:
        return reflect(b) if self.reflected else b


_CLASSICAL_SIDES = {
    "upper": _ClassicalSide(
        "E", -1, False, "b",
        "upper coefficients are the datum b_i, paired with t_i^-1",
    ),
    "lower": _ClassicalSide(
        "F", 1, True, "bbar",
        "lower coefficients are the variable-negation of b_i, paired with t_i",
    ),
}


def classical_borel_assignment(datum: ClassicalDatum, side: str = "upper") -> GeneratorAssignment:
    """H_i -> h_i and E_i -> b_i t_i^{-1} (upper), or F_i -> reflected-b_i t_i (lower)."""
    if side not in _CLASSICAL_SIDES:
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    spec = _CLASSICAL_SIDES[side]
    ctx = datum.context
    n = ctx.n
    images = {f"H{i + 1}": SkewElem.from_coeff(ctx, ctx.coeff_var(i)) for i in range(n)}
    for i in range(n):
        c = spec.coeff(datum.b[i])
        images[f"{spec.letter}{i + 1}"] = SkewElem.monomial(ctx, c, _unit_vec(n, i, spec.sign))
    pres = _borel(datum.aux.matrix, spec.letter, -spec.sign)
    return GeneratorAssignment(
        pres, ctx, images, partial(_recover_classical_borel, spec), datum, (spec.convention,)
    )


def _weyl_images(ctx, aux, coeffs, sign) -> dict:
    """x_i -> c_i t^{-m_i} and y_i -> sign·t^{m_i} along the directions m of
    the dual pairs; past the rank the raisers are the central z's."""
    r = aux.rank
    images = {}
    for k, m in enumerate(_directions(aux)):
        raiser = f"x{k + 1}" if k < r else f"z{k - r + 1}"
        images[raiser] = SkewElem.monomial(ctx, coeffs[k], tuple(-v for v in m))
        images[f"y{k + 1}"] = SkewElem.monomial(ctx, ctx.coeff_scalar(sign), m)
    return images


def weyl_assignment(datum: ClassicalDatum) -> GeneratorAssignment:
    """x_i -> alpha_i t^{-m_i}, y_j -> -t^{m_j}, central z_c -> gamma_c t^{-m_c};
    the directions m are the dual-pairing ones, completed by the torus complement."""
    ctx = datum.context
    aux = datum.aux
    pres = weyl(aux.rank, ctx.n, central=aux.corank)
    images = _weyl_images(ctx, aux, datum.alpha, -1)
    conv = ("lowering generators map to negated torus monomials",)
    if aux.corank:
        conv = conv + (
            "NOTE: beyond the first %d oscillators the pairing runs along combined "
            "torus directions, not single coordinates; the central images are the "
            "invariant coefficients on those directions" % aux.rank,
        )
    return GeneratorAssignment(pres, ctx, images, _recover_weyl, datum, conv)


def _oriented_image(qdatum: QuantumDatum, i: int, sign: int) -> SkewElem:
    ctx = qdatum.context
    return SkewElem.monomial(ctx, qdatum.b[i], _unit_vec(ctx.n, i, sign))


@dataclass(frozen=True)
class OrientationChoice:
    signs: tuple  # chosen sign per E/F generator, None where nothing worked
    passed: bool
    detail: tuple  # one line per generator; failures carry both residuals


def fix_orientation(qdatum: QuantumDatum, side: str = "upper"):
    """Search t^{+1} vs t^{-1} per raising/lowering generator against the
    weight relations, and build the assignment K_i -> K_i, K_i^-1 -> K_i^-1,
    E_i (upper) or F_i (lower) -> b_i t_i^{s_i} with the surviving signs.

    Returns (assignment, choice); assignment is None unless exactly one sign
    passes for every generator (choice.detail then holds both residuals).
    """
    ctx = qdatum.context
    n = ctx.n
    letter = "E" if side == "upper" else "F"
    pres = _quantum_borel(qdatum.aux, letter, -1 if side == "upper" else 1)
    images = {}
    for i in range(n):
        images[f"K{i + 1}"] = SkewElem.from_coeff(ctx, ctx.coeff_var(i))
        images[f"K{i + 1}^-1"] = SkewElem.from_coeff(ctx, ctx.coeff_var(i, -1))
    weight = pres.by_family("weight")
    ring = _MonomialImages(ctx, images)
    signs, detail = [], []
    for j in range(n):
        sym = f"{letter}{j + 1}"
        mine = [r for r in weight if any(sym in word for _, word in r.terms)]
        outcomes = {}
        for s in (1, -1):
            ring.assign(sym, _oriented_image(qdatum, j, s))
            outcomes[s] = [res for r in mine if (res := ring.evaluate(r.terms))]
        good = [s for s, bad in outcomes.items() if not bad]
        if len(good) == 1:
            signs.append(good[0])
            detail.append(f"{sym}: t^{good[0]:+d} (the other sign fails {len(outcomes[-good[0]])} weight relations)")
        else:
            signs.append(None)
            both = "; ".join(
                f"t^{s:+d} residual {bad[0].to_str(ctx.names) if bad else 0}" for s, bad in outcomes.items()
            )
            detail.append(f"{sym}: no sign works ({both})")
    choice = OrientationChoice(tuple(signs), None not in signs, tuple(detail))
    if not choice.passed:
        return None, choice
    for i, s in enumerate(signs):
        images[f"{letter}{i + 1}"] = _oriented_image(qdatum, i, s)
    conv = tuple(f"orientation {letter}{i + 1}: t^{s:+d}" for i, s in enumerate(signs))
    return GeneratorAssignment(pres, ctx, images, partial(_recover_quantum_borel, letter), qdatum, conv), choice


def quantum_weyl_assignment(qdatum: QuantumDatum) -> GeneratorAssignment:
    """x_i -> omega_i t^{-m_i}, y_j -> t^{m_j}, central z_c -> omega_c t^{-m_c}."""
    ctx = qdatum.context
    n = ctx.n
    r = len(qdatum.g)
    pres = quantum_weyl(r, n, qdatum.g, central=n - r)
    images = _weyl_images(ctx, qdatum.aux, qdatum.omega, 1)
    return GeneratorAssignment(
        pres, ctx, images, _recover_quantum_weyl, qdatum, ("lowering generators map to plain torus monomials",)
    )


# -- evaluation and verification -------------------------------------------------


def _key_width(longest: int, degree: int) -> int:
    """Bits per packed exponent: 2^w − 1 ≥ longest·degree, the largest exponent
    a product of `longest` images of per-variable degree ≤ `degree` reaches."""
    return max((longest * degree).bit_length(), 1)


class _PackedImages:
    """The classical images of one run, packed: the ring `verify` evaluates on over ℚ.

    D_s times image s is an integer image S_s, D_s the lcm of the image's
    coefficient denominators, so Σ c_w·image(w) = (1/L)·Σ k_w·S_w with L the
    lcm of the D_w·den(c_w) and k_w = c_w·L/D_w an integer.  An element of
    the chain maps a torus exponent m to {key: int}, a coefficient c·h^e
    packed as the key Σ e_j·2^{w·j}.  A σ-shift keeps each per-variable
    degree, so no exponent of a product of images outgrows the w bits of
    `_key_width`, and adding two keys adds their exponent vectors with no
    carry.  σ^m of a generator coefficient is shifted and packed on first use.
    """

    def __init__(self, ctx: ModelContext, images: dict, polys):
        degree = 0
        self.dens = {}
        for sym, img in images.items():
            for f in img.terms.values():
                if not isinstance(f, MLaurent) or f.is_laurent() or not all(
                    isinstance(c, (int, Fraction)) for c in f.terms.values()
                ):
                    raise ValueError(f"the image of {sym} has a coefficient that is not a polynomial over ℚ")
                degree = max(degree, max(chain.from_iterable(f.terms), default=0))
            self.dens[sym] = lcm(*[c.denominator for f in img.terms.values() for c in f.terms.values()])
        w = _key_width(max((len(word) for terms in polys for _, word in terms), default=0), degree)
        self.ctx, self.images = ctx, images
        self.shifts = range(0, w * ctx.n, w)
        self.mask = (1 << w) - 1
        self.origin = (0,) * ctx.n
        self._shifted = {}  # (symbol, m) -> [(m', σ^m of the packed coefficient at t^{m'})]

    def shifted(self, sym, m) -> list:
        got = self._shifted.get((sym, m))
        if got is None:
            d = self.dens[sym]
            got = self._shifted[(sym, m)] = [
                (mp, [
                    (sum(map(lshift, e, self.shifts)), c.numerator * (d // c.denominator))
                    for e, c in self.ctx.apply_vec(m, f).terms.items()
                ])
                for mp, f in self.images[sym].terms.items()
            ]
        return got

    def times(self, acc: dict, sym) -> dict:
        """acc·S_sym by the twist rule (f·t^m)(g·t^{m'}) = f·σ^m(g)·t^{m+m'}."""
        out = {}
        for m, f in acc.items():
            for mp, g in self.shifted(sym, m):
                row = out.setdefault(tuple(map(add, m, mp)), {})
                get = row.get
                for kb, cb in g:
                    for ka, ca in f.items():
                        k = ka + kb
                        row[k] = get(k, 0) + ca * cb
        return out

    def _horner(self, terms) -> dict:
        """Σ k_w·S_w by Horner on the last letter, Σ k_{ux}·S_{ux} = (Σ k_{ux}·S_u)·S_x,
        so σ only ever shifts a generator's coefficient; a lone word is
        multiplied out and scaled once.  Cancelled coefficients are dropped."""
        parts, groups = [], {}
        for k, word in terms:
            if word:
                groups.setdefault(word[-1], []).append((k, word[:-1]))
            else:
                parts.append({self.origin: {0: k}})
        for last, group in groups.items():
            if len(group) == 1:
                (k, prefix), = group
                word = prefix + (last,)
                cur = {mp: dict(g) for mp, g in self.shifted(word[0], self.origin)}
                for sym in word[1:]:
                    cur = self.times(cur, sym)
                parts.append({m: {key: x * k for key, x in f.items()} for m, f in cur.items()})
            else:
                parts.append(self.times(self._horner(group), last))
        rows = {}
        for part in parts:
            for m, f in part.items():
                rows.setdefault(m, []).append(f)
        return {m: row for m, fs in rows.items() if (row := {k: c for k, c in _accumulate(fs).items() if c})}

    def evaluate(self, terms) -> SkewElem:
        """(1/L)·Σ k_w·S_w, unpacked only when the packed sum is nonzero."""
        word_dens = [c.denominator * prod(map(self.dens.__getitem__, word)) for c, word in terms]
        L = lcm(*word_dens)
        total = self._horner([(c.numerator * (L // den), word) for (c, word), den in zip(terms, word_dens)])
        if not total:  # the relation holds exactly when its packed sum is empty
            return SkewElem.zero(self.ctx)
        n, shifts, mask = self.ctx.n, self.shifts, self.mask
        return SkewElem(self.ctx, {
            m: MLaurent(n, {tuple([k >> s & mask for s in shifts]): c if L == 1 else Fraction(c, L) for k, c in f.items()})
            for m, f in total.items()
        })


def _prepare_images(ctx: ModelContext, images: dict, polys):
    """The images of one run, whose `evaluate` gives Σ c_w·image(w) for the
    polynomials `polys`: packed, by Horner on the last letter, over ℚ
    (`_PackedImages`), and monomial by monomial over ℚ(q) (`_MonomialImages`)."""
    return _PackedImages(ctx, images, polys) if ctx.kind == "classical" else _MonomialImages(ctx, images)


@dataclass(frozen=True)
class RelationResult:
    name: str
    family: str
    residual: SkewElem
    passed: bool
    residual_str: str

    def __str__(self):
        mark = "pass" if self.passed else "FAIL"
        tail = "" if self.passed else f"  residual: {self.residual_str}"
        return f"[{mark}] {self.name}{tail}"


@dataclass(eq=False)
class VerificationReport:
    assignment: GeneratorAssignment
    entries: tuple
    denominators: tuple  # (coefficient, torus exponent) pairs inverted during recovery, in order
    recovered: dict  # model elements re-expressed inside the localized image
    conventions: tuple

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def summary_lines(self) -> list:
        lines = [f"{self.assignment.presentation.name}: " + ("PASS" if self.passed else "FAIL")]
        lines.extend(str(e) for e in self.entries)
        return lines


def verify(assignment: GeneratorAssignment) -> VerificationReport:
    """Evaluate every relation, then run the assignment's own recovery.

    Recovery re-derives the model generators (torus units, coefficient
    generators) from the images, inverting only single-term elements.
    `verify` hands it an empty list `inverted`; each inversion that succeeds
    appends its (coefficient, torus exponent) pair (`_invert`), and the
    report's denominators are that list.  A recovery that aborts still
    reports what it inverted before the abort.
    """
    ctx = assignment.context
    relations = assignment.presentation.relations
    ring = _prepare_images(ctx, assignment.images, [rel.terms for rel in relations])
    entries = []
    for rel in relations:
        img = ring.evaluate(rel.terms)
        entries.append(RelationResult(rel.name, rel.family, img, not img, img.to_str(ctx.names)))
    inverted = []
    try:
        recovered = assignment.recover(assignment, inverted)
    except (ArithmeticError, ValueError) as exc:
        # corrupted images leave nothing coherent to invert; report, don't crash
        recovered = {}
        entries.append(RelationResult("recovery of the inverse map", "recovery", None, False, f"aborted: {exc}"))
    return VerificationReport(assignment, tuple(entries), tuple(inverted), recovered, assignment.conventions)


class RecoveryError(ValueError):
    """An image failed to give back the model generator it should recover.

    A ValueError, so `verify` reports it as a failed recovery entry."""


def _require(holds: bool, message: str):
    # a real check, not an assert: it must still run under python -O
    if not holds:
        raise RecoveryError(message)


def _invert(x: SkewElem, inverted: list) -> SkewElem:
    """x⁻¹, listing x's (coefficient, torus exponent) in `inverted` once the
    inversion has succeeded, so a failed inversion lists nothing."""
    x_inv = x.invert()
    ((m, f),) = x.terms.items()
    inverted.append((f, m))
    return x_inv


def _recover_classical_borel(spec: _ClassicalSide, assignment, inverted):
    ctx = assignment.context
    n = ctx.n
    out = {}
    for i in range(n):
        x_hat = assignment.images[f"{spec.letter}{i + 1}"]
        c = SkewElem.from_coeff(ctx, spec.coeff(assignment.datum.b[i]))
        x_inv = _invert(x_hat, inverted)  # lists (c_i, s·e_i)
        back = x_inv * c
        _require(back == SkewElem.torus(ctx, _unit_vec(n, i, -spec.sign)), "torus recovery failed")
        forth = _invert(back, inverted)  # lists a plain torus unit
        c_hat = x_hat * back
        _require(c_hat == c, "coefficient recovery failed")
        h_inv = _invert(assignment.images[f"H{i + 1}"], inverted)  # lists h_i
        out[f"t{i + 1}"], out[f"t{i + 1}^-1"] = (back, forth) if spec.sign < 0 else (forth, back)
        out[f"{spec.stem}{i + 1}"] = c_hat
        out[f"{ctx.names[i]}^-1"] = h_inv
    return out


def _weyl_slots(assignment, sign):
    """(k, m_k, raiser_k·t^{m_k}, t^{m_k}) for every direction m_k of the
    dual pairs; y_k is sign·t^{m_k}, and the raiser is x_k, or z_{k-r} past
    the rank r, so the product is the k-th coefficient of the datum."""
    aux = assignment.datum.aux
    images = assignment.images
    for k, m in enumerate(_directions(aux)):
        raiser = images[f"x{k + 1}"] if k < aux.rank else images[f"z{k - aux.rank + 1}"]
        t_m = images[f"y{k + 1}"].scale(sign)
        yield k, tuple(m), raiser * t_m, t_m


def _recover_weyl(assignment, inverted):
    ctx = assignment.context
    datum = assignment.datum
    out = {}
    coord_hats = []
    for k, m, coord, t_m in _weyl_slots(assignment, -1):
        _require(coord == SkewElem.from_coeff(ctx, datum.alpha[k]), "coordinate recovery failed")
        coord_hats.append(coord)
        out[f"t^{m}inv"] = _invert(t_m, inverted)  # lists a torus unit
    hcoords = _inverse(datum.aux.Q)
    for i in range(ctx.n):
        h_hat = SkewElem(ctx, _accumulate(coord.scale(c).terms for c, coord in zip(hcoords[i], coord_hats)))
        _require(h_hat == SkewElem.from_coeff(ctx, ctx.coeff_var(i)), "h recovery failed")
        out[ctx.names[i]] = h_hat
        out[f"{ctx.names[i]}^-1"] = _invert(h_hat, inverted)  # lists h_i
    return out


def _recover_quantum_borel(letter, assignment, inverted):
    ctx = assignment.context
    out = {}
    for i in range(ctx.n):
        x_hat = assignment.images[f"{letter}{i + 1}"]
        x_inv = _invert(x_hat, inverted)  # lists (K_i^{-1}, s e_i): a torus/K unit
        t_s = assignment.images[f"K{i + 1}"] * x_hat
        (m, f), = t_s.terms.items()
        _require(f == ctx.coeff_one(), "torus recovery failed")
        t_back = _invert(t_s, inverted)  # lists a plain torus unit
        out[f"t^{m}"] = t_s
        out[f"t^{m}inv"] = t_back
        out[f"{letter}{i + 1}^-1"] = x_inv
    return out


def _recover_quantum_weyl(assignment, inverted):
    ctx = assignment.context
    qdatum = assignment.datum
    out = {}
    for k, m, omega_hat, t_m in _weyl_slots(assignment, 1):
        _require(omega_hat == SkewElem.from_coeff(ctx, qdatum.omega[k]), "omega recovery failed")
        out[f"omega{k + 1}"] = omega_hat
        out[f"omega{k + 1}^-1"] = _invert(omega_hat, inverted)  # lists a K-monomial unit
        out[f"t^{m}inv"] = _invert(t_m, inverted)
    return out


# -- denominator factoring -------------------------------------------------------


@dataclass(frozen=True)
class WitnessEntry:
    coeff_str: str
    torus_exp: tuple
    kind: str  # torus-unit | h-generator | shifted-b | unrecognized
    detail: str


@dataclass(frozen=True)
class OreWitness:
    entries: tuple
    passed: bool

    @property
    def generators(self) -> tuple:
        """Distinct factored descriptions, e.g. ('b1', 'h1', 'torus unit')."""
        return tuple(sorted({e.detail for e in self.entries}))

    def flagged(self) -> tuple:
        return tuple(e for e in self.entries if e.kind == "unrecognized")


def _classify_classical(ctx, datum, f):
    """Torus unit, h generator, or the first sigma^v(b_j) of a classical datum
    that equals f (`ClassicalDatum.find_shift`)."""
    if isinstance(f, MLaurent) and f.is_const():
        return "torus-unit", "torus unit"
    for i in range(ctx.n):
        if f == ctx.coeff_var(i):
            return "h-generator", ctx.names[i]
    if isinstance(datum, ClassicalDatum) and isinstance(f, MLaurent):
        found = datum.find_shift(f)
        if found is not None:
            j, v = found
            return "shifted-b", f"b{j + 1}" if not any(v) else f"sigma^{v}(b{j + 1})"
    return "unrecognized", "unrecognized"


def birational_witness(report: VerificationReport) -> OreWitness:
    """Factor every inverted denominator into the multiplicative set generated
    by shifted b's, the h generators, and torus units; flag anything else."""
    ctx = report.assignment.context
    entries = []
    for coeff, m in report.denominators:
        if ctx.kind == "classical":
            kind, detail = _classify_classical(ctx, report.assignment.datum, coeff)
        else:
            kind, detail = ("torus-unit", "torus unit") if coeff.is_monomial() else ("unrecognized", "unrecognized")
        entries.append(WitnessEntry(coeff.to_str(ctx.names), tuple(m), kind, detail))
    return OreWitness(tuple(entries), all(e.kind != "unrecognized" for e in entries))
