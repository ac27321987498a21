"""Presentations by generators and relations, and verified maps into skew models.

The algebras in play (Borel halves of a Kac-Moody algebra, Weyl algebras,
their quantum versions) are stored as plain relation lists over a free
algebra: each relation is a finite sum of scalar * word.  A generator
assignment sends every generator to a skew-model element, and `verify`
pushes each relation through the assignment and records the residual.
A relation is satisfied exactly when its residual is the zero element;
there is no tolerance anywhere.

Verification never divides.  The division happens afterwards, in a
recovery phase that re-expresses the model's own generators (torus units,
coefficient generators) inside the localized image.  Every inversion is
logged by the model context, and `birational_witness` factors the log
into the expected multiplicative set: shifted b's, the h generators, and
torus units.  Anything else is flagged.

A shift sigma^v moves h by A·v, so it fixes the top-degree part of b and
moves the next degree down linearly in v.  The witness reads those linear
equations off the denominator, walks the window of shifts in lexicographic
order while pruning every prefix that the equations already rule out, and
lets exact equality decide each remaining candidate.  Recovery checks raise
RecoveryError, not assert, so they also run under python -O.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .cartan import CartanMatrix, _eliminate, _inverse, symmetrize, validate_gcm
from .datum import ClassicalDatum, QuantumDatum
from .exact import MLaurent, QQ_ONE, q_binom, q_power
from .skew import ModelContext, SkewElem

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
    "borel_upper",
    "borel_lower",
    "weyl",
    "quantum_weyl",
    "quantum_borel_upper",
    "quantum_borel_lower",
    "classical_borel_assignment",
    "weyl_assignment",
    "quantum_borel_assignment",
    "quantum_weyl_assignment",
    "fix_orientation",
    "evaluate_word",
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
    inverse_pairs: tuple  # ((g, g_inverse), ...)
    relations: tuple
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        declared = set(self.generators)
        for g, ginv in self.inverse_pairs:
            if g not in declared or ginv not in declared:
                raise ValueError(f"inverse pair ({g},{ginv}) uses undeclared symbols")
        for rel in self.relations:
            for _, word in rel.terms:
                for sym in word:
                    if sym not in declared:
                        raise ValueError(f"relation {rel.name!r} uses undeclared {sym!r}")

    def by_family(self, family: str) -> tuple:
        return tuple(r for r in self.relations if r.family == family)


def _unit_relations(inverse_pairs, one):
    rels = []
    for g, ginv in inverse_pairs:
        rels.append(Relation(f"{g}*{ginv} = 1", "unit", ((one, (g, ginv)), (-one, ()))))
        rels.append(Relation(f"{ginv}*{g} = 1", "unit", ((one, (ginv, g)), (-one, ()))))
    return rels


def _commutator_terms(a, b, one):
    return ((one, (a, b)), (-one, (b, a)))


def _serre_terms(gi, gj, window, coeff_of):
    terms = []
    for k in range(window + 1):
        c = coeff_of(k)
        if k % 2:
            c = -c
        terms.append((c, (gi,) * (window - k) + (gj,) + (gi,) * k))
    return tuple(terms)


def _borel(C, letter: str, weight_sign: int) -> Presentation:
    """H_i and the letter's generators: [H_i, X_j] = weight_sign·a_ij·X_j plus Serre."""
    C = C if isinstance(C, CartanMatrix) else validate_gcm(C)
    n = C.n
    H = [f"H{i + 1}" for i in range(n)]
    X = [f"{letter}{i + 1}" for i in range(n)]
    one = Fraction(1)
    rels = []
    for i in range(n):
        for j in range(i + 1, n):
            rels.append(Relation(f"[{H[i]},{H[j]}] = 0", "commute", _commutator_terms(H[i], H[j], one)))
    for i in range(n):
        for j in range(n):
            a = weight_sign * C[i, j]
            rels.append(
                Relation(
                    f"[{H[i]},{X[j]}] = {a}*{X[j]}",
                    "weight",
                    _commutator_terms(H[i], X[j], one) + ((Fraction(-a), (X[j],)),),
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
                    _serre_terms(X[i], X[j], m, lambda k, m=m: Fraction(comb(m, k))),
                )
            )
    side = "upper" if letter == "E" else "lower"
    return Presentation(
        f"{side} Borel, rank {n}", tuple(H + X), (), tuple(rels), {"matrix": C}
    )


def borel_upper(C) -> Presentation:
    """H_i and E_i with the weight relations and the E-side Serre relations."""
    return _borel(C, "E", +1)


def borel_lower(C) -> Presentation:
    """H_i and F_i; the weight relations carry the opposite sign."""
    return _borel(C, "F", -1)


def weyl(m: int, n: int, central: int = 0) -> Presentation:
    """A_{m,n}: m raising and n lowering generators, [x_i, y_j] = delta_ij,
    optionally tensored with `central` commuting polynomial generators."""
    if m < 0 or n < m or central < 0:
        raise ValueError(f"need 0 <= m <= n and central >= 0, got ({m},{n},{central})")
    xs = [f"x{i + 1}" for i in range(m)]
    ys = [f"y{j + 1}" for j in range(n)]
    zs = [f"z{c + 1}" for c in range(central)]
    one = Fraction(1)
    rels = []
    for i in range(m):
        for k in range(i + 1, m):
            rels.append(Relation(f"[{xs[i]},{xs[k]}] = 0", "commute", _commutator_terms(xs[i], xs[k], one)))
    for j in range(n):
        for k in range(j + 1, n):
            rels.append(Relation(f"[{ys[j]},{ys[k]}] = 0", "commute", _commutator_terms(ys[j], ys[k], one)))
    for i in range(m):
        for j in range(n):
            delta = Fraction(1 if i == j else 0)
            rels.append(
                Relation(
                    f"[{xs[i]},{ys[j]}] = {delta}",
                    "pairing",
                    _commutator_terms(xs[i], ys[j], one) + ((-delta, ()),),
                )
            )
    for c in range(central):
        for other in xs + ys + zs[c + 1 :]:
            rels.append(Relation(f"[{zs[c]},{other}] = 0", "central", _commutator_terms(zs[c], other, one)))
    name = f"Weyl({m},{n})" + (f" + {central} central" if central else "")
    return Presentation(name, tuple(xs + ys + zs), (), tuple(rels), {"m": m, "n": n, "central": central})


def quantum_weyl(m: int, n: int, g, central: int = 0) -> Presentation:
    """q-Weyl algebra: y_j x_i = q^{g_i delta_ij} x_i y_j, x's and y's commute
    among themselves, plus optional central generators."""
    g = tuple(int(x) for x in g)
    if m < 0 or n < m or central < 0 or len(g) != m:
        raise ValueError(f"need 0 <= m <= n, len(g) == m, central >= 0")
    if any(x <= 0 for x in g):
        raise ValueError(f"scaling exponents must be positive, got {g}")
    xs = [f"x{i + 1}" for i in range(m)]
    ys = [f"y{j + 1}" for j in range(n)]
    zs = [f"z{c + 1}" for c in range(central)]
    one = QQ_ONE
    rels = []
    for i in range(m):
        for k in range(i + 1, m):
            rels.append(Relation(f"[{xs[i]},{xs[k]}] = 0", "commute", _commutator_terms(xs[i], xs[k], one)))
    for j in range(n):
        for k in range(j + 1, n):
            rels.append(Relation(f"[{ys[j]},{ys[k]}] = 0", "commute", _commutator_terms(ys[j], ys[k], one)))
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
            rels.append(Relation(f"[{zs[c]},{other}] = 0", "central", _commutator_terms(zs[c], other, one)))
    name = f"qWeyl({m},{n})" + (f" + {central} central" if central else "")
    return Presentation(
        name, tuple(xs + ys + zs), (), tuple(rels), {"m": m, "n": n, "g": g, "central": central}
    )


def _torus_commutes(symbols, inverse_pairs, one):
    paired = {frozenset(p) for p in inverse_pairs}
    rels = []
    for a in range(len(symbols)):
        for b in range(a + 1, len(symbols)):
            s, t = symbols[a], symbols[b]
            if frozenset((s, t)) in paired:
                continue
            rels.append(Relation(f"[{s},{t}] = 0", "commute", _commutator_terms(s, t, one)))
    return rels


def _quantum_borel(C, d, letter: str, weight_sign: int) -> Presentation:
    C = C if isinstance(C, CartanMatrix) else validate_gcm(C)
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
    rels = _torus_commutes(torus, pairs, one) + _unit_relations(pairs, one)
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
                    _serre_terms(X[i], X[j], m, lambda k, m=m, di=d[i]: q_binom(m, k, di)),
                )
            )
    side = "upper" if letter == "E" else "lower"
    return Presentation(
        f"quantum {side} Borel, rank {n}",
        tuple(torus + X),
        pairs,
        tuple(rels),
        {"matrix": C, "d": d},
    )


def quantum_borel_upper(C, d=None) -> Presentation:
    """K_i^{+-1} and E_i: E_j K_i = q^{-d_i a_ij} K_i E_j plus q-Serre."""
    return _quantum_borel(C, d, "E", -1)


def quantum_borel_lower(C, d=None) -> Presentation:
    """K_i^{+-1} and F_i: F_j K_i = q^{+d_i a_ij} K_i F_j plus q-Serre."""
    return _quantum_borel(C, d, "F", +1)


# -- assignments ---------------------------------------------------------------


@dataclass(eq=False)
class GeneratorAssignment:
    presentation: Presentation
    context: ModelContext
    images: dict  # symbol -> SkewElem
    kind: str  # classical-upper | classical-lower | weyl | quantum-upper | quantum-lower | quantum-weyl
    datum: object = None  # ClassicalDatum | QuantumDatum
    conventions: tuple = ()

    def __post_init__(self):
        missing = [g for g in self.presentation.generators if g not in self.images]
        if missing:
            raise ValueError(f"unassigned generators: {missing}")
        one = SkewElem.one(self.context)
        for g, ginv in self.presentation.inverse_pairs:
            if self.images[g] * self.images[ginv] != one or self.images[ginv] * self.images[g] != one:
                raise ValueError(f"images of {g} and {ginv} are not mutually inverse")


def reflect(f: MLaurent) -> MLaurent:
    """Negate every variable: the coefficient pick-up is (-1)^total degree."""
    return MLaurent(f.n, {e: c * (-1) ** (sum(e) % 2) for e, c in f.terms.items()})


def _unit_vec(n, i, sign=1):
    return tuple(sign if k == i else 0 for k in range(n))


def classical_borel_assignment(datum: ClassicalDatum, side: str = "upper") -> GeneratorAssignment:
    """H_i -> h_i and E_i -> b_i t_i^{-1} (upper), or F_i -> reflected-b_i t_i (lower)."""
    ctx = datum.context
    n = ctx.n
    C = datum.aux.matrix
    images = {f"H{i + 1}": SkewElem.from_coeff(ctx, ctx.coeff_var(i)) for i in range(n)}
    if side == "upper":
        pres = borel_upper(C)
        for i in range(n):
            images[f"E{i + 1}"] = SkewElem.monomial(ctx, ctx.lift(datum.b[i]), _unit_vec(n, i, -1))
        conv = ("upper coefficients are the datum b_i, paired with t_i^-1",)
        kind = "classical-upper"
    elif side == "lower":
        pres = borel_lower(C)
        for i in range(n):
            images[f"F{i + 1}"] = SkewElem.monomial(ctx, ctx.lift(reflect(datum.b[i])), _unit_vec(n, i))
        conv = ("lower coefficients are the variable-negation of b_i, paired with t_i",)
        kind = "classical-lower"
    else:
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    return GeneratorAssignment(pres, ctx, images, kind, datum, conv)


def weyl_assignment(datum: ClassicalDatum) -> GeneratorAssignment:
    """x_i -> alpha_i t^{-m_i}, y_j -> -t^{m_j}, central z_c -> gamma_c t^{-m_c};
    the directions m are the dual-pairing ones, completed by the torus complement."""
    ctx = datum.context
    aux = datum.aux
    n = ctx.n
    r = aux.rank
    dirs = [m for (_, m) in aux.dual_pairs] + list(aux.torus_complement)
    pres = weyl(r, n, central=aux.corank)
    images = {}
    for i in range(r):
        images[f"x{i + 1}"] = SkewElem.monomial(
            ctx, ctx.lift(datum.alpha[i]), tuple(-v for v in dirs[i])
        )
    for j in range(n):
        images[f"y{j + 1}"] = SkewElem.monomial(ctx, ctx.coeff_scalar(-1), dirs[j])
    for c in range(aux.corank):
        images[f"z{c + 1}"] = SkewElem.monomial(
            ctx, ctx.lift(datum.alpha[r + c]), tuple(-v for v in dirs[r + c])
        )
    conv = ("lowering generators map to negated torus monomials",)
    if aux.corank:
        conv = conv + (
            "NOTE: beyond the first %d oscillators the pairing runs along combined "
            "torus directions, not single coordinates; the central images are the "
            "invariant coefficients on those directions" % r,
        )
    return GeneratorAssignment(pres, ctx, images, "weyl", datum, conv)


def quantum_borel_assignment(
    qdatum: QuantumDatum, side: str = "upper", orientation=None
) -> GeneratorAssignment:
    """K_i -> K_i and E_i -> K_i^{-1} t_i^{s_i} with explicit signs s_i.

    Pass `orientation` as +-1 or a per-generator sign tuple; use
    `fix_orientation` to search for the signs that satisfy the weight
    relations instead of postulating them.
    """
    ctx = qdatum.context
    n = ctx.n
    C = qdatum.aux.matrix
    if orientation is None:
        raise ValueError("no orientation given; call fix_orientation to choose one")
    signs = tuple(orientation) if not isinstance(orientation, int) else (orientation,) * n
    if len(signs) != n or any(s not in (-1, 1) for s in signs):
        raise ValueError(f"orientation must be +-1 per generator, got {orientation!r}")
    letter = "E" if side == "upper" else "F"
    pres = quantum_borel_upper(C, qdatum.d) if side == "upper" else quantum_borel_lower(C, qdatum.d)
    images = {}
    for i in range(n):
        images[f"K{i + 1}"] = SkewElem.from_coeff(ctx, ctx.coeff_var(i))
        images[f"K{i + 1}^-1"] = SkewElem.from_coeff(ctx, ctx.coeff_var(i, -1))
        images[f"{letter}{i + 1}"] = SkewElem.monomial(ctx, qdatum.b[i], _unit_vec(n, i, signs[i]))
    conv = tuple(f"orientation {letter}{i + 1}: t^{s:+d}" for i, s in enumerate(signs))
    kind = "quantum-upper" if side == "upper" else "quantum-lower"
    return GeneratorAssignment(pres, ctx, images, kind, qdatum, conv)


@dataclass(frozen=True)
class OrientationChoice:
    signs: tuple  # chosen sign per E/F generator, None where nothing worked
    passed: bool
    detail: tuple  # one line per generator; failures carry both residuals


def fix_orientation(qdatum: QuantumDatum, side: str = "upper"):
    """Search t^{+1} vs t^{-1} per raising/lowering generator against the
    weight relations, and build the assignment with the surviving signs.

    Returns (assignment, choice); assignment is None when some generator
    admits no sign (choice.detail then holds both residuals).
    """
    ctx = qdatum.context
    n = ctx.n
    letter = "E" if side == "upper" else "F"
    pres = quantum_borel_upper(qdatum.aux.matrix, qdatum.d) if side == "upper" else quantum_borel_lower(
        qdatum.aux.matrix, qdatum.d
    )
    base = {}
    for i in range(n):
        base[f"K{i + 1}"] = SkewElem.from_coeff(ctx, ctx.coeff_var(i))
        base[f"K{i + 1}^-1"] = SkewElem.from_coeff(ctx, ctx.coeff_var(i, -1))
    signs, detail = [], []
    for j in range(n):
        sym = f"{letter}{j + 1}"
        mine = [r for r in pres.by_family("weight") if any(sym in word for _, word in r.terms)]
        outcomes = {}
        for s in (1, -1):
            trial = dict(base)
            trial[sym] = SkewElem.monomial(ctx, qdatum.b[j], _unit_vec(n, j, s))
            residuals = [_eval_terms(trial, ctx, r.terms) for r in mine]
            outcomes[s] = [res for res in residuals if res]
        good = [s for s, bad in outcomes.items() if not bad]
        if len(good) == 1:
            signs.append(good[0])
            detail.append(f"{sym}: t^{good[0]:+d} (the other sign fails {len(outcomes[-good[0]])} weight relations)")
        elif len(good) == 2:
            signs.append(None)
            detail.append(f"{sym}: ambiguous, both signs pass")
        else:
            signs.append(None)
            names = ["K1"] if n == 1 else [f"K{u + 1}" for u in range(n)]
            both = "; ".join(
                f"t^{s:+d} residual {outcomes[s][0].to_str(names)}" for s in (1, -1)
            )
            detail.append(f"{sym}: no sign works ({both})")
    choice = OrientationChoice(tuple(signs), all(s is not None for s in signs), tuple(detail))
    if not choice.passed:
        return None, choice
    return quantum_borel_assignment(qdatum, side, choice.signs), choice


def quantum_weyl_assignment(qdatum: QuantumDatum) -> GeneratorAssignment:
    """x_i -> omega_i t^{-m_i}, y_j -> t^{m_j}, central z_c -> omega_c t^{-m_c}."""
    ctx = qdatum.context
    n = ctx.n
    r = len(qdatum.g)
    dirs = qdatum.directions
    pres = quantum_weyl(r, n, qdatum.g, central=n - r)
    images = {}
    for i in range(r):
        images[f"x{i + 1}"] = SkewElem.monomial(ctx, qdatum.omega[i], tuple(-v for v in dirs[i]))
    for j in range(n):
        images[f"y{j + 1}"] = SkewElem.torus(ctx, dirs[j])
    for c in range(n - r):
        images[f"z{c + 1}"] = SkewElem.monomial(
            ctx, qdatum.omega[r + c], tuple(-v for v in dirs[r + c])
        )
    return GeneratorAssignment(
        pres, ctx, images, "quantum-weyl", qdatum, ("lowering generators map to plain torus monomials",)
    )


# -- evaluation and verification -------------------------------------------------


def _eval_terms(images: dict, ctx: ModelContext, terms) -> SkewElem:
    total = SkewElem.zero(ctx)
    for coeff, word in terms:
        cur = SkewElem.one(ctx)
        for sym in word:
            if sym not in images:
                raise ValueError(f"generator {sym!r} has no image")
            cur = cur * images[sym]
        total = total + cur.scale(coeff)
    return total


def evaluate_word(assignment: GeneratorAssignment, p) -> SkewElem:
    """Image of a noncommutative polynomial ((coeff, word), ...) under the assignment."""
    return _eval_terms(assignment.images, assignment.context, p)


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
    denominators: tuple  # (coefficient, torus exponent) pairs inverted during recovery
    recovered: dict  # model elements re-expressed inside the localized image
    conventions: tuple

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failed(self) -> tuple:
        return tuple(e for e in self.entries if not e.passed)

    def summary_lines(self) -> list:
        lines = [f"{self.assignment.presentation.name}: " + ("PASS" if self.passed else "FAIL")]
        lines.extend(str(e) for e in self.entries)
        return lines


def _coeff_names(ctx: ModelContext):
    stem = "h" if ctx.kind == "classical" else "K"
    return [f"{stem}{i + 1}" for i in range(ctx.n)]


def verify(assignment: GeneratorAssignment) -> VerificationReport:
    """Evaluate every relation, then run the recovery phase for the map's kind.

    Recovery re-derives the model generators (torus units, coefficient
    generators) from the images, inverting only single-term elements; the
    context's denominator log captures exactly those inversions and the
    report keeps the slice belonging to this run.
    """
    ctx = assignment.context
    names = _coeff_names(ctx)
    entries = []
    for rel in assignment.presentation.relations:
        img = _eval_terms(assignment.images, ctx, rel.terms)
        entries.append(RelationResult(rel.name, rel.family, img, not img, img.to_str(names)))
    mark = len(ctx.denominator_log)
    try:
        recovered = _RECOVERIES[assignment.kind](assignment)
    except (AssertionError, ArithmeticError, ValueError) as exc:
        # corrupted images leave nothing coherent to invert; report, don't crash
        recovered = {}
        entries.append(RelationResult("recovery of the inverse map", "recovery", None, False, f"aborted: {exc}"))
    denominators = tuple(ctx.denominator_log.entries[mark:])
    return VerificationReport(assignment, tuple(entries), denominators, recovered, assignment.conventions)


class RecoveryError(ValueError):
    """An image failed to give back the model generator it should recover.

    A ValueError, so `verify` reports it as a failed recovery entry."""


def _require(holds: bool, message: str):
    # a real check, not an assert: it must still run under python -O
    if not holds:
        raise RecoveryError(message)


def _recover_classical_upper(assignment):
    ctx = assignment.context
    datum = assignment.datum
    n = ctx.n
    out = {}
    for i in range(n):
        e_hat = assignment.images[f"E{i + 1}"]
        e_inv = e_hat.invert()  # logs (b_i, -e_i)
        t_i = SkewElem.from_coeff(ctx, ctx.lift(ctx.apply(i, datum.b[i]))) * e_inv
        _require(t_i == SkewElem.torus(ctx, _unit_vec(n, i)), "torus recovery failed")
        t_inv = t_i.invert()  # logs a plain torus unit
        b_hat = e_hat * t_i
        _require(b_hat == SkewElem.from_coeff(ctx, ctx.lift(datum.b[i])), "coefficient recovery failed")
        h_inv = assignment.images[f"H{i + 1}"].invert()  # logs h_i
        out[f"t{i + 1}"] = t_i
        out[f"t{i + 1}^-1"] = t_inv
        out[f"b{i + 1}"] = b_hat
        out[f"h{i + 1}^-1"] = h_inv
    return out


def _recover_classical_lower(assignment):
    ctx = assignment.context
    datum = assignment.datum
    n = ctx.n
    out = {}
    for i in range(n):
        f_hat = assignment.images[f"F{i + 1}"]
        f_inv = f_hat.invert()  # logs (reflected b_i, +e_i)
        bbar = ctx.lift(reflect(datum.b[i]))
        t_inv = f_inv * SkewElem.from_coeff(ctx, bbar)
        _require(t_inv == SkewElem.torus(ctx, _unit_vec(n, i, -1)), "torus recovery failed")
        t_i = t_inv.invert()  # logs a plain torus unit
        b_hat = f_hat * t_inv
        _require(b_hat == SkewElem.from_coeff(ctx, bbar), "coefficient recovery failed")
        h_inv = assignment.images[f"H{i + 1}"].invert()
        out[f"t{i + 1}"] = t_i
        out[f"t{i + 1}^-1"] = t_inv
        out[f"bbar{i + 1}"] = b_hat
        out[f"h{i + 1}^-1"] = h_inv
    return out


def _recover_weyl(assignment):
    ctx = assignment.context
    datum = assignment.datum
    aux = datum.aux
    n = ctx.n
    r = aux.rank
    out = {}
    coord_hats = []
    for k in range(n):
        raiser = assignment.images[f"x{k + 1}"] if k < r else assignment.images[f"z{k - r + 1}"]
        coord = -(raiser * assignment.images[f"y{k + 1}"])
        _require(coord == SkewElem.from_coeff(ctx, ctx.lift(datum.alpha[k])), "coordinate recovery failed")
        coord_hats.append(coord)
        t_neg = assignment.images[f"y{k + 1}"].scale(-1).invert()  # logs a torus unit
        out[f"t^{tuple(aux.dual_pairs[k][1]) if k < r else tuple(aux.torus_complement[k - r])}inv"] = t_neg
    hcoords = _inverse(aux.Q)
    for i in range(n):
        h_hat = SkewElem.zero(ctx)
        for k in range(n):
            h_hat = h_hat + coord_hats[k].scale(hcoords[i][k])
        _require(h_hat == SkewElem.from_coeff(ctx, ctx.coeff_var(i)), "h recovery failed")
        out[f"h{i + 1}"] = h_hat
        out[f"h{i + 1}^-1"] = h_hat.invert()  # logs h_i
    return out


def _recover_quantum_borel(letter):
    def recover(assignment):
        ctx = assignment.context
        n = ctx.n
        out = {}
        for i in range(n):
            x_hat = assignment.images[f"{letter}{i + 1}"]
            x_inv = x_hat.invert()  # logs (K_i^{-1}, s e_i): a torus/K unit
            t_s = assignment.images[f"K{i + 1}"] * x_hat
            (m, f), = t_s.terms.items()
            _require(f == ctx.coeff_one(), "torus recovery failed")
            t_back = t_s.invert()  # logs a plain torus unit
            out[f"t^{m}"] = t_s
            out[f"t^{m}inv"] = t_back
            out[f"{letter}{i + 1}^-1"] = x_inv
        return out

    return recover


def _recover_quantum_weyl(assignment):
    ctx = assignment.context
    qdatum = assignment.datum
    n = ctx.n
    r = len(qdatum.g)
    out = {}
    for k in range(n):
        raiser = assignment.images[f"x{k + 1}"] if k < r else assignment.images[f"z{k - r + 1}"]
        omega_hat = raiser * assignment.images[f"y{k + 1}"]
        _require(omega_hat == SkewElem.from_coeff(ctx, qdatum.omega[k]), "omega recovery failed")
        out[f"omega{k + 1}"] = omega_hat
        out[f"omega{k + 1}^-1"] = omega_hat.invert()  # logs a K-monomial unit
        out[f"t^{tuple(qdatum.directions[k])}inv"] = assignment.images[f"y{k + 1}"].invert()
    return out


_RECOVERIES = {
    "classical-upper": _recover_classical_upper,
    "classical-lower": _recover_classical_lower,
    "weyl": _recover_weyl,
    "quantum-upper": _recover_quantum_borel("E"),
    "quantum-lower": _recover_quantum_borel("F"),
    "quantum-weyl": _recover_quantum_weyl,
}


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


class _ShiftTable:
    """What a shift sigma^v does to the top two degrees of one b.

    sigma^v sends h to h + A·v, so sigma^v(b) keeps the top-degree part of b,
    and one degree down it adds the derivative of that part along A·v.  This
    is linear in v: `matrix` has one column per v_i and one row per monomial,
    numbered by `index`.  `tail_rank[k]` is the rank of its columns k, k+1, ...
    """

    def __init__(self, ctx, b: MLaurent):
        self.ctx = ctx
        self.b = b
        self.degree = b.total_degree()
        top = MLaurent(b.n, {e: c for e, c in b.terms.items() if sum(e) == self.degree})
        columns = []
        for spec in ctx.sigma:
            column = MLaurent.zero(b.n)
            for k, amount in enumerate(spec.data):
                if amount:
                    column = column + top.derivative(k) * amount
            columns.append(column)
        rows = sorted({e for column in columns for e in column.terms})
        self.index = {e: r for r, e in enumerate(rows)}
        self.matrix = [[column.terms.get(e, 0) for column in columns] for e in rows]
        self.tail_rank = [len(_eliminate([row[k:] for row in self.matrix])[1]) for k in range(ctx.n + 1)]

    def first_shift(self, f, window):
        """The lexicographically first v in window^n with sigma^v(b) == f, or None.

        f must be a polynomial.  It has to agree with b in the top degree, and
        one degree down f - b has to be the derivative of the top part along
        A·v.  The walk over v drops every prefix that no rational completion
        satisfies, and confirms each complete candidate by exact equality.
        """
        if self.degree is None:
            return None
        diff = f.as_laurent() - self.b
        if diff and diff.total_degree() >= self.degree:
            return None
        target = [0] * len(self.matrix)
        for e, c in diff.terms.items():
            if sum(e) == self.degree - 1:
                if e not in self.index:
                    return None
                target[self.index[e]] = c
        return self._walk(f, window, (), target)

    def _walk(self, f, window, prefix, target):
        ctx = self.ctx
        k = len(prefix)
        extended = [row[k:] + [t] for row, t in zip(self.matrix, target)]
        if len(_eliminate(extended)[1]) != self.tail_rank[k]:
            return None
        if k == ctx.n:
            return prefix if f == ctx.lift(ctx.apply_vec(prefix, self.b)) else None
        for x in window:
            rest = [t - row[k] * x for row, t in zip(self.matrix, target)]
            found = self._walk(f, window, prefix + (x,), rest)
            if found is not None:
                return found
        return None


def _shift_tables(ctx, datum) -> tuple:
    if ctx.kind != "classical" or not isinstance(datum, ClassicalDatum):
        return ()
    return tuple(_ShiftTable(ctx, b) for b in datum.b)


def _classify_classical(ctx, tables, f, shift_bound=2):
    """Torus unit, h generator, or the first sigma^v(b_j) that equals f:
    j ascending, then v lexicographic over {-shift_bound..shift_bound}^n."""
    if f.is_polynomial() and f.as_laurent().is_const():
        return "torus-unit", "torus unit"
    for i in range(ctx.n):
        if f == ctx.coeff_var(i):
            return "h-generator", f"h{i + 1}"
    if f.is_polynomial():
        window = range(-shift_bound, shift_bound + 1)
        for j, table in enumerate(tables):
            v = table.first_shift(f, window)
            if v is not None:
                detail = f"b{j + 1}" if not any(v) else f"sigma^{v}(b{j + 1})"
                return "shifted-b", detail
    return "unrecognized", "unrecognized"


def _classify_quantum(f):
    if f.is_monomial():
        return "torus-unit", "torus unit"
    return "unrecognized", "unrecognized"


def birational_witness(report: VerificationReport) -> OreWitness:
    """Factor every inverted denominator into the multiplicative set generated
    by shifted b's, the h generators, and torus units; flag anything else."""
    ctx = report.assignment.context
    names = _coeff_names(ctx)
    tables = _shift_tables(ctx, report.assignment.datum)
    entries = []
    for coeff, m in report.denominators:
        if ctx.kind == "classical":
            kind, detail = _classify_classical(ctx, tables, coeff)
        else:
            kind, detail = _classify_quantum(coeff)
        entries.append(WitnessEntry(coeff.to_str(names), tuple(m), kind, detail))
    return OreWitness(tuple(entries), all(e.kind != "unrecognized" for e in entries))
