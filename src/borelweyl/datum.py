"""Cartan data riding on top of the skew models.

The classical side carries polynomials b_i = h_i(h_i - 2)/4 + beta_i whose
twisted differences reproduce the Cartan matrix entries; the correction terms
beta_i live in the dual coordinates alpha (plus central gamma coordinates when
the matrix is singular) and are chosen minimal.  The quantum side carries
b_i = K_i^{-1} together with torus monomials omega_i scaling by prescribed
q-powers along the paired torus directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cartan import (
    CartanAux,
    _as_matrix,
    _column_reduce,
    _inverse,
    quasi_inverse,
    symmetrize,
)
from .exact import MLaurent, QQ_ONE, q_power
from .skew import (
    ModelContext,
    SkewElem,
    classical_context,
    conjugate,
    directional_diff,
    q_divided_diff,
    quantum_context,
    twisted_diff,
)


class DatumError(ValueError):
    pass


@dataclass(frozen=True)
class ConditionReport:
    label: str
    passed: bool
    residual: str
    expected: bool = True  # the verdict the row should have; some quantum rows fail by design

    def __str__(self):
        tail = "" if self.passed else f"  residual: {self.residual}"
        return f"[{'pass' if self.passed else 'FAIL'}] {self.label}{tail}"


@dataclass(frozen=True)
class ClassicalDatum:
    context: ModelContext
    aux: CartanAux
    alpha: tuple  # n linear forms in the h-variables: paired rows, then central rows
    beta: tuple  # n polynomials written in the alpha/gamma coordinates
    b: tuple  # n polynomials in the h-variables

    @property
    def coordinate_names(self):
        r = self.aux.rank
        return tuple(
            f"alpha{i + 1}" if i < r else f"gamma{i - r + 1}"
            for i in range(self.context.n)
        )


@dataclass(frozen=True)
class QuantumDatum:
    context: ModelContext
    aux: CartanAux
    d: tuple
    b: tuple  # the monomials K_i^{-1}
    omega: tuple  # torus-weight monomials, paired entries then central ones
    omega_exponents: tuple  # K-exponent vector of each omega
    g: tuple  # scaling integers, one per paired direction
    directions: tuple  # torus direction vectors: paired m_j, then the complement
    scaling_exponents: tuple  # ints e[i][j]: sigma^{directions[j]}(omega_i) = q^e·omega_i


def _linear_form(n, coeffs) -> MLaurent:
    terms = {}
    for u, c in enumerate(coeffs):
        c = Fraction(c)
        if c:
            terms[tuple(1 if v == u else 0 for v in range(n))] = c
    return MLaurent(n, terms)


def _directions(aux: CartanAux) -> list:
    """Torus directions: the paired m_j, then the complement."""
    return [m for _, m in aux.dual_pairs] + list(aux.torus_complement)


def build_alpha(C, aux: CartanAux = None) -> tuple:
    """Dual coordinates as h-polynomials: alpha_i paired with the torus
    direction m_i, followed by the central gamma rows for singular matrices.

    Along each direction the difference operator sees the identity pairing:
    sigma^{m_j}(alpha_i) = alpha_i + delta_ij, and the gamma rows are fixed by
    every sigma.
    """
    C = _as_matrix(C)
    return _alphas(aux or quasi_inverse(C), classical_context(C))


def _alphas(aux: CartanAux, ctx: ModelContext) -> tuple:
    alphas = tuple(_linear_form(ctx.n, row) for row in aux.Q)
    for j, m in enumerate(_directions(aux)):
        for i, a in enumerate(alphas):
            want = ctx.coeff_scalar(1 if (i == j and i < aux.rank) else 0)
            if directional_diff(ctx, m, a) != want:
                raise DatumError(f"dual pairing failed at alpha_{i+1}, direction {m}")
    return alphas


def solve_beta(C, aux: CartanAux = None) -> ClassicalDatum:
    """Construct the classical datum with the minimal correction terms.

    Each candidate b_j starts as P_j = h_j(h_j - 2)/4.  Rewritten in the
    alpha/gamma coordinates, a monomial survives unless some direction i != j
    shifts it too often: the difference window of length 1 - a_ij must kill
    b_j, which bounds the degree along the coordinates moved by sigma_i.
    beta_j is minus the sum of the violating monomials, and the result is
    re-checked against the actual difference operators before returning.
    """
    C = _as_matrix(C)
    aux = aux or quasi_inverse(C)
    n = C.n
    ctx = classical_context(C)
    h_in_alpha = [_linear_form(n, row) for row in _inverse(aux.Q)]
    # how sigma_i translates the alpha/gamma coordinates: shift[i][k] = (Q·C e_i)_k
    shift = [
        [
            sum(Fraction(aux.Q[k][u]) * C[u, i] for u in range(n))
            for k in range(n)
        ]
        for i in range(n)
    ]
    active = [[k for k in range(n) if shift[i][k]] for i in range(n)]

    alphas = _alphas(aux, ctx)
    betas, bs = [], []
    for j in range(n):
        hj = h_in_alpha[j]
        p_j = (hj * hj - hj * 2) * Fraction(1, 4)
        bad = {}
        for exp, coeff in p_j.terms.items():
            for i in range(n):
                if i == j:
                    continue
                if sum(exp[k] for k in active[i]) > -C[i, j]:
                    bad[exp] = coeff
                    break
        beta_j = -MLaurent(n, bad)
        if beta_j.deg_in(j):
            raise DatumError(f"beta_{j+1} picked up its own coordinate")
        betas.append(beta_j)
        hj_plain = MLaurent.var(n, j)
        base = (hj_plain * hj_plain - hj_plain * 2) * Fraction(1, 4)
        bs.append(base + beta_j.substitute(alphas))

    datum = ClassicalDatum(ctx, aux, alphas, tuple(betas), tuple(bs))
    failed = [rep for rep in check_bound_classical(datum) if not rep.passed]
    if failed:
        raise DatumError(f"no admissible beta for this matrix: {failed[0].label}")
    return datum


def check_bound_classical(datum: ClassicalDatum) -> list:
    """Evaluate every binding condition on the b-polynomials.

    Coordinate directions carry the second-difference normalization
    D_i D_j(b_j) = a_ji, the diagonal identity D_i(b_i) = h_i, and the
    difference window D_i^{1-a_ij}(b_j) = 0; for singular matrices the dual
    pairing along the m-directions is reported as well.
    """
    ctx, C = datum.context, datum.aux.matrix
    n = C.n
    names = [f"h{i+1}" for i in range(n)]
    out = []

    def report(label, residual):
        out.append(
            ConditionReport(label, not residual, residual.to_str(names))
        )

    for i in range(n):
        residual = twisted_diff(ctx, i, datum.b[i]) - ctx.coeff_var(i)
        report(f"D{i+1}(b{i+1}) = h{i+1}", residual)
    for i in range(n):
        for j in range(n):
            inner = twisted_diff(ctx, j, datum.b[j])
            residual = twisted_diff(ctx, i, inner) - ctx.coeff_scalar(C[j, i])
            report(f"D{i+1}D{j+1}(b{j+1}) = {C[j, i]}", residual)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            window = 1 - C[i, j]
            cur = datum.b[j]
            for _ in range(window):
                cur = twisted_diff(ctx, i, cur)
            report(f"D{i+1}^{window}(b{j+1}) = 0", cur)
    if datum.aux.corank:
        for jm, m in enumerate(_directions(datum.aux)):
            for i, a in enumerate(datum.alpha):
                want = 1 if (i == jm and i < datum.aux.rank) else 0
                residual = directional_diff(ctx, m, a) - ctx.coeff_scalar(want)
                kind = "alpha" if i < datum.aux.rank else "gamma"
                idx = i + 1 if i < datum.aux.rank else i - datum.aux.rank + 1
                report(f"pairing along {m}: D({kind}{idx}) = {want}", residual)
    return out


@dataclass(frozen=True)
class FullRankReport:
    determinant: str
    full_rank: bool
    generation: str  # "witnessed" or "not decided"


def check_full_rank(system) -> FullRankReport:
    """Jacobian criterion for a square polynomial system in the h-variables.

    A datum may be passed directly, in which case the system is D_i(b_i).
    Generation is only certified when the system is literally (h_1, ..., h_n):
    then the base coordinates themselves are in the image, and nothing more
    needs deciding.  Any other independent system gets "not decided".
    """
    from .exact import det_poly, jacobian

    if isinstance(system, ClassicalDatum):
        ctx = system.context
        system = [twisted_diff(ctx, i, b) for i, b in enumerate(system.b)]
    system = list(system)
    n = system[0].n
    det = det_poly(jacobian(system))
    names = [f"h{i+1}" for i in range(n)]
    is_identity = all(f == MLaurent.var(n, i) for i, f in enumerate(system))
    return FullRankReport(
        determinant=det.to_str(names),
        full_rank=bool(det),
        generation="witnessed" if is_identity else "not decided",
    )


# -- quantum side ----------------------------------------------------------


def build_quantum_datum(C, d=None, aux: CartanAux = None) -> QuantumDatum:
    C = _as_matrix(C)
    d = tuple(d) if d is not None else symmetrize(C)
    aux = aux or quasi_inverse(C)
    ctx = quantum_context(C, d)
    n = C.n
    b = tuple(MLaurent.var(n, i, -1, one=QQ_ONE) for i in range(n))
    omega, exponents, g, dirs, table = build_omega(C, d, aux, ctx)
    return QuantumDatum(ctx, aux, d, b, omega, exponents, g, dirs, table)


def build_omega(C, d=None, aux: CartanAux = None, ctx: ModelContext = None):
    """Torus-weight monomials omega_i = prod_u K_u^{w_iu} and their scalings.

    Writing S for the symmetrized matrix, sigma^m rescales K^w by
    q^(-m·S·w), so each paired direction m_j demands (S m_j)·w_i = -g_i δ_ij
    with g_i the smallest positive integer making w_i integral; w-vectors for
    the central entries are the negated complement directions, which S
    annihilates.  The full scaling table is recomputed through the model's
    automorphisms and must come out diagonal.
    """
    C = _as_matrix(C)
    d = tuple(d) if d is not None else symmetrize(C)
    aux = aux or quasi_inverse(C)
    ctx = ctx or quantum_context(C, d)
    n, r = C.n, aux.rank
    S = [[d[i] * C[i, j] for j in range(n)] for i in range(n)]
    dirs = _directions(aux)
    ms = dirs[:r]
    # columns of the lattice map w -> ((S m_j)·w)_j
    rows = [
        [sum(S[u][k] * m[k] for k in range(n)) for u in range(n)] for m in ms
    ]
    basis, _, reduced = _column_reduce(rows)
    if len(reduced) != r:
        raise DatumError("paired directions collapsed under the symmetrized form")

    # the echelon basis is lower triangular, L·u = -e_i (target -g·e_i at
    # g = 1), so u is minus column i of L⁻¹
    lower_inv = _inverse([[reduced[c][row] for c in range(r)] for row in range(r)])
    exponents, gs = [], []
    for i in range(r):
        u = [-lower_inv[c][i] for c in range(r)]
        g_i = lcm(*(x.denominator for x in u))
        scaled = [x * g_i for x in u]
        if any(x.denominator != 1 for x in scaled):
            raise DatumError("internal error: non-integer exponent in omega")
        w = tuple(
            sum(int(scaled[c]) * basis[c][idx] for c in range(r)) for idx in range(n)
        )
        exponents.append(w)
        gs.append(g_i)
    for kvec in aux.torus_complement:
        exponents.append(tuple(-x for x in kvec))

    omegas = tuple(MLaurent.monomial(n, w, QQ_ONE) for w in exponents)
    table = []
    for i, om in enumerate(omegas):
        row = []
        for j, m in enumerate(dirs):
            image = ctx.apply_vec(m, om)
            ratio = image.single_term()[1] / om.single_term()[1]
            row.append(ratio.monomial_exponent())
        table.append(tuple(row))
    for i in range(n):
        for j in range(n):
            want = gs[i] if (i == j and i < r) else 0
            if table[i][j] != want:
                raise DatumError(
                    f"omega scaling table mismatch at ({i+1},{j+1}): "
                    f"got q^{table[i][j]}, wanted q^{want}"
                )
    return omegas, tuple(exponents), tuple(gs), tuple(dirs), tuple(table)


def check_bound_quantum(qdatum: QuantumDatum) -> list:
    """Every quantum binding condition, under both available readings.

    The plain reading applies the sigma-window directly to b_j = K_j^{-1};
    the localized reading conjugates by K_i^{-1}E_i inside the model, where
    E_i is the image K_i^{-1}t_i.  Both are reported side by side, and each
    row's `expected` flag is the verdict predicted for it: the plain window
    holds iff a_ij = 0, the printed conjugation exponents iff a_ij is even,
    and the weight-adapted conjugation window, like every scaling row,
    always holds.
    """
    ctx, C, d = qdatum.context, qdatum.aux.matrix, qdatum.d
    n = C.n
    names = [f"K{i+1}" for i in range(n)]
    out = []

    def report(label, residual, to_str, expected=True):
        out.append(ConditionReport(label, not residual, to_str(residual), expected))

    def laurent_str(f):
        return f.to_str(names)

    def skew_str(e):
        return e.to_str(coeff_names=names)

    def unit(i):
        return tuple(1 if k == i else 0 for k in range(n))

    for i in range(n):
        for j in range(n):
            scale = q_power(d[i] * C[i, j])
            residual = ctx.apply(i, qdatum.b[j]) - qdatum.b[j] * scale
            report(
                f"scaling: sigma{i+1}(b{j+1}) = q^{d[i] * C[i, j]}·b{j+1}",
                residual,
                laurent_str,
            )

    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            window = 1 - C[i, j]
            residual = q_divided_diff(ctx, i, window, qdatum.b[j])
            report(
                f"plain window: prod(sigma{i+1} - q^2l·d{i+1}, l<{window})(b{j+1}) = 0",
                residual,
                laurent_str,
                C[i, j] == 0,
            )

    # localized readings act by conjugation inside the model
    e_img = [SkewElem.monomial(ctx, qdatum.b[i], unit(i)) for i in range(n)]
    ad_units = [
        SkewElem.monomial(ctx, qdatum.b[i] * qdatum.b[i], unit(i)) for i in range(n)
    ]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for tag, expo in (
                ("printed", lambda l: 2 * l * d[i]),
                ("weight-adapted", lambda l: d[i] * (C[i, j] + 2 * l)),
            ):
                cur = e_img[j]
                for l in range(1 - C[i, j]):
                    cur = conjugate(ad_units[i], cur) - cur * q_power(expo(l))
                report(
                    f"localized window ({tag}): Ad-product on E{j+1} along {i+1}",
                    cur,
                    skew_str,
                    tag == "weight-adapted" or C[i, j] % 2 == 0,
                )
    for i in range(n):
        for j in range(n):
            target = SkewElem.from_coeff(ctx, MLaurent.var(n, i, 1, one=QQ_ONE))
            residual = conjugate(ad_units[j], target) - target * q_power(
                -d[i] * C[i, j]
            )
            report(
                f"localized scaling: Ad(K{j+1}^-1·E{j+1})(K{i+1}) = q^{-d[i] * C[i, j]}·K{i+1}",
                residual,
                skew_str,
            )
    return out
