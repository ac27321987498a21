"""Cartan data riding on top of the skew models.

The classical side carries polynomials b_i = h_i(h_i - 2)/4 + beta_i whose
twisted differences reproduce the Cartan matrix entries; the correction terms
beta_i live in the dual coordinates alpha (plus central gamma coordinates when
the matrix is singular) and solve one linear system per b_i, with zero free
coefficients.  The quantum side carries b_i = K_i^{-1} together with torus
monomials omega_i scaling by prescribed q-powers along the paired torus
directions.  Every quantum check is a sum of q-weighted monomials, evaluated
by the quantum model's one product rule (`skew._MonomialImages`), and no
check multiplies two `SkewElem`s.

A classical datum also tells the denominator witness of `morphisms` which
sigma-shift of which b a polynomial is (`ClassicalDatum.find_shift`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement, product
from math import lcm
from operator import mul

from .cartan import CartanAux, _column_reduce, _eliminate, _inverse
# unused here; perfbench's test_wrappers_rebind_every_namespace reads datum.quasi_inverse
from .cartan import quasi_inverse  # noqa: F401
from .exact import MLaurent, QQ_ONE, QScalar
from .exact.endo import shift
from .exact.laurent import _accumulate
from .skew import ModelContext, SkewElem, _MonomialImages, _weight


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

    @cached_property
    def conditions(self) -> tuple:
        """The reports of `check_bound_classical`, evaluated once per datum."""
        return tuple(check_bound_classical(self))

    @cached_property
    def shift_columns(self) -> tuple:
        """`_shift_columns` of each b_j, built once per datum."""
        return tuple(_shift_columns(self.context, b) for b in self.b)

    def find_shift(self, f):
        """The first (j, v) with sigma^v(b_j) == f, or None: j ascending, then
        v lexicographic in _SHIFT_WINDOW^n = {-2..2}^n.  f must be a polynomial.

        One elimination of the equations of `_shift_columns`, columns in
        reverse order, reads each pivot coordinate of v off the free ones
        before it, so v is lexicographic exactly when its free coordinates
        are.  Exact equality confirms each candidate.
        """
        ctx, n = self.context, self.context.n
        for j, (b, columns) in enumerate(zip(self.b, self.shift_columns)):
            if columns is None:
                continue
            degree, top, second = columns
            diff = f - b
            if diff and diff.total_degree() >= degree:
                continue
            g = _part(diff, degree - 1)
            lower = [p + _along(g, [Fraction(x, 2) for x in step]) for p, step in zip(second, ctx.steps)]
            reduced, pivots, _ = _eliminate(
                _linear_rows(top[::-1], g) + _linear_rows(lower[::-1], _part(diff, degree - 2))
            )
            if pivots and pivots[-1][1] == n:
                continue  # a pivot in the target column: no rational solution
            bound = {n - 1 - col: reduced[k] for k, (_, col) in enumerate(pivots)}
            free = [i for i in range(n) if i not in bound]
            for choice in product(_SHIFT_WINDOW, repeat=len(free)):
                v = dict(zip(free, choice))
                for i, row in bound.items():
                    v[i] = row[-1] - sum(row[n - 1 - k] * v[k] for k in free)
                if all(x.denominator == 1 and x in _SHIFT_WINDOW for x in v.values()):
                    v = tuple(int(v[i]) for i in range(n))
                    if f == ctx.apply_vec(v, b):
                        return j, v
        return None

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
    aux: CartanAux  # aux.d is the symmetrizer of the q-scalings
    b: tuple  # the monomials K_i^{-1}
    omega: tuple  # torus-weight monomials, paired entries then central ones
    omega_exponents: tuple  # K-exponent vector of each omega
    g: tuple  # scaling integers, one per paired direction
    scaling_exponents: tuple  # ints e[i][j]: sigma^{m_j}(omega_i) = q^e·omega_i, m_j from `_directions`


def _linear_form(n, coeffs) -> MLaurent:
    return MLaurent(n, {tuple(int(v == u) for v in range(n)): Fraction(c) for u, c in enumerate(coeffs)})


def _directions(aux: CartanAux) -> list:
    """Torus directions: the paired m_j, then the complement."""
    return [m for _, m in aux.dual_pairs] + list(aux.torus_complement)


def _conditions(C, h) -> list:
    """The conditions binding b_1..b_n to the matrix, in report order.

    A row (label, j, word, target) says that D_i for i in word, applied in
    turn to b_j, gives target, in the coordinates where h lists h_1..h_n:
    D_j(b_j) = h_j, then D_iD_j(b_j) = a_ji, then the windows
    D_i^{1-a_ij}(b_j) = 0 for i != j.
    """
    n = C.n
    rows = [(f"D{i+1}(b{i+1}) = h{i+1}", i, (i,), h[i]) for i in range(n)]
    rows += [(f"D{i+1}D{j+1}(b{j+1}) = {C[j, i]}", j, (j, i), MLaurent.const(n, Fraction(C[j, i])))
             for i in range(n) for j in range(n)]
    rows += [(f"D{i+1}^{1 - C[i, j]}(b{j+1}) = 0", j, (i,) * (1 - C[i, j]), MLaurent.zero(n))
             for i in range(n) for j in range(n) if i != j]
    return rows


def _linear_rows(columns, rhs) -> list:
    """The identity sum_k x_k·columns[k] = rhs as linear rows [coefficients | rhs],
    one per monomial in ascending order."""
    monomials = sorted(set(rhs.terms).union(*[column.terms for column in columns]))
    return [[column.terms.get(e, 0) for column in columns] + [rhs.terms.get(e, 0)] for e in monomials]


def _apply_word(act, memo, word):
    """D_word(memo[()]) with D_i(f) = act(i, f) - f; memo keeps every prefix."""
    if word not in memo:
        f = _apply_word(act, memo, word[:-1])
        memo[word] = act(word[-1], f) - f if f else f
    return memo[word]


def solve_beta(aux: CartanAux) -> ClassicalDatum:
    """Construct the classical datum by one exact linear solve per b_j.

    Each b_j is P_j = h_j(h_j - 2)/4 plus beta_j, of degree at most 2 in the
    alpha/gamma coordinates other than its own.  sigma_i translates those
    coordinates, so the rows of `_conditions` on b_j are linear in beta_j's
    coefficients; `cartan._eliminate` reduces them, an inconsistent row raises
    DatumError naming b_j, and every free coefficient is set to zero.  The
    result is re-checked against the difference operators before returning,
    and it keeps the reports of that check in `conditions`.

    For invertible C the basis of beta_j runs over the Dynkin neighbours of j
    only.  There sigma_k translates alpha_k by 1 and fixes the other alphas.
    For k not adjacent to j, a_kj = 0 makes the window row D_k(b_j) = 0, so
    b_j does not involve alpha_k; P_j involves only alpha_j and its
    neighbours, since h_j = sum_k a_jk alpha_k.  So every basis monomial with
    such an alpha_k has its coefficient forced to 0, its row touches no free
    column, and dropping those columns leaves the same pivots and solution.
    For singular C the alphas pair with the m-directions, not with the
    sigmas, and the full basis stays.

    The dual coordinates are the rows of aux.Q as h-polynomials: alpha_i,
    paired with the torus direction m_i, then the central gamma rows for a
    singular matrix.  Along each direction the difference operator sees the
    identity pairing, sigma^{m_j}(alpha_i) = alpha_i + delta_ij, and every
    sigma fixes the gamma rows.  For an invertible matrix that is Q·C = I,
    which `cartan._check_aux` checks; for a singular one it is the pairing
    rows of `check_bound_classical`, on which this function raises.
    """
    C, n = aux.matrix, aux.matrix.n
    ctx = ModelContext("classical", aux)
    # sigma_i translates the alpha/gamma coordinates by Q·C e_i
    moves = [[sum(q * s for q, s in zip(row, step)) for row in aux.Q] for step in ctx.steps]

    def act(i, f):
        return shift(f, moves[i])

    h_in_alpha = [_linear_form(n, row) for row in _inverse(aux.Q)]
    alphas = tuple(_linear_form(n, row) for row in aux.Q)
    rows = _conditions(C, h_in_alpha)
    betas, bs, images = [], [], {}  # images: the words on each basis monomial, shared by all b_j
    for j in range(n):
        pool = [k for k in range(n) if k != j and (aux.corank or C[k, j])]
        basis = [tuple(c.count(k) for k in range(n)) for deg in range(3)
                 for c in combinations_with_replacement(pool, deg)]
        memos = [images.setdefault(e, {(): MLaurent.monomial(n, e, Fraction(1))}) for e in basis]
        hj = h_in_alpha[j]
        p_j = {(): (hj * hj - hj * 2) * Fraction(1, 4)}
        labels, equations = [], []
        for label, _, word, target in (row for row in rows if row[1] == j):
            columns = [_apply_word(act, memo, word) for memo in memos]
            new = _linear_rows(columns, target - _apply_word(act, p_j, word))
            labels += [label] * len(new)
            equations += new
        reduced, pivots, _ = _eliminate(equations)
        if pivots and pivots[-1][1] == len(basis):
            raise DatumError(f"no admissible beta for this matrix: the conditions on b{j+1} "
                             f"have no solution (inconsistent at {labels[pivots[-1][0]]})")
        betas.append(MLaurent(n, {basis[col]: reduced[k][-1] for k, (_, col) in enumerate(pivots)}))
        bs.append((p_j[()] + betas[j]).substitute(alphas))

    datum = ClassicalDatum(ctx, aux, alphas, tuple(betas), tuple(bs))
    failed = [rep for rep in datum.conditions if not rep.passed]
    if failed:
        raise DatumError(f"no admissible beta for this matrix: {failed[0].label}")
    return datum


def check_bound_classical(datum: ClassicalDatum) -> list:
    """Evaluate every binding condition on the b-polynomials.

    The rows of `_conditions`: D_i(b_i) = h_i, the second-difference
    normalization D_i D_j(b_j) = a_ji and the windows D_i^{1-a_ij}(b_j) = 0;
    for singular matrices the dual pairing along the m-directions as well.
    """
    ctx, C = datum.context, datum.aux.matrix
    n = C.n
    out = []

    def report(label, residual):
        out.append(ConditionReport(label, not residual, residual.to_str(ctx.names)))

    memos = [{(): b} for b in datum.b]
    for label, j, word, target in _conditions(C, [ctx.coeff_var(i) for i in range(n)]):
        report(label, _apply_word(ctx.apply, memos[j], word) - target)
    if datum.aux.corank:
        for jm, m in enumerate(_directions(datum.aux)):
            for i, a in enumerate(datum.alpha):
                want = 1 if (i == jm and i < datum.aux.rank) else 0
                residual = ctx.apply_vec(m, a) - a - ctx.coeff_scalar(want)
                kind = "alpha" if i < datum.aux.rank else "gamma"
                idx = i + 1 if i < datum.aux.rank else i - datum.aux.rank + 1
                report(f"pairing along {m}: D({kind}{idx}) = {want}", residual)
    return out


_SHIFT_WINDOW = range(-2, 3)


def _part(p: MLaurent, degree) -> MLaurent:
    """The homogeneous part of p of the given total degree."""
    return MLaurent(p.n, {e: c for e, c in p.terms.items() if sum(e) == degree})


def _along(p: MLaurent, u) -> MLaurent:
    """D_u p: the derivative of p along the vector u."""
    return MLaurent(p.n, _accumulate((p.derivative(i) * x).terms for i, x in enumerate(u) if x))


def _shift_columns(ctx: ModelContext, b: MLaurent):
    """What a shift sigma^v does to the top three degrees of b (None for b = 0).

    sigma^v sends h to h + u with u = A·v.  Write p_k for the degree-k part of
    a polynomial p, d for the degree of b, D_u for the derivative along u and
    g = (f - b)_{d-1}.  By Taylor's formula, sigma^v(b) == f asks for
      b_d = f_d,  D_u b_d = g  and  D_u b_{d-1} + D_u² b_d / 2 = (f - b)_{d-2}.
    Applying D_u to the second equation gives D_u² b_d = D_u g, so wherever
    it holds the third one reads D_u (b_{d-1} + g/2) = (f - b)_{d-2}.  Both
    are linear in v, with the columns D_{A·e_i} of b_d and of b_{d-1} + g/2;
    for a quadratic b they are all of sigma^v(b) == f.  Returns d and the
    columns D_{A·e_i} of b_d and of b_{d-1}; `find_shift` adds the g/2 part.
    """
    degree = b.total_degree()
    if degree is None:
        return None
    top, second = ([_along(_part(b, k), step) for step in ctx.steps] for k in (degree, degree - 1))
    return degree, top, second


# -- quantum side ----------------------------------------------------------


def build_quantum_datum(aux: CartanAux) -> QuantumDatum:
    """b_i = K_i^{-1} and the omega weights, in the model that scales by q^{d_i·a_ij}, d = aux.d."""
    ctx = ModelContext("quantum", aux)
    n = ctx.n
    b = tuple(MLaurent.var(n, i, -1, one=QQ_ONE) for i in range(n))
    return QuantumDatum(ctx, aux, b, *_omega(aux, ctx))


def _omega(aux: CartanAux, ctx: ModelContext):
    """Torus-weight monomials omega_i = prod_u K_u^{w_iu} and their scalings.

    Writing S for the symmetrized matrix, sigma^m rescales K^w by
    q^(-m·S·w), so each paired direction m_j demands (S m_j)·w_i = -g_i δ_ij
    with g_i the smallest positive integer making w_i integral; w-vectors for
    the central entries are the negated complement directions, which S
    annihilates.  The full scaling table is recomputed as the exponents
    ⟨m_j, u(w_i)⟩ of `skew._weight`, by which the model's sigma^{m_j} scales
    omega_i, and must come out diagonal.  Returns the QuantumDatum
    fields after b: omegas, exponents, g and the table.
    """
    C, d = aux.matrix, aux.d
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
        g_i = lcm(*[x.denominator for x in u])
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
    table = [tuple(sum(map(mul, m, _weight(ctx, w))) for m in dirs) for w in exponents]
    for i in range(n):
        for j in range(n):
            want = gs[i] if (i == j and i < r) else 0
            if table[i][j] != want:
                raise DatumError(
                    f"omega scaling table mismatch at ({i+1},{j+1}): "
                    f"got q^{table[i][j]}, wanted q^{want}"
                )
    return omegas, tuple(exponents), tuple(gs), tuple(table)


def _window(exponents) -> list:
    """The coefficients e_0, e_1, … of Π_c (X − q^c), kept as integer Laurent
    coefficients while X − q^c sends each e_k to e_{k−1} − q^c·e_k."""
    e = [{0: 1}]
    for c in exponents:
        lower = [{x + c: -v for x, v in ek.items()} for ek in e] + [{}]
        e = [_accumulate(pair) for pair in zip(lower, [{}] + e)]
    return [QScalar.laurent(ek) for ek in e]


def check_bound_quantum(qdatum: QuantumDatum) -> list:
    """Every quantum binding condition, under both available readings.

    Each row is Π_c (Ad(u) − q^c) applied to one letter x, that is
    Σ_k e_k·u^k·x·u^{−k} with e_k from `_window`, evaluated as a sum of
    q-weighted monomials by `skew._MonomialImages`.  In the model
    sigma_i(f) = t_i·f·t_i^{-1}, so the scaling rows and the plain reading
    apply the sigma-window to b_j = K_j^{-1} with u = t_i; the localized
    reading conjugates by u_i = K_i^{-1}E_i = b_i^2·t_i, where E_i is the
    image b_i·t_i.  Both readings are reported side by side, and each row's
    `expected` flag is the verdict predicted for it: the plain window holds
    iff a_ij = 0, the printed conjugation exponents iff a_ij is even, and
    the weight-adapted conjugation window, like every scaling row, always
    holds.  The scaling and plain rows print the t^0 coefficient.
    """
    ctx, C, d = qdatum.context, qdatum.aux.matrix, qdatum.aux.d
    n = C.n
    images = {}
    for i, b in enumerate(qdatum.b):
        unit = tuple(int(k == i) for k in range(n))
        u = SkewElem.monomial(ctx, b * b, unit)
        images.update({
            f"t{i+1}": SkewElem.torus(ctx, unit), f"t{i+1}^-1": SkewElem.torus(ctx, [-x for x in unit]),
            f"b{i+1}": SkewElem.from_coeff(ctx, b), f"K{i+1}": SkewElem.from_coeff(ctx, ctx.coeff_var(i)),
            f"E{i+1}": SkewElem.monomial(ctx, b, unit), f"u{i+1}": u, f"u{i+1}^-1": u.invert(),
        })
    ring = _MonomialImages(ctx, images)
    zero = MLaurent.zero(n)
    out = []

    def report(label, unit, letter, exponents, expected=True, t0=False):
        terms = [(e, (unit,) * k + (letter,) + (f"{unit}^-1",) * k) for k, e in enumerate(_window(exponents))]
        residual = ring.evaluate(terms)
        text = residual.terms.get(ring.origin, zero).to_str(ctx.names) if t0 else residual.to_str(ctx.names)
        out.append(ConditionReport(label, not residual, text, expected))

    for i in range(n):
        for j in range(n):
            report(f"scaling: sigma{i+1}(b{j+1}) = q^{d[i] * C[i, j]}·b{j+1}",
                   f"t{i+1}", f"b{j+1}", [d[i] * C[i, j]], t0=True)
    for i in range(n):
        for j in range(n):
            if i != j:
                window = 1 - C[i, j]
                report(f"plain window: prod(sigma{i+1} - q^2l·d{i+1}, l<{window})(b{j+1}) = 0",
                       f"t{i+1}", f"b{j+1}", [2 * l * d[i] for l in range(window)], C[i, j] == 0, t0=True)
    for i in range(n):
        for j in range(n):
            if i != j:
                window = range(1 - C[i, j])
                report(f"localized window (printed): Ad-product on E{j+1} along {i+1}",
                       f"u{i+1}", f"E{j+1}", [2 * l * d[i] for l in window], C[i, j] % 2 == 0)
                report(f"localized window (weight-adapted): Ad-product on E{j+1} along {i+1}",
                       f"u{i+1}", f"E{j+1}", [d[i] * (C[i, j] + 2 * l) for l in window])
    for i in range(n):
        for j in range(n):
            report(f"localized scaling: Ad(K{j+1}^-1·E{j+1})(K{i+1}) = q^{-d[i] * C[i, j]}·K{i+1}",
                   f"u{j+1}", f"K{i+1}", [-d[i] * C[i, j]])
    return out
