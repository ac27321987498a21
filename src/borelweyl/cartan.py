"""Generalized Cartan matrices and the exact linear algebra they induce.

Everything downstream hangs off the data computed here: a minimal integer
symmetrizer d, exact rank and corank, a quasi-inverse Q, a left kernel,
dual pairs (q_i, m_i) with q_iᵀ·C·m_j = δ_ij, an integer complement making
{m_i} part of a ℤⁿ basis, and the lattice scalings g read off Q's columns.

For invertible C this degenerates to Q = C⁻¹ with m_i the standard basis.
In positive corank the coordinate-aligned identity Σ_u c_ju a_ui = δ_ij is
unattainable (it would put standard basis vectors in the row space of C),
so the dual pairs generalize it: m_i come from a unimodular column reduction
of C, which simultaneously yields a saturated integer kernel basis whose
vectors complete {m_i} to ℤⁿ.  That column reduction works over ℤ; every
elimination over ℚ in the package is `_eliminate`, one Gauss–Jordan routine
with a first-maximal-absolute-value pivot rule, so results are reproducible.
It runs fraction-free, on rows of ints over one positive denominator each,
and compares candidate pivots by their exact rational values, so its reduced
rows, pivots and determinant are those of Gauss–Jordan over `Fraction`s.
Here it gives rank, inverses, the pairing rows and the unimodularity
determinant; `datum` solves the b-conditions and the witness's shift
equations with it.  The pairing identities q_iᵀ·C·m_j = δ_ij are checked in
integers, each q_i scaled by its common denominator.  Every check raises
CartanError, so they all run under python -O as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "CartanError",
    "CartanMatrix",
    "CartanAux",
    "validate_gcm",
    "symmetrize",
    "quasi_inverse",
    "lattice_scaling",
    "CATALOG",
    "catalog_matrix",
]


class CartanError(ValueError):
    """A matrix failed a Cartan axiom; the message names the axiom and the entry."""


@dataclass(frozen=True)
class CartanMatrix:
    n: int
    entries: tuple  # n rows of n ints

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]


@dataclass(frozen=True)
class CartanAux:
    matrix: CartanMatrix
    d: tuple  # the job's symmetrizer: minimal unless the job overrides it
    rank: int
    corank: int
    Q: tuple  # n×n Fractions: dual-pair rows stacked over leftKernel rows
    left_kernel: tuple  # corank rows of ints, each annihilating C on the left
    dual_pairs: tuple  # rank pairs (q_i: Fractions, m_i: ints)
    torus_complement: tuple  # corank integer vectors completing {m_i} to a ℤⁿ basis
    g: tuple  # positive ints: lcm of denominators per Q column


def validate_gcm(rows) -> CartanMatrix:
    rows = [tuple(int(x) for x in r) for r in rows]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise CartanError("matrix is not square")
    for i in range(n):
        if rows[i][i] != 2:
            raise CartanError(f"diagonal entry != 2 at ({i + 1},{i + 1}): {rows[i][i]}")
        for j in range(n):
            if i == j:
                continue
            if rows[i][j] > 0:
                raise CartanError(f"positive off-diagonal entry at ({i + 1},{j + 1}): {rows[i][j]}")
            if rows[i][j] == 0 and rows[j][i] != 0:
                # report on the zero side of the broken pair
                raise CartanError(
                    f"zero-symmetry violated at ({i + 1},{j + 1}): "
                    f"a[{i + 1}][{j + 1}]=0 but a[{j + 1}][{i + 1}]={rows[j][i]}"
                )
    return CartanMatrix(n, tuple(rows))


def symmetrize(C: CartanMatrix) -> tuple:
    """Minimal positive integers d with d_i·a_ij = d_j·a_ji, per component."""
    n = C.n
    weight = [None] * n
    for root in range(n):
        if weight[root] is not None:
            continue
        weight[root] = Fraction(1)
        stack = [root]
        component = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or C[i, j] == 0:
                    continue
                implied = weight[i] * Fraction(C[i, j], C[j, i])
                if weight[j] is None:
                    weight[j] = implied
                    component.append(j)
                    stack.append(j)
                elif weight[j] != implied:
                    raise CartanError(
                        f"not symmetrizable: inconsistent ratio cycle through ({i + 1},{j + 1})"
                    )
        scale = lcm(*[weight[k].denominator for k in component])
        ints = [weight[k] * scale for k in component]
        shrink = gcd(*[int(v) for v in ints])
        for k, v in zip(component, ints):
            weight[k] = Fraction(int(v) // shrink)
    d = tuple(int(w) for w in weight)
    for i in range(n):
        for j in range(n):
            if d[i] * C[i, j] != d[j] * C[j, i]:
                raise CartanError("not symmetrizable")
    return d


_ZERO = Fraction(0)


def _eliminate(rows):
    """Gauss–Jordan elimination over ℚ: the one exact elimination in the package.

    Column by column, the pivot is the first entry of largest absolute value
    among the rows not yet used, swapped into place.  That rule decides which
    rows become pivots, so every result built on it is reproducible.  Returns
    the reduced rows, the pivots as (original row index, column), and the
    determinant of the square block of the first len(rows) columns (0 when
    that block is singular or there are fewer columns than rows).

    Fraction-free: row t is a list of ints over one positive int
    denominator, so a row operation takes one gcd, not one per entry.
    Candidate pivots are compared by their rational values, |a|/s > |a′|/s′
    as |a|·s′ > |a′|·s.  The pivot row is kept over its own pivot entry,
    which divides it by its pivot, and every other row becomes row_t·p −
    f·row_k over s_t·p, which is row_t − (f/s_t)·(row_k/p).  So each row
    stands for the same rational row as in Gauss–Jordan over `Fraction`s,
    step for step: the pivots, the reduced rows and the determinant (kept as
    an int numerator and denominator) are the same.  `Fraction`s are built
    only on return.
    """
    m, dens = [], []  # row t stands for m[t] / dens[t]
    for row in rows:
        # a list, not a generator: f(*generator) resizes its argument tuple, and
        # each call leaves one such tuple on the free list until a full gc
        den = lcm(*[x.denominator for x in row])
        m.append([x.numerator * (den // x.denominator) for x in row])
        dens.append(den)
    order = list(range(len(m)))
    pivots = []
    det_num = det_den = 1
    for col in range(len(m[0]) if m else 0):
        k = len(pivots)
        if k == len(m):
            break
        piv, best, best_den = k, abs(m[k][col]), dens[k]
        for t in range(k + 1, len(m)):
            a = abs(m[t][col])
            if a * best_den > best * dens[t]:
                piv, best, best_den = t, a, dens[t]
        if not best:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            dens[k], dens[piv] = dens[piv], dens[k]
            order[k], order[piv] = order[piv], order[k]
            det_num = -det_num
        p = m[k][col]
        det_num *= p
        det_den *= dens[k]
        # the pivot row over its pivot entry is the row divided by its pivot;
        # an unused row is zero left of col, so only columns from col on change
        head = m[k][col:]
        if p < 0:
            head = [-x for x in head]
            p = -p
        g = gcd(*head)
        if g > 1:
            head = [x // g for x in head]
            p //= g
        m[k][col:] = head
        dens[k] = p
        for t, row in enumerate(m):
            f = row[col]
            if t != k and f:
                # row_k is zero left of col, so there row_t is only rescaled
                new = [a * p for a in row[:col]] + [a * p - f * b for a, b in zip(row[col:], head)]
                s = dens[t] * p
                g = gcd(s, *new)
                if g > 1:
                    new = [x // g for x in new]
                    s //= g
                m[t] = new
                dens[t] = s
        pivots.append((order[k], col))
    if [c for _, c in pivots] != list(range(len(m))):
        det_num = 0
    reduced = [[Fraction(x, den) if x else _ZERO for x in row] for row, den in zip(m, dens)]
    return reduced, pivots, Fraction(det_num, det_den)


def _eliminate_with_identity(M):
    """`_eliminate` of [M | I] for a square M; the right half of the reduced
    rows is M⁻¹ when the determinant is nonzero."""
    k = len(M)
    return _eliminate([list(row) + [1 if j == i else 0 for j in range(k)] for i, row in enumerate(M)])


def _inverse(M):
    """Exact inverse of a square matrix, read off the elimination of [M | I]."""
    reduced, _, det = _eliminate_with_identity(M)
    if not det:
        raise CartanError("singular matrix")
    return [row[len(M):] for row in reduced]


def _column_reduce(rows):
    """Unimodular V with (rows)·V = [independent columns | zero columns].

    Returns (V columns forming the non-kernel part, V columns spanning the
    saturated integer kernel, reduced non-kernel columns of rows·V).  The
    reduced columns are in echelon position: column k vanishes on every
    pivot row before its own.  Gcd-style column reduction; pivots positive.
    Each column of rows is kept stacked over the matching column of V, so
    one column operation is one list update.
    """
    nr = len(rows)
    nc = len(rows[0])
    cols = [[r[j] for r in rows] + [1 if i == j else 0 for i in range(nc)] for j in range(nc)]
    rank = 0
    for row in range(nr):
        live = [j for j in range(rank, nc) if cols[j][row] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda j: (abs(cols[j][row]), j))
            base = cols[live[0]]
            for j in live[1:]:
                k = -(cols[j][row] // base[row])
                cols[j] = [x + k * y for x, y in zip(cols[j], base)]
            live = [j for j in live if cols[j][row] != 0]
        piv = live[0]
        if cols[piv][row] < 0:
            cols[piv] = [-x for x in cols[piv]]
        cols[rank], cols[piv] = cols[piv], cols[rank]
        rank += 1
    image_part = [tuple(col[nr:]) for col in cols[:rank]]
    kernel_part = [tuple(col[nr:]) for col in cols[rank:]]
    reduced = [tuple(col[:nr]) for col in cols[:rank]]
    return image_part, kernel_part, reduced


def _solve_pairing(cms):
    """Rational q_i with q_i·(C·m_j) = δ_ij, supported on pivot rows of C·M.

    cms are the columns C·m_j, as `_column_reduce` returns them.
    """
    r, n = len(cms), len(cms[0])
    B = list(zip(*cms))  # n×r
    # the pivot rows of B are r independent rows, chosen reproducibly
    _, pivots, _ = _eliminate(B)
    if len(pivots) != r:
        raise CartanError("pairing system lost rank")
    sel = sorted(i for i, _ in pivots)
    Rinv = _inverse([B[i] for i in sel])  # r×r invertible
    qs = []
    for i in range(r):
        q = [Fraction(0)] * n
        for t, row_idx in enumerate(sel):
            q[row_idx] = Rinv[i][t]
        qs.append(tuple(q))
    return qs


def lattice_scaling(Q) -> tuple:
    """g_j = lcm of the denominators in column j of a rational matrix."""
    n = len(Q)
    return tuple(lcm(*[Q[i][j].denominator for i in range(n)]) for j in range(n))


def quasi_inverse(C: CartanMatrix) -> CartanAux:
    """The job's `CartanAux`.  One elimination of [C | I] gives the rank (its
    pivots left of column n) and, at corank 0, Q = C⁻¹ (its right half)."""
    d = symmetrize(C)
    n = C.n
    reduced, pivots, _ = _eliminate_with_identity(C.entries)
    r = sum(col < n for _, col in pivots)
    corank = n - r
    if corank == 0:
        Q = tuple(tuple(row[n:]) for row in reduced)
        pairs = tuple(
            (Q[i], tuple(1 if k == i else 0 for k in range(n))) for i in range(r)
        )
        aux = CartanAux(C, d, r, 0, Q, (), pairs, (), lattice_scaling(Q))
    else:
        ms, complement, cms = _column_reduce(C.entries)
        _, left_kernel, _ = _column_reduce([list(col) for col in zip(*C.entries)])
        qs = _solve_pairing(cms)
        Q = tuple(list(qs) + [tuple(Fraction(x) for x in w) for w in left_kernel])
        aux = CartanAux(
            C,
            d,
            r,
            corank,
            Q,
            tuple(left_kernel),
            tuple(zip(qs, ms)),
            tuple(complement),
            lattice_scaling(Q),
        )
    _check_aux(aux)
    return aux


def _check_aux(aux: CartanAux):
    C, n = aux.matrix, aux.matrix.n
    cms = [[sum(a * b for a, b in zip(row, m)) for row in C.entries] for _, m in aux.dual_pairs]
    for i, (q, _) in enumerate(aux.dual_pairs):
        # q_i·(C·m_j) = δ_ij, tested in integers over q_i's common denominator
        den = lcm(*[x.denominator for x in q])
        q = [x.numerator * (den // x.denominator) for x in q]
        for j, cm in enumerate(cms):
            if sum(a * b for a, b in zip(q, cm)) != (den if i == j else 0):
                raise CartanError("dual pairing identity failed")
    for w in aux.left_kernel:
        if any(sum(w[i] * C[i, j] for i in range(n)) for j in range(n)):
            raise CartanError("left kernel row does not annihilate the matrix")
    basis = [list(m) for _, m in aux.dual_pairs] + [list(v) for v in aux.torus_complement]
    if abs(_eliminate(basis)[2]) != 1:
        raise CartanError("m-vectors plus complement are not unimodular")


CATALOG = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "A1xA1": ((2, 0), (0, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "B2": ((2, -2), (-1, 2)),
    "G2": ((2, -1), (-3, 2)),
    "A1affine": ((2, -2), (-2, 2)),
}


def catalog_matrix(name: str) -> CartanMatrix:
    key = name.replace("~", "affine")
    if key not in CATALOG:
        raise KeyError(f"unknown catalog name {name!r}; choose from {sorted(CATALOG)}")
    return validate_gcm(CATALOG[key])
