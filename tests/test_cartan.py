"""Cartan matrix validation and derived linear algebra."""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import borelweyl
from borelweyl import cartan
from borelweyl.cartan import (
    CATALOG,
    CartanError,
    _check_aux,
    _column_reduce,
    _eliminate,
    _inverse,
    catalog_matrix,
    lattice_scaling,
    quasi_inverse,
    symmetrize,
    validate_gcm,
)
from borelweyl.cli import JobSpec, run

try:
    import sympy
except ImportError:
    sympy = None


def test_validate_accepts_standard():
    c = validate_gcm([[2, -1], [-1, 2]])
    assert c.n == 2 and c[0, 1] == -1


def test_validate_rejections():
    with pytest.raises(CartanError, match=r"zero-symmetry violated at \(2,1\)"):
        validate_gcm([[2, -1], [0, 2]])
    with pytest.raises(CartanError, match="diagonal"):
        validate_gcm([[1]])
    with pytest.raises(CartanError, match="positive off-diagonal"):
        validate_gcm([[2, 1], [1, 2]])
    with pytest.raises(CartanError, match="square"):
        validate_gcm([[2, -1]])


def _valid_symmetrizers(C, bound=6):
    n = C.n
    out = []
    for cand in product(range(1, bound + 1), repeat=n):
        if all(cand[i] * C[i, j] == cand[j] * C[j, i] for i in range(n) for j in range(n)):
            out.append(cand)
    return out


@pytest.mark.parametrize(
    "name,expected",
    [("A2", (1, 1)), ("B2", (1, 2)), ("G2", (3, 1)), ("A3", (1, 1, 1)),
     ("A1xA1", (1, 1)), ("A1affine", (1, 1)), ("A1", (1,))],
)
def test_symmetrize_catalog(name, expected):
    C = catalog_matrix(name)
    d = symmetrize(C)
    assert d == expected
    # minimality oracle: exhaustive search over small positive vectors
    for other in _valid_symmetrizers(C):
        assert all(di <= oi for di, oi in zip(d, other))


def test_not_symmetrizable():
    C = validate_gcm([[2, -1, -2], [-2, 2, -1], [-1, -2, 2]])
    with pytest.raises(CartanError, match="not symmetrizable"):
        symmetrize(C)


@pytest.mark.parametrize(
    "name,expected",
    [("A2", (2, 0)), ("A1affine", (1, 1)), ("A1xA1", (2, 0)), ("A3", (3, 0)),
     ("B2", (2, 0)), ("G2", (2, 0)), ("A1", (1, 0))],
)
def test_rank_corank(name, expected):
    aux = quasi_inverse(catalog_matrix(name))
    assert (aux.rank, aux.corank) == expected


def _naive_rank(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


offdiag = st.integers(min_value=-3, max_value=0)


@given(st.tuples(offdiag, offdiag, offdiag), st.data())
@settings(max_examples=40, deadline=None)
def test_rank_matches_naive_elimination(uppers, data):
    # build a random symmetric 3×3 GCM (symmetric ⟹ always a valid GCM shape)
    a, b, c = uppers
    rows = [[2, a, b], [a, 2, c], [b, c, 2]]
    C = validate_gcm(rows)
    aux = quasi_inverse(C)
    r, l = aux.rank, aux.corank
    assert r == _naive_rank(rows)
    assert r + l == 3


def test_quasi_inverse_a2():
    aux = quasi_inverse(catalog_matrix("A2"))
    third = Fraction(1, 3)
    assert aux.Q == ((2 * third, third), (third, 2 * third))
    assert aux.left_kernel == () and aux.torus_complement == ()
    assert aux.dual_pairs[0][1] == (1, 0) and aux.dual_pairs[1][1] == (0, 1)
    assert aux.g == (3, 3)


def test_quasi_inverse_a1():
    aux = quasi_inverse(catalog_matrix("A1"))
    assert aux.Q == ((Fraction(1, 2),),)
    assert aux.g == (2,)


def test_quasi_inverse_affine():
    aux = quasi_inverse(catalog_matrix("A1affine"))
    assert aux.rank == 1 and aux.corank == 1
    assert aux.left_kernel == ((1, 1),)
    q1, m1 = aux.dual_pairs[0]
    assert m1 == (1, 0) and q1 == (Fraction(1, 2), Fraction(0))
    # complement must lie in the right kernel so that torus directions built
    # from it act trivially on the pairing coordinates
    (comp,) = aux.torus_complement
    C = aux.matrix
    assert all(sum(C[i, k] * comp[k] for k in range(2)) == 0 for i in range(2))
    assert aux.Q == ((Fraction(1, 2), Fraction(0)), (Fraction(1), Fraction(1)))
    assert aux.g == (2, 1)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_pairing_identity_catalog(name):
    aux = quasi_inverse(catalog_matrix(name))
    C, n = aux.matrix, aux.matrix.n
    for i, (q, _) in enumerate(aux.dual_pairs):
        for j, (_, m) in enumerate(aux.dual_pairs):
            val = sum(q[u] * sum(C[u, v] * m[v] for v in range(n)) for u in range(n))
            assert val == (1 if i == j else 0)
    if aux.corank == 0:
        for i in range(n):
            for j in range(n):
                assert sum(aux.Q[i][k] * C[k, j] for k in range(n)) == (1 if i == j else 0)
    assert len(aux.left_kernel) == aux.corank


@pytest.mark.parametrize(
    "name,g",
    [("A2", (3, 3)), ("A1", (2,)), ("G2", (1, 1)), ("B2", (2, 1)),
     ("A3", (4, 2, 4)), ("A1xA1", (2, 2)), ("A1affine", (2, 1))],
)
def test_lattice_scaling_catalog(name, g):
    aux = quasi_inverse(catalog_matrix(name))
    assert aux.g == g
    # g_j is minimal: some entry of column j times any smaller positive
    # integer stays non-integral
    for j, gj in enumerate(g):
        for smaller in range(1, gj):
            assert any((aux.Q[i][j] * smaller).denominator != 1 for i in range(len(aux.Q)))
    assert lattice_scaling(aux.Q) == g


def test_catalog_lookup():
    assert catalog_matrix("A1~").entries == catalog_matrix("A1affine").entries
    with pytest.raises(KeyError):
        catalog_matrix("E8")


# -- the one elimination over ℚ ------------------------------------------------
#
# The three routines below are the earlier, separate eliminations, kept as
# oracles: a fraction-free Bareiss rank, a cofactor determinant and a
# Gauss–Jordan inverse.


def _oracle_bareiss_rank(rows) -> int:
    m = [list(r) for r in rows]
    nr, nc = len(m), len(m[0])
    rank = 0
    prev = 1
    col = 0
    while rank < nr and col < nc:
        piv = None
        best = 0
        for r in range(rank, nr):
            if abs(m[r][col]) > best:
                best = abs(m[r][col])
                piv = r
        if piv is None or best == 0:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, nr):
            for c in range(col + 1, nc):
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        col += 1
    return rank


def _oracle_int_det(m):
    k = len(m)
    if k == 1:
        return m[0][0]
    total = 0
    for j in range(k):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * _oracle_int_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def _oracle_fraction_inverse(M):
    k = len(M)
    aug = [[Fraction(M[i][j]) for j in range(k)] + [Fraction(1 if j == i else 0) for j in range(k)] for i in range(k)]
    for col in range(k):
        piv, best = None, Fraction(0)
        for r in range(col, k):
            if abs(aug[r][col]) > best:
                best, piv = abs(aug[r][col]), r
        assert piv is not None and best, "singular matrix"
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


small_int = st.integers(min_value=-3, max_value=3)
square_int_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n)
)
int_matrices = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(
        st.lists(small_int, min_size=shape[1], max_size=shape[1]), min_size=shape[0], max_size=shape[0]
    )
)


@given(int_matrices)
@settings(max_examples=150, deadline=None)
def test_elimination_rank_matches_bareiss(rows):
    _, pivots, _ = _eliminate(rows)
    assert len(pivots) == _oracle_bareiss_rank(rows)
    # pivots name distinct original rows in strictly increasing columns
    assert len({i for i, _ in pivots}) == len(pivots)
    assert [c for _, c in pivots] == sorted({c for _, c in pivots})


@given(square_int_matrices)
@settings(max_examples=150, deadline=None)
def test_elimination_det_and_inverse_match_the_oracles(rows):
    det = _oracle_int_det(rows)
    assert _eliminate(rows)[2] == det
    if det:
        assert _inverse(rows) == _oracle_fraction_inverse(rows)
    else:
        with pytest.raises(CartanError, match="singular matrix"):
            _inverse(rows)


def _as_sympy(rows):
    return [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@given(int_matrices)
@settings(max_examples=60, deadline=None)
def test_elimination_matches_sympy(rows):
    M = sympy.Matrix(rows)
    reduced, pivots, det = _eliminate(rows)
    assert len(pivots) == M.rank()
    assert _as_sympy(reduced) == M.rref()[0].tolist()
    if M.rows == M.cols:
        assert _as_sympy([[det]]) == [[M.det()]]
        if det:
            assert _as_sympy(_inverse(rows)) == M.inv().tolist()


def test_singular_pivot_column_is_skipped_and_det_is_zero():
    reduced, pivots, det = _eliminate([[0, 2, 4], [0, 1, 3]])
    assert pivots == [(0, 1), (1, 2)] and det == 0
    assert reduced == [[0, 1, 0], [0, 0, 1]]


# Gauss–Jordan over `Fraction`s, as `_eliminate` computed it before it moved
# to integer rows over one denominator: the same pivot rule and results.
def _oracle_fraction_eliminate(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    order = list(range(len(m)))
    pivots = []
    det = Fraction(1)
    for col in range(len(m[0]) if m else 0):
        k = len(pivots)
        if k == len(m):
            break
        piv = max(range(k, len(m)), key=lambda t: abs(m[t][col]))
        if not m[piv][col]:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            order[k], order[piv] = order[piv], order[k]
            det = -det
        pivot = m[k][col]
        det *= pivot
        m[k][col:] = [x / pivot for x in m[k][col:]]
        for t, row in enumerate(m):
            if t != k and row[col]:
                f = row[col]
                row[col:] = [a - f * b for a, b in zip(row[col:], m[k][col:])]
        pivots.append((order[k], col))
    if [c for _, c in pivots] != list(range(len(m))):
        det = Fraction(0)
    return m, pivots, det


F = Fraction
rational_entries = st.one_of(
    small_int,
    st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6)),
)
rational_matrices = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(
        st.lists(rational_entries, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


@given(rational_matrices)
@example([[F(1, 2), F(1, 3)], [F(-1, 2), 1]])  # a tie over denominators 6 and 2: row 0 wins
@example([[F(2, 3), F(1, 5)], [F(3, 4), 1]])  # 3/4 beats 10/15 with the smaller numerator
@example([[0, F(1, 2), 1], [0, F(1, 3), F(2, 5)]])  # an all-zero column
@example([[F(1, 2), 1, 3], [0, 0, 0], [1, F(-2, 3), 0]])  # a zero row
@settings(max_examples=200, deadline=None)
def test_rational_rows_match_the_fraction_oracle(rows):
    reduced, pivots, det = _eliminate(rows)
    assert (reduced, pivots, det) == _oracle_fraction_eliminate(rows)
    assert all(type(x) is Fraction for row in reduced for x in row)
    assert type(det) is Fraction


def test_the_pivot_tie_and_the_larger_value_are_decided_exactly():
    assert _eliminate([[F(1, 2), F(1, 3)], [F(-1, 2), 1]])[1][0] == (0, 0)
    assert _eliminate([[F(2, 3), F(1, 5)], [F(3, 4), 1]])[1][0] == (1, 0)


_FRACTION_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__abs__", "__neg__", "__bool__", "__lt__", "__gt__",
)


def test_the_elimination_does_no_fraction_arithmetic(monkeypatch):
    inside, seen = [False], []
    for name in _FRACTION_OPERATORS:
        def counted(*args, _op=getattr(Fraction, name), _name=name):
            seen.append((_name, inside[0]))
            return _op(*args)

        monkeypatch.setattr(Fraction, name, counted)
    eliminate, calls = cartan._eliminate, []

    def flagged(rows):
        calls.append(len(rows))
        inside[0] = True
        try:
            return eliminate(rows)
        finally:
            inside[0] = False

    monkeypatch.setattr(cartan, "_eliminate", flagged)
    assert Fraction(1, 2) * 3 == Fraction(3, 2) and seen == [("__mul__", False)]
    quasi_inverse(validate_gcm(_finite_a(9)))
    quasi_inverse(validate_gcm(_affine_a(8)))
    cartan._eliminate([[F(1, 2), F(-2, 3), 1], [F(3, 4), 2, F(1, 5)], [0, F(5, 7), F(-1, 3)]])
    # A9: [C | I] and the unimodularity check; Ã8 adds the pairing rows and
    # their inverse; then the rational rows
    assert len(calls) == 7
    assert [name for name, flag in seen if flag] == []


@given(int_matrices)
@example([[0, 0], [0, 0]])
@example([[1, 2, 3], [2, 4, 6]])  # rank 1 of 3 columns
@example([[2, -2], [-2, 2]])  # A1affine
@settings(max_examples=150, deadline=None)
def test_column_reduction_is_unimodular_and_echelon(rows):
    image, kernel, reduced = _column_reduce(rows)
    nr, nc = len(rows), len(rows[0])
    assert len(image) == len(reduced) == _oracle_bareiss_rank(rows)
    assert len(image) + len(kernel) == nc
    assert abs(_eliminate(image + kernel)[2]) == 1  # V is unimodular

    def times(v):
        return tuple(sum(rows[i][j] * v[j] for j in range(nc)) for i in range(nr))

    assert all(times(v) == (0,) * nr for v in kernel)
    assert [times(v) for v in image] == reduced
    # echelon: each column starts at a later row than the one before, positively
    starts = [next(i for i, x in enumerate(col) if x) for col in reduced]
    assert starts == sorted(set(starts))
    assert all(col[i] > 0 for col, i in zip(reduced, starts))


def test_affine_g2_quasi_inverse_follows_the_pivot_rule():
    # the pairing rows come from the first entry of largest absolute value;
    # first-nonzero pivoting would give the row (2, 1, 0) instead
    aux = quasi_inverse(validate_gcm([[2, -1, 0], [-1, 2, -1], [0, -3, 2]]))
    F = Fraction
    assert aux.Q == (
        (F(1), F(0), F(0)),
        (F(3, 2), F(0), F(-1, 2)),
        (F(1), F(2), F(1)),
    )
    assert [m for _, m in aux.dual_pairs] == [(0, -1, 0), (0, 0, -1)]
    assert aux.left_kernel == ((1, 2, 1),) and aux.torus_complement == ((1, 2, 3),)
    assert aux.g == (2, 1, 2)


def _finite_a(n):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]


def _affine_a(n):
    k = n + 1
    return [[2 if i == j else (-1 if (i - j) % k in (1, k - 1) else 0) for j in range(k)] for i in range(k)]


def test_analyze_affine_a11_satisfies_the_pairing_identities():
    C = validate_gcm(_affine_a(11))
    report, status = run(JobSpec(command="analyze", matrix=C, matrix_name="A11~"))
    assert status == 0 and report["passed"]
    derived = report["derived"]
    assert derived["rank"] == 11 and derived["corank"] == 1
    Q = [[Fraction(x) for x in row] for row in derived["quasi_inverse_rows"]]
    ms = derived["dual_directions"]
    for i in range(11):
        for j in range(11):
            pair = sum(Q[i][u] * sum(C[u, v] * ms[j][v] for v in range(12)) for u in range(12))
            assert pair == (1 if i == j else 0)
    (w,) = derived["left_kernel"]
    assert all(sum(w[i] * C[i, j] for i in range(12)) == 0 for j in range(12))


def _tampered_aux():
    aux = quasi_inverse(catalog_matrix("A2"))
    (q0, _), rest = aux.dual_pairs[0], aux.dual_pairs[1:]
    return dataclasses.replace(aux, dual_pairs=((q0, (2, 0)),) + rest)


def test_a_tampered_m_vector_is_rejected():
    with pytest.raises(CartanError, match="dual pairing identity failed"):
        _check_aux(_tampered_aux())


def _tampered_q_aux():
    aux = quasi_inverse(catalog_matrix("A2"))
    (q0, m0), rest = aux.dual_pairs[0], aux.dual_pairs[1:]
    q0 = (q0[0] + Fraction(1, 7),) + q0[1:]
    return dataclasses.replace(aux, dual_pairs=((q0, m0),) + rest)


def test_a_tampered_rational_q_is_rejected():
    with pytest.raises(CartanError, match="dual pairing identity failed"):
        _check_aux(_tampered_q_aux())
    aux = quasi_inverse(validate_gcm(_affine_a(2)))
    assert aux.corank == 1
    (q0, m0), rest = aux.dual_pairs[0], aux.dual_pairs[1:]
    doubled = dataclasses.replace(aux, dual_pairs=((tuple(2 * x for x in q0), m0),) + rest)
    with pytest.raises(CartanError, match="dual pairing identity failed"):
        _check_aux(doubled)


def test_cartan_checks_still_run_under_python_O():
    script = (
        "import sys, test_cartan as t\n"
        "print(sys.flags.optimize)\n"
        "try:\n"
        "    t._check_aux(t._tampered_aux())\n"
        "except t.CartanError as exc:\n"
        "    print(exc)\n"
        "try:\n"
        "    t._check_aux(t._tampered_q_aux())\n"
        "except t.CartanError as exc:\n"
        "    print(exc)\n"
    )
    src = Path(borelweyl.__file__).resolve().parents[1]
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(here)]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.splitlines() == ["1"] + ["dual pairing identity failed"] * 2
