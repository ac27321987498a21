"""Exact arithmetic kernel: canonical forms, ring axioms, shift and scale kernels."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import borelweyl
from borelweyl import exact
from borelweyl.biproduct import NCPoly, build_rules, normal_form
from borelweyl.cartan import catalog_matrix, quasi_inverse, validate_gcm
from borelweyl.datum import solve_beta
from borelweyl.exact import (
    MLaurent,
    PolyFrac,
    QQ_ONE,
    QQ_ZERO,
    QScalar,
    poly_div_exact,
    q_binom,
    q_power,
)
from borelweyl.exact.endo import scale, shift
from borelweyl.exact import qq
from borelweyl.exact.laurent import _accumulate
from borelweyl.exact.qq import InexactDivisionError, _pdiv_exact, _pgcd, _pgcd_euclid, _pmul
from conftest import evaluate_laurent, evaluate_q

try:
    import sympy
except ImportError:  # the oracle tests skip; pip install -e ".[test]" brings sympy
    sympy = None


def test_rational_arithmetic():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(2, 4) == Fraction(1, 2)


# -- QScalar -----------------------------------------------------------------


def test_qscalar_reduction():
    # (q^2 - 1)/(q - 1) = q + 1
    a = QScalar((-1, 0, 1), (-1, 1))
    assert a == QScalar((1, 1))
    # (q - 1)/(q + 1) * (q + 1) = q - 1
    b = QScalar((-1, 1), (1, 1)) * QScalar((1, 1))
    assert b == QScalar((-1, 1))


def test_qscalar_denominator_sign():
    a = QScalar((1,), (-2,))
    assert a.den == (2,) and a.num == (-1,)
    assert a == QScalar((-1,), (2,))


def test_qscalar_zero_and_one():
    z = QScalar(())
    assert not z and z + QQ_ONE == QQ_ONE
    with pytest.raises(ZeroDivisionError):
        QQ_ONE / z
    with pytest.raises(ZeroDivisionError):
        QScalar((1,), ())


def test_qscalar_powers():
    assert q_power(3) * q_power(-3) == QQ_ONE
    assert q_power(-2) == QQ_ONE / q_power(2)
    assert (q_power(1) - q_power(-1)) * q_power(1) == QScalar((-1, 0, 1), (0, 1)) * q_power(1)


def test_q_integers():
    def q_int(m, d=1):
        """Balanced q-integer [m]_{q^d} = (q^{dm} − q^{−dm})/(q^d − q^{−d})."""
        return (q_power(d * m) - q_power(-d * m)) / (q_power(d) - q_power(-d))

    # balanced convention: [2] = q + q^-1, [3] = q^2 + 1 + q^-2
    assert q_int(2) == q_power(1) + q_power(-1)
    assert q_int(3) == q_power(2) + QQ_ONE + q_power(-2)
    assert q_int(2, d=2) == q_power(2) + q_power(-2)
    # the q-Pascal rule against the factorial formula
    for m in range(9):
        for d in (1, 2, 3):
            assert q_binom(m, -1, d) == q_binom(m, m + 1, d) == QQ_ZERO
            for k in range(m + 1):
                want = QQ_ONE
                for j in range(1, k + 1):
                    want = want * q_int(m - k + j, d) / q_int(j, d)
                assert q_binom(m, k, d) == want, (m, k, d)


small_ints = st.integers(min_value=-4, max_value=4)
zpolys = st.lists(small_ints, min_size=0, max_size=4).map(tuple)
qscalars = st.tuples(zpolys, zpolys).filter(lambda t: any(t[1])).map(lambda t: QScalar(t[0], t[1]))


@given(qscalars, qscalars, qscalars)
@settings(max_examples=60, deadline=None)
def test_qscalar_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


@given(qscalars, qscalars)
@settings(max_examples=60, deadline=None)
def test_qscalar_evaluation_homomorphism(a, b):
    # specializing q to a rational commutes with field operations
    at = Fraction(7, 3)
    assume(any(a.den) and any(b.den))
    assume(evaluate_q(a, at) is not None)
    assert evaluate_q(a + b, at) == evaluate_q(a, at) + evaluate_q(b, at)
    assert evaluate_q(a * b, at) == evaluate_q(a, at) * evaluate_q(b, at)
    if b:
        assume(evaluate_q(b, at) != 0)
        assert evaluate_q(a / b, at) == evaluate_q(a, at) / evaluate_q(b, at)


def test_exact_division_raises_on_a_remainder():
    assert _pdiv_exact((-1, 0, 1), (1, 1)) == (-1, 1)
    assert _pdiv_exact((0, 0, 6, 4), (0, 2)) == (0, 3, 2)
    assert issubclass(InexactDivisionError, ArithmeticError)
    for a, b in [
        ((1, 0, 1), (1, 1)),  # q² + 1 by q + 1
        ((1, 1), (0, 1)),  # q + 1 by q
        ((1, 3), (2,)),  # odd content by 2
        ((1, 1), (1, 0, 1)),  # lower degree than the divisor
        ((1, 0, 1), (2, 2)),  # the leading coefficient does not divide
    ]:
        with pytest.raises(InexactDivisionError):
            _pdiv_exact(a, b)
    with pytest.raises(ZeroDivisionError):
        _pdiv_exact((1,), ())


def test_exact_division_raises_under_python_O():
    script = (
        "import sys\n"
        "from borelweyl.exact.qq import InexactDivisionError, _pdiv_exact\n"
        "print(sys.flags.optimize)\n"
        "try:\n"
        "    _pdiv_exact((1, 0, 1), (1, 1))\n"
        "except InexactDivisionError as exc:\n"
        "    print(type(exc).__name__)\n"
    )
    src = Path(borelweyl.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.splitlines() == ["1", "InexactDivisionError"]


def test_shape_checks_raise_under_python_O():
    script = (
        "import sys\n"
        "from borelweyl.exact import MLaurent, PolyFrac, QQ_ONE\n"
        "from borelweyl.exact.endo import scale, shift\n"
        "print(sys.flags.optimize)\n"
        "h, k_inv = MLaurent.var(2, 0), MLaurent.var(1, 0, -1, one=QQ_ONE)\n"
        "for build in (\n"
        "    lambda: MLaurent(2, {(1,): 1}),\n"
        "    lambda: shift(h, (1,)),\n"
        "    lambda: scale(h, (1, 0, 0)),\n"
        "    lambda: shift(k_inv, (1,)),\n"
        "    lambda: PolyFrac(h, h + 1),\n"
        "):\n"
        "    try:\n"
        "        build()\n"
        "    except (ValueError, ArithmeticError) as exc:\n"
        "        print(type(exc).__name__, exc)\n"
    )
    src = Path(borelweyl.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.splitlines() == [
        "1",
        "ValueError exponent vector has wrong length",
        "ValueError 1 values for 2 variables",
        "ValueError a scaling of 3 variables applied to 2",
        "ArithmeticError substitution into Laurent exponents",
        "ArithmeticError a fraction must be a polynomial or a constant over a polynomial",
    ]


def test_malformed_polynomial_arithmetic_raises():
    x, y = _h(0), _h(1)
    k_inv = MLaurent.var(2, 0, -1)
    with pytest.raises(ValueError, match="mixed variable counts"):
        x + MLaurent.var(1, 0)
    with pytest.raises(ValueError, match="not a single term"):
        (x + y).single_term()
    with pytest.raises(ArithmeticError, match="Laurent exponents"):
        k_inv.substitute([x, y])
    with pytest.raises(ValueError, match="1 values for 2 variables"):
        x.substitute([y])
    with pytest.raises(ZeroDivisionError):
        poly_div_exact(x, MLaurent.zero(2))
    with pytest.raises(ArithmeticError, match="constant over a polynomial"):
        PolyFrac(x, y)
    with pytest.raises(ArithmeticError, match="constant over a polynomial"):
        PolyFrac(MLaurent.const(2, Fraction(1)), y) * x
    with pytest.raises(ValueError, match="mixed variable counts"):
        PolyFrac(x, MLaurent.var(1, 0))
    with pytest.raises(ValueError, match="1 values for 2 variables"):
        shift(x, (1,))
    with pytest.raises(ValueError, match="a scaling of 1 variables applied to 2"):
        scale(x, (1,))


def test_pgcd_heuristic_needs_both_divisions_and_the_xi_bound():
    # at ξ = 4, gcd((q + 1)(4), (q − 9)(4)) = 5 reads back as q + 1, which
    # divides only the first input; the next point finds the true gcd 1
    assert _pgcd((1, 1), (-9, 1)) == (1,)
    # the gcd of q² − 4 and q² − q − 2 is q − 2, which the bound's ξ = 6 reads
    # off 4 = gcd(32, 28); at ξ = 3 the values 5 and 4 give the candidate 1,
    # which divides both, so below the bound exact division proves nothing
    assert _pgcd((-4, 0, 1), (-2, -1, 1)) == (-2, 1)


# sympy oracle for the canonical form: inputs of degree up to about 40 that
# share a planted factor c·q^k·Φ_{n1}·Φ_{n2}·Φ_{n3} (cyclotomics Φ_2 … Φ_12)

_Q = sympy.Symbol("q") if sympy else None


def _to_sympy(a):
    return sympy.Poly(list(reversed(a)) or [0], _Q, domain="ZZ")


def _from_sympy(p):
    cs = [int(c) for c in reversed(p.all_coeffs())]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _cyclotomic_product(indices):
    h = sympy.Poly(1, _Q, domain="ZZ")
    for n in indices:
        h = h * sympy.Poly(sympy.cyclotomic_poly(n, _Q), _Q, domain="ZZ")
    return h


def _planted_pair(data):
    content, shift, indices, u, v, su, sv = data
    h = sympy.Poly(content * _Q**shift, _Q, domain="ZZ") * _cyclotomic_product(indices)
    a = h * _to_sympy(u) * sympy.Poly(_Q**su, _Q, domain="ZZ")
    b = h * _to_sympy(v) * sympy.Poly(_Q**sv, _Q, domain="ZZ")
    return a, b


def _primitive_q_free(p):
    a = _from_sympy(p.primitive()[1])
    k = next(i for i, c in enumerate(a) if c)
    return a[k:]


def _positive(p):
    return -p if p.LC() < 0 else p


def _canonical_by_sympy(num, den):
    """(num, den) of num/den reduced by sympy, with a positive leading coefficient."""
    num, den = num.cancel(den, include=True)
    if den.LC() < 0:
        num, den = -num, -den
    return _from_sympy(num), _from_sympy(den)


_cofactors = st.lists(st.integers(-9, 9), min_size=1, max_size=13).filter(any).map(tuple)
_planted = st.tuples(
    st.integers(1, 6),
    st.integers(0, 3),
    st.lists(st.integers(2, 12), max_size=3),
    _cofactors,
    _cofactors,
    st.integers(0, 2),
    st.integers(0, 2),
)
_needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")


@_needs_sympy
@given(_planted)
@settings(max_examples=80, deadline=None)
def test_pgcd_matches_sympy(data):
    a, b = _planted_pair(data)
    assert _pgcd(_from_sympy(a), _from_sympy(b)) == _from_sympy(_positive(sympy.gcd(a, b)))


@_needs_sympy
@given(_planted)
# constant pairs such as a = b: sympy.cancel((a, b)) returns plain integers there,
# unreduced, so the oracle is the Poly method, which reduces them
@example(data=(1, 0, [], (1,), (1,), 0, 0))
@example(data=(1, 0, [], (2,), (2,), 0, 0))
@settings(max_examples=80, deadline=None)
def test_qscalar_canonical_form_matches_sympy_cancel(data):
    a, b = _planted_pair(data)
    x = QScalar(_from_sympy(a), _from_sympy(b))
    assert (x.num, x.den) == _canonical_by_sympy(a, b)


def _fraction(content, u, v):
    """Planted-pair data for content·u / content·v, each cofactor a dense tuple."""
    return (content, 0, [], u, v, 0, 0)


_Q2_MINUS_1 = (-1, 0, 1)  # q² − 1 = (q − 1)(q + 1)


@_needs_sympy
@given(_planted, _planted, st.lists(st.integers(2, 12), max_size=2))
# b = d, with gcd(a + c, b) = 1 and then q + 1
@example(_fraction(1, (1,), (1, 1)), _fraction(1, (1,), (1, 1)), [])
@example(_fraction(1, (1,), _Q2_MINUS_1), _fraction(1, (0, 1), _Q2_MINUS_1), [])
@example(_fraction(1, (1,), (1, 1)), _fraction(2, (1,), (2, 1)), [])  # coprime denominators
# b = (q − 1)(q + 1), d = (q − 1)(q + 2): g = q − 1 and t = 2(q + 2) − 3(q + 1), so g₂ = g
@example(_fraction(1, (2,), _Q2_MINUS_1), _fraction(1, (-3,), (-2, 1, 1)), [])
@example(_fraction(1, (1,), _Q2_MINUS_1), _fraction(3, (-1,), _Q2_MINUS_1), [])  # sum is 0
@example(_fraction(1, (1, 1), (2, 1)), _fraction(1, (0,), (1, 1)), [])  # a product with zero
# (q + 1)/(q + 2) · (q + 2)(q + 3)/((q + 1)(q + 4)): both cross gcds are linear
@example(_fraction(1, (1, 1), (2, 1)), _fraction(1, (6, 5, 1), (4, 5, 1)), [])
@settings(max_examples=80, deadline=None)
def test_fraction_arithmetic_matches_sympy_cancel(left, right, shared):
    # the cyclotomics in `shared` divide both denominators, so g = gcd(b, d) ≠ 1 is common
    h = _cyclotomic_product(shared)
    (a, b), (c, d) = _planted_pair(left), _planted_pair(right)
    b, d = b * h, d * h
    x = QScalar(_from_sympy(a), _from_sympy(b))
    y = QScalar(_from_sympy(c), _from_sympy(d))
    for got, num, den in ((x + y, a * d + c * b, b * d), (x - y, a * d - c * b, b * d), (x * y, a * c, b * d)):
        assert (got.num, got.den) == _canonical_by_sympy(num, den)
    if y:
        assert ((x / y).num, (x / y).den) == _canonical_by_sympy(a * d, b * c)


@_needs_sympy
@given(_planted)
@settings(max_examples=40, deadline=None)
def test_euclid_fallback_matches_sympy(data):
    # the heuristic falls back to this when its evaluation points run out
    a, b = (_primitive_q_free(p) for p in _planted_pair(data))
    expected = _positive(sympy.gcd(_to_sympy(a), _to_sympy(b)))
    assert _pgcd_euclid(a, b) == _from_sympy(expected)


# small integer polynomials of degree 1 to 3, lowest coefficient first
_small_polys = st.lists(st.integers(-4, 4), min_size=2, max_size=4).filter(lambda c: c[-1] != 0)


@_needs_sympy
@given(_small_polys, _small_polys, _small_polys)
@settings(max_examples=80, deadline=None)
def test_pgcd_through_the_euclid_fallback_matches_sympy(f, u, v):
    # with no evaluation point left, every q-free pair of primitive parts of
    # degree ≥ 1 goes from the heuristic to Euclid; the products of primitive
    # polynomials are primitive, and so is their gcd
    f, u, v = (_to_sympy(c).primitive()[1] for c in (f, u, v))
    a, b = f * u, f * v
    expected = _from_sympy(_positive(sympy.gcd(a, b).primitive()[1]))
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(qq, "_HEURISTIC_POINTS", 0)
        assert _pgcd(_from_sympy(a), _from_sympy(b)) == expected


def _q_to(k):
    return (0,) * k + (1,)


# integer numerators, zero included, times q^s so that some are divisible by q
_laurent_parts = st.tuples(
    st.lists(st.integers(-9, 9), max_size=6).map(tuple), st.integers(0, 3), st.integers(0, 4)
).map(lambda t: ((0,) * t[1] + t[0], t[2]))


@_needs_sympy
@given(_laurent_parts, _laurent_parts)
@example(((), 2), ((0, 0, 5), 3))  # zero, and a numerator divisible by q^2
@example(((0, 0, -4), 2), ((1,), 0))  # cancels to a constant
@settings(max_examples=80, deadline=None)
def test_laurent_elements_over_q_power_match_sympy_cancel(a, b):
    (na, ka), (nb, kb) = a, b
    x, y = QScalar(na, _q_to(ka)), QScalar(nb, _q_to(kb))
    sa, sb = _to_sympy(na), _to_sympy(nb)
    qa, qb = _to_sympy(_q_to(ka)), _to_sympy(_q_to(kb))
    assert (x.num, x.den) == _canonical_by_sympy(sa, qa)
    for got, num in ((x + y, sa * qb + sb * qa), (x - y, sa * qb - sb * qa), (x * y, sa * sb)):
        assert (got.num, got.den) == _canonical_by_sympy(num, qa * qb)
    if y:
        assert ((x / y).num, (x / y).den) == _canonical_by_sympy(sa * qb, qa * sb)


def _pgcd_args(monkeypatch, make):
    """make() and the argument pairs of every _pgcd call it made."""
    calls = []
    original = exact.qq._pgcd

    def recorded(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(exact.qq, "_pgcd", recorded)
    try:
        return make(), calls
    finally:
        monkeypatch.setattr(exact.qq, "_pgcd", original)


def _pgcd_calls(monkeypatch, make):
    x, calls = _pgcd_args(monkeypatch, make)
    return x, len(calls)


@_needs_sympy
@pytest.mark.parametrize("num, den", [((0, 4, 2), (0, 0, 2)), ((0, 4, 2), (0, 0, -1)), ((3, 0, -6), (-2,))])
def test_a_q_power_denominator_up_to_a_unit_still_takes_the_gcd(monkeypatch, num, den):
    # a q-power denominator takes the gcd like any other; 2·q^k and −q^k lose their content or sign there
    x, calls = _pgcd_calls(monkeypatch, lambda: QScalar(num, den))
    assert calls >= 1
    assert (x.num, x.den) == _canonical_by_sympy(_to_sympy(num), _to_sympy(den))


def test_laurent_negation_and_inverse_make_no_gcd(monkeypatch):
    x = QScalar((1, 0, -3), _q_to(2))  # q^-2 − 3
    y = QScalar((0, 2, 5), _q_to(1))  # 2 + 5q
    for make in (lambda: -x, lambda: x.inverse()):
        assert _pgcd_calls(monkeypatch, make)[1] == 0
    # the counter does see a real fraction
    fraction = QScalar((1, 1), (-1, 0, 1))
    assert _pgcd_calls(monkeypatch, lambda: fraction * y)[1] >= 1


@pytest.mark.parametrize(
    "x, y",
    [
        (QScalar((1, 1), (-2, 1, 1)), QScalar((3, 1), (-1, 0, 1))),  # denominators share q − 1
        (QScalar((1, 1), (2, 1)), QScalar((5,), (1, 0, 1))),  # coprime denominators
        (QScalar((0, 1), (2, 4, 2)), QScalar((1, 1, 1), (6,))),  # shared content 2
    ],
)
def test_fraction_arithmetic_never_takes_a_gcd_with_the_full_denominator_product(monkeypatch, x, y):
    # Henrici: the gcds of a sum or product see the operands' parts, never b·d
    full = _pmul(x.den, y.den)
    for make in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y):
        calls = _pgcd_args(monkeypatch, make)[1]
        assert calls
        assert all(full not in args for args in calls), calls


def test_a_unit_numerator_takes_no_gcd_work(monkeypatch):
    # gcd(±1, x) = 1 comes back before any content or power of q is taken
    x, y = QScalar((1,), (1, 1)), QScalar((-1,), (2, 1))  # 1/(1 + q), −1/(2 + q)
    z, w = QScalar((3,), (1, 1)), QScalar((-2,), (1, 1))
    contents = []
    original = exact.qq._pcontent
    monkeypatch.setattr(exact.qq, "_pcontent", lambda a: contents.append(a) or original(a))
    assert x * y == QScalar((-1,), (2, 3, 1))  # both cross gcds have a unit numerator
    assert z + w == x  # the sum's numerator 3 − 2 is a unit
    assert contents == []
    # the counter does see a gcd of two longer parts
    assert QScalar((1, 1), (2, 1)) * QScalar((2, 1), (1, 1)) == QQ_ONE
    assert contents


@_needs_sympy
@given(_planted, st.fractions(max_denominator=12))
@example(data=(1, 0, [], (3,), (4,), 0, 0), f=Fraction(3, 4))  # equal to the fraction
@example(data=(2, 1, [2], (1, 1), (2, 0, 1), 0, 1), f=Fraction(-3, 4))
@example(data=(1, 0, [3], (1,), (5, 1), 0, 0), f=Fraction(0))
@settings(max_examples=40, deadline=None)
def test_fraction_operands_match_sympy_cancel(data, f):
    # a Fraction on either side goes through QScalar.from_int's Fraction branch
    a, b = _planted_pair(data)
    x = QScalar(_from_sympy(a), _from_sympy(b))
    n, m = f.numerator, f.denominator
    for got in (x + f, f + x):
        assert (got.num, got.den) == _canonical_by_sympy(a * m + b * n, b * m)
    for got in (x * f, f * x):
        assert (got.num, got.den) == _canonical_by_sympy(a * n, b * m)
    same = (x.num, x.den) == _canonical_by_sympy(_to_sympy((n,)), _to_sympy((m,)))
    assert (x == f) is (f == x) is same


def test_a_quantum_normal_form_scales_by_a_fraction():
    R = build_rules(quasi_inverse(catalog_matrix("B2")), mode="quantum")
    nf = normal_form(R.poly(("F2", "F1", "E2", "E1")), R)
    half = Fraction(1, 2)
    scaled = NCPoly({w: half * c for w, c in nf.terms.items()})
    assert scaled == NCPoly({w: QScalar.from_int(half) * c for w, c in nf.terms.items()})
    assert scaled == normal_form(R.poly(("F2", "F1", "E2", "E1"), half), R)
    assert scaled != nf and scaled + scaled == nf
    assert all(isinstance(c, QScalar) for c in scaled.terms.values())


@given(qscalars)
@settings(max_examples=40, deadline=None)
def test_products_by_one_return_the_other_operand(x):
    assert x * QQ_ONE == x and QQ_ONE * x == x
    assert x * 1 == x and 1 * x == x
    y = QScalar((1, 1), (0, 1))
    assert y * QScalar((2,), (2,)) is y and QQ_ONE * y is y  # no product is formed


_rationals = st.one_of(small_ints, st.fractions(max_denominator=6))


@given(st.one_of(qscalars, _rationals), _rationals)
@example(x=QQ_ONE, f=1)
@example(x=QScalar((1,), (2,)), f=Fraction(1, 2))
@example(x=QQ_ZERO, f=0)
@settings(max_examples=80, deadline=None)
def test_equal_scalars_hash_alike(x, f):
    x = x if isinstance(x, QScalar) else QScalar.from_int(x)
    if x == f:
        assert hash(x) == hash(f), (x, f)
    assert hash(QScalar.from_int(f)) == hash(f)
    assert len({QQ_ONE, 1}) == 1 and len({QScalar((1,), (2,)), Fraction(1, 2)}) == 1


@given(_rationals, qscalars)
@example(f=1, x=QQ_ONE)
@example(f=1, x=q_power(1))
@example(f=Fraction(-3, 2), x=QScalar((0, 2), (1,)))
@settings(max_examples=80, deadline=None)
def test_a_rational_on_the_left_acts_as_its_qscalar(f, x):
    # int and Fraction defer to QScalar's reflected operators for + - * /
    y = QScalar.from_int(f)
    results = [f + x, f - x, f * x] + ([f / x] if x else [])
    expected = [y + x, y - x, y * x] + ([y / x] if x else [])
    assert results == expected
    assert all(isinstance(r, QScalar) for r in results)
    if not x:
        with pytest.raises(ZeroDivisionError):
            f / x


# -- the job memo --------------------------------------------------------------


def _bracket(d):
    """q^d/(q^{2d} − 1), the balanced bracket's reciprocal shape."""
    return QScalar(_q_to(d), (-1,) + (0,) * (2 * d - 1) + (1,))


_big_polys = st.lists(st.integers(-9, 9), min_size=8, max_size=10).filter(lambda c: c[-1] != 0)
_memo_scalars = st.one_of(
    qscalars,
    _laurent_parts.map(lambda t: QScalar(t[0], _q_to(t[1]))),
    st.integers(1, 3).map(_bracket),
    st.tuples(_big_polys, _big_polys).map(lambda t: QScalar(t[0], t[1])),  # above the size bound
)
_memo_operands = st.one_of(_memo_scalars, _rationals)


def _outcomes(pairs):
    out = []
    for x, y in pairs:
        values = [x + y, y + x, x - y, x * y, y * x] + ([x / y] if y else [])
        out.append([(v.num, v.den) for v in values])
    return out


@given(st.lists(st.tuples(_memo_scalars, _memo_operands), min_size=1, max_size=6))
@example([(_bracket(1), _bracket(1)), (_bracket(2), q_power(-1))])
@settings(max_examples=80, deadline=None)
def test_memoised_sums_and_products_equal_the_unmemoised_ones(pairs):
    want = _outcomes(pairs)
    with qq.job_memo():
        assert _outcomes(pairs) == want
        sizes = [len(table) for table in qq._MEMO.get()]
        assert _outcomes(pairs) == want  # the repeat is answered by the memo
        assert [len(table) for table in qq._MEMO.get()] == sizes
    assert qq._MEMO.get() is None


def test_the_memo_closes_on_a_raise():
    with pytest.raises(ZeroDivisionError), qq.job_memo():
        assert qq._MEMO.get() == ({}, {})
        _bracket(1) / QQ_ZERO
    assert qq._MEMO.get() is None


def test_the_memo_stores_no_key_above_the_size_bound(monkeypatch):
    # a G2 quantum rewrite grows coefficients past the bound; those stay out of the memo
    R = build_rules(quasi_inverse(catalog_matrix("G2")), mode="quantum")
    sizes, original = [], qq._mul

    def counted(a, b, c, d):
        sizes.append(len(a) + len(b) + len(c) + len(d))
        return original(a, b, c, d)

    monkeypatch.setattr(qq, "_mul", counted)
    with qq.job_memo():
        normal_form(R.poly(("F2", "F2", "E1", "E2", "E2", "F1", "E1", "F1", "E2", "F2")), R)
        sums, products = qq._MEMO.get()
    assert max(sizes) > qq._MEMO_MAX_COEFFS
    assert sums and products
    assert all(sum(map(len, key)) <= qq._MEMO_MAX_COEFFS for key in [*sums, *products])


# -- MLaurent ----------------------------------------------------------------


def _h(i, n=2):
    return MLaurent.var(n, i)


def test_base_ring_commutes():
    h1, h2 = _h(0), _h(1)
    assert h1 * h2 - h2 * h1 == MLaurent.zero(2)


def test_laurent_monomial_inverse():
    k = MLaurent.var(1, 0, one=QQ_ONE)
    assert k ** (-1) * k == MLaurent.const(1, QQ_ONE)
    with pytest.raises(ArithmeticError, match="non-monomial"):
        (k + MLaurent.const(1, QQ_ONE)) ** (-1)


def test_mlaurent_substitute():
    h1, h2 = _h(0), _h(1)
    p = h1**2 + h2
    q = p.substitute([h1 + h2, h2])
    assert q == (h1 + h2) ** 2 + h2
    # into another number of variables
    t = MLaurent.var(1, 0)
    assert p.substitute([t, t + 1]) == t**2 + t + 1


exps = st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys2 = st.dictionaries(exps, fracs, max_size=4).map(lambda d: MLaurent(2, d))


@given(polys2, polys2, polys2)
@settings(max_examples=60, deadline=None)
def test_mlaurent_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(polys2, polys2)
@settings(max_examples=40, deadline=None)
def test_mlaurent_evaluation_homomorphism(a, b):
    pt = [Fraction(3, 2), Fraction(-2, 5)]
    assert evaluate_laurent(a + b, pt) == evaluate_laurent(a, pt) + evaluate_laurent(b, pt)
    assert evaluate_laurent(a * b, pt) == evaluate_laurent(a, pt) * evaluate_laurent(b, pt)


# -- fractions -----------------------------------------------------------------


def test_polyfrac_canonical():
    x, y = _h(0), _h(1)
    # a fraction whose denominator divides its numerator is a polynomial
    f = PolyFrac(x * x - y * y, x - y)
    assert isinstance(f, MLaurent) and f == x + y
    assert PolyFrac(x, MLaurent.const(2, Fraction(2))) == x * Fraction(1, 2)
    # scalar normalization: denominator is monic under lex
    g = PolyFrac(MLaurent.const(2, Fraction(3)), x * 2 + y * 2)
    assert g.den.leading_lex()[1] == Fraction(1)
    assert g.num == MLaurent.const(2, Fraction(3, 2)) and g.den == x + y


nonzero_fracs = fracs.filter(bool)


@given(nonzero_fracs, polys2, nonzero_fracs, polys2, nonzero_fracs)
@example(Fraction(2), 2 * _h(0) + 2, Fraction(1), _h(0) + 1, Fraction(1))
@settings(max_examples=40, deadline=None)
def test_polyfrac_equality_is_cross_multiplication(a, b, c, d, k):
    assume(b and d)
    one = MLaurent.const(2, Fraction(1))
    f, g = PolyFrac(one * a, b), PolyFrac(one * c, d)
    assert (f == g) == (d * a == b * c)
    assert PolyFrac(one * (a * k), b * k) == f


def test_polyfrac_arithmetic():
    x, y = _h(0), _h(1)
    f = PolyFrac(MLaurent.const(2, Fraction(1)), x)
    g = PolyFrac(MLaurent.const(2, Fraction(1)), y)
    assert f * g == PolyFrac(MLaurent.const(2, Fraction(1)), x * y)
    assert f * g * (x * y) == MLaurent.const(2, Fraction(1))
    assert f * x == x * f == MLaurent.const(2, Fraction(1))
    with pytest.raises(ZeroDivisionError):
        PolyFrac(x, MLaurent.zero(2))


def test_polyfrac_rejects_a_laurent_denominator():
    # no classical coefficient has one, so nothing clears monomial units
    k = MLaurent.var(1, 0, -1, one=QQ_ONE)  # K^-1
    with pytest.raises(ArithmeticError, match="non-negative exponents"):
        PolyFrac(MLaurent.const(1, QQ_ONE), k)
    with pytest.raises(ArithmeticError, match="non-negative exponents"):
        PolyFrac(MLaurent.var(1, 0, one=QQ_ONE), k + QQ_ONE)


# -- the shift and scale kernels ------------------------------------------------


def test_apply_shift_binomial():
    h = MLaurent.var(1, 0)
    assert shift(h**2, (2,)) == h**2 + 4 * h + 4


def test_apply_scale_laurent():
    k_inv = MLaurent.var(1, 0, -1, one=QQ_ONE)
    assert scale(k_inv, (-2,)) == k_inv * q_power(2)


def test_identity_endo():
    h = MLaurent.var(1, 0)
    assert shift(h**3 + h, (0,)) == h**3 + h
    assert scale(h**3 + h, (0,)) == h**3 + h


def test_shift_of_laurent_variable_rejected():
    k_inv = MLaurent.var(2, 0, -1, one=QQ_ONE)
    with pytest.raises(ArithmeticError, match="Laurent"):
        shift(k_inv, (1, 0))
    # a kept variable may be Laurent
    assert shift(k_inv, (0, 1)) == k_inv


@given(polys2, polys2, st.tuples(fracs, fracs))
@settings(max_examples=40, deadline=None)
def test_shift_is_ring_homomorphism(a, b, c):
    assert shift(a * b, c) == shift(a, c) * shift(b, c)
    assert shift(a + b, c) == shift(a, c) + shift(b, c)


@given(polys2, st.tuples(fracs, fracs), st.tuples(fracs, fracs))
@settings(max_examples=40, deadline=None)
def test_shift_composition(a, c1, c2):
    assert shift(shift(a, c1), c2) == shift(a, tuple(x + y for x, y in zip(c1, c2)))
    assert shift(shift(a, c1), tuple(-x for x in c1)) == a


def test_scale_composition():
    k1, k2 = MLaurent.var(2, 0, one=QQ_ONE), MLaurent.var(2, 1, -1, one=QQ_ONE)
    f = k1 * k2 + k1**2 + QQ_ONE
    assert scale(scale(f, (2, -1)), (3, 4)) == scale(f, (5, 3))
    assert scale(scale(f, (2, -1)), (-2, 1)) == f
    assert scale(k1 * k2, (2, -1)) == k1 * k2 * q_power(3)


def test_polyfrac_endo_componentwise():
    x, y = _h(0), _h(1)
    three = MLaurent.const(2, Fraction(3))
    assert shift(PolyFrac(three, x * y + 1), (1, 2)) == PolyFrac(three, (x + 1) * (y + 2) + 1)


def _parent_apply_to_laurent(f, kind, data):
    """The kernel that `shift` and `scale` replaced, kept as an oracle:
    ``data`` is the rational shift or the QScalar factor of each variable."""
    if f.n != len(data):
        raise ValueError("endomorphism has wrong variable count")
    if kind == "scale":
        out = {}
        for e, c in f.terms.items():
            for i, k in enumerate(e):
                for _ in range(abs(k)):
                    c = c * data[i] if k > 0 else c / data[i]
            out[e] = c
        return MLaurent(f.n, out)
    # additive shift: expand (v_i + c_i)^{e_i} binomially
    for i, c in enumerate(data):
        if c and any(e[i] < 0 for e in f.terms):
            raise ValueError(f"additive shift applied to Laurent variable index {i}")
    cache: dict = {}

    def image(e, c):
        fixed = tuple(k if not data[i] else 0 for i, k in enumerate(e))
        term = MLaurent.monomial(f.n, fixed, c)
        for i, k in enumerate(e):
            if k and data[i]:
                key = (i, k)
                if key not in cache:
                    lin = MLaurent(f.n, {
                        tuple(1 if j == i else 0 for j in range(f.n)): Fraction(1),
                        (0,) * f.n: data[i],
                    })
                    cache[key] = lin**k
                term = term * cache[key]
        return term.terms

    return MLaurent(f.n, _accumulate(image(e, c) for e, c in f.terms.items()))


laurent_exps = st.tuples(st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2))
q_scalars = st.integers(min_value=-2, max_value=2).flatmap(
    lambda k: st.integers(min_value=-3, max_value=3).map(lambda c: q_power(k) * c)
)
laurent2 = st.dictionaries(laurent_exps, q_scalars, max_size=4).map(lambda d: MLaurent(2, d))
small_ints = st.integers(min_value=-3, max_value=3)


@given(polys2, st.tuples(fracs, fracs))
@settings(max_examples=60, deadline=None)
def test_shift_matches_the_replaced_kernel(f, u):
    assert shift(f, u) == _parent_apply_to_laurent(f, "shift", u)


@given(st.dictionaries(laurent_exps, fracs, max_size=4).map(lambda d: MLaurent(2, d)), fracs)
@settings(max_examples=40, deadline=None)
def test_shift_keeps_a_laurent_variable_like_the_replaced_kernel(f, c):
    # only the second variable moves, so the first may carry negative powers
    assume(all(e[1] >= 0 for e in f.terms))
    assert shift(f, (0, c)) == _parent_apply_to_laurent(f, "shift", (Fraction(0), c))


@given(laurent2, st.tuples(small_ints, small_ints))
@settings(max_examples=60, deadline=None)
def test_scale_matches_the_replaced_kernel(f, e):
    assert scale(f, e) == _parent_apply_to_laurent(f, "scale", tuple(q_power(k) for k in e))


def _to_sympy_poly(f, gens):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(g**k for g, k in zip(gens, e)))
         for e, c in f.terms.items()),
        sympy.Integer(0),
    )


polys3 = st.dictionaries(
    st.tuples(*(st.integers(min_value=0, max_value=3),) * 3), fracs, max_size=5
).map(lambda d: MLaurent(3, d))


@_needs_sympy
@given(polys3, polys2)
@settings(max_examples=60, deadline=None)
def test_substitute_matches_sympy(f, image):
    # every variable moves (the shift oracle below covers kept ones); the
    # expected value is composed in sympy's own polynomial arithmetic
    image = MLaurent(3, {e + (0,): c for e, c in image.terms.items()})
    x = sympy.symbols("x0:3")
    values = [image * (i + 1) + MLaurent.var(3, i) for i in range(3)]

    def poly(g):
        terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in g.terms.items()}
        return sympy.Poly.from_dict(terms or {(0, 0, 0): 0}, *x, domain="QQ")

    expected = poly(MLaurent.zero(3))
    for e, c in f.terms.items():
        term = poly(MLaurent.const(3, c))
        for value, k in zip(values, e):
            term = term * poly(value) ** k
        expected = expected + term
    assert poly(f.substitute(values)) == expected


@st.composite
def shift_cases(draw):
    """A polynomial in up to 4 variables, exponents up to 4, and a shift with
    some zero entries: over ℚ, or with int coefficients and an integral shift."""
    n = draw(st.integers(1, 4))
    integral = draw(st.booleans())
    scalars = st.integers(-5, 5) if integral else fracs
    f = draw(st.dictionaries(st.tuples(*(st.integers(0, 4),) * n), scalars, max_size=6))
    entries = st.integers(-3, 3) if integral else fracs
    u = draw(st.lists(st.one_of(st.just(Fraction(0)), entries), min_size=n, max_size=n))
    return MLaurent(n, f), tuple(u)


@_needs_sympy
@given(shift_cases())
@settings(max_examples=80, deadline=None)
def test_shift_matches_sympy(case):
    f, u = case
    x = sympy.symbols(f"x0:{f.n}")
    moved = {v: v + sympy.Rational(c.numerator, c.denominator) for v, c in zip(x, u)}
    expected = sympy.expand(_to_sympy_poly(f, x).subs(moved, simultaneous=True))
    got = shift(f, u)
    assert sympy.expand(_to_sympy_poly(got, x) - expected) == 0
    assert all(isinstance(c, (int, Fraction)) and c for c in got.terms.values())
    # integers stay ints: an integral shift of an int polynomial makes no Fraction
    if all(type(c) is int for c in f.terms.values()) and all(c.denominator == 1 for c in u):
        assert all(type(c) is int for c in got.terms.values())



def _assert_canonical(got, expr, gens):
    """``got`` is sympy's cancelled form of ``expr``, its denominator scaled
    to be monic under lex order: an MLaurent when that denominator is 1."""
    num, den = sympy.fraction(sympy.cancel(expr))
    lc = sympy.Poly(den, *gens).LC(order="lex")
    num, den = sympy.expand(num / lc), sympy.expand(den / lc)
    if den == 1:
        assert isinstance(got, MLaurent) and sympy.expand(_to_sympy_poly(got, gens) - num) == 0
    else:
        assert isinstance(got, PolyFrac)
        assert sympy.expand(_to_sympy_poly(got.num, gens) - num) == 0
        assert sympy.expand(_to_sympy_poly(got.den, gens) - den) == 0


@_needs_sympy
@given(polys2, polys2, nonzero_fracs, st.tuples(fracs, fracs))
@example(2 * _h(0) - 4 * _h(1) + 6, _h(1), Fraction(3), (Fraction(1), Fraction(-1, 2)))
@settings(max_examples=60, deadline=None)
def test_reciprocals_match_sympy(p, q, c, u):
    assume(p)
    x = sympy.symbols("x0:2")
    reciprocal = sympy.Rational(c.numerator, c.denominator) / _to_sympy_poly(p, x)
    f = PolyFrac(MLaurent.const(2, c), p)
    _assert_canonical(f, reciprocal, x)
    assert PolyFrac(p * q, p) == q
    moved = {v: v + sympy.Rational(a.numerator, a.denominator) for v, a in zip(x, u)}
    _assert_canonical(shift(f, u), reciprocal.subs(moved, simultaneous=True), x)

def test_shift_edge_cases():
    x, y = _h(0), _h(1)
    assert shift(MLaurent.zero(2), (1, Fraction(1, 2))) == MLaurent.zero(2)
    f = x * x + y
    assert shift(f, (0, 0)) is f
    g = x * x
    assert shift(g, (0, 3)) is g  # y moves, but g does not involve it
    # a Laurent exponent may sit in a kept variable, not in a moved one
    k = MLaurent.var(2, 0, -1)
    assert shift(k * y, (0, Fraction(1, 2))) == k * y + k * Fraction(1, 2)
    with pytest.raises(ArithmeticError, match="substitution into Laurent exponents"):
        shift(k * y, (1, 0))
    # only ℚ polynomials are shifted: over ℚ(q), one that involves no moved
    # variable comes back as it is, and one that does is refused
    k_inv = MLaurent.var(2, 0, -1, one=QQ_ONE)
    assert shift(k_inv, (0, 1)) is k_inv
    with pytest.raises(ValueError, match="coefficients over the rationals"):
        shift(MLaurent.var(2, 1, one=QQ_ONE) + k_inv, (0, 1))
    one = MLaurent.const(2, Fraction(1))
    assert shift(PolyFrac(one, y), (1, 1)) == PolyFrac(one, y + 1)


def test_a_shift_makes_no_polynomial_products(monkeypatch):
    # the Taylor pass works on integer numerators; the substitution it
    # replaced multiplied each term by cached powers of h_j + u_j
    a4 = validate_gcm([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
    datum = solve_beta(quasi_inverse(a4))
    b2, (s1, s2) = datum.b[1], datum.context.steps[:2]
    u = tuple(2 * x - y for x, y in zip(s1, s2))  # sigma_1^2 sigma_2^-1
    images = [MLaurent.var(4, j) + c for j, c in enumerate(u)]
    calls = []
    product = MLaurent.__mul__

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(MLaurent, "__mul__", counted)
    monkeypatch.setattr(MLaurent, "__rmul__", counted)
    shifted = shift(b2, u)
    assert calls == []
    assert b2.substitute(images) == shifted and calls  # the counter does see products


def _parent_product(a, b):
    """The tuple-keyed product loop, written out as an oracle for the term
    order of MLaurent.__mul__ over every ring."""
    x, y = a.terms, b.terms
    if len(x) > len(y):
        x, y = y, x
    rows = ({tuple(p + q for p, q in zip(ex, ey)): cx * cy for ey, cy in y.items()} for ex, cx in x.items())
    return MLaurent(a.n, _accumulate(rows))


# exponents near ±1000, of both signs, lie far past any the models make: a
# product must not rely on a bound on its exponents
wide_exps = st.one_of(st.integers(-3, 3), st.integers(995, 1005), st.integers(-1005, -995))
rationals = st.one_of(st.integers(-5, 5), fracs)


@st.composite
def rational_pairs(draw):
    n = draw(st.integers(0, 3))
    poly = st.dictionaries(st.tuples(*(wide_exps,) * n), rationals, max_size=5).map(lambda d: MLaurent(n, d))
    return draw(poly), draw(poly)


_x, _y = MLaurent.var(2, 0), MLaurent.var(2, 1)


@_needs_sympy
@given(rational_pairs(), st.integers(0, 3))
@example((MLaurent.const(0, 3), MLaurent.const(0, Fraction(-1, 2))), 2)
@example((_x + _y, _x - _y), 2)  # the cross terms cancel
@example((_x * Fraction(1, 2) + 1, _x * -2 + Fraction(2, 5)), 3)
@example((_x**-1000 + _y**1000 * 3, _x**999 - _y**-1001), 2)
@example((_x + 1, MLaurent.zero(2)), 0)
@settings(max_examples=80, deadline=None)
def test_products_sums_and_powers_over_q_match_sympy(pair, k):
    a, b = pair
    v = sympy.symbols(f"v0:{a.n}")

    def sym(f):
        return _to_sympy_poly(f, v)

    for got, want in ((a * b, sym(a) * sym(b)), (a + b, sym(a) + sym(b)), (a**k, sym(a) ** k),
                      (a - a, 0), (a * b - b * a, 0)):
        assert sympy.expand(sym(got) - want) == 0
        assert all(isinstance(c, (int, Fraction)) and c for c in got.terms.values())
    # the same terms in the same order as the oracle loop
    assert list((a * b).terms.items()) == list(_parent_product(a, b).terms.items())


@st.composite
def integral_cases(draw):
    """Two int polynomials with wide exponents, and an integral shift of a
    polynomial with int coefficients."""
    n = draw(st.integers(1, 3))
    poly = st.dictionaries(st.tuples(*(wide_exps,) * n), st.integers(-5, 5), max_size=5)
    a, b = (MLaurent(n, draw(poly)) for _ in range(2))
    f = MLaurent(n, draw(st.dictionaries(st.tuples(*(st.integers(0, 4),) * n), st.integers(-5, 5), max_size=6)))
    u = tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    return a, b, f, u


@given(integral_cases())
@example((
    MLaurent(2, {(1, 0): 2, (0, 1): 3, (0, 0): -1}),
    MLaurent(2, {(1, 1): 1, (0, 1): -1, (0, 0): 4}),
    MLaurent(2, {(2, 1): 1, (0, 1): -3}),
    (1, -2),
))
@settings(max_examples=60, deadline=None)
def test_integer_products_and_shifts_keep_ints(case):
    a, b, f, u = case
    product = a * b
    assert all(type(c) is int and c for c in product.terms.values())
    assert list(product.terms.items()) == list(_parent_product(a, b).terms.items())
    shifted = shift(f, u)
    assert all(type(c) is int and c for c in shifted.terms.values())
    # the same value as the step-by-step substitution v_j ↦ v_j + u_j
    values = [MLaurent.var(f.n, j) + c for j, c in enumerate(u)]
    assert shifted == f.substitute(values)


@given(laurent2, laurent2)
@settings(max_examples=60, deadline=None)
def test_products_over_qq_keep_the_tuple_loop(a, b):
    product = a * b
    assert list(product.terms.items()) == list(_parent_product(a, b).terms.items())
    assert product.to_str(["K1", "K2"]) == _parent_product(a, b).to_str(["K1", "K2"])
