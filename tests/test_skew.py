"""Skew Laurent model arithmetic: twist rule, inversion, derived operators."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import borelweyl
from borelweyl.cartan import CATALOG, catalog_matrix, quasi_inverse
from borelweyl.cli import JobSpec, _corrupted, run
from borelweyl.datum import build_quantum_datum, check_bound_quantum, solve_beta
from borelweyl.exact import MLaurent, PolyFrac, QQ_ONE, q_power
from borelweyl.morphisms import classical_borel_assignment, verify, weyl_assignment
from borelweyl.skew import ModelContext, SkewElem


SL2 = catalog_matrix("A1")
A2 = catalog_matrix("A2")


def _sl2_classical():
    return ModelContext("classical", quasi_inverse(SL2))


def _sl2_quantum():
    return ModelContext("quantum", quasi_inverse(SL2))


def _b_sl2(ctx):
    # ¼h(h−2)
    h = MLaurent.var(1, 0)
    return h * h * Fraction(1, 4) - h * Fraction(1, 2)


def test_twist_rule_classical():
    ctx = _sl2_classical()
    t = SkewElem.torus(ctx, (1,))
    h = SkewElem.from_coeff(ctx, ctx.coeff_var(0))
    th = t * h
    expected = SkewElem.monomial(ctx, ctx.coeff_var(0) + ctx.coeff_scalar(2), (1,))
    assert th == expected


def test_twist_rule_quantum():
    ctx = _sl2_quantum()
    t = SkewElem.torus(ctx, (1,))
    K = SkewElem.from_coeff(ctx, ctx.coeff_var(0))
    tK = t * K
    expected = SkewElem.monomial(ctx, ctx.coeff_var(0) * q_power(-2), (1,))
    assert tK == expected


def test_invert_classical_shifted():
    ctx = _sl2_classical()
    h = ctx.coeff_var(0)
    ht = SkewElem.monomial(ctx, h, (1,))
    inv = ht.invert()
    # (h·t)⁻¹ = (h−2)⁻¹·t⁻¹
    shifted = PolyFrac(ctx.coeff_one(), h - ctx.coeff_scalar(2))
    assert inv == SkewElem.monomial(ctx, shifted, (-1,))
    one = SkewElem.torus(ctx, (0,))
    assert ht * inv == one and inv * ht == one


def test_invert_torus_unit():
    ctx = _sl2_classical()
    t = SkewElem.torus(ctx, (1,))
    assert t.invert() == SkewElem.torus(ctx, (-1,))
    assert t * t.invert() == SkewElem.torus(ctx, (0,))


def test_invert_quantum_image():
    ctx = _sl2_quantum()
    e_img = SkewElem.monomial(ctx, ctx.coeff_var(0, -1), (-1,))  # K⁻¹·t⁻¹
    inv = e_img.invert()
    # (K⁻¹t⁻¹)⁻¹ = σ(K)·t = q⁻²·K·t
    assert inv == SkewElem.monomial(ctx, ctx.coeff_var(0) * q_power(-2), (1,))
    one = SkewElem.torus(ctx, (0,))
    assert e_img * inv == one and inv * e_img == one


def test_invert_rejects_sums_and_nonmonomials():
    ctx = _sl2_classical()
    t = SkewElem.torus(ctx, (1,))
    with pytest.raises(ValueError, match="unit monomials"):
        (t + SkewElem.torus(ctx, (0,))).invert()
    qctx = _sl2_quantum()
    f = qctx.coeff_var(0) + qctx.coeff_one()
    with pytest.raises(ValueError, match="unit monomials"):
        SkewElem.from_coeff(qctx, f).invert()
    # the recovery inverts polynomials only, so a fraction coefficient is refused
    frac = SkewElem.from_coeff(ctx, PolyFrac(ctx.coeff_one(), ctx.coeff_var(0)))
    with pytest.raises(ArithmeticError, match="only a polynomial coefficient"):
        frac.invert()


def _twisted_diff(ctx, i, f):
    """D_i(f) = σ_i(f) − f: the difference along the unit direction e_i."""
    return ctx.apply_vec(tuple(int(k == i) for k in range(ctx.n)), f) - f


def test_twisted_diff_examples():
    ctx = ModelContext("classical", quasi_inverse(A2))
    # D_i(h_j) = a_{ji}
    for i in range(2):
        for j in range(2):
            out = _twisted_diff(ctx, i, ctx.coeff_var(j))
            assert out == ctx.coeff_scalar(A2[j, i])
    assert not _twisted_diff(ctx, 0, ctx.coeff_one())
    sl2 = _sl2_classical()
    assert _twisted_diff(sl2, 0, _b_sl2(sl2)) == sl2.coeff_var(0)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_plain_window_rows_are_q_divided_differences(name):
    # σ_i scales b_j = K_j⁻¹ by q^{d_i·a_ij}, so the window ∏_{ℓ<w}(σ_i − q^{2ℓ·d_i})
    # leaves b_j times ∏_ℓ (q^{d_i·a_ij} − q^{2ℓ·d_i}): zero exactly when a_ij = 0
    aux = quasi_inverse(catalog_matrix(name))
    C, d = aux.matrix, aux.d
    qd = build_quantum_datum(aux)
    rows = {r.label: r for r in check_bound_quantum(qd)}
    for i in range(C.n):
        for j in range(C.n):
            if i != j:
                window = 1 - C[i, j]
                coeff = QQ_ONE
                for ell in range(window):
                    coeff = coeff * (q_power(d[i] * C[i, j]) - q_power(2 * ell * d[i]))
                row = rows[f"plain window: prod(sigma{i+1} - q^2l·d{i+1}, l<{window})(b{j+1}) = 0"]
                assert row.residual == (qd.b[j] * coeff).to_str(qd.context.names), (name, i, j)
                assert row.passed == (C[i, j] == 0)


def test_commutator_examples():
    ctx = _sl2_classical()
    h = SkewElem.from_coeff(ctx, ctx.coeff_var(0))
    b_t_inv = SkewElem.monomial(ctx, _b_sl2(ctx), (-1,))
    assert h * b_t_inv - b_t_inv * h == b_t_inv + b_t_inv
    assert not h * h - h * h


def test_conjugate_by_torus_is_sigma():
    ctx = ModelContext("classical", quasi_inverse(A2))
    f = SkewElem.from_coeff(ctx, ctx.coeff_var(1))
    t = SkewElem.torus(ctx, (1, 0))
    assert t * f * t.invert() == SkewElem.from_coeff(ctx, ctx.apply(0, ctx.coeff_var(1)))


def test_conjugate_self():
    ctx = _sl2_quantum()
    u = SkewElem.monomial(ctx, ctx.coeff_var(0, -2), (1,))
    assert u * u * u.invert() == u


@pytest.mark.parametrize("s,exp", [(1, -2), (-1, 2)])
def test_conjugate_orientation_probe(s, exp):
    # Ad(K⁻²·t^s)(K) = q^{∓2s}·K
    ctx = _sl2_quantum()
    u = SkewElem.monomial(ctx, ctx.coeff_var(0, -2), (s,))
    K = SkewElem.from_coeff(ctx, ctx.coeff_var(0))
    assert u * K * u.invert() == K * q_power(exp)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_context_construction_catalog(name):
    # σ_i is read off the matrix: h_j ↦ h_j + a_ji, or K_j ↦ q^{-d_i·a_ij}·K_j
    aux = quasi_inverse(catalog_matrix(name))
    C, d = aux.matrix, aux.d
    classical, quantum = ModelContext("classical", aux), ModelContext("quantum", aux)
    for i in range(C.n):
        for j in range(C.n):
            assert classical.apply(i, classical.coeff_var(j)) == classical.coeff_var(j) + C[j, i]
            assert quantum.apply(i, quantum.coeff_var(j)) == quantum.coeff_var(j) * q_power(-d[i] * C[i, j])


# -- randomized structure checks -----------------------------------------------

CTX_C = ModelContext("classical", quasi_inverse(A2))
CTX_Q = ModelContext("quantum", quasi_inverse(A2))

exps = st.tuples(st.integers(min_value=-1, max_value=1), st.integers(min_value=-1, max_value=1))
fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
hpolys = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)),
    fracs,
    max_size=3,
).map(lambda dd: MLaurent(2, dd))
classical_elems = st.dictionaries(exps, hpolys, max_size=3).map(
    lambda dd: SkewElem(CTX_C, dd)
)

qcoeff_scalars = st.integers(min_value=-2, max_value=2).flatmap(
    lambda k: st.integers(min_value=-2, max_value=2).map(lambda c: q_power(k) * c)
)
qpolys = st.dictionaries(exps, qcoeff_scalars, max_size=3).map(lambda dd: MLaurent(2, dd))
quantum_elems = st.dictionaries(exps, qpolys, max_size=2).map(lambda dd: SkewElem(CTX_Q, dd))


@given(classical_elems, classical_elems, classical_elems)
@settings(max_examples=30, deadline=None)
def test_mul_associative_classical(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(quantum_elems, quantum_elems, quantum_elems)
@settings(max_examples=30, deadline=None)
def test_mul_associative_quantum(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(hpolys, hpolys, st.integers(min_value=0, max_value=1))
@settings(max_examples=40, deadline=None)
def test_twisted_leibniz(f, g, i):
    lhs = _twisted_diff(CTX_C, i, f * g)
    rhs = _twisted_diff(CTX_C, i, f) * CTX_C.apply(i, g) + f * _twisted_diff(CTX_C, i, g)
    assert lhs == rhs


@given(hpolys, exps)
@settings(max_examples=30, deadline=None)
def test_invert_two_sided_classical(fp, m):
    if not fp:
        return
    a = SkewElem.monomial(CTX_C, fp, m)
    inv = a.invert()
    one = SkewElem.torus(CTX_C, (0, 0))
    assert a * inv == one and inv * a == one


# -- canonical form: a polynomial is an MLaurent, a PolyFrac is a real fraction ---


@given(hpolys, hpolys)
@settings(max_examples=60, deadline=None)
def test_a_cancelled_fraction_is_an_mlaurent(p, q):
    assume(q)
    inverse = CTX_C.invert_coeff(q)
    back = (p * q) * inverse
    assert isinstance(back, MLaurent) and back == p
    one = inverse * q
    assert isinstance(one, MLaurent) and one == CTX_C.coeff_one()
    assert PolyFrac(p * q, q) == p and p == PolyFrac(p * q, q)
    assert isinstance(inverse, MLaurent) == q.is_const()


def _coefficients(elem):
    return list(elem.terms.values()) if elem is not None else []


@pytest.mark.parametrize(
    "name, corrupt",
    [(name, False) for name in sorted(CATALOG)] + [("A2", True), ("A3", True)],
    ids=sorted(CATALOG) + ["A2-corrupt-beta", "A3-corrupt-beta"],
)
def test_classical_verify_keeps_every_coefficient_polynomial(name, corrupt):
    # the recovery never aborts, and every fraction it makes is a reciprocal c/p,
    # also on the datum whose corrections `verify --corrupt-beta` drops
    datum = solve_beta(quasi_inverse(catalog_matrix(name)))
    if corrupt:
        datum = _corrupted(datum)
    assignments = [classical_borel_assignment(datum, side) for side in ("upper", "lower")]
    assignments.append(weyl_assignment(datum))
    seen = fractions = 0
    for assignment in assignments:
        report = verify(assignment)
        assert not [e.name for e in report.entries if e.family == "recovery"], name
        recovered = [f for image in report.recovered.values() for f in _coefficients(image)]
        assert all(f.num.is_const() for f in recovered if isinstance(f, PolyFrac)), name
        fractions += sum(isinstance(f, PolyFrac) for f in recovered)
        coeffs = [f for image in assignment.images.values() for f in _coefficients(image)]
        coeffs += [f for entry in report.entries for f in _coefficients(entry.residual)]
        coeffs += [f for f, _ in report.denominators]
        assert all(isinstance(f, MLaurent) for f in coeffs), name
        seen += len(coeffs)
    assert seen and fractions


# -- σ^m is one vector read off the matrix --------------------------------------


torus_vectors = st.lists(st.integers(min_value=-2, max_value=2), min_size=4, max_size=4)


def _sample_coeff(ctx):
    # a polynomial in every variable, Laurent in the quantum case
    f = ctx.coeff_one() + ctx.coeff_scalar(3)
    for i in range(ctx.n):
        f = f * (ctx.coeff_var(i) + ctx.coeff_scalar(i + 1)) + ctx.coeff_var(i, -1 if ctx.kind == "quantum" else 2)
    return f


@pytest.mark.parametrize("kind", ["classical", "quantum"])
@pytest.mark.parametrize("name", sorted(CATALOG))
@given(a=torus_vectors, b=torus_vectors)
@settings(max_examples=15, deadline=None)
def test_sigma_powers_compose_additively(name, kind, a, b):
    ctx = ModelContext(kind, quasi_inverse(catalog_matrix(name)))
    a, b = tuple(a[: ctx.n]), tuple(b[: ctx.n])
    f = _sample_coeff(ctx)
    if kind == "classical":
        f = PolyFrac(ctx.coeff_scalar(3), f)
    total = tuple(x + y for x, y in zip(a, b))
    assert ctx.apply_vec(a, ctx.apply_vec(b, f)) == ctx.apply_vec(total, f)
    assert ctx.apply_vec(b, ctx.apply_vec(a, f)) == ctx.apply_vec(total, f)


def test_identity_power_returns_the_same_fraction():
    ctx = ModelContext("classical", quasi_inverse(A2))
    pf = PolyFrac(ctx.coeff_scalar(3), ctx.coeff_var(1) + ctx.coeff_scalar(1))
    assert ctx.apply_vec((0, 0), pf) is pf
    # affine A1 has a kernel: σ^(1,1) shifts nothing, so the value is kept as is
    affine = ModelContext("classical", quasi_inverse(catalog_matrix("A1affine")))
    g = PolyFrac(affine.coeff_scalar(3), affine.coeff_var(1) + affine.coeff_scalar(1))
    assert affine.apply_vec((1, 1), g) is g
    assert affine.apply_vec((1, 0), g) != g


def test_noncommuting_automorphisms_are_rejected_under_python_O():
    # σ_i come only from the job's CartanAux, so no context holds a non-commuting
    # pair: with asserts stripped, the σ_i of every catalog context commute on a
    # coefficient that involves every variable
    script = (
        "import sys, test_skew as t\n"
        "from borelweyl.cartan import CATALOG, catalog_matrix, quasi_inverse\n"
        "from borelweyl.skew import ModelContext\n"
        "print(sys.flags.optimize)\n"
        "bad = []\n"
        "for name in sorted(CATALOG):\n"
        "    aux = quasi_inverse(catalog_matrix(name))\n"
        "    for ctx in (ModelContext('classical', aux), ModelContext('quantum', aux)):\n"
        "        f = t._sample_coeff(ctx)\n"
        "        for i in range(ctx.n):\n"
        "            for j in range(i):\n"
        "                if ctx.apply(i, ctx.apply(j, f)) != ctx.apply(j, ctx.apply(i, f)):\n"
        "                    bad.append((name, ctx.kind, i, j))\n"
        "print(bad)\n"
    )
    src = Path(borelweyl.__file__).resolve().parents[1]
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(here)]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.splitlines() == ["1", "[]"]


def test_malformed_contexts_and_elements_raise_value_errors():
    with pytest.raises(ValueError, match="context kind"):
        ModelContext("tropical", quasi_inverse(SL2))
    ctx = _sl2_classical()
    with pytest.raises(ValueError, match="not invertible"):
        ctx.coeff_var(0, -1)
    with pytest.raises(ValueError, match="has length 2, not 1"):
        SkewElem.torus(ctx, (1, 0))
    with pytest.raises(ValueError, match="has length 2, not 1"):
        ctx.apply_vec((1, 0), ctx.coeff_var(0))
    other = _sl2_classical()
    t, u = SkewElem.torus(ctx, (1,)), SkewElem.torus(other, (1,))
    for combine in (lambda: t == u, lambda: t + u, lambda: t * u, lambda: t + 1):
        with pytest.raises(ValueError, match="context mismatch"):
            combine()


def test_a_context_names_its_coefficients_once():
    aux = quasi_inverse(A2)
    assert ModelContext("classical", aux).names == ("h1", "h2")
    assert ModelContext("quantum", aux).names == ("K1", "K2")


def test_model_contexts_hold_no_mutable_state_after_full_verify_runs(monkeypatch):
    # every context a full `verify --mode both` of the catalog builds keeps its
    # public attributes immutable: a report never reads state a context gathered
    contexts = []
    init = ModelContext.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        contexts.append(self)

    def mutable(value):
        if isinstance(value, (list, dict, set)):
            return True
        return isinstance(value, tuple) and any(mutable(v) for v in value)

    monkeypatch.setattr(ModelContext, "__init__", recording)
    for name in CATALOG:
        run(JobSpec(command="verify", matrix=catalog_matrix(name), mode="both"))
    assert {ctx.kind for ctx in contexts} == {"classical", "quantum"}
    for ctx in contexts:
        public = {key: value for key, value in vars(ctx).items() if not key.startswith("_")}
        assert not [key for key, value in public.items() if mutable(value)], ctx.kind
