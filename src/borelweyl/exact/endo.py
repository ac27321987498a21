"""The two automorphism kernels of the skew models, each fixed by one vector.

Classically σ^m shifts every variable, v_j ↦ v_j + u_j with rational u_j;
in the quantum model it scales every torus variable, K_j ↦ q^{e_j}·K_j with
integer e_j.  A model context reads u or e off its Cartan matrix, so both
kernels take the vector itself.

`shift` is a Taylor shift, one pass per moved variable (von zur Gathen and
Gerhard, ISSAC 1997), on integers: the coefficients of f become integer
numerators over one common denominator, each pass expands (v_j + u_j)^k
binomially with the powers of u_j prescaled to one denominator, and each
output term becomes one int at the end when that denominator is 1 (an
integral shift of an integer polynomial), and one Fraction otherwise, so it
makes no polynomial products.  Only the classical model shifts, so a
shifted polynomial has coefficients over ℚ; a coefficient can also be a
reciprocal c/p, and `shift` maps it to c/p(v + u), which is again one.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from .laurent import MLaurent, PolyFrac
from .qq import q_power

__all__ = ["shift", "scale"]


def _taylor_pass(terms: dict, j: int, p: int, d: int):
    """v_j ↦ v_j + p/d on integer coefficients, all scaled by d^K where K is
    the top power of v_j; returns the new terms and d^K."""
    top = max(e[j] for e in terms)
    powers = [p**i * d ** (top - i) for i in range(top + 1)]  # (p/d)^i·d^top
    rows = {}  # k -> the prescaled binomial row of (v_j + p/d)^k
    out = {}
    get = out.get
    for e, c in terms.items():
        k = e[j]
        if not k:
            out[e] = get(e, 0) + c * powers[0]
            continue
        row = rows.get(k)
        if row is None:
            row = rows[k] = [comb(k, i) * powers[i] for i in range(k + 1)]
        head, tail = e[:j], e[j + 1 :]
        for i, b in enumerate(row):
            key = head + (k - i,) + tail
            out[key] = get(key, 0) + c * b
    return out, powers[0]


def shift(f, u):
    """f(v + u): the substitution v_j ↦ v_j + u_j, keeping each v_j with u_j = 0."""
    if isinstance(f, PolyFrac):
        return PolyFrac(shift(f.num, u), shift(f.den, u))
    if len(u) != f.n:
        raise ValueError(f"{len(u)} values for {f.n} variables")
    moved = [j for j, c in enumerate(u) if c and any(e[j] for e in f.terms)]
    if any(e[j] < 0 for e in f.terms for j in moved):
        raise ArithmeticError("substitution into Laurent exponents")
    if not moved:
        return f
    if not all(isinstance(c, (int, Fraction)) for c in f.terms.values()):
        raise ValueError("a shift needs coefficients over the rationals")
    den = lcm(*[c.denominator for c in f.terms.values()])
    terms = {e: c.numerator * (den // c.denominator) for e, c in f.terms.items()}
    for j in moved:
        terms, scaled = _taylor_pass(terms, j, u[j].numerator, u[j].denominator)
        den *= scaled
    return MLaurent(f.n, terms if den == 1 else {e: Fraction(c, den) for e, c in terms.items()})


def scale(f, e):
    """f(q^{e_1}·K_1, …, q^{e_n}·K_n): the term c·K^w becomes q^{⟨e,w⟩}·c·K^w."""
    if len(e) != f.n:
        raise ValueError(f"a scaling of {len(e)} variables applied to {f.n}")
    out = {}
    for w, c in f.terms.items():
        k = sum(x * y for x, y in zip(e, w))
        out[w] = c * q_power(k) if k else c
    return MLaurent(f.n, out)
