"""Exact arithmetic in skew Laurent models Frac(A)#T^n.

Elements are finite sums Σ f_m·t^m with torus exponents m ∈ ℤⁿ and
coefficients f_m in a commutative base, multiplied by the twist rule
(f·t^m)(g·t^{m'}) = f·σ^m(g)·t^{m+m'}.  Each σ_i acts by one vector read
off the Cartan matrix, so σ^m acts by the vector Σ m_i·step_i and the σ_i
commute by construction.

Two context flavours cover both model families:

* classical — coefficients are elements of ℚ(h₁..hₙ) in canonical form: an
  MLaurent polynomial with int or Fraction scalars, or a reciprocal c/p.  σ_i
  shifts h_j by a_ji.  The models localise only at an Ore set of
  polynomials (shifted b's and h's), and the recovery phase forms s⁻¹ and
  products such as s⁻¹·s, so no other fraction arises.  Only `invert_coeff`
  makes a fraction; the recovery phase of `morphisms.verify` lists each
  inversion it makes, so reports can exhibit the Ore set a statement
  actually needs.
* quantum — coefficients are Laurent polynomials in K₁..Kₙ over QScalar;
  σ_i scales K_j by q^{-d_i·a_ij}.  Arithmetic stays in Laurent form; only
  unit monomials are invertible here, which is all the maps require.  Every
  quantum element the package builds is one q-commuting monomial
  c·K^a·t^m of a quantum torus, so the quantum model multiplies by one rule,
  q^{⟨m, u(a)⟩} (`_MonomialImages`): `morphisms.verify` and the quantum datum
  checks evaluate their sums of words on it, and only the recovery phase
  multiplies `SkewElem`s.

Contexts and elements are immutable after construction; a context only
memoises the vector by which each σ^m acts.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul

from .cartan import CartanAux
from .exact import MLaurent, PolyFrac, QQ_ONE, QScalar
from .exact.endo import scale, shift
from .exact.laurent import _accumulate

__all__ = ["ModelContext", "SkewElem"]


class ModelContext:
    """The coefficient ring and the torus action of one model.

    σ_i acts by one vector read off the job's `CartanAux` (its matrix C and
    symmetrizer d), kept in ``steps[i]``:
    classically it shifts h_j by a_ji (column i of C), in the quantum model
    it scales K_j by q^{-d_i·a_ij}.  σ^m then acts by Σ m_i·steps[i], so the
    σ_i commute by construction.  ``names`` holds the coefficient names
    ("h1", …, classically; "K1", …, in the quantum model), the one place
    they are spelled.
    """

    def __init__(self, kind: str, aux: CartanAux):
        if kind not in ("classical", "quantum"):
            raise ValueError(f"context kind must be 'classical' or 'quantum', got {kind!r}")
        C, d, n = aux.matrix, aux.d, aux.matrix.n
        self.kind = kind
        self.aux = aux
        self.n = n
        self.one = Fraction(1) if kind == "classical" else QQ_ONE
        self.names = tuple(f"{'h' if kind == 'classical' else 'K'}{i + 1}" for i in range(n))
        if kind == "classical":
            self.steps = tuple(tuple(Fraction(C[j, i]) for j in range(n)) for i in range(n))
        else:
            self.steps = tuple(tuple(-d[i] * C[i, j] for j in range(n)) for i in range(n))
        self._vectors: dict = {}

    # -- coefficient ring --------------------------------------------------

    def coeff_one(self):
        return MLaurent.const(self.n, self.one)

    def coeff_var(self, i: int, exp: int = 1):
        """h_i (classical) or K_i^exp (quantum)."""
        if exp < 0 and self.kind == "classical":
            raise ValueError("h-variables are not invertible as polynomials")
        return MLaurent.var(self.n, i, exp, one=self.one)

    def coeff_scalar(self, c):
        return MLaurent.const(self.n, self.one * c)

    def invert_coeff(self, f):
        if self.kind == "classical":
            if not isinstance(f, MLaurent):
                raise ArithmeticError(f"only a polynomial coefficient is inverted, not {f!r}")
            return PolyFrac(self.coeff_one(), f)
        if not f.is_monomial():
            raise ValueError(
                "inversion supported only for unit monomials; a non-monomial "
                "quantum coefficient would need the fraction-field extension"
            )
        return f ** (-1)

    # -- automorphisms -----------------------------------------------------

    def _act(self, vector, f):
        return (shift if self.kind == "classical" else scale)(f, vector)

    def apply(self, i: int, f):
        """σ_i(f)."""
        return self._act(self.steps[i], f)

    def apply_vec(self, m, f):
        """σ^m(f); f itself when σ^m acts trivially."""
        m = tuple(m)
        vector = self._vectors.get(m)
        if vector is None:
            if len(m) != self.n:
                raise ValueError(f"torus exponent {m} has length {len(m)}, not {self.n}")
            vector = tuple(sum(k * step[j] for k, step in zip(m, self.steps)) for j in range(self.n))
            self._vectors[m] = vector
        return self._act(vector, f) if any(vector) else f


class SkewElem:
    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: ModelContext, terms=None):
        clean = {}
        if terms:
            for m, f in terms.items():
                if f:
                    m = tuple(m)
                    if len(m) != ctx.n:
                        raise ValueError(f"torus exponent {m} has length {len(m)}, not {ctx.n}")
                    clean[m] = f
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("SkewElem is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx) -> "SkewElem":
        return SkewElem(ctx, {})

    @staticmethod
    def from_coeff(ctx, f) -> "SkewElem":
        return SkewElem(ctx, {(0,) * ctx.n: f})

    @staticmethod
    def monomial(ctx, f, m) -> "SkewElem":
        return SkewElem(ctx, {tuple(m): f})

    @staticmethod
    def torus(ctx, m) -> "SkewElem":
        return SkewElem(ctx, {tuple(m): ctx.coeff_one()})

    # -- predicates --------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SkewElem):
            return NotImplemented
        if other.ctx is not self.ctx:
            raise ValueError("context mismatch")
        return self.terms == other.terms

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SkewElem) or other.ctx is not self.ctx:
            raise ValueError("context mismatch")
        return SkewElem(self.ctx, _accumulate((self.terms, other.terms)))

    def __neg__(self):
        return SkewElem(self.ctx, {m: -f for m, f in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "SkewElem":
        """Multiply by a scalar of the coefficient field, which is central."""
        return SkewElem(self.ctx, {m: g * c for m, g in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QScalar)):
            return self.scale(other)
        if not isinstance(other, SkewElem) or other.ctx is not self.ctx:
            raise ValueError("context mismatch")
        ctx = self.ctx
        rows = (
            {tuple(a + b for a, b in zip(m, mp)): f * ctx.apply_vec(m, g) for mp, g in other.terms.items()}
            for m, f in self.terms.items()
        )
        return SkewElem(ctx, _accumulate(rows))

    def invert(self) -> "SkewElem":
        if len(self.terms) != 1:
            raise ValueError("inversion supported only for unit monomials")
        (m, f), = self.terms.items()
        f_inv = self.ctx.invert_coeff(f)
        neg = tuple(-x for x in m)
        return SkewElem(self.ctx, {neg: self.ctx.apply_vec(neg, f_inv)})

    def to_str(self, coeff_names=None) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            f = self.terms[m]
            fs = f.to_str(coeff_names)
            tor = []
            for i, k in enumerate(m):
                if k:
                    nm = "t" if self.ctx.n == 1 else f"t{i + 1}"
                    tor.append(nm if k == 1 else f"{nm}^{k}")
            if tor and fs == "1":
                body = "*".join(tor)
            else:
                if ("+" in fs[1:]) or (" - " in fs):
                    fs = f"({fs})"
                body = "*".join([fs] + tor)
            parts.append(body)
        return " + ".join(parts)

    def __repr__(self):
        return self.to_str()


# -- quantum monomials -----------------------------------------------------------


def _weight(ctx: ModelContext, a) -> tuple:
    """u(a) with u(a)_i = ⟨steps[i], a⟩: σ^m scales K^a by q^{⟨m, u(a)⟩}."""
    return tuple(sum(map(mul, step, a)) for step in ctx.steps)


def _laurent(c):
    """c as integer Laurent coefficients {exponent: int}; None unless c is a
    Laurent polynomial in q over ℤ."""
    c = c if isinstance(c, QScalar) else QScalar.from_int(c)
    k = len(c.den) - 1
    if c.den[k] != 1 or any(c.den[:k]):
        return None
    return {i - k: x for i, x in enumerate(c.num) if x}


class _MonomialImages:
    """Quantum images as monomials: the one product rule of the quantum model.

    Every quantum element the package builds is one monomial c·K^a·t^m.
    σ^m scales K^a by q^{⟨m, u(a)⟩} (`_weight`), so
    (c·K^a·t^m)·(c′·K^{a′}·t^{m′}) = c·c′·q^{⟨m, u(a′)⟩}·K^{a+a′}·t^{m+m′},
    and a word's image is (∏c)·q^e·K^A·t^M: A and M sum the letters'
    exponents, and each letter adds ⟨M, u(a)⟩ to e, M the t-exponent of the
    letters before it.  `images` maps a symbol to (c, a, m, u(a)), c in
    `_laurent` form, or None for 1.
    """

    def __init__(self, ctx: ModelContext, images: dict):
        self.ctx = ctx
        self.origin = (0,) * ctx.n
        self.images = {}
        for sym, img in images.items():
            self.assign(sym, img)

    def assign(self, sym, img: SkewElem):
        """Send sym to img, which must be one monomial c·K^a·t^m with c a Laurent polynomial over ℤ."""
        if len(img.terms) != 1 or len(next(iter(img.terms.values())).terms) != 1:
            raise ArithmeticError(f"the image of {sym} is not one monomial c·K^a·t^m")
        ((m, f),) = img.terms.items()
        ((a, c),) = f.terms.items()
        scalar = _laurent(c)
        if scalar is None:
            raise ArithmeticError(f"the image of {sym} has the scalar {c!r}, not a Laurent polynomial in q over ℤ")
        self.images[sym] = (None if scalar == {0: 1} else scalar, a, m, _weight(self.ctx, a))

    def evaluate(self, terms) -> SkewElem:
        """Σ c_w·image(w), the words' scalars summed per (M, A) in integers;
        only a nonzero sum becomes a `QScalar`."""
        images, origin, groups = self.images, self.origin, {}
        for coeff, word in terms:
            scalar = _laurent(coeff)
            if scalar is None:
                raise ArithmeticError(f"the coefficient {coeff!r} of {word} is not a Laurent polynomial in q over ℤ")
            M, A, e = origin, origin, 0
            for sym in word:
                c, a, m, u = images[sym]
                e += sum(map(mul, M, u))
                A, M = tuple(map(add, A, a)), tuple(map(add, M, m))
                if c is not None:
                    scalar = _accumulate({i + j: x * y for j, y in c.items()} for i, x in scalar.items())
            row = groups.setdefault((M, A), {})
            for i, x in scalar.items():
                row[i + e] = row.get(i + e, 0) + x
        residual = {}
        for (M, A), row in groups.items():
            if any(row.values()):
                residual.setdefault(M, {})[A] = QScalar.laurent(row)
        return SkewElem(self.ctx, {M: MLaurent(self.ctx.n, f) for M, f in residual.items()})
