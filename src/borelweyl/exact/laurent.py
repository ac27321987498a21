"""Multivariate Laurent polynomials and their fraction fields.

One arithmetic kernel serves both coefficient rings the models need:
polynomials in h₁,…,hₙ over ℚ, with int or Fraction scalars, and Laurent
polynomials in the torus variables K₁,…,Kₙ over QScalar.  An MLaurent is a
finite map from integer exponent vectors (length n tuples) to nonzero
scalars; ordinary polynomials are the non-negative-exponent special case.

Operators accumulate, the constructor drops zeros: every sum, binary or
n-ary, adds its term maps key by key with `_accumulate`, and a key whose
coefficient cancelled stays behind at zero until the MLaurent constructor
drops it.  `SkewElem` and the words of `biproduct` follow the same rule, so
each of the three sparse types tests for a zero coefficient in one place.

A product runs one loop over both rings: each pair of terms adds its
exponent tuples and multiplies its scalars, so int coefficients stay int.
What still multiplies here over ℚ is the datum and the recovery phase, a
few short products per job.  Relation evaluation, the bulk of the
classical work, does not come here: `morphisms` packs each exponent vector
into one integer key and keeps its Horner chain packed from the images to
the sum, unpacking only a nonzero residual.

PolyFrac holds the fractions of polynomials that the classical recovery
phase makes: 1/p, its σ-shifts, and their products with polynomials.  It
multiplies, compares and prints; it does not add, divide or invert.  The
paper localises only at an Ore set of polynomials, and the recovery forms
s⁻¹ and products such as s⁻¹·s, so every fraction it makes either divides
exactly or is a reciprocal, a nonzero scalar over a polynomial.  The
canonical form of a value is an MLaurent when it is a polynomial, and a
PolyFrac c/p, with p non-constant and monic with respect to lexicographic
order, otherwise.  That form is canonical with no gcd, so equality is
structural.  Any other fraction raises ArithmeticError.
"""

from __future__ import annotations

from fractions import Fraction

from .qq import QScalar

__all__ = [
    "MLaurent",
    "PolyFrac",
    "poly_div_exact",
]

_SCALARS = (int, Fraction, QScalar)


def _accumulate(term_maps) -> dict:
    """Sum term maps key by key into one new dict.

    A key whose coefficients cancel stays in the result at zero: the
    constructor the caller hands it to drops it.
    """
    maps = iter(term_maps)
    out = dict(next(maps, {}))
    for terms in maps:
        for key, c in terms.items():
            s = out.get(key)
            out[key] = c if s is None else s + c
    return out


class MLaurent:
    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        clean = {}
        if terms:
            for exp, c in terms.items():
                if c:
                    exp = tuple(exp)
                    if len(exp) != n:
                        raise ValueError("exponent vector has wrong length")
                    clean[exp] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("MLaurent is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "MLaurent":
        return MLaurent(n, {})

    @staticmethod
    def const(n: int, c) -> "MLaurent":
        return MLaurent(n, {(0,) * n: c})

    @staticmethod
    def var(n: int, i: int, exp: int = 1, one=Fraction(1)) -> "MLaurent":
        e = [0] * n
        e[i] = exp
        return MLaurent(n, {tuple(e): one})

    @staticmethod
    def monomial(n: int, exp, coeff) -> "MLaurent":
        return MLaurent(n, {tuple(exp): coeff})

    # -- structure queries -------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def single_term(self):
        if len(self.terms) != 1:
            raise ValueError("not a single term")
        return next(iter(self.terms.items()))

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not any(next(iter(self.terms))))

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=None)

    def is_laurent(self) -> bool:
        return any(x < 0 for e in self.terms for x in e)

    def leading_lex(self):
        """(exponent, coefficient) of the lex-largest term; None for zero."""
        if not self.terms:
            return None
        e = max(self.terms)
        return e, self.terms[e]

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MLaurent):
            if other.n != self.n:
                raise ValueError("mixed variable counts")
            return other
        if isinstance(other, _SCALARS):
            return MLaurent.const(self.n, other)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MLaurent(self.n, _accumulate((self.terms, other.terms)))

    __radd__ = __add__

    def __neg__(self):
        return MLaurent(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            if not other:
                return MLaurent.zero(self.n)
            return MLaurent(self.n, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        rows = (
            {tuple(x + y for x, y in zip(ea, eb)): ca * cb for eb, cb in b.items()}
            for ea, ca in a.items()
        )
        return MLaurent(self.n, _accumulate(rows))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            if not self.is_monomial():
                raise ArithmeticError("negative power of a non-monomial")
            e, c = self.single_term()
            inv = MLaurent.monomial(self.n, tuple(-x for x in e), _scalar_inv(c))
            return inv ** (-k)
        out = None
        base = self
        while True:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                break
            base = base * base
        if out is None:
            some = next(iter(self.terms.values()), Fraction(1))
            one = _scalar_one(some)
            return MLaurent.const(self.n, one)
        return out

    def derivative(self, i: int) -> "MLaurent":
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return MLaurent(self.n, out)

    def substitute(self, values) -> "MLaurent":
        """Polynomial composition v_i ↦ values[i]; the exponents must be non-negative."""
        values = list(values)
        if len(values) != self.n:
            raise ValueError(f"{len(values)} values for {self.n} variables")
        if self.is_laurent():
            raise ArithmeticError("substitution into Laurent exponents")
        m = values[0].n if values else 0
        cache = {}

        def image(e, c):
            term = MLaurent.const(m, c)
            for i, k in enumerate(e):
                if k:
                    if (i, k) not in cache:
                        cache[(i, k)] = values[i] ** k
                    term = term * cache[(i, k)]
            return term.terms

        return MLaurent(m, _accumulate(image(e, c) for e, c in self.terms.items()))

    # -- display -----------------------------------------------------------

    def to_str(self, names=None) -> str:
        if not self.terms:
            return "0"
        names = names or [f"v{i+1}" for i in range(self.n)]
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(names[i])
                elif k:
                    factors.append(f"{names[i]}^{k}")
            cs = str(c)
            if factors and cs == "1":
                body = "*".join(factors)
            elif factors and cs == "-1":
                body = "-" + "*".join(factors)
            else:
                if not isinstance(c, (int, Fraction)) and ("+" in cs or " - " in cs or "/" in cs):
                    cs = f"({cs})"
                body = "*".join([cs] + factors)
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return self.to_str()


def _scalar_one(sample):
    if isinstance(sample, QScalar):
        return QScalar((1,))
    return Fraction(1)


def _scalar_inv(c):
    if isinstance(c, int):
        return Fraction(1, c)
    if isinstance(c, Fraction):
        return 1 / c
    return c.inverse()


# -- exact division and fractions --------------------------------------------


def poly_div_exact(a: MLaurent, b: MLaurent) -> MLaurent:
    """Exact quotient a/b; raises ArithmeticError when b does not divide a."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return MLaurent.zero(a.n)
    quo = {}
    rem = a
    eb, cb = b.leading_lex()
    while rem:
        er, cr = rem.leading_lex()
        de = tuple(x - y for x, y in zip(er, eb))
        if any(x < 0 for x in de):
            raise ArithmeticError("inexact polynomial division")
        qc = cr / cb if not isinstance(cr, int) else Fraction(cr) / cb
        quo[de] = qc
        rem = rem - b * MLaurent.monomial(a.n, de, qc)
    return MLaurent(a.n, quo)


class PolyFrac:
    """A reciprocal c/p: a nonzero scalar over a monic non-constant polynomial.

    The classical recovery phase is the only place fractions arise: 1/p from
    `ModelContext.invert_coeff`, its σ-shifts, and products with the
    polynomials they recover.  So a PolyFrac multiplies, compares and
    prints, and nothing more.  ``PolyFrac(num, den)`` is its one
    constructor: it returns the quotient as an MLaurent when den divides num,
    so a polynomial never hides inside a PolyFrac, and otherwise needs a
    constant num and makes den monic under lex order.  Any other fraction,
    or a part with a negative exponent, raises ArithmeticError.
    """

    __slots__ = ("num", "den")

    def __new__(cls, num: MLaurent, den: MLaurent):
        if num.n != den.n:
            raise ValueError("mixed variable counts")
        if not den:
            raise ZeroDivisionError("zero denominator polynomial")
        if not num:
            return num
        if num.is_laurent() or den.is_laurent():
            raise ArithmeticError("a fraction needs non-negative exponents")
        try:
            return poly_div_exact(num, den)
        except ArithmeticError:
            pass
        if not num.is_const():
            raise ArithmeticError("a fraction must be a polynomial or a constant over a polynomial")
        _, lc = den.leading_lex()
        if lc != _scalar_one(lc):
            inv = _scalar_inv(lc)
            num = num * inv
            den = den * inv
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    def __setattr__(self, *a):
        raise AttributeError("PolyFrac is immutable")

    @property
    def n(self):
        return self.num.n

    def _split(self, other):
        """(numerator, denominator) of an operand, with None for the
        denominator of a polynomial; None for a foreign type."""
        if isinstance(other, PolyFrac):
            return other.num, other.den
        if isinstance(other, _SCALARS):
            return MLaurent.const(self.n, other), None
        if isinstance(other, MLaurent):
            return other, None
        return None

    def __eq__(self, other):
        # a reduced fraction with a non-constant denominator is never a polynomial
        if not isinstance(other, PolyFrac):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __mul__(self, other):
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        c, d = parts
        return PolyFrac(self.num * c, self.den if d is None else self.den * d)

    __rmul__ = __mul__

    def to_str(self, names=None) -> str:
        ns, ds = self.num.to_str(names), self.den.to_str(names)
        if len(self.num.terms) > 1:
            ns = f"({ns})"
        if len(self.den.terms) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return self.to_str()
