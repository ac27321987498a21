"""Exact arithmetic in the rational function field Q(q).

A QScalar is a reduced fraction of integer-coefficient polynomials in a
single transcendental q.  Polynomials are dense coefficient tuples with
index = exponent, so ``(−1, 0, 1)`` is q² − 1.  Canonical form: numerator
and denominator share no polynomial factor (including integer content)
and the denominator's leading coefficient is positive.  Equality is
therefore plain structural comparison; q is never specialized implicitly.

The canonical form divides num and den by their gcd in Z[q], computed in
integers only.  A gcd with the unit ±1 is 1 at once, with no content or
power of q taken: straightening multiplies by many rule coefficients whose
numerator is 1.  Otherwise the common power of q and the integer content
come off first; past those, a single term shares no factor with anything.
Two longer q-free primitive parts go to the heuristic gcd of Char, Geddes
and Gonnet: evaluate both at an integer ξ ≥ 2·min(‖a‖∞, ‖b‖∞) + 2, take the
integer gcd, and read a candidate off its ξ-adic digits.  The candidate is
accepted only if it divides both parts exactly, and under that bound exact
division proves it is the gcd, so the answer is never a guess.  If a few
evaluation points all fail, a Euclid over Q decides.  Every exact division
checks its remainder and raises InexactDivisionError otherwise, also under
``python -O``.

Negative powers of q are ordinary fractions here: q⁻¹ == QScalar((1,), (0, 1)).
So a Laurent polynomial in q has a denominator q^k, and a sum or product of
two of them takes no gcd: a/q^j + c/q^k = (a·q^{m−j} + c·q^{m−k})/q^m with
m = max(j, k), and (a/q^j)·(c/q^k) = a·c/q^{j+k}.  q is the only prime
factor of q^m and its content is 1, so stripping min(ord_q num, m) from
both gives the canonical pair that the normalising constructor would return.
The quantum straightening engine works in ℤ[q, q⁻¹] (see `biproduct`), so
nearly all of its sums and products take these closed forms.

Every other sum and product builds the unreduced pair, (a·d + c·b, b·d) or
(a·c, b·d), and hands it to the normalising constructor, which takes one
gcd of the pair.  Henrici's rule (Knuth, TAOCP vol. 2, §4.5.1), which
takes gcds of the small operands instead, lost its workload when
straightening moved to the closed forms.  Over every job of the benchmark's
verify-quantum, rewrite-words and verify-classical ladders (ladder seeds 1
and 2), the census draws, the catalog in quantum mode at degree 6 and a few
quantum rewrites, no sum met a denominator other than a power of q; the
general products, one in ten product kernel runs, all scale by powers of
β_i = q^{d_i} − q^{−d_i} (`biproduct`), and their one gcd in the
constructor left the benchmark's pass times within noise.  Negation,
inversion and a Fraction take no gcd.

A job repeats the same few products: q-powers, balanced brackets and
q-binomials, met again at every rewrite and every datum check.  So within
``job_memo()`` each sum and product is looked up by its operands' canonical
tuples (a, b, c, d) before the kernel runs, and computed and stored only
on a miss.  One pass of the benchmark's verify-quantum ladder asks for 2,590
products past the shortcuts below and 742 sums, and runs the kernels on
322 and 168 of them (counted by wrapping `QScalar.__mul__`, `__add__`,
`_mul` and `_add` around one in-process pass through `cli.run`).
A canonical QScalar is immutable and fixed by its tuples, so a stored result
is the one the kernel would build.  The products by one and by zero return
before the lookup.  The memo is scoped to one job: the command line opens it
around each job, and it is dropped when the job returns or raises.  A memo
kept for the whole process would answer a repeated job from the last one,
which no user running one command gains, and would let a benchmark that
repeats its jobs measure that instead.  Outside a job (library use) every
sum and product runs the same kernel with no lookup.  Only operands of at
most _MEMO_MAX_COEFFS coefficients in all are stored; the reason is beside
the constant.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from math import gcd as _int_gcd

__all__ = ["QScalar", "InexactDivisionError", "q_power", "q_binom", "QQ_ZERO", "QQ_ONE", "job_memo"]

ZPoly = tuple  # dense int coefficients, no trailing zeros; () is the zero poly


class InexactDivisionError(ArithmeticError):
    """A polynomial division that had to be exact left a remainder."""


def _trim(cs) -> ZPoly:
    cs = tuple(cs)
    end = len(cs)
    while end and not cs[end - 1]:
        end -= 1
    return cs[:end]


def _padd(a: ZPoly, b: ZPoly) -> ZPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a: ZPoly) -> ZPoly:
    return tuple(-c for c in a)


def _pmul(a: ZPoly, b: ZPoly) -> ZPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _trim(out)


def _pcontent(a: ZPoly) -> int:
    g = 0
    for c in a:
        g = _int_gcd(g, c)
    return g


def _qorder(a: ZPoly) -> int:
    """The exponent of the largest power of q dividing a nonzero a."""
    k = 0
    while not a[k]:
        k += 1
    return k


def _pdiv_exact(a: ZPoly, b: ZPoly) -> ZPoly:
    """a / b in Z[q]; raises InexactDivisionError unless b divides a there."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return ()
    k = _qorder(b)
    if k:
        if any(a[:k]):
            raise InexactDivisionError("inexact polynomial division")
        a, b = a[k:], b[k:]
    lb, nb = b[-1], len(b)
    if nb == 1:
        if lb == 1:
            return a
        quo = []
        for c in a:
            c, r = divmod(c, lb)
            if r:
                raise InexactDivisionError("inexact polynomial division")
            quo.append(c)
        return tuple(quo)
    rem = list(a)
    quo = [0] * max(len(a) - nb + 1, 0)
    for i in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[i + nb - 1], lb)
        if r:
            raise InexactDivisionError("inexact polynomial division")
        if c:
            quo[i] = c
            for j in range(nb - 1):
                rem[i + j] -= c * b[j]
    if any(rem[: nb - 1]):
        raise InexactDivisionError("inexact polynomial division")
    return tuple(quo)


_UNITS = ((1,), (-1,))


def _pgcd(a: ZPoly, b: ZPoly) -> ZPoly:
    """Gcd of nonzero a and b in Z[q], content included, positive leading coeff.

    A unit ±1 divides everything and shares nothing, so it gives 1 at once.
    Otherwise the common power of q and the integer content come off first;
    a single term c·q^k shares nothing else with any polynomial, and two
    q-free primitive parts go to the heuristic gcd.
    """
    if a in _UNITS or b in _UNITS:
        return (1,)
    ka, kb = _qorder(a), _qorder(b)
    a, b = a[ka:], b[kb:]
    ca, cb = _pcontent(a), _pcontent(b)
    c = _int_gcd(ca, cb)
    if len(a) == 1 or len(b) == 1:
        core = (c,)
    else:
        core = tuple(c * x for x in _pgcd_heuristic(_pdiv_exact(a, (ca,)), _pdiv_exact(b, (cb,))))
    return (0,) * min(ka, kb) + core


_HEURISTIC_POINTS = 6


def _pgcd_heuristic(a: ZPoly, b: ZPoly) -> ZPoly:
    """Gcd of primitive, q-free a and b of degree ≥ 1 (Char–Geddes–Gonnet GCDHEU).

    Evaluates at an integer ξ, takes the integer gcd γ and reads a candidate
    off the symmetric ξ-adic digits of γ.  With ξ ≥ 2·min(‖a‖∞, ‖b‖∞) + 2, a
    candidate whose primitive part divides both a and b exactly is the gcd
    (Geddes–Czapor–Labahn, Thm 7.7), so every answer is proved by exact
    division.  After a fixed number of points, Euclid decides.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    most = min(len(a), len(b))
    for _ in range(_HEURISTIC_POINTS):
        gamma = _int_gcd(_peval(a, xi), _peval(b, xi))
        digits = []
        while gamma:
            d = gamma % xi
            if 2 * d > xi:
                d -= xi
            digits.append(d)
            gamma = (gamma - d) // xi
        if len(digits) <= most:
            g = _pdiv_exact(tuple(digits), (_pcontent(digits),))
            if g[-1] < 0:
                g = _pneg(g)
            try:
                _pdiv_exact(a, g)
                _pdiv_exact(b, g)
                return g
            except InexactDivisionError:
                pass
        xi = xi * 73794 // 27011
    return _pgcd_euclid(a, b)


def _peval(a: ZPoly, x: int) -> int:
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _pgcd_euclid(a: ZPoly, b: ZPoly) -> ZPoly:
    """Gcd of primitive a and b by monic Euclid over Q; positive leading coeff."""
    fa = [Fraction(c) for c in a]
    fb = [Fraction(c) for c in b]
    while fb:
        # fa mod fb
        lb = fb[-1]
        for k in range(len(fa) - len(fb), -1, -1):
            c = fa[k + len(fb) - 1] / lb
            if c:
                for j, cb in enumerate(fb):
                    fa[k + j] -= c * cb
        while fa and fa[-1] == 0:
            fa.pop()
        fa, fb = fb, fa
    den_lcm = 1
    for c in fa:
        den_lcm = den_lcm * c.denominator // _int_gcd(den_lcm, c.denominator)
    ints = _trim(int(c * den_lcm) for c in fa)
    g = _pdiv_exact(ints, (_pcontent(ints),))
    return _pneg(g) if g[-1] < 0 else g


def _pstr(a: ZPoly) -> str:
    if not a:
        return "0"
    parts = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if not c:
            continue
        if e == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}q" if e == 1 else f"{mag}q^{e}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f" + {term}" if c > 0 else f" - {term}")
    return "".join(parts)


# The open job's memo, (sums, products), each keyed by the operands' (a, b, c, d).
_MEMO: ContextVar = ContextVar("qq_memo", default=None)

# A sum or product is memoised only when its operands hold at most this many
# coefficients in all.  The operands of each of the 2,590 products of a
# verify-quantum pass that pass the shortcuts hold at most 22.  A long quantum
# rewrite grows coefficients that never repeat: memoising every one of them
# raised the peak RSS of a 20-letter G2 rewrite from 42.2 to 109.7 MB, against
# 41.3 MB under this bound.
_MEMO_MAX_COEFFS = 24


@contextmanager
def job_memo():
    """Memoise Q(q) sums and products until the block exits, by return or by raise."""
    token = _MEMO.set(({}, {}))
    try:
        yield
    finally:
        _MEMO.reset(token)


class QScalar:
    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        num = _trim(num)
        den = _trim(den)
        if not den:
            raise ZeroDivisionError("QScalar denominator is the zero polynomial")
        if not num:
            den = (1,)
        else:
            g = _pgcd(num, den)
            if g != (1,):
                num = _pdiv_exact(num, g)
                den = _pdiv_exact(den, g)
            if den[-1] < 0:
                num, den = _pneg(num), _pneg(den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def _reduced(num: ZPoly, den: ZPoly) -> "QScalar":
        """num/den from a pair already in canonical form; nothing is normalised."""
        x = object.__new__(QScalar)
        object.__setattr__(x, "num", num)
        object.__setattr__(x, "den", den)
        return x

    def __setattr__(self, *a):
        raise AttributeError("QScalar is immutable")

    @staticmethod
    def laurent(terms: dict) -> "QScalar":
        """Σ c·q^e from integer Laurent coefficients {e: c}, with no gcd: over
        q^k, −k the lowest exponent below 0, the numerator has a nonzero constant term."""
        exps = [e for e, c in terms.items() if c]
        if not exps:
            return QQ_ZERO
        low = min(min(exps), 0)
        return QScalar._reduced(tuple(terms.get(e, 0) for e in range(low, max(exps) + 1)), (0,) * -low + (1,))

    @staticmethod
    def from_int(k) -> "QScalar":
        if isinstance(k, Fraction):  # already reduced, with a positive denominator
            return QScalar._reduced((k.numerator,) if k else (), (k.denominator,))
        return QScalar((int(k),))

    @staticmethod
    def _coerce(x):
        if isinstance(x, QScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return QScalar.from_int(x)
        return NotImplemented

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = QScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        num, den = self.num, self.den
        if len(num) <= 1 and len(den) == 1:  # a rational: hash as the int or Fraction it equals
            return hash(Fraction(num[0], den[0]) if num else 0)
        return hash((num, den))

    def __add__(self, other):
        other = QScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        memo = _MEMO.get()
        if memo is None or len(a) + len(b) + len(c) + len(d) > _MEMO_MAX_COEFFS:
            return _add(a, b, c, d)
        key = (a, b, c, d)
        s = memo[0].get(key)
        if s is None:
            s = memo[0][key] = _add(a, b, c, d)
        return s

    __radd__ = __add__

    def __neg__(self):
        return QScalar._reduced(_pneg(self.num), self.den)

    def __sub__(self, other):
        other = QScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = QScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = QScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num == self.den:  # self is 1: canonical num and den are equal only as (1,)
            return other
        if other.num == other.den:
            return self
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a or not c:
            return QQ_ZERO
        memo = _MEMO.get()
        if memo is None or len(a) + len(b) + len(c) + len(d) > _MEMO_MAX_COEFFS:
            return _mul(a, b, c, d)
        key = (a, b, c, d)
        p = memo[1].get(key)
        if p is None:
            p = memo[1][key] = _mul(a, b, c, d)
        return p

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = QScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def inverse(self) -> "QScalar":
        num, den = self.num, self.den
        if not num:
            raise ZeroDivisionError(f"division by zero QScalar ({self!r})")
        if num[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        return QScalar._reduced(den, num)

    def __repr__(self):
        if self.den == (1,):
            return _pstr(self.num)
        ns = _pstr(self.num)
        if sum(1 for c in self.num if c) > 1:
            ns = f"({ns})"
        ds = _pstr(self.den)
        if sum(1 for c in self.den if c) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"


def _is_q_power(b: ZPoly) -> bool:
    """Is the canonical denominator b a power q^k, k ≥ 0?"""
    return b[-1] == 1 and b.count(0) == len(b) - 1


def _over_q_power(t: ZPoly, m: int) -> "QScalar":
    """t/q^m for a nonzero t: q is the only prime factor of q^m, so only
    min(ord_q t, m) comes off, and the pair is canonical as built."""
    if m:
        s = min(_qorder(t), m)
        t, m = t[s:], m - s
    return QScalar._reduced(t, (0,) * m + (1,))


def _add(a: ZPoly, b: ZPoly, c: ZPoly, d: ZPoly) -> "QScalar":
    """a/b + c/d for canonical operands: in closed form over powers of q,
    else (a·d + c·b)/(b·d) through the normalising constructor."""
    if _is_q_power(b) and _is_q_power(d):  # (a·q^{m−j} + c·q^{m−k})/q^m
        j, k = len(b) - 1, len(d) - 1
        m = max(j, k)
        t = _padd((0,) * (m - j) + a, (0,) * (m - k) + c)
        return _over_q_power(t, m) if t else QQ_ZERO
    return QScalar(_padd(_pmul(a, d), _pmul(c, b)), _pmul(b, d))


def _mul(a: ZPoly, b: ZPoly, c: ZPoly, d: ZPoly) -> "QScalar":
    """(a/b)·(c/d) for canonical operands with a and c nonzero: over powers
    of q, a·c/q^{j+k}; else a·c/(b·d) through the normalising constructor."""
    if _is_q_power(b) and _is_q_power(d):
        return _over_q_power(_pmul(a, c), len(b) + len(d) - 2)
    return QScalar(_pmul(a, c), _pmul(b, d))


QQ_ZERO = QScalar(())
QQ_ONE = QScalar((1,))


def q_power(k: int) -> QScalar:
    """q^k for any integer k."""
    if k >= 0:
        return QScalar((0,) * k + (1,))
    return QScalar((1,), (0,) * (-k) + (1,))


def q_binom(m: int, k: int, d: int = 1) -> QScalar:
    """Balanced q-binomial coefficient [m, k]_{q^d}, by the q-Pascal rule
    [m, k] = q^{dk}·[m−1, k] + q^{−d(m−k)}·[m−1, k−1].

    The rows hold integer Laurent coefficients {exponent: int}; one QScalar
    is built at the end (`QScalar.laurent`), so no step divides or takes a gcd.
    """
    if k < 0 or k > m:
        return QQ_ZERO
    row = [{0: 1}] + [{} for _ in range(k)]  # row[j] = [i, j], from i = 0
    for i in range(1, m + 1):
        for j in range(min(i, k), 0, -1):  # descending, so row[j - 1] is still [i − 1, j − 1]
            new = {e + d * j: c for e, c in row[j].items()}
            for e, c in row[j - 1].items():
                new[e - d * (i - j)] = new.get(e - d * (i - j), 0) + c
            row[j] = new
    return QScalar.laurent(row[k])
