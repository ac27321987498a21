"""Variable-wise ring endomorphisms: additive shifts and multiplicative scalings.

An EndoSpec is the data of either v_j ↦ v_j + c_j (rational c_j) or
v_j ↦ s_j·v_j (nonzero scalar s_j, typically a q-power).  These are exactly
the automorphism shapes the two model families use, and both kinds compose
and invert within their kind, so integer powers are cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .laurent import MLaurent, PolyFrac, _accumulate
from .qq import QScalar

__all__ = ["EndoSpec", "apply_endo"]


@dataclass(frozen=True)
class EndoSpec:
    kind: str  # "shift" or "scale"
    data: tuple

    def __post_init__(self):
        if self.kind not in ("shift", "scale"):
            raise ValueError(f"unknown endomorphism kind {self.kind!r}")
        if self.kind == "shift":
            object.__setattr__(self, "data", tuple(Fraction(c) for c in self.data))
        else:
            data = tuple(s if isinstance(s, QScalar) else QScalar.from_int(s) for s in self.data)
            if not all(data):
                raise ValueError("scaling factors must be nonzero")
            object.__setattr__(self, "data", data)

    @staticmethod
    def shift(amounts) -> "EndoSpec":
        return EndoSpec("shift", tuple(amounts))

    @staticmethod
    def scale(factors) -> "EndoSpec":
        return EndoSpec("scale", tuple(factors))

    @property
    def n(self) -> int:
        return len(self.data)

    def is_identity(self) -> bool:
        if self.kind == "shift":
            return not any(self.data)
        return all(s.is_one() for s in self.data)

    def compose(self, other: "EndoSpec") -> "EndoSpec":
        """The endomorphism doing ``other`` first, then ``self`` (same kind only)."""
        if self.kind != other.kind:
            raise ValueError("cannot compose a shift with a scaling")
        if self.n != other.n:
            raise ValueError(f"cannot compose endomorphisms of {self.n} and {other.n} variables")
        if self.kind == "shift":
            return EndoSpec.shift(tuple(a + b for a, b in zip(self.data, other.data)))
        return EndoSpec.scale(tuple(a * b for a, b in zip(self.data, other.data)))

    def inverse(self) -> "EndoSpec":
        if self.kind == "shift":
            return EndoSpec.shift(tuple(-c for c in self.data))
        return EndoSpec.scale(tuple(s.inverse() for s in self.data))

    def power(self, k: int) -> "EndoSpec":
        if self.kind == "shift":
            return EndoSpec.shift(tuple(c * k for c in self.data))
        return EndoSpec.scale(tuple(s**k for s in self.data))


def _apply_to_laurent(f: MLaurent, spec: EndoSpec) -> MLaurent:
    if f.n != spec.n:
        raise ValueError("endomorphism has wrong variable count")
    if spec.is_identity():
        return f
    if spec.kind == "scale":
        out = {}
        for e, c in f.terms.items():
            for i, k in enumerate(e):
                if k:
                    c = c * spec.data[i] ** k
            out[e] = c
        return MLaurent(f.n, out)
    # additive shift: expand (v_i + c_i)^{e_i} binomially
    for i, c in enumerate(spec.data):
        if c and (f.min_deg_in(i) or 0) < 0:
            raise ValueError(
                f"additive shift applied to Laurent variable index {i}: "
                "shift of an inverted variable is not polynomial"
            )
    cache: dict = {}

    def image(e, c):
        fixed = tuple(k if not spec.data[i] else 0 for i, k in enumerate(e))
        term = MLaurent.monomial(f.n, fixed, c)
        for i, k in enumerate(e):
            if k and spec.data[i]:
                key = (i, k)
                if key not in cache:
                    lin = MLaurent(f.n, {
                        tuple(1 if j == i else 0 for j in range(f.n)): Fraction(1),
                        (0,) * f.n: spec.data[i],
                    })
                    cache[key] = lin**k
                term = term * cache[key]
        return term.terms

    return MLaurent(f.n, _accumulate(image(e, c) for e, c in f.terms.items()))


def apply_endo(f, spec: EndoSpec):
    """Exact image of ``f`` (MLaurent or PolyFrac) under the endomorphism."""
    if isinstance(f, PolyFrac):
        return PolyFrac(_apply_to_laurent(f.num, spec), _apply_to_laurent(f.den, spec))
    return _apply_to_laurent(f, spec)
