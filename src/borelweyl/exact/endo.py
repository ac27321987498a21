"""The two automorphism kernels of the skew models, each fixed by one vector.

Classically σ^m shifts every variable, v_j ↦ v_j + u_j with rational u_j;
in the quantum model it scales every torus variable, K_j ↦ q^{e_j}·K_j with
integer e_j.  A model context reads u or e off its Cartan matrix, so both
kernels take the vector itself.  Only classical coefficients can be
fractions, and `shift` maps one part by part.
"""

from __future__ import annotations

from .laurent import MLaurent, PolyFrac
from .qq import q_power

__all__ = ["shift", "scale"]


def shift(f, u):
    """f(v + u): the substitution v_j ↦ v_j + u_j, keeping each v_j with u_j = 0."""
    if isinstance(f, PolyFrac):
        return PolyFrac(shift(f.num, u), shift(f.den, u))
    return f.substitute([MLaurent.var(f.n, j) + c if c else None for j, c in enumerate(u)])


def scale(f, e):
    """f(q^{e_1}·K_1, …, q^{e_n}·K_n): the term c·K^w becomes q^{⟨e,w⟩}·c·K^w."""
    if len(e) != f.n:
        raise ValueError(f"a scaling of {len(e)} variables applied to {f.n}")
    out = {}
    for w, c in f.terms.items():
        k = sum(x * y for x, y in zip(e, w))
        out[w] = c * q_power(k) if k else c
    return MLaurent(f.n, out)
