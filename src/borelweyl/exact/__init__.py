"""Exact scalar and polynomial arithmetic underlying every model computation.

Mirrors one design rule: equality is decided by canonical forms, never by
evaluation at sample points.  Rationals are ``int`` or ``fractions.Fraction``,
and integer arithmetic keeps its results as ``int``; Q(q) and the polynomial
types live in the submodules.
"""

from .qq import QScalar, q_power, q_binom, QQ_ZERO, QQ_ONE, job_memo
from .laurent import (
    MLaurent,
    PolyFrac,
    poly_div_exact,
)

__all__ = [
    "QScalar",
    "q_power",
    "q_binom",
    "QQ_ZERO",
    "QQ_ONE",
    "job_memo",
    "MLaurent",
    "PolyFrac",
    "poly_div_exact",
]
