"""A fixed piece of pure-Python work that rescales times to a fixed host speed.

The host that runs the benchmark is shared, and its speed drifts.  The same
job can take 1.3 to 1.6 times longer from one minute to the next, and a slow
spell can last for a whole run.  The yardstick does the same kinds of
interpreter work as borelweyl: a cofactor determinant on nested lists, a
product of tuple-keyed dicts over Fractions, and a polynomial Euclid over
Fractions.  So it slows down with the jobs.  A time multiplied by
``REFERENCE_S / yardstick seconds`` is that time on a host where the
yardstick takes ``REFERENCE_S``.

The timed times of the benchmark are rescaled this way, with the yardstick
measured next to the jobs.  Do not change this file.  Rescaled times from two
versions of borelweyl can be compared only when the same yardstick rescaled
both.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.01

_MATRIX = [[(3 * i + 5 * j) % 7 - 3 for j in range(6)] for i in range(6)]
_POLY_A = (3, -1, 4, 1, -5, 9, 2, -6, 5, 3, -5, 8, 9, 7, 9, 3, -2, 3, 8, 4)
_POLY_B = (2, 7, -1, 8, 2, -8, 1, 8, 2, 8, -4, 5, 9, 1, 4)


def _det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j in range(len(m)):
        term = m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        total += term if j % 2 == 0 else -term
    return total


def _product():
    p = {(i % 5, i % 3, i % 7): Fraction(i % 11 - 5, 1 + i % 4) for i in range(30)}
    out = {}
    for ea, ca in p.items():
        for eb, cb in p.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def _euclid():
    a = [Fraction(c) for c in _POLY_A]
    b = [Fraction(c) for c in _POLY_B]
    while b and any(b):
        lead = b[-1]
        for k in range(len(a) - len(b), -1, -1):
            c = a[k + len(b) - 1] / lead
            if c:
                for j, cb in enumerate(b):
                    a[k + j] -= c * cb
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    return a


def seconds() -> float:
    """Wall time of one run of the yardstick."""
    started = time.perf_counter()
    for _ in range(3):
        _det(_MATRIX)
    _product()
    _euclid()
    return time.perf_counter() - started
