"""Truncated power series in an auxiliary variable z with LaurentPoly
coefficients.  A series is a list [c_0, ..., c_N]; truncation order is the
list length.  Used for super symmetric/exterior power generating functions:
coefficient extraction stays exact, no rational-function machinery needed.

`times` multiplies a series by 1 + f_1 z + ... + f_d z^d and `divided`
divides it by one, each f_i a LaurentPoly (a monomial costs one shift) or
an int: the one series recurrence.
"""

from __future__ import annotations

from .laurent import LaurentPoly


def series_one(n, m, order):
    out = [LaurentPoly.zero(n, m) for _ in range(order + 1)]
    out[0] = LaurentPoly.one(n, m)
    return out


def times(series, factor):
    """series * (1 + f_1 z + ... + f_d z^d) for factor [f_1, ..., f_d]."""
    out = list(series)
    for k in range(len(out) - 1, 0, -1):
        for i, f in enumerate(factor[:k], 1):
            out[k] = out[k] + series[k - i] * f
    return out


def divided(series, factor):
    """series / (1 + f_1 z + ... + f_d z^d) for factor [f_1, ..., f_d]: each
    coefficient of the quotient from those below it, the factor negated once."""
    negated = [-f for f in factor]
    out = list(series)
    for k in range(1, len(out)):
        for i, f in enumerate(negated[:k], 1):
            out[k] = out[k] + out[k - i] * f
    return out


def super_homogeneous_series(even_weights, odd_weights, n, m, order):
    """Complete super-symmetric powers of a module with the given weights:
    prod 1/(1 - e^w z) over even weights * prod (1 + e^w z) over odd ones."""
    s = series_one(n, m, order)
    for w in even_weights:
        s = divided(s, [LaurentPoly.monomial(n, m, w, -1)])
    for w in odd_weights:
        s = times(s, [LaurentPoly.monomial(n, m, w)])
    return s
