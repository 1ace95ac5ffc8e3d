"""Truncated power series in an auxiliary variable z with LaurentPoly
coefficients.  A series is a list [c_0, ..., c_N]; truncation order is the
list length.  Used for super symmetric/exterior power generating functions:
coefficient extraction stays exact, no rational-function machinery needed.
"""

from __future__ import annotations

from .laurent import LaurentPoly


def series_one(n, m, order):
    out = [LaurentPoly.zero(n, m) for _ in range(order + 1)]
    out[0] = LaurentPoly.one(n, m)
    return out


def times_linear(series, exps, n, m):
    """series *= (1 + e^exps z)."""
    mono = LaurentPoly.monomial(n, m, exps)
    out = list(series)
    for k in range(len(series) - 1, 0, -1):
        out[k] = out[k] + mono * series[k - 1]
    return out


def times_geometric(series, exps, n, m):
    """series *= 1/(1 - e^exps z)  (i.e. sum_k e^{k*exps} z^k)."""
    mono = LaurentPoly.monomial(n, m, exps)
    out = list(series)
    for k in range(1, len(series)):
        out[k] = out[k] + mono * out[k - 1]
    return out


def super_homogeneous_series(even_weights, odd_weights, n, m, order):
    """Complete super-symmetric powers of a module with the given weights:
    prod 1/(1 - e^w z) over even weights * prod (1 + e^w z) over odd ones."""
    s = series_one(n, m, order)
    for w in even_weights:
        s = times_geometric(s, w, n, m)
    for w in odd_weights:
        s = times_linear(s, w, n, m)
    return s

