"""Symmetric/exterior power characters of the natural module and the
Jacobi-Trudi determinant characters (both the symmetric-power and the
exterior-power determinant forms), plus the formal determinant identity
suite behind their equality.

Conventions: p_r = 0 and e_r = 0 for r < 0; for a partition lambda the
staircase shift is lambda* = (lambda_1, lambda_2 - 1, ..., lambda_k - k + 1),
which may go negative.
"""

from __future__ import annotations

from functools import lru_cache

from .laurent import LaurentPoly
from .linalg import det_bareiss_laurent
from .rootdata import Algebra, DimensionGuard, HookConditionError, conjugate_partition, fits_hook, validate_partition
from .series import (
    series_one,
    super_elementary_series,
    super_homogeneous_series,
    times_geometric,
)


def _natural_weights(alg: Algebra):
    """(even, odd) doubled weight tuples of the natural module C^{2n|l}."""
    even = []
    odd = []
    for i in range(alg.n):
        v = [0] * alg.rank
        v[i] = 2
        even.append(tuple(v))
        even.append(tuple(-x for x in v))
    for j in range(alg.m):
        v = [0] * alg.rank
        v[alg.n + j] = 2
        odd.append(tuple(v))
        odd.append(tuple(-x for x in v))
    if alg.odd:
        odd.append((0,) * alg.rank)
    return even, odd


class PowerTable:
    """Cached lists of p_r (symmetric powers) and e_r (exterior powers) of
    the natural module, grown on demand."""

    def __init__(self, alg: Algebra):
        self.alg = alg
        self._p = None
        self._e = None

    def _grow(self, which, order):
        even, odd = _natural_weights(self.alg)
        if which == "p":
            return super_homogeneous_series(even, odd, self.alg.n, self.alg.m, order)
        return super_elementary_series(even, odd, self.alg.n, self.alg.m, order)

    def p(self, r: int) -> LaurentPoly:
        if r < 0:
            return LaurentPoly.zero(self.alg.n, self.alg.m)
        if self._p is None or len(self._p) <= r:
            self._p = self._grow("p", max(r, 8))
        return self._p[r]

    def e(self, r: int) -> LaurentPoly:
        if r < 0:
            return LaurentPoly.zero(self.alg.n, self.alg.m)
        if self._e is None or len(self._e) <= r:
            self._e = self._grow("e", max(r, 8))
        return self._e[r]


@lru_cache(maxsize=64)
def power_table(alg: Algebra) -> PowerTable:
    return PowerTable(alg)


def sym_power_char(alg: Algebra, r: int) -> LaurentPoly:
    """Character of the r-th super symmetric power of C^{2n|l}."""
    return power_table(alg).p(r)


def ext_power_char(alg: Algebra, r: int) -> LaurentPoly:
    """Character of the r-th super exterior power of C^{2n|l}."""
    return power_table(alg).e(r)


def _check_hook(lam, alg):
    if not fits_hook(lam, alg.n, alg.m):
        raise HookConditionError(f"{lam} does not fit the ({alg.n}|{alg.m}) hook")


def jt_character(partition, alg: Algebra) -> LaurentPoly:
    """Jacobi-Trudi determinant in symmetric-power characters: column 0 is
    p_{lambda*}, column j is p_{lambda*+j} + p_{lambda*-j}."""
    lam = validate_partition(partition)
    _check_hook(lam, alg)
    if not lam:
        return LaurentPoly.one(alg.n, alg.m)
    k = len(lam)
    tab = power_table(alg)
    star = [lam[i] - i for i in range(k)]

    def entry(i, j):
        if j == 0:
            return tab.p(star[i])
        return tab.p(star[i] + j) + tab.p(star[i] - j)

    return det_bareiss_laurent([[entry(i, j) for j in range(k)] for i in range(k)])


def jt_character_e(partition, alg: Algebra) -> LaurentPoly:
    """The equal exterior-power determinant form: with mu the conjugate
    partition, column j is e_{mu*+j} - e_{mu*-j-2}."""
    lam = validate_partition(partition)
    _check_hook(lam, alg)
    if not lam:
        return LaurentPoly.one(alg.n, alg.m)
    mu = conjugate_partition(lam)
    k = len(mu)
    tab = power_table(alg)
    star = [mu[i] - i for i in range(k)]

    def entry(i, j):
        return tab.e(star[i] + j) - tab.e(star[i] - j - 2)

    return det_bareiss_laurent([[entry(i, j) for j in range(k)] for i in range(k)])


# -- formal determinant identities ------------------------------------------------


def _gvar(nvars, i, power=1):
    v = [0] * nvars
    v[i] = 2 * power
    return tuple(v)


def _gmono(nvars, i, power=1, coef=1):
    return LaurentPoly.monomial(nvars, 0, _gvar(nvars, i, power), coef)


# The series check at truncation 1600 takes about 5 s on a 2-core host, and
# its cost grows about as the square of the truncation.
IDENTITY_TRUNCATION_LIMIT = 1600


def identity_suite(n: int, truncation: int = 10) -> dict:
    """Verify, as exact Laurent-polynomial identities in formal variables,
    the four determinant/series identities behind the symmetric-power versus
    exterior-power equality of the Jacobi-Trudi characters.  Returns a dict
    of booleans keyed by identity name.  Raises DimensionGuard for a
    truncation above IDENTITY_TRUNCATION_LIMIT.
    """
    if n < 1 or n > 3:
        raise ValueError("identity suite is a desk-scale check: 1 <= n <= 3")
    if truncation < 0:
        raise ValueError(f"truncation must be >= 0, not {truncation}")
    if truncation > IDENTITY_TRUNCATION_LIMIT:
        raise DimensionGuard(f"truncation {truncation} exceeds the limit {IDENTITY_TRUNCATION_LIMIT}")
    report = {}
    report["cauchy_determinant_product"] = _cauchy_determinant_product(n)
    report["symplectic_column_factorization"] = _symplectic_column_factorization(n)
    report["symplectic_z_determinant"] = _symplectic_z_determinant(n)
    report["half_power_geometric_series"] = _half_power_geometric_series(truncation)
    return report


def _cauchy_determinant_product(n):
    """prod_i phi0(z_i) * det|1/((1-z_i u_k)(1-z_i u_k^{-1}))| equals
    prod_i z_i^{n-1} * det|u^{n-1}+u^{1-n},...,1| * det|1,z+z^{-1},...|.

    Denominators are cleared inside the determinant: entry (i,k) becomes the
    product of (1-z_i u_{k'})(1-z_i u_{k'}^{-1}) over k' != k.
    """
    nv = 2 * n  # z_1..z_n, u_1..u_n
    one = LaurentPoly.one(nv, 0)

    def z(i, p=1):
        return _gmono(nv, i, p)

    def u(k, p=1):
        return _gmono(nv, n + k, p)

    def entry(i, k):
        out = one
        for kp in range(n):
            if kp == k:
                continue
            out = out * (one - z(i) * u(kp)) * (one - z(i) * u(kp, -1))
        return out

    lhs = det_bareiss_laurent([[entry(i, k) for k in range(n)] for i in range(n)])
    acol = [[u(i, n - 1 - j) + u(i, -(n - 1 - j)) if j < n - 1 else one for j in range(n)] for i in range(n)]
    bcol = [[one if j == 0 else z(i, j) + z(i, -j) for j in range(n)] for i in range(n)]
    rhs = det_bareiss_laurent(acol) * det_bareiss_laurent(bcol)
    for i in range(n):
        rhs = rhs * z(i, n - 1)
    return lhs == rhs


def _symplectic_column_factorization(n):
    """det|u^n - u^{-n}, ..., u - u^{-1}| equals
    prod_i (u_i - u_i^{-1}) * det|u^{n-1}+u^{1-n}, ..., 1|."""
    nv = n
    one = LaurentPoly.one(nv, 0)

    def u(i, p=1):
        return _gmono(nv, i, p)

    lhs = det_bareiss_laurent([[u(i, n - j) - u(i, -(n - j)) for j in range(n)] for i in range(n)])
    rhs = det_bareiss_laurent(
        [[u(i, n - 1 - j) + u(i, -(n - 1 - j)) if j < n - 1 else one for j in range(n)] for i in range(n)]
    )
    for i in range(n):
        rhs = rhs * (u(i) - u(i, -1))
    return lhs == rhs


def _symplectic_z_determinant(n):
    """det|z^{-1}-z, ..., z^{-n}-z^n| (variables z_1..z_n) equals
    (z_n^{-1}-z_n) * prod_{i<n} z_i^{-1}(1-z_i z_n)(1-z_i z_n^{-1})
    * det|z-z^{-1}, ..., z^{n-1}-z^{1-n}| (variables z_1..z_{n-1})."""
    nv = n
    one = LaurentPoly.one(nv, 0)

    def z(i, p=1):
        return _gmono(nv, i, p)

    lhs = det_bareiss_laurent([[z(i, -(j + 1)) - z(i, j + 1) for j in range(n)] for i in range(n)])
    rhs = z(n - 1, -1) - z(n - 1, 1)
    for i in range(n - 1):
        rhs = rhs * z(i, -1) * (one - z(i) * z(n - 1)) * (one - z(i) * z(n - 1, -1))
    if n >= 2:
        small = det_bareiss_laurent([[z(i, j + 1) - z(i, -(j + 1)) for j in range(n - 1)] for i in range(n - 1)])
        rhs = rhs * small
    return lhs == rhs


def _half_power_geometric_series(order):
    """sum_{l>=0} (u^{l+1/2} - u^{-l-1/2}) z^{l-1} equals
    (1+z^{-1})(u^{1/2}-u^{-1/2}) / ((1-uz)(1-u^{-1}z)), checked coefficient
    by coefficient in z after multiplying both sides by z, to the given
    truncation order."""
    n_, m_ = 1, 0  # single variable u carrying half powers via the doubled convention

    def umono(doubled_power):
        return LaurentPoly.monomial(n_, m_, (doubled_power,))

    # z * RHS = (1+z)(u^{1/2}-u^{-1/2}) * sum_k h_k(u,u^{-1}) z^k
    series = series_one(n_, m_, order)
    series = times_geometric(series, (2,), n_, m_)
    series = times_geometric(series, (-2,), n_, m_)
    prefactor = umono(1) - umono(-1)
    for l in range(order + 1):
        rhs_l = prefactor * (series[l] + (series[l - 1] if l >= 1 else LaurentPoly.zero(n_, m_)))
        lhs_l = umono(2 * l + 1) - umono(-2 * l - 1)
        if rhs_l != lhs_l:
            return False
    return True
