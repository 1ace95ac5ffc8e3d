"""Symmetric/exterior power characters of the natural module and the
Jacobi-Trudi determinant characters (both the symmetric-power and the
exterior-power determinant forms), plus the formal determinant identity
suite behind their equality.

Conventions: p_r = 0 and e_r = 0 for r < 0; for a partition lambda the
staircase shift is lambda* = (lambda_1, lambda_2 - 1, ..., lambda_k - k + 1),
which may go negative.

The u-basis.  The natural module C^{2n|l} has weights +-d_i, +-e_j, and 0
for odd l, so every p_r and e_r is invariant under each single sign change
on each slot, the D_m e-slots of even l included.  It is then a polynomial
in u_s = t_s + t_s^-1, where t_s is e^{d_i} or e^{e_j}.  The power tables
are built in Z[u_1, ..., u_{n+m}], a `LaurentPoly` whose slot s holds the
plain u_s-degree: by the generating functions, p-series multiply by
1/(1 - u z + z^2) per d-slot, by (1 + v z + z^2) per e-slot and by (1 + z)
for the zero weight; e-series exchange the two factor types, the zero
weight giving 1/(1 - z).  Each factor is one call of the series
recurrence, `series.divided` or `series.times`.  The Jacobi-Trudi
determinants run on these entries, and `from_u_basis` expands each result
once: per slot u^k = sum over j <= k/2 of C(k, j) O_{k-2j}, with
O_a = t^a + t^-a for a > 0 and O_0 = 1, so the central term keeps C(k, k/2).
Those steps are built once per process, per field shift and degree bound
(`_binomial_steps`), up to the largest u-degree the caller can meet: B
below for a determinant, r for p_r and e_r.
The character holds the terms with every exponent >= 0, the columns of the
packed result, and expands them to their sign images on every slot only
when its terms are first read (`laurent.sign_images`); its term count and
vdim come from them.

Packed tables.  `PowerTable` keeps the u-basis p_r and e_r only as packed
term dicts {int: coefficient} (`laurent.Packing`), in one unsigned layout:
u-degrees are >= 0, so slot s is a plain bit field and multiplying
monomials is adding ints.  `PowerTable.rows` hands out the layout and the
rows as one pair.  A determinant asks once for the largest power it reads,
max(lambda*) + k - 1, and a series that stops short of it is built once, to
exactly that order; a determinant that needs wider fields replaces the
layout, and both forms' rows are built again in the new one when next
asked for.  A determinant builds its entries as sums of packed dicts
(`laurent.add_terms`), `linalg.det_bareiss_laurent` eliminates on them in
that layout, and `from_u_basis` runs its binomial steps on the int keys and
reads the result's columns once.  The width is proven, not guessed: let B
be the sum over the rows of the row's largest u-degree, sum_i
max(lambda*_i + k - 1, 0) for the p-form (the conjugate partition's for the
e-form), as p_r and e_r have u-degree at most r in each slot.  Every minor
then has u-degree at most B in each slot, so a product of two minors before
Bareiss divides it reaches at most 2B, and so does the O-exponent 2k of
`from_u_basis`.  Each field holds 0..2B, rounded up to whole bytes
(`_width`).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .laurent import LaurentPoly, Packing, sign_images
from .laurent.core import add_terms
from .linalg import det_bareiss_laurent
from .rootdata import (
    Algebra,
    DimensionGuard,
    conjugate_partition,
    hook_partition,
)
from .series import divided, series_one, times


def _u_series(alg: Algebra, order, exterior):
    """[p_0, ..., p_order] (or the e_r when exterior) in the u-basis."""
    n, m, rank = alg.n, alg.m, alg.rank
    series = series_one(n, m, order)
    for s in range(rank):
        u = LaurentPoly.monomial(n, m, tuple(int(t == s) for t in range(rank)))
        series = divided(series, [-u, 1]) if (s < n) != exterior else times(series, [u, 1])
    if alg.odd:  # the zero weight: 1/(1 - z) for the e_r, 1 + z for the p_r
        series = divided(series, [-1]) if exterior else times(series, [1])
    return series


@lru_cache(maxsize=256)
def _binomial_steps(shift, bound):
    """The binomial steps of `from_u_basis` on the field at bit `shift`,
    listed by u-degree k = 0..bound: the (key offset, C(k, j)) of each
    j <= k/2, the offset moving the field from k to the O-exponent
    2(k - 2j).  A caller passes the largest u-degree it can meet as bound,
    so the table holds only degrees that are read.  It keeps one entry per
    bound met, so the steps share one int per offset and each degree's
    steps are one tuple, to keep it small."""
    offsets = [d << shift for d in range(-bound, bound + 1)]
    return [tuple((offsets[bound + k - 4 * j], comb(k, j)) for j in range(k // 2 + 1)) for k in range(bound + 1)]


def from_u_basis(p, packing, bound) -> LaurentPoly:
    """The character whose u-basis form is the packed term dict p, in the
    unsigned `packing`, with u-degree at most bound in each slot (see the
    module docstring): the binomial step runs slot by slot on the int keys,
    u^k = sum over j <= k/2 of C(k, j) O_{k-2j} with O_a read as t^a, which
    moves the field of slot s by k - 4j (`_binomial_steps`).  Then the
    result is read as one column per slot, the orthant terms of a character
    invariant under the sign change of every slot, which it holds
    (`laurent.sign_images`): `dim --jt`, and text output above 30 terms,
    read only its term count and vdim from them, and its sign images are
    built when its terms are first read."""
    width, rank = packing.width, packing.n + packing.m
    mask = (1 << width) - 1
    terms = p
    for s in range(rank):
        shift = width * s
        steps = _binomial_steps(shift, bound)
        out = {}
        get = out.get
        for key, c in terms.items():
            for offset, b in steps[key >> shift & mask]:
                t = key + offset
                out[t] = get(t, 0) + b * c
        terms = {t: c for t, c in out.items() if c} if 0 in out.values() else out
    return sign_images(packing.n, packing.m, packing.columns(terms), terms.values(), range(rank))


def _width(bound):
    """Field width of the packed tables for a determinant whose rows'
    largest u-degrees sum to B = bound: B bounds every minor's u-degree in
    each slot, so a product of two minors before its division reaches at
    most 2B, and so does the O-exponent 2k that `from_u_basis` forms.  The
    fields hold 0..2B, rounded up to whole bytes so that most determinants
    share one table."""
    return max(8, -(-(2 * bound).bit_length() // 8) * 8)


class PowerTable:
    """p_r (symmetric powers) and e_r (exterior powers) of the natural
    module in the u-basis, kept only as packed term dicts in one layout, one
    list per form; each r is expanded at most once.  The layout and both
    lists are one tuple, replaced whole and never mutated, so a caller's
    (packing, rows) always belong together."""

    def __init__(self, alg: Algebra):
        self.alg = alg
        self._tables = (Packing(alg.n, alg.m, _width(0)), {"p": [], "e": []})
        self._full = {"p": {}, "e": {}}

    def rows(self, which, top, bound):
        """(packing, rows): rows[r] is p_r (which "p") or e_r (which "e")
        in the u-basis, packed in `packing`, for r = 0..top (top >= 0) at
        least.  A layout narrower than `_width(bound)` is replaced, and both
        forms' rows with it; rows that stop short of top are built once, to
        exactly top."""
        packing, tables = self._tables
        width = _width(bound)
        if width > packing.width:  # the empty rows below are then built
            packing, tables = Packing(self.alg.n, self.alg.m, width), {"p": [], "e": []}
        rows = tables[which]
        if len(rows) <= top:
            rows = [packing.pack(x.terms) for x in _u_series(self.alg, top, which == "e")]
            self._tables = (packing, {**tables, which: rows})
        return packing, rows

    def _expanded(self, which, r):
        if r < 0:
            return LaurentPoly.zero(self.alg.n, self.alg.m)
        full = self._full[which]
        if r not in full:
            packing, rows = self.rows(which, r, r)
            full[r] = from_u_basis(rows[r], packing, r)
        return full[r]

    def p(self, r: int) -> LaurentPoly:
        return self._expanded("p", r)

    def e(self, r: int) -> LaurentPoly:
        return self._expanded("e", r)


@lru_cache(maxsize=64)
def power_table(alg: Algebra) -> PowerTable:
    return PowerTable(alg)


def sym_power_char(alg: Algebra, r: int) -> LaurentPoly:
    """Character of the r-th super symmetric power of C^{2n|l}."""
    return power_table(alg).p(r)


def ext_power_char(alg: Algebra, r: int) -> LaurentPoly:
    """Character of the r-th super exterior power of C^{2n|l}."""
    return power_table(alg).e(r)


def _jt_determinant(alg, which, star, entry) -> LaurentPoly:
    """The expanded determinant of the k x k matrix of entry(power, star[i],
    j), where power(r) is the packed u-basis p_r or e_r (which): the largest
    power in row i is star[i] + k - 1, whose u-degree bounds the row's."""
    k = len(star)
    bound = sum(max(s + k - 1, 0) for s in star)
    packing, rows = power_table(alg).rows(which, max(star) + k - 1, bound)

    def power(r):
        return rows[r] if r >= 0 else {}

    matrix = [[entry(power, star[i], j) for j in range(k)] for i in range(k)]
    return from_u_basis(det_bareiss_laurent(matrix, packing), packing, bound)


def jt_character(partition, alg: Algebra) -> LaurentPoly:
    """Jacobi-Trudi determinant in symmetric-power characters: column 0 is
    p_{lambda*}, column j is p_{lambda*+j} + p_{lambda*-j}.  The determinant
    is taken in the u-basis and expanded once."""
    lam = hook_partition(partition, alg)
    if not lam:
        return LaurentPoly.one(alg.n, alg.m)

    def entry(power, s, j):
        return power(s) if j == 0 else add_terms(power(s + j), power(s - j))

    return _jt_determinant(alg, "p", [lam[i] - i for i in range(len(lam))], entry)


def jt_character_e(partition, alg: Algebra) -> LaurentPoly:
    """The equal exterior-power determinant form: with mu the conjugate
    partition, column j is e_{mu*+j} - e_{mu*-j-2}.  The determinant is
    taken in the u-basis and expanded once."""
    lam = hook_partition(partition, alg)
    if not lam:
        return LaurentPoly.one(alg.n, alg.m)
    mu = conjugate_partition(lam)

    def entry(power, s, j):
        return add_terms(power(s + j), power(s - j - 2), -1)

    return _jt_determinant(alg, "e", [mu[i] - i for i in range(len(mu))], entry)


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
    series = divided(series_one(n_, m_, order), [-umono(2)])
    series = divided(series, [-umono(-2)])
    prefactor = umono(1) - umono(-1)
    for l in range(order + 1):
        rhs_l = prefactor * (series[l] + (series[l - 1] if l >= 1 else LaurentPoly.zero(n_, m_)))
        lhs_l = umono(2 * l + 1) - umono(-2 * l - 1)
        if rhs_l != lhs_l:
            return False
    return True
