"""The packed Jacobi-Trudi path against the tuple u-basis path it replaced.

`_det_bareiss_tuple` and `_from_u_basis_tuple` are frozen copies of the
LaurentPoly Bareiss elimination and of the tuple u-basis expansion as
jacobitrudi and linalg ran them before the determinants moved onto packed
term dicts; `_jt_tuple` and `_jt_e_tuple` build the determinant entries as
they were, from `PowerTable.u`.  `_from_u_basis_tuple` adds the sign
images with `frozen_sign_images`, the frozen per-term expansion of
test_sign_images.  Every comparison is term for term.

`_from_u_basis_per_call` is a frozen copy of the packed `from_u_basis` as
it ran before its binomial steps moved into the process table
`_binomial_steps`: it builds the steps of each u-degree on every call and
for every slot, and reads every column through an offset map.
"""

import operator
from itertools import repeat
from math import comb

import pytest

from spochar import charformulas, jacobitrudi, linalg
from spochar.blocksdecomp import gl_parabolic
from spochar.jacobitrudi import (
    PowerTable,
    _binomial_steps,
    ext_power_char,
    identity_suite,
    jt_character,
    jt_character_e,
    power_table,
    sym_power_char,
)
from spochar.laurent import LaurentPoly, exact_div, sign_images
from spochar.linalg import det_bareiss_laurent
from spochar.rootdata import (
    Algebra,
    conjugate_partition,
    fits_hook,
    partitions_up_to,
    validate_partition,
)
from test_jacobitrudi import _euler_jt_grid
from test_sign_images import frozen_sign_images


def _det_bareiss_tuple(matrix):
    """Determinant of a square matrix of LaurentPoly via fraction-free
    Bareiss elimination (divisions are exact in the Laurent ring).

    Pivoting is full: step r takes as pivot the nonzero entry of the
    remaining block with the fewest terms (ties to the first in row-major
    order) and swaps its row and its column into place, one sign flip per
    swap; Sylvester's identity, which makes every division exact, holds for
    any order of rows and columns.  Jacobi-Trudi matrices are full of
    p_0 = e_0 = 1, so most pivots and most divisors are 1: a unit pivot
    skips its product and `exact_div` returns a dividend over 1 as it is.
    An all-zero remaining block means the determinant is zero.
    """
    k = len(matrix)
    if k == 0:
        raise ValueError("empty matrix")
    n, m = matrix[0][0].n, matrix[0][0].m
    one = LaurentPoly.one(n, m)
    a = [list(row) for row in matrix]
    sign = 1
    prev = one
    for r in range(k - 1):
        nonzero = ((len(a[i][j]), i, j) for i in range(r, k) for j in range(r, k) if a[i][j])
        _, pr, pc = min(nonzero, default=(0, None, None))
        if pr is None:
            return LaurentPoly.zero(n, m)
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            sign = -sign
        if pc != r:
            for row in a[r:]:
                row[r], row[pc] = row[pc], row[r]
            sign = -sign
        piv = a[r][r]
        unit = piv == one
        for i in range(r + 1, k):
            for j in range(r + 1, k):
                a[i][j] = exact_div((a[i][j] if unit else piv * a[i][j]) - a[i][r] * a[r][j], prev)
        prev = piv
    result = a[k - 1][k - 1]
    return result if sign == 1 else -result


def _from_u_basis_tuple(p: LaurentPoly) -> LaurentPoly:
    """The character whose u-basis form is p (see the module docstring)."""
    terms = p.terms
    for s in range(p.rank):
        out = {}
        get = out.get
        for e, c in terms.items():
            k = e[s]
            head, tail = e[:s], e[s + 1:]
            for j in range(k // 2 + 1):
                key = head + (2 * (k - 2 * j),) + tail
                out[key] = get(key, 0) + comb(k, j) * c
        terms = {e: c for e, c in out.items() if c}
    return frozen_sign_images(LaurentPoly._wrap(p.n, p.m, terms), range(p.rank))


def _u(alg, which, r):
    """p_r (which "p") or e_r (which "e") in the u-basis, unpacked from the
    power table."""
    if r < 0:
        return LaurentPoly.zero(alg.n, alg.m)
    packing, rows = power_table(alg).rows(which, r, r)
    return packing.unpack(rows[r])


def _jt_tuple(partition, alg):
    lam = validate_partition(partition)
    if not lam:
        return LaurentPoly.one(alg.n, alg.m)
    k = len(lam)
    star = [lam[i] - i for i in range(k)]

    def entry(i, j):
        if j == 0:
            return _u(alg, "p", star[i])
        return _u(alg, "p", star[i] + j) + _u(alg, "p", star[i] - j)

    return _from_u_basis_tuple(_det_bareiss_tuple([[entry(i, j) for j in range(k)] for i in range(k)]))


def _jt_e_tuple(partition, alg):
    lam = validate_partition(partition)
    if not lam:
        return LaurentPoly.one(alg.n, alg.m)
    mu = conjugate_partition(lam)
    k = len(mu)
    star = [mu[i] - i for i in range(k)]

    def entry(i, j):
        return _u(alg, "e", star[i] + j) - _u(alg, "e", star[i] - j - 2)

    return _from_u_basis_tuple(_det_bareiss_tuple([[entry(i, j) for j in range(k)] for i in range(k)]))


def _assert_both_forms(lam, alg):
    assert jt_character(lam, alg).terms == _jt_tuple(lam, alg).terms, (str(alg), lam)
    assert jt_character_e(lam, alg).terms == _jt_e_tuple(lam, alg).terms, (str(alg), lam)


def test_packed_jacobi_trudi_matches_the_tuple_path_on_the_benchmark_grid():
    grid = _euler_jt_grid()
    assert len(grid) == 56
    for algtxt, lam in grid:
        _assert_both_forms(lam, Algebra.parse(algtxt))


# odd and even l, l = 2 (a D_1 side without roots) among them
GATE_ALGEBRAS = ["2|2", "4|2", "2|3", "4|3", "6|3", "2|4", "4|4", "2|5"]


@pytest.mark.parametrize("algtxt", GATE_ALGEBRAS)
def test_packed_jacobi_trudi_matches_the_tuple_path(algtxt):
    alg = Algebra.parse(algtxt)
    lams = [lam for lam in partitions_up_to(7) if fits_hook(lam, alg.n, alg.m)]
    for lam in lams:
        _assert_both_forms(lam, alg)


@pytest.mark.parametrize("algtxt, lam", [("6|3", (3, 3, 3)), ("6|4", (4, 4, 4))])
def test_packed_jacobi_trudi_divides_by_a_non_unit_pivot(monkeypatch, algtxt, lam):
    # the only determinants here whose elimination divides by a pivot other
    # than 1; both forms take that division
    alg = Algebra.parse(algtxt)
    divisors = []

    def recording(p, q, packing=None):
        divisors.append(q)
        return exact_div(p, q, packing)

    monkeypatch.setattr(linalg, "exact_div", recording)
    for form in (jt_character, jt_character_e):
        divisors.clear()
        form(lam, alg)
        assert any(len(q) > 1 for q in divisors), form.__name__
    monkeypatch.undo()
    _assert_both_forms(lam, alg)


@pytest.mark.parametrize("lam", [(128,), (127, 1)])
def test_packed_jacobi_trudi_just_above_a_field_width_step(lam):
    # B = 128 and 129: the fields must hold 2B >= 256, one bit more than a
    # byte, so sizing them from B would carry into the next slot
    alg = Algebra.parse("2|3")
    assert jt_character(lam, alg).terms == _jt_tuple(lam, alg).terms
    mu = conjugate_partition(lam)
    assert jt_character_e(mu, alg).terms == _jt_e_tuple(mu, alg).terms


@pytest.mark.parametrize("algtxt", ["2|0", "2|1", "2|2", "4|3", "2|4", "4|5"])
def test_packed_power_characters_match_the_tuple_expansion(algtxt):
    alg = Algebra.parse(algtxt)
    for r in range(13):
        assert sym_power_char(alg, r).terms == _from_u_basis_tuple(_u(alg, "p", r)).terms, r
        assert ext_power_char(alg, r).terms == _from_u_basis_tuple(_u(alg, "e", r)).terms, r


def test_signed_layout_matches_the_tuple_elimination(monkeypatch):
    # det_bareiss_laurent on LaurentPoly entries: the hook Schur characters
    # of the gl(n|m) Levis of spo(4|3) and spo(6|3), and the identity suite
    seen = []

    def record(matrix, packing=None):
        assert packing is None
        seen.append([list(row) for row in matrix])
        return det_bareiss_laurent(matrix)

    monkeypatch.setattr(charformulas, "det_bareiss_laurent", record)
    monkeypatch.setattr(jacobitrudi, "det_bareiss_laurent", record)
    for text, size in (("4|3", 6), ("6|3", 5)):
        alg = Algebra.parse(text)
        for lam in partitions_up_to(size):
            if fits_hook(lam, alg.n, alg.m):
                charformulas.hook_schur_character(gl_parabolic(alg), lam)
    for n in (1, 2, 3):
        assert all(identity_suite(n).values())
    assert len(seen) >= 50
    divisors = []

    def recording(p, q, packing=None):
        divisors.append(q)
        return exact_div(p, q, packing)

    monkeypatch.setattr(linalg, "exact_div", recording)
    for mat in seen:
        assert det_bareiss_laurent(mat).terms == _det_bareiss_tuple(mat).terms
    assert any(len(q) > 1 for q in divisors)  # some divide by a pivot other than 1



# -- the binomial step table ------------------------------------------------------


def _from_u_basis_per_call(p, packing):
    """Frozen copy of the packed `from_u_basis` before the step table."""
    width, rank = packing.width, packing.n + packing.m
    mask = (1 << width) - 1
    terms = p
    for s in range(rank):
        shift = width * s
        steps = {}  # k -> [(key offset, C(k, j))]
        out = {}
        get = out.get
        for key, c in terms.items():
            k = key >> shift & mask
            if k not in steps:
                steps[k] = [((k - 4 * j) << shift, comb(k, j)) for j in range(k // 2 + 1)]
            for offset, b in steps[k]:
                t = key + offset
                out[t] = get(t, 0) + b * c
        terms = {t: c for t, c in out.items() if c} if 0 in out.values() else out
    columns = [
        list(map(operator.add, map(operator.and_, map(operator.rshift, terms, repeat(width * s)), repeat(mask)), repeat(0)))
        for s in range(rank)
    ]
    return sign_images(packing.n, packing.m, columns, terms.values(), range(rank))


@pytest.fixture
def bounds(monkeypatch):
    """Checks every `from_u_basis` call against the frozen per-call copy,
    held orthant columns and coefficients in order, before any expansion;
    returns the list of the bounds passed, in call order."""
    live, seen = jacobitrudi.from_u_basis, []

    def checked(p, packing, bound):
        got, want = live(p, packing, bound), _from_u_basis_per_call(p, packing)
        assert (got._orthant, got._terms) == (want._orthant, want._terms), bound
        seen.append(bound)
        return got

    monkeypatch.setattr(jacobitrudi, "from_u_basis", checked)
    return seen


# the euler_jt_grid algebras, spo(4|4) (even l, m = 2) and spo(2|6) (m = 3)
STEP_ALGEBRAS = ["2|3", "4|3", "6|3", "4|4", "2|6"]


@pytest.mark.parametrize("algtxt", STEP_ALGEBRAS)
def test_table_steps_match_the_per_call_steps_on_both_forms(bounds, algtxt):
    alg = Algebra.parse(algtxt)
    lams = [lam for lam in partitions_up_to(7) if fits_hook(lam, alg.n, alg.m)]
    for lam in lams:
        jt_character(lam, alg)
        jt_character_e(lam, alg)
    assert len(bounds) == 2 * len([lam for lam in lams if lam])


@pytest.mark.parametrize("algtxt, top", [("2|3", 40), ("4|3", 40), ("4|4", 40), ("6|3", 24), ("2|6", 24)])
def test_table_steps_match_the_per_call_steps_on_power_characters(bounds, algtxt, top):
    table = PowerTable(Algebra.parse(algtxt))  # a fresh table expands every r
    for r in range(top + 1):
        table.p(r)
        table.e(r)
    assert bounds == [r for r in range(top + 1) for _ in "pe"]


def test_table_grows_for_a_bound_above_every_earlier_one(bounds):
    # B = 300: no other test of the suite reaches a bound above 129, so the
    # steps of both slots are built here, to degree 300
    alg = Algebra.parse("2|3")
    misses = _binomial_steps.cache_info().misses
    got = jt_character((300,), alg)
    assert bounds == [300]
    assert _binomial_steps.cache_info().misses == misses + alg.rank
    assert got.terms == _jt_tuple((300,), alg).terms


def test_a_repeated_call_reads_the_table_and_a_smaller_bound_after_a_larger_one_expands_right():
    alg = Algebra.parse("4|3")
    jt_character((4, 2, 1), alg)
    before = _binomial_steps.cache_info()
    again = jt_character((4, 2, 1), alg)
    after = _binomial_steps.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + alg.rank
    assert again.terms == _jt_tuple((4, 2, 1), alg).terms
    for lam in ((9, 2), (2, 1), (3,)):  # B = 11, then 3 and 3
        assert jt_character(lam, alg).terms == _jt_tuple(lam, alg).terms, lam
        assert jt_character_e(lam, alg).terms == _jt_e_tuple(lam, alg).terms, lam
