"""The sparse fraction-free solver of `linalg` against a frozen copy of the
dense eliminations it replaced.

`rref`, `_rref_int` and `nullspace` below are verbatim copies of the Fraction
Gauss-Jordan, the dense fraction-free Gauss-Jordan and the dense null basis
that `linalg` carried before one sparse elimination replaced all three;
`_solve_block` is the verbatim dict-columns front end superspace used on
them.  They are the references of this file and of the dense paths in
tests/test_superspace.py and tests/test_rootdata.py, so they are never
imported from src.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from spochar import linalg
from spochar.charformulas import root_support
from spochar.rootdata import Algebra, Weight, positive_roots, simple_roots


# -- frozen dense reference -----------------------------------------------------------


def rref(rows):
    """Reduced row echelon form over Fraction.  Returns (rref_rows, pivots)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def _rref_int(rows):
    """Fraction-free Gauss-Jordan over int: (rows, pivots) with every pivot
    column zero outside its pivot row, rows divided by their content; the
    RREF entry (r, c) is rows[r][c] / rows[r][pivots[r]]."""
    mat = [list(row) for row in rows]
    nrows, ncols = len(mat), len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        prow = mat[r]
        pv = prow[c]
        for i in range(nrows):
            f = mat[i][c]
            if i != r and f:
                row = [pv * x - f * y for x, y in zip(mat[i], prow)]
                g = gcd(*row)
                mat[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def nullspace(rows):
    """Basis of the right nullspace (list of Fraction vectors), from rref;
    free variables get value 1 in their own basis vector.  Integer input is
    eliminated fraction-free, with the same result."""
    if not rows:
        return []
    ncols = len(rows[0])
    if all(type(x) is int for row in rows for x in row):
        mat, pivots = _rref_int(rows)
        entry = lambda r, c: Fraction(mat[r][c], mat[r][pivots[r]])
    else:
        mat, pivots = rref(rows)
        entry = lambda r, c: mat[r][c]
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -entry(r, fc)
        basis.append(v)
    return basis


def _solve_block(columns):
    """RREF null basis (Fraction vectors) of the matrix whose c-th column is
    the dict columns[c] (row key -> coefficient); every vector is null when
    there are no rows."""
    keys = sorted({key for col in columns for key in col})
    if not keys:
        return [[Fraction(int(i == j)) for i in range(len(columns))] for j in range(len(columns))]
    index = {key: r for r, key in enumerate(keys)}
    rows = [[0] * len(columns) for _ in keys]
    for c, col in enumerate(columns):
        for key, v in col.items():
            rows[index[key]][c] = v
    return nullspace(rows)


def _root_support(alg, w):
    """root_support as it was: [simples | I] row-reduced once, then one
    matrix multiply."""
    simples = simple_roots(alg)
    k = alg.rank
    aug = []
    for r in range(k):
        row = [Fraction(simples[c].doubled[r], 2) for c in range(k)]
        row += [Fraction(1 if c == r else 0) for c in range(k)]
        aug.append(row)
    mat, pivots = rref(aug)
    assert pivots == list(range(k))
    inv = [row[k:] for row in mat]
    coords = [Fraction(x, 2) for x in w.doubled]
    return frozenset(i for i in range(k) if sum(inv[i][r] * coords[r] for r in range(k)) != 0)


# -- random int column sets -------------------------------------------------------------


def _random_columns(rng, nrows, ncols, bound, rank, keys):
    """ncols int dict columns over nrows keys: combinations, with entries in
    [-3, 3], of rank random columns with entries up to bound, so that most
    columns depend on those before them; some columns are zero or repeat."""
    basis = [[rng.randint(-bound, bound) if rng.random() < 0.6 else 0 for _ in range(nrows)] for _ in range(rank)]
    columns = []
    for _ in range(ncols):
        pick = rng.random()
        if pick < 0.1:
            dense = [0] * nrows
        elif pick < 0.2 and columns:
            columns.append(dict(rng.choice(columns)))
            continue
        else:
            coeffs = [rng.randint(-3, 3) for _ in basis]
            dense = [sum(c * b[r] for c, b in zip(coeffs, basis)) for r in range(nrows)]
        columns.append({keys[r]: x for r, x in enumerate(dense) if x})
    return columns


def _column_sets(seed):
    rng = random.Random(seed)
    yield []
    yield [{}]
    yield [{}, {}, {}]
    yield [{(0, 1): 5}, {(0, 1): 5}, {(0, 1): -10}]
    for nrows, ncols in [(1, 1), (1, 6), (6, 1), (3, 9), (9, 3), (12, 12), (30, 8), (8, 30)]:
        for bound in (1, 9, 10**6):
            for rank in sorted({0, 1, min(nrows, ncols) // 2, min(nrows, ncols)}):
                int_keys = list(range(nrows))
                tuple_keys = [(r % 3, r // 3, -r) for r in range(nrows)]
                for keys in (int_keys, tuple_keys) * 2:
                    yield _random_columns(rng, nrows, ncols, bound, rank, keys)


def _rref_vector(v, ncols):
    """An integer null vector divided by its entry at its own (largest)
    column, as a dense Fraction list."""
    own = v[max(v)]
    return [Fraction(v.get(c, 0), own) for c in range(ncols)]


@pytest.mark.parametrize("seed", range(4))
def test_nullspace_matches_the_dense_rref_null_basis(seed):
    count = free = mixed = 0
    for columns in _column_sets(seed):
        got = linalg.nullspace(columns)
        for v in got:
            assert all(type(x) is int and x for x in v.values()), v
            assert set(v) <= set(range(len(columns))) and v[max(v)] > 0 and gcd(*v.values()) == 1, v
        assert [_rref_vector(v, len(columns)) for v in got] == _solve_block(columns), columns
        count += 1
        free += len(got)
        mixed += 0 < len(got) < len(columns)
    # most sets have both pivot and free columns
    assert count == 292 and free > 2000 and mixed > 100


def test_nullspace_does_not_touch_its_columns():
    columns = [{2: 4, 0: 6}, {2: 2, 0: 3}, {1: 1}]
    copy = [dict(c) for c in columns]
    assert linalg.nullspace(columns) == [{0: -1, 1: 2}]
    assert columns == copy


@pytest.mark.parametrize("seed", range(3))
def test_rank_matches_the_dense_rref(seed):
    rng = random.Random(seed)
    for _ in range(1000):
        nrows, ncols = rng.randint(0, 8), rng.randint(1, 8)
        bound = rng.choice((1, 5, 10**6))
        density = rng.random()
        rows = [[rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        if rows and rng.random() < 0.3:
            rows.append([2 * x - y for x, y in zip(rng.choice(rows), rng.choice(rows))])
        expected = len(rref(rows)[1]) if rows else 0
        assert linalg.rank([{c: x for c, x in enumerate(row) if x} for row in rows]) == expected, rows


# the algebras of test_levi_weyl_group_is_the_reflection_closure
LEVI_ALGEBRAS = ["2|2", "2|3", "4|3", "2|4", "2|5", "4|1", "6|1", "4|4", "6|3"]


@pytest.mark.parametrize("text", LEVI_ALGEBRAS)
def test_root_support_matches_the_dense_inverse(text):
    alg = Algebra.parse(text)
    pos = positive_roots(alg)
    k = alg.rank
    moves = [Weight(alg, [2 * (s * (t == j) - (t == i)) for t in range(k)])
             for i, j, s in itertools.product(range(k), range(k), (1, -1))]
    for w in list(pos.even) + list(pos.odd) + moves:
        assert root_support(alg, w) == _root_support(alg, w), w.format()
