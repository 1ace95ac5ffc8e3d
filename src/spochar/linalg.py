"""Exact linear algebra: Fraction Gaussian elimination and fraction-free
Bareiss determinants over the Laurent ring, pivoting on the entry with the
fewest terms.

Everything here is deterministic and allocation-light; matrices are lists of
lists and are never mutated in place unless the function says so.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .laurent import LaurentPoly, exact_div


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


def rank(rows) -> int:
    if not rows:
        return 0
    return len(rref(rows)[1])


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


def det_bareiss_laurent(matrix):
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
