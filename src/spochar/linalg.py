"""Exact linear algebra: Fraction Gaussian elimination and fraction-free
Bareiss determinants over the Laurent ring.

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

    Elimination starts from the bottom-right corner: reversing both the row
    and the column order leaves the determinant unchanged, and on
    Jacobi-Trudi and hook-Schur matrices that corner holds the smallest
    powers, so the Bareiss minors stay small.  Zero pivots are handled by
    row swaps (sign flips); a fully zero pivot column means the determinant
    is zero.
    """
    k = len(matrix)
    if k == 0:
        raise ValueError("empty matrix")
    n, m = matrix[0][0].n, matrix[0][0].m
    a = [row[::-1] for row in reversed(matrix)]
    sign = 1
    prev = LaurentPoly.one(n, m)
    for r in range(k - 1):
        if a[r][r].is_zero():
            pr = next((i for i in range(r + 1, k) if not a[i][r].is_zero()), None)
            if pr is None:
                return LaurentPoly.zero(n, m)
            a[r], a[pr] = a[pr], a[r]
            sign = -sign
        piv = a[r][r]
        for i in range(r + 1, k):
            for j in range(r + 1, k):
                a[i][j] = exact_div(piv * a[i][j] - a[i][r] * a[r][j], prev)
            a[i][r] = LaurentPoly.zero(n, m)
        prev = piv
    result = a[k - 1][k - 1]
    return result if sign == 1 else -result
