"""Exact linear algebra: one sparse fraction-free elimination of int dict
vectors (`_SparseSpan`), which gives the rank and a primitive integer null
basis (each vector the RREF one times a positive int), and one
fraction-free Bareiss elimination over the Laurent ring, on packed term
dicts, pivoting on the entry with the fewest terms.

Everything here is deterministic and allocation-light; no floats and no
Fractions are used: a caller that wants the RREF vector divides by the
entry at its own column.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter

from .laurent import LaurentPoly, Packing, add_products, exact_div


class _SparseSpan:
    """Span of int dict vectors (key -> nonzero coefficient), by fraction-free
    sparse elimination: a vector is reduced against the stored ones, each
    pivoting on its largest key, and divided by its content.  A vector may
    carry a combination (an int dict over the caller's labels), reduced
    alongside it, so that a residue records which inputs it came from."""

    def __init__(self):
        self.pivots = {}  # largest key -> reduced int dict
        self.combinations = {}  # largest key -> its combination, when carried

    def reduce(self, terms, combination=None):
        """(residue of terms against the span, combination reduced alongside)."""
        vec, comb = dict(terms), combination
        while vec:
            lead = max(vec)
            piv = self.pivots.get(lead)
            if piv is None:
                break
            a, b = piv[lead], vec[lead]
            vec = _combine(a, vec, -b, piv)
            if comb is not None:
                comb = _combine(a, comb, -b, self.combinations[lead])
            g = gcd(*vec.values(), *(comb.values() if comb else ()))
            if g > 1:
                vec = {t: c // g for t, c in vec.items()}
                if comb is not None:
                    comb = {t: c // g for t, c in comb.items()}
        return vec, comb

    def add(self, terms, combination=None) -> bool:
        """Insert; True if it enlarged the span."""
        vec, comb = self.reduce(terms, combination)
        if not vec:
            return False
        lead = max(vec)
        self.pivots[lead] = vec
        if comb is not None:
            self.combinations[lead] = comb
        return True

    @property
    def dim(self):
        return len(self.pivots)


def _combine(a, u, b, v):
    """a u + b v for int dicts, without zero values."""
    out = {t: a * c for t, c in u.items()}
    for t, c in v.items():
        x = out.get(t, 0) + b * c
        if x:
            out[t] = x
        else:
            out.pop(t, None)
    return out


def rank(vectors) -> int:
    """Rank of a list of int dict vectors."""
    span = _SparseSpan()
    return sum(span.add(v) for v in vectors)


def nullspace(columns):
    """Integer basis of the right nullspace of the matrix whose c-th column
    is the int dict columns[c] (row key -> nonzero coefficient), one dict
    column -> int per free column, in order.  The columns are inserted in
    order; each one that does not enlarge the span of those before it gives
    its dependency on the pivot columns before it: primitive (gcd 1) and
    positive at its own column, its largest key.  That dependency is unique
    up to scale, so dividing it by its own entry gives the RREF null vector;
    a matrix with no rows has every column free."""
    span = _SparseSpan()
    basis = []
    for j, col in enumerate(columns):
        vec, comb = span.reduce(col, {j: 1})
        if vec:
            span.add(vec, comb)
        else:
            basis.append(comb if comb[j] > 0 else {c: -x for c, x in comb.items()})
    return basis


def det_bareiss_laurent(matrix, packing=None):
    """Determinant of a square matrix over the Laurent ring via
    fraction-free Bareiss elimination (divisions are exact in the Laurent
    ring).

    The entries are LaurentPoly, packed once into a signed `Packing` of the
    matrix (`_signed_packing`), and the determinant is unpacked once.  With
    `packing` they are packed term dicts in that layout already, as the
    Jacobi-Trudi power tables keep them, and so is the determinant; the
    caller has sized its fields for every product of two minors.

    Pivoting is full: step r takes as pivot the nonzero entry of the
    remaining block with the fewest terms (ties to the first in row-major
    order) and swaps its row and its column into place, one sign flip per
    swap; Sylvester's identity, which makes every division exact, holds for
    any order of rows and columns.  Each entry of the block is then
    piv a_ij - a_ir a_rj (`_fused`), divided by the previous pivot, 1
    included, with `exact_div` in the packed layout.  Jacobi-Trudi matrices
    are full of p_0 = e_0 = 1, so most pivots and most divisors are 1: a
    unit pivot skips its product, and `exact_div` returns a dividend over 1
    as it is; any other divisor costs one unpack and one repack.  An
    all-zero remaining block means the determinant is zero.
    """
    k = len(matrix)
    if k == 0:
        raise ValueError("empty matrix")
    laurent = packing is None
    if laurent:
        packing = _signed_packing(matrix)
        a = [[packing.pack(x.terms) for x in row] for row in matrix]
    else:
        a = [list(row) for row in matrix]
    sign = 1
    prev = Packing.ONE
    for r in range(k - 1):
        nonzero = ((len(a[i][j]), i, j) for i in range(r, k) for j in range(r, k) if a[i][j])
        _, pr, pc = min(nonzero, default=(0, None, None))
        if pr is None:
            return LaurentPoly.zero(packing.n, packing.m) if laurent else {}
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            sign = -sign
        if pc != r:
            for row in a[r:]:
                row[r], row[pc] = row[pc], row[r]
            sign = -sign
        piv, top = a[r][r], a[r]
        for row in a[r + 1:]:
            for j in range(r + 1, k):
                row[j] = exact_div(_fused(piv, row[j], row[r], top[j]), prev, packing)
        prev = piv
    det = a[k - 1][k - 1]
    if sign == -1:
        det = {t: -c for t, c in det.items()}
    return packing.unpack(det) if laurent else det


def _fused(piv, a_ij, a_ir, a_rj):
    """piv a_ij - a_ir a_rj for packed term dicts: both products added into
    one dict by `laurent.add_products`, the shorter of a_ir and a_rj negated
    once; a_ij itself when piv is 1 and a_ir a_rj is 0."""
    if not (a_ir and a_rj):
        return a_ij if piv == Packing.ONE else add_products({}, piv, a_ij)
    if len(a_ir) > len(a_rj):
        a_ir, a_rj = a_rj, a_ir
    out = dict(a_ij) if piv == Packing.ONE else add_products({}, piv, a_ij)
    return add_products(out, {t: -c for t, c in a_ir.items()}, a_rj)


def _signed_packing(matrix):
    """A signed `Packing` in which every exponent that the elimination of
    matrix forms reads back.  In each slot, a minor's exponent lies between
    lo, the sum over the rows of the row's smallest exponent (or 0 where that
    is positive), and hi, the sum of the rows' largest (or 0); a product of
    two minors lies within twice those.  The fields hold -M..M for M the
    largest of 2|lo| and 2|hi| over the slots."""
    n, m = matrix[0][0].n, matrix[0][0].m
    lo, hi = [0] * (n + m), [0] * (n + m)
    zero = (0,) * (n + m)
    for row in matrix:
        keys = [zero, *(e for x in row for e in x.terms)]
        for s in range(n + m):
            col = list(map(itemgetter(s), keys))
            lo[s] += min(col)
            hi[s] += max(col)
    bound = 2 * max(max(hi), -min(lo))
    return Packing(n, m, bound.bit_length() + 1, signed=True)
