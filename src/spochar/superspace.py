"""Explicit realization of the super exterior algebra of the natural module:
commuting variables x_1..x_m, xb_1..xb_m (and x0 for odd l) tensor Grassmann
variables xi_1..xi_n, xib_1..xib_n, with weights wt(xi_j) = d_j,
wt(xib_j) = -d_j, wt(x_i) = e_i, wt(xb_i) = -e_i, wt(x0) = 0.

Monomials are flat exponent tuples in the fixed generator order
x < xb < x0 < xi < xib; Grassmann slots hold bits.  Coefficients are exact
rationals.  Odd operators act from the left with Koszul signs counted in the
REALIZED parity (Grassmann bits only); the one global sign convention is
pinned by the Laplacian-kernel calibration test, not by decree.  An operator
is applied as a sum of its images of basis monomials (`MonomialImages`),
each computed once per computation, with int coefficients for derivations
and for the Laplacian scaled by 2 (which clears the 1/2 of the x0 term and
keeps the kernel).

All linear algebra is exact and split into one block per weight: the
Laplacian preserves weight and root operators shift it, so kernels, singular
vectors and the tensor counts are solved block by block (fraction-free over
the integers where the block is integral), and the irreducibility verdicts
below are certificates, not numerics.

The singular-vector pass and the tensor counts solve only the g0-dominant
blocks (`rootdata.fold_to_dominant`).  A singular vector is killed by the
even raising operators, so its weight is g0-dominant.  The Laplacian commutes
with the even group, whose Weyl group W permutes the weight blocks, so the
block at wμ has the nullity of the block at μ; the kernel dimension is the
sum over dominant μ of nullity(μ) times the number of weights of the degree
in μ's W-orbit, checked against dim(k) - dim(k-2).  `kernel_basis` still
solves every block.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd, lcm

from .laurent import LaurentPoly, grlex_key
from .linalg import nullspace
from .rootdata import (
    Algebra,
    DimensionGuard,
    Weight,
    fold_to_dominant,
    is_dominant,
    simple_roots,
    weyl_group,
)


# -- generator bookkeeping ---------------------------------------------------------


def _layout(alg: Algebra):
    """(num_commuting, grassmann_start, total_slots)."""
    nc = 2 * alg.m + (1 if alg.odd else 0)
    return nc, nc, nc + 2 * alg.n


def gen_count(alg: Algebra) -> int:
    return _layout(alg)[2]


def gen_name(alg: Algebra, slot: int) -> str:
    m = alg.m
    if slot < m:
        return f"x{slot + 1}"
    if slot < 2 * m:
        return f"xb{slot - m + 1}"
    nc = _layout(alg)[0]
    if alg.odd and slot == 2 * m:
        return "x0"
    j = slot - nc
    return f"xi{j + 1}" if j < alg.n else f"xib{j - alg.n + 1}"


def gen_weight_doubled(alg: Algebra, slot: int):
    """Doubled weight of one generator, in the d/e coordinate order."""
    v = [0] * alg.rank
    m, nc = alg.m, _layout(alg)[0]
    if slot < m:
        v[alg.n + slot] = 2
    elif slot < 2 * m:
        v[alg.n + slot - m] = -2
    elif alg.odd and slot == 2 * m:
        pass
    else:
        j = slot - nc
        if j < alg.n:
            v[j] = 2
        else:
            v[j - alg.n] = -2
    return tuple(v)


def monomial_weight_doubled(alg: Algebra, mono):
    """2(#xi_j - #xib_j) on d_j and 2(#x_i - #xb_i) on e_i; x0 has weight 0."""
    n, m, gs = alg.n, alg.m, _layout(alg)[1]
    return tuple(2 * (mono[gs + j] - mono[gs + n + j]) for j in range(n)) + tuple(
        2 * (mono[i] - mono[m + i]) for i in range(m))


def format_monomial(alg: Algebra, mono) -> str:
    bits = []
    for slot, e in enumerate(mono):
        if not e:
            continue
        name = gen_name(alg, slot)
        bits.append(name if e == 1 else f"{name}^{e}")
    return "*".join(bits) if bits else "1"


# -- elements ---------------------------------------------------------------------


class SuperElement:
    """Exact-rational element of the polynomial x Grassmann algebra."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = {t: c for t, c in terms.items() if c}

    @classmethod
    def zero(cls, alg):
        return cls(alg, {})

    @classmethod
    def one(cls, alg):
        return cls(alg, {(0,) * gen_count(alg): Fraction(1)})

    @classmethod
    def generator(cls, alg, slot):
        t = [0] * gen_count(alg)
        t[slot] = 1
        return cls(alg, {tuple(t): Fraction(1)})

    @classmethod
    def from_name(cls, alg, name):
        for slot in range(gen_count(alg)):
            if gen_name(alg, slot) == name:
                return cls.generator(alg, slot)
        raise ValueError(f"unknown generator {name!r}")

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for t, c in other.terms.items():
            v = out.get(t, 0) + c
            if v:
                out[t] = v
            elif t in out:
                del out[t]
        return SuperElement(self.alg, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SuperElement(self.alg, {t: -c for t, c in self.terms.items()})

    def scale(self, r):
        r = Fraction(r)
        if r == 0:
            return SuperElement.zero(self.alg)
        return SuperElement(self.alg, {t: r * c for t, c in self.terms.items()})

    def __rmul__(self, r):
        if isinstance(r, (int, Fraction)):
            return self.scale(r)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        gs = _layout(self.alg)[1]
        out = {}
        for ta, ca in self.terms.items():
            for tb, cb in other.terms.items():
                merged, sign = _merge_monomials(ta, tb, gs)
                if merged is None:
                    continue
                v = out.get(merged, 0) + sign * ca * cb
                if v:
                    out[merged] = v
                elif merged in out:
                    del out[merged]
        return SuperElement(self.alg, out)

    def __eq__(self, other):
        return isinstance(other, SuperElement) and self.alg == other.alg and self.terms == other.terms

    def weight(self):
        """Doubled weight if homogeneous, else None."""
        ws = {monomial_weight_doubled(self.alg, t) for t in self.terms}
        return ws.pop() if len(ws) == 1 else None

    def character(self) -> LaurentPoly:
        terms = {}
        for t in self.terms:
            w = monomial_weight_doubled(self.alg, t)
            terms[w] = terms.get(w, 0) + 1
        return LaurentPoly(self.alg.n, self.alg.m, terms)

    def __repr__(self):
        if not self.terms:
            return "SuperElement(0)"
        bits = []
        for t, c in sorted(self.terms.items())[:6]:
            bits.append(f"{c}*{format_monomial(self.alg, t)}")
        tail = " ..." if len(self.terms) > 6 else ""
        return "SuperElement(" + " + ".join(bits) + tail + ")"


def _merge_monomials(ta, tb, gs):
    """Concatenate two canonical monomials; None on Grassmann overlap.
    The Koszul sign counts, for every bit of tb, the bits of ta above it."""
    out = list(ta)
    sign = 1
    above = 0
    for p in range(len(ta) - 1, gs - 1, -1):
        if tb[p]:
            if ta[p]:
                return None, 0
            out[p] = 1
            if above % 2:
                sign = -sign
        if ta[p]:
            above += 1
    for p in range(gs):
        out[p] = ta[p] + tb[p]
    return tuple(out), sign


# -- operators -------------------------------------------------------------------


def _bump(out, key, val):
    v = out.get(key, 0) + val
    if v:
        out[key] = v
    elif key in out:
        del out[key]


def _exact(c):
    """c as an int when it is integral, else unchanged."""
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c


def _apply_terms(image, terms):
    """Sum of c * image(mono) over a dict monomial -> c, as such a dict."""
    out = {}
    for mono, c in terms.items():
        for t, ic in image(mono).items():
            _bump(out, t, c * ic)
    return out


class MonomialImages:
    """Images of basis monomials under operators, each computed once and kept
    for the life of this object, which is one computation (not a global
    cache).  An image is a dict monomial -> coefficient; derivations and
    `doubled_laplacian` give int coefficients."""

    def __init__(self):
        self._tables = {}  # id(op) -> (op, {monomial: image}); op is kept so its id stays unique

    def image(self, op, mono):
        entry = self._tables.get(id(op))
        if entry is None:
            entry = self._tables[id(op)] = (op, {})
        table = entry[1]
        img = table.get(mono)
        if img is None:
            img = table[mono] = op.monomial_image(mono, self)
        return img

    def apply(self, op, terms):
        """op applied to a dict monomial -> coefficient, as such a dict."""
        return _apply_terms(lambda mono: self.image(op, mono), terms)


class LinearOperator:
    def monomial_image(self, mono, images: MonomialImages) -> dict:
        raise NotImplementedError

    def apply(self, el: SuperElement) -> SuperElement:
        return SuperElement(el.alg, MonomialImages().apply(self, el.terms))

    def __call__(self, el):
        return self.apply(el)


@dataclass(frozen=True)
class Derivation(LinearOperator):
    """Superderivation given by generator images, extended by the graded
    Leibniz rule; parity 1 operators pick up a sign per Grassmann bit they
    cross."""

    alg: Algebra
    parity: int
    images: tuple  # tuple of (slot, SuperElement)
    name: str = ""

    def image_map(self):
        return dict(self.images)

    @cached_property
    def _image_terms(self):
        return tuple((slot, tuple((t, _exact(c)) for t, c in img.terms.items()))
                     for slot, img in self.image_map().items())

    def monomial_image(self, mono, images):
        gs = _layout(self.alg)[1]
        out = {}
        for slot, terms in self._image_terms:
            e = mono[slot]
            if not e:
                continue
            if slot >= gs:
                crossed = sum(mono[gs:slot])
                mult = -1 if (self.parity and crossed % 2) else 1
                left = mono[:slot] + (0,) * (len(mono) - slot)
            else:
                mult = e
                left = mono[:slot] + (e - 1,) + (0,) * (len(mono) - slot - 1)
            right = (0,) * (slot + 1) + mono[slot + 1:]
            for t, c in terms:
                head, s1 = _merge_monomials(left, t, gs)
                if head is None:
                    continue
                full, s2 = _merge_monomials(head, right, gs)
                if full is not None:
                    _bump(out, full, mult * s1 * s2 * c)
        return out

    def __repr__(self):
        return f"Derivation({self.name or 'anon'})"


@dataclass(frozen=True)
class OperatorSum(LinearOperator):
    """Sum of scaled compositions (applied right to left)."""

    parts: tuple  # tuple of (coefficient, tuple-of-operators)
    name: str = ""

    def monomial_image(self, mono, images):
        # The inner images are not memoised: within one computation a chain
        # meets each intermediate monomial once (m - x determines m).
        out = {}
        for coef, chain in self.parts:
            cur = {mono: 1}
            for op in reversed(chain):
                cur = _apply_terms(lambda t: op.monomial_image(t, images), cur)
            for t, c in cur.items():
                _bump(out, t, coef * c)
        return out

    def __repr__(self):
        return f"OperatorSum({self.name or 'anon'})"


def partial(alg: Algebra, slot: int) -> Derivation:
    """Left partial derivative with respect to one generator."""
    gs = _layout(alg)[1]
    parity = 1 if slot >= gs else 0
    return Derivation(alg, parity, ((slot, SuperElement.one(alg)),), f"d/d{gen_name(alg, slot)}")


def doubled_laplacian(alg: Algebra) -> OperatorSum:
    """2 * laplacian(alg): integer coefficients and the same kernel."""
    m, nc = alg.m, _layout(alg)[0]
    parts = []
    for j in range(alg.n):
        parts.append((2, (partial(alg, nc + j), partial(alg, nc + alg.n + j))))
    for i in range(m):
        parts.append((-2, (partial(alg, i), partial(alg, m + i))))
    if alg.odd:
        parts.append((-1, (partial(alg, 2 * m), partial(alg, 2 * m))))
    return OperatorSum(tuple(parts), "2*laplacian")


def laplacian(alg: Algebra) -> OperatorSum:
    """Degree -2 invariant operator: sum_j d_xi_j d_xib_j
    - sum_i d_x_i d_xb_i - 1/2 d_x0^2 (the x0 term only for odd l)."""
    doubled = doubled_laplacian(alg).parts
    return OperatorSum(tuple((_exact(Fraction(c, 2)), chain) for c, chain in doubled), "laplacian")


# -- the g-action on generators ------------------------------------------------------


def _slot_x(alg, i):
    return i


def _slot_xb(alg, i):
    return alg.m + i


def _slot_x0(alg):
    return 2 * alg.m


def _slot_xi(alg, j):
    return _layout(alg)[0] + j


def _slot_xib(alg, j):
    return _layout(alg)[0] + alg.n + j


def root_operator(alg: Algebra, root: Weight) -> Derivation:
    """First-order superderivation realizing the root vector on the natural
    module, signs matched to the standard matrix realization (odd operators
    carry the parity-shift sign on realized-odd sources)."""
    n = alg.n
    a = [x // 2 for x in root.doubled[:n]]
    b = [x // 2 for x in root.doubled[n:]]
    G = lambda slot: SuperElement.generator(alg, slot)

    def drv(parity, *imgs):
        label = root.format()
        return Derivation(alg, parity, tuple(imgs), f"E[{label}]")

    nz_a = [(i, c) for i, c in enumerate(a) if c]
    nz_b = [(i, c) for i, c in enumerate(b) if c]

    if not nz_b and len(nz_a) == 1 and abs(nz_a[0][1]) == 2:  # +/- 2d_i
        i = nz_a[0][0]
        if nz_a[0][1] > 0:
            return drv(0, (_slot_xib(alg, i), G(_slot_xi(alg, i))))
        return drv(0, (_slot_xi(alg, i), G(_slot_xib(alg, i))))
    if not nz_b and len(nz_a) == 2:  # d_i +/- d_j
        (i, ci), (j, cj) = nz_a
        if ci == 1 and cj == -1:
            return drv(0, (_slot_xi(alg, j), G(_slot_xi(alg, i))),
                       (_slot_xib(alg, i), -1 * G(_slot_xib(alg, j))))
        if ci == -1 and cj == 1:
            return drv(0, (_slot_xi(alg, i), G(_slot_xi(alg, j))),
                       (_slot_xib(alg, j), -1 * G(_slot_xib(alg, i))))
        if ci == 1 and cj == 1:
            return drv(0, (_slot_xib(alg, j), G(_slot_xi(alg, i))),
                       (_slot_xib(alg, i), G(_slot_xi(alg, j))))
        if ci == -1 and cj == -1:
            return drv(0, (_slot_xi(alg, j), G(_slot_xib(alg, i))),
                       (_slot_xi(alg, i), G(_slot_xib(alg, j))))
    if not nz_a and len(nz_b) == 2:  # e_i +/- e_j
        (i, ci), (j, cj) = nz_b
        if ci == 1 and cj == -1:
            return drv(0, (_slot_x(alg, j), G(_slot_x(alg, i))),
                       (_slot_xb(alg, i), -1 * G(_slot_xb(alg, j))))
        if ci == -1 and cj == 1:
            return drv(0, (_slot_x(alg, i), G(_slot_x(alg, j))),
                       (_slot_xb(alg, j), -1 * G(_slot_xb(alg, i))))
        if ci == 1 and cj == 1:
            return drv(0, (_slot_xb(alg, j), G(_slot_x(alg, i))),
                       (_slot_xb(alg, i), -1 * G(_slot_x(alg, j))))
        if ci == -1 and cj == -1:
            return drv(0, (_slot_x(alg, j), G(_slot_xb(alg, i))),
                       (_slot_x(alg, i), -1 * G(_slot_xb(alg, j))))
    if not nz_a and len(nz_b) == 1 and abs(nz_b[0][1]) == 1 and alg.odd:  # +/- e_i
        i = nz_b[0][0]
        if nz_b[0][1] > 0:
            return drv(0, (_slot_x0(alg), G(_slot_x(alg, i))),
                       (_slot_xb(alg, i), -1 * G(_slot_x0(alg))))
        return drv(0, (_slot_x(alg, i), G(_slot_x0(alg))),
                   (_slot_x0(alg), -1 * G(_slot_xb(alg, i))))
    if len(nz_a) == 1 and len(nz_b) == 1:  # odd roots +/- d_j +/- e_i
        j, cj = nz_a[0]
        i, ci = nz_b[0]
        if cj == 1 and ci == -1:  # d_j - e_i
            return drv(1, (_slot_x(alg, i), G(_slot_xi(alg, j))),
                       (_slot_xib(alg, j), -1 * G(_slot_xb(alg, i))))
        if cj == -1 and ci == 1:  # e_i - d_j
            return drv(1, (_slot_xi(alg, j), G(_slot_x(alg, i))),
                       (_slot_xb(alg, i), G(_slot_xib(alg, j))))
        if cj == 1 and ci == 1:  # d_j + e_i
            return drv(1, (_slot_xb(alg, i), G(_slot_xi(alg, j))),
                       (_slot_xib(alg, j), -1 * G(_slot_x(alg, i))))
        if cj == -1 and ci == -1:  # -d_j - e_i
            return drv(1, (_slot_xi(alg, j), -1 * G(_slot_xb(alg, i))),
                       (_slot_x(alg, i), -1 * G(_slot_xib(alg, j))))
    if len(nz_a) == 1 and not nz_b and abs(nz_a[0][1]) == 1 and alg.odd:  # +/- d_j
        j = nz_a[0][0]
        if nz_a[0][1] > 0:
            return drv(1, (_slot_x0(alg), G(_slot_xi(alg, j))),
                       (_slot_xib(alg, j), -1 * G(_slot_x0(alg))))
        return drv(1, (_slot_xi(alg, j), -1 * G(_slot_x0(alg))),
                   (_slot_x0(alg), -1 * G(_slot_xib(alg, j))))
    raise ValueError(f"{root.format()} is not a root of {alg}")


def simple_root_operators(alg: Algebra):
    """(raising, lowering) derivations for the standard simple roots."""
    ups = [root_operator(alg, s) for s in simple_roots(alg)]
    downs = [root_operator(alg, -s) for s in simple_roots(alg)]
    return ups, downs


# -- degree components -----------------------------------------------------------------


def degree_dim(alg: Algebra, k: int) -> int:
    """Dimension of the degree-k component, by counting: sum over g of
    C(2n, g) * (number of degree-(k - g) monomials in the commuting slots)."""
    nc, gs, total = _layout(alg)
    ngr = total - gs

    def commuting(d):
        return comb(d + nc - 1, nc - 1) if nc else int(d == 0)

    return sum(comb(ngr, g) * commuting(k - g) for g in range(min(k, ngr) + 1)) if k >= 0 else 0


def degree_basis(alg: Algebra, k: int, bound: int = 20000):
    """Canonical monomial basis of the degree-k component; refused with
    DimensionGuard, before any enumeration, when its dimension exceeds bound."""
    return _degree_basis(alg, k, bound)


@lru_cache(maxsize=128)
def _degree_basis(alg, k, bound):
    # called with every argument given positionally, so that one degree and
    # bound is one cache entry however the caller spelled the call
    if k < 0:
        return ()
    dim = degree_dim(alg, k)
    if dim > bound:
        raise DimensionGuard(f"dim = {dim} exceeds bound {bound}")
    nc, gs, total = _layout(alg)
    ngr = total - gs
    out = []
    for gbits in range(min(k, ngr), -1, -1):
        rem = k - gbits
        for positions in itertools.combinations(range(ngr), gbits):
            for comp in _compositions(rem, nc):
                mono = list(comp) + [0] * ngr
                for p in positions:
                    mono[gs + p] = 1
                out.append(tuple(mono))
    return tuple(sorted(out))


def _compositions(total, slots):
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def char_of_degree(alg: Algebra, k: int) -> LaurentPoly:
    """Character of the degree-k component from the monomial weights."""
    terms = {}
    for mono in degree_basis(alg, k):
        w = monomial_weight_doubled(alg, mono)
        terms[w] = terms.get(w, 0) + 1
    return LaurentPoly(alg.n, alg.m, terms)


# -- per-weight blocks -------------------------------------------------------------------
#
# The Laplacian preserves weight and a root operator shifts it by its root, so
# each linear system below splits into one small block per weight.  Every
# block is solved by `nullspace`; a null vector over the sorted monomials of
# its block is the vector the whole-degree matrix would give, because a column
# is a pivot of the block-diagonal RREF exactly when it is one in its block.


def _weight_blocks(alg, k, bound):
    """[(doubled weight, sorted degree-k monomials of that weight)], graded-lex
    descending by weight."""
    groups = {}
    for t in degree_basis(alg, k, bound):
        groups.setdefault(monomial_weight_doubled(alg, t), []).append(t)
    return [(w, groups[w]) for w in sorted(groups, key=grlex_key, reverse=True)]


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


def _block_kernel(images, lap, dom):
    """RREF basis of ker(Laplacian) on one weight block, over dom."""
    return _solve_block([images.image(lap, t) for t in dom])


def _integer_multiple(terms):
    """terms times the lcm of their denominators, with int coefficients."""
    s = lcm(*(c.denominator for c in terms.values()))
    return {t: c.numerator * (s // c.denominator) for t, c in terms.items()}


def _block_singular(images, ups, dom, kern):
    """The vectors of span(kern) killed by every op in ups, as term dicts.
    kern is the block's RREF kernel basis, so v = sum a_j kern_j has v = a on
    kern's free columns, and the RREF null basis in the a-coordinates gives
    the RREF null basis of the stacked block [Laplacian; ups].  The kern_j
    are scaled to ints first; that only rescales each solution, which the
    final division by its entry at its free (largest) monomial undoes."""
    scaled = [_integer_multiple({dom[i]: c for i, c in enumerate(v) if c}) for v in kern]
    columns = []
    for terms in scaled:
        col = {}
        for op_i, op in enumerate(ups):
            for t, c in images.apply(op, terms).items():
                col[(op_i, t)] = c
        columns.append(col)
    out = []
    for a in _solve_block(columns):
        vec = {}
        for aj, terms in zip(a, scaled):
            if aj:
                for t, c in terms.items():
                    _bump(vec, t, aj * c)
        lead = vec[max(vec)]
        out.append({t: vec[t] / lead for t in sorted(vec)})
    return out


def _singular_pass(alg, k, bound, images, ups):
    """(dim ker Laplacian, singular vectors by weight) in degree k, from one
    pass over the g0-dominant weight blocks.  The nullity of a dominant block
    counts once for every weight of its W-orbit: the orbit's size is the
    number of block weights with that fold, and every fold is itself a block
    weight, since the weights of a degree are W-stable."""
    lap = doubled_laplacian(alg)
    blocks = _weight_blocks(alg, k, bound)
    orbit_size = Counter(fold_to_dominant(alg, wt) for wt, _ in blocks)
    kdim = 0
    out = {}
    for wt, dom in blocks:
        if wt not in orbit_size:  # not dominant: no singular vector, nullity counted at its fold
            continue
        kern = _block_kernel(images, lap, dom)
        kdim += orbit_size[wt] * len(kern)
        vecs = _block_singular(images, ups, dom, kern)
        if vecs:
            out[Weight(alg, wt)] = [SuperElement(alg, v) for v in vecs]
    return kdim, out


def _check_surjective(alg, k, bound, kdim):
    if kdim != len(degree_basis(alg, k, bound)) - len(degree_basis(alg, k - 2, bound)):
        raise ArithmeticError(f"Laplacian not surjective in degree {k}: kernel dim {kdim}")


def kernel_basis(alg: Algebra, k: int, bound: int = 20000):
    """Exact basis of ker(Laplacian) on the degree-k component, the RREF null
    basis of the whole degree in the order of its free monomials.

    Asserts the expected dimension dim(k) - dim(k-2), i.e. surjectivity of
    the Laplacian one degree up.
    """
    images = MonomialImages()
    lap = doubled_laplacian(alg)
    found = []
    for _, dom in _weight_blocks(alg, k, bound):
        for v in _block_kernel(images, lap, dom):
            free = max(i for i, c in enumerate(v) if c)
            found.append((dom[free], SuperElement(alg, {dom[i]: c for i, c in enumerate(v) if c})))
    _check_surjective(alg, k, bound, len(found))
    found.sort(key=lambda pair: pair[0])
    return [el for _, el in found]


def singular_vectors(alg: Algebra, k: int, bound: int = 20000):
    """Vectors of ker(Laplacian) in degree k annihilated by every positive
    root operator, grouped by weight.  Returns {Weight: [SuperElement, ...]},
    graded-lex descending by weight."""
    ups, _ = simple_root_operators(alg)
    return _singular_pass(alg, k, bound, MonomialImages(), ups)[1]


def kernel_dim_and_singular_vectors(alg: Algebra, k: int, bound: int = 20000):
    """(len(kernel_basis(alg, k, bound)), singular_vectors(alg, k, bound))
    from one pass over the weight blocks, with kernel_basis's check of the
    kernel dimension."""
    ups, _ = simple_root_operators(alg)
    kdim, svs = _singular_pass(alg, k, bound, MonomialImages(), ups)
    _check_surjective(alg, k, bound, kdim)
    return kdim, svs


# -- cyclic spans and irreducibility ----------------------------------------------------


class _SparseSpan:
    """Row space of int term dicts, by fraction-free sparse elimination;
    pivot = largest monomial in tuple order."""

    def __init__(self):
        self.pivots = {}  # monomial -> reduced int dict(monomial -> coefficient)

    def add(self, terms) -> bool:
        """Insert; True if it enlarged the span."""
        vec = dict(terms)
        while vec:
            lead = max(vec)
            piv = self.pivots.get(lead)
            if piv is None:
                self.pivots[lead] = vec
                return True
            a, b = piv[lead], vec[lead]
            vec = {t: a * c for t, c in vec.items()}
            for t, pc in piv.items():
                _bump(vec, t, -b * pc)
            g = gcd(*vec.values())
            if g > 1:
                vec = {t: c // g for t, c in vec.items()}
        return False

    @property
    def dim(self):
        return len(self.pivots)


def cyclic_span_dim(alg: Algebra, vector: SuperElement, ops) -> int:
    """Dimension of the span of vector under repeated application of ops
    (exact: the module is finite dimensional).  Each vector is scaled to
    ints, which leaves the span unchanged."""
    images = MonomialImages()
    span = _SparseSpan()
    start = _integer_multiple(vector.terms)
    span.add(start)
    frontier = [start]
    while frontier:
        new = []
        for v in frontier:
            for op in ops:
                w = _integer_multiple(images.apply(op, v))
                if w and span.add(w):
                    new.append(w)
        frontier = new
    return span.dim


# -- tensoring a degree component with the natural module -------------------------------
#
# Elements of (degree-k component) (x) V are dicts (monomial, generator slot)
# -> Fraction.  A derivation D acts by the coproduct rule
# D(u (x) v) = D(u) (x) v + (-1)^{parity(D) * parity(u)} u (x) D(v).


def _tensor_coproduct_image(alg, images, op: Derivation, mono, slot):
    """op on the basis element mono (x) (generator at slot), by the coproduct rule."""
    gs = _layout(alg)[1]
    out = {(t, slot): c for t, c in images.image(op, mono).items()}
    img = op.image_map().get(slot)
    if img is not None:
        sign = -1 if (op.parity and sum(mono[gs:]) % 2) else 1
        for t, ic in img.terms.items():
            islot = next(i for i, e in enumerate(t) if e)
            _bump(out, (mono, islot), sign * ic)
    return out


def natural_tensor_singular_counts(alg: Algebra, k: int, bound: int = 20000):
    """Singular vectors of (ker Laplacian in degree k) (x) V, counted by
    weight.  Exact: per weight block, the stacked constraints are the
    left-factor Laplacian plus every simple raising operator acting by the
    coproduct rule.  Only the g0-dominant blocks are solved; no other weight
    carries a singular vector."""
    groups = {}
    for t in degree_basis(alg, k, bound):
        wt = monomial_weight_doubled(alg, t)
        for s in range(gen_count(alg)):
            w = tuple(a + b for a, b in zip(wt, gen_weight_doubled(alg, s)))
            groups.setdefault(w, []).append((t, s))
    images = MonomialImages()
    ups, _ = simple_root_operators(alg)
    lap = doubled_laplacian(alg)
    counts = {}
    dominant = [wt for wt in groups if fold_to_dominant(alg, wt) == wt]
    for wt in sorted(dominant, key=grlex_key, reverse=True):
        columns = []
        for mono, slot in sorted(groups[wt]):
            col = {(0, (t, slot)): c for t, c in images.image(lap, mono).items()}
            for op_i, op in enumerate(ups, 1):
                for key, c in _tensor_coproduct_image(alg, images, op, mono, slot).items():
                    col[(op_i, key)] = c
            columns.append(col)
        dim = len(_solve_block(columns))
        if dim:
            counts[Weight(alg, wt)] = dim
    return counts


def kernel_tensor_natural_report(alg: Algebra, k: int, natural_multiplicity: int = 2) -> dict:
    """Character-level analysis of (ker Laplacian in degree k) (x) V with a
    claimed composition multiset {top product weight: 1, natural weight:
    natural_multiplicity, top weight of the next kernel: 1}.

    The constituent characters e_1 and e_{k+1} - e_{k-1} are grounded by the
    irreducibility certificates of the degree 1, k and k+1 kernels.  A weight
    whose claimed multiplicity exceeds its singular-vector count sits inside
    a non-split extension: character theory cannot exhibit the extension,
    only the count deficit certifies it, and the report states so.
    """
    from .jacobitrudi import ext_power_char, sym_power_char

    e = lambda r: ext_power_char(alg, r)
    for deg in sorted({1, k, k + 1}):
        rep = irreducibility_report(alg, deg)
        if rep.classification != "irreducible":
            raise ArithmeticError(f"degree-{deg} kernel is not certified irreducible")
    # rep is the degree-(k+1) report: its singular weights are those of
    # singular_vectors(alg, k + 1), so the degree is not solved twice
    nxt_top = max((w for w, _ in rep.singular_weights), key=lambda w: grlex_key(w.doubled))

    chi = (e(k) - e(k - 2)) * sym_power_char(alg, 1)
    counts = natural_tensor_singular_counts(alg, k)
    natural_weight = Weight.from_coeffs(alg, [1] + [0] * (alg.n - 1), [0] * alg.m)

    residual = chi - natural_multiplicity * e(1) - (e(k + 1) - e(k - 1))
    lead_exp, lead_coef = residual.leading_term()
    top_product = Weight(alg, lead_exp)
    factor_multiset = {top_product: 1, natural_weight: natural_multiplicity, nxt_top: 1}
    deficits = {
        w.format(): factor_multiset[w] - counts.get(w, 0)
        for w in factor_multiset
        if factor_multiset[w] != counts.get(w, 0)
    }
    group = weyl_group(alg)
    checks = {
        "residual_nonnegative": all(c >= 0 for c in residual.terms.values()),
        "residual_leading_multiplicity_one": lead_coef == 1,
        "residual_weyl_invariant": all(g.apply_poly(residual) == residual for g in group[: min(8, len(group))]),
        "all_singular_weights_expected": set(counts) <= set(factor_multiset),
    }
    return {
        "algebra": str(alg),
        "degree": k,
        "tensor_character_vdim": chi.evaluate_at_one(),
        "factor_multiset": {w.format(): c for w, c in factor_multiset.items()},
        "singular_counts": {w.format(): c for w, c in counts.items()},
        "extension_deficits": deficits,
        "checks": checks,
        "note": (
            "composition multiplicities are character-level bookkeeping; where the "
            "singular-vector count falls short of the multiplicity the factors form a "
            "non-split extension that character theory cannot see"
        ),
    }


@dataclass
class IrreducibilityReport:
    alg: Algebra
    degree: int
    kernel_dim: int
    singular_weights: list  # [(Weight, multiplicity)]
    has_trivial_submodule: bool
    top_cyclic_dim: int
    classification: str
    notes: list = field(default_factory=list)


def irreducibility_report(alg: Algebra, k: int, bound: int = 20000) -> IrreducibilityReport:
    """Classify ker(Laplacian) in degree k from its singular vectors plus an
    exact cyclicity check of the highest one.  The kernel dimension is the
    sum of the per-weight Laplacian nullities of the singular-vector pass."""
    images = MonomialImages()
    ups, downs = simple_root_operators(alg)
    kdim, svs = _singular_pass(alg, k, bound, images, ups)
    _check_surjective(alg, k, bound, kdim)
    if kdim == 0:
        return IrreducibilityReport(alg, k, 0, [], False, 0, "zero", ["kernel is zero in this degree"])
    weights = [(w, len(vs)) for w, vs in svs.items()]
    total_sing = sum(c for _, c in weights)

    has_trivial = any(
        not any(images.apply(op, v.terms) for op in ups + downs)
        for w, vs in svs.items() if w.is_zero() for v in vs
    )
    del images  # cyclic_span_dim memoises its own images; do not hold both at once

    top_weight = max(svs, key=lambda w: grlex_key(w.doubled))
    top_dim = 0
    if len(svs[top_weight]) == 1:
        top_dim = cyclic_span_dim(alg, svs[top_weight][0], downs)

    notes = []
    if total_sing == 1 and top_dim == kdim:
        cls = "irreducible"
    elif has_trivial and total_sing == 2 and len(weights) == 2:
        cls = "reducible_with_trivial_submodule"
        if top_dim == kdim:
            notes.append("indecomposable: the top singular vector is cyclic and the trivial submodule sits inside its span")
        elif top_dim == kdim - 1:
            notes.append("splits as trivial module plus the top cyclic submodule")
    else:
        cls = "inconclusive"
        notes.append("singular-vector pattern matches no implemented criterion")
    for w, vs in svs.items():
        if not is_dominant(w):
            notes.append(f"non-dominant singular weight {w.format()} (unexpected)")
    return IrreducibilityReport(alg, k, kdim, weights, has_trivial, top_dim, cls, notes)
