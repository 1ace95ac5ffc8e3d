"""Explicit realization of the super exterior algebra of the natural module:
commuting variables x_1..x_m, xb_1..xb_m (and x0 for odd l) tensor Grassmann
variables xi_1..xi_n, xib_1..xib_n, with weights wt(xi_j) = d_j,
wt(xib_j) = -d_j, wt(x_i) = e_i, wt(xb_i) = -e_i, wt(x0) = 0.

Monomials are flat exponent tuples in the fixed generator order
x < xb < x0 < xi < xib; Grassmann slots hold bits.  Coefficients are exact
rationals.  Odd operators act from the left with Koszul signs counted in the
REALIZED parity (Grassmann bits only).  A root operator moves each generator
along its root and is skew for the invariant form B of the natural module:
its signs follow from that one rule, not from one branch per root type
(`root_operator`).  An operator is applied as a sum of its images of basis
monomials (`MonomialImages`), each computed when it is read, with int
coefficients for derivations and for the Laplacian scaled by 2 (which
clears the 1/2 of the x0 term and keeps the kernel).  The Laplacian writes
each image in closed form, one monomial per part (`Laplacian`).

Inside a computation every monomial is one int (`MonomialLayout`, fixed
per algebra and width w): the 2n Grassmann slots take one bit each, the last
slot bit 0, and each commuting slot a field of w bits above them, slot 0 in
the top field.  Int order is then tuple order: two monomials first differ at
some slot, every slot after it lies in lower bits, and all those bits
together weigh less than one unit of that slot's field, so every `max`,
`sorted` and pivot choice is the tuple one.  The width is the bit length of
the computation's degree k, and no field overflows: a degree-k monomial has
every exponent at most k < 2^w; a move subtracts the unit of a nonzero
field (no borrow) and adds one unit, keeping the degree, to a commuting
field, which stays at most k, or to a Grassmann bit that is refused first
when it is set; the Laplacian only subtracts from nonzero fields.  A move
is then one subtraction and one addition, and its Koszul signs the parity
of the set bits under one precomputed mask (`Derivation.packed`).  Each
operator is packed once per layout and images one packed monomial at a time
(`MonomialImages`).  Tuples remain at the boundary: `SuperElement` terms,
`degree_basis`, and every public return; a computation packs its inputs and
unpacks its results once.

All linear algebra is exact and split into one block per weight: the
Laplacian preserves weight and root operators shift it, so kernels, singular
vectors and the tensor counts are solved block by block, each block by
one sparse fraction-free elimination of its int columns (`linalg`), and the
irreducibility verdicts below are certificates, not numerics.  One solver
serves every computation (`_Blocks`): it refuses the degree past its bound,
builds the layout and packs the Laplacian once, and solves each weight
block at most once; no other degree is bounded.  A block's
kernel basis stays in ints, each vector the RREF one times a positive int;
Fractions appear only where `kernel_basis` and the singular solve scale a
vector to 1 at its largest monomial.

Every block is built from closed forms, not from an enumerated degree: the
dominant weights of a degree, the monomials of a weight, |Wμ| (from the
stabilizer of μ) and dim(k) (`_dominant_weights`, `_weight_monomials`,
`rootdata.orbit_sizes`, `degree_dim`); W is read only through `rootdata`'s
public names.  `kernel_basis` solves every weight of the degree, the
W-orbits of the dominant ones (`rootdata.orbit`).  The singular-vector pass
and the tensor counts solve only the g0-dominant blocks: the even raising
operators kill a singular vector, so its weight is g0-dominant, and W
permutes the Laplacian's weight blocks, so the kernel dimension is the sum
over dominant μ of nullity(μ) times |Wμ|, checked against dim(k) -
dim(k-2).  The top singular vector v generates the kernel M exactly when
dim M/n⁻M = 1 (graded Nakayama: n⁻ acts nilpotently).  A nonzero
(M/n⁻M)_μ gives a g0-lowest weight -μ of M*, so μ is dominant, and
dim M/n⁻M is the sum over dominant μ, each once, of nullity(μ) - rank
sum_i f_i K_{μ+α_i} (`_deficits`).  Only when that sum exceeds 1 does the
cyclic span of v get walked, to give its exact dimension
(`cyclic_span_dim`).
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import NamedTuple

from .laurent import LaurentPoly, add_terms, grlex_key
from .linalg import _SparseSpan, nullspace
from .rootdata import (
    Algebra,
    DimensionGuard,
    Weight,
    fold_to_dominant,
    is_dominant,
    orbit,
    orbit_sizes,
    partitions_up_to,
    positive_roots,
    simple_roots,
)


# -- generator bookkeeping ---------------------------------------------------------


def _layout(alg: Algebra):
    """(gs, total slots): the commuting slots are 0..gs-1, the Grassmann
    ones gs..total-1."""
    gs = 2 * alg.m + (1 if alg.odd else 0)
    return gs, gs + 2 * alg.n


def gen_count(alg: Algebra) -> int:
    return _layout(alg)[1]


@lru_cache(maxsize=64)
def _generators(alg: Algebra):
    """(name, doubled weight) of each slot, in slot order: x_i (e_i), xb_i
    (-e_i), x0 (0, odd l only), xi_j (d_j), xib_j (-d_j)."""
    n, m = alg.n, alg.m

    def unit(i, c):
        return tuple(c if p == i else 0 for p in range(alg.rank))

    return tuple([(f"x{i + 1}", unit(n + i, 2)) for i in range(m)]
                 + [(f"xb{i + 1}", unit(n + i, -2)) for i in range(m)]
                 + [("x0", (0,) * alg.rank)] * alg.odd
                 + [(f"xi{j + 1}", unit(j, 2)) for j in range(n)]
                 + [(f"xib{j + 1}", unit(j, -2)) for j in range(n)])


def gen_name(alg: Algebra, slot: int) -> str:
    return _generators(alg)[slot][0]


def gen_weight_doubled(alg: Algebra, slot: int):
    """Doubled weight of one generator, in the d/e coordinate order."""
    return _generators(alg)[slot][1]


def monomial_weight_doubled(alg: Algebra, mono):
    """2(#xi_j - #xib_j) on d_j and 2(#x_i - #xb_i) on e_i; x0 has weight 0."""
    n, m, gs = alg.n, alg.m, _layout(alg)[0]
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


# -- packed monomials --------------------------------------------------------------


class MonomialLayout:
    """The packed layout of the module docstring for one algebra and width:
    slot s in the field at shifts[s] under the mask fields[s], units[s] its
    one, and grassmann every Grassmann bit."""

    __slots__ = ("alg", "gs", "field", "shifts", "fields", "units", "grassmann")

    def __init__(self, alg: Algebra, width: int):
        gs, total = _layout(alg)
        ngr = total - gs
        self.alg, self.gs = alg, gs
        self.field = 2**width - 1  # of a commuting slot
        self.shifts = tuple([ngr + (gs - 1 - s) * width for s in range(gs)] + list(range(ngr - 1, -1, -1)))
        self.fields = (self.field,) * gs + (1,) * ngr
        self.units = tuple(1 << x for x in self.shifts)
        self.grassmann = 2**ngr - 1

    def pack(self, mono) -> int:
        return sum(e << x for e, x in zip(mono, self.shifts))

    def unpack(self, key: int) -> tuple:
        return tuple(key >> x & f for x, f in zip(self.shifts, self.fields))

    def pack_terms(self, terms):
        return {self.pack(t): c for t, c in terms.items()}

    def unpack_terms(self, terms):
        return {self.unpack(t): c for t, c in terms.items()}

    def between(self, lo: int, hi: int) -> int:
        """The bits of the Grassmann slots strictly between slots lo and hi."""
        return sum(self.units[max(lo + 1, self.gs):hi])


@lru_cache(maxsize=64)
def _monomial_layout(alg, width):
    return MonomialLayout(alg, width)


def monomial_layout(alg: Algebra, degree: int) -> MonomialLayout:
    """The layout of the monomials of one computation in degree at most
    degree: width the bit length of degree, built once per algebra and
    width."""
    return _monomial_layout(alg, max(degree, 1).bit_length())


class MonomialImages:
    """Operators applied to packed monomials of one layout.  An image is a
    dict packed monomial -> coefficient, computed when it is read and not
    kept; derivations and `doubled_laplacian` give int coefficients.  Each
    operator is packed for the layout once (`LinearOperator.packed`)."""

    def __init__(self, layout: MonomialLayout):
        self.layout = layout
        self._packed = {}  # op -> op packed in layout

    def image(self, op, key):
        packed = self._packed.get(op)
        if packed is None:
            packed = self._packed[op] = op.packed(self.layout)
        return op.monomial_image(key, packed)

    def apply(self, op, terms):
        """op applied to a dict packed monomial -> coefficient, as such a dict."""
        out = {}
        for key, c in terms.items():
            for t, ic in self.image(op, key).items():
                v = out.get(t, 0) + c * ic
                if v:
                    out[t] = v
                else:
                    out.pop(t, None)
        return out


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
        return SuperElement(self.alg, add_terms(self.terms, other.terms))

    def __sub__(self, other):
        return SuperElement(self.alg, add_terms(self.terms, other.terms, -1))

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
        gs = _layout(self.alg)[0]
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


class LinearOperator:
    def packed(self, layout: MonomialLayout):
        """What `monomial_image` reads of this operator in layout."""
        raise NotImplementedError

    def monomial_image(self, key: int, packed) -> dict:
        """The image of one packed monomial, a dict packed monomial ->
        coefficient, read from `packed(layout)` of its layout."""
        raise NotImplementedError

    def apply(self, el: SuperElement) -> SuperElement:
        layout = monomial_layout(el.alg, max(map(sum, el.terms), default=0))
        terms = MonomialImages(layout).apply(self, layout.pack_terms(el.terms))
        return SuperElement(el.alg, layout.unpack_terms(terms))

    def __call__(self, el):
        return self.apply(el)


class Derivation(LinearOperator):
    """Superderivation given by generator images, extended by the graded
    Leibniz rule.  Every image is a multiple of 1 or of one generator (the
    constructor refuses any other with ValueError), so the derivation is
    stored as moves (source slot, target slot or None,
    coefficient), and the image of a monomial is one monomial per move:
    decrement the source, increment the target.  A commuting source
    multiplies by its exponent; a parity 1 operator with a Grassmann source
    multiplies by -1 per Grassmann bit before the source; a Grassmann target
    is 0 when its bit is already set, else multiplies by -1 per Grassmann bit
    strictly between source and target.  Packed, a move is one subtraction
    and one addition, and its two signs are one: the parity of the set bits
    under one mask (`packed`)."""

    def __init__(self, alg: Algebra, parity: int, images: tuple, name: str = ""):
        moves = []
        for slot, img in images:
            if len(img.terms) > 1 or any(sum(t) > 1 for t in img.terms):
                raise ValueError(f"image of slot {slot} is not a multiple of one generator or of 1")
            moves += [(slot, t.index(1) if sum(t) else None, _exact(c)) for t, c in img.terms.items()]
        self.alg = alg
        self.parity = parity
        self.images = images  # tuple of (slot, SuperElement)
        self.name = name
        self.moves = tuple(moves)

    def packed(self, layout):
        """One (source shift, source field, source unit, target unit, target
        bit to refuse when set, sign mask, coefficient) per move; the target
        unit and bit are 0 for a target 1, the bit also for a commuting
        target."""
        gs, units = layout.gs, layout.units
        out = []
        for src, tgt, c in self.moves:
            signs = layout.between(gs - 1, src) if self.parity and src >= gs else 0
            target = refuse = 0
            if tgt is not None:
                target = units[tgt]
                if tgt >= gs:
                    refuse = target
                    signs ^= layout.between(min(src, tgt), max(src, tgt))
            out.append((layout.shifts[src], layout.fields[src], units[src], target, refuse, signs, c))
        return tuple(out)

    def monomial_image(self, key, moves):
        out = {}
        for shift, field, unit, target, refuse, signs, c in moves:
            e = key >> shift & field
            if not e:
                continue
            new = key - unit
            if new & refuse:
                continue
            if (key & signs).bit_count() & 1:
                e = -e
            _bump(out, new + target, c * e)
        return out

    def weight_shift(self):
        """Doubled weight this derivation adds to every monomial it moves."""
        src, tgt, _ = self.moves[0]
        shift = [-x for x in gen_weight_doubled(self.alg, src)]
        if tgt is not None:
            shift = [x + y for x, y in zip(shift, gen_weight_doubled(self.alg, tgt))]
        return tuple(shift)

    def __repr__(self):
        return f"Derivation({self.name or 'anon'})"


class Laplacian(LinearOperator):
    """c_xi sum_j d_xi_j d_xib_j + c_x sum_i d_x_i d_xb_i + c_x0 d_x0^2 (the
    x0 part only for odd l) for coefficients (c_xi, c_x, c_x0), in closed
    form: each part sends a monomial to one monomial or to 0.  It clears
    both bits of xi_j xib_j, times -1 when the Grassmann bits strictly
    between them are even in number, else +1 (the two left derivatives pass
    the bits before xi_j twice and xi_j itself once); it lowers
    x_i^a xb_i^b to x_i^(a-1) xb_i^(b-1), times ab, and x0^c to x0^(c-2),
    times c(c-1)."""

    def __init__(self, alg: Algebra, coefficients: tuple):
        self.alg = alg
        self.coefficients = coefficients

    def packed(self, layout):
        """(per j: the bits of xi_j and xib_j and the mask between them; per
        i: the shifts of x_i and xb_i and their units' sum; the shift of x0
        and twice its unit, or None; the field of a commuting slot)."""
        alg = self.alg
        n, m, gs = alg.n, alg.m, layout.gs
        shifts, units = layout.shifts, layout.units
        bits = tuple((units[j] | units[j + n], layout.between(j, j + n)) for j in range(gs, gs + n))
        pairs = tuple((shifts[i], shifts[m + i], units[i] + units[m + i]) for i in range(m))
        x0 = (shifts[2 * m], 2 * units[2 * m]) if alg.odd else None
        return bits, pairs, x0, layout.field

    def monomial_image(self, key, packed):
        bits, pairs, x0, field = packed
        c_xi, c_x, c_x0 = self.coefficients
        out = {}
        for both, between in bits:
            if key & both == both:
                out[key - both] = c_xi if (key & between).bit_count() & 1 else -c_xi
        for sa, sb, units in pairs:
            a, b = key >> sa & field, key >> sb & field
            if a and b:
                out[key - units] = c_x * a * b
        if x0:
            c = key >> x0[0] & field
            if c > 1:
                out[key - x0[1]] = c_x0 * c * (c - 1)
        return out

    def __repr__(self):
        return f"Laplacian{self.coefficients}"


@lru_cache(maxsize=64)
def doubled_laplacian(alg: Algebra) -> Laplacian:
    """2 * laplacian(alg): integer coefficients and the same kernel.  Built
    once per algebra; the operator is never mutated."""
    return Laplacian(alg, (2, -2, -1))


def laplacian(alg: Algebra) -> Laplacian:
    """Degree -2 invariant operator: sum_j d_xi_j d_xib_j
    - sum_i d_x_i d_xb_i - 1/2 d_x0^2 (the x0 term only for odd l)."""
    return Laplacian(alg, tuple(_exact(Fraction(c, 2)) for c in doubled_laplacian(alg).coefficients))


# -- the g-action on generators ------------------------------------------------------
#
# The invariant form B of the natural module pairs each generator s with its
# dual s*, the generator of weight -wt(s): B(x_i, xb_i) = B(xb_i, x_i) =
# B(x0, x0) = 1 on the commuting slots and B(xi_j, xib_j) = 1 = -B(xib_j, xi_j)
# on the Grassmann ones.  A root vector X of parity |X| is skew for B:
# B(Xu, v) + (-1)^(|X| |u|) B(u, Xv) = 0, with |u| the Grassmann parity.


def root_operator(alg: Algebra, root: Weight) -> Derivation:
    """First-order superderivation realizing a root vector X of weight root
    on the natural module, derived from the generator weights and the form
    B.  X sends a generator s to the generator t of weight wt(s) + root:
    for +/-2d_j that is one move, for every other root two, s -> t and
    t* -> s*.  The move with the smaller source slot has coefficient 1, which
    fixes the scale of X, and skewness on (s, t*) fixes the other:
    c = -B(t, t*) B(s, s*) (-1)^(|X| |s|).  The sign factor is always 1: the
    sources s and t* of an odd X differ in Grassmann parity, and the
    commuting slots come first, so s is commuting.  A weight that is not
    +/- a positive root is refused with ValueError."""
    pos = positive_roots(alg)
    if root not in {r for p in pos.even + pos.odd for r in (p, -p)}:
        raise ValueError(f"{root.format()} is not a root of {alg}")
    gens, gs = _generators(alg), _layout(alg)[0]
    slot_of = {w: slot for slot, (_, w) in enumerate(gens)}
    dual = [slot_of[tuple(-x for x in w)] for _, w in gens]
    form = [-1 if u >= gs and dual[u] < u else 1 for u in range(len(gens))]  # B(u, u*)
    targets = [slot_of.get(tuple(a + b for a, b in zip(w, root.doubled))) for _, w in gens]
    s = next(s for s, t in enumerate(targets) if t is not None)
    t = targets[s]
    parity = int((s >= gs) != (t >= gs))
    images = [(s, SuperElement.generator(alg, t))]
    if dual[t] != s:
        images.append((dual[t], SuperElement.generator(alg, dual[s]).scale(-form[t] * form[s])))
    return Derivation(alg, parity, tuple(images), f"E[{root.format()}]")


@lru_cache(maxsize=64)
def simple_root_operators(alg: Algebra):
    """(raising, lowering) tuples of derivations for the standard simple
    roots, built once per algebra."""
    ups = tuple(root_operator(alg, s) for s in simple_roots(alg))
    downs = tuple(root_operator(alg, -s) for s in simple_roots(alg))
    return ups, downs


# -- degree components -----------------------------------------------------------------


def degree_dim(alg: Algebra, k: int) -> int:
    """Dimension of the degree-k component, by counting: sum over g of
    C(2n, g) * (number of degree-(k - g) monomials in the commuting slots)."""
    nc, total = _layout(alg)
    ngr = total - nc

    def commuting(d):
        return comb(d + nc - 1, nc - 1) if nc else int(d == 0)

    return sum(comb(ngr, g) * commuting(k - g) for g in range(min(k, ngr) + 1)) if k >= 0 else 0


def degree_basis(alg: Algebra, k: int, bound: int = 20000):
    """Canonical monomial basis of the degree-k component, enumerated for
    `char_of_degree` alone; refused with DimensionGuard, before any
    enumeration, when its dimension exceeds bound."""
    return _degree_basis(alg, k, bound)


def _bounded_dim(alg, k, bound):
    """degree_dim(alg, k), refused with DimensionGuard when it exceeds bound;
    0 for k < 0, whatever the bound."""
    if k < 0:
        return 0
    dim = degree_dim(alg, k)
    if dim > bound:
        raise DimensionGuard(f"dim = {dim} exceeds bound {bound}")
    return dim


@lru_cache(maxsize=128)
def _degree_basis(alg, k, bound):
    # called with every argument given positionally, so that one degree and
    # bound is one cache entry however the caller spelled the call
    if not _bounded_dim(alg, k, bound):
        return ()
    gs, total = _layout(alg)
    ngr = total - gs
    out = []
    for gbits in range(min(k, ngr), -1, -1):
        rem = k - gbits
        for positions in itertools.combinations(range(ngr), gbits):
            for comp in _compositions(rem, gs):
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


# -- the weights of a degree --------------------------------------------------------------
#
# A degree-k monomial of doubled weight 2(a; b) sets, on each d-slot j, the
# bit of xi_j (a_j = 1) or of xib_j (a_j = -1), or neither or both (a_j = 0);
# on each e-slot it is x_i^(b_i^+ + t) xb_i^(b_i^- + t); x0 (odd l) takes the
# degree left.  So the weights of a degree, and the monomials of each, follow
# from the slot pairs without enumerating the degree.


def _is_degree_weight(alg, k, doubled):
    """Is doubled the weight of some degree-k monomial?  Its d-entries are -1,
    0 or 1, and the slack k - sum |entries| is >= 0, made up by x0 (odd l)
    or else in pairs: x_i xb_i, or both bits of a zero d-slot (the only
    pairs when m = 0)."""
    n = alg.n
    if any(abs(x) > 2 for x in doubled[:n]):
        return False
    slack = k - sum(map(abs, doubled)) // 2
    if slack < 0 or alg.odd:
        return slack >= 0
    return slack % 2 == 0 and (alg.m > 0 or slack <= 2 * doubled[:n].count(0))


def _dominant_weights(alg, k):
    """The g0-dominant doubled weights of degree k, graded-lex descending:
    (1^p, 0^(n-p)) on the d-slots; on the e-slots a partition with at most m
    parts and, for even l, also its copy with the last entry negated (for
    so(2), whose W is trivial, that is every sign)."""
    n, m = alg.n, alg.m
    out = []
    for p in range(min(n, k) + 1):
        d = (2,) * p + (0,) * (n - p)
        for lam in partitions_up_to(k - p, m):
            e = tuple(2 * x for x in lam) + (0,) * (m - len(lam))
            candidates = [d + e]
            if not alg.odd and len(lam) == m > 0:  # D_m: the last entry has either sign
                candidates.append(d + e[:-1] + (-e[-1],))
            out += [wt for wt in candidates if _is_degree_weight(alg, k, wt)]
    return sorted(out, key=grlex_key, reverse=True)


def _degree_weights(alg, k):
    """The doubled weights of degree k: the W-orbits of its dominant weights
    (`rootdata.orbit`)."""
    return [wt for mu in _dominant_weights(alg, k) for wt in orbit(alg, mu)]


def _weight_monomials(layout, k, doubled):
    """The degree-k monomials of one doubled weight, packed in layout, in
    increasing order (which is tuple order); [] when doubled is not a weight
    of the degree (`_is_degree_weight`).  A negative slack, an odd one for
    even l, and a d-entry other than -2, 0 or 2 are refused first; for l = 0
    a slack beyond the zero d-slots finds no pair x_i xb_i to take it."""
    alg = layout.alg
    n, m, gs = alg.n, alg.m, layout.gs
    slack = k - sum(map(abs, doubled)) // 2
    if slack < 0 or slack % 2 and not alg.odd or not {-2, 0, 2}.issuperset(doubled[:n]):
        return []
    units = layout.units
    a = [x // 2 for x in doubled[:n]]
    b = [x // 2 for x in doubled[n:]]
    base = sum(c * units[i] if c > 0 else -c * units[m + i] for i, c in enumerate(b))
    base += sum(units[gs + j] if c > 0 else units[gs + n + j] for j, c in enumerate(a) if c)
    zeros = [units[gs + j] | units[gs + n + j] for j, c in enumerate(a) if not c]
    pairs = [units[i] + units[m + i] for i in range(m)]
    by_count = {}

    def pair_sums(t):
        """The sums of t pairs x_i xb_i."""
        if t not in by_count:
            by_count[t] = [sum(ts) for ts in itertools.combinations_with_replacement(pairs, t)]
        return by_count[t]

    out = []
    for both in range(min(len(zeros), slack // 2) + 1):
        rest = slack - 2 * both
        # (t pairs x_i xb_i, x0 to the rest): x0 takes any rest for odd l
        if alg.odd:
            splits = [(pair_sums(t), (rest - 2 * t) * units[2 * m]) for t in range(rest // 2 + 1)]
        else:
            splits = [(pair_sums(rest // 2), 0)]
        for chosen in itertools.combinations(zeros, both):
            head = base + sum(chosen)
            for sums, x0 in splits:
                start = head + x0
                out += [start + p for p in sums]
    out.sort()
    return out


# -- per-weight blocks -------------------------------------------------------------------
#
# The Laplacian preserves weight and a root operator shifts it by its root, so
# each linear system below splits into one small block per weight.  Every
# Laplacian block is solved in `_Blocks.solve`, the one solver, by
# `nullspace` on the int dict columns it builds, the images of its monomials;
# a null vector over the monomials of its block is, up to a positive int, the
# vector the whole-degree matrix would give, because a column is a pivot of
# the block-diagonal RREF exactly when it is one in its block.  A caller that
# reads a block more than once reads the kept copy (`_Blocks.kernel`).


class _Blocks:
    """The Laplacian kernel of degree k of alg, one weight block at a time,
    for one computation: the degree is refused first when its dimension
    exceeds bound, as degree_basis would, and then one layout, with the
    operators packed for it (`images`), and the doubled Laplacian serve
    every block."""

    def __init__(self, alg: Algebra, k: int, bound: int):
        _bounded_dim(alg, k, bound)
        self.alg, self.k = alg, k
        self.layout = monomial_layout(alg, k)
        self.images = MonomialImages(self.layout)
        self._lap = doubled_laplacian(alg)
        self._kernels = {}

    def kernel(self, nu):
        """`solve(nu)`, solved once and kept for the life of this object."""
        kern = self._kernels.get(nu)
        if kern is None:
            kern = self._kernels[nu] = self.solve(nu)
        return kern

    def solve(self, nu):
        """Integer basis of ker(Laplacian) on the block at doubled weight nu,
        not kept; [] when nu is not a weight of the degree.  One int dict
        packed monomial -> coefficient per free monomial, in order, primitive
        and positive at that monomial, its largest.  Divided by that entry,
        each is the block's RREF null vector."""
        dom = _weight_monomials(self.layout, self.k, nu)
        image, lap = self.images.image, self._lap
        return [{dom[c]: x for c, x in v.items()} for v in nullspace([image(lap, t) for t in dom])]

    def check_kernel_dim(self, kdim):
        """kdim must be max(0, dim(k) - dim(k-2)), both counted in closed
        form.  For l > 0 the Laplacian maps degree k onto k-2 (and x1^2 or
        x0^2 embeds k-2 in k); for l = 0 it lowers an sl2 action on the
        Grassmann algebra: onto up to the middle degree, with kernel 0 above
        it."""
        alg, k = self.alg, self.k
        if kdim != max(0, degree_dim(alg, k) - degree_dim(alg, k - 2)):
            raise ArithmeticError(f"Laplacian not surjective in degree {k}: kernel dim {kdim}")


def _integer_multiple(terms):
    """terms times the lcm of their denominators, with int coefficients."""
    s = lcm(*(c.denominator for c in terms.values()))
    return {t: c.numerator * (s // c.denominator) for t, c in terms.items()}


def _block_singular(images, ups, kern):
    """The vectors of span(kern) killed by every op in ups, as packed term
    dicts of Fractions, sorted, each 1 at its largest monomial.  kern is the
    block's integer kernel basis, kern_j = s_j r_j for the RREF basis r_j and ints
    s_j > 0, so v = sum a_j kern_j has v = s a on the free columns of r, and
    the null basis in the a-coordinates gives, up to scale, the RREF null
    basis of the stacked block [Laplacian; ups]; the division by its entry
    at its free (largest) monomial fixes the scale.  The ops in ups shift
    weight by distinct roots, so their images of one block have no monomial
    in common, and each column is their union."""
    columns = []
    for terms in kern:
        col = {}
        for op in ups:
            col.update(images.apply(op, terms))
        columns.append(col)
    out = []
    for a in nullspace(columns):
        vec = {}
        for j, aj in a.items():
            for t, c in kern[j].items():
                _bump(vec, t, aj * c)
        lead = vec[max(vec)]
        out.append({t: Fraction(vec[t], lead) for t in sorted(vec)})
    return out


def _singular_pass(blocks, ups):
    """(dim ker Laplacian, singular vectors by weight, orbit_size) in the
    degree of blocks, from one pass over its g0-dominant weight blocks, each
    built from its slot pairs (`_weight_monomials`); no other block and no
    whole degree is built.  orbit_size maps each dominant weight of the degree
    to the size of its W-orbit, whose weights all lie in the degree, since
    the weights of a degree are W-stable.  The nullity of a dominant block
    counts once for every weight of its W-orbit, and the sum is checked
    (`_Blocks.check_kernel_dim`).  The singular vectors are unpacked."""
    alg, layout = blocks.alg, blocks.layout
    kdim = 0
    out = {}
    dominant = _dominant_weights(alg, blocks.k)
    orbit_size = dict(zip(dominant, orbit_sizes(alg, dominant)))
    for wt in dominant:
        kern = blocks.kernel(wt)
        kdim += orbit_size[wt] * len(kern)
        vecs = _block_singular(blocks.images, ups, kern)
        if vecs:
            out[Weight(alg, wt)] = [SuperElement(alg, layout.unpack_terms(v)) for v in vecs]
    blocks.check_kernel_dim(kdim)
    return kdim, out, orbit_size


def kernel_basis(alg: Algebra, k: int, bound: int = 20000):
    """Exact basis of ker(Laplacian) on the degree-k component, the RREF null
    basis of the whole degree in the order of its free monomials, solved per
    weight of the degree (`_degree_weights`) and checked by
    `_Blocks.check_kernel_dim`: each integer block vector (`_Blocks.solve`,
    which keeps no block: each weight is read once) divided by its entry at
    its free (largest) monomial, as Fractions.  A degree past bound is
    refused first."""
    blocks = _Blocks(alg, k, bound)
    found = []
    for wt in _degree_weights(alg, k):
        for v in blocks.solve(wt):
            free = max(v)
            terms = {blocks.layout.unpack(t): Fraction(v[t], v[free]) for t in sorted(v)}
            found.append((free, SuperElement(alg, terms)))
    blocks.check_kernel_dim(len(found))
    found.sort(key=lambda pair: pair[0])
    return [el for _, el in found]


def singular_vectors(alg: Algebra, k: int, bound: int = 20000):
    """Vectors of ker(Laplacian) in degree k annihilated by every positive
    root operator, grouped by weight.  Returns {Weight: [SuperElement, ...]},
    graded-lex descending by weight."""
    return kernel_dim_and_singular_vectors(alg, k, bound)[1]


def kernel_dim_and_singular_vectors(alg: Algebra, k: int, bound: int = 20000):
    """(len(kernel_basis(alg, k, bound)), singular_vectors(alg, k, bound))
    from one pass over the weight blocks, with kernel_basis's check of the
    kernel dimension."""
    return _singular_pass(_Blocks(alg, k, bound), simple_root_operators(alg)[0])[:2]


# -- cyclic spans and irreducibility ----------------------------------------------------


def _deficits(blocks, dominant, downs):
    """(mu, nullity(mu) - rank sum_i f_i K_{mu + alpha_i}) for each weight mu
    of dominant with nonzero nullity, where K_nu is the Laplacian kernel
    block at nu (`_Blocks.kernel`) and the f_i (downs) are the simple
    lowering operators.  For the kernel M, n-M is the sum of the f_i M, so
    the deficits are the weight multiplicities of M/n-M.  The kernels at
    weights of dominant, which the caller has solved, are ranked first.  A
    weight stops as soon as its rank reaches its nullity."""
    simples = [a.doubled for a in simple_roots(blocks.alg)]
    images, kernel = blocks.images, blocks.kernel
    for mu in dominant:
        kern = kernel(mu)
        if not kern:
            continue
        above = sorted(((op, tuple(x + y for x, y in zip(mu, a))) for op, a in zip(downs, simples)),
                       key=lambda pair: pair[1] not in dominant)
        span = _SparseSpan()
        for w in (images.apply(op, v) for op, nu in above for v in kernel(nu)):
            if span.add(w) and span.dim == len(kern):
                break
        yield mu, len(kern) - span.dim


def _upward_closure(alg, k, dominant):
    """The weights of degree k reached from its dominant weights (dominant)
    by adding simple roots one at a time, each step a weight of the degree
    (`_is_degree_weight`)."""
    simples = [a.doubled for a in simple_roots(alg)]
    found = set(dominant)
    stack = list(found)
    while stack:
        wt = stack.pop()
        for a in simples:
            up = tuple(x + y for x, y in zip(wt, a))
            if up not in found and _is_degree_weight(alg, k, up):
                found.add(up)
                stack.append(up)
    return found


def cyclic_span_dim(alg: Algebra, vector: SuperElement, ops, orbit_size) -> int:
    """dim U(g)v for a singular vector v of the degree whose dominant weights
    and W-orbit sizes are orbit_size, with ops the simple lowering operators:
    the exact fallback of `irreducibility_report` when M/n-M is not
    1-dimensional.

    U(g)v = U(n-)v is a g-submodule, so its weight multiplicities are
    W-invariant and dim U(g)v = sum over dominant mu of |W mu| dim U(g)v_mu.
    A lowering path from v down to a dominant mu passes only through weights
    of `_upward_closure`, so the walk drops every vector at another weight
    before it reaches the span.  Exact: the module is finite dimensional, v
    is scaled to ints once, and int derivations keep its images int."""
    k = sum(next(iter(vector.terms)))
    walk = _upward_closure(alg, k, orbit_size)
    shifts = [op.weight_shift() for op in ops]
    layout = monomial_layout(alg, k)
    images = MonomialImages(layout)
    span = _SparseSpan()
    start = _integer_multiple(layout.pack_terms(vector.terms))
    span.add(start)
    top = vector.weight()
    dims = Counter([top])
    frontier = [(top, start)]
    while frontier:
        new = []
        for wt, v in frontier:
            for op, shift in zip(ops, shifts):
                low = tuple(x + y for x, y in zip(wt, shift))
                if low not in walk:
                    continue
                w = images.apply(op, v)
                if w and span.add(w):
                    dims[low] += 1
                    new.append((low, w))
        frontier = new
    return sum(orbit_size[wt] * d for wt, d in dims.items() if wt in orbit_size)


# -- tensoring a degree component with the natural module -------------------------------
#
# Elements of (degree-k component) (x) V are dicts (packed monomial, generator
# slot) -> Fraction.  A derivation D acts by the coproduct rule
# D(u (x) v) = D(u) (x) v + (-1)^{parity(D) * parity(u)} u (x) D(v).


def _tensor_coproduct_image(images, op: Derivation, key, slot):
    """op on the basis element key (x) (generator at slot), by the coproduct
    rule, key packed in the layout of images."""
    out = {(t, slot): c for t, c in images.image(op, key).items()}
    sign = -1 if op.parity and (key & images.layout.grassmann).bit_count() & 1 else 1
    for src, tgt, c in op.moves:
        if src == slot:
            _bump(out, (key, tgt), sign * c)
    return out


def natural_tensor_singular_counts(alg: Algebra, k: int, bound: int = 20000):
    """Singular vectors of (ker Laplacian in degree k) (x) V, counted by
    weight.  Exact: the Laplacian acts on the left factor, so the kernel of
    the weight-nu block is the sum over generators s of (the Laplacian kernel
    block at nu - wt(s)) (x) s, each solved once (`_Blocks.kernel`); the count
    is the nullity of every simple raising operator, acting by the coproduct
    rule, on that kernel: the number of kernel vectors whose images do not
    enlarge the span of those before them (`_SparseSpan`).  Only the g0-dominant blocks are solved; no other
    weight carries a singular vector.  Their weights are the folds of
    mu + wt(s), mu dominant of degree k.  A degree past bound is refused
    first."""
    blocks = _Blocks(alg, k, bound)
    shifts = [gen_weight_doubled(alg, s) for s in range(gen_count(alg))]
    dominant = {fold_to_dominant(alg, tuple(a + b for a, b in zip(mu, shift)))
                for mu in _dominant_weights(alg, k) for shift in shifts}
    images = blocks.images
    ups, _ = simple_root_operators(alg)
    counts = {}
    for wt in sorted(dominant, key=grlex_key, reverse=True):
        columns = []
        for s, shift in enumerate(shifts):
            for terms in blocks.kernel(tuple(a - b for a, b in zip(wt, shift))):
                col = {}
                for op_i, op in enumerate(ups):
                    for key, c in terms.items():
                        for pair, v in _tensor_coproduct_image(images, op, key, s).items():
                            _bump(col, (op_i, pair), c * v)
                columns.append(col)
        span = _SparseSpan()
        dim = sum(not span.add(col) for col in columns)
        if dim:
            counts[Weight(alg, wt)] = dim
    return counts


class IrreducibilityReport(NamedTuple):
    alg: Algebra
    degree: int
    kernel_dim: int
    singular_weights: list  # [(Weight, multiplicity)]
    has_trivial_submodule: bool
    top_cyclic_dim: int
    classification: str
    notes: list


def irreducibility_report(alg: Algebra, k: int, bound: int = 20000) -> IrreducibilityReport:
    """Classify ker(Laplacian) in degree k from its singular vectors plus an
    exact cyclicity check of the highest one.  The kernel dimension is the
    sum of the per-weight Laplacian nullities of the singular-vector pass.
    The top vector, when it is the only one of its weight, generates the
    kernel M iff the deficits of M/n-M (`_deficits`) sum to 1, and then
    top_cyclic_dim is the kernel dimension; otherwise `cyclic_span_dim`
    walks its span."""
    blocks = _Blocks(alg, k, bound)
    ups, downs = simple_root_operators(alg)
    kdim, svs, orbit_size = _singular_pass(blocks, ups)
    if kdim == 0:
        return IrreducibilityReport(alg, k, 0, [], False, 0, "zero", ["kernel is zero in this degree"])
    weights = [(w, len(vs)) for w, vs in svs.items()]
    total_sing = sum(c for _, c in weights)

    has_trivial = any(
        not any(blocks.images.apply(op, blocks.layout.pack_terms(v.terms)) for op in ups + downs)
        for w, vs in svs.items() if w.is_zero() for v in vs
    )
    top_weight = max(svs, key=lambda w: grlex_key(w.doubled))
    one_top = len(svs[top_weight]) == 1
    # the top weight's deficit is its nullity, >= 1: the total is 1 iff no
    # running total passes 1
    generates = one_top and all(total <= 1 for total in itertools.accumulate(
        d for _, d in _deficits(blocks, orbit_size, downs)))

    top_dim = 0
    if generates:
        top_dim = kdim
    elif one_top:
        top_dim = cyclic_span_dim(alg, svs[top_weight][0], downs, orbit_size)

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
