"""Sparse exact Laurent polynomials on the half-weight lattice of spo(2n|l).

Variables are formal exponentials of the basis weights: slot k of an exponent
vector holds TWICE the exponent of e^{d_{k+1}} for k < n, and twice the
exponent of e^{e_{k-n+1}} for k >= n.  Doubling keeps the half-integral
exponents that occur in Weyl denominators and in rho (odd l) inside plain
integers; a vector is integral iff every entry is even.

Coefficients are arbitrary-precision integers.  Monomials are ordered by
graded lex (total doubled degree first, then lex), which is total and
multiplicative, so leading-term queries and exact division are reproducible.

The term loops are one pure-Python kernel that every module calls:
`add_terms`, the one sum a + sign * b, on exponent tuples and packed ints
alike; `scale_shift_terms`, the one product by a monomial; and
`add_products`, the one product loop, on exponents packed into one int
with a bit field per slot, so that multiplying monomials is adding ints
(Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007).  `Packing` is such a layout, kept
across many products by the Jacobi-Trudi power tables and the Bareiss
elimination of `linalg.det_bareiss_laurent`, and made per call by `mul_terms`.

Weyl-type quotients are not evaluated here: Kac, Euler and even-Levi
characters are Weyl characters on dominant weights (`rootdata.weyl_character`).
Kac characters are multiplied by the binomials of their isotropic roots
with `times_isotropic`, on the terms of one sign orbit each
(`rootdata.orthant_character`).  `sign_images` makes the polynomial of
such orthant terms, for Weyl, Kac and Jacobi-Trudi characters: it takes
the orthant as one column of exponents per slot, which the packed kernels
read straight from their int keys, and holds it.  The first read of the
polynomial's `terms` expands it to every sign image in one C-level pass,
with no Python step per term; its term count, vdim, leading term and
integrality are read from the orthant without expanding (`LaurentPoly`).

`format_exponent` is the one way to write an exponent vector as a weight:
plain text for `Weight.format`, the CLI and `repr`, compact root labels,
and LaTeX.

Kernel results are free of zero coefficients and are wrapped without a copy
(`LaurentPoly._wrap`); the public constructor drops zeros.
"""

from __future__ import annotations

import heapq
import operator
from collections import deque
from itertools import compress, product, repeat, starmap
from operator import itemgetter


class LatticeMismatch(ValueError):
    """Operands live on different lattices: another (n|m) split, or
    another rank."""


class NotDivisible(ArithmeticError):
    """Exact division left a remainder: a formula upstream is wrong."""


def grlex_key(exps):
    return (sum(exps), exps)


TEXT_SYMBOLS = ("d{}", "e{}")
LATEX_SYMBOLS = (r"\delta_{{{}}}", r"\epsilon_{{{}}}")


def format_exponent(exps, n, symbols=TEXT_SYMBOLS, units=True):
    """A doubled exponent vector written as a weight: '2d1-1/2e1', or '0'.

    Slot i < n is symbols[0] and slot i >= n is symbols[1], each a format
    string taking the 1-based index on its side.  The coefficient of a slot
    is x/2, written as a fraction when x is odd.  With units=False a
    coefficient of 1 or -1 is written as its sign alone ('d1-d2').
    """
    bits = []
    for i, x in enumerate(exps):
        if not x:
            continue
        name = symbols[0].format(i + 1) if i < n else symbols[1].format(i - n + 1)
        if x % 2:
            coef = f"{x}/2"
        elif units or abs(x) != 2:
            coef = str(x // 2)
        else:
            coef = "-" if x < 0 else ""
        bits.append(coef + name)
    return "+".join(bits).replace("+-", "-") or "0"


# -- term kernel ------------------------------------------------------------------
#
# Terms are dicts mapping exponents to nonzero ints, the exponents either
# tuples or ints packed in one layout; no function returns zero coefficients.


def add_terms(a, b, sign=1):
    """a + sign * b for two term dicts keyed alike, exponent tuples or packed
    ints; a itself when b is empty.  Any other sign than 1 scales b once, so
    that the loop is the same plain sum for both."""
    if not b:
        return a
    if sign != 1:
        b = {e: sign * c for e, c in b.items()}
    out = dict(a)
    get = out.get
    for e, c in b.items():
        v = get(e, 0) + c
        if v:
            out[e] = v
        else:
            del out[e]
    return out


def scale_shift_terms(coef, shift, b):
    """New term dict coef * x^shift * b (coef nonzero)."""
    out = {}
    for eb, cb in b.items():
        out[tuple(map(operator.add, shift, eb))] = coef * cb
    return out


def add_products(out, a, b):
    """Add a * b into the term dict out, in place, for a and b packed in one
    layout, and drop the zeros; returns out."""
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    if 0 in out.values():
        for k in [k for k, c in out.items() if not c]:
            del out[k]
    return out


def mul_terms(a, b):
    """Product of two term dicts keyed by exponent tuples.  A one-term
    operand is one `scale_shift_terms`; any other pair goes through
    `add_products` in one signed `Packing`, whose fields of B.bit_length() + 1
    bits hold the product's exponents -B..B, for B the largest over the
    slots of the operands' largest |exponent| there, added."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return {}
    if len(a) == 1:
        ((e, c),) = a.items()
        return scale_shift_terms(c, e, b)
    reach_a, reach_b = ([max(max(col), -min(col)) for col in zip(*t)] for t in (a, b))
    bound = max(map(operator.add, reach_a, reach_b))
    packing = Packing(len(reach_a), 0, bound.bit_length() + 1, signed=True)
    return packing.terms(add_products({}, packing.pack(a), packing.pack(b)))


def _pack(terms, weights, lows):
    """Packed exponents of terms, in dict order; packing is linear, so the
    offsets fold into one constant."""
    base = sum(map(operator.mul, lows, weights))
    return [sum(map(operator.mul, e, weights)) - base for e in terms]


def _columns(packed, fields):
    """Per slot, the exponents of the packed ints in packed (a list or dict,
    read once per slot) as a lazy map: slot i is (k >> shift & mask) +
    offset for the i-th (shift, mask, offset) of fields, the offset added
    only where it is not 0."""
    cols = []
    for s, mask, lo in fields:
        col = map(operator.and_, map(operator.rshift, packed, repeat(s)), repeat(mask))
        cols.append(map(operator.add, col, repeat(lo)) if lo else col)
    return cols


def _unpack(packed, fields):
    """Exponent tuples of the packed ints in packed (see `_columns`)."""
    slots = _columns(packed, fields)
    return zip(*slots) if slots else repeat(())


class Packing:
    """One fixed packed layout of the exponents of n + m slots, for term
    dicts kept packed across many products ({packed exponent: coefficient}).

    Slot s is the `width`-bit field at bit width * s, and an exponent e packs
    to the sum of e_s 2^(width s).  Packing is linear, so adding two packed
    exponents multiplies the monomials, with no offset to carry along.
    Unsigned fields read back 0 <= e_s < 2^width; signed ones read back
    -2^(width-1) <= e_s < 2^(width-1), through a bias of 2^(width-1) per
    field.  A packed exponent reads back right only if every slot of it lies
    in that range: the caller sizes the width for every exponent it forms.
    """

    __slots__ = ("n", "m", "width", "_weights", "_bias", "_fields")

    ONE = {0: 1}  # the polynomial 1 in every layout; never mutated

    def __init__(self, n, m, width, signed=False):
        half = 1 << (width - 1) if signed else 0
        self.n, self.m, self.width = n, m, width
        self._weights = [1 << (width * s) for s in range(n + m)]
        self._bias = half * sum(self._weights)
        self._fields = [(width * s, (1 << width) - 1, -half) for s in range(n + m)]

    def pack(self, terms):
        """The packed term dict of a term dict keyed by exponent tuples."""
        return dict(zip(_pack(terms, self._weights, ()), terms.values()))

    def terms(self, packed):
        """The term dict keyed by exponent tuples of the packed term dict packed."""
        return dict(zip(_unpack(self._keys(packed), self._fields), packed.values()))

    def unpack(self, packed) -> LaurentPoly:
        """The polynomial whose packed term dict is packed."""
        return LaurentPoly._wrap(self.n, self.m, self.terms(packed))

    def columns(self, packed):
        """The exponents of the packed term dict packed as one list per
        slot, in the dict's order."""
        return [list(col) for col in _columns(self._keys(packed), self._fields)]

    def _keys(self, packed):
        return [k + self._bias for k in packed] if self._bias else packed


class LaurentPoly:
    """Immutable-by-convention sparse Laurent polynomial.

    `terms` maps doubled-exponent tuples of length n+m to nonzero ints;
    the constructor refuses an exponent of any other length with
    `LatticeMismatch` (`_wrap`, the kernels' path, does not look).  Never
    mutate `terms` after construction: results may share them (p * 1 is p
    itself, and p + 0 wraps p's terms).

    A value that `sign_images` made holds its orthant instead: the terms
    of a polynomial invariant under the sign change of each slot of a set,
    the sign-free slots, that have every exponent there >= 0, as one column
    of exponents per slot, their coefficients and the frozenset of the
    slots.  Kac, Euler and Jacobi-Trudi characters are such values.  The
    first read of `terms` expands the orthant to its sign images, the dict
    `sign_images` would have built at once, and keeps both.  These answer
    from the orthant, before the expansion and after it, since each orthant
    term with k nonzero exponents on the sign-free slots stands for 2^k
    terms of its coefficient: `len` (the sum of the 2^k), `evaluate_at_one` (the same
    sum weighted by the coefficients), `bool` and `is_zero`, `is_integral`
    (a sign change keeps parity), `leading_term` (the graded-lex maximum of
    a sign orbit is its orthant member, the one of largest degree) and `==`
    between two orthant-held values of one lattice and one set of sign-free
    slots (the orthant terms determine the polynomial).  Arithmetic stays on
    the orthant where the result is such a value too: `+` and `-` between
    two orthant-held values with one set of sign-free slots add their
    orthant terms, and `-p` and an int multiple scale the coefficients, each
    into a new held value.  Every other reader expands once.

    Values are safe to share across threads, with no lock: the orthant is
    never mutated nor dropped, and the expansion only sets the term dict.
    Two threads that read `terms` at once may each expand it; they get
    equal dicts, in one order.
    """

    __slots__ = ("n", "m", "_terms", "_orthant")

    def __init__(self, n, m, terms):
        self.n = n
        self.m = m
        self._terms = {e: c for e, c in terms.items() if c}
        self._orthant = None
        bad = set(map(len, terms)) - {n + m}
        if bad:
            raise LatticeMismatch(f"exponent length {min(bad)} != {n + m}")

    @classmethod
    def _wrap(cls, n, m, terms):
        """The polynomial on a term dict the kernel made free of zeros: no
        copy, no filter.  The dict must not be shared or mutated later."""
        p = object.__new__(cls)
        p.n, p.m, p._terms, p._orthant = n, m, terms, None
        return p

    @property
    def terms(self):
        """The term dict, expanded from the orthant on first read."""
        terms = self._terms
        if terms is None:
            terms = self._terms = _expand_sign_images(*self._orthant)
        return terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n, m):
        return cls(n, m, {})

    @classmethod
    def one(cls, n, m):
        return cls(n, m, {(0,) * (n + m): 1})

    @classmethod
    def monomial(cls, n, m, exps, coef=1):
        return cls(n, m, {tuple(exps): coef})

    # -- basics ------------------------------------------------------------

    @property
    def rank(self):
        return self.n + self.m

    def is_zero(self):
        return not self

    def __bool__(self):
        orthant = self._orthant
        return bool(self.terms) if orthant is None else bool(orthant[1])

    def __len__(self):
        orthant = self._orthant
        return len(self.terms) if orthant is None else sum(_image_counts(orthant))

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.n != other.n or self.m != other.m:
            return False
        a, b = self._orthant, other._orthant
        if a is not None and b is not None and a[2] == b[2]:
            return len(a[1]) == len(b[1]) and _orthant_terms(a) == _orthant_terms(b)
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.n, self.m, frozenset(self.terms.items())))

    def _check(self, other):
        if self.n != other.n or self.m != other.m:
            raise LatticeMismatch(f"the ({self.n}|{self.m}) lattice vs the ({other.n}|{other.m}) lattice")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def _sum(self, other, sign):
        """self + sign * other; on the orthants when both are held with one
        set of sign-free slots (the orthant terms of a sum are the sums of
        the orthant terms).  NotImplemented for any other operand than a
        LaurentPoly."""
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        a, b = self._orthant, other._orthant
        if a is not None and b is not None and a[2] == b[2]:
            terms = add_terms(_orthant_terms(a), _orthant_terms(b), sign)
            return sign_images(self.n, self.m, zip(*terms), terms.values(), a[2])
        return LaurentPoly._wrap(self.n, self.m, add_terms(self.terms, other.terms, sign))

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 1:
                return self
            if other == 0:
                return LaurentPoly.zero(self.n, self.m)
            orthant = self._orthant
            if orthant is not None:
                columns, coefs, free = orthant
                return sign_images(self.n, self.m, columns, [other * c for c in coefs], free)
            return LaurentPoly._wrap(self.n, self.m, {e: other * c for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        return LaurentPoly._wrap(self.n, self.m, mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def leading_term(self):
        """(exponents, coefficient) maximal in graded-lex order."""
        if not self:
            raise ValueError("zero polynomial has no leading term")
        orthant = self._orthant
        terms = self.terms if orthant is None else _orthant_terms(orthant)
        e = max(terms, key=grlex_key)
        return e, terms[e]

    def map_exponents(self, fn):
        """Apply an exponent-tuple map (e.g. a Weyl group element)."""
        out = {}
        for e, c in self.terms.items():
            k = fn(e)
            out[k] = out.get(k, 0) + c
        return LaurentPoly(self.n, self.m, out)

    def is_integral(self):
        """True if every exponent is a genuine (non-half) lattice point."""
        orthant = self._orthant
        if orthant is None:
            return all(x % 2 == 0 for e in self.terms for x in e)
        return all(x % 2 == 0 for col in orthant[0] for x in set(col))

    # -- queries -------------------------------------------------------------

    def evaluate_at_one(self):
        """Sum of coefficients: the (virtual) dimension of a character."""
        orthant = self._orthant
        if orthant is None:
            return sum(self.terms.values())
        return sum(map(operator.mul, _image_counts(orthant), orthant[1]))

    def sorted_terms(self):
        """[(exponents, coefficient)] in ascending graded-lex order: the
        exponents of each total degree sorted as plain tuples, with no key
        function called per term."""
        by_degree = {}
        for e in self.terms:
            by_degree.setdefault(sum(e), []).append(e)
        return [(e, self.terms[e]) for d in sorted(by_degree) for e in sorted(by_degree[d])]

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        bits = [f"{c}*e^({format_exponent(e, self.n)})" for e, c in self.sorted_terms()[:8]]
        tail = f" ... ({len(self.terms)} terms)" if len(self.terms) > 8 else ""
        return "LaurentPoly(" + " + ".join(bits) + tail + ")"

    # -- serialization --------------------------------------------------------

    def to_json_dict(self):
        return {
            "n": self.n,
            "m": self.m,
            "terms": [{"exp": list(e), "coef": str(c)} for e, c in self.sorted_terms()],
        }


# -- exact division -----------------------------------------------------------------


def exact_div(p, q, packing=None):
    """Exact quotient p / q; raises NotDivisible when no exact quotient exists.

    A divisor equal to the monomial 1 returns p itself, not a copy.  Any
    other one-term divisor c x^h is a shift by -h and an exact division of
    each coefficient by c; a coefficient that c does not divide fails with
    the message `_long_division` would give, naming the first such
    coefficient in descending graded-lex order.

    Otherwise p must pass a face test first (`_check_faces`).  If p = q f,
    then in each slot s the face of p at its smallest (or largest)
    s-exponent, the terms with that exponent, is the product of the faces
    of q and f there (their product is not zero), and the exponent spans
    (max - min per slot) of a product add up.  So p and each of its faces
    span at least as much in every slot as q and its face; where one spans
    less, p is refused at once, whatever the distance the long division
    (`_long_division`) would walk before it failed.

    With `packing`, p and q are packed term dicts in that layout and so is
    the quotient, as the Bareiss elimination of `linalg.det_bareiss_laurent`
    keeps them: a divisor equal to 1 returns p itself, and any other one is
    divided as above, p and q unpacked once and the quotient packed again.
    """
    if packing is None:
        return _quotient(p, q)
    if q == Packing.ONE:
        return p
    return packing.pack(_quotient(packing.unpack(p), packing.unpack(q)).terms)


def _quotient(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """`exact_div` of two LaurentPoly."""
    p._check(q)
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return LaurentPoly.zero(p.n, p.m)
    if len(q.terms) == 1:
        ((h, cq),) = q.terms.items()
        if cq == 1 and not any(h):
            return p
        bad = [e for e, c in p.terms.items() if c % cq]
        if bad:
            raise NotDivisible(f"leading coefficient {p.terms[max(bad, key=grlex_key)]} not divisible by {cq}")
        return LaurentPoly._wrap(p.n, p.m, {tuple(map(operator.sub, e, h)): c // cq for e, c in p.terms.items()})

    _check_faces(p, q)
    return _long_division(p, q)


def _long_division(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """p / q for nonzero p and q of one rank, by long division.

    Both operands are shifted by their minimal exponents into the ordinary
    polynomial ring, where graded-lex is a well-order, and long division by
    the single divisor runs with a lazy-deletion heap tracking the leading
    term of the remainder.  Any failure of leading-monomial or leading-
    coefficient divisibility proves p is not a multiple of q.

    Monomials are packed ints: the total degree in the top field, then slots
    0, 1, ..., so int order is graded-lex.  No monomial the division meets
    has a degree above the larger leading degree of the two operands (the
    leading terms of the remainder only fall), so fields of that many bits
    plus one guard bit each never carry.  With G the guard bits,
    (e | G) - m keeps the guard bit of exactly those fields where e is at
    least m: m divides e iff all of G survives.
    """
    rank = p.rank
    minp = [min(map(itemgetter(i), p.terms)) for i in range(rank)]
    minq = [min(map(itemgetter(i), q.terms)) for i in range(rank)]
    top = max(max(map(sum, p.terms)) - sum(minp), max(map(sum, q.terms)) - sum(minq))
    width = top.bit_length() + 1
    shifts = [width * (rank - 1 - i) for i in range(rank)]
    degree_weight = 1 << (width * rank)
    weights = [(1 << s) + degree_weight for s in shifts]  # slot i adds to its field and to the degree
    guard = sum(1 << (width * f + width - 1) for f in range(rank + 1))
    mask = (1 << (width - 1)) - 1

    phat = dict(zip(_pack(p.terms, weights, minp), p.terms.values()))
    qhat = dict(zip(_pack(q.terms, weights, minq), q.terms.values()))
    ltq = max(qhat)
    cq = qhat.pop(ltq)
    rest = list(qhat.items())

    heap = [-e for e in phat]
    heapq.heapify(heap)
    get = phat.get
    quot = {}
    while phat:
        e = -heapq.heappop(heap)
        c = phat.pop(e, None)
        if c is None:
            continue  # stale heap entry
        t = (e | guard) - ltq
        if t & guard != guard:
            e, ltq = _unpack([e, ltq], [(s, mask, 0) for s in shifts])
            raise NotDivisible(f"leading monomial {e} not divisible by {ltq}")
        f, rem = divmod(c, cq)
        if rem:
            raise NotDivisible(f"leading coefficient {c} not divisible by {cq}")
        t ^= guard
        quot[t] = f
        for eq, cb in rest:
            k = t + eq
            v = get(k)
            if v is None:
                phat[k] = -f * cb
                heapq.heappush(heap, -k)
            else:
                v -= f * cb
                if v:
                    phat[k] = v
                else:
                    del phat[k]

    fields = [(s, mask, x - y) for s, x, y in zip(shifts, minp, minq)]
    return LaurentPoly._wrap(p.n, p.m, dict(zip(_unpack(quot, fields), quot.values())))


def _check_faces(p, q):
    """Raise NotDivisible when p, or its face at either end of a slot, spans
    less in some slot than q or q's face at the same end (see `exact_div`).
    Only the slots where q's face spans something are read."""
    keys_p, keys_q = list(p.terms), list(q.terms)
    for s in range(p.rank):
        col_p, col_q = list(map(itemgetter(s), keys_p)), list(map(itemgetter(s), keys_q))
        lo_p, hi_p, lo_q, hi_q = min(col_p), max(col_p), min(col_q), max(col_q)
        if hi_p - lo_p < hi_q - lo_q:
            raise NotDivisible(f"the dividend spans {hi_p - lo_p} in slot {s}, less than the divisor's {hi_q - lo_q}")
        for end, x_p, x_q in (("smallest", lo_p, lo_q), ("largest", hi_p, hi_q)):
            face_q = list(compress(keys_q, map(operator.eq, col_q, repeat(x_q))))
            face_p = None
            for t in range(p.rank):
                span_q = _span(face_q, t)
                if not span_q:
                    continue
                if face_p is None:
                    face_p = list(compress(keys_p, map(operator.eq, col_p, repeat(x_p))))
                span_p = _span(face_p, t)
                if span_p < span_q:
                    raise NotDivisible(f"the dividend's face at the {end} exponent of slot {s} spans {span_p} "
                                       f"in slot {t}, less than the divisor's {span_q}")


def _span(exps, t):
    """max - min of the slot-t exponents."""
    col = list(map(itemgetter(t), exps))
    return max(col) - min(col)


# -- sign images ----------------------------------------------------------------------


def sign_images(n, m, columns, coefs, slots) -> LaurentPoly:
    """The polynomial of which the given terms are those with every exponent
    on `slots` >= 0, the orthant terms: each of them with each nonzero
    exponent on `slots` taken with either sign, at the term's coefficient.
    Weyl characters pass the slots of their B and C factors, Jacobi-Trudi
    characters every slot.

    The orthant terms come as their columns, one sequence of exponents per
    slot in slot order (none when there are no terms), and their nonzero
    coefficients, in one term order, with no term twice.  The result holds
    them (see `LaurentPoly`) and expands them to their sign images only
    when its `terms` are first read (`_expand_sign_images`), so a caller
    that reads only the term count, the vdim or the leading term never
    builds the images.  Those readers count on the terms being an orthant,
    as every caller in the package builds them; they are not checked here,
    since the check (a minimum per sign-free column) costs about 0.5 ms of
    a 33 ms kac_sweep pass that reads every term, more than such a reader
    can spare to stay as fast as the eager expansion was.
    """
    columns, coefs, free = list(columns), list(coefs), frozenset(slots)
    if not coefs:
        return LaurentPoly._wrap(n, m, {})
    p = object.__new__(LaurentPoly)
    p.n, p.m, p._terms, p._orthant = n, m, None, (columns, coefs, free)
    return p


def _expand_sign_images(columns, coefs, free):
    """The term dict of the sign images of orthant terms (`sign_images`).

    Each column is mapped through a table of its distinct values, x to
    (x, -x) for a nonzero x on the slots `free` and to (x,) otherwise; the
    images of a term are the product of its slots' alternatives, 2^k of
    them for k nonzero exponents on `free`.  The term dict is built in one
    pass of C-level iterators over these lists, with no Python step per
    term: `dict.fromkeys` gives a term's images its coefficient and
    `update` merges them with the hashes already taken, which on 2.3
    million images is faster than one `dict(zip(...))`.  An image met twice
    keeps its first place and its last coefficient.
    """
    alts = []
    for s, col in enumerate(columns):
        signed = s in free
        table = {x: (x, -x) if x and signed else (x,) for x in set(col)}
        alts.append(list(map(table.__getitem__, col)))
    out = {}
    deque(map(out.update, map(dict.fromkeys, starmap(product, zip(*alts)), coefs)), maxlen=0)
    return out


def _image_counts(orthant):
    """Per orthant term, in order, its number of sign images: 1 << k for
    its k nonzero exponents on the sign-free slots, one shift per slot."""
    columns, coefs, free = orthant
    counts = [1] * len(coefs)
    for s in free:
        counts = map(operator.lshift, counts, map(operator.truth, columns[s]))
    return counts


def _orthant_terms(orthant):
    """The orthant terms as a term dict."""
    columns, coefs, _ = orthant
    return dict(zip(zip(*columns), coefs))


# -- isotropic products -------------------------------------------------------------


def times_isotropic(p: LaurentPoly, sign_free) -> LaurentPoly:
    """p * prod over i < n, j < m of (x_i^2 + x_i^-2 + x_{n+j}^2 + x_{n+j}^-2),
    for p given by its orthant terms: the terms with every exponent on the
    slots `sign_free` >= 0, of a p invariant under the sign change of each
    of them.  p itself when p is 0; the polynomial of the orthant terms of
    p (`sign_images`) when m = 0.

    Each factor is the product of the binomials of the isotropic roots
    d_i -/+ e_j, (e^{(d_i-e_j)/2} + e^{-(d_i-e_j)/2})(e^{(d_i+e_j)/2} +
    e^{-(d_i+e_j)/2}) = e^{d_i} + e^{-d_i} + e^{e_j} + e^{-e_j}, also
    invariant under those sign changes, so the product is taken on the
    orthant terms.  The result holds the packed product's orthant terms,
    read as columns (`sign_images`): its term count and vdim come from them,
    and its sign images are built only when its `terms` are first read.  A
    sign-free exponent that is negative or odd raises ValueError.

    Exponents are packed once, one pass per factor.  A +2 shift stays in
    the orthant.  A -2 shift of a slot whose field reads v reflects at the
    wall: a plain shift for v >= 3, onto 0 with twice the coefficient for
    v = 2 (the term at -2 mirrors the one at +2), dropped for v = 0.  A
    sign-free field holds the exponent itself; any other holds it plus
    2^(w-1), which keeps the field above 2, so its shifts are plain.  The w
    bits of a field hold the exponents grown by 2 per factor.
    """
    n, m = p.n, p.m
    if not p.terms:
        return p
    free = frozenset(sign_free)
    columns = list(zip(*p.terms))
    for s in free:
        values = set(columns[s])
        if min(values) < 0 or any(x % 2 for x in values):
            raise ValueError(f"sign-free slots {sorted(free)} of an orthant term are not even and >= 0")
    if not m:
        return sign_images(n, m, columns, p.terms.values(), free)
    grown = max(max(map(max, columns)), -min(map(min, columns))) + 2 * max(n, m)
    width = grown.bit_length() + 2
    lows = [0 if s in free else -(1 << (width - 1)) for s in range(n + m)]
    weights = [1 << (width * s) for s in range(n + m)]
    mask = (1 << width) - 1
    acc = dict(zip(_pack(p.terms, weights, lows), p.terms.values()))
    for i, j in product(range(n), range(n, n + m)):
        up_d, shift_d, up_e, shift_e = 2 * weights[i], width * i, 2 * weights[j], width * j
        out = {k + up_d: c for k, c in acc.items()}
        get = out.get
        for k, c in acc.items():
            v = k >> shift_d & mask
            if v > 2:
                t = k - up_d
                out[t] = get(t, 0) + c
            elif v:
                t = k - up_d
                out[t] = get(t, 0) + 2 * c
            t = k + up_e
            out[t] = get(t, 0) + c
            v = k >> shift_e & mask
            if v > 2:
                t = k - up_e
                out[t] = get(t, 0) + c
            elif v:
                t = k - up_e
                out[t] = get(t, 0) + 2 * c
        acc = out
    if 0 in acc.values():  # cancellations leave zeros until here
        acc = {k: c for k, c in acc.items() if c}
    fields = [(width * s, mask, lo) for s, lo in enumerate(lows)]
    return sign_images(n, m, map(list, _columns(acc, fields)), acc.values(), free)
