"""Sparse exact Laurent polynomials on the half-weight lattice of spo(2n|l).

Variables are formal exponentials of the basis weights: slot k of an exponent
vector holds TWICE the exponent of e^{d_{k+1}} for k < n, and twice the
exponent of e^{e_{k-n+1}} for k >= n.  Doubling keeps the half-integral
exponents that occur in Weyl denominators and in rho (odd l) inside plain
integers; a vector is integral iff every entry is even.

Coefficients are arbitrary-precision integers.  Monomials are ordered by
graded lex (total doubled degree first, then lex), which is total and
multiplicative, so leading-term queries and exact division are reproducible.

The term-level loops (`add_terms`, `mul_terms`, `scale_shift_terms`, the
division inside `exact_div` and the isotropic product of `times_isotropic`)
are one pure-Python kernel.  The hot ones work on packed exponents: each
exponent tuple becomes one int holding a bit field per slot, so multiplying
monomials is adding ints (Monagan & Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  These
size a layout per call; `Packing` is one fixed layout for term dicts kept
packed across many products (the Jacobi-Trudi power tables and the Bareiss
elimination of `linalg.det_bareiss_laurent`).

Weyl-type quotients are not evaluated here: Kac, Euler and even-Levi
characters are Weyl characters on dominant weights (`rootdata.weyl_character`).
Kac characters are multiplied by the binomials of their isotropic roots
with `times_isotropic`, on the terms of one sign orbit each
(`rootdata.orthant_character`), before the signs are expanded.

`format_exponent` is the one way to write an exponent vector as a weight:
plain text for `Weight.format`, the CLI and `repr`, compact root labels,
and LaTeX.

Kernel results are free of zero coefficients and are wrapped without a copy
(`LaurentPoly._wrap`); the public constructor drops zeros.
"""

from __future__ import annotations

import heapq
import json
import operator
from itertools import compress, product, repeat
from operator import itemgetter


class LatticeMismatch(ValueError):
    """Operands live on lattices of different rank."""


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
# Terms are dicts mapping exponent tuples to nonzero ints; every function
# returns a new dict without zero coefficients.


def add_terms(a, b):
    """Coefficient-wise sum of two term dicts."""
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        elif e in out:
            del out[e]
    return out


def scale_shift_terms(coef, shift, b):
    """New term dict coef * x^shift * b (coef nonzero)."""
    out = {}
    for eb, cb in b.items():
        out[tuple(map(operator.add, shift, eb))] = coef * cb
    return out


def mul_terms(a, b):
    """Convolution product of two term dicts, on packed exponents.

    Slot i of an exponent becomes a bit field wide enough for the sum of the
    two operands' ranges in that slot, each operand offset by its minimum
    there; the packed sum of two monomials is then the packed product, with
    no carry from one field into the next, and the product loop adds ints.
    """
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return {}
    weights, fields = [], []
    lo_a, lo_b = [], []
    shift = 0
    for i in range(len(next(iter(a)))):
        la, lb = min(map(itemgetter(i), a)), min(map(itemgetter(i), b))
        width = (max(map(itemgetter(i), a)) - la + max(map(itemgetter(i), b)) - lb).bit_length()
        weights.append(1 << shift)
        fields.append((shift, (1 << width) - 1, la + lb))
        lo_a.append(la)
        lo_b.append(lb)
        shift += width
    packed_b = _pack(b, weights, lo_b)
    out = {}
    get = out.get
    for ka, ca in zip(_pack(a, weights, lo_a), a.values()):
        for kb, cb in zip(packed_b, b.values()):
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    for k in [k for k, c in out.items() if not c]:
        del out[k]
    return dict(zip(_unpack(out, fields), out.values()))


def _pack(terms, weights, lows):
    """Packed exponents of terms, in dict order; packing is linear, so the
    offsets fold into one constant."""
    base = sum(map(operator.mul, lows, weights))
    return [sum(map(operator.mul, e, weights)) - base for e in terms]


def _unpack(packed, fields):
    """Exponent tuples of the packed ints in packed (a list or dict, read
    once per slot), where slot i is (k >> shift & mask) + offset for the
    i-th (shift, mask, offset) of fields."""
    slots = [
        map(operator.add, map(operator.and_, map(operator.rshift, packed, repeat(s)), repeat(mask)), repeat(lo))
        for s, mask, lo in fields
    ]
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

    __slots__ = ("n", "m", "width", "_weights", "_lows", "_bias", "_fields")

    ONE = {0: 1}  # the polynomial 1 in every layout; never mutated

    def __init__(self, n, m, width, signed=False):
        half = 1 << (width - 1) if signed else 0
        self.n, self.m, self.width = n, m, width
        self._weights = [1 << (width * s) for s in range(n + m)]
        self._lows = [0] * (n + m)
        self._bias = half * sum(self._weights)
        self._fields = [(width * s, (1 << width) - 1, -half) for s in range(n + m)]

    def pack(self, terms):
        """The packed term dict of a term dict keyed by exponent tuples."""
        return dict(zip(_pack(terms, self._weights, self._lows), terms.values()))

    def unpack(self, packed) -> LaurentPoly:
        """The polynomial whose packed term dict is packed."""
        keys = [k + self._bias for k in packed] if self._bias else packed
        return LaurentPoly._wrap(self.n, self.m, dict(zip(_unpack(keys, self._fields), packed.values())))


class LaurentPoly:
    """Immutable-by-convention sparse Laurent polynomial.

    `terms` maps doubled-exponent tuples of length n+m to nonzero ints.
    Never mutate `terms` after construction; all operations return new
    objects, so values are safe to share across threads.
    """

    __slots__ = ("n", "m", "terms")

    def __init__(self, n, m, terms):
        self.n = n
        self.m = m
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def _wrap(cls, n, m, terms):
        """The polynomial on a term dict the kernel made free of zeros: no
        copy, no filter.  The dict must not be shared or mutated later."""
        p = object.__new__(cls)
        p.n, p.m, p.terms = n, m, terms
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n, m):
        return cls(n, m, {})

    @classmethod
    def one(cls, n, m):
        return cls(n, m, {(0,) * (n + m): 1})

    @classmethod
    def monomial(cls, n, m, exps, coef=1):
        exps = tuple(exps)
        if len(exps) != n + m:
            raise LatticeMismatch(f"exponent length {len(exps)} != {n + m}")
        return cls(n, m, {exps: coef} if coef else {})

    # -- basics ------------------------------------------------------------

    @property
    def rank(self):
        return self.n + self.m

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, self.m, frozenset(self.terms.items())))

    def _check(self, other):
        if self.rank != other.rank:
            raise LatticeMismatch(f"rank {self.rank} vs {other.rank}")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return LaurentPoly._wrap(self.n, self.m, add_terms(self.terms, other.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LaurentPoly._wrap(self.n, self.m, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero(self.n, self.m)
            return LaurentPoly._wrap(self.n, self.m, {e: other * c for e, c in self.terms.items()})
        self._check(other)
        return LaurentPoly._wrap(self.n, self.m, mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = LaurentPoly.one(self.n, self.m)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def shifted(self, exps, sign=1):
        """Multiply by the monomial sign * x^exps."""
        return LaurentPoly._wrap(self.n, self.m, scale_shift_terms(sign, tuple(exps), self.terms))

    def leading_term(self):
        """(exponents, coefficient) maximal in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def map_exponents(self, fn):
        """Apply an exponent-tuple map (e.g. a Weyl group element)."""
        out = {}
        for e, c in self.terms.items():
            k = fn(e)
            out[k] = out.get(k, 0) + c
        return LaurentPoly(self.n, self.m, out)

    def is_integral(self):
        """True if every exponent is a genuine (non-half) lattice point."""
        return all(x % 2 == 0 for e in self.terms for x in e)

    # -- queries -------------------------------------------------------------

    def evaluate_at_one(self):
        """Sum of coefficients: the (virtual) dimension of a character."""
        return sum(self.terms.values())

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

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

    def to_json(self):
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, d):
        n, m = d["n"], d["m"]
        return cls(n, m, {tuple(t["exp"]): int(t["coef"]) for t in d["terms"]})

    @classmethod
    def from_json(cls, s):
        return cls.from_json_dict(json.loads(s))


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


# -- isotropic products -------------------------------------------------------------


def times_isotropic(p: LaurentPoly, sign_free) -> LaurentPoly:
    """The orthant terms of p * prod over i < n, j < m of
    (x_i^2 + x_i^-2 + x_{n+j}^2 + x_{n+j}^-2), for p given by its orthant
    terms; p itself when m = 0 or p is 0.

    Each factor is the product of the binomials of the isotropic roots
    d_i -/+ e_j, (e^{(d_i-e_j)/2} + e^{-(d_i-e_j)/2})(e^{(d_i+e_j)/2} +
    e^{-(d_i+e_j)/2}) = e^{d_i} + e^{-d_i} + e^{e_j} + e^{-e_j}.  p and every
    factor are invariant under the sign change of each slot in `sign_free`,
    so the terms with all those exponents >= 0, the orthant terms,
    determine them.  A sign-free exponent that is negative or odd raises
    ValueError.

    Exponents are packed once and unpacked once, one pass per factor.  A +2
    shift stays in the orthant.  A -2 shift of a slot whose field reads v
    reflects at the wall: a plain shift for v >= 3, onto 0 with twice the
    coefficient for v = 2 (the term at -2 mirrors the one at +2), dropped
    for v = 0.  A sign-free field holds the exponent itself; any other
    holds it plus 2^(w-1), which keeps the field above 2, so its shifts are
    plain.  The w bits of a field hold the exponents grown by 2 per factor.
    """
    n, m = p.n, p.m
    if not p.terms or not m:
        return p
    free = frozenset(sign_free)
    if any(e[s] < 0 or e[s] % 2 for e in p.terms for s in free):
        raise ValueError(f"sign-free slots {sorted(free)} of an orthant term are not even and >= 0")
    grown = max(max(map(max, p.terms)), -min(map(min, p.terms))) + 2 * max(n, m)
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
    return LaurentPoly._wrap(n, m, dict(zip(_unpack(acc, fields), acc.values())))
