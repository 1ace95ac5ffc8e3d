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
division inside `exact_div` and the binomial products of `times_binomials`)
are one pure-Python kernel.  The hot ones work on packed exponents: each
exponent tuple becomes one int holding a bit field per slot, so multiplying
monomials is adding ints (Monagan & Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007).

Weyl-type quotients are not evaluated here.  Kac and Euler characters are
Weyl characters computed on dominant weights by Freudenthal's formula
(Humphreys, Introduction to Lie Algebras and Representation Theory, 22.3)
in `rootdata.weyl_character`; Kac characters are then multiplied by the
binomials of their isotropic roots with `times_binomials`.  Even-Levi
characters divide a sum over the Levi's Weyl group by one binomial at a
time with `exact_div`.

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
from itertools import repeat
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


def exact_div(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Exact quotient p / q; raises NotDivisible when no exact quotient exists.

    A divisor equal to the monomial 1 returns p itself, not a copy.  Any
    other one-term divisor c x^h is a shift by -h and an exact division of
    each coefficient by c; a coefficient that c does not divide fails with
    the message the long division below would give, naming the first such
    coefficient in descending graded-lex order.

    Otherwise both operands are shifted by their minimal exponents into the ordinary
    polynomial ring, where graded-lex is a well-order, then long division by
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


# -- binomial products -------------------------------------------------------------


def times_binomials(p: LaurentPoly, halves) -> LaurentPoly:
    """p * prod over h in halves of (x^h + x^-h); p itself when halves is
    empty.

    Exponents are packed once and unpacked once.  Slot i is a field of w
    bits holding the exponent plus 2^(w-1), wide enough for p's exponents
    grown by every |h|, so multiplying by x^h is adding the packed h and
    each binomial is one pass over the terms.
    """
    if not p.terms or not halves:
        return p
    grown = max(max(map(max, p.terms)), -min(map(min, p.terms))) + sum(max(map(abs, h)) for h in halves)
    width = grown.bit_length() + 1
    offset = 1 << (width - 1)
    weights = [1 << (width * i) for i in range(p.rank)]
    acc = dict(zip(_pack(p.terms, weights, [-offset] * p.rank), p.terms.values()))
    for h in halves:
        packed_h = sum(map(operator.mul, h, weights))
        out = {k + packed_h: c for k, c in acc.items()}
        get = out.get
        for k, c in acc.items():
            k -= packed_h
            v = get(k, 0) + c
            if v:
                out[k] = v
            else:
                del out[k]
        acc = out
    fields = [(width * i, (1 << width) - 1, -offset) for i in range(p.rank)]
    return LaurentPoly._wrap(p.n, p.m, dict(zip(_unpack(acc, fields), acc.values())))
