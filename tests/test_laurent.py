import heapq
import json
import operator
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spochar import charformulas, jacobitrudi, laurent, linalg
from spochar.blocksdecomp import gl_parabolic
from spochar.laurent import (
    LatticeMismatch,
    LaurentPoly,
    NotDivisible,
    LATEX_SYMBOLS,
    Packing,
    exact_div,
    format_exponent,
    grlex_key,
    mul_terms,
    times_isotropic,
)
from spochar.linalg import det_bareiss_laurent
from spochar.rootdata import Algebra, Weight, fits_hook, partitions_up_to


def P(n, m, terms):
    return LaurentPoly(n, m, terms)


def mono(n, m, exps, coef=1):
    return LaurentPoly.monomial(n, m, exps, coef)


# ~20 term polynomials with doubled exponents in [-6, 6] on a rank-3 lattice
exponents = st.tuples(*[st.integers(-6, 6)] * 3)
polys = st.dictionaries(exponents, st.integers(-9, 9), max_size=20).map(lambda d: P(2, 1, d))


@given(polys, polys)
@settings(max_examples=150, deadline=None)
def test_add_mul_commute(p, q):
    assert p + q == q + p
    assert p * q == q * p


@given(polys, polys, polys)
@settings(max_examples=100, deadline=None)
def test_associativity_distributivity(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
@settings(max_examples=100, deadline=None)
def test_exact_div_round_trip(p, q):
    if q.is_zero():
        return
    assert exact_div(p * q, q) == p


@given(polys, polys)
@settings(max_examples=100, deadline=None)
def test_evaluate_at_one_is_ring_hom(p, q):
    assert (p * q).evaluate_at_one() == p.evaluate_at_one() * q.evaluate_at_one()
    assert (p + q).evaluate_at_one() == p.evaluate_at_one() + q.evaluate_at_one()


halves = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)


@given(polys, polys, st.integers(-3, 3), st.lists(halves, max_size=2))
@settings(max_examples=150, deadline=None)
def test_kernel_results_hold_no_zero_coefficient(p, q, k, hs):
    # the kernel's results are wrapped without the constructor's filter, so
    # they must come out free of zeros themselves, cancellations included
    multiple = p
    for h in hs:
        multiple = multiple * (LaurentPoly.monomial(2, 1, h) - LaurentPoly.monomial(2, 1, tuple(-x for x in h)))
    quotient = multiple
    for h in hs:
        quotient = exact_div(quotient, LaurentPoly.monomial(2, 1, h) - LaurentPoly.monomial(2, 1, tuple(-x for x in h)))
    # the isotropic product on the orthant of its sign-free slots: p as it
    # is with none, and with the d-slots doubled and made >= 0
    orthant = P(2, 1, {(2 * abs(e[0]), 2 * abs(e[1]), e[2]): c for e, c in (p - q).terms.items()})
    results = [p + q, p - q, p + (-p), -p, k * p, p * q, (p + q) * (p - q),
               p * LaurentPoly.monomial(2, 1, (1, -2, 3), -1), times_isotropic(p, ()), times_isotropic(p - q, ()),
               times_isotropic(multiple, ()), times_isotropic(orthant, (0, 1)), quotient]
    if q:
        results.append(exact_div(p * q, q))
    for r in results:
        assert 0 not in r.terms.values()


def test_additive_inverse_and_doubling():
    d1 = mono(1, 1, (2, 0))
    assert (d1 + (-d1)).is_zero()
    p = LaurentPoly.one(1, 1) + mono(1, 1, (0, 2))
    assert p + p == 2 * p


def test_mul_examples():
    d1 = mono(1, 1, (2, 0))
    assert d1 * mono(1, 1, (-2, 0)) == LaurentPoly.one(1, 1)
    p = LaurentPoly.one(1, 1) + d1
    sq = p * p
    assert sq.terms == {(0, 0): 1, (2, 0): 2, (4, 0): 1}


def test_exact_div_examples():
    one = LaurentPoly.one(1, 0)
    d1 = mono(1, 0, (2,))
    assert exact_div(one - d1 * d1, one - d1) == one + d1
    with pytest.raises(NotDivisible):
        exact_div(one + d1, one - d1)
    assert exact_div(LaurentPoly.zero(1, 0), one - d1).is_zero()
    with pytest.raises(ZeroDivisionError):
        exact_div(one, LaurentPoly.zero(1, 0))


def test_exact_div_sp2_weyl_character():
    # antisymmetrized numerator over the rank-one symplectic Weyl group,
    # divided by the denominator, gives the two-dimensional character
    u = mono(1, 0, (2,))
    uinv = mono(1, 0, (-2,))
    num = u * u - uinv * uinv
    den = u - uinv
    assert exact_div(num, den) == u + uinv


def test_dimension_mismatch():
    with pytest.raises(LatticeMismatch):
        LaurentPoly.one(1, 1) + LaurentPoly.one(2, 1)
    with pytest.raises(LatticeMismatch):
        LaurentPoly.one(1, 1) * LaurentPoly.one(1, 2)


def test_an_exponent_of_another_length_is_refused():
    # a (2, 0, 0) key on the rank-2 lattice used to be kept: added to a
    # right-length term it made a polynomial of mixed key lengths, whose
    # product raised IndexError
    with pytest.raises(LatticeMismatch, match=r"exponent length 3 != 2"):
        LaurentPoly(1, 1, {(2, 0, 0): 1})
    with pytest.raises(LatticeMismatch, match=r"exponent length 1 != 2"):
        LaurentPoly(1, 1, {(2, 0): 1, (2,): 1})
    with pytest.raises(LatticeMismatch, match=r"exponent length 3 != 2"):
        LaurentPoly.monomial(1, 1, (2, 0, 0), 0)


def test_the_same_rank_split_another_way_is_another_lattice():
    # (1|1) and (2|0) both have rank 2: e^{d1} on one is e^{d1} on the
    # other in the same slot, but the two lattices differ
    a, b = LaurentPoly(1, 1, {(2, 0): 1}), LaurentPoly(2, 0, {(2, 0): 1})
    assert a != b and b != a
    assert a == LaurentPoly(1, 1, {(2, 0): 1}) and hash(a) == hash(LaurentPoly(1, 1, {(2, 0): 1}))
    assert hash(a) != hash(b)
    assert len({a, b}) == 2 and len({a, LaurentPoly(1, 1, {(2, 0): 1})}) == 1
    for op in (operator.add, operator.sub, operator.mul, exact_div):
        with pytest.raises(LatticeMismatch, match=r"\(1\|1\) lattice vs the \(2\|0\) lattice"):
            op(a, b)
    with pytest.raises(LatticeMismatch):
        exact_div(a * a, b)


@pytest.mark.parametrize("other", [1, None, 2.5, Fraction(1, 2), "x"], ids=repr)
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_an_operand_that_is_no_polynomial_is_a_type_error(op, other):
    # in either order: p + 1 used to raise AttributeError from the lattice
    # check, while 1 + p raised TypeError; an int multiple stays allowed
    p = LaurentPoly(1, 1, {(2, 0): 3, (0, -2): 1})
    if op is operator.mul and type(other) is int:
        assert op(p, other) == op(other, p) == p
        return
    with pytest.raises(TypeError):
        op(p, other)
    with pytest.raises(TypeError):
        op(other, p)
    assert p != other and not p == other


@pytest.mark.parametrize("exps, n, style, want", [
    ((0, 0), 1, "text", "0"),
    ((0, 0), 1, "latex", "0"),
    ((4, 2), 1, "text", "2d1+1e1"),
    ((-2,), 1, "text", "-1d1"),
    ((0, 2, 0, -6), 2, "text", "1d2-3e2"),
    ((-1, 4), 1, "text", "-1/2d1+2e1"),
    ((2, -2), 1, "compact", "d1-e1"),
    ((-2, 0, 4), 2, "compact", "-d1+2e1"),
    ((3, -2), 1, "compact", "3/2d1-e1"),
    ((2, -2), 1, "latex", r"\delta_{1}-\epsilon_{1}"),
    ((-4, 0, 2), 1, "latex", r"-2\delta_{1}+\epsilon_{2}"),
    ((3, 1), 1, "latex", r"3/2\delta_{1}+1/2\epsilon_{1}"),  # Weight(spo(2|3), (3, 1))
    ((0, -3), 1, "latex", r"-3/2\epsilon_{1}"),
])
def test_format_exponent(exps, n, style, want):
    if style == "latex":
        assert format_exponent(exps, n, LATEX_SYMBOLS, units=False) == want
    else:
        assert format_exponent(exps, n, units=style == "text") == want
    if style == "text":
        alg = Algebra(n, len(exps) - n, True)
        assert Weight(alg, exps).format() == want
        assert repr(LaurentPoly.monomial(n, len(exps) - n, exps, -3)) == f"LaurentPoly(-3*e^({want}))"


def test_json_round_trip_and_sorting():
    p = P(1, 1, {(2, 0): 3, (-2, 2): -1, (0, 0): 7})
    d = p.to_json_dict()
    assert [t["exp"] for t in d["terms"]] == [[-2, 2], [0, 0], [2, 0]]
    assert all(isinstance(t["coef"], str) for t in d["terms"])
    d = json.loads(json.dumps(d))
    assert LaurentPoly(d["n"], d["m"], {tuple(t["exp"]): int(t["coef"]) for t in d["terms"]}) == p


@given(st.dictionaries(exponents, st.integers(-2**70, 2**70), max_size=40))
def test_sorted_terms_is_the_grlex_key_sort(terms):
    p = P(2, 1, terms)
    assert p.sorted_terms() == sorted(p.terms.items(), key=lambda item: grlex_key(item[0]))


# -- the packed kernel against the tuple kernel it replaced ----------------------------
#
# Frozen copies of the tuple-keyed product, exact division and Bareiss
# determinant that the packed kernel replaced, on term dicts.  They are the
# references of the differential tests below; do not "optimise" them.


def _mul_reference(a, b):
    if len(a) > len(b):
        a, b = b, a
    out = {}
    bitems = list(b.items())
    for ea, ca in a.items():
        for eb, cb in bitems:
            k = tuple(map(sum, zip(ea, eb)))
            v = out.get(k, 0) + ca * cb
            if v:
                out[k] = v
            elif k in out:
                del out[k]
    return out


def _grlex_key(exps):
    return (sum(exps), exps)


def _heap_key(exps):
    return (-sum(exps), tuple(-x for x in exps), exps)


def _exact_div_reference(p, q):
    """p / q on term dicts; raises NotDivisible with the old messages."""
    if not q:
        raise ZeroDivisionError("division by zero polynomial")
    if not p:
        return {}
    rank = len(next(iter(p)))
    minp = tuple(min(e[i] for e in p) for i in range(rank))
    minq = tuple(min(e[i] for e in q) for i in range(rank))
    phat = {tuple(x - y for x, y in zip(e, minp)): c for e, c in p.items()}
    qhat = {tuple(x - y for x, y in zip(e, minq)): c for e, c in q.items()}
    ltq = max(qhat, key=_grlex_key)
    cq = qhat[ltq]
    heap = [_heap_key(e) for e in phat]
    heapq.heapify(heap)
    quot = {}
    while phat:
        e = heapq.heappop(heap)[2]
        c = phat.get(e)
        if c is None:
            continue
        t = tuple(x - y for x, y in zip(e, ltq))
        if any(x < 0 for x in t):
            raise NotDivisible(f"leading monomial {e} not divisible by {ltq}")
        f, rem = divmod(c, cq)
        if rem:
            raise NotDivisible(f"leading coefficient {c} not divisible by {cq}")
        quot[t] = f
        for eb, cb in qhat.items():
            k = tuple(map(sum, zip(t, eb)))
            v = phat.get(k, 0) - f * cb
            if v:
                phat[k] = v
            elif k in phat:
                del phat[k]
            heapq.heappush(heap, _heap_key(k))
    shift = tuple(x - y for x, y in zip(minp, minq))
    return {tuple(x + y for x, y in zip(t, shift)): f for t, f in quot.items()}


def _sub_reference(a, b):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) - c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _bareiss_reference(matrix):
    """The top-left Bareiss elimination, on the tuple kernel."""
    k = len(matrix)
    rank = matrix[0][0].rank
    a = [[dict(x.terms) for x in row] for row in matrix]
    sign = 1
    prev = {(0,) * rank: 1}
    for r in range(k - 1):
        if not a[r][r]:
            pr = next((i for i in range(r + 1, k) if a[i][r]), None)
            if pr is None:
                return {}
            a[r], a[pr] = a[pr], a[r]
            sign = -sign
        piv = a[r][r]
        for i in range(r + 1, k):
            for j in range(r + 1, k):
                num = _sub_reference(_mul_reference(piv, a[i][j]), _mul_reference(a[i][r], a[r][j]))
                a[i][j] = _exact_div_reference(num, prev)
            a[i][r] = {}
        prev = piv
    return {e: sign * c for e, c in a[k - 1][k - 1].items()}


# Per-slot exponent ranges of the random operands: doubled exponents are
# negative and odd (half weights) alike; "wide" puts one slot in the
# millions, "huge" one slot beyond 64 bits, so fields differ in width.
SHAPES = {
    "narrow": lambda rank: [(-3, 3)] * rank,
    "half": lambda rank: [(-9, 9)] * rank,
    "wide": lambda rank: [(-2, 5)] * (rank - 1) + [(-3_000_000, 2_000_000)],
    "huge": lambda rank: [(-(1 << 70), 1 << 66)] + [(0, 1)] * (rank - 1),
}


def _random_terms(rng, ranges, size, coef_bits):
    out = {}
    for _ in range(size):
        e = tuple(rng.randint(lo, hi) for lo, hi in ranges)
        out[e] = rng.randint(-(1 << coef_bits), 1 << coef_bits) or 1
    return out


def _random_operands(seed):
    """(rank, a, b) over every shape, rank 1 to 7, small and big coefficients."""
    rng = random.Random(seed)
    for rank in range(1, 8):
        for shape, ranges in SHAPES.items():
            for coef_bits in (3, 100):
                yield (rank, _random_terms(rng, ranges(rank), rng.randint(1, 9), coef_bits),
                       _random_terms(rng, ranges(rank), rng.randint(1, 9), coef_bits))


def _division_outcome(fn, p, q):
    try:
        return fn(p, q)
    except NotDivisible as exc:
        return ("NotDivisible", str(exc))


@pytest.mark.parametrize("seed", range(4))
def test_packed_mul_matches_tuple_kernel(seed):
    for rank, a, b in _random_operands(seed):
        assert mul_terms(a, b) == _mul_reference(a, b)
        assert mul_terms({}, b) == {}


def test_packed_mul_drops_cancelled_terms():
    # (u + v)(u - v) = u^2 - v^2: every cross term cancels to zero
    rng = random.Random(6)
    for rank in range(1, 8):
        for shape, ranges in SHAPES.items():
            u = _random_terms(rng, ranges(rank), 5, 100)
            v = {e: c for e, c in _random_terms(rng, ranges(rank), 5, 3).items() if e not in u}
            plus, minus = {**u, **v}, {**u, **{e: -c for e, c in v.items()}}
            got = mul_terms(plus, minus)
            assert got == _mul_reference(plus, minus)
            assert 0 not in got.values()


@pytest.mark.parametrize("seed", range(4))
def test_packed_exact_div_matches_tuple_kernel(seed):
    refused = walked = 0
    for rank, a, b in _random_operands(seed):
        p = _mul_reference(a, b)
        assert exact_div(P(rank, 0, p), P(rank, 0, b)) == P(rank, 0, a)
        # random pairs, almost never divisible: the long division gives the
        # same quotient or the same failure, at the same leading term;
        # exact_div gives that outcome too, or refuses a non-multiple by its
        # faces before the walk
        for num, den in ((a, b), (b, a), ({**p, next(iter(a)): 1}, b)):
            want = _division_outcome(_exact_div_reference, num, den)
            assert _division_outcome(lambda x, y: laurent._long_division(P(rank, 0, x), P(rank, 0, y)).terms,
                                     num, den) == want
            got = _division_outcome(lambda x, y: exact_div(P(rank, 0, x), P(rank, 0, y)).terms, num, den)
            if got != want:
                assert isinstance(want, tuple) and got[0] == "NotDivisible" and "less than" in got[1], (got, want)
                refused += 1
            elif isinstance(want, tuple):
                walked += 1
    # both ways of failing occur
    assert refused > 50 and walked > 50, (refused, walked)


@pytest.mark.parametrize("seed", range(4))
def test_monomial_exact_div_matches_tuple_kernel(seed):
    # a one-term divisor is a shift and a coefficient division: the same
    # quotient or the same failure, at the same (first non-divisible) term
    rng = random.Random(100 + seed)
    for rank in range(1, 8):
        for shape, ranges in SHAPES.items():
            h = tuple(rng.randint(lo, hi) for lo, hi in ranges(rank))  # odd entries are half exponents
            zero = (0,) * rank
            for den in ({zero: 1}, {zero: -1}, {h: 3}, {h: -3}, {h: 1 << 80}):
                c = next(iter(den.values()))
                quotient = _random_terms(rng, ranges(rank), rng.randint(1, 9), 100)
                exact = _mul_reference(quotient, den)
                spoiled = dict(exact)
                for e in rng.sample(sorted(spoiled), min(2, len(spoiled))):
                    spoiled[e] += rng.choice((1, -1))  # no longer a multiple of c unless |c| = 1
                spoiled = {e: v for e, v in spoiled.items() if v}
                for num in (exact, spoiled, _random_terms(rng, ranges(rank), rng.randint(1, 9), 3)):
                    want = _division_outcome(_exact_div_reference, num, den)
                    got = _division_outcome(lambda x, y: exact_div(P(rank, 0, x), P(rank, 0, y)).terms, num, den)
                    assert got == want
                    if abs(c) == 1:
                        assert not isinstance(got, tuple)
                assert exact_div(P(rank, 0, exact), P(rank, 0, den)) == P(rank, 0, quotient)


def test_exact_div_refuses_a_far_spread_non_multiple_by_its_faces():
    # the long division of 3x^(1,2000000) + x^(0,-3000000) by
    # x^(0,2) - x^(0,-2) walks millions of positions before it fails; the
    # face at the smallest exponent of slot 0 is the one term x^(0,-3000000),
    # which spans less in slot 1 than the divisor's face there, the whole
    # divisor
    p = P(2, 0, {(1, 2_000_000): 3, (0, -3_000_000): 1})
    q = P(2, 0, {(0, 2): 1, (0, -2): -1})
    with pytest.raises(NotDivisible, match=re.escape(
            "face at the smallest exponent of slot 0 spans 0 in slot 1, less than the divisor's 4")):
        exact_div(p, q)
    # the whole support spans less, then the face at the smallest and at the
    # largest exponent of slot 0
    one_slot = P(2, 0, {(0, 0): 1, (0, 1): 1})
    for num, den, message in (
            (P(2, 0, {(0, 0): 1, (4, 0): 1}), P(2, 0, {(0, 0): 1, (0, 3): 1}), "spans 0 in slot 1, less than the divisor's 3"),
            (P(2, 0, {(0, 0): 1, (5, 1): 1, (6, 0): 1}), one_slot, "smallest exponent of slot 0 spans 0 in slot 1"),
            (P(2, 0, {(0, 0): 1, (0, 1): 1, (6, 0): 1}), one_slot, "largest exponent of slot 0 spans 0 in slot 1")):
        with pytest.raises(NotDivisible, match=re.escape(message)):
            exact_div(num, den)
    # faces as wide as the divisor's: the long division decides
    assert exact_div(P(2, 0, {(0, 0): 1, (0, 1): 1, (6, 0): 1, (6, 1): 1}), P(2, 0, {(0, 0): 1, (0, 1): 1})) == \
        P(2, 0, {(0, 0): 1, (6, 0): 1})


def test_exact_div_guard_bit_catches_one_slot_underflow():
    # the leading monomials x0^3 x1^2 x3 and x0^2 x2^3 x3 have equal degree
    # and every field of the dividend but x2's covers the divisor's: only
    # x2's guard bit is borrowed.  The terms m and x0 x1^2 x2^3 widen the
    # dividend's faces to span what the divisor's do, so the face test lets
    # it through to the long division; without them the face test refuses it.
    e, m = (3, 2, 0, 1), (2, 0, 3, 1)
    one = (0, 0, 0, 0)
    with pytest.raises(NotDivisible, match=re.escape(f"leading monomial {e} not divisible by {m}")):
        exact_div(P(4, 0, {e: 1, m: 1, (1, 2, 3, 0): 1, one: 1}), P(4, 0, {m: 1, one: 1}))
    with pytest.raises(NotDivisible, match="less than the divisor's"):
        exact_div(P(4, 0, {e: 1, one: 1}), P(4, 0, {m: 1, one: 1}))
    with pytest.raises(NotDivisible, match=re.escape(f"leading monomial {e} not divisible by {m}")):
        laurent._long_division(P(4, 0, {e: 1, one: 1}), P(4, 0, {m: 1, one: 1}))


def _jt_grid_matrices(monkeypatch):
    """The matrices jacobitrudi hands to det_bareiss_laurent on the Euler =
    Jacobi-Trudi and p-form = e-form grid and in the identity suite, and
    charformulas for the hook Schur characters of the gl(n|m) Levis of
    spo(4|3) and spo(6|3)."""
    seen = []

    def record(matrix, packing=None):
        # the Jacobi-Trudi determinants hand over packed u-basis entries:
        # recorded as the polynomials they pack
        seen.append([[x if packing is None else packing.unpack(x) for x in row] for row in matrix])
        return det_bareiss_laurent(matrix, packing)

    monkeypatch.setattr(jacobitrudi, "det_bareiss_laurent", record)
    monkeypatch.setattr(charformulas, "det_bareiss_laurent", record)
    grid = {
        "4|3": ["1", "2", "3", "1,1", "2,1", "2,2", "1,1,1", "3,1", "2,1,1", "1,1,1,1", "4", "3,2", "2,2,1",
                "1,1,1,1,1", "3,1,1", "2,1,1,1", "4,1", "5", "6"],
        "6|3": ["1", "2", "1,1", "3", "2,1", "4", "2,2", "3,1", "5", "3,2", "4,1"],
        "2|3": ["1", "2", "1,1", "2,1", "1,1,1", "3", "3,1", "2,1,1", "1,1,1,1", "4", "3,1,1", "4,1", "2,1,1,1",
                "5", "1,1,1,1,1", "3,1,1,1", "4,1,1", "1,1,1,1,1,1", "6", "5,1", "2,1,1,1,1"],
    }
    for text, parts in grid.items():
        alg = Algebra.parse(text)
        for part in parts:
            lam = tuple(int(x) for x in part.split(","))
            jacobitrudi.jt_character(lam, alg)
            if text != "6|3":
                jacobitrudi.jt_character_e(lam, alg)
    for n in (1, 2, 3):
        jacobitrudi.identity_suite(n)
    for text, size in (("4|3", 6), ("6|3", 5)):
        alg = Algebra.parse(text)
        for lam in partitions_up_to(size):
            if len(lam) >= 2 and fits_hook(lam, alg.n, alg.m):
                charformulas.hook_schur_character(gl_parabolic(alg), lam)
    return seen


def test_pivoted_bareiss_matches_top_left_bareiss(monkeypatch):
    matrices = _jt_grid_matrices(monkeypatch)
    assert sum(len(mat) >= 3 for mat in matrices) >= 55
    one, x, y = LaurentPoly.one(2, 0), mono(2, 0, (2, 0)), mono(2, 0, (-1, 3))
    zero = LaurentPoly.zero(2, 0)
    matrices += [
        # zero and non-unit pivots
        [[x, one], [one, zero]],
        [[x, y, one], [one, x + y, zero], [y, one, zero]],
        [[x, zero, y], [one, zero, x], [y, zero, one]],
        [[x * y - one, x, y], [y, one + y, x], [x + one, y, zero]],
        # the fewest-terms entry needs a row swap, a column swap, both
        [[x + y, x + one], [y, x * y + one]],
        [[x + y, y], [x + one, x * y + one]],
        [[x + y, x + one], [y + one, x]],
        [[x + y, x + one, y - one], [one + x * y, x - y, x], [y + x, x * x + one, x + y + one]],
        # the remaining block is all zero: at once, and after one step
        [[zero, zero], [zero, zero]],
        [[x, y, one], [x * x, x * y, x], [x * y, y * y, y]],
    ]
    for mat in matrices:
        assert det_bareiss_laurent(mat).terms == _bareiss_reference(mat)


def test_bareiss_carries_the_sign_of_a_signed_monomial_permutation():
    # det = sign(perm) * prod of the entries: every entry is one term, so
    # each step pivots on the first nonzero entry of its block
    one, x, y = LaurentPoly.one(2, 0), mono(2, 0, (2, 0)), mono(2, 0, (-1, 3))
    zero = LaurentPoly.zero(2, 0)
    for perm, sign in (((1, 3, 0, 2), -1), ((2, 0, 1, 3), 1), ((3, 2, 1, 0), 1), ((0, 1, 3, 2), -1)):
        entries = [x * -2, one, y * 3, x * y * -1]
        mat = [[entries[i] if j == perm[i] else zero for j in range(4)] for i in range(4)]
        want = entries[0] * entries[1] * entries[2] * entries[3] * sign
        assert det_bareiss_laurent(mat) == want
        assert det_bareiss_laurent(mat).terms == _bareiss_reference(mat)


def test_pivoted_bareiss_cost_on_unit_entries(monkeypatch):
    # term pairs through the elimination's products and through the product
    # kernel, with the power tables grown beforehand; a fixed corner pivot
    # order needs about 86 and 74 thousand on the u-basis entries
    def count_pairs(fn, lam, text):
        alg = Algebra.parse(text)
        jacobitrudi.power_table(alg).p(8)
        jacobitrudi.power_table(alg).e(8)
        pairs = [0]
        fused = linalg._fused

        def counting_fused(piv, a_ij, a_ir, a_rj):
            pairs[0] += (len(piv) * len(a_ij) if piv != Packing.ONE else 0) + len(a_ir) * len(a_rj)
            return fused(piv, a_ij, a_ir, a_rj)

        def counting(a, b):
            pairs[0] += len(a) * len(b)
            return mul_terms(a, b)

        with monkeypatch.context() as patch:
            patch.setattr(laurent, "mul_terms", counting)
            patch.setattr(linalg, "_fused", counting_fused)
            fn(lam, alg)
        return pairs[0]

    assert count_pairs(jacobitrudi.jt_character_e, (8,), "4|3") < 20_000
    assert count_pairs(jacobitrudi.jt_character, (1,) * 7, "6|3") < 20_000
    p = P(2, 1, {(2, 0, -1): 3, (0, 0, 0): -1})
    assert exact_div(p, LaurentPoly.one(2, 1)) is p


def test_no_compiled_kernel_leftovers():
    # the compiled twin of the term kernel, its build and its backend switch are gone
    root = Path(__file__).resolve().parents[1]
    assert list((root / "src").rglob("_kernel.*")) == []
    leftover = re.compile(r"kernel_backend|SPOCHAR_PURE_PYTHON|_kernel\.pyx|laurent\._kernel\b|import _kernel\b")
    files = [root / "README.md", *(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]
    found = [
        f"{path.relative_to(root)}:{i}"
        for path in files
        if path != Path(__file__).resolve()
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if leftover.search(line)
    ]
    assert found == []
