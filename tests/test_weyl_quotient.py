"""Weyl-type quotients against tuple loops: Kac, Euler and even-Levi
characters, alternating sums and binomial products.

Frozen copies of the tuple-keyed alternating Weyl sum, binomial-string
division and binomial multiplication that the packed kernels replaced serve
as the references here, and so does a frozen copy of the packed binomial
product `times_binomials` that `times_isotropic` replaced; do not
"optimise" them.
"""

import itertools
import operator
import random

import pytest

from spochar.charformulas import (
    LeviCharacter,
    LeviMismatch,
    Parabolic,
    _levi_weyl_group,
    euler_character,
    kac_character,
    levi_character,
    levi_simple_even_character,
)
from spochar.laurent import LaurentPoly, NotDivisible, exact_div, times_isotropic
from spochar.laurent.core import _pack, _unpack
from spochar.rootdata import (
    Algebra,
    Weight,
    _sign_images,
    alternating_terms,
    antisymmetrize,
    is_dominant,
    positive_roots,
    rho,
    rho0,
    sign_free_slots,
    weyl_act,
    weyl_group,
    weyl_order,
)

# -- the frozen references ------------------------------------------------------------


def _alternate_reference(alg, terms):
    out = {}
    for g in weyl_group(alg):
        s = g[2]
        for e, c in terms.items():
            k = weyl_act(g, e)
            out[k] = out.get(k, 0) + s * c
    return {e: c for e, c in out.items() if c}


def _divide_reference(terms, h):
    i0 = next((i for i, x in enumerate(h) if x), None)
    if i0 is None:
        raise ZeroDivisionError("x^0 - x^0 is the zero polynomial")
    step = 2 * h[i0]
    offsets = {}
    strings = {}
    for e, c in terms.items():
        t = e[i0] // step
        off = offsets.get(t)
        if off is None:
            off = offsets[t] = tuple(2 * t * x for x in h)
        strings.setdefault(tuple(map(operator.sub, e, off)), {})[t] = c
    quot = {}
    below = {}
    for key, coefs in strings.items():
        top, bottom = max(coefs), min(coefs)
        run = 0
        for t in range(top, bottom, -1):
            run += coefs.get(t, 0)
            if run:
                off = below.get(t)
                if off is None:
                    off = below[t] = tuple((2 * t - 1) * x for x in h)
                quot[tuple(map(operator.add, key, off))] = run
        if run + coefs[bottom]:
            raise NotDivisible(f"string through {key} does not clear x^{h} - x^-{h}")
    return quot


def _multiply_reference(terms, halves):
    for h in halves:
        out = {}
        for e, c in terms.items():
            for k in (tuple(map(operator.add, e, h)), tuple(map(operator.sub, e, h))):
                out[k] = out.get(k, 0) + c
        terms = {e: c for e, c in out.items() if c}
    return terms


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


def _quotient_reference(terms, divide=(), multiply=()):
    for h in divide:
        terms = _divide_reference(terms, tuple(h))
    return _multiply_reference(terms, multiply)


def _half(doubled):
    return tuple(x // 2 for x in doubled)


def _integral(terms):
    return all(x % 2 == 0 for e in terms for x in e)


# -- Kac, Euler and even-Levi characters -----------------------------------------------

KAC_GRID = ["2|0", "4|0", "2|1", "4|1", "6|1", "2|2", "4|2", "2|3", "4|3", "2|4", "4|4", "2|5", "6|3"]


def _dominant_weights(alg):
    out = []
    for c in itertools.product(range(3), repeat=alg.rank):
        w = Weight.from_coeffs(alg, c[:alg.n], c[alg.n:])
        if is_dominant(w):
            out.append(w)
    return out


def _kac_binomials(alg):
    """(halves of D0 to divide by, halves of D1 to multiply by), after the
    odd-l cancellation of the even roots 2d_i against the odd roots d_i."""
    pos = positive_roots(alg)
    short = {a.doubled for a in pos.odd if a not in pos.isotropic}
    divide = [_half(_half(r.doubled)) if _half(r.doubled) in short else _half(r.doubled) for r in pos.even]
    return divide, [_half(a.doubled) for a in pos.isotropic]


def test_kac_matches_tuple_loops_on_weight_grid():
    count = 0
    for text in KAC_GRID:
        alg = Algebra.parse(text)
        divide, multiply = _kac_binomials(alg)
        for lam in _dominant_weights(alg):
            num = _alternate_reference(alg, {(lam + rho(alg)).doubled: 1})
            want = _quotient_reference(num, divide, multiply)
            assert _integral(want)
            assert kac_character(alg, lam).terms == want, (text, lam.format())
            count += 1
    assert count == 119


def _euler_reference(p, module):
    alg = p.alg
    ch_m = module.character if isinstance(module, LeviCharacter) else module
    _, levi_odd = p.levi_positive()
    f = ch_m.shifted(rho0(alg).doubled)
    for a in positive_roots(alg).odd:
        if a not in levi_odd:
            f = f + f.shifted(tuple(-x for x in a.doubled))
    halves = [_half(r.doubled) for r in reversed(positive_roots(alg).even)]
    return _quotient_reference(_alternate_reference(alg, f.terms), halves)


EULER_MODULES = [
    ("trivial", None),
    ("one_dimensional", "2d1"),
    ("natural", None),
    ("sym_power", 2),
    ("ext_power", 2),
    ("hook_schur", (2, 1)),
]


def test_euler_matches_tuple_loops_on_parabolic_grid():
    count = 0
    for text in ["2|2", "2|3", "4|3", "2|4", "2|5", "4|1"]:
        alg = Algebra.parse(text)
        for removed in itertools.product((False, True), repeat=alg.rank):
            p = Parabolic(alg, frozenset(i for i, r in enumerate(removed) if r))
            for tag, arg in EULER_MODULES:
                if tag == "one_dimensional":
                    arg = Weight.parse(alg, arg)
                try:
                    module = levi_character(p, tag, arg)
                except LeviMismatch:
                    continue
                assert euler_character(p, module).terms == _euler_reference(p, module), (p.describe(), tag)
                count += 1
    assert count == 120


def test_even_levi_matches_tuple_loops():
    count = 0
    for text in ["2|2", "2|3", "4|3", "2|4", "2|5", "4|1", "6|1"]:
        alg = Algebra.parse(text)
        for removed in itertools.product((False, True), repeat=alg.rank):
            p = Parabolic(alg, frozenset(i for i, r in enumerate(removed) if r))
            even, odd = p.levi_positive()
            if odd:
                continue
            group = _levi_weyl_group(p)
            halves = [_half(r.doubled) for r in even]
            half = Weight(alg, [sum(r.doubled[i] for r in even) // 2 for i in range(alg.rank)])
            for c in itertools.product(range(-1, 3), repeat=alg.rank):
                lam = Weight.from_coeffs(alg, c[:alg.n], c[alg.n:])
                v = (lam + half).doubled
                num = {}
                for perm, signs, sgn in group:
                    e = [0] * alg.rank
                    for i in range(alg.rank):
                        e[perm[i]] = signs[i] * v[i]
                    num[tuple(e)] = num.get(tuple(e), 0) + sgn
                want = _quotient_reference({e: c for e, c in num.items() if c}, halves)
                assert levi_simple_even_character(p, lam).terms == want, (p.describe(), lam.format())
                count += 1
    assert count == 1104


def _determinant(perm, signs):
    det = 1
    for s in signs:
        det *= s
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                det = -det
    return det


@pytest.mark.parametrize("algtxt", ["2|2", "2|4", "4|4", "2|6", "6|4", "4|0", "2|3", "4|5"])
def test_group_table_and_alternating_sums(algtxt):
    # even l: the orthogonal side is D_m, evenly many sign flips, and the
    # determinant of each signed permutation is its sign
    alg = Algebra.parse(algtxt)
    table = weyl_group(alg)
    assert len(table) == weyl_order(alg) == len(set(table))
    for perm, signs, det in table:
        assert det == _determinant(perm, signs)
        if not alg.odd and alg.m:
            assert signs[alg.n:].count(-1) % 2 == 0
    weights = [rho(alg), rho0(alg), Weight.zero(alg)] + _dominant_weights(alg)[:6]
    weights.append(Weight(alg, [2 * i + 1 for i in range(alg.rank)]))
    for w in weights:
        assert antisymmetrize(alg, w).terms == _alternate_reference(alg, {w.doubled: 1}), w.format()


# -- random non-symmetric inputs ------------------------------------------------------

# per-slot ranges of random exponents: odd (half-weight) and negative entries
# alike; "wide" puts one slot in the millions, "huge" one beyond 64 bits
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


def _random_half(rng, rank):
    h = [rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(rank)]
    if not any(h):
        h[rng.randrange(rank)] = rng.choice((1, -2))
    return tuple(h)


def _binomial_product(terms, halves):
    """terms * prod (x^h - x^-h), on tuples."""
    for h in halves:
        out = {}
        for e, c in terms.items():
            for k, v in ((tuple(map(operator.add, e, h)), c), (tuple(map(operator.sub, e, h)), -c)):
                out[k] = out.get(k, 0) + v
        terms = {e: c for e, c in out.items() if c}
    return terms


def _random_cases(seed):
    rng = random.Random(seed)
    for rank in range(1, 6):
        for shape, ranges in SHAPES.items():
            for coef_bits in (3, 100):
                p = _random_terms(rng, ranges(rank), rng.randint(1, 8), coef_bits)
                halves = [_random_half(rng, rank) for _ in range(rng.randint(1, 3))]
                multiply = [_random_half(rng, rank) for _ in range(rng.randint(0, 2))]
                yield rank, p, halves, multiply, shape


def P(rank, terms):
    return LaurentPoly(rank, 0, terms)


def _binomial(rank, h):
    return P(rank, {h: 1}) - P(rank, {tuple(-x for x in h): 1})


@pytest.mark.parametrize("seed", range(4))
def test_times_binomials_matches_tuple_loops(seed):
    # every shape, wide and huge fields and half exponents included; the
    # binomial division of the even-Levi characters is exact_div, one
    # binomial at a time, in either order
    for rank, p, halves, multiply, shape in _random_cases(seed):
        assert times_binomials(P(rank, p), multiply).terms == _multiply_reference(p, multiply)
        assert times_binomials(P(rank, p), halves).terms == _multiply_reference(p, halves)
        prod = _binomial_product(p, halves)
        changed = {**prod, next(iter(p)): prod.get(next(iter(p)), 0) + 1}  # never a multiple
        for order in (halves, halves[::-1]):
            q = P(rank, prod)
            for h in order:
                q = exact_div(q, _binomial(rank, h))
            assert q.terms == p
        if shape in ("wide", "huge"):
            continue  # dividing a non-multiple walks a string of millions of positions and more
        with pytest.raises(NotDivisible):
            q = P(rank, changed)
            for h in halves:
                q = exact_div(q, _binomial(rank, h))


def test_signed_permutation_rows_act_as_the_tuple_loop():
    # arbitrary signed permutations and determinants, not a group: the
    # alternating sum of `alternating_terms` against
    # g(e)[perm[i]] = signs[i] * e[i]
    rng = random.Random(5)
    for rank in range(1, 6):
        for shape, ranges in SHAPES.items():
            (e,) = _random_terms(rng, ranges(rank), 1, 100)
            group = []
            for _ in range(rng.randint(1, 6)):
                perm = list(range(rank))
                rng.shuffle(perm)
                group.append((tuple(perm), tuple(rng.choice((1, -1)) for _ in range(rank)), rng.choice((1, -1))))
            want = {}
            for perm, signs, det in group:
                f = [0] * rank
                for i in range(rank):
                    f[perm[i]] = signs[i] * e[i]
                want[tuple(f)] = want.get(tuple(f), 0) + det
            assert {f: c for f, c in alternating_terms(group, e).items() if c} == {f: c for f, c in want.items() if c}


def test_not_divisible_and_degenerate_inputs():
    one = P(2, {(0, 0): 1})
    plus = P(2, {(0, 2): 1, (0, -2): 1})
    with pytest.raises(NotDivisible):
        exact_div(plus, _binomial(2, (0, 2)))
    with pytest.raises(NotDivisible):
        exact_div(P(2, {(0, 4): 1, (0, 0): 1}), _binomial(2, (0, 2)))
    # a changed coefficient in the middle of a string
    prod = _binomial_product({(1, 0): 3, (1, 4): -2}, [(0, 2)])
    assert exact_div(P(2, prod), _binomial(2, (0, 2))).terms == {(1, 0): 3, (1, 4): -2}
    with pytest.raises(NotDivisible):
        exact_div(P(2, {**prod, (1, 2): 1}), _binomial(2, (0, 2)))
    with pytest.raises(ZeroDivisionError):
        exact_div(one, _binomial(2, (0, 0)))
    assert exact_div(P(2, {}), _binomial(2, (0, 2))).is_zero()
    # x^0 + x^-0 = 2; no binomials leave p as it is
    assert times_binomials(one, [(0, 0)]).terms == {(0, 0): 2}
    assert times_binomials(P(2, {}), [(0, 2)]).is_zero()
    assert times_binomials(one, ()) is one
    assert times_binomials(plus, [(0, 2), (0, -2)]).terms == _multiply_reference(plus.terms, [(0, 2), (0, -2)])


# -- the isotropic product on the sign-free orthant -------------------------------------

ISOTROPIC_GRID = ["2|1", "2|2", "4|2", "6|2", "2|3", "4|3", "6|3", "2|4", "4|4", "2|5", "4|5", "2|6"]


def _orbit_sums(alg, rng):
    """Random integral W-invariant terms: orbit sums, with random nonzero
    coefficients of both signs, of dominant doubled weights whose entries
    are 0, 2, 4 or 6, D_m last entries of both signs."""
    group = weyl_group(alg)
    out = {}
    for _ in range(rng.randint(1, 3)):
        d = sorted((rng.choice((0, 2, 4, 6)) for _ in range(alg.n)), reverse=True)
        e = sorted((rng.choice((0, 2, 4)) for _ in range(alg.m)), reverse=True)
        if e and not alg.odd and rng.random() < 0.5:
            e[-1] = -e[-1]
        c = rng.choice((-3, -1, 1, 2, 5))
        for w in {weyl_act(g, tuple(d + e)) for g in group}:
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


@pytest.mark.parametrize("algtxt", ISOTROPIC_GRID)
def test_times_isotropic_matches_the_frozen_binomial_product(algtxt):
    # the sign images of the orthant product are the frozen full product of
    # the isotropic binomials, term for term, and the orthant product is the
    # orthant part of it; the sign-free slots are those of the single sign
    # changes in W
    alg = Algebra.parse(algtxt)
    identity = tuple(range(alg.rank))
    flips = {signs.index(-1) for perm, signs, _ in weyl_group(alg) if perm == identity and signs.count(-1) == 1}
    free = sign_free_slots(alg)
    assert set(free) == flips
    halves = [_half(a.doubled) for a in positive_roots(alg).isotropic]
    rng = random.Random(algtxt)
    walls = set()
    for _ in range(12):
        full = _orbit_sums(alg, rng)
        orthant = {e: c for e, c in full.items() if all(e[s] >= 0 for s in free)}
        walls.update(e[s] for e in orthant for s in free)
        want = times_binomials(LaurentPoly(alg.n, alg.m, full), halves)
        got = times_isotropic(LaurentPoly(alg.n, alg.m, orthant), free)
        assert got.terms == {e: c for e, c in want.terms.items() if all(e[s] >= 0 for s in free)}
        assert _sign_images(got, free).terms == want.terms
        assert _sign_images(LaurentPoly(alg.n, alg.m, orthant), free).terms == full
    assert {0, 2, 4} <= walls


def test_times_isotropic_refuses_odd_or_negative_sign_free_exponents_and_keeps_degenerate_inputs():
    # D_1 (l = 2) is not sign-free: any exponent is admissible there
    p = LaurentPoly(1, 1, {(2, -3): 1, (0, 1): -2})
    assert times_isotropic(p, [0]).terms == {(4, -3): 1, (2, -1): 1, (2, -5): 1, (0, -3): 2, (2, 1): -2,
                                             (0, 3): -2, (0, -1): -2}
    with pytest.raises(ValueError, match="not even and >= 0"):
        times_isotropic(LaurentPoly(1, 1, {(2, 0): 1, (3, 0): 1}), [0])
    with pytest.raises(ValueError, match="not even and >= 0"):
        times_isotropic(LaurentPoly(1, 1, {(-2, 0): 1}), [0, 1])
    with pytest.raises(ValueError, match="not even and >= 0"):
        times_isotropic(LaurentPoly(1, 1, {(0, 1): 1}), [0, 1])
    # no isotropic roots (m = 0), or p = 0: p itself
    one = LaurentPoly.one(2, 0)
    assert times_isotropic(one, [0, 1]) is one
    zero = LaurentPoly.zero(1, 1)
    assert times_isotropic(zero, [0, 1]) is zero
    # a cancellation leaves no zero coefficient
    q = LaurentPoly(1, 1, {(2, 0): 1, (0, 2): -1})
    assert times_isotropic(q, [0, 1]).terms == {(4, 0): 1, (0, 4): -1}
