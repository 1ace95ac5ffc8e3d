"""The packed Weyl-quotient kernel against the tuple loops it replaced.

Frozen copies of the tuple-keyed alternating Weyl sum, binomial-string
division and binomial multiplication that `laurent.weyl_quotient` replaced
serve as the references here; do not "optimise" them.
"""

import itertools
import operator
import random

import pytest

from spochar.charformulas import (
    LeviCharacter,
    LeviMismatch,
    Parabolic,
    _kac_binomials,
    _levi_weyl_group,
    euler_character,
    kac_character,
    levi_character,
    levi_simple_even_character,
)
from spochar.laurent import LaurentPoly, NotDivisible, weyl_quotient
from spochar.rootdata import (
    Algebra,
    Weight,
    antisymmetrize,
    is_dominant,
    positive_roots,
    rho,
    rho0,
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


def _quotient_reference(terms, divide=(), multiply=()):
    for h in divide:
        terms = _divide_reference(terms, tuple(h))
    return _multiply_reference(terms, multiply)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotDivisible:
        return "NotDivisible"


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


@pytest.mark.parametrize("seed", range(4))
def test_identity_group_matches_tuple_loops(seed):
    for rank, p, halves, multiply, shape in _random_cases(seed):
        identity = ((tuple(range(rank)), (1,) * rank, 1),)
        prod = _binomial_product(p, halves)
        changed = {**prod, next(iter(p)): prod.get(next(iter(p)), 0) + 1}  # never a multiple
        assert weyl_quotient(rank, 0, prod, identity, halves).terms == p
        assert weyl_quotient(rank, 0, prod, identity, halves[::-1]).terms == p
        with pytest.raises(NotDivisible):
            weyl_quotient(rank, 0, changed, identity, halves)
        assert weyl_quotient(rank, 0, p, identity, multiply=multiply).terms == _multiply_reference(p, multiply)
        if shape in ("wide", "huge"):
            continue  # the tuple division walks every position of a string: millions and more
        got = weyl_quotient(rank, 0, prod, identity, halves, multiply)
        assert got.terms == _quotient_reference(prod, halves, multiply)
        # random inputs are almost never divisible: the same outcome
        for num in (p, changed):
            want = _outcome(_quotient_reference, num, halves)
            assert _outcome(lambda: weyl_quotient(rank, 0, num, identity, halves).terms) == want


def test_signed_permutation_rows_act_as_the_tuple_loop():
    # arbitrary signed permutations and determinants, not a group: the
    # kernel's packed images against g(e)[perm[i]] = signs[i] * e[i]
    rng = random.Random(5)
    for rank in range(1, 6):
        for shape, ranges in SHAPES.items():
            p = _random_terms(rng, ranges(rank), rng.randint(1, 6), 100)
            group = []
            for _ in range(rng.randint(1, 6)):
                perm = list(range(rank))
                rng.shuffle(perm)
                group.append((tuple(perm), tuple(rng.choice((1, -1)) for _ in range(rank)), rng.choice((1, -1))))
            want = {}
            for perm, signs, det in group:
                for e, c in p.items():
                    f = [0] * rank
                    for i in range(rank):
                        f[perm[i]] = signs[i] * e[i]
                    want[tuple(f)] = want.get(tuple(f), 0) + det * c
            want = {e: c for e, c in want.items() if c}
            assert weyl_quotient(rank, 0, p, tuple(group)).terms == want


def test_not_divisible_and_degenerate_inputs():
    one = {(0, 0): 1}
    plus = {(0, 2): 1, (0, -2): 1}
    identity = ((0, 1), (1, 1), 1),
    with pytest.raises(NotDivisible, match=r"string through \(0, -2\) does not clear"):
        weyl_quotient(2, 0, plus, identity, [(0, 2)])
    with pytest.raises(NotDivisible):
        weyl_quotient(2, 0, {(0, 4): 1, (0, 0): 1}, identity, [(0, 2)])
    # a changed coefficient in the middle of a string
    prod = _binomial_product({(1, 0): 3, (1, 4): -2}, [(0, 2)])
    assert weyl_quotient(2, 0, prod, identity, [(0, 2)]).terms == {(1, 0): 3, (1, 4): -2}
    with pytest.raises(NotDivisible):
        weyl_quotient(2, 0, {**prod, (1, 2): 1}, identity, [(0, 2)])
    with pytest.raises(ZeroDivisionError):
        weyl_quotient(2, 0, one, identity, [(0, 0)])
    assert weyl_quotient(2, 0, {}, identity, [(0, 2)]).is_zero()
    assert weyl_quotient(2, 0, one, identity).terms == one


def test_integrality_is_checked_on_request():
    identity = ((0, 1), (1, 1), 1),
    half = {(1, 0): 1, (-1, 0): -1}
    assert weyl_quotient(2, 0, half, identity).terms == half
    with pytest.raises(ArithmeticError, match="Test character came out non-integral"):
        weyl_quotient(2, 0, half, identity, integral="Test character")
    # (x^{1/2} - x^{-1/2}) / (x^{1/2} - x^{-1/2}) = 1 is integral
    assert weyl_quotient(2, 0, half, identity, [(1, 0)], integral="Test character").terms == {(0, 0): 1}
    # a half-integral product: (x + x^-1)(x^{1/2} + x^{-1/2})
    with pytest.raises(ArithmeticError, match="non-integral"):
        weyl_quotient(2, 0, {(2, 0): 1, (-2, 0): 1}, identity, multiply=[(1, 0)], integral="Test character")
