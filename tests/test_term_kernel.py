"""The one term kernel against the loops it replaced.

The `frozen_*` functions below are copies of the term loops as the package
ran them before `laurent.add_terms`, `laurent.add_products` and
`series.times`/`series.divided` became their only copies: `mul_terms` on
its per-slot offset layout, the Bareiss step `linalg._fused`, the
Jacobi-Trudi sum `_plus`, and the series steps `times_linear`,
`times_geometric` and the u-basis `_times_factor`.  The series copies do
their arithmetic with the frozen product and sum, so that no term loop of
the package sits on both sides of a comparison.  test_jacobitrudi builds
its table oracle from them too.  Nothing here may be imported from src.
"""

import operator
import random
from itertools import repeat
from operator import itemgetter

import pytest

from spochar import linalg
from spochar.blocksdecomp import gl_parabolic
from spochar.charformulas import _gl_chain_weights
from spochar.jacobitrudi import _u_series
from spochar.laurent import LaurentPoly, Packing, add_products, add_terms, mul_terms
from spochar.rootdata import Algebra
from spochar.series import divided, series_one, super_homogeneous_series, times
from test_weyl_quotient import SHAPES

# -- frozen term loops ---------------------------------------------------------


def _frozen_pack(terms, weights, lows):
    base = sum(map(operator.mul, lows, weights))
    return [sum(map(operator.mul, e, weights)) - base for e in terms]


def _frozen_unpack(packed, fields):
    slots = [
        map(operator.add, map(operator.and_, map(operator.rshift, packed, repeat(s)), repeat(mask)), repeat(lo))
        for s, mask, lo in fields
    ]
    return zip(*slots) if slots else repeat(())


def frozen_mul_terms(a, b):
    """Slot i is a bit field as wide as the sum of the operands' ranges
    there, each operand offset by its minimum in the slot."""
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
    packed_b = _frozen_pack(b, weights, lo_b)
    out = {}
    get = out.get
    for ka, ca in zip(_frozen_pack(a, weights, lo_a), a.values()):
        for kb, cb in zip(packed_b, b.values()):
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    for k in [k for k, c in out.items() if not c]:
        del out[k]
    return dict(zip(_frozen_unpack(out, fields), out.values()))


def frozen_add_terms(a, b):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        elif e in out:
            del out[e]
    return out


def frozen_plus(a, b, sign):
    """a + sign * b for packed term dicts; a itself when b is zero."""
    if not b:
        return a
    out = dict(a)
    for t, c in b.items():
        v = out.get(t, 0) + sign * c
        if v:
            out[t] = v
        else:
            del out[t]
    return out


def frozen_fused(piv, a_ij, a_ir, a_rj):
    """piv a_ij - a_ir a_rj for packed term dicts, in one pass."""
    if piv != Packing.ONE:
        out = {}
        get = out.get
        for kp, cp in piv.items():
            for ka, ca in a_ij.items():
                t = kp + ka
                out[t] = get(t, 0) + cp * ca
    elif a_ir and a_rj:
        out = dict(a_ij)
    else:
        return a_ij
    get = out.get
    for ka, ca in a_ir.items():
        for kb, cb in a_rj.items():
            t = ka + kb
            out[t] = get(t, 0) - ca * cb
    return {t: c for t, c in out.items() if c} if 0 in out.values() else out


def _mul(p, q):
    return LaurentPoly._wrap(p.n, p.m, frozen_mul_terms(p.terms, q.terms))


def _add(p, q, sign=1):
    return LaurentPoly._wrap(p.n, p.m, frozen_add_terms(p.terms, {e: sign * c for e, c in q.terms.items()}))


def frozen_series_one(n, m, order):
    out = [LaurentPoly.zero(n, m) for _ in range(order + 1)]
    out[0] = LaurentPoly.one(n, m)
    return out


def frozen_times_linear(series, exps, n, m):
    """series *= (1 + e^exps z)."""
    mono = LaurentPoly.monomial(n, m, exps)
    out = list(series)
    for k in range(len(series) - 1, 0, -1):
        out[k] = _add(out[k], _mul(mono, series[k - 1]))
    return out


def frozen_times_geometric(series, exps, n, m):
    """series *= 1/(1 - e^exps z)  (i.e. sum_k e^{k*exps} z^k)."""
    mono = LaurentPoly.monomial(n, m, exps)
    out = list(series)
    for k in range(1, len(series)):
        out[k] = _add(out[k], _mul(mono, out[k - 1]))
    return out


def frozen_times_factor(series, unit, geometric):
    """series times 1/(1 - x z + z^2) if geometric, else times
    (1 + x z + z^2), in place, where x is the monomial u^unit."""
    x = LaurentPoly.monomial(series[0].n, series[0].m, unit)
    for k in range(1, len(series)) if geometric else range(len(series) - 1, 0, -1):
        step = _add(series[k], _mul(series[k - 1], x))
        if k >= 2:
            step = _add(step, series[k - 2], -1 if geometric else 1)
        series[k] = step


def frozen_super_homogeneous_series(even_weights, odd_weights, n, m, order):
    s = frozen_series_one(n, m, order)
    for w in even_weights:
        s = frozen_times_geometric(s, w, n, m)
    for w in odd_weights:
        s = frozen_times_linear(s, w, n, m)
    return s


def frozen_u_series(alg, order, exterior):
    series = frozen_series_one(alg.n, alg.m, order)
    for s in range(alg.rank):
        frozen_times_factor(series, tuple(int(t == s) for t in range(alg.rank)), (s < alg.n) != exterior)
    if alg.odd:
        series = (frozen_times_geometric if exterior else frozen_times_linear)(series, (0,) * alg.rank, alg.n, alg.m)
    return series


# -- random operands --------------------------------------------------------------


def _random_terms(rng, ranges, size, coef_bits):
    out = {}
    for _ in range(size):
        e = tuple(rng.randint(lo, hi) for lo, hi in ranges)
        out[e] = rng.randint(-(1 << coef_bits), 1 << coef_bits) or 1
    return out


def _corner_terms(rng, ranges, coef_bits):
    """One term at the top and one at the bottom of every range: products of
    two of them reach the ends of the product's range in every slot."""
    coef = rng.randint(2, 1 << coef_bits) * rng.choice((1, -1))
    return {tuple(hi for _, hi in ranges): coef, tuple(lo for lo, _ in ranges): -coef}


def _operands(seed):
    """(a, b) over every shape, rank 1 to 5, small and big coefficients: random
    dicts, one-term and empty operands, corners, and pairs whose cross terms
    cancel, (u + v)(u - v) = u^2 - v^2."""
    rng = random.Random(seed)
    for rank in range(1, 6):
        for shape, ranges in SHAPES.items():
            r = ranges(rank)
            for coef_bits in (3, 100):
                a = _random_terms(rng, r, rng.randint(1, 9), coef_bits)
                b = _random_terms(rng, r, rng.randint(1, 9), coef_bits)
                yield a, b
                yield _random_terms(rng, r, 1, coef_bits), b
                yield a, _random_terms(rng, r, 1, coef_bits)
                yield a, {}
                yield {}, b
                yield _corner_terms(rng, r, coef_bits), _corner_terms(rng, r, coef_bits)
                u = _random_terms(rng, r, 4, coef_bits)
                v = {e: c for e, c in _random_terms(rng, r, 4, coef_bits).items() if e not in u}
                yield {**u, **v}, {**u, **{e: -c for e, c in v.items()}}
                yield u, {e: -c for e, c in u.items()}


def _wide_layout(rank, *dicts):
    """A signed layout that holds every product of two of the dicts."""
    reach = [max((abs(e[s]) for d in dicts for e in d), default=0) for s in range(rank)]
    return Packing(rank, 0, (2 * max(reach)).bit_length() + 1, signed=True)


# -- the gate ------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_mul_terms_matches_the_frozen_offset_layout(seed):
    for a, b in _operands(seed):
        want = frozen_mul_terms(a, b)
        got = mul_terms(a, b)
        assert list(got.items()) == list(want.items())
        assert 0 not in got.values()


@pytest.mark.parametrize("seed", range(3))
def test_add_terms_matches_the_frozen_sums(seed):
    for a, b in _operands(seed):
        assert add_terms(a, b) == frozen_add_terms(a, b)
        for sign in (1, -1):
            got = add_terms(a, b, sign)
            assert got == frozen_plus(a, b, sign)
            assert 0 not in got.values()
        if a and b:
            rank = len(next(iter(a)))
            packing = _wide_layout(rank, a, b)
            pa, pb = packing.pack(a), packing.pack(b)
            for sign in (1, -1):
                assert add_terms(pa, pb, sign) == frozen_plus(pa, pb, sign)
    a = {(1, 2): 3}
    assert add_terms(a, {}) is a and add_terms(a, {}, -1) is a


@pytest.mark.parametrize("seed", range(3))
def test_fused_matches_the_frozen_bareiss_step(seed):
    rng = random.Random(100 + seed)
    ops = list(_operands(seed))
    for a_ir, a_rj in ops:
        piv, a_ij = ops[rng.randrange(len(ops))]
        if not a_ij:
            continue
        rank = len(next(iter(a_ij)))
        if any(len(next(iter(d))) != rank for d in (piv, a_ir, a_rj) if d):
            continue
        packing = _wide_layout(rank, piv, a_ij, a_ir, a_rj)
        args = [packing.pack(d) for d in (piv, a_ij, a_ir, a_rj)]
        product = {t: -c for t, c in frozen_fused(Packing.ONE, {}, args[2], args[3]).items()}
        cancelling = [Packing.ONE, product, args[2], args[3]]
        for unit in (False, True):
            call = [Packing.ONE, *args[1:]] if unit else args
            for row in (call, cancelling):
                got = linalg._fused(*row)
                assert got == frozen_fused(*row)
                assert 0 not in got.values()
        assert linalg._fused(*cancelling) == {}
        assert linalg._fused(Packing.ONE, args[1], {}, args[3]) is args[1]


def test_add_products_adds_in_place():
    out = {5: 1, 7: -6}
    assert add_products(out, {1: 2, 3: 1}, {4: 3}) is out
    assert out == {5: 7, 7: -3}
    assert add_products(out, {0: 1}, {5: -7, 7: 3}) is out and out == {}


ALGEBRAS = ["2|0", "2|1", "2|2", "4|3", "2|4", "6|3", "4|5"]


@pytest.mark.parametrize("algtxt", ALGEBRAS)
def test_u_series_matches_the_frozen_recurrences(algtxt):
    alg = Algebra.parse(algtxt)
    for exterior in (False, True):
        want = frozen_u_series(alg, 12, exterior)
        got = _u_series(alg, 12, exterior)
        assert [x.terms for x in got] == [x.terms for x in want]


@pytest.mark.parametrize("algtxt", ALGEBRAS)
def test_times_and_divided_match_the_frozen_series_steps(algtxt):
    alg = Algebra.parse(algtxt)
    n, m, rank = alg.n, alg.m, alg.rank
    zero = (0,) * rank
    base = _u_series(alg, 10, False)
    # the zero-weight factors 1 + z and 1/(1 - z)
    assert times(base, [1]) == frozen_times_linear(base, zero, n, m)
    assert divided(base, [-1]) == frozen_times_geometric(base, zero, n, m)
    # the u-factors 1 + u z + z^2 and 1/(1 - u z + z^2) of every slot
    for s in range(rank):
        unit = tuple(int(t == s) for t in range(rank))
        u = LaurentPoly.monomial(n, m, unit)
        for geometric, got in ((False, times(base, [u, 1])), (True, divided(base, [-u, 1]))):
            want = list(base)
            frozen_times_factor(want, unit, geometric)
            assert got == want
    # the weights of the natural module, and of the gl(n|m) Levi's where
    # there is one (odd l, m >= 1)
    units = [tuple(2 * sign * int(t == s) for t in range(rank)) for s in range(rank) for sign in (1, -1)]
    even, odd = units[:2 * n], units[2 * n:]
    weights = even + odd
    if alg.odd and m:
        even, odd = _gl_chain_weights(gl_parabolic(alg))
        weights += even + odd
    for w in weights:
        mono = LaurentPoly.monomial(n, m, w)
        assert times(base, [mono]) == frozen_times_linear(base, w, n, m)
        assert divided(base, [-mono]) == frozen_times_geometric(base, w, n, m)
    for kind in ((even, odd), (odd, even)):
        assert super_homogeneous_series(*kind, n, m, 9) == frozen_super_homogeneous_series(*kind, n, m, 9)


@pytest.mark.parametrize("seed", range(3))
def test_divided_undoes_times(seed):
    rng = random.Random(seed)
    for rank in range(1, 5):
        for shape, ranges in SHAPES.items():
            r = ranges(rank)

            def poly():
                return LaurentPoly(rank, 0, _random_terms(rng, r, rng.randint(0, 4), 40))

            s = [poly() for _ in range(rng.randint(1, 7))]
            factor = [rng.choice((poly(), rng.randint(-3, 3))) for _ in range(rng.randint(1, 3))]
            assert divided(times(s, factor), factor) == s
            assert times(divided(s, factor), factor) == s


def test_series_one_is_the_unit_series():
    s = series_one(1, 1, 4)
    assert s == frozen_series_one(1, 1, 4)
    assert times(s, [LaurentPoly.monomial(1, 1, (2, 0))]) == frozen_times_linear(s, (2, 0), 1, 1)
