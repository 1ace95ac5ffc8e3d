from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from spochar.linalg import rref
from spochar.rootdata import (
    WEYL_ORDER_LIMIT,
    Algebra,
    DimensionGuard,
    NonIntegralWeight,
    Weight,
    antisymmetrize,
    conjugate_partition,
    fits_hook,
    fold_to_dominant,
    is_dominant,
    partitions_up_to,
    positive_roots,
    rho,
    rho0,
    sharp,
    signed_permutations,
    simple_roots,
    weight_to_partition,
    weyl_group,
    weyl_order,
)

SPO23 = Algebra.parse("2|3")
SPO24 = Algebra.parse("2|4")
SPO43 = Algebra.parse("4|3")


def W(alg, text):
    return Weight.parse(alg, text)


def test_algebra_parsing():
    assert SPO23 == Algebra(1, 1, True)
    assert Algebra.parse("6|4") == Algebra(3, 2, False)
    with pytest.raises(ValueError):
        Algebra.parse("3|3")
    with pytest.raises(ValueError):
        Algebra.parse("spo(2|3)")


def test_bilinear_form():
    d1 = W(SPO23, "1d1")
    e1 = W(SPO23, "1e1")
    assert d1.pair(d1) == 1
    assert e1.pair(e1) == -1
    assert d1.pair(e1) == 0
    iso = d1 + e1
    assert iso.pair(iso) == 0


def test_positive_roots_spo23():
    pos = positive_roots(SPO23)
    assert {r.format() for r in pos.even} == {"2d1", "1e1"}
    assert {r.format() for r in pos.odd} == {"1d1-1e1", "1d1+1e1", "1d1"}
    assert {r.format() for r in pos.isotropic} == {"1d1-1e1", "1d1+1e1"}
    assert all(r.pair(r) == 0 for r in pos.isotropic)


def test_positive_roots_spo24():
    pos = positive_roots(SPO24)
    assert {r.format() for r in pos.even} == {"2d1", "1e1-1e2", "1e1+1e2"}
    assert {r.format() for r in pos.isotropic} == {"1d1-1e1", "1d1+1e1", "1d1-1e2", "1d1+1e2"}
    assert set(pos.odd) == set(pos.isotropic)  # no odd non-isotropic roots for even l


def test_isotropic_means_null():
    for alg in (SPO23, SPO24, SPO43, Algebra.parse("4|5")):
        pos = positive_roots(alg)
        for r in pos.odd:
            assert (r.pair(r) == 0) == (r in pos.isotropic)


def _rho1(alg):
    """Half sum of the odd positive roots."""
    return Weight(alg, [sum(r.doubled[i] for r in positive_roots(alg).odd) // 2 for i in range(alg.rank)])


def test_rho_closed_forms():
    assert rho(SPO23) == Weight.from_coeffs(SPO23, [Fraction(-1, 2)], [Fraction(1, 2)])
    assert rho(SPO24) == Weight.from_coeffs(SPO24, [-1], [1, 0])
    assert rho0(SPO23) == Weight.from_coeffs(SPO23, [1], [Fraction(1, 2)])
    for alg in (SPO23, SPO24, SPO43, Algebra.parse("6|3"), Algebra.parse("4|4")):
        assert rho(alg) == rho0(alg) - _rho1(alg)


def test_dominance():
    assert not is_dominant(W(SPO24, "1d1+1e1+1e2"))  # hook violation
    assert is_dominant(W(SPO24, "2d1+1e1+1e2"))
    assert is_dominant(Weight.zero(SPO23))
    assert is_dominant(W(SPO24, "2d1+1e1-1e2"))  # b_m may be negative for even l
    assert not is_dominant(W(SPO23, "1d1-1e1"))
    assert not is_dominant(W(SPO43, "1d2"))
    with pytest.raises(NonIntegralWeight):
        is_dominant(rho(SPO23))


def test_sharp_examples():
    spo25 = Algebra(1, 2, True)
    assert sharp((2, 1, 1), spo25) == Weight.from_coeffs(spo25, [2], [2, 0])
    assert sharp((), SPO23) == Weight.zero(SPO23)
    for k in range(1, 6):
        assert sharp((k,), SPO23) == W(SPO23, f"{k}d1")


@pytest.mark.parametrize("algtxt", ["2|3", "2|5", "4|4", "6|3"])
def test_sharp_bijection_partitions_up_to_8(algtxt):
    alg = Algebra.parse(algtxt)
    seen = {}
    for lam in partitions_up_to(8):
        if not fits_hook(lam, alg.n, alg.m):
            continue
        w = sharp(lam, alg)
        assert is_dominant(w)
        assert w not in seen, f"sharp collision {lam} vs {seen[w]}"
        seen[w] = lam
        assert weight_to_partition(w) == lam


def test_conjugate_partition():
    assert conjugate_partition((3, 1)) == (2, 1, 1)
    assert conjugate_partition(()) == ()
    assert conjugate_partition((2, 2, 2)) == (3, 3)


def test_weyl_group_orders():
    assert len(weyl_group(SPO23)) == 4
    assert len(weyl_group(SPO43)) == 16
    assert len(weyl_group(SPO24)) == 8  # B1 x D2
    assert len(weyl_group(Algebra.parse("4|4"))) == 32  # B2 x D2


@pytest.mark.parametrize("algtxt", ["2|0", "2|1", "4|0", "2|2", "4|2", "2|4", "6|3", "4|6", "6|5"])
def test_weyl_order_formula_matches_the_enumeration(algtxt):
    alg = Algebra.parse(algtxt)
    assert weyl_order(alg) == len(weyl_group(alg)) == len(set(weyl_group(alg)))


def test_oversized_weyl_group_is_refused_before_enumeration():
    assert weyl_order(Algebra.parse("8|5")) == 3072 <= WEYL_ORDER_LIMIT  # the largest routine target
    big = Algebra.parse("10|10")
    assert weyl_order(big) == 7372800
    with pytest.raises(DimensionGuard, match=r"^\|W\| = 7372800 for spo\(10\|10\) exceeds the limit 100000$"):
        weyl_group(big)
    with pytest.raises(DimensionGuard):
        antisymmetrize(big, Weight.zero(big))


def test_identity_element_sign():
    group = weyl_group(SPO23)
    identity = next(g for g in group if all(g.apply_doubled(v) == v for v in [(2, 0), (0, 2)]))
    assert identity.sign == 1


@pytest.mark.parametrize("algtxt", ["2|3", "4|3"])
def test_sign_is_a_homomorphism(algtxt):
    group = weyl_group(Algebra.parse(algtxt))
    for g in group:
        for h in group:
            assert (g * h).sign == g.sign * h.sign


@pytest.mark.parametrize("algtxt", ["2|3", "4|3", "2|4"])
def test_group_permutes_roots_and_preserves_form(algtxt):
    alg = Algebra.parse(algtxt)
    pos = positive_roots(alg)
    roots = {r.doubled for r in pos.even + pos.odd}
    roots |= {tuple(-x for x in r) for r in roots}
    probe = [W(alg, "1d1"), rho0(alg)]
    for g in weyl_group(alg):
        for r in pos.even + pos.odd:
            assert g.apply_doubled(r.doubled) in roots
        for u in probe:
            for v in probe:
                assert g.apply_weight(u).pair(g.apply_weight(v)) == u.pair(v)


def test_composition_acts_correctly():
    group = weyl_group(SPO43)
    v = (2, 4, 0)
    for g in group[:6]:
        for h in group[:6]:
            assert (g * h).apply_doubled(v) == g.apply_doubled(h.apply_doubled(v))


def test_antisymmetrize_regular_vs_singular():
    # rho0 is regular: |W| distinct terms; a wall weight dies
    a = antisymmetrize(SPO23, rho0(SPO23))
    assert len(a) == 4
    assert antisymmetrize(SPO23, W(SPO23, "1e1")).is_zero()  # fixed by the d1 flip


FOLD_ALGEBRAS = [Algebra.parse(t) for t in ("2|3", "4|4", "4|5", "2|2", "6|6")]


@st.composite
def doubled_weights(draw, algebras=FOLD_ALGEBRAS):
    alg = draw(st.sampled_from(algebras))
    return alg, tuple(draw(st.lists(st.integers(-5, 5), min_size=alg.rank, max_size=alg.rank)))


def _in_chamber(alg, doubled):
    """The g0-dominance inequalities, read off the coordinates directly."""
    a, b = doubled[:alg.n], doubled[alg.n:]
    if any(x < y for x, y in zip(a, a[1:])) or a[-1] < 0:
        return False
    if any(x < y for x, y in zip(b, b[1:-1])):
        return False
    if alg.odd:
        return not b or (b[-1] >= 0 and (alg.m < 2 or b[-2] >= b[-1]))
    return alg.m < 2 or b[-2] >= abs(b[-1])


@settings(max_examples=60, deadline=None)
@given(doubled_weights())
def test_fold_to_dominant_is_a_dominant_orbit_invariant(case):
    alg, w = case
    fold = fold_to_dominant(alg, w)
    assert _in_chamber(alg, fold)
    assert fold_to_dominant(alg, fold) == fold
    for perm, signs, _ in signed_permutations(alg):
        gw = [0] * alg.rank
        for i, x in enumerate(w):
            gw[perm[i]] = signs[i] * x
        assert fold_to_dominant(alg, tuple(gw)) == fold


@settings(max_examples=60, deadline=None)
@given(doubled_weights([alg for alg in FOLD_ALGEBRAS if not alg.odd]))
@example((SPO24, (0, 4, 2)))  # one sign change: another orbit for D2
@example((SPO24, (0, 0, 4)))  # a zero entry absorbs the sign change
def test_fold_to_dominant_keeps_the_D_m_sign_parity(case):
    # for even l, W changes evenly many e-signs: flipping one e-entry leaves
    # the orbit exactly when no e-entry is 0
    alg, w = case
    flipped = w[:-1] + (-w[-1],)
    same = 0 in w[alg.n:]
    assert (fold_to_dominant(alg, w) == fold_to_dominant(alg, flipped)) == same


def test_weight_parse_format_round_trip():
    for text in ["2d1+1e1", "1d1", "0", "3d1-2e1"]:
        w = W(SPO23, text)
        assert W(SPO23, w.format()) == w
    # the pipe separates the d and e sides and reads as a plus
    alg = Algebra.parse("4|3")
    assert W(alg, "2d1+1d2|1e1") == Weight.from_coeffs(alg, [2, 1], [1])
    with pytest.raises(ValueError):
        W(SPO23, "2x1")
    with pytest.raises(ValueError):
        W(SPO23, "1d2")  # out of range


def test_positive_root_tagging():
    pos = positive_roots(SPO23)
    positive = pos.even + pos.odd
    roots = positive + tuple(-r for r in positive)
    assert len(set(roots)) == 10  # 2+2 even, 3+3 odd, the positive half disjoint from the negative
    iso = [r for r in roots if r.pair(r) == 0]
    assert len(iso) == 4
    assert set(iso) <= set(pos.odd) | {-r for r in pos.odd}
    assert set(pos.isotropic) == {r for r in iso if r in positive}


def test_simple_roots_standard():
    labels23 = [r.format() for r in simple_roots(SPO23)]
    assert labels23 == ["1d1-1e1", "1e1"]
    labels24 = [r.format() for r in simple_roots(SPO24)]
    assert labels24 == ["1d1-1e1", "1e1-1e2", "1e1+1e2"]
    labels63 = [r.format() for r in simple_roots(Algebra.parse("6|3"))]
    assert labels63 == ["1d1-1d2", "1d2-1d3", "1d3-1e1", "1e1"]
    labels42 = [r.format() for r in simple_roots(Algebra.parse("4|2"))]
    assert labels42 == ["1d1-1d2", "1d2-1e1", "1d2+1e1"]


@pytest.mark.parametrize("algtxt", ["2|0", "4|0", "2|1", "4|1", "2|2", "4|2", "6|2", "2|3", "4|3", "2|4", "4|4", "4|5"])
def test_simple_roots_are_a_base_of_the_positive_roots(algtxt):
    alg = Algebra.parse(algtxt)
    simples = simple_roots(alg)
    assert len(simples) == alg.rank
    pos = positive_roots(alg)
    roots = pos.even + pos.odd
    # columns: the simple roots, then every positive root; row-reducing
    # expresses each positive root in the simple basis
    rows = [[s.doubled[i] for s in simples] + [r.doubled[i] for r in roots] for i in range(alg.rank)]
    mat, pivots = rref(rows)
    assert pivots == list(range(alg.rank))
    for j in range(len(roots)):
        coords = [mat[i][alg.rank + j] for i in range(alg.rank)]
        assert all(c.denominator == 1 and c >= 0 for c in coords), roots[j].format()
