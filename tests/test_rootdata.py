from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from spochar.charformulas import euler_character, kac_character, levi_character, parabolic_removing
from spochar.rootdata import (
    WEYL_ORDER_LIMIT,
    Algebra,
    DimensionGuard,
    NonIntegralWeight,
    Weight,
    _chamber_fold,
    _dominant_character,
    _factors,
    _g0_factors,
    _permutations,
    _side_orbit,
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
    sign_free_slots,
    simple_roots,
    validate_partition,
    weight_to_partition,
    weyl_act,
    weyl_group,
    weyl_order,
)
from test_linalg import rref

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


@pytest.mark.parametrize(
    "text", ["2|0", "4|0", "2|1", "4|1", "2|2", "4|2", "2|3", "4|3", "6|3", "2|4", "4|4", "8|5"]
)
def test_cached_positive_roots_equal_a_fresh_build(text):
    alg = Algebra.parse(text)
    cached = positive_roots(alg)
    assert positive_roots(Algebra.parse(text)) is cached
    assert cached == positive_roots.__wrapped__(alg)


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


def test_validate_partition_drops_only_trailing_zeros():
    assert validate_partition((3, 1, 0)) == (3, 1)
    assert validate_partition((0,)) == ()
    assert validate_partition(()) == ()
    assert validate_partition(x for x in (2, 2, 1)) == (2, 2, 1)
    for parts in ((2, 0, 1), (0, 1), (1, 2), (2, -1)):
        with pytest.raises(ValueError) as exc:
            validate_partition(iter(parts))  # a generator is named by its parts
        assert str(exc.value) == f"{','.join(map(str, parts))} is not a partition"


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


def _compose(group, g, h):
    """The row of group that is g after h: slot i goes to g's perm[h's
    perm[i]], with h's sign there times g's."""
    perm = tuple(g[0][j] for j in h[0])
    signs = tuple(s * g[1][j] for s, j in zip(h[1], h[0]))
    return next(row for row in group if row[:2] == (perm, signs))


def test_identity_element_sign():
    group = weyl_group(SPO23)
    identity = next(g for g in group if all(weyl_act(g, v) == v for v in [(2, 0), (0, 2)]))
    assert identity[2] == 1


@pytest.mark.parametrize("algtxt", ["2|3", "4|3"])
def test_sign_is_a_homomorphism(algtxt):
    group = weyl_group(Algebra.parse(algtxt))
    for g in group:
        for h in group:
            assert _compose(group, g, h)[2] == g[2] * h[2]


@pytest.mark.parametrize("algtxt", ["2|3", "4|3", "2|4"])
def test_group_permutes_roots_and_preserves_form(algtxt):
    alg = Algebra.parse(algtxt)
    pos = positive_roots(alg)
    roots = {r.doubled for r in pos.even + pos.odd}
    roots |= {tuple(-x for x in r) for r in roots}
    probe = [W(alg, "1d1"), rho0(alg)]
    for g in weyl_group(alg):
        for r in pos.even + pos.odd:
            assert weyl_act(g, r.doubled) in roots
        for u in probe:
            for v in probe:
                assert Weight(alg, weyl_act(g, u.doubled)).pair(Weight(alg, weyl_act(g, v.doubled))) == u.pair(v)


def test_composition_acts_correctly():
    group = weyl_group(SPO43)
    v = (2, 4, 0)
    for g in group[:6]:
        for h in group[:6]:
            assert weyl_act(_compose(group, g, h), v) == weyl_act(g, weyl_act(h, v))


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
    for g in weyl_group(alg):
        assert fold_to_dominant(alg, weyl_act(g, w)) == fold


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


@settings(max_examples=80, deadline=None)
@given(doubled_weights(FOLD_ALGEBRAS + [Algebra.parse(t) for t in ("4|0", "4|1", "4|2")]))
@example((SPO24, (2, 0, -4)))  # D2: one zero entry is regular and absorbs the odd sign change
@example((SPO24, (2, 0, 0)))  # D2: two zeros are a repeated |entry|
@example((SPO24, (2, 4, -4)))  # D2: |4| repeated across signs, fixed by e1 + e2
@example((Algebra.parse("2|2"), (3, -5)))  # D1: no reflection, the sign stays
@example((SPO23, (4, 0)))  # B1: a zero is fixed by the reflection in e1
@example((SPO43, (0, 2, 1)))  # C2: a zero is fixed by the reflection in 2d1
def test_signed_fold_is_the_signed_orbit_fold(case):
    # the fold with its sign on the factors of g0, None for det 0:
    # fold(g w) = (fold(w), det(g) det(w)) for every g in W; None exactly when
    # a non-identity element fixes w; the weight is fold_to_dominant's
    alg, w = case
    group = weyl_group(alg)
    identity = (tuple(range(alg.rank)), (1,) * alg.rank)
    fixed = any(weyl_act(g, w) == w for g in group if g[:2] != identity)

    def signed_fold(alg, w):
        dominant, det = _chamber_fold(_g0_factors(alg), w)
        return (dominant, det) if det else None

    fold = signed_fold(alg, w)
    assert (fold is None) == fixed
    if fold is not None:
        dominant, det = fold
        assert dominant == fold_to_dominant(alg, w)
        # a regular weight has exactly one element that folds it
        assert [g[2] for g in group if weyl_act(g, w) == dominant] == [det]
    for g in group:
        want = None if fold is None else (fold[0], g[2] * fold[1])
        assert signed_fold(alg, weyl_act(g, w)) == want


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


def _kinds(rank, roots):
    return [(slots.start, slots.stop, flips) for slots, _, _, flips in _factors(rank, tuple(roots))]


@pytest.mark.parametrize("algtxt, kinds", [
    ("4|5", [(0, 2, True), (2, 4, True)]),  # C_2 x B_2
    ("4|4", [(0, 2, True), (2, 4, False)]),  # C_2 x D_2
    ("6|6", [(0, 3, True), (3, 6, False)]),  # C_3 x D_3
    ("2|2", [(0, 1, True), (1, 2, None)]),  # C_1 and an e-slot without a root
    ("2|3", [(0, 1, True), (1, 2, True)]),  # C_1 x B_1
    ("4|1", [(0, 2, True)]),  # m = 0
])
def test_factors_of_g0_and_its_sign_free_slots(algtxt, kinds):
    alg = Algebra.parse(algtxt)
    assert _kinds(alg.rank, [r.doubled for r in positive_roots(alg).even]) == kinds
    assert set(sign_free_slots(alg)) == set(range(alg.n + alg.m if alg.odd else alg.n))


def test_factors_of_even_levis():
    def levi(algtxt, removed):
        alg = Algebra.parse(algtxt)
        return alg.rank, [r.doubled for r in parabolic_removing(alg, removed).levi_positive()[0]]

    assert _kinds(*levi("8|7", "d4-e1")) == [(0, 4, None), (4, 7, True)]  # gl(4) + so(7)
    assert _kinds(*levi("6|4", "d1-d2,d3-e1")) == [(0, 1, None), (1, 3, None), (3, 5, False)]
    assert _kinds(*levi("6|0", "d1-d2")) == [(0, 1, None), (1, 3, True)]  # gl(1) + sp(4)
    assert _kinds(*levi("2|5", "d1-e1,e1-e2")) == [(0, 1, None), (1, 2, None), (2, 3, True)]
    # e1 - e2, e2 + e3 (and e1 + e3) span slots 1-3 and read as D until e3 is negated: then A_2
    rank, roots = levi("2|6", "d1-e1,e2-e3")
    assert _kinds(rank, roots) == [(0, 1, None), (1, 4, False)]
    assert _kinds(rank, [r[:-1] + (-r[-1],) for r in roots]) == [(0, 1, None), (1, 4, None)]


# -- the process-wide tables of simple-factor modules and orbits -------------------

FACTOR_TABLES = (_dominant_character, _permutations, _side_orbit)


def test_factor_tables_hand_out_read_only_values():
    # every caller reads the same value: none can change it for the others
    (_, c_roots, c_rho, c_flips), (_, d_roots, _, _) = _g0_factors(Algebra.parse("4|4"))
    mults = _dominant_character((4, 2), c_roots, c_rho, c_flips)
    with pytest.raises(TypeError):
        mults[4, 2] = 2
    with pytest.raises(TypeError):
        del mults[4, 2]
    for orbit in (_permutations((4, 2)), _side_orbit((4, -2), d_roots, False), _side_orbit((4, 2), c_roots, True)):
        with pytest.raises(TypeError):
            orbit[0] = (0, 0)
    assert _dominant_character((4, 2), c_roots, c_rho, c_flips) == {(4, 2): 1, (2, 0): 2}  # sp(4), 2d1 + d2: dim 16
    assert sorted(_side_orbit((4, -2), d_roots, False)) == [(-4, 2), (-2, 4), (2, -4), (4, -2)]


def test_a_non_integral_highest_weight_raises_on_every_call():
    # 3/2 d1 + 1/2 d2 on C_2: the error is raised again, not served from the table
    (_, roots, rho_side, flips), _ = _g0_factors(SPO43)
    for _ in range(2):
        misses = _dominant_character.cache_info().misses
        with pytest.raises(ArithmeticError, match="not an integral highest weight"):
            _dominant_character((3, 1), roots, rho_side, flips)
        assert _dominant_character.cache_info().misses == misses + 1


def test_characters_are_unchanged_by_clearing_the_factor_tables():
    # spo(4|4): C_2 x D_2, so every table is read
    alg = Algebra.parse("4|4")
    p = parabolic_removing(alg, "d1-d2")
    module = levi_character(p, "one_dimensional", W(alg, "2d1+1d2"))
    lam = W(alg, "2d1+1d2+1e1")
    first = kac_character(alg, lam), euler_character(p, module)
    for table in FACTOR_TABLES:
        table.cache_clear()
        assert table.cache_info().currsize == 0
    assert (kac_character(alg, lam), euler_character(p, module)) == first
    assert all(table.cache_info().currsize for table in FACTOR_TABLES)


def test_algebras_with_a_factor_in_common_share_its_entries():
    # the Kac roots of spo(4|3) and spo(6|3) have the same B1 e-side: the
    # second character computes only its B3 d-side module
    for table in FACTOR_TABLES:
        table.cache_clear()
    kac_character(SPO43, W(SPO43, "2d1+1d2+1e1"))
    misses = _dominant_character.cache_info().misses
    spo63 = Algebra.parse("6|3")
    kac_character(spo63, W(spo63, "2d1+1d2+1d3+1e1"))
    assert _dominant_character.cache_info().misses == misses + 1
