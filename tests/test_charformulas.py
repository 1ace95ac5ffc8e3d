import itertools
import random

import pytest

from spochar.charformulas import (
    LeviCharacter,
    LeviMismatch,
    Parabolic,
    SingularVirtualDimension,
    _reflection_group,
    borel,
    denominators,
    euler_character,
    hook_schur_character,
    kac_character,
    levi_character,
    levi_natural_character,
    levi_simple_even_character,
    parabolic_removing,
    root_label,
    vdim_formula,
)
from spochar.jacobitrudi import sym_power_char
from spochar.laurent import (
    FactoredRational,
    LaurentPoly,
    NotDivisible,
    divide_by_binomials,
    exact_div,
    multiply_by_binomials,
    rational_sum,
)
from spochar.rootdata import (
    Algebra,
    Weight,
    antisymmetrize,
    is_dominant,
    positive_roots,
    rho,
    rho0,
    rho1,
    weyl_group,
)

SPO23 = Algebra.parse("2|3")
SPO24 = Algebra.parse("2|4")
SPO25 = Algebra.parse("2|5")
SPO26 = Algebra.parse("2|6")


def W(alg, text):
    return Weight.parse(alg, text)


def test_denominators_spo23():
    d0, d1 = denominators(SPO23)
    assert d1.evaluate_at_one() == 8  # three odd positive roots
    # D0 = (e^{d1} - e^{-d1})(e^{e1/2} - e^{-e1/2})
    expected = (
        LaurentPoly.monomial(1, 1, (2, 0)) - LaurentPoly.monomial(1, 1, (-2, 0))
    ) * (LaurentPoly.monomial(1, 1, (0, 1)) - LaurentPoly.monomial(1, 1, (0, -1)))
    assert d0 == expected


@pytest.mark.parametrize("algtxt", ["2|3", "2|4", "4|3"])
def test_denominator_symmetry(algtxt):
    alg = Algebra.parse(algtxt)
    d0, d1 = denominators(alg)
    for g in weyl_group(alg):
        assert g.apply_poly(d0) == (d0 if g.sign == 1 else -d0)
        assert g.apply_poly(d1) == d1
    # even Weyl denominator identity
    assert d0 == antisymmetrize(alg, rho0(alg))


def test_kac_character_values():
    assert kac_character(SPO23, W(SPO23, "1d1")).evaluate_at_one() == 4
    assert kac_character(SPO23, Weight.zero(SPO23)).evaluate_at_one() == -4
    assert kac_character(SPO23, W(SPO23, "3d1+2e1")).evaluate_at_one() == 100
    # K(1|0) is the natural character minus its zero weight
    k10 = kac_character(SPO23, W(SPO23, "1d1"))
    assert k10 + LaurentPoly.one(1, 1) == sym_power_char(SPO23, 1)


def test_kac_weyl_invariance():
    rng = random.Random(11)
    for text in ["2d1+1e1", "3d1", "1d1+1e1"]:
        ch = kac_character(SPO23, W(SPO23, text))
        for g in rng.sample(weyl_group(SPO23), 4):
            assert g.apply_poly(ch) == ch


def test_kac_warns_on_non_dominant():
    with pytest.warns(UserWarning):
        kac_character(SPO23, W(SPO23, "-1d1"))


def test_borel_euler_equals_kac():
    b = borel(SPO23)
    for text in ["1d1", "2d1+1e1", "0"]:
        lam = W(SPO23, text)
        assert euler_character(b, levi_character(b, "one_dimensional", lam)) == kac_character(SPO23, lam)
    b43 = borel(Algebra.parse("4|3"))
    lam = W(Algebra.parse("4|3"), "2d1+1d2")
    assert euler_character(b43, levi_character(b43, "one_dimensional", lam)) == kac_character(Algebra.parse("4|3"), lam)


def test_euler_trivial_module_gives_constant_two():
    p = parabolic_removing(SPO24, "e1+e2")
    assert euler_character(p, levi_character(p, "trivial")) == 2 * LaurentPoly.one(1, 2)


def test_euler_natural_modules():
    p = parabolic_removing(SPO24, "e1+e2")
    assert euler_character(p, levi_character(p, "natural")) == sym_power_char(SPO24, 1)
    q = parabolic_removing(SPO26, "e2+e3")
    assert euler_character(q, levi_character(q, "natural")) == 2 * sym_power_char(SPO26, 1)
    assert euler_character(q, levi_character(q, "sym_power", 2)) == sym_power_char(SPO26, 2)


def test_levi_natural_weights():
    p = parabolic_removing(SPO24, "e1+e2")
    nat = levi_natural_character(p)
    assert nat.terms == {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}


def test_levi_sym_power_dimension():
    q = parabolic_removing(SPO26, "e2+e3")
    assert levi_character(q, "sym_power", 2).character.evaluate_at_one() == 7


def test_hook_schur_basics():
    q = parabolic_removing(SPO26, "e2+e3")
    assert hook_schur_character(q, (1,)) == levi_natural_character(q)
    assert hook_schur_character(q, ()) == LaurentPoly.one(1, 3)
    # gl(1|1) covariant characters are two-dimensional for nonempty hooks
    p = parabolic_removing(SPO23, "e1")
    hs = hook_schur_character(p, (2, 1))
    assert hs.terms == {(4, 2): 1, (2, 4): 1}
    with pytest.raises(LeviMismatch):
        hook_schur_character(p, (2, 2))  # violates the (1|1) hook


def test_gl_chain_detection_rejects_non_gl_levis():
    p = parabolic_removing(SPO23, "e1")  # retains only d1-e1: gl(1|1), fine
    levi_natural_character(p)
    p2 = parabolic_removing(SPO23, "d1-e1")  # retains e1: so(3), not gl type
    with pytest.raises(LeviMismatch):
        levi_natural_character(p2)


def test_even_simple_levi_character():
    p2 = parabolic_removing(SPO23, "d1-e1")  # Levi gl(1) + so(3)
    ch = levi_simple_even_character(p2, W(SPO23, "2d1+2e1"))
    # e^{2 d1} times the 5-dimensional so(3) character of highest weight 2
    assert ch.evaluate_at_one() == 5
    assert ch.terms == {(4, 4): 1, (4, 2): 1, (4, 0): 1, (4, -2): 1, (4, -4): 1}
    with pytest.raises(LeviMismatch):
        levi_simple_even_character(parabolic_removing(SPO23, "e1"), Weight.zero(SPO23))


def test_parabolic_parsing_and_labels():
    p = parabolic_removing(SPO24, "e1+e2")
    assert p.describe().endswith("remove=e1+e2)")
    assert root_label(W(SPO24, "2d1")) == "2d1"
    with pytest.raises(ValueError):
        parabolic_removing(SPO24, "d1+e1")  # not a simple root


@pytest.mark.parametrize("algtxt", ["2|3", "2|5"])
def test_vdim_formula_matches_character_dimension(algtxt):
    alg = Algebra.parse(algtxt)
    count = 0
    for a in range(7):
        for b1 in range(7 - a):
            for b2 in range(0, 1 if alg.m == 1 else 7 - a - b1):
                coeffs = [b1] if alg.m == 1 else [b1, b2]
                w = Weight.from_coeffs(alg, [a], coeffs)
                if sum([a] + coeffs) > 6 or not is_dominant(w):
                    continue
                v = vdim_formula(alg, w, "classical")
                assert v.denominator == 1
                assert int(v) == kac_character(alg, w).evaluate_at_one(), w.format()
                count += 1
    assert count > 10


def test_vdim_shifted_reading_disagrees():
    # the alternative denominator pairing fails the dimension cross-check
    w = W(SPO23, "1d1")
    assert vdim_formula(SPO23, w, "shifted") == 2
    assert kac_character(SPO23, w).evaluate_at_one() == 4
    with pytest.raises(ValueError):
        vdim_formula(SPO23, w, "bogus")


def test_vdim_singular_input():
    # lam + rho0 = e1 kills the pairing with 2d1 in the shifted reading
    lam = Weight.from_coeffs(SPO24, [-1], [0, 0])
    with pytest.raises(SingularVirtualDimension):
        vdim_formula(SPO24, lam, "shifted")


def test_shift_recursion_sample():
    alg = Algebra.parse("4|3")
    p = parabolic_removing(alg, "d1-d2")
    natural_levi = LaurentPoly.one(2, 1)
    for t in ["1d2", "-1d2", "1e1", "-1e1"]:
        natural_levi = natural_levi + W(alg, t).exponent_monomial()
    lam = W(alg, "3d1")
    e_plain = euler_character(p, levi_character(p, "one_dimensional", lam))
    e_tilde = euler_character(p, lam.exponent_monomial() * natural_levi)
    assert e_tilde == kac_character(alg, lam + W(alg, "1d2")) + e_plain


def test_doubling_remark_sample():
    alg = Algebra.parse("4|3")
    p = parabolic_removing(alg, "d1-d2")
    q = parabolic_removing(alg, "d1-d2,e1")
    lam = W(alg, "2d1")
    ep = euler_character(p, levi_character(p, "one_dimensional", lam))
    eq = euler_character(q, levi_character(q, "one_dimensional", lam))
    assert eq == 2 * ep


# -- differential tests: the binomial-string quotients against the old paths --


def _dominant_weights(alg):
    """Dominant weights with every coefficient in 0..2."""
    out = []
    for c in itertools.product(range(3), repeat=alg.rank):
        w = Weight.from_coeffs(alg, c[:alg.n], c[alg.n:])
        if is_dominant(w):
            out.append(w)
    return out


def _kac_by_definition(alg, lam):
    num = antisymmetrize(alg, lam + rho(alg))
    if num.is_zero():
        return num
    return exact_div(num * denominators(alg)[1], antisymmetrize(alg, rho0(alg)))


KAC_GRID = ["2|0", "4|0", "2|1", "4|1", "6|1", "2|2", "4|2", "2|3", "4|3", "2|4", "4|4", "2|5", "6|3"]


def test_kac_matches_definition_on_weight_grid():
    count = 0
    for text in KAC_GRID:
        alg = Algebra.parse(text)
        for lam in _dominant_weights(alg):
            # the definition's long division costs up to 1 s per spo(6|3)
            # weight; |lam| <= 4 keeps nine of its eighteen
            if text == "6|3" and sum(lam.doubled) > 8:
                continue
            assert kac_character(alg, lam) == _kac_by_definition(alg, lam), (text, lam.format())
            count += 1
    assert count == 110


def _euler_reference(p, module):
    """The Euler character as computed before the binomial-string engine:
    |W| FactoredRational terms summed over a common denominator, the
    denominator cancelled against D1, the rest cleared by one long division.
    Frozen here as the differential test's reference."""
    alg = p.alg
    ch_m = module.character if isinstance(module, LeviCharacter) else module
    _, levi_odd = p.levi_positive()
    base = ch_m.shifted(rho(alg).doubled)
    terms = []
    for w in weyl_group(alg):
        num = w.apply_poly(base)
        factors = {}
        for r in levi_odd:
            mu = tuple(-x for x in w.apply_doubled(r.doubled))
            factors[(1, mu)] = factors.get((1, mu), 0) + 1
        terms.append((w.sign, FactoredRational(num, factors)))
    summed = rational_sum(terms)
    leftover = {}
    for r in positive_roots(alg).odd:
        key = (1, tuple(-x for x in r.doubled))
        leftover[key] = leftover.get(key, 0) + 1
    uncancelled = {}
    for key, cnt in summed.factors.items():
        used = min(leftover.get(key, 0), cnt)
        if used:
            leftover[key] -= used
        if cnt - used:
            uncancelled[key] = cnt - used
    one = LaurentPoly.one(alg.n, alg.m)
    numerator = summed.numerator.shifted(summed.unit_exp, summed.unit_sign).shifted(rho1(alg).doubled)
    numerator = numerator * FactoredRational(one, leftover).denominator_poly()
    denominator = denominators(alg)[0] * FactoredRational(one, uncancelled).denominator_poly()
    return exact_div(numerator, denominator)


EULER_MODULES = [
    ("trivial", None),
    ("one_dimensional", "2d1"),
    ("natural", None),
    ("sym_power", 2),
    ("ext_power", 2),
    ("hook_schur", (2, 1)),
]


def test_euler_matches_rational_sum_on_parabolic_grid():
    count = 0
    for text in ["2|2", "2|3", "4|3", "2|4", "2|5", "4|1"]:
        alg = Algebra.parse(text)
        for removed in itertools.product((False, True), repeat=alg.rank):
            p = Parabolic(alg, frozenset(i for i, r in enumerate(removed) if r))
            for tag, arg in EULER_MODULES:
                if tag == "one_dimensional":
                    arg = W(alg, arg)
                try:
                    module = levi_character(p, tag, arg)
                except LeviMismatch:
                    continue
                assert euler_character(p, module) == _euler_reference(p, module), (p.describe(), tag)
                count += 1
    assert count == 120


def _determinant(perm, signs):
    det = 1
    for s in signs:
        det *= s
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                det = -det
    return det


def test_even_levi_matches_long_division():
    count = 0
    for text in ["2|2", "2|3", "4|3", "2|4", "2|5", "4|1", "6|1"]:
        alg = Algebra.parse(text)
        for removed in itertools.product((False, True), repeat=alg.rank):
            p = Parabolic(alg, frozenset(i for i, r in enumerate(removed) if r))
            even, odd = p.levi_positive()
            if odd:
                continue
            group = _reflection_group(alg, even)
            assert all(det == _determinant(perm, signs) for perm, signs, det in group)

            def antisym(doubled):
                terms = {}
                for perm, signs, det in group:
                    e = [0] * alg.rank
                    for i in range(alg.rank):
                        e[perm[i]] = signs[i] * doubled[i]
                    terms[tuple(e)] = terms.get(tuple(e), 0) + det
                return LaurentPoly(alg.n, alg.m, terms)

            half = [sum(r.doubled[i] for r in even) // 2 for i in range(alg.rank)]
            for c in itertools.product(range(-1, 3), repeat=alg.rank):
                lam = Weight.from_coeffs(alg, c[:alg.n], c[alg.n:])
                ref = exact_div(antisym((lam + Weight(alg, half)).doubled), antisym(half))
                assert levi_simple_even_character(p, lam) == ref, (p.describe(), lam.format())
                count += 1
    assert count == 1104


def test_binomial_division_round_trip_and_failure():
    x = LaurentPoly.monomial(2, 0, (3, -1))
    p = x + 5 * LaurentPoly.monomial(2, 0, (0, 2)) - 2 * LaurentPoly.one(2, 0)
    halves = [(1, 0), (1, -1), (0, 2), (1, 0)]
    prod = p
    for h in halves:
        prod = prod * (LaurentPoly.monomial(2, 0, h) - LaurentPoly.monomial(2, 0, tuple(-v for v in h)))
    assert divide_by_binomials(prod, halves) == p
    assert divide_by_binomials(prod, halves[::-1]) == p
    plus = LaurentPoly.monomial(2, 0, (0, 2)) + LaurentPoly.monomial(2, 0, (0, -2))
    assert multiply_by_binomials(p, [(0, 2)]) == p * plus
    with pytest.raises(NotDivisible):
        divide_by_binomials(plus, [(0, 2)])
    with pytest.raises(NotDivisible):
        divide_by_binomials(prod + LaurentPoly.one(2, 0), halves)
