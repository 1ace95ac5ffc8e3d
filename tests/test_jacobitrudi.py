import pytest

from spochar.jacobitrudi import (
    ext_power_char,
    identity_suite,
    jt_character,
    jt_character_e,
    sym_power_char,
)
from spochar.laurent import LaurentPoly
from spochar.rootdata import Algebra, HookConditionError, fits_hook, partitions_up_to, weyl_group

SPO23 = Algebra.parse("2|3")
SPO25 = Algebra.parse("2|5")
SPO43 = Algebra.parse("4|3")


def test_power_conventions():
    assert sym_power_char(SPO23, 0) == LaurentPoly.one(1, 1)
    assert sym_power_char(SPO23, -2).is_zero()
    assert ext_power_char(SPO23, -1).is_zero()
    assert ext_power_char(SPO23, 1) == sym_power_char(SPO23, 1)


def test_power_dimensions():
    assert sym_power_char(SPO23, 1).evaluate_at_one() == 5
    assert sym_power_char(SPO23, 2).evaluate_at_one() == 12
    assert ext_power_char(SPO23, 2).evaluate_at_one() == 13
    assert ext_power_char(SPO25, 3).evaluate_at_one() == 70


def test_natural_character_terms():
    p1 = sym_power_char(SPO23, 1)
    assert p1.terms == {(2, 0): 1, (-2, 0): 1, (0, 2): 1, (0, 0): 1, (0, -2): 1}


@pytest.mark.parametrize("alg", [SPO23, SPO25, SPO43], ids=str)
def test_generating_function_duality(alg):
    # sum p_r z^r * sum (-1)^r e_r z^r = 1 up to truncation
    order = 7
    for k in range(order + 1):
        total = LaurentPoly.zero(alg.n, alg.m)
        for j in range(k + 1):
            sign = 1 if (k - j) % 2 == 0 else -1
            total = total + sign * (sym_power_char(alg, j) * ext_power_char(alg, k - j))
        assert total == (LaurentPoly.one(alg.n, alg.m) if k == 0 else LaurentPoly.zero(alg.n, alg.m))


def test_symmetric_series_times_denominator_recovers_numerator():
    # the truncated symmetric-power series is the expansion of a rational
    # function: multiplying back by its denominator must recover the
    # numerator degree by degree
    alg = SPO23
    order = 8
    u = LaurentPoly.monomial(1, 1, (2, 0))
    uinv = LaurentPoly.monomial(1, 1, (-2, 0))
    y = LaurentPoly.monomial(1, 1, (0, 2))
    yinv = LaurentPoly.monomial(1, 1, (0, -2))
    one = LaurentPoly.one(1, 1)
    # denominator (1-uz)(1-u^{-1}z) and numerator (1+yz)(1+y^{-1}z)(1+z) as
    # z-coefficient lists
    den = [one, -1 * (u + uinv), one]
    num = [one, y + yinv + one, one + y + yinv, one]
    series = [sym_power_char(alg, r) for r in range(order + 1)]
    for k in range(order + 1):
        conv = LaurentPoly.zero(1, 1)
        for j, d in enumerate(den):
            if j <= k:
                conv = conv + d * series[k - j]
        expected = num[k] if k < len(num) else LaurentPoly.zero(1, 1)
        assert conv == expected, k


def test_jt_examples():
    assert jt_character((1,), SPO23) == sym_power_char(SPO23, 1)
    assert jt_character((2, 1), SPO23).evaluate_at_one() == 35
    assert jt_character((3, 1, 1), SPO23).evaluate_at_one() == 101
    assert jt_character((), SPO23) == LaurentPoly.one(1, 1)


def test_jt_e_form_matches():
    assert jt_character_e((1,), SPO23) == sym_power_char(SPO23, 1)
    e2 = ext_power_char(SPO23, 2) - ext_power_char(SPO23, 0)
    assert jt_character_e((1, 1), SPO23) == e2
    assert jt_character((1, 1), SPO23) == e2


@pytest.mark.parametrize("alg", [SPO23, SPO43], ids=str)
def test_jt_forms_agree_small(alg):
    for lam in partitions_up_to(5):
        if not fits_hook(lam, alg.n, alg.m):
            continue
        assert jt_character(lam, alg) == jt_character_e(lam, alg), lam


def test_jt_weyl_invariance():
    for lam in [(2, 1), (3,), (2, 1, 1)]:
        ch = jt_character(lam, SPO23)
        for g in weyl_group(SPO23):
            assert g.apply_poly(ch) == ch


def test_hook_violation():
    with pytest.raises(HookConditionError):
        jt_character((2, 2), SPO23)  # second part exceeds m=1 below row n=1


def test_identity_suite():
    for n in (1, 2):
        report = identity_suite(n, truncation=10)
        assert all(report.values()), report
    with pytest.raises(ValueError):
        identity_suite(5)
