import hashlib
import itertools
import operator
import random
from fractions import Fraction
from functools import reduce

import pytest

from spochar import charformulas, rootdata
from spochar.acceptance import _delta_chain_parabolic
from spochar.charformulas import (
    LeviCharacter,
    LeviMismatch,
    Parabolic,
    SingularVirtualDimension,
    borel,
    denominators,
    euler_character,
    hook_schur_character,
    kac_character,
    levi_character,
    levi_simple_even_character,
    parabolic_removing,
    vdim_formula,
)
from spochar.jacobitrudi import jt_character, sym_power_char
from spochar.laurent import (
    LatticeMismatch,
    LaurentPoly,
    NotDivisible,
    _unpack,
    exact_div,
    format_exponent,
    times_isotropic,
)
from spochar.rootdata import (
    Algebra,
    Weight,
    _chamber_fold,
    _dominant_character,
    _g0_factors,
    alternating_terms,
    antisymmetrize,
    is_dominant,
    positive_roots,
    rho,
    partitions_up_to,
    rho0,
    weyl_act,
    weyl_character,
    weyl_group,
)
from test_weyl_quotient import _levi_weyl_group, times_binomials

SPO23 = Algebra.parse("2|3")
SPO24 = Algebra.parse("2|4")
SPO25 = Algebra.parse("2|5")
SPO26 = Algebra.parse("2|6")


def W(alg, text):
    return Weight.parse(alg, text)


def _d1(alg):
    """D1: the product over the odd positive roots a of e^{a/2} + e^{-a/2}."""
    out = LaurentPoly.one(alg.n, alg.m)
    for r in positive_roots(alg).odd:
        half = tuple(x // 2 for x in r.doubled)
        out = out * (LaurentPoly.monomial(alg.n, alg.m, half) + LaurentPoly.monomial(alg.n, alg.m, [-x for x in half]))
    return out


def test_denominators_spo23():
    d0 = denominators(SPO23)
    assert _d1(SPO23).evaluate_at_one() == 8  # three odd positive roots
    # D0 = (e^{d1} - e^{-d1})(e^{e1/2} - e^{-e1/2})
    expected = (
        LaurentPoly.monomial(1, 1, (2, 0)) - LaurentPoly.monomial(1, 1, (-2, 0))
    ) * (LaurentPoly.monomial(1, 1, (0, 1)) - LaurentPoly.monomial(1, 1, (0, -1)))
    assert d0 == expected


@pytest.mark.parametrize("algtxt", ["2|3", "2|4", "4|3"])
def test_denominator_symmetry(algtxt):
    alg = Algebra.parse(algtxt)
    d0, d1 = denominators(alg), _d1(alg)
    for g in weyl_group(alg):
        assert d0.map_exponents(lambda e: weyl_act(g, e)) == (d0 if g[2] == 1 else -d0)
        assert d1.map_exponents(lambda e: weyl_act(g, e)) == d1
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
            assert ch.map_exponents(lambda e: weyl_act(g, e)) == ch


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
    nat = levi_character(p, "natural").character
    assert nat.terms == {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}


def test_levi_sym_power_dimension():
    q = parabolic_removing(SPO26, "e2+e3")
    assert levi_character(q, "sym_power", 2).character.evaluate_at_one() == 7


def test_hook_schur_basics():
    q = parabolic_removing(SPO26, "e2+e3")
    assert hook_schur_character(q, (1,)) == levi_character(q, "natural").character
    assert hook_schur_character(q, ()) == LaurentPoly.one(1, 3)
    # gl(1|1) covariant characters are two-dimensional for nonempty hooks
    p = parabolic_removing(SPO23, "e1")
    hs = hook_schur_character(p, (2, 1))
    assert hs.terms == {(4, 2): 1, (2, 4): 1}
    with pytest.raises(LeviMismatch):
        hook_schur_character(p, (2, 2))  # violates the (1|1) hook


def test_gl_chain_detection_rejects_non_gl_levis():
    p = parabolic_removing(SPO23, "e1")  # retains only d1-e1: gl(1|1), fine
    levi_character(p, "natural").character
    p2 = parabolic_removing(SPO23, "d1-e1")  # retains e1: so(3), not gl type
    with pytest.raises(LeviMismatch):
        levi_character(p2, "natural").character


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
    assert format_exponent(W(SPO24, "2d1").doubled, SPO24.n, units=False) == "2d1"
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
    return exact_div(num * _d1(alg), antisymmetrize(alg, rho0(alg)))


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


EULER_MODULES = [
    ("trivial", None),
    ("one_dimensional", "2d1"),
    ("natural", None),
    ("sym_power", 2),
    ("ext_power", 2),
    ("hook_schur", (2, 1)),
]


# (algebra, removed simple roots as a 0/1 mask, module, terms, vdim, first
# 16 hex digits of the sha256 of repr(sorted_terms())) for each case of the
# grid.  Recorded from the retired rational-sum reference: |W| factored
# rational terms summed over a common denominator, the denominator cancelled
# against D1 and the rest cleared by one long division.  It agreed with
# euler_character on all 120 cases before it was deleted; the table keeps
# that independent check without keeping the second code path.
EULER_RECORDED = [
    ('2|2', '00', 'trivial', 1, 1, 'f07bf0c685b4b736'),
    ('2|2', '00', 'one_dimensional', 3, 3, '706f9edd5553d601'),
    ('2|2', '01', 'trivial', 1, 1, 'f07bf0c685b4b736'),
    ('2|2', '01', 'one_dimensional', 5, 5, 'd467746c043498a2'),
    ('2|2', '01', 'natural', 4, 4, '4d1217d31d7cafe9'),
    ('2|2', '01', 'sym_power', 7, 8, 'c9661f3b32178904'),
    ('2|2', '01', 'ext_power', 4, 4, 'f85a4374b7661cae'),
    ('2|2', '01', 'hook_schur', 7, 8, 'd69087276d02f6f7'),
    ('2|2', '10', 'trivial', 1, 1, 'f07bf0c685b4b736'),
    ('2|2', '10', 'one_dimensional', 5, 5, 'd98566b1429ba1f4'),
    ('2|2', '11', 'trivial', 0, 0, '4f53cda18c2baa0c'),
    ('2|2', '11', 'one_dimensional', 7, 8, 'c9661f3b32178904'),
    ('2|3', '00', 'trivial', 1, 1, 'f07bf0c685b4b736'),
    ('2|3', '00', 'one_dimensional', 3, 3, '706f9edd5553d601'),
    ('2|3', '01', 'trivial', 1, 2, 'dfe2ab37b523d75d'),
    ('2|3', '01', 'one_dimensional', 2, 2, 'bb23716a06233db1'),
    ('2|3', '01', 'natural', 4, 4, '4d1217d31d7cafe9'),
    ('2|3', '01', 'sym_power', 11, 12, 'e975778451ef352b'),
    ('2|3', '01', 'ext_power', 11, 12, '2272bc0b05c47a90'),
    ('2|3', '01', 'hook_schur', 21, 36, '564e68285eaf487e'),
    ('2|3', '10', 'trivial', 4, -4, 'f26cbaf033d9823f'),
    ('2|3', '10', 'one_dimensional', 11, 12, 'e975778451ef352b'),
    ('2|3', '11', 'trivial', 4, -4, 'f26cbaf033d9823f'),
    ('2|3', '11', 'one_dimensional', 11, 12, 'e975778451ef352b'),
    ('4|3', '000', 'trivial', 1, 1, '6d6e9acb07675d30'),
    ('4|3', '000', 'one_dimensional', 9, 10, '2e5902bb12d14170'),
    ('4|3', '001', 'trivial', 1, 2, '33db7eedbe86bf70'),
    ('4|3', '001', 'one_dimensional', 23, 38, 'a6e4426a97c55937'),
    ('4|3', '001', 'natural', 7, 14, '7260bd62c7121a29'),
    ('4|3', '001', 'sym_power', 23, 50, '69f4b5eb0b63ee5f'),
    ('4|3', '001', 'ext_power', 15, 16, '9a6389a991544448'),
    ('4|3', '001', 'hook_schur', 53, 80, '3bbf862b6af22b21'),
    ('4|3', '010', 'trivial', 0, 0, '4f53cda18c2baa0c'),
    ('4|3', '010', 'one_dimensional', 53, -80, '4cc4f3a3ad0fa632'),
    ('4|3', '011', 'trivial', 0, 0, '4f53cda18c2baa0c'),
    ('4|3', '011', 'one_dimensional', 53, -80, '4cc4f3a3ad0fa632'),
    ('4|3', '011', 'natural', 15, -16, '5ce2d951936017a6'),
    ('4|3', '011', 'sym_power', 53, -80, '4cc4f3a3ad0fa632'),
    ('4|3', '011', 'ext_power', 15, 16, '9a6389a991544448'),
    ('4|3', '011', 'hook_schur', 53, 80, '3bbf862b6af22b21'),
    ('4|3', '100', 'trivial', 1, 1, '6d6e9acb07675d30'),
    ('4|3', '100', 'one_dimensional', 23, 25, '1c5b2d5c9cc8b85c'),
    ('4|3', '101', 'trivial', 1, 2, '33db7eedbe86bf70'),
    ('4|3', '101', 'one_dimensional', 23, 50, '69f4b5eb0b63ee5f'),
    ('4|3', '101', 'natural', 0, 0, '4f53cda18c2baa0c'),
    ('4|3', '101', 'sym_power', 15, -16, '5ce2d951936017a6'),
    ('4|3', '101', 'ext_power', 0, 0, '4f53cda18c2baa0c'),
    ('4|3', '101', 'hook_schur', 39, -48, '5356bff5e7c5b843'),
    ('4|3', '110', 'trivial', 0, 0, '4f53cda18c2baa0c'),
    ('4|3', '110', 'one_dimensional', 53, -80, '4cc4f3a3ad0fa632'),
    ('4|3', '111', 'trivial', 0, 0, '4f53cda18c2baa0c'),
    ('4|3', '111', 'one_dimensional', 53, -80, '4cc4f3a3ad0fa632'),
    ('2|4', '000', 'trivial', 1, 1, '6d6e9acb07675d30'),
    ('2|4', '000', 'one_dimensional', 3, 3, '5df691c83e8cafe4'),
    ('2|4', '001', 'trivial', 1, 2, '33db7eedbe86bf70'),
    ('2|4', '001', 'one_dimensional', 2, 2, '80fc88d98b1aeff1'),
    ('2|4', '001', 'natural', 6, 6, 'cf9acd1b2c8311fb'),
    ('2|4', '001', 'sym_power', 15, 16, '8ed48142e377b195'),
    ('2|4', '001', 'ext_power', 17, 18, '07bda6c998d0c6ee'),
    ('2|4', '001', 'hook_schur', 38, 64, '9770579222dc2ecd'),
    ('2|4', '010', 'trivial', 1, 2, '33db7eedbe86bf70'),
    ('2|4', '010', 'one_dimensional', 2, 2, '80fc88d98b1aeff1'),
    ('2|4', '011', 'trivial', 1, 2, '33db7eedbe86bf70'),
    ('2|4', '011', 'one_dimensional', 2, 2, '80fc88d98b1aeff1'),
    ('2|4', '011', 'natural', 0, 0, '4f53cda18c2baa0c'),
    ('2|4', '011', 'sym_power', 15, 16, '8ed48142e377b195'),
    ('2|4', '011', 'ext_power', 0, 0, '4f53cda18c2baa0c'),
    ('2|4', '011', 'hook_schur', 38, 64, '9770579222dc2ecd'),
    ('2|4', '100', 'trivial', 15, -16, '40a5530f05a8a366'),
    ('2|4', '100', 'one_dimensional', 15, 16, '8ed48142e377b195'),
    ('2|4', '101', 'trivial', 15, -16, '40a5530f05a8a366'),
    ('2|4', '101', 'one_dimensional', 15, 16, '8ed48142e377b195'),
    ('2|4', '101', 'natural', 38, -64, '69e18f61448e66d1'),
    ('2|4', '101', 'sym_power', 33, -48, '1417fbb8914c3c29'),
    ('2|4', '101', 'ext_power', 71, -144, 'fa07f15c0a1d3f2e'),
    ('2|4', '101', 'hook_schur', 66, -128, '2329f30061edf8d1'),
    ('2|4', '110', 'trivial', 15, -16, '40a5530f05a8a366'),
    ('2|4', '110', 'one_dimensional', 15, 16, '8ed48142e377b195'),
    ('2|4', '111', 'trivial', 15, -16, '40a5530f05a8a366'),
    ('2|4', '111', 'one_dimensional', 15, 16, '8ed48142e377b195'),
    ('2|5', '000', 'trivial', 1, 1, '6d6e9acb07675d30'),
    ('2|5', '000', 'one_dimensional', 3, 3, '5df691c83e8cafe4'),
    ('2|5', '001', 'trivial', 1, 2, '33db7eedbe86bf70'),
    ('2|5', '001', 'one_dimensional', 2, 2, '80fc88d98b1aeff1'),
    ('2|5', '001', 'natural', 7, 14, '7260bd62c7121a29'),
    ('2|5', '001', 'sym_power', 15, 16, '8ed48142e377b195'),
    ('2|5', '001', 'ext_power', 23, 50, 'bf1055976384f9bc'),
    ('2|5', '001', 'hook_schur', 53, 80, '271582da0035b8ae'),
    ('2|5', '010', 'trivial', 1, 2, '33db7eedbe86bf70'),
    ('2|5', '010', 'one_dimensional', 2, 2, '80fc88d98b1aeff1'),
    ('2|5', '011', 'trivial', 1, 2, '33db7eedbe86bf70'),
    ('2|5', '011', 'one_dimensional', 2, 2, '80fc88d98b1aeff1'),
    ('2|5', '011', 'natural', 15, -16, '40a5530f05a8a366'),
    ('2|5', '011', 'sym_power', 15, 16, '8ed48142e377b195'),
    ('2|5', '011', 'ext_power', 53, -80, '7fdb6ac1439f6a2c'),
    ('2|5', '011', 'hook_schur', 53, 80, '271582da0035b8ae'),
    ('2|5', '100', 'trivial', 39, -48, '005925eafa383583'),
    ('2|5', '100', 'one_dimensional', 15, 16, '8ed48142e377b195'),
    ('2|5', '101', 'trivial', 39, -48, '005925eafa383583'),
    ('2|5', '101', 'one_dimensional', 15, 16, '8ed48142e377b195'),
    ('2|5', '101', 'natural', 99, -240, 'b986d21dd07b882d'),
    ('2|5', '101', 'sym_power', 135, -480, '8e67fcf9f30b8273'),
    ('2|5', '101', 'ext_power', 187, -672, '0827e4ae3c9d3f77'),
    ('2|5', '101', 'hook_schur', 251, -1680, 'b9c3882d7b1d1997'),
    ('2|5', '110', 'trivial', 39, -48, '005925eafa383583'),
    ('2|5', '110', 'one_dimensional', 15, 16, '8ed48142e377b195'),
    ('2|5', '111', 'trivial', 39, -48, '005925eafa383583'),
    ('2|5', '111', 'one_dimensional', 15, 16, '8ed48142e377b195'),
    ('4|1', '00', 'trivial', 1, 1, 'f07bf0c685b4b736'),
    ('4|1', '00', 'one_dimensional', 9, 10, 'a6ca5ed09af42bf3'),
    ('4|1', '01', 'trivial', 1, 1, 'f07bf0c685b4b736'),
    ('4|1', '01', 'one_dimensional', 13, 14, 'bfa1637f8b85bdb5'),
    ('4|1', '01', 'natural', 5, 5, 'ce5d3702af3b3683'),
    ('4|1', '01', 'sym_power', 13, 14, 'bfa1637f8b85bdb5'),
    ('4|1', '01', 'ext_power', 9, 10, '94568437af4dcf99'),
    ('4|1', '01', 'hook_schur', 21, 35, '699325f859d47b18'),
    ('4|1', '10', 'trivial', 1, 1, 'f07bf0c685b4b736'),
    ('4|1', '10', 'one_dimensional', 13, 14, 'bfa1637f8b85bdb5'),
    ('4|1', '11', 'trivial', 1, 1, 'f07bf0c685b4b736'),
    ('4|1', '11', 'one_dimensional', 13, 14, 'bfa1637f8b85bdb5'),
]


def _digest(ch):
    return hashlib.sha256(repr(ch.sorted_terms()).encode()).hexdigest()[:16]


EULER_GRID = ["2|2", "2|3", "4|3", "2|4", "2|5", "4|1"]

# l = 1, 2, 3 and 4 at a second d-rank: B_m and D_m sides of rank 0-2, and C_n
# sides of rank 2 and 3
EULER_WIDE_GRID = ["4|2", "4|4", "6|1", "6|2", "6|3"]


def _euler_grid(algebras=EULER_GRID):
    """(algebra, removed mask, module tag, parabolic, module) over every
    parabolic of the given algebras and every Levi module that fits."""
    for text in algebras:
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
                yield text, "".join("1" if r else "0" for r in removed), tag, p, module


def test_euler_matches_recorded_table_on_parabolic_grid():
    got = []
    for text, mask, tag, p, module in _euler_grid():
        ch = euler_character(p, module)
        got.append((text, mask, tag, len(ch), ch.evaluate_at_one(), _digest(ch)))
    assert len(got) == 120
    assert got == EULER_RECORDED


# -- Euler characters against the unfolded W-sum ------------------------------------


def _weyl_quotient(n, m, terms, group, divide=(), multiply=(), integral=None):
    """Frozen copy of the packed W-sum kernel `laurent.weyl_quotient` that
    Kac, Euler and even-Levi characters were computed with before they moved
    to Weyl characters on dominant weights:
    sum_g det(g) g(x^terms) / prod_h (x^h - x^-h) * prod_k (x^k + x^-k).
    The reference of the tests below; do not fold, and do not replace the
    W-sum."""
    rank = n + m
    if not terms:
        return LaurentPoly._wrap(n, m, {})
    # quotients stay inside the input's exponent box, products grow by the
    # halves' sizes, and string keys are input exponents moved along 2h by
    # at most 2*size/|2h_i0| + 1 steps
    size = max(max(map(abs, e)) for e in terms)
    grown = size + sum(max(map(abs, k)) for k in multiply)
    keys = max((2 * (size + 1) * (max(map(abs, h)) + 1) for h in divide), default=0)
    width = max(grown.bit_length() + 1, keys.bit_length(), 2)
    shifts = [width * i for i in range(rank)]
    offset = 1 << (width - 1)
    mask = (1 << width) - 1
    fields = [(s, mask, -offset) for s in shifts]

    base = sum(offset << s for s in shifts)
    acc = {}
    get = acc.get
    items = list(terms.items())
    for perm, signs, det in group:
        gw = [sign << shifts[p] for p, sign in zip(perm, signs)]
        for e, c in items:
            k = sum(map(operator.mul, e, gw)) + base
            acc[k] = get(k, 0) + det * c
    acc = {k: c for k, c in acc.items() if c}

    for h in divide:
        i0 = next((i for i, x in enumerate(h) if x), None)
        if i0 is None:
            raise ZeroDivisionError("x^0 - x^0 is the zero polynomial")
        acc = _divide_strings(acc, h, i0, sum(map(operator.lshift, h, shifts)), fields)
    for h in multiply:
        packed_h = sum(map(operator.lshift, h, shifts))
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

    if integral and reduce(operator.or_, acc, 0) & sum(1 << s for s in shifts):
        raise ArithmeticError(f"{integral} came out non-integral")
    return LaurentPoly._wrap(n, m, dict(zip(_unpack(acc, fields), acc.values())))


def _divide_strings(acc, h, i0, packed_h, fields):
    """Packed terms acc / (x^h - x^-h), string by string (see _weyl_quotient)."""
    shift, mask, _ = fields[i0]
    step = 2 * h[i0]
    two_h = 2 * packed_h
    strings = {}  # key -> {position: coefficient}
    for k, c in acc.items():
        t = (k >> shift & mask) // step
        key = k - t * two_h
        coefs = strings.get(key)
        if coefs is None:
            strings[key] = {t: c}
        else:
            coefs[t] = c
    quot = {}
    for key, coefs in strings.items():
        if sum(coefs.values()):  # the running sum at the bottom of the string
            (e,) = _unpack([key + min(coefs) * two_h], fields)
            raise NotDivisible(f"string through {e} does not clear x^{tuple(h)} - x^-{tuple(h)}")
        ts = sorted(coefs, reverse=True)
        run = 0
        for t, below in zip(ts, ts[1:]):
            run += coefs[t]
            if run:  # the quotient terms at positions t down to below + 1
                k = key + (2 * t - 1) * packed_h
                for _ in range(t - below):
                    quot[k] = run
                    k -= two_h
    return quot


def _euler_unfolded(p, module):
    """Frozen copy of euler_character before its numerator was folded into
    the dominant chamber and its quotient taken by g0-characters: every term
    of e^{rho0} ch M prod (1 + e^{-a}) is summed over all of W and divided
    by D0.  The reference of the tests below; do not fold, and do not
    replace the W-sum."""
    alg = p.alg
    ch_m = module.character if isinstance(module, LeviCharacter) else module
    _, levi_odd = p.levi_positive()
    f = ch_m * LaurentPoly.monomial(alg.n, alg.m, rho0(alg).doubled)
    for a in positive_roots(alg).odd:
        if a not in levi_odd:
            f = f + f * LaurentPoly.monomial(alg.n, alg.m, tuple(-x for x in a.doubled))
    halves = [tuple(x // 2 for x in r.doubled) for r in reversed(positive_roots(alg).even)]
    return _weyl_quotient(alg.n, alg.m, f.terms, weyl_group(alg), halves, integral="Euler character")


def _fold_terms(alg, terms):
    out = {}
    for e, c in terms.items():
        dominant, det = _chamber_fold(_g0_factors(alg), e)
        if det:
            out[dominant] = out.get(dominant, 0) + det * c
    return {e: c for e, c in out.items() if c}


def _clear_factor_tables():
    """Empty the process-wide tables of rootdata's simple-factor modules and
    orbits."""
    for table in (rootdata._dominant_character, rootdata._orbit):
        table.cache_clear()


def test_folded_euler_matches_unfolded_on_parabolic_grid():
    # the signed sums of g0-characters against the W-sum they replaced, on
    # every parabolic of eleven algebras; first each case on empty factor
    # tables, then every case again on the tables the whole grid filled
    cases = [(case, _euler_unfolded(*case[3:])) for case in _euler_grid(EULER_GRID + EULER_WIDE_GRID)]
    assert len(cases) == 344
    for cold in (True, False):
        for (text, mask, tag, p, module), want in cases:
            if cold:
                _clear_factor_tables()
            assert euler_character(p, module) == want, (text, mask, tag, cold)


@pytest.mark.parametrize("algtxt", ["6|3", "8|3"])
def test_folded_euler_matches_unfolded_on_the_delta_chain(algtxt):
    # the Euler = Jacobi-Trudi parabolic: the Levi keeps the d-chain
    alg = Algebra.parse(algtxt)
    p = parabolic_removing(alg, [f"d{i + 1}-d{i + 2}" for i in range(alg.n - 1)])
    lams = [lam for lam in partitions_up_to(6, 3) if all(x <= y for x, y in zip(lam, (3, 2, 1)))]
    assert len(lams) == 14
    for lam in lams:
        w = Weight.from_coeffs(alg, list(lam) + [0] * (alg.n - len(lam)))
        module = levi_character(p, "one_dimensional", w)
        assert euler_character(p, module) == _euler_unfolded(p, module), lam


def test_euler_equals_jacobi_trudi_on_the_spo_10_3_delta_chain():
    # an oracle independent of both Euler paths: the paper's identity for
    # spo(2n|3), at a rank whose W-sum (|W| = 7680) took seconds per weight
    alg = Algebra.parse("10|3")
    p = _delta_chain_parabolic(alg)
    lams = [lam for lam in partitions_up_to(6, 4) if lam]
    assert len(lams) == 26
    for lam in lams:
        w = Weight.from_coeffs(alg, list(lam) + [0] * (alg.n - len(lam)))
        assert euler_character(p, levi_character(p, "one_dimensional", w)) == jt_character(lam, alg), lam


@pytest.mark.parametrize("algtxt", ["8|1", "4|2", "6|3", "4|6", "4|7", "2|8"])
def test_g0_character_matches_the_weyl_sum(algtxt):
    # sums of A(e^nu) / D on random strictly dominant nu, against the frozen
    # W-sum: the even roots (C_4, B_3 and D_4 sides, D_m last entries of both
    # signs) and, for odd l, the Kac roots, where d_i replaces 2d_i (a B_n
    # side with half-integral rho)
    alg = Algebra.parse(algtxt)
    even = tuple(r.doubled for r in positive_roots(alg).even)
    systems = [even]
    if alg.odd:
        systems.append(tuple(_half(r) if any(r[:alg.n]) and sum(map(bool, r)) == 1 else r for r in even))
    rng = random.Random(algtxt)
    negative_last = 0
    for roots in systems:
        r0 = [sum(col) // 2 for col in zip(*roots)]
        halves = [_half(r) for r in roots]
        for _ in range(8):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                d = sorted((2 * rng.randint(0, 2) for _ in range(alg.n)), reverse=True)
                e = sorted((2 * rng.randint(0, 3) for _ in range(alg.m)), reverse=True)
                if e and not alg.odd and rng.random() < 0.5:
                    e[-1] = -e[-1]
                    negative_last += e[-1] < 0
                nu = tuple(x + y for x, y in zip(d + e, r0))
                terms[nu] = terms.get(nu, 0) + rng.choice((-2, -1, 1, 3))
            terms = {nu: c for nu, c in terms.items() if c}
            want = _weyl_quotient(alg.n, alg.m, terms, weyl_group(alg), halves)
            assert weyl_character(alg, terms, roots) == want, terms
        with pytest.raises(ArithmeticError):
            weyl_character(alg, {tuple(x + (i == 0) for i, x in enumerate(r0)): 1}, roots)
    assert negative_last or alg.odd or alg.m < 2
    assert len(systems) == 1 + alg.odd


def _half(doubled):
    return tuple(x // 2 for x in doubled)


def _kac_frozen(alg, lam):
    """The Kac character as the frozen W-sum computed it: the alternating sum
    divided by D0 after the odd-l cancellation, times the isotropic
    binomials of D1."""
    pos = positive_roots(alg)
    short = {a.doubled for a in pos.odd if a not in pos.isotropic}
    divide = []
    for r in pos.even:
        h = _half(r.doubled)
        divide.append(_half(h) if h in short else h)
    multiply = [_half(a.doubled) for a in pos.odd if a in pos.isotropic]
    numerator = {(lam + rho(alg)).doubled: 1}
    return _weyl_quotient(alg.n, alg.m, numerator, weyl_group(alg), divide, multiply, integral="Kac character")


def _kac_outcome(fn, alg, lam):
    try:
        return fn(alg, lam)
    except ArithmeticError:
        return "ArithmeticError"


def test_kac_matches_the_frozen_w_sum_off_the_dominant_chamber():
    # every weight of KAC_GRID with coefficients -1, -1/2, ..., 2: dominant,
    # non-dominant, half-integral and singular ones give the same character,
    # or ArithmeticError from both
    outcomes = {}
    for text in KAC_GRID:
        alg = Algebra.parse(text)
        for c in itertools.product(range(-2, 5), repeat=alg.rank):
            lam = Weight(alg, c)
            want = _kac_outcome(_kac_frozen, alg, lam)
            if lam.is_integral() and not is_dominant(lam):
                with pytest.warns(UserWarning, match="is not dominant"):
                    got = _kac_outcome(kac_character, alg, lam)
            else:
                got = _kac_outcome(kac_character, alg, lam)
            assert got == want, (text, lam.format())
            kind = "error" if want == "ArithmeticError" else "zero" if want.is_zero() else "character"
            outcomes[kind] = outcomes.get(kind, 0) + 1
    assert outcomes == {"character": 364, "error": 2784, "zero": 3579}


def _frozen_side_orbit(mu, roots, flips):
    """Frozen copy of `rootdata._side_orbit`, the orbit lister of one side of
    g0 before `rootdata._orbit` replaced it, without its table: the distinct
    signed permutations of a dominant doubled weight, evenly many sign
    changes on D_m (flips False), the trivial group without roots."""
    if not roots:
        return (mu,)
    if len(mu) == 1:
        return ((mu[0],), (-mu[0],)) if mu[0] else (mu,)
    images = {()}
    for x in map(abs, mu):  # insert each entry, with either sign, at every place
        images = {w[:i] + (y,) + w[i:] for w in images for i in range(len(w) + 1) for y in (x, -x)}
    if flips or 0 in mu:
        return tuple(images)
    parity = mu[-1] < 0
    return tuple(w for w in images if sum(map((0).__gt__, w)) % 2 == parity)


def _frozen_weyl_character(alg, numerator, roots):
    """The Weyl character as `rootdata.weyl_character` computed it before
    the orthant split: each dominant weight expanded to its whole W-orbit
    (frozen, body verbatim but for the calls into rootdata, which take the
    function behind its table of factor modules and the frozen orbit lister
    `_frozen_side_orbit`, so that the gate reads none of the tables it
    checks)."""
    r0 = [sum(r[i] for r in roots) // 2 for i in range(alg.rank)]
    sides = []  # (slots, positive roots, rho, flips, {highest weight: table})
    for slots, flips in ((slice(0, alg.n), True), (slice(alg.n, None), alg.odd)):
        sides.append((slots, tuple(r[slots] for r in roots if any(r[slots])), tuple(r0[slots]), flips, {}))
    dominant = {}
    for nu, c in numerator.items():
        lam = tuple(map(operator.sub, nu, r0))
        if any(x % 2 for x in lam):
            raise ArithmeticError(f"{format_exponent(lam, alg.n)} is not an integral highest weight")
        tables = []
        for slots, side_roots, rho_side, flips, memo in sides:
            top = lam[slots]
            if top not in memo:
                memo[top] = _dominant_character.__wrapped__(top, side_roots, rho_side, flips)
            tables.append(memo[top])
        for mu_d, a in tables[0].items():
            for mu_e, b in tables[1].items():
                key = mu_d, mu_e
                dominant[key] = dominant.get(key, 0) + c * a * b
    live = {key: c for key, c in dominant.items() if c}
    (_, roots_d, *_), (_, roots_e, *_) = sides
    orbits_d = {mu_d: _frozen_side_orbit(mu_d, roots_d, True) for mu_d in {mu_d for mu_d, _ in live}}
    orbits_e = {mu_e: _frozen_side_orbit(mu_e, roots_e, alg.odd) for mu_e in {mu_e for _, mu_e in live}}
    out = {}
    for (mu_d, mu_e), c in live.items():
        for x in orbits_d[mu_d]:
            for y in orbits_e[mu_e]:
                out[x + y] = c
    return LaurentPoly._wrap(alg.n, alg.m, out)


def _kac_binomial_path(alg, lam):
    """The Kac character as the parent path computed it: the frozen
    `weyl_character` on the roots of so(2n+1) + so(l) (l odd) or g0 (l even),
    times every isotropic binomial with the frozen `times_binomials`."""
    hit = _chamber_fold(_g0_factors(alg), (lam + rho(alg)).doubled)
    if not hit[1]:
        return LaurentPoly.zero(alg.n, alg.m)
    pos = positive_roots(alg)
    short = {a.doubled for a in pos.odd if a not in pos.isotropic}
    roots = tuple(_half(r.doubled) if _half(r.doubled) in short else r.doubled for r in pos.even)
    halves = tuple(_half(a.doubled) for a in pos.isotropic)
    return times_binomials(_frozen_weyl_character(alg, {hit[0]: hit[1]}, roots), halves)


KAC_RANDOM_GRID = ["2|2", "4|2", "6|2", "2|3", "4|3", "6|3", "2|4", "4|4", "6|4", "2|5", "4|5", "2|6", "4|6", "2|7",
                   "4|7", "2|8", "6|5", "8|3"]


def _random_dominant(alg, rng):
    """A random dominant weight with a_i <= 4 and |b_j| <= 3.  For even l,
    half of them have a negative D_m last entry, which the hook condition
    allows only with a_n >= m and every b_j nonzero."""
    negative = not alg.odd and alg.m and rng.random() < 0.5
    while True:
        a = sorted((rng.randint(alg.m if negative else 0, 4) for _ in range(alg.n)), reverse=True)
        b = sorted((rng.randint(1 if negative else 0, 3) for _ in range(alg.m)), reverse=True)
        if negative:
            b[-1] = -b[-1]
        lam = Weight.from_coeffs(alg, a, b)
        if is_dominant(lam):
            return lam


@pytest.mark.parametrize("algtxt", KAC_RANDOM_GRID)
def test_kac_matches_the_frozen_binomial_path_on_random_dominant_weights(algtxt):
    # 25 random dominant weights per algebra against the parent path, and the
    # Euler route, weyl_character on the even roots, against its frozen copy;
    # first each weight on empty factor tables, then every weight again on
    # the tables the whole draw filled
    alg = Algebra.parse(algtxt)
    rng = random.Random(algtxt)
    even = tuple(r.doubled for r in positive_roots(alg).even)
    cases = []
    for _ in range(25):
        lam = _random_dominant(alg, rng)
        top = {(lam + rho0(alg)).doubled: rng.choice((-2, 1))}
        cases.append((lam, _kac_binomial_path(alg, lam), top, _frozen_weyl_character(alg, top, even)))
    for cold in (True, False):
        for lam, kac, top, weyl in cases:
            if cold:
                _clear_factor_tables()
            assert kac_character(alg, lam) == kac, (lam.format(), cold)
            assert weyl_character(alg, top, even) == weyl, (lam.format(), cold)
    negative_last = sum(lam.doubled[-1] < 0 and not alg.odd for lam, *_ in cases)
    assert (negative_last > 5) == (not alg.odd)


def test_spo85_frontier_kac_character():
    alg = Algebra.parse("8|5")
    lam = W(alg, "4d1+3d2+2d3+2d4+1e1")
    ch = kac_character(alg, lam)
    assert len(ch) == 213117
    assert ch.evaluate_at_one() == 75694080 == vdim_formula(alg, lam)
    assert ch == _kac_binomial_path(alg, lam)


def test_euler_character_runs_no_weyl_sum(monkeypatch):
    # references first: the frozen W-sum on spo(4|2) and the recorded table
    # on spo(2|2), both l = 2 (a D_1 side without roots), the frozen Kac
    # W-sum on dominant weights of three algebras, l odd and even, and the
    # frozen Levi W-sum on the even Levis of spo(2|4) and spo(4|3); then
    # every W-sum of rootdata refuses, where the character formulas find it
    cases = [(p, module, _euler_unfolded(p, module)) for _, _, _, p, module in _euler_grid(["4|2"])]
    recorded = [row for row in EULER_RECORDED if row[0] == "2|2"]
    kac_cases = [(alg, lam, _kac_frozen(alg, lam))
                 for alg in map(Algebra.parse, ["4|3", "2|5", "4|2"]) for lam in _dominant_weights(alg)]
    levi_cases = [(p, lam, _even_levi_frozen(p, lam)) for p, lam in _even_levi_grid(["2|4", "4|3"], range(0, 2))]

    def refuse(*args, **kwargs):
        raise AssertionError("a character formula enumerated W")

    for name in ("weyl_group", "alternating_terms"):
        monkeypatch.setattr(rootdata, name, refuse)
    alg = Algebra.parse("6|3")
    p = _delta_chain_parabolic(alg)
    for lam in [(1,), (2, 1), (3, 2)]:
        w = Weight.from_coeffs(alg, list(lam) + [0] * (alg.n - len(lam)))
        assert euler_character(p, levi_character(p, "one_dimensional", w)) == jt_character(lam, alg), lam
    assert all(euler_character(p, module) == want for p, module, want in cases) and len(cases) == 28
    got = []
    for text, mask, tag, p, module in _euler_grid(["2|2"]):
        ch = euler_character(p, module)
        got.append((text, mask, tag, len(ch), ch.evaluate_at_one(), _digest(ch)))
    assert got == recorded
    assert all(kac_character(alg, lam) == want for alg, lam, want in kac_cases) and len(kac_cases) == 34
    assert all(levi_simple_even_character(p, lam) == want for p, lam, want in levi_cases) and len(levi_cases) == 64


def test_euler_character_refuses_a_module_of_another_lattice():
    # the numerator shift zips rho0 with the module's exponents, so a module
    # of another (n|m) lattice would give a wrong character
    p = borel(Algebra.parse("4|3"))
    with pytest.raises(LatticeMismatch, match=r"\(1\|1\) lattice for spo\(4\|3\)"):
        euler_character(p, LaurentPoly.one(1, 1))
    for n, m in [(2, 0), (1, 2)]:  # rank 2, and rank 3 on the wrong split
        with pytest.raises(LatticeMismatch):
            euler_character(p, levi_character(p, "explicit", LaurentPoly.one(n, m)))
    trivial = levi_character(p, "trivial")
    assert euler_character(p, levi_character(p, "explicit", LaurentPoly.one(2, 1))) == euler_character(p, trivial)


def test_euler_of_an_even_levi_simple_module_is_that_of_its_highest_weight():
    # E^p(L_L(lam)) = E^p(e^lam) when the Levi has no odd roots: the odd
    # factor h = prod (1 + e^{-a}) is W_L-invariant, the sum over W_L of
    # det(w) w(e^{rho0}) is e^{rho0 - rho_L} D_L, and
    # ch L_L(lam) D_L = A_L(e^{lam + rho_L}); an oracle for
    # levi_simple_even_character that shares none of its code
    count = 0
    for text in ["2|3", "4|3", "2|4", "2|5", "4|2", "4|1"]:
        alg = Algebra.parse(text)
        for removed in itertools.product((False, True), repeat=alg.rank):
            p = Parabolic(alg, frozenset(i for i, r in enumerate(removed) if r))
            if p.levi_positive()[1]:
                continue
            for c in itertools.product(range(-1, 3), repeat=alg.rank):
                lam = Weight.from_coeffs(alg, c[:alg.n], c[alg.n:])
                simple = euler_character(p, levi_character(p, "even_simple", lam))
                assert simple == euler_character(p, levi_character(p, "one_dimensional", lam)), (p.describe(), c)
                count += 1
    assert count == 960


@pytest.mark.parametrize("algtxt", ["2|2", "2|4", "4|4", "6|6", "4|3"])
def test_folding_keeps_the_alternating_sum(algtxt):
    # A(w) = det(u) A(u w), and A(w) = 0 when a reflection fixes w: on random
    # numerators, with zeros, repeated absolute values and half exponents
    alg = Algebra.parse(algtxt)
    group = weyl_group(alg)
    rng = random.Random(algtxt)
    singular = regular = 0
    for _ in range(12):
        terms = {}
        for _ in range(rng.randint(1, 12)):
            e = tuple(rng.choice((0, 1, -1, 2, -2, 3, -4)) for _ in range(alg.rank))
            terms[e] = rng.randint(-5, 5) or 1
        folded = _fold_terms(alg, terms)
        dets = [_chamber_fold(_g0_factors(alg), e)[1] for e in terms]
        singular += dets.count(0)
        regular += len(dets) - dets.count(0)
        assert _weyl_quotient(alg.n, alg.m, folded, group) == _weyl_quotient(alg.n, alg.m, terms, group)
    assert singular and regular


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
    for text in ["2|2", "2|3", "4|3", "2|4", "2|5", "4|1", "6|1", "2|6"]:
        alg = Algebra.parse(text)
        for removed in itertools.product((False, True), repeat=alg.rank):
            p = Parabolic(alg, frozenset(i for i, r in enumerate(removed) if r))
            even, odd = p.levi_positive()
            if odd:
                continue
            group = _levi_weyl_group(p)
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
    assert count == 1104 + 2048  # spo(2|6): the one 3-slot chain e1 - e2, e2 + e3 not of differences


def _even_levi_frozen(p, lam):
    """Frozen copy of `levi_simple_even_character` before it moved to
    `weyl_character`: the alternating sum over the Levi's Weyl group (the
    frozen `_levi_weyl_group`, a filter of W) divided by the binomials of
    the Levi's even positive roots, one `exact_div` at a time.  The
    reference of the tests here; do not replace the W-sum."""
    even, odd = p.levi_positive()
    if odd:
        raise LeviMismatch("Levi has odd roots; use the gl-type constructors")
    alg = p.alg
    half = Weight(alg, [sum(r.doubled[i] for r in even) // 2 for i in range(alg.rank)])
    out = LaurentPoly(alg.n, alg.m, alternating_terms(_levi_weyl_group(p), (lam + half).doubled))
    for r in even:
        h = _half(r.doubled)
        out = exact_div(out, LaurentPoly(alg.n, alg.m, {h: 1, tuple(-x for x in h): -1}))
    return out


def _even_levi_grid(texts, coefficients):
    """(parabolic, weight) over the parabolics of the algebras whose Levi has
    no odd root, and the weights with every coefficient in `coefficients`."""
    for text in texts:
        alg = Algebra.parse(text)
        for removed in itertools.product((False, True), repeat=alg.rank):
            p = Parabolic(alg, frozenset(i for i, r in enumerate(removed) if r))
            if not p.levi_positive()[1]:
                for c in itertools.product(coefficients, repeat=alg.rank):
                    yield p, Weight.from_coeffs(alg, c[:alg.n], c[alg.n:])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ArithmeticError:
        return "ArithmeticError"


def test_even_levi_matches_the_frozen_w_sum_on_half_integral_weights():
    # weights with half-integral coefficients: spin weights of the B and D
    # tails and A-chains shifted by half give characters with half-integral
    # exponents, the others ArithmeticError from both paths
    halves = (Fraction(-1, 2), Fraction(1, 2), 0, 1)
    outcomes = {}
    for p, lam in _even_levi_grid(["2|2", "2|3", "4|3", "2|4", "2|5", "4|1", "6|1", "4|4", "2|6"], halves):
        if lam.is_integral():
            continue
        want = _outcome(_even_levi_frozen, p, lam)
        assert _outcome(levi_simple_even_character, p, lam) == want, (p.describe(), lam.format())
        kind = "error" if want == "ArithmeticError" else "zero" if want.is_zero() else "character"
        outcomes[kind] = outcomes.get(kind, 0) + 1
    assert outcomes == {"character": 1791, "error": 2304, "zero": 701}


@pytest.mark.parametrize("algtxt, removed, weights", [
    ("8|7", "d4-e1", ["3d1+2d2+1d3+2e1+1e2", "1d1-1d4+1e1+1e2+1e3", "2d1+2d2-1d3-1d4+3e1"]),
    ("10|5", "d5-e1", ["3d1+2d2+1d3+2e1+1e2"]),
    ("6|8", "d3-e1,e3-e4", ["2d1+1d2+2e1+1e2-1e3+2e4", "1e1+1e2+1e3+1e4"]),
])
def test_even_levi_matches_the_frozen_w_sum_on_large_levis(algtxt, removed, weights):
    # gl(n) + so(l): a B_3 and B_2 tail beside an A_3 and A_4 chain, and on
    # spo(6|8) a twisted chain e1 - e2, e2 - e3, e3 + e4 beside gl(3)
    alg = Algebra.parse(algtxt)
    p = parabolic_removing(alg, removed)
    for text in weights:
        lam = W(alg, text)
        assert levi_simple_even_character(p, lam) == _even_levi_frozen(p, lam), text


# -- the Levi's Weyl group against the reflection closure it replaced ----------------


def _reflection_closure(alg, roots):
    """Frozen copy of the closure over the reflections in the given even roots
    that `_levi_weyl_group` replaced: signed permutations (perm, signs, det)
    of the weight coordinates, det flipped by each reflection.  The
    reference of the test below; do not turn it into a filter of W."""
    k = alg.rank
    gens = []
    for r in roots:
        perm = list(range(k))
        signs = [1] * k
        support = [i for i, x in enumerate(r.doubled) if x]
        if len(support) == 1:
            signs[support[0]] = -1
        elif len(support) == 2:
            i, j = support
            perm[i], perm[j] = j, i
            if r.doubled[i] * r.doubled[j] > 0:
                signs[i] = signs[j] = -1
        else:
            raise ValueError(f"{r.format()} is not an even root of this shape")
        gens.append((tuple(perm), tuple(signs)))

    def compose(a, b):
        # a after b, acting on coordinate positions: (a.b)(i) = a(b(i))
        pa, sa = a
        pb, sb = b
        perm = tuple(pa[pb[i]] for i in range(k))
        signs = tuple(sb[i] * sa[pb[i]] for i in range(k))
        return perm, signs

    identity = (tuple(range(k)), (1,) * k)
    seen = {identity: 1}
    frontier = [identity]
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                cand = compose(g, el)
                if cand not in seen:
                    seen[cand] = -seen[el]
                    nxt.append(cand)
        frontier = nxt
    return tuple((perm, signs, det) for (perm, signs), det in sorted(seen.items()))


def test_levi_weyl_group_is_the_reflection_closure():
    # every parabolic, with odd roots in the Levi or not: the rows of W that
    # fix the complement of the Levi's span are the group its even roots
    # generate, with the same determinants
    count = with_odd = 0
    for text in ["2|2", "2|3", "4|3", "2|4", "2|5", "4|1", "6|1", "4|4", "6|3"]:
        alg = Algebra.parse(text)
        for removed in itertools.product((False, True), repeat=alg.rank):
            p = Parabolic(alg, frozenset(i for i, r in enumerate(removed) if r))
            even, odd = p.levi_positive()
            group = _levi_weyl_group(p)
            assert len(set(group)) == len(group)
            assert set(group) == set(_reflection_closure(alg, even)), p.describe()
            count += 1
            with_odd += bool(odd)
    assert (count, with_odd) == (76, 39)


def test_binomial_division_round_trip_and_failure():
    x = LaurentPoly.monomial(2, 0, (3, -1))
    p = x + 5 * LaurentPoly.monomial(2, 0, (0, 2)) - 2 * LaurentPoly.one(2, 0)
    halves = [(1, 0), (1, -1), (0, 2), (1, 0)]

    def binomial(h):
        return LaurentPoly.monomial(2, 0, h) - LaurentPoly.monomial(2, 0, tuple(-v for v in h))

    def divide(q, hs):
        for h in hs:
            q = exact_div(q, binomial(h))
        return q

    prod = p
    for h in halves:
        prod = prod * binomial(h)
    assert divide(prod, halves) == p
    assert divide(prod, halves[::-1]) == p
    plus = LaurentPoly.monomial(2, 0, (0, 2)) + LaurentPoly.monomial(2, 0, (0, -2))
    # the isotropic product with no sign-free slot, on p read on spo(2|2)
    iso = LaurentPoly(1, 1, p.terms)
    square = LaurentPoly(1, 1, {(2, 0): 1, (-2, 0): 1, (0, 2): 1, (0, -2): 1})
    assert times_isotropic(iso, ()) == iso * square
    with pytest.raises(NotDivisible):
        divide(plus, [(0, 2)])
    with pytest.raises(NotDivisible):
        divide(prod + LaurentPoly.one(2, 0), halves)