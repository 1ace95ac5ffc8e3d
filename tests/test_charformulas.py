import hashlib
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
    vdim_formula,
)
from spochar.jacobitrudi import sym_power_char
from spochar.laurent import (
    LaurentPoly,
    NotDivisible,
    exact_div,
    format_exponent,
    weyl_quotient,
)
from spochar.rootdata import (
    Algebra,
    Weight,
    antisymmetrize,
    is_dominant,
    positive_roots,
    rho,
    rho0,
    weyl_group,
)

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


def test_euler_matches_recorded_table_on_parabolic_grid():
    got = []
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
                ch = euler_character(p, module)
                mask = "".join("1" if r else "0" for r in removed)
                got.append((text, mask, tag, len(ch), ch.evaluate_at_one(), _digest(ch)))
    assert len(got) == 120
    assert got == EULER_RECORDED


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
    identity = ((0, 1), (1, 1), 1),
    assert weyl_quotient(2, 0, prod.terms, identity, halves) == p
    assert weyl_quotient(2, 0, prod.terms, identity, halves[::-1]) == p
    plus = LaurentPoly.monomial(2, 0, (0, 2)) + LaurentPoly.monomial(2, 0, (0, -2))
    assert weyl_quotient(2, 0, p.terms, identity, multiply=[(0, 2)]) == p * plus
    with pytest.raises(NotDivisible):
        weyl_quotient(2, 0, plus.terms, identity, [(0, 2)])
    with pytest.raises(NotDivisible):
        weyl_quotient(2, 0, (prod + LaurentPoly.one(2, 0)).terms, identity, halves)
