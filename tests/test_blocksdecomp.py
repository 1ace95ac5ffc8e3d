import pytest

from spochar.blocksdecomp import (
    SPO23,
    BlockQuery,
    block_consistency,
    conjecture_check,
    decompose,
    euler_of_hook,
    irr_char,
    irr_char_spo23,
    is_typical,
    reconstruct,
    same_central_character,
    tensor_table,
    tensor_with_natural,
)
from spochar.charformulas import kac_character
from spochar.jacobitrudi import sym_power_char
from spochar.laurent import LaurentPoly
from spochar.rootdata import Algebra, Weight, weyl_act, weyl_group


def W23(a, b):
    return Weight.from_coeffs(SPO23, [a], [b])


def fac(dec):
    return {(w.int_coeffs()[0][0], w.int_coeffs()[1][0]): c for w, c in dec.factors.items()}


def test_typicality():
    for ell in range(1, 6):
        assert not is_typical(SPO23, W23(ell, ell - 1))
    assert not is_typical(SPO23, W23(0, 0))
    assert is_typical(SPO23, W23(2, 0))
    assert is_typical(SPO23, W23(1, 1))


def test_linkage_identity_and_chains():
    assert same_central_character(SPO23, BlockQuery(W23(2, 0), W23(2, 0))).linked
    assert same_central_character(SPO23, BlockQuery(W23(1, 0), W23(0, 0))).linked
    for ell in range(2, 6):
        assert same_central_character(SPO23, BlockQuery(W23(ell + 1, ell), W23(ell, ell - 1))).linked
    assert not same_central_character(SPO23, BlockQuery(W23(2, 0), W23(0, 0))).linked


def test_linkage_depth_exhaustion_is_flagged():
    # (2|1) and (1|0) need a chain of length one; with depth zero the search
    # must flag itself inconclusive instead of answering false
    res = same_central_character(SPO23, BlockQuery(W23(2, 1), W23(1, 0), max_depth=0))
    assert not res.linked
    assert res.inconclusive_at_depth == 0
    assert same_central_character(SPO23, BlockQuery(W23(2, 1), W23(1, 0), max_depth=1)).linked


def test_irr_dimensions():
    assert irr_char_spo23(0, 0) == LaurentPoly.one(1, 1)
    assert irr_char_spo23(1, 0).evaluate_at_one() == 5
    assert irr_char_spo23(2, 1).evaluate_at_one() == 30
    assert irr_char_spo23(3, 2).evaluate_at_one() == 70
    for ell in range(2, 7):
        ch = irr_char_spo23(ell, ell - 1)
        assert ch.evaluate_at_one() == 2 * (4 * ell * ell - 1)
        assert all(c >= 0 for c in ch.terms.values())


def test_irr_weyl_invariance_and_leading_term():
    for (a, b) in [(1, 0), (3, 2), (2, 0), (2, 2)]:
        ch = irr_char_spo23(a, b)
        for g in weyl_group(SPO23):
            assert ch.map_exponents(lambda e: weyl_act(g, e)) == ch
        exps, coef = ch.leading_term()
        assert exps == (2 * a, 2 * b) and coef == 1


def test_irr_rejects_non_dominant():
    with pytest.raises(ValueError):
        irr_char_spo23(0, 3)
    with pytest.raises(ValueError):
        irr_char(Algebra.parse("2|5"), Weight.parse(Algebra.parse("2|5"), "1d1"))  # atypical, no table


def test_decompose_kac_into_irreducibles():
    dec = decompose(SPO23, kac_character(SPO23, W23(2, 1)))
    assert fac(dec) == {(2, 1): 1, (1, 0): 1, (0, 0): 1} and dec.is_clean()
    dec = decompose(SPO23, kac_character(SPO23, W23(1, 0)))
    assert fac(dec) == {(1, 0): 1, (0, 0): -1} and dec.is_clean()


def test_decompose_in_kac_basis():
    chi = kac_character(SPO23, W23(2, 0)) + 2 * kac_character(SPO23, W23(1, 0))
    dec = decompose(SPO23, chi, "kac")
    assert fac(dec) == {(2, 0): 1, (1, 0): 2} and dec.is_clean()


def test_decompose_remainder_on_non_dominant_leading():
    chi = LaurentPoly.monomial(1, 1, (-2, 0))
    dec = decompose(SPO23, chi)
    assert not dec.is_clean()
    assert reconstruct(SPO23, dec) == chi


def test_decompose_stops_on_atypical_kac_cancellation():
    # the constant character has no finite Kac expansion: the nominal leading
    # basis character K(0|0) tops out at (1|0), so peeling must stop cleanly
    dec = decompose(SPO23, 2 * LaurentPoly.one(1, 1), "kac")
    assert not dec.is_clean() and dec.factors == {}


def test_reconstruction_identity():
    for (a, b) in [(2, 1), (4, 3), (2, 2)]:
        chi = kac_character(SPO23, W23(a, b))
        assert reconstruct(SPO23, decompose(SPO23, chi)) == chi


def test_tensor_with_natural_examples():
    assert fac(tensor_with_natural(1, 0)) == {(2, 0): 1, (1, 1): 1, (0, 0): 1}
    assert fac(tensor_with_natural(2, 1)) == {(3, 1): 1, (2, 2): 1, (2, 1): 1}
    assert fac(tensor_with_natural(2, 2)) == {
        (3, 2): 1, (2, 1): 2, (2, 2): 1, (1, 2): 1, (2, 3): 1, (1, 0): 1, (0, 0): 1,
    }
    assert fac(tensor_with_natural(5, 2)) == {
        (6, 2): 1, (5, 2): 1, (4, 2): 1, (5, 3): 1, (5, 1): 1,
    }


def test_tensor_table_covers_dominant_range():
    table = tensor_table(2, 2)
    assert (0, 1) not in table  # not dominant
    assert set(table) == {(0, 0), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)}
    assert fac(table[(0, 0)]) == {(1, 0): 1}


def test_block_consistency_of_kac_decompositions():
    for (a, b) in [(2, 1), (3, 2), (1, 0)]:
        assert block_consistency(SPO23, decompose(SPO23, kac_character(SPO23, W23(a, b))))


def test_euler_of_hook_families():
    assert euler_of_hook(SPO23, ()) == 2 * LaurentPoly.one(1, 1)
    assert euler_of_hook(SPO23, (1,)) == kac_character(SPO23, W23(1, 0))
    assert euler_of_hook(SPO23, (4, 1, 1, 1)) == kac_character(SPO23, W23(4, 3))
    assert euler_of_hook(SPO23, (3,)) == kac_character(SPO23, W23(3, 0))


def test_conjecture_check_report():
    rep = conjecture_check(SPO23, bound=5)
    assert rep.count == 16  # hooks of size <= 5
    assert rep.independent and rep.rank == 16
    assert rep.all_patterns_match()
    entries = {e["weight"]: e for e in rep.entries}
    assert entries[(3, 2)]["factors"] == {(3, 2): 1, (2, 1): 1}
    assert entries[(0, 0)]["pattern_checked"] is False
    assert entries[(0, 0)]["factors"] == {(0, 0): 2}
    with pytest.raises(ValueError):
        conjecture_check(Algebra.parse("2|5"))


def test_natural_is_the_degree_one_power():
    assert sym_power_char(SPO23, 1) == irr_char_spo23(1, 0)
