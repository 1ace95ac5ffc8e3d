"""The column expansion `laurent.sign_images` against the per-term expansion
it replaced.

`frozen_sign_images` is a frozen copy of `rootdata._sign_images` as Weyl,
Kac and Jacobi-Trudi characters ran it before the expansion moved onto
columns; do not "optimise" it.  Other test modules import it as their
reference for the sign images of hand-checked orthant terms.  Every
comparison is of dict contents, and of the dict's order too.
"""

import itertools
import random

import pytest

from spochar.laurent import LaurentPoly, sign_images


def frozen_sign_images(p: LaurentPoly, slots) -> LaurentPoly:
    """The polynomial of which p holds the terms with every exponent on
    `slots` >= 0: every term of p with each nonzero exponent on `slots`
    taken with either sign, at the term's coefficient.  Weyl characters
    pass the slots of their B and C factors, Jacobi-Trudi characters every
    slot."""
    out = {}
    for e, c in p.terms.items():
        out.update(dict.fromkeys(itertools.product(*[(x, -x) if x and s in slots else (x,) for s, x in enumerate(e)]), c))
    return LaurentPoly._wrap(p.n, p.m, out)


def _expand(p: LaurentPoly, slots) -> LaurentPoly:
    return sign_images(p.n, p.m, zip(*p.terms), p.terms.values(), slots)


def _assert_same(p, slots):
    want = frozen_sign_images(p, slots).terms
    got = _expand(p, slots)
    assert (got.n, got.m) == (p.n, p.m)
    assert got.terms == want
    assert list(got.terms) == list(want)


def _random_orthant(rng, n, m, free, span=6, coef=5):
    """Random terms with every exponent on free even and >= 0 (zeros
    included), any exponent of either sign elsewhere."""
    terms = {}
    for _ in range(rng.randint(1, 40)):
        e = tuple(2 * rng.randint(0, span // 2) if s in free else rng.randint(-span, span) for s in range(n + m))
        terms[e] = rng.choice((-1, 1)) * rng.randint(1, coef)
    return LaurentPoly(n, m, terms)


@pytest.mark.parametrize("rank", range(1, 9))
def test_random_orthants_of_every_rank(rank):
    rng = random.Random(rank)
    for _ in range(30):
        n = rng.randint(1, rank)
        free = [s for s in range(rank) if rng.random() < 0.7]
        _assert_same(_random_orthant(rng, n, rank - n, set(free)), free)


def test_zeros_on_the_sign_free_slots_have_one_image():
    p = LaurentPoly(2, 2, {(0, 0, 0, 0): 3, (0, 2, 0, 0): -1, (4, 0, 0, 6): 2, (0, 0, 0, 2): 7})
    _assert_same(p, range(4))
    assert _expand(p, range(4)).terms[(0, 0, 0, 0)] == 3
    assert len(_expand(p, range(4))) == 1 + 2 + 4 + 2


def test_negative_exponents_off_the_sign_free_slots_keep_their_sign():
    # D_m for even l: the e-slots change signs only in pairs, so they are
    # not sign-free and may hold negative exponents in the orthant
    p = LaurentPoly(2, 2, {(2, 0, 4, -2): 1, (4, 2, -2, 2): -3, (0, 0, 0, -4): 5, (2, 2, -6, -6): 2})
    _assert_same(p, (0, 1))
    assert (2, 0, 4, 2) not in _expand(p, (0, 1)).terms


def test_the_empty_polynomial():
    for slots in ((), (0,), range(3)):
        got = _expand(LaurentPoly.zero(2, 1), slots)
        assert got.terms == {} and (got.n, got.m) == (2, 1)
    # with no columns at all: the empty orthant has none to give
    assert sign_images(2, 1, [], [], range(3)).terms == {}


def test_large_exponents_and_coefficients():
    big = 1 << 70
    p = LaurentPoly(2, 1, {(258, 1 << 40, -999): big, (512, 0, 300): -big - 1, (0, 1024, 257): 2**64 + 1})
    _assert_same(p, (0, 1))
    _assert_same(p, range(2))
    assert _expand(p, (0, 1)).terms[(-258, -(1 << 40), -999)] == big


def test_slots_as_a_range_a_tuple_and_an_unsorted_tuple():
    rng = random.Random("slots")
    for _ in range(20):
        p = _random_orthant(rng, 3, 2, {0, 1, 3, 4})
        want = frozen_sign_images(p, range(5)).terms
        assert _expand(p, range(5)).terms == want
        assert _expand(p, (0, 1, 2, 3, 4)).terms == want
        want = frozen_sign_images(p, (4, 0, 3, 1)).terms
        assert _expand(p, (4, 0, 3, 1)).terms == want
        assert list(_expand(p, (4, 0, 3, 1)).terms) == list(want)
        assert _expand(p, (1, 0, 4, 3)).terms == want


def test_repeated_images_keep_the_first_place_and_the_last_coefficient():
    # not an orthant (a negative exponent on a sign-free slot): both
    # expansions write the images (2,) and (-2,) twice
    p = LaurentPoly(1, 0, {(2,): 1, (-2,): 5, (0,): 2})
    _assert_same(p, (0,))
    assert _expand(p, (0,)).terms == {(2,): 5, (-2,): 5, (0,): 2}
