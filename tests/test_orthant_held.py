"""Orthant-held characters against their expansions.

Kac, Euler and Jacobi-Trudi characters come back holding only their orthant
terms (`laurent.sign_images`); `terms` expands them on first read, and some
readers answer from the orthant, which the value keeps, without expanding.
Every public `LaurentPoly` method must give on an orthant-held value what it
gives on the expansion, which here is `frozen_sign_images` of the orthant,
the per-term expansion of tests/test_sign_images.py, not the code under
test.  Each reader runs on a fresh copy of the held value, so that no
earlier read has expanded it.
"""

import operator
import sys
import threading
import tracemalloc

import pytest

import spochar.cli as cli
from spochar.charformulas import euler_character, kac_character, levi_character, parabolic_removing
from spochar.jacobitrudi import jt_character, jt_character_e
from spochar.laurent import LaurentPoly, sign_images
from spochar.rootdata import Algebra, Weight
from test_sign_images import frozen_sign_images


def _kac(alg, weight):
    alg = Algebra.parse(alg)
    return kac_character(alg, Weight.parse(alg, weight))


def _euler(alg, removed, tag, arg=None):
    p = parabolic_removing(Algebra.parse(alg), removed)
    if tag == "one_dimensional":
        arg = Weight.parse(p.alg, arg)
    return euler_character(p, levi_character(p, tag, arg))


CASES = {
    "kac 2|3 3d1+2e1": lambda: _kac("2|3", "3d1+2e1"),
    "kac 4|3 2d1+1d2+1e1": lambda: _kac("4|3", "2d1+1d2+1e1"),
    "kac 2|5 2d1+1e1+1e2": lambda: _kac("2|5", "2d1+1e1+1e2"),
    "kac 4|4 2d1+2d2+1e1+1e2": lambda: _kac("4|4", "2d1+2d2+1e1+1e2"),
    "kac 4|4 0 (zero)": lambda: _kac("4|4", "0"),
    "euler 4|3 d1-d2 2d1+1d2": lambda: _euler("4|3", ["d1-d2"], "one_dimensional", "2d1+1d2"),
    "euler 6|3 d1-d2,d2-d3 2d1+1d2": lambda: _euler("6|3", ["d1-d2", "d2-d3"], "one_dimensional", "2d1+1d2"),
    "euler 4|4 d1-d2 2d1+1d2": lambda: _euler("4|4", ["d1-d2"], "one_dimensional", "2d1+1d2"),
    "euler 2|4 e1+e2 natural": lambda: _euler("2|4", ["e1+e2"], "natural"),
    "jt 2|3 (2,1)": lambda: jt_character((2, 1), Algebra.parse("2|3")),
    "jt 4|3 (3,2,1)": lambda: jt_character((3, 2, 1), Algebra.parse("4|3")),
    "jt_e 4|3 (3,2,1)": lambda: jt_character_e((3, 2, 1), Algebra.parse("4|3")),
    "jt 4|4 (2,1)": lambda: jt_character((2, 1), Algebra.parse("4|4")),
}


def _copy(p):
    """A second value on p's state, so that a read of one leaves the other
    as it was."""
    q = object.__new__(LaurentPoly)
    q.n, q.m, q._terms, q._orthant = p.n, p.m, p._terms, p._orthant
    return q


def _reference(p):
    """The expansion of a held value by the frozen per-term expansion."""
    columns, coefs, slots = p._orthant
    orthant = LaurentPoly._wrap(p.n, p.m, dict(zip(zip(*columns), coefs)))
    return frozen_sign_images(orthant, slots)


@pytest.fixture(scope="module")
def characters():
    """{case: (held value, its expansion)}; a value that is not held (a
    zero character) is its own expansion."""
    out = {}
    for name, make in CASES.items():
        held = make()
        out[name] = (held, _reference(held) if held._orthant is not None else held)
    return out


def test_every_nonzero_character_is_held_and_zero_is_not(characters):
    for name, (held, _) in characters.items():
        assert (held._orthant is not None) == ("zero" not in name), name


def test_terms_expand_to_the_frozen_expansion_in_its_order(characters):
    for name, (held, want) in characters.items():
        got = _copy(held).terms
        assert got == want.terms, name
        assert list(got) == list(want.terms), name


ORTHANT_READERS = {
    "len": len,
    "bool": bool,
    "is_zero": LaurentPoly.is_zero,
    "evaluate_at_one": LaurentPoly.evaluate_at_one,
    "is_integral": LaurentPoly.is_integral,
}


@pytest.mark.parametrize("reader", sorted(ORTHANT_READERS))
def test_readers_that_answer_from_the_orthant(characters, reader):
    fn = ORTHANT_READERS[reader]
    for name, (held, want) in characters.items():
        fresh = _copy(held)
        assert fn(fresh) == fn(want), name
        if held._orthant is not None:
            assert fresh._terms is None, f"{name}: {reader} expanded the orthant"
        fresh.terms  # expanded, the value keeps its orthant and its answers
        assert fresh._orthant is held._orthant and fn(fresh) == fn(want), name


def test_leading_term_from_the_orthant(characters):
    for name, (held, want) in characters.items():
        fresh = _copy(held)
        if not want:
            with pytest.raises(ValueError):
                fresh.leading_term()
            continue
        assert fresh.leading_term() == want.leading_term(), name
        assert fresh._terms is None, name


def test_half_integral_orthants_are_not_integral():
    held = sign_images(1, 1, [[2, 0], [1, 3]], [1, -2], (0, 1))
    fresh = _copy(held)
    assert not fresh.is_integral() and fresh._terms is None
    assert not LaurentPoly(1, 1, dict(held.terms)).is_integral()


def test_equality_between_held_values(characters):
    values = list(characters.values())
    for held_a, want_a in values:
        for held_b, want_b in values:
            a, b = _copy(held_a), _copy(held_b)
            assert (a == b) == (want_a == want_b)
            assert (a != b) == (want_a != want_b)
        assert _copy(held_a) == want_a and want_a == _copy(held_a)
        assert _copy(held_a) == LaurentPoly(want_a.n, want_a.m, dict(reversed(list(want_a.terms.items()))))
    # both held, on one lattice and one slot set: decided on the orthant
    for held, _ in values:
        if held._orthant is not None:
            a, b = _copy(held), _copy(held)
            assert a == b and a._terms is None and b._terms is None


def test_equal_orthants_on_other_slots_are_other_polynomials():
    columns, coefs = [[2, 0, 4], [0, 2, 2]], [3, -1, 1]
    one = sign_images(1, 1, columns, coefs, (0,))
    both = sign_images(1, 1, columns, coefs, (0, 1))
    assert _copy(one) != _copy(both)
    assert not (_copy(one) == _copy(both))
    assert _copy(both) == sign_images(1, 1, [[4, 2, 0], [2, 0, 2]], [1, 3, -1], (0, 1))
    assert _copy(both) != sign_images(1, 1, [[4, 2, 0], [2, 0, 2]], [1, 3, 1], (0, 1))
    assert _copy(both) != sign_images(1, 1, [[4, 2], [2, 0]], [1, 3], (0, 1))
    assert _copy(both) != sign_images(2, 0, columns, coefs, (0, 1))
    assert _copy(one) == LaurentPoly(1, 1, frozen_sign_images(LaurentPoly(1, 1, {(2, 0): 3, (0, 2): -1, (4, 2): 1}),
                                                              (0,)).terms)


# -p, int multiples, p + p and p - p stay held
# (test_held_arithmetic_matches_the_expanded_arithmetic); here they are
# checked against the expansion like the readers that expand.
EXPANDING_READERS = {
    "hash": hash,
    "sorted_terms": LaurentPoly.sorted_terms,
    "to_json_dict": LaurentPoly.to_json_dict,
    "repr": repr,
    "neg": lambda p: -p,
    "times 3": lambda p: p * 3,
    "3 times": lambda p: 3 * p,
    "times 0": lambda p: p * 0,
    "square": lambda p: p * p,
    "map_exponents": lambda p: p.map_exponents(lambda e: e[::-1]),
    "sum with itself": lambda p: p + p,
    "difference with itself": lambda p: p - p,
}


@pytest.mark.parametrize("reader", sorted(EXPANDING_READERS))
def test_readers_that_expand(characters, reader):
    fn = EXPANDING_READERS[reader]
    for name, (held, want) in characters.items():
        got, expected = fn(_copy(held)), fn(want)
        assert got == expected, name
        if isinstance(expected, LaurentPoly):
            assert got.terms == expected.terms and list(got.terms) == list(expected.terms), name


def test_times_one_is_the_held_value_itself(characters):
    for held, _ in characters.values():
        fresh = _copy(held)
        assert fresh * 1 is fresh
        if held._orthant is not None:
            assert fresh._terms is None


def test_arithmetic_between_held_values(characters):
    """+, - and * of two characters on one lattice, held or expanded alike."""
    by_lattice = {}
    for held, want in characters.values():
        by_lattice.setdefault((held.n, held.m), []).append((held, want))
    for pairs in by_lattice.values():
        for held_a, want_a in pairs:
            for held_b, want_b in pairs[:3]:
                for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
                    got, expected = op(_copy(held_a), _copy(held_b)), op(want_a, want_b)
                    assert got.terms == expected.terms and list(got.terms) == list(expected.terms)
                    got = op(_copy(held_a), want_b)
                    assert got.terms == expected.terms and list(got.terms) == list(expected.terms)


HELD_ARITHMETIC = {
    "neg": lambda a, b: -a,
    "times 3": lambda a, b: a * 3,
    "-2 times": lambda a, b: -2 * a,
    "sum": lambda a, b: a + b,
    "difference": lambda a, b: a - b,
    "peel": lambda a, b: a - 3 * b,  # the step of blocksdecomp.decompose
}
UNARY = ("neg", "times 3", "-2 times")


def _snapshot(p):
    orthant = p._orthant
    return None if orthant is None else ([list(col) for col in orthant[0]], list(orthant[1]), orthant[2])


@pytest.mark.parametrize("op", sorted(HELD_ARITHMETIC))
def test_held_arithmetic_matches_the_expanded_arithmetic(characters, op):
    """Differential: -p and int multiples of a held value, and + and -
    between held Kac, Euler and Jacobi-Trudi values on one lattice, against
    the same arithmetic on their expansions, term for term and in order.
    The result is held when the operands share their sign-free slots (always
    for a unary op) and is not zero; neither operand is expanded or
    changed."""
    fn = HELD_ARITHMETIC[op]
    pairs = [(a, b) for a in characters.values() for b in characters.values() if (a[0].n, a[0].m) == (b[0].n, b[0].m)]
    held_results = 0
    for (held_a, want_a), (held_b, want_b) in pairs:
        a, b = _copy(held_a), _copy(held_b)
        before = _snapshot(a), _snapshot(b)
        got, expected = fn(a, b), fn(want_a, want_b)
        assert got.terms == expected.terms and list(got.terms) == list(expected.terms)
        unary = op in UNARY
        same_slots = a._orthant is not None and (unary or (b._orthant is not None and a._orthant[2] == b._orthant[2]))
        if same_slots and expected:
            held_results += 1
            assert got._orthant is not None and got._orthant[2] == a._orthant[2]
            assert a._terms is None and (unary or b._terms is None)
        if not expected:
            assert got._orthant is None and got.is_zero()
        assert (_snapshot(a), _snapshot(b)) == before
    assert held_results > 10  # the gate sees held results


def test_held_arithmetic_on_other_slot_sets_expands():
    columns, coefs = [[2, 0, 4], [0, 2, 2]], [3, -1, 1]
    one = sign_images(1, 1, columns, coefs, (0,))
    both = sign_images(1, 1, columns, coefs, (0, 1))
    for op in (operator.add, operator.sub):
        got, want = op(_copy(one), _copy(both)), op(_reference(one), _reference(both))
        assert got._orthant is None
        assert got.terms == want.terms and list(got.terms) == list(want.terms)


def test_held_results_read_from_their_orthant(characters):
    """A held difference answers len, vdim and its leading term without
    expanding, as the greedy peeling of blocksdecomp reads it."""
    (held, want), (other, other_want) = characters["kac 4|3 2d1+1d2+1e1"], characters["jt 4|3 (3,2,1)"]
    got = _copy(held) - 2 * _copy(other)
    expected = want - 2 * other_want
    assert len(got) == len(expected) and got.evaluate_at_one() == expected.evaluate_at_one()
    assert got.leading_term() == expected.leading_term()
    assert got._terms is None


def test_four_threads_reading_terms_at_once_see_one_expansion():
    """The first read of `terms` takes no lock: each thread either expands
    the orthant itself or reads the dict that another thread wrote, and the
    orthant stays.  Four threads, more than the cores of a small host, with
    a shortened switch interval so that they interleave inside the read."""
    held = _kac("4|3", "3d1+2d2+1e1")
    want = _reference(held).terms
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            fresh = _copy(held)
            barrier = threading.Barrier(4)
            seen = [None] * 4

            def read(i, fresh=fresh, barrier=barrier, seen=seen):
                barrier.wait()
                seen[i] = fresh.terms

            threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            for got in seen:
                assert got == want and list(got) == list(want)
            assert fresh._terms is not None and fresh.terms == want
            assert fresh._orthant is held._orthant
    finally:
        sys.setswitchinterval(switch)


LARGE = ("10|5", "4d1+3d2+2d3+2d4+2d5+1e1+1e2")


def test_large_kac_character_counts_from_the_orthant():
    """The spo(10|5) Kac character has 2326097 terms; building them costs
    about 300 MB.  Its term count and vdim come from its 51609 orthant
    terms."""
    tracemalloc.start()
    try:
        ch = _kac(*LARGE)
        assert len(ch) == 2326097
        assert ch.evaluate_at_one() == 4498391040
        assert ch and not ch.is_zero() and ch.is_integral()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ch._terms is None
    assert peak < 60 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_large_kac_character_text_output(capsys):
    code = cli.main(["kac", "--algebra", LARGE[0], "--weight", LARGE[1], "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == f"K({LARGE[1]}): vdim = 4498391040   (2326097 monomials)\n"


def test_large_kac_decomposes_into_itself_on_the_orthant():
    """decompose peels `current - coef * bchar` on the orthants: the
    spo(10|5) Kac character in the Kac basis is one step, with no sign
    images built (expanding both took about 800 MiB)."""
    from spochar.blocksdecomp import decompose

    alg = Algebra.parse(LARGE[0])
    tracemalloc.start()
    try:
        dec = decompose(alg, kac_character(alg, Weight.parse(alg, LARGE[1])), "kac")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.factors == {Weight.parse(alg, LARGE[1]): 1} and dec.is_clean()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# Characters that decompose in the Kac basis: the first three with a zero
# remainder, the last two with a held one.
RECONSTRUCTED = {
    "kac 4|3 2d1+1d2+1e1": ("4|3", lambda: _kac("4|3", "2d1+1d2+1e1")),
    "jt 4|3 (3,2)": ("4|3", lambda: jt_character((3, 2), Algebra.parse("4|3"))),
    "euler 4|3 d2-e1 4d1+2d2": ("4|3", lambda: _euler("4|3", ["d2-e1"], "one_dimensional", "4d1+2d2")),
    "jt 4|3 (3,2,1)": ("4|3", lambda: jt_character((3, 2, 1), Algebra.parse("4|3"))),
    "euler 4|3 d1-d2 2d1+1d2": ("4|3", lambda: _euler("4|3", ["d1-d2"], "one_dimensional", "2d1+1d2")),
}


@pytest.mark.parametrize("name", sorted(RECONSTRUCTED))
def test_reconstruction_of_a_held_character_stays_held(name):
    # a zero remainder is not held: a sum started from it would expand
    from spochar.blocksdecomp import decompose, reconstruct

    text, make = RECONSTRUCTED[name]
    alg = Algebra.parse(text)
    chi = make()
    dec = decompose(alg, chi, "kac")
    assert dec.factors
    got = reconstruct(alg, dec)
    assert got._orthant is not None and got._terms is None
    assert got == chi
    assert _reference(got) == _reference(chi)


def test_held_reconstruction_builds_no_sign_images():
    """The spo(8|3) Kac character below has 10995 terms on 824 orthant
    terms.  Its reconstruction peaks near 0.13 MiB on the orthant; a sum
    started from an unheld zero expanded it, at 2.3 MiB."""
    from spochar.blocksdecomp import decompose, reconstruct

    alg = Algebra.parse("8|3")
    chi = _kac("8|3", "3d1+2d2+2d3+1d4+1e1")
    dec = decompose(alg, chi, "kac")
    assert dec.is_clean()
    tracemalloc.start()
    try:
        got = reconstruct(alg, dec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == chi and got._terms is None and len(got) == 10995
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"
