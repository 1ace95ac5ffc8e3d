"""Root operators against a frozen copy of the hand-written branches they
replace, and against the invariant form they are derived from.

`frozen_root_operator` and the `_slot_*` helpers below are verbatim copies
of `root_operator` as it was when every root type had its own branch (only
the function is renamed).  They are the reference of this file, so they are
never imported from src.
"""

import pytest

from spochar.rootdata import Algebra, Weight, positive_roots
from spochar.superspace import Derivation, SuperElement, _layout, gen_count, gen_name, root_operator

# spo(2|0) .. spo(8|9): every l from 0 to 9 on each of 2n = 2, 4, 6, 8
GRID = [Algebra.parse(f"{2 * n}|{l}") for n in range(1, 5) for l in range(10)]


def _all_roots(alg):
    pos = positive_roots(alg)
    return [root for r in pos.even + pos.odd for root in (r, -r)]


# -- the frozen reference ------------------------------------------------------------


def _slot_x(alg, i):
    return i


def _slot_xb(alg, i):
    return alg.m + i


def _slot_x0(alg):
    return 2 * alg.m


def _slot_xi(alg, j):
    return _layout(alg)[0] + j


def _slot_xib(alg, j):
    return _layout(alg)[0] + alg.n + j


def frozen_root_operator(alg: Algebra, root: Weight) -> Derivation:
    """First-order superderivation realizing the root vector on the natural
    module, signs matched to the standard matrix realization (odd operators
    carry the parity-shift sign on realized-odd sources)."""
    n = alg.n
    a = [x // 2 for x in root.doubled[:n]]
    b = [x // 2 for x in root.doubled[n:]]
    G = lambda slot: SuperElement.generator(alg, slot)

    def drv(parity, *imgs):
        label = root.format()
        return Derivation(alg, parity, tuple(imgs), f"E[{label}]")

    nz_a = [(i, c) for i, c in enumerate(a) if c]
    nz_b = [(i, c) for i, c in enumerate(b) if c]

    if not nz_b and len(nz_a) == 1 and abs(nz_a[0][1]) == 2:  # +/- 2d_i
        i = nz_a[0][0]
        if nz_a[0][1] > 0:
            return drv(0, (_slot_xib(alg, i), G(_slot_xi(alg, i))))
        return drv(0, (_slot_xi(alg, i), G(_slot_xib(alg, i))))
    if not nz_b and len(nz_a) == 2:  # d_i +/- d_j
        (i, ci), (j, cj) = nz_a
        if ci == 1 and cj == -1:
            return drv(0, (_slot_xi(alg, j), G(_slot_xi(alg, i))),
                       (_slot_xib(alg, i), -1 * G(_slot_xib(alg, j))))
        if ci == -1 and cj == 1:
            return drv(0, (_slot_xi(alg, i), G(_slot_xi(alg, j))),
                       (_slot_xib(alg, j), -1 * G(_slot_xib(alg, i))))
        if ci == 1 and cj == 1:
            return drv(0, (_slot_xib(alg, j), G(_slot_xi(alg, i))),
                       (_slot_xib(alg, i), G(_slot_xi(alg, j))))
        if ci == -1 and cj == -1:
            return drv(0, (_slot_xi(alg, j), G(_slot_xib(alg, i))),
                       (_slot_xi(alg, i), G(_slot_xib(alg, j))))
    if not nz_a and len(nz_b) == 2:  # e_i +/- e_j
        (i, ci), (j, cj) = nz_b
        if ci == 1 and cj == -1:
            return drv(0, (_slot_x(alg, j), G(_slot_x(alg, i))),
                       (_slot_xb(alg, i), -1 * G(_slot_xb(alg, j))))
        if ci == -1 and cj == 1:
            return drv(0, (_slot_x(alg, i), G(_slot_x(alg, j))),
                       (_slot_xb(alg, j), -1 * G(_slot_xb(alg, i))))
        if ci == 1 and cj == 1:
            return drv(0, (_slot_xb(alg, j), G(_slot_x(alg, i))),
                       (_slot_xb(alg, i), -1 * G(_slot_x(alg, j))))
        if ci == -1 and cj == -1:
            return drv(0, (_slot_x(alg, j), G(_slot_xb(alg, i))),
                       (_slot_x(alg, i), -1 * G(_slot_xb(alg, j))))
    if not nz_a and len(nz_b) == 1 and abs(nz_b[0][1]) == 1 and alg.odd:  # +/- e_i
        i = nz_b[0][0]
        if nz_b[0][1] > 0:
            return drv(0, (_slot_x0(alg), G(_slot_x(alg, i))),
                       (_slot_xb(alg, i), -1 * G(_slot_x0(alg))))
        return drv(0, (_slot_x(alg, i), G(_slot_x0(alg))),
                   (_slot_x0(alg), -1 * G(_slot_xb(alg, i))))
    if len(nz_a) == 1 and len(nz_b) == 1:  # odd roots +/- d_j +/- e_i
        j, cj = nz_a[0]
        i, ci = nz_b[0]
        if cj == 1 and ci == -1:  # d_j - e_i
            return drv(1, (_slot_x(alg, i), G(_slot_xi(alg, j))),
                       (_slot_xib(alg, j), -1 * G(_slot_xb(alg, i))))
        if cj == -1 and ci == 1:  # e_i - d_j
            return drv(1, (_slot_xi(alg, j), G(_slot_x(alg, i))),
                       (_slot_xb(alg, i), G(_slot_xib(alg, j))))
        if cj == 1 and ci == 1:  # d_j + e_i
            return drv(1, (_slot_xb(alg, i), G(_slot_xi(alg, j))),
                       (_slot_xib(alg, j), -1 * G(_slot_x(alg, i))))
        if cj == -1 and ci == -1:  # -d_j - e_i
            return drv(1, (_slot_xi(alg, j), -1 * G(_slot_xb(alg, i))),
                       (_slot_x(alg, i), -1 * G(_slot_xib(alg, j))))
    if len(nz_a) == 1 and not nz_b and abs(nz_a[0][1]) == 1 and alg.odd:  # +/- d_j
        j = nz_a[0][0]
        if nz_a[0][1] > 0:
            return drv(1, (_slot_x0(alg), G(_slot_xi(alg, j))),
                       (_slot_xib(alg, j), -1 * G(_slot_x0(alg))))
        return drv(1, (_slot_xi(alg, j), -1 * G(_slot_x0(alg))),
                   (_slot_x0(alg), -1 * G(_slot_xib(alg, j))))
    raise ValueError(f"{root.format()} is not a root of {alg}")


# -- differential gate: the derived moves against the frozen branches ---------------------


def _root_type(root):
    """The nonzero doubled coordinates of root, d-side and e-side apart:
    ((-2,), (-2,)) for every -d_j-e_i, ((), (2, 2)) for every e_i+e_j."""
    n = root.alg.n
    return tuple(x for x in root.doubled[:n] if x), tuple(x for x in root.doubled[n:] if x)


# the root types whose operator is the frozen one times -1: -d_j, -d_j-e_i,
# +/-(e_i+e_j) and e_i
FLIPPED = {((-2,), ()), ((-2,), (-2,)), ((), (2, 2)), ((), (-2, -2)), ((), (2,))}


def test_moves_are_the_frozen_branches_up_to_one_sign_per_operator():
    signs = {}  # root type -> the signs new / frozen seen on it
    count = 0
    for alg in GRID:
        for root in _all_roots(alg):
            new, old = root_operator(alg, root), frozen_root_operator(alg, root)
            got, want = sorted(new.moves), sorted(old.moves)
            assert new.parity == old.parity
            assert [move[:2] for move in got] == [move[:2] for move in want], (alg, root.format())
            assert all(abs(c) == 1 for _, _, c in got + want)
            ratios = {a[2] * b[2] for a, b in zip(got, want)}
            assert len(ratios) == 1, (alg, root.format())  # one sign for the whole operator
            signs.setdefault(_root_type(root), set()).update(ratios)
            count += 1
    assert count == 1900
    assert all(len(seen) == 1 for seen in signs.values())  # the sign depends on the root type alone
    assert {kind for kind, seen in signs.items() if seen == {-1}} == FLIPPED


@pytest.mark.parametrize("algtxt, text", [
    ("2|3", "0"), ("2|3", "2e1"), ("4|4", "0"), ("4|4", "2e1"),
    ("2|4", "1d1"), ("2|4", "1e1"), ("4|4", "2d1+2d2"), ("4|4", "1d1+1d2+1e1"),
])
def test_weights_that_are_not_roots_are_refused(algtxt, text):
    alg = Algebra.parse(algtxt)
    with pytest.raises(ValueError, match="is not a root of"):
        root_operator(alg, Weight.parse(alg, text))


# -- invariance oracle: every root operator is skew for the form ---------------------------
#
# B(x_i, xb_i) = B(xb_i, x_i) = B(x0, x0) = 1 and B(xi_j, xib_j) = 1 = -B(xib_j, xi_j),
# read off the generator names; a root vector X is skew for B:
# B(Xu, v) + (-1)^(|X| |u|) B(u, Xv) = 0 on all generators u, v, with |u| the
# Grassmann parity.  The oracle reads only the operator's action on generators.

_FORM = {("x", "xb"): 1, ("xb", "x"): 1, ("xi", "xib"): 1, ("xib", "xi"): -1}


def _form(alg, u, v):
    a, b = gen_name(alg, u), gen_name(alg, v)
    if "x0" in (a, b):
        return int(a == b)
    ka, kb = a.rstrip("0123456789"), b.rstrip("0123456789")
    return _FORM.get((ka, kb), 0) if a[len(ka):] == b[len(kb):] else 0


def _on_generators(op):
    """slot -> {slot: coefficient}: op on each generator, a combination of generators."""
    out = {}
    for u in range(gen_count(op.alg)):
        terms = op.apply(SuperElement.generator(op.alg, u)).terms
        assert all(sum(t) == 1 for t in terms)
        out[u] = {t.index(1): c for t, c in terms.items()}
    return out


def _skew(op, koszul=True):
    """(is op skew for B on every pair of generators, does B(Xu, v) ever differ from 0)."""
    alg, images = op.alg, _on_generators(op)
    skew, seen = True, False
    for u in range(gen_count(alg)):
        sign = -1 if koszul and op.parity and gen_name(alg, u).startswith("xi") else 1
        for v in range(gen_count(alg)):
            left = sum(c * _form(alg, t, v) for t, c in images[u].items())
            right = sum(c * _form(alg, u, t) for t, c in images[v].items())
            skew = skew and left + sign * right == 0
            seen = seen or left != 0
    return skew, seen


def test_every_root_operator_is_skew_for_the_invariant_form():
    unsigned = {0: 0, 1: 0}  # parity -> operators skew without the (-1)^(|X| |u|) factor
    total = {0: 0, 1: 0}
    for alg in GRID:
        for root in _all_roots(alg):
            op = root_operator(alg, root)
            assert _skew(op) == (True, True), (alg, root.format())
            unsigned[op.parity] += _skew(op, koszul=False)[0]
            total[op.parity] += 1
    # the Koszul factor matters: dropping it breaks every odd operator and no even one
    assert unsigned == {0: total[0], 1: 0}
