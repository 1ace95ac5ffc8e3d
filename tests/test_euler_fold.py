"""The Euler numerator and the numerator fold against frozen copies of the
loops they replaced.  `rootdata.orthant_character` folds each numerator term
one factor at a time and reads each distinct part on a factor once;
`charformulas.euler_character` grows its numerator on term dicts and
refuses it past `EULER_NUMERATOR_LIMIT` after the same factor, with the same
message, as before."""

import operator

import pytest

from spochar import charformulas, rootdata
from spochar.acceptance import _delta_chain_parabolic
from spochar.charformulas import (
    LeviCharacter,
    borel,
    euler_character,
    kac_character,
    levi_character,
    levi_simple_even_character,
    parabolic_removing,
)
from spochar.rootdata import (
    Algebra,
    DimensionGuard,
    Weight,
    _chamber_fold,
    _dominant_character,
    _factors,
    _orthant_orbit,
    orthant_character,
    partitions_up_to,
    positive_roots,
    rho0,
)
from test_charformulas import EULER_GRID, EULER_WIDE_GRID, KAC_GRID, _dominant_weights, _euler_grid, _even_levi_grid


def _orthant_frozen(alg, numerator, roots):
    """Frozen copy of `orthant_character` before its fold went one factor at
    a time: each numerator term folded over all factors at once by one
    `_chamber_fold` call.  The reference of the tests here; returns the term
    dict, in its insertion order."""
    factors = _factors(alg.rank, roots)
    r0 = sum((rho for _, _, rho, _ in factors), ())
    folded = {}
    for nu, c in numerator.items():
        nu, det = _chamber_fold(factors, nu)
        if det:
            folded[nu] = folded.get(nu, 0) + det * c
    dominant = {}  # (weights on the head factors, weight on the last factor) -> coefficient
    for nu, c in folded.items():
        if c:
            lam = tuple(map(operator.sub, nu, r0))
            *tables, mults = [_dominant_character(lam[s], *f) for s, *f in factors]
            heads = {(): c}
            for table in tables:
                heads = {key + (mu,): a * b for key, a in heads.items() for mu, b in table.items()}
            for key, a in heads.items():
                for mu, b in mults.items():
                    pair = key, mu
                    dominant[pair] = dominant.get(pair, 0) + a * b
    live = {pair: c for pair, c in dominant.items() if c}
    *head, last = [(froots, flips) for _, froots, _, flips in factors]
    xs = {key: _orthant_orbit(key, head) for key in {key for key, _ in live}}
    ys = {mu: _orthant_orbit((mu,), [last]) for mu in {mu for _, mu in live}}
    out = {}
    for (key, mu), c in live.items():
        for x in xs[key]:
            for y in ys[mu]:
                out[x + y] = c
    return out


def _numerator_frozen(p, module, limit=charformulas.EULER_NUMERATOR_LIMIT, sizes=None):
    """Frozen copy of the numerator loop of `euler_character` before it moved
    to term dicts: e^{rho0} ch M times each 1 + e^{-a} in turn, one
    LaurentPoly per factor, refused past `limit` terms after a factor.
    Returns the term dict, and appends each partial size to `sizes`."""
    alg = p.alg
    ch_m = module.character if isinstance(module, LeviCharacter) else module
    _, levi_odd = p.levi_positive()
    pos = positive_roots(alg)
    f = ch_m.shifted(rho0(alg).doubled)
    if sizes is not None:
        sizes.append(len(f))
    for a in pos.odd:
        if a not in levi_odd:
            f = f + f.shifted(tuple(-x for x in a.doubled))
            if sizes is not None:
                sizes.append(len(f))
            if len(f) > limit:
                raise DimensionGuard(
                    f"the Euler numerator of {p.describe()} has {len(f)} terms, "
                    f"above the limit {limit}"
                )
    return f.terms


@pytest.fixture
def recorded(monkeypatch):
    """The (algebra, numerator, roots) of each `orthant_character` call made
    by the Euler, even-Levi (through `weyl_character`) and Kac characters."""
    calls = []

    def record(alg, numerator, roots):
        calls.append((alg, numerator, roots))
        return orthant_character(alg, numerator, roots)

    monkeypatch.setattr(rootdata, "orthant_character", record)
    monkeypatch.setattr(charformulas, "orthant_character", record)
    return calls


def _outcome(fn, *args):
    try:
        return list(fn(*args).items())
    except ArithmeticError:
        return "ArithmeticError"


def _assert_fold_matches_frozen(calls):
    for alg, numerator, roots in calls:
        want = _outcome(_orthant_frozen, alg, numerator, roots)
        got = _outcome(lambda *args: orthant_character(*args).terms, alg, numerator, roots)
        assert got == want, (alg, numerator, roots)


def _delta_chain_cases(algtxt, lams):
    alg = Algebra.parse(algtxt)
    p = _delta_chain_parabolic(alg)
    for lam in lams:
        w = Weight.from_coeffs(alg, list(lam) + [0] * (alg.n - len(lam)))
        yield p, levi_character(p, "one_dimensional", w)


def test_fold_matches_the_frozen_loop_on_the_parabolic_grid(recorded):
    # every parabolic of eleven algebras, with six Levi modules: one
    # numerator per case, each also equal to the frozen numerator loop's
    cases = [(p, module) for *_, p, module in _euler_grid(EULER_GRID + EULER_WIDE_GRID)]
    assert len(cases) == 344
    for p, module in cases:
        euler_character(p, module)
    assert len(recorded) == 344
    for (p, module), (_, numerator, _) in zip(cases, recorded):
        assert list(numerator.items()) == list(_numerator_frozen(p, module).items()), p.describe()
    _assert_fold_matches_frozen(recorded)


@pytest.mark.parametrize("algtxt, lams", [
    ("6|3", [lam for lam in partitions_up_to(6, 3) if all(x <= y for x, y in zip(lam, (3, 2, 1)))]),
    ("8|3", [lam for lam in partitions_up_to(6, 3) if all(x <= y for x, y in zip(lam, (3, 2, 1)))]),
    ("10|3", [lam for lam in partitions_up_to(6, 4) if lam]),
])
def test_fold_matches_the_frozen_loop_on_the_delta_chains(recorded, algtxt, lams):
    for p, module in _delta_chain_cases(algtxt, lams):
        euler_character(p, module)
    assert len(recorded) == len(lams) > 10
    _assert_fold_matches_frozen(recorded)


def test_fold_matches_the_frozen_loop_on_kac_tops(recorded):
    # one-term numerators on the Kac roots, regular and singular
    for text in KAC_GRID:
        alg = Algebra.parse(text)
        for lam in _dominant_weights(alg):
            kac_character(alg, lam)
    assert len(recorded) > 100
    _assert_fold_matches_frozen(recorded)


def test_fold_matches_the_frozen_loop_on_even_levis(recorded):
    # odd and even l: A-chains, and B, C and D tails; on D a last entry of
    # either sign and 0
    for p, lam in _even_levi_grid(["2|3", "4|3", "2|4", "4|4", "2|5", "2|6"], range(-1, 3)):
        try:
            levi_simple_even_character(p, lam)
        except ArithmeticError:
            pass
    seen = set()
    for alg, numerator, roots in recorded:
        ((nu, _),) = numerator.items()
        for slots, own, _, flips in _factors(alg.rank, roots):
            part = nu[slots]
            if flips is None and own:
                seen.add("A")
            if flips is False:
                seen.add("D, last < 0" if part[-1] < 0 else "D, last > 0" if part[-1] > 0 else "D, last 0")
                seen.update(["D with a 0"] if 0 in part else [])
    assert seen == {"A", "D, last < 0", "D, last > 0", "D, last 0", "D with a 0"}
    _assert_fold_matches_frozen(recorded)


def test_each_distinct_factor_part_is_folded_once(recorded, monkeypatch):
    # the spo(6|3) delta-chain numerator at (2,2): C_3 on the d-slots and B_1
    # on the e-slot; a term reaches the e-slot only when its d-part is regular
    (p, module), = _delta_chain_cases("6|3", [(2, 2)])
    euler_character(p, module)
    ((alg, numerator, roots),) = recorded
    factors = _factors(alg.rank, roots)
    assert [flips for *_, flips in factors] == [True, True]
    want = set()
    for nu in numerator:
        for slots, own, rho, flips in factors:
            part = nu[slots]
            want.add((own, part))
            if not _chamber_fold(((slice(None), own, rho, flips),), part)[1]:
                break
    calls = []

    def count(one, part):
        calls.append((one[0][1], part))
        return _chamber_fold(one, part)

    monkeypatch.setattr(rootdata, "_chamber_fold", count)
    assert list(orthant_character(alg, numerator, roots).terms.items()) == list(
        _orthant_frozen(alg, numerator, roots).items())
    assert (len(numerator), len(calls)) == (48, 21)
    assert len(calls) == len(set(calls)) == len(want) < len(numerator)
    assert set(calls) == want


@pytest.mark.parametrize("algtxt, removed, tag, arg, limits, sizes", [
    ("4|3", "e1", "natural", None, [10, 20], [3, 6, 11, 22, 36]),
    ("8|5", "e2", "hook_schur", (4, 3, 2, 1), [10_000], None),
    ("6|7", None, "trivial", None, [100, 1000, 10_000], None),
])
def test_refusals_are_unchanged(monkeypatch, algtxt, removed, tag, arg, limits, sizes):
    alg = Algebra.parse(algtxt)
    p = borel(alg) if removed is None else parabolic_removing(alg, removed)
    module = levi_character(p, tag, arg)
    if sizes is not None:
        seen = []
        _numerator_frozen(p, module, sizes=seen)
        assert seen == sizes
    for limit in limits:
        with pytest.raises(DimensionGuard) as want:
            _numerator_frozen(p, module, limit)
        monkeypatch.setattr(charformulas, "EULER_NUMERATOR_LIMIT", limit)
        with pytest.raises(DimensionGuard) as got:
            euler_character(p, module)
        assert str(got.value) == str(want.value)
        assert f"above the limit {limit}" in str(got.value)
