import importlib.util
from pathlib import Path

import pytest

from spochar import jacobitrudi
from spochar.jacobitrudi import (
    PowerTable,
    ext_power_char,
    identity_suite,
    jt_character,
    jt_character_e,
    sym_power_char,
)
from spochar.laurent import LaurentPoly
from spochar.linalg import det_bareiss_laurent
from spochar.rootdata import (
    Algebra,
    HookConditionError,
    conjugate_partition,
    fits_hook,
    partitions_up_to,
    validate_partition,
    weyl_act,
    weyl_group,
)
from test_term_kernel import (
    frozen_series_one,
    frozen_super_homogeneous_series,
    frozen_times_geometric,
    frozen_times_linear,
)

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
            assert ch.map_exponents(lambda e: weyl_act(g, e)) == ch


def test_hook_violation():
    with pytest.raises(HookConditionError):
        jt_character((2, 2), SPO23)  # second part exceeds m=1 below row n=1


def test_identity_suite():
    for n in (1, 2):
        report = identity_suite(n, truncation=10)
        assert all(report.values()), report
    with pytest.raises(ValueError):
        identity_suite(5)
    assert identity_suite(1, truncation=0)["half_power_geometric_series"]
    with pytest.raises(ValueError, match="truncation"):
        identity_suite(2, truncation=-5)


# -- the full-Laurent Jacobi-Trudi path, frozen ------------------------------------
#
# Power tables over full Laurent polynomials from the weights of the natural
# module, and Bareiss determinants on them, as jacobitrudi computed them
# before the u-basis: the weights and the exterior series verbatim, the
# tables grown to max(r, 8) as before, and the determinant entries as they
# were, read from the frozen tables.  Callers pass partitions that fit the
# hook.


def _frozen_natural_weights(alg):
    """(even, odd) doubled weight tuples of the natural module C^{2n|l}."""
    even = []
    odd = []
    for i in range(alg.n):
        v = [0] * alg.rank
        v[i] = 2
        even.append(tuple(v))
        even.append(tuple(-x for x in v))
    for j in range(alg.m):
        v = [0] * alg.rank
        v[alg.n + j] = 2
        odd.append(tuple(v))
        odd.append(tuple(-x for x in v))
    if alg.odd:
        odd.append((0,) * alg.rank)
    return even, odd


def _frozen_super_elementary_series(even_weights, odd_weights, n, m, order):
    """Super exterior powers: roles of the two factor types exchanged."""
    s = frozen_series_one(n, m, order)
    for w in even_weights:
        s = frozen_times_linear(s, w, n, m)
    for w in odd_weights:
        s = frozen_times_geometric(s, w, n, m)
    return s


_FROZEN_TABLES = {}


def _frozen_table(alg, which, order=8):
    """[p_0, ..., p_order] (which "p") or the e_r, by the frozen series."""
    key = alg, which, order
    if key not in _FROZEN_TABLES:
        even, odd = _frozen_natural_weights(alg)
        if which == "p":
            _FROZEN_TABLES[key] = frozen_super_homogeneous_series(even, odd, alg.n, alg.m, order)
        else:
            _FROZEN_TABLES[key] = _frozen_super_elementary_series(even, odd, alg.n, alg.m, order)
    return _FROZEN_TABLES[key]


def _frozen_power(alg, which, r):
    if r < 0:
        return LaurentPoly.zero(alg.n, alg.m)
    return _frozen_table(alg, which, max(r, 8))[r]


def _jt_frozen(partition, alg):
    lam = validate_partition(partition)
    if not lam:
        return LaurentPoly.one(alg.n, alg.m)
    k = len(lam)
    star = [lam[i] - i for i in range(k)]

    def entry(i, j):
        if j == 0:
            return _frozen_power(alg, "p", star[i])
        return _frozen_power(alg, "p", star[i] + j) + _frozen_power(alg, "p", star[i] - j)

    return det_bareiss_laurent([[entry(i, j) for j in range(k)] for i in range(k)])


def _jt_e_frozen(partition, alg):
    lam = validate_partition(partition)
    if not lam:
        return LaurentPoly.one(alg.n, alg.m)
    mu = conjugate_partition(lam)
    k = len(mu)
    star = [mu[i] - i for i in range(k)]

    def entry(i, j):
        return _frozen_power(alg, "e", star[i] + j) - _frozen_power(alg, "e", star[i] - j - 2)

    return det_bareiss_laurent([[entry(i, j) for j in range(k)] for i in range(k)])


# l = 0, 1 and 2 (so(2): a D_1 side without roots), odd and even l beyond
POWER_ALGEBRAS = ["2|0", "4|0", "2|1", "2|2", "6|2", "4|3", "2|4", "4|5"]
GATE_ALGEBRAS = ["2|0", "4|0", "2|1", "4|1", "2|2", "4|2", "2|3", "4|3", "6|3", "2|4", "4|4", "2|5"]


@pytest.mark.parametrize("algtxt", POWER_ALGEBRAS)
def test_power_characters_match_the_frozen_series_tables(algtxt):
    alg = Algebra.parse(algtxt)
    for r in range(-1, 9):
        assert sym_power_char(alg, r) == _frozen_power(alg, "p", r), r
        assert ext_power_char(alg, r) == _frozen_power(alg, "e", r), r


def test_power_table_expands_each_power_once(monkeypatch):
    alg = Algebra.parse("4|3")
    calls = []
    expand = jacobitrudi.from_u_basis
    monkeypatch.setattr(jacobitrudi, "from_u_basis", lambda *args: calls.append(args) or expand(*args))
    table = PowerTable(alg)
    first = [table.p(r) for r in range(10)] + [table.e(r) for r in range(10)]
    assert len(calls) == 20
    again = [table.p(r) for r in range(10)] + [table.e(r) for r in range(10)]
    assert all(x is y for x, y in zip(first, again))
    assert len(calls) == 20
    # the determinants read the u-basis entries and expand only their result
    jt_character((3, 2, 1), alg)
    assert len(calls) == 21


def _euler_jt_grid():
    """(algebra text, partition) of every item of the benchmark's
    euler_jt_grid workload, read from its pool definitions."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = []
    for item in workloads.all_items("euler_jt_grid"):
        _, algtxt, parts = item.split()
        out.append((algtxt, tuple(int(x) for x in parts.split(","))))
    return out


def test_jacobi_trudi_matches_the_frozen_full_laurent_path_on_the_benchmark_grid():
    grid = _euler_jt_grid()
    assert len(grid) == 56
    for algtxt, lam in grid:
        alg = Algebra.parse(algtxt)
        assert jt_character(lam, alg) == _jt_frozen(lam, alg), (algtxt, lam)
        assert jt_character_e(lam, alg) == _jt_e_frozen(lam, alg), (algtxt, lam)


@pytest.mark.parametrize("algtxt", GATE_ALGEBRAS)
def test_jacobi_trudi_matches_the_frozen_full_laurent_path(algtxt):
    alg = Algebra.parse(algtxt)
    lams = [lam for lam in partitions_up_to(6) if fits_hook(lam, alg.n, alg.m)]
    for lam in lams:
        assert jt_character(lam, alg) == _jt_frozen(lam, alg), lam
        assert jt_character_e(lam, alg) == _jt_e_frozen(lam, alg), lam


def test_jacobi_trudi_matches_the_frozen_full_laurent_path_on_spo_8_5():
    # the frontier case: the frozen path takes about 10 s on a 2-core host
    alg = Algebra.parse("8|5")
    got = jt_character((4, 3, 2, 1), alg)
    assert (len(got), got.evaluate_at_one()) == (99349, 19815081)
    assert got == _jt_frozen((4, 3, 2, 1), alg)
