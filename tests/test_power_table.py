"""The Jacobi-Trudi power tables build each series once, to the order a
determinant reads, and hand out a layout together with the rows packed in
it (`PowerTable.rows`)."""

import tracemalloc

import pytest

from spochar import jacobitrudi
from spochar.jacobitrudi import PowerTable, _u_series, jt_character, jt_character_e
from spochar.rootdata import Algebra

ALG = Algebra.parse("4|3")


@pytest.fixture
def builds(monkeypatch):
    """(order, exterior) of every `_u_series` build, in order."""
    out = []
    series = jacobitrudi._u_series

    def recording(alg, order, exterior):
        out.append((order, exterior))
        return series(alg, order, exterior)

    monkeypatch.setattr(jacobitrudi, "_u_series", recording)
    return out


@pytest.fixture
def table(monkeypatch):
    """A fresh spo(4|3) table that the determinants read."""
    tab = PowerTable(ALG)
    monkeypatch.setattr(jacobitrudi, "power_table", lambda alg: tab if alg == ALG else PowerTable(alg))
    return tab


# (determinant, partition, form, max(star) + k - 1): star is (3, 1, -1) for
# (3,2,1), and (3, 1) for the conjugate (3,2) of (2,2,1)
CASES = [(jt_character, (3, 2, 1), "p", 5), (jt_character_e, (2, 2, 1), "e", 4)]


@pytest.mark.parametrize("det, partition, which, top", CASES)
def test_a_determinant_builds_its_series_once_to_the_order_it_reads(builds, table, det, partition, which, top):
    det(partition, ALG)
    assert builds == [(top, which == "e")]
    packing, rows = table.rows(which, top, 0)
    assert len(rows) == top + 1
    # a request at or below the kept order builds nothing, and gets the
    # same layout and rows
    for r in range(top + 1):
        assert table.rows(which, r, r) == (packing, rows)
    det(partition, ALG)
    assert builds == [(top, which == "e")]


def test_a_longer_request_builds_once_more_to_its_own_order(builds, table):
    jt_character((2, 1), ALG)  # star (2, 0): top 3
    jt_character((3, 2, 1), ALG)
    jt_character((2, 1), ALG)
    assert builds == [(3, False), (5, False)]


def test_a_wider_bound_replaces_the_layout_and_both_forms_rows(builds, table):
    narrow, narrow_p = table.rows("p", 5, 0)
    _, narrow_e = table.rows("e", 3, 0)
    assert narrow.width == 8
    wide, wide_p = table.rows("p", 5, 200)
    assert wide.width == 16
    assert wide_p == [wide.pack(x.terms) for x in _u_series(ALG, 5, False)]
    # the e rows went with the old layout: they are built again in the new one
    packing, wide_e = table.rows("e", 3, 0)
    assert packing is wide
    assert wide_e == [wide.pack(x.terms) for x in _u_series(ALG, 3, True)]
    assert builds == [(5, False), (3, True), (5, False), (3, True)]
    # a narrower bound keeps the wider layout
    assert table.rows("p", 5, 0) == (wide, wide_p)
    # a pair taken before the widening still unpacks to the same polynomials
    assert [narrow.unpack(x) for x in narrow_p] == [wide.unpack(x) for x in wide_p]
    assert [narrow.unpack(x) for x in narrow_e] == [wide.unpack(x) for x in wide_e]


def test_power_characters_build_only_their_own_order(builds, table):
    table.p(0)
    table.e(2)
    assert builds == [(0, False), (2, True)]


def test_spo12_3_tables_stay_small_at_the_order_read():
    """Order 9 of spo(12|3) is what (5,4,3,2,1) reads; a table grown to
    twice its length held 19 rows at a 162 MiB peak."""
    tab = PowerTable(Algebra.parse("12|3"))
    tracemalloc.start()
    try:
        tab.rows("p", 5, 25)
        packing, rows = tab.rows("p", 9, 25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 10 and len(tab.rows("p", 0, 0)[1]) == 10
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
