"""Packed monomials against the tuple path they replaced.

`superspace` holds every monomial of a computation as one int
(`MonomialLayout`).  The functions below, down to `_frozen_report`, are
frozen copies of the tuple code before that change: the images of
`Derivation` and `Laplacian`, the memo table that applied them
(`_TupleImages`), `_weight_monomials` with its recursive compositions, the
degree guards and the kernel check (`_bounded_dim`, `_bounded_kernel_dims`,
`_check_surjective`), and the block path `_block_kernel`, `_block_singular`,
`_singular_pass` and `_deficits` with the public functions built on it.
They are the references of this file, so they are never imported from src.
"""

import functools
import gc
import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spochar import superspace
from spochar.laurent import grlex_key
from spochar.linalg import _SparseSpan, nullspace
from spochar.rootdata import (
    Algebra,
    DimensionGuard,
    Weight,
    fold_to_dominant,
    is_dominant,
    positive_roots,
    simple_roots,
)
from spochar.superspace import (
    IrreducibilityReport,
    Laplacian,
    MonomialImages,
    _degree_weights,
    _dominant_weights,
    _integer_multiple,
    _is_degree_weight,
    _layout,
    _orbit_size,
    _upward_closure,
    degree_basis,
    degree_dim,
    doubled_laplacian,
    gen_count,
    gen_weight_doubled,
    laplacian,
    monomial_layout,
    root_operator,
    simple_root_operators,
)

from test_superspace import _merged_monomial_image


# -- frozen tuple path -------------------------------------------------------------


def _bump(out, key, val):
    v = out.get(key, 0) + val
    if v:
        out[key] = v
    elif key in out:
        del out[key]


def _derivation_image(op, mono):
    gs = _layout(op.alg)[1]
    out = {}
    for src, tgt, c in op.moves:
        e = mono[src]
        if not e:
            continue
        if src < gs:
            c *= e
        elif op.parity and sum(mono[gs:src]) % 2:
            c = -c
        new = list(mono)
        new[src] = e - 1
        if tgt is not None:
            if tgt >= gs:
                if new[tgt]:
                    continue
                lo, hi = (src, tgt) if src < tgt else (tgt, src)
                if sum(mono[max(lo + 1, gs):hi]) % 2:
                    c = -c
            new[tgt] += 1
        _bump(out, tuple(new), c)
    return out


def _laplacian_image(lap, mono):
    alg = lap.alg
    n, m, gs = alg.n, alg.m, _layout(alg)[1]
    c_xi, c_x, c_x0 = lap.coefficients
    out = {}
    for j in range(gs, gs + n):
        if mono[j] and mono[j + n]:
            new = list(mono)
            new[j] = new[j + n] = 0
            out[tuple(new)] = c_xi if sum(mono[j + 1:j + n]) % 2 else -c_xi
    for i in range(m):
        a, b = mono[i], mono[m + i]
        if a and b:
            new = list(mono)
            new[i], new[m + i] = a - 1, b - 1
            out[tuple(new)] = c_x * a * b
    c = mono[2 * m] if alg.odd else 0
    if c > 1:
        new = list(mono)
        new[2 * m] = c - 2
        out[tuple(new)] = c_x0 * c * (c - 1)
    return out


def _tuple_image(op, mono):
    return _laplacian_image(op, mono) if isinstance(op, Laplacian) else _derivation_image(op, mono)


class _TupleImages:
    def __init__(self):
        self._tables = {}

    def image(self, op, mono):
        entry = self._tables.get(id(op))
        if entry is None:
            entry = self._tables[id(op)] = (op, {})
        table = entry[1]
        img = table.get(mono)
        if img is None:
            img = table[mono] = _tuple_image(op, mono)
        return img

    def apply(self, op, terms):
        out = {}
        for mono, c in terms.items():
            for t, ic in self.image(op, mono).items():
                _bump(out, t, c * ic)
        return out


def _compositions(total, slots):
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def _weight_monomials(alg, k, doubled):
    n, m = alg.n, alg.m
    a = [x // 2 for x in doubled[:n]]
    b = [x // 2 for x in doubled[n:]]
    x = [max(c, 0) for c in b]
    xb = [max(-c, 0) for c in b]
    slack = k - sum(map(abs, a)) - sum(map(abs, b))
    zeros = [j for j, c in enumerate(a) if not c]
    out = []
    for both in range(min(len(zeros), slack // 2) + 1):
        rest = slack - 2 * both
        if alg.odd:
            splits = [(t, [rest - 2 * t]) for t in range(rest // 2 + 1)]
        else:
            splits = [(rest // 2, [])] if rest % 2 == 0 else []
        for pair in itertools.combinations(zeros, both):
            xi = [int(c > 0 or j in pair) for j, c in enumerate(a)]
            xib = [int(c < 0 or j in pair) for j, c in enumerate(a)]
            for t, x0 in splits:
                for ts in _compositions(t, m):
                    out.append(tuple([u + v for u, v in zip(x, ts)] + [u + v for u, v in zip(xb, ts)]
                                     + x0 + xi + xib))
    return sorted(out)


def _bounded_dim(alg, k, bound):
    if k < 0:
        return 0
    dim = degree_dim(alg, k)
    if dim > bound:
        raise DimensionGuard(f"dim = {dim} exceeds bound {bound}")
    return dim


def _bounded_kernel_dims(alg, k, bound):
    _bounded_dim(alg, k, bound)
    _bounded_dim(alg, k - 2, bound)


def _check_surjective(alg, k, kdim):
    if kdim != max(0, degree_dim(alg, k) - degree_dim(alg, k - 2)):
        raise ArithmeticError(f"Laplacian not surjective in degree {k}: kernel dim {kdim}")


def _block_kernel(images, lap, dom):
    return [{dom[c]: x for c, x in v.items()} for v in nullspace([images.image(lap, t) for t in dom])]


def _block_singular(images, ups, kern):
    columns = []
    for terms in kern:
        col = {}
        for op_i, op in enumerate(ups):
            for t, c in images.apply(op, terms).items():
                col[(op_i, t)] = c
        columns.append(col)
    out = []
    for a in nullspace(columns):
        vec = {}
        for j, aj in a.items():
            for t, c in kern[j].items():
                _bump(vec, t, aj * c)
        lead = vec[max(vec)]
        out.append({t: Fraction(vec[t], lead) for t in sorted(vec)})
    return out


def _singular_pass(alg, k, bound, images, ups):
    _bounded_dim(alg, k, bound)
    lap = doubled_laplacian(alg)
    kdim = 0
    out = {}
    orbit_size = {}
    blocks = {}
    for wt in _dominant_weights(alg, k):
        orbit_size[wt] = _orbit_size(alg, wt)
        kern = blocks[wt] = _block_kernel(images, lap, _weight_monomials(alg, k, wt))
        kdim += orbit_size[wt] * len(kern)
        vecs = _block_singular(images, ups, kern)
        if vecs:
            out[Weight(alg, wt)] = [superspace.SuperElement(alg, v) for v in vecs]
    return kdim, out, orbit_size, blocks


def _deficits(alg, k, blocks, images, downs):
    simples = [a.doubled for a in simple_roots(alg)]
    lap = doubled_laplacian(alg)
    vectors = dict(blocks)

    def kernel_at(nu):
        if nu not in vectors:
            dom = _weight_monomials(alg, k, nu) if _is_degree_weight(alg, k, nu) else []
            vectors[nu] = _block_kernel(images, lap, dom)
        return vectors[nu]

    for mu, kern in blocks.items():
        if not kern:
            continue
        above = sorted(((op, tuple(x + y for x, y in zip(mu, a))) for op, a in zip(downs, simples)),
                       key=lambda pair: pair[1] not in blocks)
        span = _SparseSpan()
        for w in (images.apply(op, v) for op, nu in above for v in kernel_at(nu)):
            if span.add(w) and span.dim == len(kern):
                break
        yield mu, len(kern) - span.dim


def _frozen_kernel_basis(alg, k, bound=20000):
    _bounded_kernel_dims(alg, k, bound)
    images = _TupleImages()
    lap = doubled_laplacian(alg)
    found = []
    for wt in _degree_weights(alg, k):
        for v in _block_kernel(images, lap, _weight_monomials(alg, k, wt)):
            free = max(v)
            found.append((free, superspace.SuperElement(alg, {t: Fraction(v[t], v[free]) for t in sorted(v)})))
    _check_surjective(alg, k, len(found))
    found.sort(key=lambda pair: pair[0])
    return [el for _, el in found]


def _frozen_cyclic_span_dim(alg, vector, ops, orbit_size):
    walk = _upward_closure(alg, sum(next(iter(vector.terms))), orbit_size)
    shifts = [op.weight_shift() for op in ops]
    images = _TupleImages()
    span = _SparseSpan()
    start = _integer_multiple(vector.terms)
    span.add(start)
    top = vector.weight()
    dims = Counter([top])
    frontier = [(top, start)]
    while frontier:
        new = []
        for wt, v in frontier:
            for op, shift in zip(ops, shifts):
                low = tuple(x + y for x, y in zip(wt, shift))
                if low not in walk:
                    continue
                w = images.apply(op, v)
                if w and span.add(w):
                    dims[low] += 1
                    new.append((low, w))
        frontier = new
    return sum(orbit_size[wt] * d for wt, d in dims.items() if wt in orbit_size)


def _tensor_coproduct_image(alg, images, op, mono, slot):
    gs = _layout(alg)[1]
    out = {(t, slot): c for t, c in images.image(op, mono).items()}
    sign = -1 if (op.parity and sum(mono[gs:]) % 2) else 1
    for src, tgt, c in op.moves:
        if src == slot:
            _bump(out, (mono, tgt), sign * c)
    return out


def _frozen_tensor_counts(alg, k, bound=20000):
    _bounded_dim(alg, k, bound)
    shifts = [gen_weight_doubled(alg, s) for s in range(gen_count(alg))]
    dominant = {fold_to_dominant(alg, tuple(a + b for a, b in zip(mu, shift)))
                for mu in _dominant_weights(alg, k) for shift in shifts}
    images = _TupleImages()
    ups, _ = simple_root_operators(alg)
    lap = doubled_laplacian(alg)
    kernels = {}
    counts = {}
    for wt in sorted(dominant, key=grlex_key, reverse=True):
        columns = []
        for s, shift in enumerate(shifts):
            low = tuple(a - b for a, b in zip(wt, shift))
            if not _is_degree_weight(alg, k, low):
                continue
            if low not in kernels:
                kernels[low] = _block_kernel(images, lap, _weight_monomials(alg, k, low))
            for terms in kernels[low]:
                col = {}
                for op_i, op in enumerate(ups):
                    for mono, c in terms.items():
                        for key, v in _tensor_coproduct_image(alg, images, op, mono, s).items():
                            _bump(col, (op_i, key), c * v)
                columns.append(col)
        span = _SparseSpan()
        dim = sum(not span.add(col) for col in columns)
        if dim:
            counts[Weight(alg, wt)] = dim
    return counts


def _frozen_report(alg, k, bound=20000):
    images = _TupleImages()
    ups, downs = simple_root_operators(alg)
    _bounded_kernel_dims(alg, k, bound)
    kdim, svs, orbit_size, blocks = _singular_pass(alg, k, bound, images, ups)
    _check_surjective(alg, k, kdim)
    if kdim == 0:
        return IrreducibilityReport(alg, k, 0, [], False, 0, "zero", ["kernel is zero in this degree"])
    weights = [(w, len(vs)) for w, vs in svs.items()]
    total_sing = sum(c for _, c in weights)
    has_trivial = any(
        not any(images.apply(op, v.terms) for op in ups + downs)
        for w, vs in svs.items() if w.is_zero() for v in vs
    )
    top_weight = max(svs, key=lambda w: grlex_key(w.doubled))
    one_top = len(svs[top_weight]) == 1
    generates = one_top and all(total <= 1 for total in itertools.accumulate(
        d for _, d in _deficits(alg, k, blocks, images, downs)))
    del images, blocks
    top_dim = 0
    if generates:
        top_dim = kdim
    elif one_top:
        top_dim = _frozen_cyclic_span_dim(alg, svs[top_weight][0], downs, orbit_size)
    notes = []
    if total_sing == 1 and top_dim == kdim:
        cls = "irreducible"
    elif has_trivial and total_sing == 2 and len(weights) == 2:
        cls = "reducible_with_trivial_submodule"
        if top_dim == kdim:
            notes.append("indecomposable: the top singular vector is cyclic and the trivial submodule sits inside its span")
        elif top_dim == kdim - 1:
            notes.append("splits as trivial module plus the top cyclic submodule")
    else:
        cls = "inconclusive"
        notes.append("singular-vector pattern matches no implemented criterion")
    for w, vs in svs.items():
        if not is_dominant(w):
            notes.append(f"non-dominant singular weight {w.format()} (unexpected)")
    return IrreducibilityReport(alg, k, kdim, weights, has_trivial, top_dim, cls, notes)


# -- the gate ------------------------------------------------------------------------

ALGEBRAS = [Algebra.parse(f"{n2}|{l}") for n2 in (2, 4, 6, 8) for l in range(10)]
CASES = [(alg, k) for alg in ALGEBRAS for k in range(12) if degree_dim(alg, k) <= 3000]
# the solves that read every weight of a degree, or twice its dominant ones,
# run on the smaller degrees, to keep the file to a few seconds
SMALL = 300


def _exact(el):
    return [(t, type(c), c) for t, c in el.terms.items()]


def _exact_vectors(svs):
    return [(w.doubled, [_exact(v) for v in vs]) for w, vs in svs.items()]


@pytest.mark.parametrize("alg", ALGEBRAS, ids=str)
def test_packed_path_matches_the_tuple_path(alg):
    cases = [k for a, k in CASES if a == alg]
    assert cases
    for k in cases:
        ups, downs = simple_root_operators(alg)
        assert superspace.irreducibility_report(alg, k) == _frozen_report(alg, k), k
        if degree_dim(alg, k) > SMALL:
            continue
        kern = superspace.kernel_basis(alg, k)
        assert [_exact(v) for v in kern] == [_exact(v) for v in _frozen_kernel_basis(alg, k)], k
        svs = superspace.singular_vectors(alg, k)
        _, ref_svs, orbit_size, _ = _singular_pass(alg, k, 20000, _TupleImages(), ups)
        assert _exact_vectors(svs) == _exact_vectors(ref_svs), k
        counts = superspace.natural_tensor_singular_counts(alg, k)
        assert list(counts.items()) == list(_frozen_tensor_counts(alg, k).items()), k
        if alg.m == 1 and not alg.odd:  # l = 2, where the report walks the cyclic span
            for vs in svs.values():
                for v in vs:
                    got = superspace.cyclic_span_dim(alg, v, downs, orbit_size)
                    assert got == _frozen_cyclic_span_dim(alg, v, downs, orbit_size), k


@functools.lru_cache(maxsize=None)
def _operators(alg):
    pos = positive_roots(alg)
    return [root_operator(alg, root) for r in pos.even + pos.odd for root in (r, -r)]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_packed_images_match_the_tuple_and_merged_images(data):
    # every monomial of a drawn degree, under a drawn root operator and the
    # two Laplacians
    alg, k = data.draw(st.sampled_from([(alg, k) for alg, k in CASES if degree_dim(alg, k)]))
    op = data.draw(st.sampled_from(_operators(alg)))
    layout = monomial_layout(alg, k)
    images = MonomialImages(layout)
    for mono in degree_basis(alg, k, 3000):
        key = layout.pack(mono)
        assert layout.unpack(key) == mono
        for lap in [doubled_laplacian(alg), laplacian(alg)]:
            assert layout.unpack_terms(images.image(lap, key)) == _laplacian_image(lap, mono)
        got = layout.unpack_terms(images.image(op, key))
        assert got == _derivation_image(op, mono) == _merged_monomial_image(op, mono)


def test_weight_monomials_match_the_tuple_path():
    for alg, k in CASES:
        if degree_dim(alg, k) > 600:
            continue
        layout = monomial_layout(alg, k)
        for wt in _degree_weights(alg, k):
            keys = superspace._weight_monomials(layout, k, wt)
            assert keys == sorted(keys)
            assert [layout.unpack(t) for t in keys] == _weight_monomials(alg, k, wt)


def test_packed_order_is_tuple_order():
    # int order is tuple order, also at degrees 3 and 7, whose top exponents
    # fill their fields
    for text in ("2|0", "4|3", "6|4", "2|9"):
        alg = Algebra.parse(text)
        for k in (1, 2, 3, 4, 7, 8):
            if degree_dim(alg, k) > 3000:
                continue
            basis = degree_basis(alg, k, 3000)
            layout = monomial_layout(alg, k)
            assert [layout.pack(t) for t in basis] == sorted(layout.pack(t) for t in basis)
            assert all(layout.unpack(layout.pack(t)) == t for t in basis)


def _peak(call):
    # a full collection empties the free lists, whose blocks tracemalloc
    # would not see reused
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("text,k", [("4|4", 5), ("6|6", 6)])
def test_packed_report_peaks_below_the_tuple_report(text, k):
    alg = Algebra.parse(text)
    assert superspace.irreducibility_report(alg, k) == _frozen_report(alg, k)
    packed = _peak(lambda: superspace.irreducibility_report(alg, k))
    tuples = _peak(lambda: _frozen_report(alg, k))
    assert packed < tuples


def test_report_keeps_no_image_table():
    # operators image each monomial when it is read: the spo(6|6) degree-6
    # report peaks near 0.24 MiB, where a table of every image it computed
    # raised the peak to 0.62 MiB
    alg = Algebra.parse("6|6")
    peak = _peak(lambda: superspace.irreducibility_report(alg, 6))
    assert peak < 0.4 * 2**20, f"peak {peak / 2**20:.2f} MiB"
