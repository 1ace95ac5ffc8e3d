import random
from fractions import Fraction

import pytest

from spochar.jacobitrudi import ext_power_char
from spochar import superspace
from spochar.rootdata import Algebra, Weight, positive_roots
from spochar.superspace import (
    SuperElement,
    char_of_degree,
    degree_basis,
    format_monomial,
    gen_count,
    gen_name,
    irreducibility_report,
    kernel_basis,
    kernel_tensor_natural_report,
    laplacian,
    monomial_weight_doubled,
    natural_tensor_singular_counts,
    partial,
    root_operator,
    simple_root_operators,
    singular_vectors,
)

SPO23 = Algebra(1, 1, True)
SPO25 = Algebra(1, 2, True)
SPO44 = Algebra(2, 2, False)


def gens(alg, *names):
    return tuple(SuperElement.from_name(alg, n) for n in names)


def random_element(alg, rng, maxdeg=4, nterms=4):
    pool = []
    for k in range(maxdeg + 1):
        pool.extend(degree_basis(alg, k))
    terms = {}
    for _ in range(nterms):
        terms[rng.choice(pool)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return SuperElement(alg, terms)


def test_generator_layout_and_names():
    assert gen_count(SPO25) == 7
    assert [gen_name(SPO25, i) for i in range(7)] == ["x1", "x2", "xb1", "xb2", "x0", "xi1", "xib1"]
    assert gen_count(SPO44) == 8


def test_grassmann_sign_rules():
    xi1, xi2 = gens(SPO44, "xi1", "xi2")
    assert xi1 * xi2 == -1 * (xi2 * xi1)
    assert (xi1 * xi1).is_zero()
    x1, x2 = gens(SPO44, "x1", "x2")
    assert x1 * x2 == x2 * x1
    assert xi1 * x1 == x1 * xi1  # commuting generators pass odd ones freely


def test_multiplication_associativity_random():
    rng = random.Random(5)
    for _ in range(20):
        a, b, c = (random_element(SPO44, rng, 3, 3) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_superderivation_leibniz_property():
    rng = random.Random(9)
    alg = SPO44
    roots = positive_roots(alg).even + positive_roots(alg).odd
    gs = 4  # commuting slots of spo(4|4)
    ops = [root_operator(alg, r) for r in roots[:4]] + [root_operator(alg, -r) for r in roots[:2]]
    for op in ops:
        for _ in range(5):
            a = random_element(alg, rng, 3, 3)
            b = random_element(alg, rng, 3, 3)
            # split a into Grassmann-parity homogeneous pieces for the sign
            for par in (0, 1):
                part = SuperElement(alg, {t: c for t, c in a.terms.items() if sum(t[gs:]) % 2 == par})
                sign = -1 if (op.parity and par) else 1
                lhs = op.apply(part * b)
                rhs = op.apply(part) * b + sign * (part * op.apply(b))
                assert lhs == rhs


def test_partial_derivative_signs():
    alg = SPO25
    xi1, xib1 = gens(alg, "xi1", "xib1")
    d_xib = partial(alg, 6)
    # passing one Grassmann factor flips the sign
    assert d_xib.apply(xi1 * xib1) == -1 * xi1


def test_laplacian_values():
    alg = SPO25
    lap = laplacian(alg)
    x1, x0 = gens(alg, "x1", "x0")
    assert lap.apply(x1).is_zero()
    assert lap.apply(x0 * x0) == -1 * SuperElement.one(alg)


def test_laplacian_kernel_calibration():
    # v = x1^{k-2}((k+m-3/2) xi1 xib1 - sum x_i xb_i - x0^2/2) is harmonic;
    # the competing coefficient (k+n-3/2) is not, for m != n
    alg = SPO25
    k = 3
    x1, x2, xb1, xb2, x0, xi1, xib1 = gens(alg, "x1", "x2", "xb1", "xb2", "x0", "xi1", "xib1")
    quad = x1 * xb1 + x2 * xb2 + Fraction(1, 2) * (x0 * x0)
    lap = laplacian(alg)
    good = x1 * (Fraction(2 * k + 2 * alg.m - 3, 2) * (xi1 * xib1) - quad)
    bad = x1 * (Fraction(2 * k + 2 * alg.n - 3, 2) * (xi1 * xib1) - quad)
    assert lap.apply(good).is_zero()
    assert not lap.apply(bad).is_zero()


def test_odd_simple_pair_formulas():
    # raising: x1 -> xi_n, xib_n -> -xb1; lowering: xi_n -> x1, xb1 -> xib_n
    alg = SPO44
    e0 = root_operator(alg, Weight.parse(alg, "1d2-1e1"))
    f0 = root_operator(alg, Weight.parse(alg, "1e1-1d2"))
    x1, xb1, xi2, xib2 = gens(alg, "x1", "xb1", "xi2", "xib2")
    assert e0.apply(x1) == xi2
    assert e0.apply(xib2) == -1 * xb1
    assert f0.apply(xi2) == x1
    assert f0.apply(xb1) == xib2


def test_weight_reading():
    basis = degree_basis(SPO23, 1)
    xi_mono = next(t for t in basis if format_monomial(SPO23, t) == "xi1")
    assert monomial_weight_doubled(SPO23, xi_mono) == (2, 0)  # weight d1


@pytest.mark.parametrize("algtxt", ["2|3", "4|4", "4|3"])
def test_root_operators_commute_with_laplacian(algtxt):
    rng = random.Random(13)
    alg = Algebra.parse(algtxt)
    lap = laplacian(alg)
    roots = positive_roots(alg).even + positive_roots(alg).odd
    ops = [root_operator(alg, r) for r in roots] + [root_operator(alg, -r) for r in roots]
    for op in ops:
        for _ in range(2):
            el = random_element(alg, rng)
            assert lap.apply(op.apply(el)) == op.apply(lap.apply(el))


def test_bracket_with_opposite_root_is_cartan():
    # [e_a, f_a] acts diagonally on generators with eigenvalues proportional
    # to the pairing of the generator weight with the root
    from spochar.superspace import gen_weight_doubled

    for algtxt in ("2|3", "4|4"):
        alg = Algebra.parse(algtxt)
        pos = positive_roots(alg)
        for r in pos.even + pos.odd:
            e = root_operator(alg, r)
            f = root_operator(alg, -r)
            anticommute = e.parity == 1 and f.parity == 1
            ratios = set()
            for slot in range(gen_count(alg)):
                v = SuperElement.generator(alg, slot)
                if anticommute:
                    bracket = e.apply(f.apply(v)) + f.apply(e.apply(v))
                else:
                    bracket = e.apply(f.apply(v)) - f.apply(e.apply(v))
                pairing = Weight(alg, gen_weight_doubled(alg, slot)).pair(r)
                if bracket.is_zero():
                    continue
                assert bracket.terms.keys() == v.terms.keys(), "bracket is not diagonal"
                eig = list(bracket.terms.values())[0]
                if pairing:
                    ratios.add(eig / pairing)
                else:
                    assert eig == 0
            assert len(ratios) <= 1, f"inconsistent Cartan eigenvalues for {r.format()}"


def test_kernel_dimensions():
    assert len(kernel_basis(SPO23, 1)) == 5
    assert len(kernel_basis(SPO23, 2)) == 12
    assert len(kernel_basis(SPO25, 3)) == 63


def test_characters_match_exterior_powers():
    for alg, kmax in [(SPO23, 6), (SPO44, 5)]:
        for k in range(kmax + 1):
            assert char_of_degree(alg, k) == ext_power_char(alg, k)


def test_kernel_character_is_e_k_minus_e_k_2():
    # per weight block, the kernel dimension of the Laplacian must equal the
    # coefficient of that weight in e_k - e_{k-2}
    from spochar.linalg import nullspace
    from spochar.superspace import monomial_weight_doubled

    for alg, k in [(SPO23, 3), (SPO25, 2), (SPO44, 3)]:
        expected = ext_power_char(alg, k) - ext_power_char(alg, k - 2)
        lap = laplacian(alg)
        blocks = {}
        for t in degree_basis(alg, k):
            blocks.setdefault(monomial_weight_doubled(alg, t), []).append(t)
        got = {}
        for w, dom in blocks.items():
            images = [lap.apply(SuperElement(alg, {t: Fraction(1)})) for t in dom]
            cod = sorted({t for img in images for t in img.terms})
            idx = {t: i for i, t in enumerate(cod)}
            mat = [[Fraction(0)] * len(dom) for _ in range(len(cod))]
            for col, img in enumerate(images):
                for t, c in img.terms.items():
                    mat[idx[t]][col] = c
            dim = len(nullspace(mat)) if cod else len(dom)
            if dim:
                got[w] = dim
        assert got == expected.terms


def test_singular_vectors_unique_for_rank_one_odd():
    for k in range(2, 6):
        svs = singular_vectors(SPO25, k)
        expected = Weight.from_coeffs(SPO25, [1], [k - 1, 0])
        assert list(svs) == [expected]
        assert len(svs[expected]) == 1


def test_invariant_vector_spans_trivial_submodule():
    svs = singular_vectors(SPO44, 2)
    zero = Weight.zero(SPO44)
    assert set(svs) == {Weight.parse(SPO44, "1d1+1d2"), zero}
    (phi_vec,) = svs[zero]
    xi1, xi2, xib1, xib2, x1, x2, xb1, xb2 = gens(SPO44, "xi1", "xi2", "xib1", "xib2", "x1", "x2", "xb1", "xb2")
    phi = xi1 * xib1 + xi2 * xib2 - x1 * xb1 - x2 * xb2
    scale = next(iter(phi_vec.terms.values())) / next(iter(phi.terms.values()))
    assert phi_vec == phi.scale(scale) or phi_vec == phi.scale(-scale) or phi_vec == phi
    ups, downs = simple_root_operators(SPO44)
    assert all(op.apply(phi).is_zero() for op in ups + downs)


def test_irreducibility_classifications():
    assert irreducibility_report(Algebra.parse("6|3"), 1).classification == "irreducible"
    rep = irreducibility_report(SPO44, 2)
    assert rep.classification == "reducible_with_trivial_submodule"
    assert rep.kernel_dim == 31  # dim of degree 2 minus dim of degree 0
    assert rep.has_trivial_submodule
    assert irreducibility_report(SPO44, 3).classification == "irreducible"


def test_natural_tensor_singular_counts_detect_nonsplit():
    # over spo(2|3) in degree 2 the product has composition multiplicity two
    # at the natural weight but only one singular vector: non-split piece
    counts = natural_tensor_singular_counts(SPO23, 2)
    as_pairs = {w.format(): c for w, c in counts.items()}
    assert as_pairs == {"2d1+1e1": 1, "1d1+2e1": 1, "1d1": 1}


def test_kernel_tensor_natural_report_spo45():
    rep = kernel_tensor_natural_report(Algebra.parse("4|5"), 2)
    assert rep["factor_multiset"] == {"2d1+1d2": 1, "1d1": 2, "1d1+1d2+1e1": 1}
    assert rep["singular_counts"]["1d1"] == 1
    assert rep["extension_deficits"] == {"1d1": 1}
    assert all(rep["checks"].values())
    assert "non-split" in rep["note"]


@pytest.mark.parametrize("k", [1, 2])
def test_kernel_tensor_natural_report_solves_each_degree_once(monkeypatch, k):
    solved = []
    singular_pass = superspace._singular_pass

    def counting(alg, k, *args):
        solved.append(k)
        return singular_pass(alg, k, *args)

    monkeypatch.setattr(superspace, "_singular_pass", counting)
    kernel_tensor_natural_report(Algebra.parse("4|5"), k)
    assert sorted(solved) == sorted({1, k, k + 1})


def test_degree_guard():
    from spochar.superspace import DimensionGuard

    with pytest.raises(DimensionGuard):
        degree_basis(Algebra.parse("8|3"), 9, bound=100)


def test_degree_dim_counts_the_basis():
    from spochar.superspace import degree_dim

    for text, kmax in [("2|3", 6), ("4|4", 5), ("6|3", 4), ("4|0", 6), ("2|1", 4), ("2|2", 4)]:
        alg = Algebra.parse(text)
        for k in range(-1, kmax + 1):
            assert degree_dim(alg, k) == len(degree_basis(alg, k))


def test_degree_basis_is_one_cache_entry_per_degree():
    from spochar.superspace import _degree_basis

    alg = Algebra.parse("4|3")
    _degree_basis.cache_clear()
    degree_basis(alg, 3)
    degree_basis(alg, 1)
    assert _degree_basis.cache_info().misses == 2
    # the report and the explicit-bound spellings read the warmed entries
    irreducibility_report(alg, 3)
    degree_basis(alg, 3, 20000)
    degree_basis(alg, 1, bound=20000)
    info = _degree_basis.cache_info()
    assert (info.misses, info.currsize) == (2, 2) and info.hits >= 4


def test_oversized_degree_is_refused_before_enumeration():
    import time

    from spochar.superspace import DimensionGuard, degree_dim

    alg = Algebra.parse("10|10")
    dim = degree_dim(alg, 40)
    start = time.perf_counter()
    with pytest.raises(DimensionGuard) as exc:
        degree_basis(alg, 40)
    assert time.perf_counter() - start < 1.0
    assert f"dim = {dim}" in str(exc.value) and "bound 20000" in str(exc.value)


# -- differential test: the per-weight block engine against the dense path ------------
#
# A frozen copy of the whole-degree path the block engine replaced: operators
# applied through SuperElement products, the Laplacian with its 1/2, one dense
# Fraction matrix per degree (or per stacked weight block) and `nullspace`.

from spochar.linalg import nullspace as _dense_nullspace
from spochar.superspace import OperatorSum, _layout, monomial_weight_doubled


def _reference_apply(op, el):
    alg = el.alg
    if isinstance(op, OperatorSum):
        total = SuperElement.zero(alg)
        for coef, chain in op.parts:
            cur = el
            for inner in reversed(chain):
                cur = _reference_apply(inner, cur)
            total = total + cur.scale(coef)
        return total
    gs = _layout(alg)[1]
    total = SuperElement.zero(alg)
    for mono, coef in el.terms.items():
        for slot, img in op.image_map().items():
            e = mono[slot]
            if not e:
                continue
            if slot >= gs:
                sign = -1 if (op.parity and sum(mono[gs:slot]) % 2) else 1
                mult = Fraction(sign)
                left = mono[:slot] + (0,) * (len(mono) - slot)
            else:
                mult = Fraction(e)
                left = mono[:slot] + (e - 1,) + (0,) * (len(mono) - slot - 1)
            right = (0,) * (slot + 1) + mono[slot + 1:]
            piece = SuperElement(alg, {left: coef * mult}) * img
            total = total + piece * SuperElement(alg, {right: Fraction(1)})
    return total


def _reference_laplacian(alg):
    m, nc = alg.m, _layout(alg)[0]
    parts = [(Fraction(1), (partial(alg, nc + j), partial(alg, nc + alg.n + j))) for j in range(alg.n)]
    parts += [(Fraction(-1), (partial(alg, i), partial(alg, m + i))) for i in range(m)]
    if alg.odd:
        parts.append((Fraction(-1, 2), (partial(alg, 2 * m), partial(alg, 2 * m))))
    return OperatorSum(tuple(parts))


def _matrix_of(alg, op, domain, codomain_index):
    rows = [[Fraction(0)] * len(domain) for _ in range(len(codomain_index))]
    for col, mono in enumerate(domain):
        img = _reference_apply(op, SuperElement(alg, {mono: Fraction(1)}))
        for t, c in img.terms.items():
            rows[codomain_index[t]][col] = c
    return rows


def _reference_kernel_basis(alg, k):
    dom = degree_basis(alg, k)
    cod = degree_basis(alg, k - 2)
    if not cod:
        return [SuperElement(alg, {t: Fraction(1)}) for t in dom]
    mat = _matrix_of(alg, _reference_laplacian(alg), dom, {t: i for i, t in enumerate(cod)})
    basis = _dense_nullspace(mat)
    assert len(basis) == len(dom) - len(cod)
    return [SuperElement(alg, {dom[i]: v[i] for i in range(len(dom)) if v[i]}) for v in basis]


def _stacked_null(columns_per_op, ncols):
    stacked = []
    for images in columns_per_op:
        cod = sorted({t for img in images for t in img})
        index = {t: i for i, t in enumerate(cod)}
        block = [[Fraction(0)] * ncols for _ in cod]
        for col, img in enumerate(images):
            for t, c in img.items():
                block[index[t]][col] = c
        stacked.extend(block)
    if not stacked:
        return [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    return _dense_nullspace(stacked)


def _reference_singular_vectors(alg, k):
    from spochar.laurent import grlex_key

    ops = [_reference_laplacian(alg)] + simple_root_operators(alg)[0]
    groups = {}
    for t in degree_basis(alg, k):
        groups.setdefault(monomial_weight_doubled(alg, t), []).append(t)
    out = {}
    for wt in sorted(groups, key=grlex_key, reverse=True):
        dom = sorted(groups[wt])
        per_op = [[_reference_apply(op, SuperElement(alg, {t: Fraction(1)})).terms for t in dom] for op in ops]
        vecs = [SuperElement(alg, {dom[i]: v[i] for i in range(len(dom)) if v[i]})
                for v in _stacked_null(per_op, len(dom))]
        if vecs:
            out[Weight(alg, wt)] = vecs
    return out


def _reference_natural_tensor_counts(alg, k):
    from spochar.laurent import grlex_key
    from spochar.superspace import gen_weight_doubled

    gs = _layout(alg)[1]
    lap = _reference_laplacian(alg)
    ups = simple_root_operators(alg)[0]
    groups = {}
    for t in degree_basis(alg, k):
        for s in range(gen_count(alg)):
            w = tuple(a + b for a, b in zip(monomial_weight_doubled(alg, t), gen_weight_doubled(alg, s)))
            groups.setdefault(w, []).append((t, s))

    def one(mono):
        return SuperElement(alg, {mono: Fraction(1)})

    counts = {}
    for wt in sorted(groups, key=grlex_key, reverse=True):
        block = sorted(groups[wt])
        per_op = [[{(t, s): c for t, c in _reference_apply(lap, one(mono)).terms.items()} for mono, s in block]]
        for op in ups:
            images = []
            for mono, s in block:
                img = {(t, s): c for t, c in _reference_apply(op, one(mono)).terms.items()}
                gen_img = op.image_map().get(s)
                if gen_img is not None:
                    sign = -1 if (op.parity and sum(mono[gs:]) % 2) else 1
                    for t, c in gen_img.terms.items():
                        key = (mono, next(i for i, e in enumerate(t) if e))
                        img[key] = img.get(key, 0) + sign * c
                images.append({key: c for key, c in img.items() if c})
            per_op.append(images)
        dim = len(_stacked_null(per_op, len(block)))
        if dim:
            counts[Weight(alg, wt)] = dim
    return counts


def _reference_cyclic_span_dim(vector, ops):
    pivots = {}

    def add(vec):
        vec = dict(vec)
        while vec:
            lead = max(vec)
            if lead not in pivots:
                pivots[lead] = {t: c / vec[lead] for t, c in vec.items()}
                return True
            c = vec[lead]
            for t, pc in pivots[lead].items():
                vec[t] = vec.get(t, 0) - c * pc
                if not vec[t]:
                    del vec[t]
        return False

    add(vector.terms)
    frontier = [vector]
    while frontier:
        new = []
        for v in frontier:
            for op in ops:
                w = _reference_apply(op, v)
                if w and add(w.terms):
                    new.append(w)
        frontier = new
    return len(pivots)


def _reference_report_fields(alg, k):
    from spochar.laurent import grlex_key

    kdim = len(_reference_kernel_basis(alg, k))
    if kdim == 0:
        return (0, [], False, 0)
    svs = _reference_singular_vectors(alg, k)
    ups, downs = simple_root_operators(alg)
    has_trivial = any(
        all(_reference_apply(op, v).is_zero() for op in ups + downs)
        for w, vs in svs.items() if w.is_zero() for v in vs
    )
    top = max(svs, key=lambda w: grlex_key(w.doubled))
    top_dim = _reference_cyclic_span_dim(svs[top][0], downs) if len(svs[top]) == 1 else 0
    return (kdim, [(w, len(vs)) for w, vs in svs.items()], has_trivial, top_dim)


DIFFERENTIAL_CASES = [
    (alg, k)
    for text, kmax in [("2|3", 5), ("2|5", 4), ("4|3", 4), ("4|4", 4), ("6|3", 2),
                       ("2|2", 4), ("2|4", 4), ("6|4", 2), ("4|6", 2)]
    for alg in [Algebra.parse(text)]
    for k in range(kmax + 1)
]


def _exact_terms(el):
    return [(t, type(c), c) for t, c in el.terms.items()]


@pytest.mark.parametrize("alg,k", DIFFERENTIAL_CASES, ids=lambda x: str(x))
def test_block_engine_matches_dense_path(alg, k):
    kern = kernel_basis(alg, k)
    ref = _reference_kernel_basis(alg, k)
    assert [sorted(_exact_terms(v)) for v in kern] == [sorted(_exact_terms(v)) for v in ref]

    svs = singular_vectors(alg, k)
    ref_svs = _reference_singular_vectors(alg, k)
    assert list(svs) == list(ref_svs)
    for w in svs:
        assert [v.terms for v in svs[w]] == [v.terms for v in ref_svs[w]]

    rep = irreducibility_report(alg, k)
    fields = (rep.kernel_dim, rep.singular_weights, rep.has_trivial_submodule, rep.top_cyclic_dim)
    assert fields == _reference_report_fields(alg, k)

    counts = natural_tensor_singular_counts(alg, k)
    ref_counts = _reference_natural_tensor_counts(alg, k)
    assert list(counts.items()) == list(ref_counts.items())


# -- differential test: dominant blocks only against every block ------------------------
#
# A frozen copy of the singular pass that solved every weight block and summed
# the nullities, before the pass skipped the non-dominant blocks and weighted
# each dominant nullity by its W-orbit.  It runs where the dense path is too slow.


def _all_blocks_singular_pass(alg, k):
    from spochar.superspace import MonomialImages, _block_kernel, _block_singular, _weight_blocks, doubled_laplacian

    images = MonomialImages()
    ups, _ = simple_root_operators(alg)
    lap = doubled_laplacian(alg)
    kdim, out = 0, {}
    for wt, dom in _weight_blocks(alg, k, 20000):
        kern = _block_kernel(images, lap, dom)
        kdim += len(kern)
        vecs = _block_singular(images, ups, dom, kern)
        if vecs:
            out[Weight(alg, wt)] = [SuperElement(alg, v) for v in vecs]
    return kdim, out


@pytest.mark.parametrize("alg,k", [(SPO44, 6), (Algebra.parse("6|6"), 6)], ids=lambda x: str(x))
def test_dominant_blocks_match_every_block(alg, k):
    from spochar.superspace import kernel_dim_and_singular_vectors

    ref_kdim, ref_svs = _all_blocks_singular_pass(alg, k)
    kdim, svs = kernel_dim_and_singular_vectors(alg, k)
    assert kdim == ref_kdim
    assert list(svs) == list(ref_svs)
    for w in svs:
        assert [_exact_terms(v) for v in svs[w]] == [_exact_terms(v) for v in ref_svs[w]]

    rep = irreducibility_report(alg, k)
    assert (rep.kernel_dim, rep.singular_weights) == (ref_kdim, [(w, len(vs)) for w, vs in ref_svs.items()])
    assert rep.classification == "irreducible" and rep.top_cyclic_dim == ref_kdim


def test_singular_solve_restores_fractional_kernel_vectors():
    # With no raising constraint every kernel vector is singular.  Blocks with
    # an x0^2 term have fractional RREF kernel vectors, which the solve scales
    # to ints and must give back exactly.
    from spochar.superspace import MonomialImages, _block_kernel, _block_singular, _weight_blocks, doubled_laplacian

    images = MonomialImages()
    lap = doubled_laplacian(SPO25)
    fractional = 0
    for _, dom in _weight_blocks(SPO25, 4, 20000):
        kern = _block_kernel(images, lap, dom)
        expected = [{dom[i]: c for i, c in enumerate(v) if c} for v in kern]
        fractional += sum(any(c.denominator > 1 for c in v.values()) for v in expected)
        assert _block_singular(images, [], dom, kern) == expected
    assert fractional
