import random
from fractions import Fraction

import pytest

from spochar.jacobitrudi import ext_power_char
from spochar import superspace
from spochar.rootdata import Algebra, Weight, orbit_sizes, positive_roots
from spochar.superspace import (
    SuperElement,
    char_of_degree,
    degree_basis,
    format_monomial,
    gen_count,
    gen_name,
    irreducibility_report,
    kernel_basis,
    laplacian,
    monomial_weight_doubled,
    natural_tensor_singular_counts,
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
    from spochar.superspace import monomial_weight_doubled
    from test_linalg import nullspace

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


def test_each_weight_block_is_solved_once(monkeypatch):
    # one computation lists the monomials of a (degree, weight) block, and so
    # solves it, at most once: the spo(4|2) degree-2 report ranks
    # non-dominant blocks after the dominant ones its singular pass solved,
    # and the tensor counts read one block for several generators
    listed = []
    weight_monomials = superspace._weight_monomials

    def listing(layout, k, doubled):
        listed.append((k, doubled))
        return weight_monomials(layout, k, doubled)

    monkeypatch.setattr(superspace, "_weight_monomials", listing)
    spo42 = Algebra.parse("4|2")
    for call, alg in [(irreducibility_report, spo42), (kernel_basis, spo42),
                      (natural_tensor_singular_counts, Algebra.parse("4|5"))]:
        del listed[:]
        call(alg, 2)
        assert listed and len(set(listed)) == len(listed), call.__name__
        if call is irreducibility_report:
            dominant = set(superspace._dominant_weights(alg, 2))
            assert any(wt not in dominant for _, wt in listed)


def test_singular_vectors_checks_the_kernel_dim(monkeypatch):
    # singular_vectors runs the kernel check of its siblings: a degree count
    # off by one at the solved degree fails it
    degree_dim = superspace.degree_dim
    monkeypatch.setattr(superspace, "degree_dim", lambda alg, k: degree_dim(alg, k) + (k == 3))
    with pytest.raises(ArithmeticError, match="^Laplacian not surjective in degree 3: kernel dim 80$"):
        singular_vectors(SPO44, 3)


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
    # the explicit-bound spellings read the warmed entries
    degree_basis(alg, 3, 20000)
    degree_basis(alg, 1, bound=20000)
    info = _degree_basis.cache_info()
    assert (info.misses, info.currsize, info.hits) == (2, 2, 2)


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
# applied through SuperElement products, the Laplacian with its 1/2 as a sum
# of partial-derivative chains (the frozen `OperatorSum` of
# tests/test_laplacian.py), one dense Fraction matrix per degree (or per
# stacked weight block) and `nullspace`.

from test_laplacian import OperatorSum, partial
from test_linalg import nullspace as _dense_nullspace
from spochar.superspace import _layout, monomial_weight_doubled


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
    gs = _layout(alg)[0]
    total = SuperElement.zero(alg)
    for mono, coef in el.terms.items():
        for slot, img in op.images:
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

    ops = [_reference_laplacian(alg), *simple_root_operators(alg)[0]]
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

    gs = _layout(alg)[0]
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
                gen_img = dict(op.images).get(s)
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


# -- differential test: closed-form blocks against the enumerated degree ----------------
#
# Frozen copies of the whole-degree grouping (`_weight_blocks`) and of the
# `kernel_basis` and `natural_tensor_singular_counts` that read their blocks
# from it, before both built their blocks from closed forms.  The grouping
# also serves the every-block and whole-degree passes below.


def _weight_blocks(alg, k, bound=20000):
    """[(doubled weight, sorted degree-k monomials of that weight)], graded-lex
    descending by weight."""
    from spochar.laurent import grlex_key

    groups = {}
    for t in degree_basis(alg, k, bound):
        groups.setdefault(monomial_weight_doubled(alg, t), []).append(t)
    return [(w, groups[w]) for w in sorted(groups, key=grlex_key, reverse=True)]


def _checked_block_kernel(blocks, wt, dom):
    """`_Blocks.kernel` on the block at doubled weight wt, checked against the
    frozen dense RREF null basis of the monomial tuples dom: each vector,
    divided by its entry at its largest monomial, is the dense one, in order
    and with Fraction values.  The kernel is packed in the layout of blocks."""
    from spochar.superspace import doubled_laplacian
    from test_linalg import _solve_block

    layout, lap = blocks.layout, doubled_laplacian(blocks.alg)
    kern = blocks.kernel(wt)
    dense = _solve_block([blocks.images.image(lap, layout.pack(t)) for t in dom])
    assert [[(layout.unpack(t), Fraction(c, v[max(v)])) for t, c in sorted(v.items())] for v in kern] == [
        [(dom[i], c) for i, c in enumerate(v) if c] for v in dense]
    return kern


def _enumerating_kernel_basis(alg, k, bound=20000):
    from spochar.superspace import MonomialImages, doubled_laplacian, monomial_layout
    from test_linalg import _solve_block

    layout = monomial_layout(alg, k)
    images = MonomialImages(layout)
    lap = doubled_laplacian(alg)
    found = []
    for _, dom in _weight_blocks(alg, k, bound):
        for v in _solve_block([images.image(lap, layout.pack(t)) for t in dom]):
            free = max(i for i, c in enumerate(v) if c)
            found.append((dom[free], SuperElement(alg, {dom[i]: c for i, c in enumerate(v) if c})))
    superspace._Blocks(alg, k, bound).check_kernel_dim(len(found))
    found.sort(key=lambda pair: pair[0])
    return [el for _, el in found]


def _enumerating_tensor_counts(alg, k, bound=20000):
    from spochar.laurent import grlex_key
    from spochar.rootdata import fold_to_dominant
    from spochar.superspace import (MonomialImages, _tensor_coproduct_image, doubled_laplacian, gen_weight_doubled,
                                    monomial_layout)
    from test_linalg import _solve_block

    groups = {}
    for t in degree_basis(alg, k, bound):
        wt = monomial_weight_doubled(alg, t)
        for s in range(gen_count(alg)):
            w = tuple(a + b for a, b in zip(wt, gen_weight_doubled(alg, s)))
            groups.setdefault(w, []).append((t, s))
    layout = monomial_layout(alg, k)
    images = MonomialImages(layout)
    ups, _ = simple_root_operators(alg)
    lap = doubled_laplacian(alg)
    counts = {}
    dominant = [wt for wt in groups if fold_to_dominant(alg, wt) == wt]
    for wt in sorted(dominant, key=grlex_key, reverse=True):
        columns = []
        for mono, slot in sorted(groups[wt]):
            packed = layout.pack(mono)
            col = {(0, (t, slot)): c for t, c in images.image(lap, packed).items()}
            for op_i, op in enumerate(ups, 1):
                for key, c in _tensor_coproduct_image(images, op, packed, slot).items():
                    col[(op_i, key)] = c
            columns.append(col)
        dim = len(_solve_block(columns))
        if dim:
            counts[Weight(alg, wt)] = dim
    return counts


def _exact_counts(counts):
    return [(w.alg, w.doubled, type(c), c) for w, c in counts.items()]


# l = 0 and l = 1 at every degree up to 10 (l = 0 is zero above 2n), where
# the kernel check and the slack of a weight differ most from the cases above
ENUMERATION_CASES = DIFFERENTIAL_CASES + [
    (alg, k) for text in ("2|0", "4|0", "2|1", "4|1") for alg in [Algebra.parse(text)] for k in range(-1, 11)]


@pytest.mark.parametrize("alg,k", ENUMERATION_CASES, ids=lambda x: str(x))
def test_closed_form_blocks_match_the_enumerated_degree(alg, k):
    kern = kernel_basis(alg, k)
    assert [_exact_terms(v) for v in kern] == [_exact_terms(v) for v in _enumerating_kernel_basis(alg, k)]
    counts = natural_tensor_singular_counts(alg, k)
    assert _exact_counts(counts) == _exact_counts(_enumerating_tensor_counts(alg, k))


@pytest.mark.parametrize("k", [4, 5])
def test_tensor_counts_match_the_enumerated_degree_on_spo66(k):
    alg = Algebra.parse("6|6")
    counts = natural_tensor_singular_counts(alg, k)
    assert _exact_counts(counts) == _exact_counts(_enumerating_tensor_counts(alg, k))
    assert counts


def test_l0_kernel_is_zero_above_the_middle_degree():
    # the Grassmann-only Laplacian lowers an sl2 action: it is onto up to the
    # middle degree n + 1 and injective on no degree above it, whose kernel
    # is 0 though dim(k) - dim(k-2) < 0
    for n in range(1, 5):
        alg = Algebra(n, 0, False)
        for k in range(-1, 2 * n + 3):
            expected = max(0, superspace.degree_dim(alg, k) - superspace.degree_dim(alg, k - 2))
            assert len(kernel_basis(alg, k)) == expected
            assert superspace.kernel_dim_and_singular_vectors(alg, k)[0] == expected
            assert irreducibility_report(alg, k).kernel_dim == expected
            assert (expected == 0) == (k > n or k < 0)


# -- differential test: dominant blocks only against every block ------------------------
#
# A frozen copy of the singular pass that solved every weight block and summed
# the nullities, before the pass skipped the non-dominant blocks and weighted
# each dominant nullity by its W-orbit.  It runs where the dense path is too slow.


def _all_blocks_singular_pass(alg, k):
    from spochar.superspace import _Blocks, _block_singular

    blocks = _Blocks(alg, k, 20000)
    ups, _ = simple_root_operators(alg)
    kdim, out = 0, {}
    for wt, dom in _weight_blocks(alg, k, 20000):
        kern = _checked_block_kernel(blocks, wt, dom)
        kdim += len(kern)
        vecs = _block_singular(blocks.images, ups, kern)
        if vecs:
            out[Weight(alg, wt)] = [SuperElement(alg, blocks.layout.unpack_terms(v)) for v in vecs]
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
    # an x0^2 term have fractional RREF kernel vectors (the frozen dense
    # solve), which the integer kernel basis scales to ints and the solve
    # must give back exactly, as Fractions.
    from spochar.superspace import _Blocks, _block_singular, doubled_laplacian
    from test_linalg import _solve_block

    blocks = _Blocks(SPO25, 4, 20000)
    layout, images = blocks.layout, blocks.images
    lap = doubled_laplacian(SPO25)
    fractional = 0
    for wt, dom in _weight_blocks(SPO25, 4, 20000):
        kern = blocks.kernel(wt)
        dense = _solve_block([images.image(lap, layout.pack(t)) for t in dom])
        expected = [{dom[i]: c for i, c in enumerate(v) if c} for v in dense]
        fractional += sum(any(c.denominator > 1 for c in v.values()) for v in expected)
        got = [layout.unpack_terms(v) for v in _block_singular(images, [], kern)]
        assert [[(t, type(c), c) for t, c in v.items()] for v in got] == [
            [(t, type(c), c) for t, c in v.items()] for v in expected]
    assert fractional


def test_no_float_coefficients():
    # exactness: kernel vectors, singular vectors and Laplacian images carry
    # ints or Fractions only, never a float (int / int would give one)
    exact = lambda el: all(type(c) in (int, Fraction) for c in el.terms.values())
    checked = 0
    for text, kmax in [("2|0", 2), ("4|0", 3), ("2|1", 4), ("2|2", 3), ("2|3", 4), ("4|3", 3), ("4|4", 3)]:
        alg = Algebra.parse(text)
        lap = laplacian(alg)
        for k in range(kmax + 1):
            kern = kernel_basis(alg, k)
            assert all(exact(v) for v in kern)
            assert all(exact(v) for vs in singular_vectors(alg, k).values() for v in vs)
            basis = degree_basis(alg, k)
            els = [SuperElement(alg, {t: Fraction(1)}) for t in basis] + [
                SuperElement(alg, {t: i + 1 for i, t in enumerate(basis)}),
                SuperElement(alg, {t: Fraction(1, i + 2) for i, t in enumerate(basis)})]
            for el in els:
                image = lap.apply(el)
                assert exact(image)
                checked += len(image.terms)
    assert checked > 150


def test_reports_enumerate_no_degree_and_keep_the_bound(monkeypatch, capsys, tmp_path):
    # the reports, kernel_basis and the tensor counts build their blocks from
    # closed forms and count the degree in closed form, so no degree is
    # enumerated; --bound still refuses a degree past it with degree_basis's
    # message, before any block is built
    from spochar import cli
    from spochar.superspace import DimensionGuard, kernel_dim_and_singular_vectors

    spo45 = Algebra.parse("4|5")
    ref_kernel = [_exact_terms(v) for v in _enumerating_kernel_basis(SPO44, 3)]
    ref_counts = _exact_counts(_enumerating_tensor_counts(spo45, 2))

    def refuse(*args):
        raise AssertionError("a report enumerated a degree")

    monkeypatch.setattr(superspace, "_degree_basis", refuse)
    rep = irreducibility_report(SPO44, 3, bound=5000)
    assert (rep.classification, rep.kernel_dim) == ("irreducible", 80)
    assert kernel_dim_and_singular_vectors(SPO44, 3, 5000)[0] == 80
    assert [_exact_terms(v) for v in kernel_basis(SPO44, 3, 5000)] == ref_kernel
    assert _exact_counts(natural_tensor_singular_counts(spo45, 2)) == ref_counts
    alg = Algebra.parse("8|8")
    rep = irreducibility_report(alg, 6, bound=30000)
    assert (rep.classification, rep.kernel_dim, rep.top_cyclic_dim) == ("irreducible", 24192, 24192)

    with monkeypatch.context() as blocks:
        blocks.setattr(superspace, "_dominant_weights", refuse)
        for call in (irreducibility_report, kernel_dim_and_singular_vectors, singular_vectors, kernel_basis,
                     natural_tensor_singular_counts):
            with pytest.raises(DimensionGuard, match="^dim = 27008 exceeds bound 20000$"):
                call(alg, 6)
            with pytest.raises(DimensionGuard, match="^dim = 360 exceeds bound 359$"):
                call(SPO44, 5, bound=359)
    for flag in ((), ("--report",)):
        code = cli.main(["laplacian", "--algebra", "8|8", "--degree", "6", *flag, "--cache-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", "error: dim = 27008 exceeds bound 20000\n")
    for bound in (0, 1, 20000):
        rep = irreducibility_report(SPO44, -1, bound)
        assert (rep.kernel_dim, rep.singular_weights, rep.classification) == (0, [], "zero")
        assert kernel_dim_and_singular_vectors(SPO44, -1, bound) == (0, {})
        assert kernel_basis(SPO44, -1, bound) == []
        assert natural_tensor_singular_counts(SPO44, -1, bound) == {}
    # the bound refuses degree k alone: the kernel check counts degree k - 2
    # in closed form, so on spo(4|0), where dim(2) = 6 > 3 >= dim(4) = 1,
    # degree 4 is solved, and its kernel is 0, as above every middle degree
    # of l = 0
    spo40 = Algebra.parse("4|0")
    rep = irreducibility_report(spo40, 4, bound=3)
    assert (rep.kernel_dim, rep.singular_weights, rep.classification) == (0, [], "zero")
    assert kernel_dim_and_singular_vectors(spo40, 4, 3) == (0, {})
    assert singular_vectors(spo40, 4, 3) == {}
    assert kernel_basis(spo40, 4, 3) == []
    assert natural_tensor_singular_counts(spo40, 4, 3) == {}


# -- differential test: the orbit-weighted cyclic span against the whole module --------
#
# A frozen copy of the cyclic span that walked every weight of the module and
# counted every pivot, before the walk kept only the weights above a dominant
# one and weighted each dominant weight's span by its W-orbit.

from spochar.superspace import MonomialImages, cyclic_span_dim, monomial_layout


def _whole_module_span_dim(vector, ops):
    from spochar.linalg import _SparseSpan
    from spochar.superspace import _integer_multiple

    layout = monomial_layout(vector.alg, sum(next(iter(vector.terms))))
    images = MonomialImages(layout)
    span = _SparseSpan()
    start = _integer_multiple(layout.pack_terms(vector.terms))
    span.add(start)
    frontier = [start]
    while frontier:
        new = []
        for v in frontier:
            for op in ops:
                w = _integer_multiple(images.apply(op, v))
                if w and span.add(w):
                    new.append(w)
        frontier = new
    return span.dim


# l = 2 kernels whose top vector spans less than the kernel: (top span, kernel)
SMALLER_SPANS = {
    **{(Algebra.parse("2|2"), k): (4, 7 if k == 2 else 8) for k in range(2, 7)},
    (Algebra.parse("4|2"), 3): (16, 26),
    (Algebra.parse("4|2"), 4): (16, 31),
    (Algebra.parse("4|2"), 5): (16, 32),
    (Algebra.parse("6|2"), 4): (64, 99),
}

SPAN_CASES = DIFFERENTIAL_CASES + [(SPO44, 6), (Algebra.parse("6|6"), 6)] + [
    case for case in SMALLER_SPANS if case not in DIFFERENTIAL_CASES]


@pytest.mark.parametrize("alg,k", SPAN_CASES, ids=lambda x: str(x))
def test_orbit_weighted_span_matches_whole_module_walk(alg, k):
    ups, downs = simple_root_operators(alg)
    _, svs, orbit_size = superspace._singular_pass(superspace._Blocks(alg, k, 20000), ups)
    for vs in svs.values():
        for v in vs:
            assert cyclic_span_dim(alg, v, downs, orbit_size) == _whole_module_span_dim(v, downs)
    if (alg, k) in SMALLER_SPANS:
        rep = irreducibility_report(alg, k)
        assert (rep.top_cyclic_dim, rep.kernel_dim) == SMALLER_SPANS[alg, k]


# -- differential test: dominant blocks from slot pairs against the whole degree --------
#
# A frozen copy of the singular pass that weighed every monomial of the degree
# (`_weight_blocks`), folded every weight to find the dominant blocks and
# counted each orbit by its folds, and of the upward closure that folded every
# candidate weight, before both read the dominant weights, their monomials,
# orbit sizes and the weights of the degree from closed forms.


def _whole_degree_singular_pass(alg, k):
    from collections import Counter

    from spochar.rootdata import fold_to_dominant
    from spochar.superspace import _Blocks, _block_singular

    kernels = _Blocks(alg, k, 20000)
    ups, _ = simple_root_operators(alg)
    blocks = _weight_blocks(alg, k, 20000)
    orbit_size = Counter(fold_to_dominant(alg, wt) for wt, _ in blocks)
    kdim, out = 0, {}
    for wt, dom in blocks:
        if wt not in orbit_size:
            continue
        kern = _checked_block_kernel(kernels, wt, dom)
        kdim += orbit_size[wt] * len(kern)
        vecs = _block_singular(kernels.images, ups, kern)
        if vecs:
            out[Weight(alg, wt)] = [SuperElement(alg, kernels.layout.unpack_terms(v)) for v in vecs]
    return kdim, out, orbit_size


def _folding_upward_closure(alg, orbit_size):
    from spochar.rootdata import fold_to_dominant, simple_roots

    simples = [a.doubled for a in simple_roots(alg)]
    found = set(orbit_size)
    stack = list(found)
    while stack:
        wt = stack.pop()
        for a in simples:
            up = tuple(x + y for x, y in zip(wt, a))
            if up not in found and fold_to_dominant(alg, up) in orbit_size:
                found.add(up)
                stack.append(up)
    return found


L1_CASES = [(Algebra.parse(text), k) for text, kmax in [("2|1", 6), ("4|1", 5), ("6|1", 4)] for k in range(kmax + 1)]
SINGULAR_PASS_CASES = SPAN_CASES + L1_CASES + [
    (alg, k) for alg in dict.fromkeys(alg for alg, _ in SPAN_CASES + L1_CASES) for k in (-1, 0)
    if (alg, k) not in SPAN_CASES + L1_CASES]


@pytest.mark.parametrize("alg,k", SINGULAR_PASS_CASES, ids=lambda x: str(x))
def test_dominant_blocks_from_slot_pairs_match_the_whole_degree_pass(alg, k):
    ref_kdim, ref_svs, ref_orbits = _whole_degree_singular_pass(alg, k)
    ups = simple_root_operators(alg)[0]
    kdim, svs, orbit_size = superspace._singular_pass(superspace._Blocks(alg, k, 20000), ups)
    assert kdim == ref_kdim
    assert list(svs) == list(ref_svs)
    for w in svs:
        assert [_exact_terms(v) for v in svs[w]] == [_exact_terms(v) for v in ref_svs[w]]
    assert orbit_size == dict(ref_orbits)
    assert superspace._upward_closure(alg, k, orbit_size) == _folding_upward_closure(alg, ref_orbits)


# Every kind of W and of slack: l = 0 (no e-slots, no x0), l = 1 (x0 only),
# so(2), D_m and B_m, with k from -2 to 8 where the degree is small enough to
# enumerate.
CLOSED_FORM_GRID = [
    (alg, k)
    for text in ("2|0", "4|0", "6|0", "2|1", "4|1", "6|1", "2|2", "4|2", "6|2", "2|3", "4|3", "2|4", "4|4",
                 "2|5", "4|5", "2|6", "2|7")
    for alg in [Algebra.parse(text)]
    for k in range(-2, 9)
    if superspace.degree_dim(alg, k) <= 4000
]


def test_closed_forms_match_the_enumerated_degree():
    from collections import Counter

    from spochar.rootdata import fold_to_dominant

    assert len(CLOSED_FORM_GRID) > 120
    for alg, k in CLOSED_FORM_GRID:
        layout = monomial_layout(alg, k)
        basis = degree_basis(alg, k)
        assert superspace.degree_dim(alg, k) == len(basis)
        by_weight = {}
        for t in basis:
            by_weight.setdefault(monomial_weight_doubled(alg, t), []).append(t)
        for wt, monos in by_weight.items():
            assert [layout.unpack(t) for t in superspace._weight_monomials(layout, k, wt)] == monos
        folds = Counter(fold_to_dominant(alg, wt) for wt in by_weight)
        dominant = superspace._dominant_weights(alg, k)
        assert dominant == sorted(folds, key=lambda w: (sum(w), w), reverse=True)
        assert dict(zip(dominant, orbit_sizes(alg, dominant))) == folds
        near = {wt[:i] + (wt[i] + step,) + wt[i + 1:]
                for wt in by_weight for i in range(alg.rank) for step in (-2, 0, 2)}
        near |= {(2,) * alg.rank, (0,) * alg.rank}
        for wt in near:
            assert superspace._is_degree_weight(alg, k, wt) == (wt in by_weight), (alg, k, wt)
            if wt not in by_weight:
                assert superspace._weight_monomials(layout, k, wt) == [], (alg, k, wt)


def _frozen_orbit_size(alg, doubled):
    """`rootdata.orbit_sizes` of one weight as it was with a Counter per
    side, in `superspace`; do not "optimise" it."""
    from collections import Counter
    from math import factorial, prod

    n = alg.n
    size = 1
    for side, flips in ((doubled[:n], True), (doubled[n:], alg.odd)):
        mags = Counter(map(abs, side))
        signs = len(side) - mags[0]
        if not flips and side and not mags[0]:
            signs -= 1
        size *= factorial(len(side)) // prod(map(factorial, mags.values())) * 2**signs
    return size


# The (algebra, degree) pairs of the laplacian_reports benchmark pools.
REPORT_DEGREES = (
    ("2|4", 1), ("4|3", 1), ("4|4", 1), ("6|4", 1), ("4|6", 1), ("6|6", 1), ("2|4", 2), ("4|3", 2), ("4|4", 2),
    ("6|4", 2), ("2|4", 3), ("4|6", 2), ("4|3", 3), ("6|6", 2), ("4|4", 3), ("2|4", 4), ("6|4", 3), ("4|3", 4),
    ("4|6", 3), ("2|4", 5), ("6|6", 3), ("4|4", 4), ("4|3", 5), ("2|4", 6), ("6|4", 4), ("4|4", 5),
)


def test_orbit_size_matches_the_frozen_counter_version():
    """On every dominant weight of the reports' degrees, the runs of the
    sorted magnitudes give the Counter version's |W mu|; repeated, zero and
    all-zero entries, on both the B and the D e-sides, come up among them."""
    seen = 0
    for text, k in REPORT_DEGREES:
        alg = Algebra.parse(text)
        dominant = superspace._dominant_weights(alg, k)
        assert orbit_sizes(alg, dominant) == [_frozen_orbit_size(alg, mu) for mu in dominant], (text, k)
        seen += len(dominant)
    assert seen > 200
    for text, mu in (("6|4", (4, 4, 4, 2, 2)), ("6|4", (0, 0, 0, 0, 0)), ("4|6", (2, 2, 0, 0, 0)),
                     ("2|0", (6,)), ("2|4", (2, 2, 2)), ("2|4", (0, 2, 0)), ("6|7", (4, 4, 0, 2, 2, 2))):
        alg = Algebra.parse(text)
        assert orbit_sizes(alg, [mu]) == [_frozen_orbit_size(alg, mu)], (text, mu)


def test_operators_are_built_once_per_algebra():
    from spochar.superspace import doubled_laplacian

    alg = Algebra.parse("4|3")
    ups, downs = simple_root_operators(alg)
    assert type(ups) is tuple and type(downs) is tuple
    assert simple_root_operators(Algebra.parse("4|3"))[0] is ups
    assert doubled_laplacian(Algebra.parse("4|3")) is doubled_laplacian(alg)


# -- exhaustive test: generator moves against the merged images --------------------------
#
# A frozen copy of Derivation.monomial_image before the moves: the generator's
# image multiplied in between the monomial's parts left and right of the
# source slot, with the Koszul signs of `_merge_monomials`.


def _merged_monomial_image(op, mono):
    from spochar.superspace import _merge_monomials

    gs = _layout(op.alg)[0]
    out = {}
    for slot, img in op.images:
        e = mono[slot]
        if not e:
            continue
        if slot >= gs:
            mult = -1 if (op.parity and sum(mono[gs:slot]) % 2) else 1
            left = mono[:slot] + (0,) * (len(mono) - slot)
        else:
            mult = e
            left = mono[:slot] + (e - 1,) + (0,) * (len(mono) - slot - 1)
        right = (0,) * (slot + 1) + mono[slot + 1:]
        for t, c in img.terms.items():
            head, s1 = _merge_monomials(left, t, gs)
            if head is None:
                continue
            full, s2 = _merge_monomials(head, right, gs)
            if full is not None:
                out[full] = out.get(full, 0) + mult * s1 * s2 * c
    return {t: c for t, c in out.items() if c}


@pytest.mark.parametrize("algtxt", ["2|2", "2|3", "4|4", "6|3", "4|5"])
def test_moves_match_merged_images(algtxt):
    alg = Algebra.parse(algtxt)
    gs = _layout(alg)[0]
    pos = positive_roots(alg)
    ops = [root_operator(alg, root) for r in pos.even + pos.odd for root in (r, -r)]
    ops += [partial(alg, slot) for slot in range(gen_count(alg))]
    monos = [t for k in range(5) for t in degree_basis(alg, k)]
    layout = monomial_layout(alg, 4)
    images = MonomialImages(layout)
    odd_signs = powers = 0
    for op in ops:
        for mono in monos:
            got = layout.unpack_terms(images.image(op, layout.pack(mono)))
            assert got == _merged_monomial_image(op, mono)
            assert all(type(c) is int for c in got.values())
            for src, _, _ in op.moves:
                odd_signs += bool(mono[src] and src >= gs and op.parity and sum(mono[gs:src]) % 2)
                powers += mono[src] > 1
    assert odd_signs and powers


def test_non_generator_image_is_refused():
    from spochar.superspace import Derivation

    x1, x2, xi1 = gens(SPO44, "x1", "x2", "xi1")
    for img in (x1 * x2, x1 + x2, x1 * xi1, x1 * x1):
        with pytest.raises(ValueError):
            Derivation(SPO44, 0, ((0, img),))
    assert Derivation(SPO44, 0, ((0, -1 * x2),)).moves == ((0, 1, -1),)


# -- differential test: cyclicity by graded Nakayama against the walk -----------------------
#
# A frozen copy of irreducibility_report as it was when the cyclic-span walk
# gave every top_cyclic_dim, before the report read cyclicity off the
# deficits of M/n-M (M the kernel) and kept the walk as the fallback for a
# kernel that its top vector does not generate.


def _walk_report(alg, k):
    from spochar.laurent import grlex_key
    from spochar.rootdata import is_dominant
    from spochar.superspace import IrreducibilityReport

    blocks = superspace._Blocks(alg, k, 20000)
    layout, images = blocks.layout, blocks.images
    ups, downs = simple_root_operators(alg)
    kdim, svs, orbit_size = superspace._singular_pass(blocks, ups)
    if kdim == 0:
        return IrreducibilityReport(alg, k, 0, [], False, 0, "zero", ["kernel is zero in this degree"])
    weights = [(w, len(vs)) for w, vs in svs.items()]
    total_sing = sum(c for _, c in weights)
    has_trivial = any(not any(images.apply(op, layout.pack_terms(v.terms)) for op in ups + downs)
                      for w, vs in svs.items() if w.is_zero() for v in vs)
    top_weight = max(svs, key=lambda w: grlex_key(w.doubled))
    top_dim = cyclic_span_dim(alg, svs[top_weight][0], downs, orbit_size) if len(svs[top_weight]) == 1 else 0
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


# spo(2|0)..spo(8|3) and spo(2|4), spo(2|5), spo(4|4): every degree k <= 7 of
# dimension <= 3000 with a nonzero kernel, and DIFFERENTIAL_CASES
NAKAYAMA_GRID = list(dict.fromkeys(DIFFERENTIAL_CASES + [
    (alg, k)
    for text in [f"{n2}|{l}" for n2 in (2, 4, 6, 8) for l in range(4)] + ["2|4", "2|5", "4|4"]
    for alg in [Algebra.parse(text)]
    for k in range(8)
    if superspace.degree_dim(alg, k) <= 3000 and (alg.m > 0 or k <= alg.n)
]))


def test_nakayama_cyclicity_matches_the_walk(monkeypatch):
    walked = []
    monkeypatch.setattr(superspace, "cyclic_span_dim", lambda *args: walked.append(args) or cyclic_span_dim(*args))
    fallbacks, not_generated = set(), set()
    for alg, k in NAKAYAMA_GRID:
        del walked[:]
        rep = irreducibility_report(alg, k)
        ref = _walk_report(alg, k)
        assert rep == ref and len(walked) <= 1, (alg, k)
        if walked:
            fallbacks.add((alg, k))
        if 0 < ref.top_cyclic_dim < ref.kernel_dim:
            not_generated.add((alg, k))
    # the walk runs once on exactly the kernels that their top vector does
    # not generate: the l = 2 ones, whose top vector spans 4^n dimensions
    assert len(NAKAYAMA_GRID) > 120
    assert fallbacks == not_generated and len(fallbacks) == 18


def test_no_deficit_off_the_dominant_weights():
    # the premise of the report's sum: a nonzero (M/n-M)_mu gives a functional
    # of weight -mu that n- kills, a g0-lowest weight of M*, so mu is dominant
    from spochar.superspace import _Blocks, _degree_weights, _weight_monomials

    cases = [(alg, k) for alg, k in NAKAYAMA_GRID if superspace.degree_dim(alg, k) <= 1500]
    assert len(cases) > 80
    for alg, k in cases:
        blocks = _Blocks(alg, k, 20000)
        weights = _degree_weights(alg, k)
        for wt in weights:
            dom = [blocks.layout.unpack(t) for t in _weight_monomials(blocks.layout, k, wt)]
            _checked_block_kernel(blocks, wt, dom)
        deficits = dict(superspace._deficits(blocks, dict.fromkeys(weights), simple_root_operators(alg)[1]))
        dominant = set(superspace._dominant_weights(alg, k))
        assert all(wt in dominant for wt, d in deficits.items() if d), (alg, k)
        rep = irreducibility_report(alg, k)
        assert (sum(deficits.values()) == 1) == (rep.top_cyclic_dim == rep.kernel_dim > 0), (alg, k)


def _split_degree_weights(alg, k):
    """Frozen: the weights of a degree, with g0 split into its d- and e-sides
    by hand and each side's orbit listed by the frozen copy of
    `rootdata._side_orbit`, as before `_degree_weights` read
    `rootdata._g0_factors`."""
    from test_charformulas import _frozen_side_orbit

    n, even = alg.n, [r.doubled for r in positive_roots(alg).even]
    d, e = (tuple(r[side] for r in even if any(r[side])) for side in (slice(n), slice(n, None)))
    return [x + y for mu in superspace._dominant_weights(alg, k)
            for x in _frozen_side_orbit(mu[:n], d, True) for y in _frozen_side_orbit(mu[n:], e, alg.odd)]


def test_degree_weights_are_the_orbits_on_the_g0_factors():
    from spochar import rootdata

    for text in ("2|0", "2|1", "2|2", "2|3", "4|0", "4|2", "4|4", "4|5", "6|3", "2|8", "6|6"):
        alg = Algebra.parse(text)
        for k in range(6):
            assert superspace._degree_weights(alg, k) == _split_degree_weights(alg, k), (text, k)
    # the D_2 side's orbits are the entries that the Weyl characters of g0 list
    rootdata._orbit.cache_clear()
    superspace._degree_weights(SPO44, 3)
    misses = rootdata._orbit.cache_info().misses
    _, (_, _, _, flips) = rootdata._g0_factors(SPO44)
    assert flips is False
    for mu in superspace._dominant_weights(SPO44, 3):
        rootdata._orbit_product((mu[2:],), [(flips, flips is False)])
    assert rootdata._orbit.cache_info().misses == misses


def test_spo88_degree7_report_at_the_frontier():
    rep = irreducibility_report(Algebra.parse("8|8"), 7, bound=70000)
    assert (rep.kernel_dim, rep.top_cyclic_dim, rep.classification) == (59040, 59040, "irreducible")
