"""The closed-form Laplacian of `superspace` against a frozen copy of the
operator chain it replaced.

`OperatorSum`, `_apply_terms` and `_bump` below are copies of the generic
sum of operator compositions that the Laplacian was built on (`OperatorSum`
reads packed monomials, like every operator),
`partial` of the partial derivatives it composed, and
`_chain_doubled_laplacian` and `_chain_laplacian` are the bodies of
`doubled_laplacian` and `laplacian` that built it from them.
They are the references of this file and of the dense paths in
tests/test_superspace.py, so they are never imported from src.
"""

from fractions import Fraction

import pytest

from spochar import superspace
from spochar.rootdata import Algebra
from spochar.superspace import (
    Derivation,
    LinearOperator,
    MonomialImages,
    SuperElement,
    _exact,
    _layout,
    degree_basis,
    doubled_laplacian,
    gen_name,
    laplacian,
)


# -- frozen operator chain ------------------------------------------------------------


def _bump(out, key, val):
    v = out.get(key, 0) + val
    if v:
        out[key] = v
    elif key in out:
        del out[key]


def _apply_terms(image, terms):
    """Sum of c * image(mono) over a dict monomial -> c, as such a dict."""
    out = {}
    for mono, c in terms.items():
        for t, ic in image(mono).items():
            _bump(out, t, c * ic)
    return out


class OperatorSum(LinearOperator):
    """Sum of scaled compositions (applied right to left)."""

    def __init__(self, parts: tuple, name: str = ""):
        self.parts = parts  # tuple of (coefficient, tuple-of-operators)
        self.name = name

    def packed(self, layout):
        return tuple((coef, tuple((op, op.packed(layout)) for op in chain)) for coef, chain in self.parts)

    def monomial_image(self, mono, packed):
        # The inner images are not memoised: within one computation a chain
        # meets each intermediate monomial once (m - x determines m).
        out = {}
        for coef, chain in packed:
            cur = {mono: 1}
            for op, op_packed in reversed(chain):
                cur = _apply_terms(lambda t: op.monomial_image(t, op_packed), cur)
            for t, c in cur.items():
                _bump(out, t, coef * c)
        return out

    def __repr__(self):
        return f"OperatorSum({self.name or 'anon'})"


def partial(alg: Algebra, slot: int) -> Derivation:
    """Left partial derivative with respect to one generator."""
    gs = _layout(alg)[0]
    parity = 1 if slot >= gs else 0
    return Derivation(alg, parity, ((slot, SuperElement.one(alg)),), f"d/d{gen_name(alg, slot)}")


def _chain_doubled_laplacian(alg):
    m, nc = alg.m, _layout(alg)[0]
    parts = []
    for j in range(alg.n):
        parts.append((2, (partial(alg, nc + j), partial(alg, nc + alg.n + j))))
    for i in range(m):
        parts.append((-2, (partial(alg, i), partial(alg, m + i))))
    if alg.odd:
        parts.append((-1, (partial(alg, 2 * m), partial(alg, 2 * m))))
    return OperatorSum(tuple(parts), "2*laplacian")


def _chain_laplacian(alg):
    doubled = _chain_doubled_laplacian(alg).parts
    return OperatorSum(tuple((_exact(Fraction(c, 2)), chain) for c, chain in doubled), "laplacian")


# -- the gate ---------------------------------------------------------------------------

GATE_ALGEBRAS = ["2|0", "4|0", "2|1", "2|2", "2|3", "2|5", "4|4", "6|3", "6|6"]


def _typed(image):
    return sorted((t, type(c), c) for t, c in image.items())


@pytest.mark.parametrize("text", GATE_ALGEBRAS)
def test_closed_form_laplacian_matches_the_operator_chain(text):
    # every monomial of degrees 0-7 whose degree has dimension <= 3000
    alg = Algebra.parse(text)
    ops = [(doubled_laplacian(alg), _chain_doubled_laplacian(alg)), (laplacian(alg), _chain_laplacian(alg))]
    layout = superspace.monomial_layout(alg, 7)
    images, chain_images = MonomialImages(layout), MonomialImages(layout)
    lowered = 0
    for k in range(8):
        if superspace.degree_dim(alg, k) > 3000:
            continue
        for mono in degree_basis(alg, k, 3000):
            key = layout.pack(mono)
            for op, chain in ops:
                got = layout.unpack_terms(images.image(op, key))
                assert _typed(got) == _typed(layout.unpack_terms(chain_images.image(chain, key))), (k, mono)
            assert all(type(c) is int for c in images.image(ops[0][0], key).values())
            lowered += bool(images.image(ops[0][0], key))
    assert lowered


def test_laplacian_apply_matches_the_chain_on_sums():
    alg = Algebra.parse("4|3")
    basis = degree_basis(alg, 4)
    terms = {t: Fraction(i % 7 - 3, 1 + i % 4) for i, t in enumerate(basis) if i % 7 != 3}
    el = superspace.SuperElement(alg, terms)
    for op, chain in [(laplacian(alg), _chain_laplacian(alg)), (doubled_laplacian(alg), _chain_doubled_laplacian(alg))]:
        got, want = op.apply(el), chain.apply(el)
        assert got == want and _typed(got.terms) == _typed(want.terms)
