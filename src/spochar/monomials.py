"""Packed monomials of the super exterior algebra: each monomial of a
computation is one int in a layout fixed per algebra and width
(`MonomialLayout`; `superspace` proves its order and width), and operators
image those ints one at a time, each operator packed once for the layout
(`MonomialImages`)."""

from __future__ import annotations

from functools import lru_cache

from .rootdata import Algebra


def _layout(alg: Algebra):
    """(num_commuting, grassmann_start, total_slots)."""
    nc = 2 * alg.m + (1 if alg.odd else 0)
    return nc, nc, nc + 2 * alg.n


class MonomialLayout:
    """One int per monomial of degree below 2**width: slot s in the field at
    shifts[s], width bits for a commuting slot and one bit for a Grassmann
    one, slot 0 in the top field and the last slot in bit 0."""

    __slots__ = ("alg", "gs", "field", "shifts", "fields", "units", "grassmann")

    def __init__(self, alg: Algebra, width: int):
        nc, gs, total = _layout(alg)
        ngr = total - gs
        self.alg, self.gs = alg, gs
        self.field = 2**width - 1  # of a commuting slot
        self.shifts = tuple([ngr + (nc - 1 - s) * width for s in range(nc)] + list(range(ngr - 1, -1, -1)))
        self.fields = (self.field,) * nc + (1,) * ngr
        self.units = tuple(1 << x for x in self.shifts)
        self.grassmann = 2**ngr - 1  # every Grassmann bit

    def pack(self, mono) -> int:
        return sum(e << x for e, x in zip(mono, self.shifts))

    def unpack(self, key: int) -> tuple:
        return tuple(key >> x & f for x, f in zip(self.shifts, self.fields))

    def pack_terms(self, terms):
        return {self.pack(t): c for t, c in terms.items()}

    def unpack_terms(self, terms):
        return {self.unpack(t): c for t, c in terms.items()}

    def between(self, lo: int, hi: int) -> int:
        """The bits of the Grassmann slots strictly between slots lo and hi."""
        return sum(self.units[max(lo + 1, self.gs):hi])


@lru_cache(maxsize=64)
def _monomial_layout(alg, width):
    return MonomialLayout(alg, width)


def monomial_layout(alg: Algebra, degree: int) -> MonomialLayout:
    """The layout of the monomials of one computation in degree at most
    degree: width the bit length of degree, built once per algebra and
    width."""
    return _monomial_layout(alg, max(degree, 1).bit_length())


class MonomialImages:
    """Operators applied to packed monomials of one layout.  An image is a
    dict packed monomial -> coefficient, computed when it is read and not
    kept; derivations and `doubled_laplacian` give int coefficients.  Each
    operator is packed for the layout once (`LinearOperator.packed`)."""

    def __init__(self, layout: MonomialLayout):
        self.layout = layout
        self._packed = {}  # op -> op packed in layout

    def image(self, op, key):
        packed = self._packed.get(op)
        if packed is None:
            packed = self._packed[op] = op.packed(self.layout)
        return op.monomial_image(key, packed)

    def apply(self, op, terms):
        """op applied to a dict packed monomial -> coefficient, as such a dict."""
        out = {}
        for key, c in terms.items():
            for t, ic in self.image(op, key).items():
                v = out.get(t, 0) + c * ic
                if v:
                    out[t] = v
                else:
                    out.pop(t, None)
        return out
