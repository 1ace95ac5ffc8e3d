"""Weyl denominators, Kac characters, Euler characters for arbitrary
parabolics, Levi-module character constructors, and the closed-form virtual
dimension.

Every Weyl-type quotient here has the form (alternating Weyl sum) / D0, and
D0 is a product of binomials e^{a/2} - e^{-a/2}, one per even positive root
a.  Each one is a single call of the packed kernel `laurent.weyl_quotient`:
it sums over the group, clears one binomial per pass over the terms (never
a general long division) and multiplies by the binomials of D1, all on
packed exponents:

* Kac: the alternating sum of e^{lam+rho} is divided by D0, then multiplied
  by the binomials e^{a/2} + e^{-a/2} of D1.  For odd l the factor
  e^{d_i} - e^{-d_i} of D0 and e^{d_i/2} + e^{-d_i/2} of D1 cancel to
  1 / (e^{d_i/2} - e^{-d_i/2}), so the division runs by that binomial and
  the odd root d_i is skipped.
* Euler: D1 is W-invariant, so the Euler character of a parabolic with
  Levi module M is the alternating sum of e^{rho0} ch M prod (1 + e^{-a})
  over the odd positive roots a outside the Levi, divided by D0.
* Even-Levi simple modules: the Levi's alternating sum divided by the
  binomials of its even positive roots.

Divisibility failure is always an internal error, never data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .laurent import LaurentPoly, format_exponent, weyl_quotient
from .laurent import exact_div  # noqa: F401  (perfbench's tracer re-binds charformulas.exact_div)
from .linalg import det_bareiss_laurent, rref
from .rootdata import (
    Algebra,
    Weight,
    fits_hook,
    is_dominant,
    positive_roots,
    rho,
    rho0,
    signed_permutations,
    simple_roots,
    validate_partition,
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

    The character formulas never expand a denominator; they divide and
    multiply by its binomials inside `weyl_quotient`.  D0 is kept for the
    even Weyl denominator identity that acceptance criterion 10 checks, and
    under its old name because the benchmark warms and traces it.  D1, the
    odd product, has no reader and is not expanded.
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
def _kac_binomials(alg: Algebra):
    """(halves of D0 to divide by, halves of D1 to multiply by) for the Kac
    quotient, after cancelling the non-isotropic odd roots d_i (odd l)
    against the even roots 2 d_i."""
    pos = positive_roots(alg)
    short = {a.doubled for a in pos.odd if a not in pos.isotropic}
    divide = []
    for r in pos.even:
        h = _half(r.doubled)
        divide.append(_half(h) if h in short else h)
    multiply = [_half(a.doubled) for a in pos.odd if a in pos.isotropic]
    return tuple(divide), tuple(multiply)


# -- parabolic subalgebras --------------------------------------------------------


@lru_cache(maxsize=64)
def _simple_basis_solver(alg: Algebra):
    """Row-reduce [simples | I] once so roots can be expanded in the simple
    basis by a single matrix multiply."""
    simples = simple_roots(alg)
    k = alg.rank
    aug = []
    for r in range(k):
        row = [Fraction(simples[c].doubled[r], 2) for c in range(k)]
        row += [Fraction(1 if c == r else 0) for c in range(k)]
        aug.append(row)
    mat, pivots = rref(aug)
    if pivots != list(range(k)):
        raise RuntimeError("simple roots do not form a basis")
    inv = [row[k:] for row in mat]
    return simples, inv


def root_support(alg: Algebra, w: Weight):
    """Indices of simple roots appearing in the expansion of w."""
    simples, inv = _simple_basis_solver(alg)
    coords = [Fraction(x, 2) for x in w.doubled]
    out = []
    for i in range(alg.rank):
        c = sum(inv[i][r] * coords[r] for r in range(alg.rank))
        if c != 0:
            out.append(i)
    return frozenset(out)


@dataclass(frozen=True)
class Parabolic:
    """Parabolic fixed by the set of standard simple roots REMOVED from the
    diagram; the Levi keeps exactly the roots supported on the rest."""

    alg: Algebra
    removed: frozenset

    def __post_init__(self):
        k = self.alg.rank
        if any(not 0 <= i < k for i in self.removed):
            raise ValueError("removed indices out of range")

    @property
    def retained(self):
        return frozenset(range(self.alg.rank)) - self.removed

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


@dataclass(frozen=True)
class LeviCharacter:
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
    """Simple Levi module character for a Levi WITHOUT odd roots, by the
    classical Weyl character formula over the Levi's reflection group."""
    even, odd = p.levi_positive()
    if odd:
        raise LeviMismatch("Levi has odd roots; use the gl-type constructors")
    alg = p.alg
    half = Weight(alg, [sum(r.doubled[i] for r in even) // 2 for i in range(alg.rank)])
    group = _reflection_group(alg, even)
    return weyl_quotient(alg.n, alg.m, {(lam + half).doubled: 1}, group, [_half(r.doubled) for r in even])


@lru_cache(maxsize=256)
def _reflection_group(alg: Algebra, roots):
    """Closure of the reflections in the given even roots, as signed
    permutations (perm, signs, determinant) of the weight coordinates.  The
    determinant is tracked during the closure: each reflection flips it."""
    k = alg.rank
    gens = []
    for r in roots:
        perm = list(range(k))
        signs = [1] * k
        support = [i for i, x in enumerate(r.doubled) if x]
        if len(support) == 1:
            signs[support[0]] = -1
        elif len(support) == 2:
            i, j = support
            perm[i], perm[j] = j, i
            if r.doubled[i] * r.doubled[j] > 0:
                signs[i] = signs[j] = -1
        else:
            raise ValueError(f"{r.format()} is not an even root of this shape")
        gens.append((tuple(perm), tuple(signs)))

    def compose(a, b):
        # a after b, acting on coordinate positions: (a.b)(i) = a(b(i))
        pa, sa = a
        pb, sb = b
        perm = tuple(pa[pb[i]] for i in range(k))
        signs = tuple(sb[i] * sa[pb[i]] for i in range(k))
        return perm, signs

    identity = (tuple(range(k)), (1,) * k)
    seen = {identity: 1}
    frontier = [identity]
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                cand = compose(g, el)
                if cand not in seen:
                    seen[cand] = -seen[el]
                    nxt.append(cand)
        frontier = nxt
    return tuple((perm, signs, det) for (perm, signs), det in sorted(seen.items()))


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

    The alternating sum is divided by the binomials of D0 first, then
    multiplied by those of D1 (see the module docstring for the odd-l
    cancellation); dividing first keeps the intermediate small.
    """
    if lam.is_integral() and not is_dominant(lam):
        warnings.warn(f"{lam.format()} is not dominant; result is a formal virtual character")
    divide, multiply = _kac_binomials(alg)
    numerator = {(lam + rho(alg)).doubled: 1}
    return weyl_quotient(alg.n, alg.m, numerator, signed_permutations(alg), divide, multiply, integral="Kac character")


def euler_character(p: Parabolic, module) -> LaurentPoly:
    """Alternating-sum virtual character attached to a parabolic and a Levi
    module (LeviCharacter or raw LaurentPoly)."""
    alg = p.alg
    ch_m = module.character if isinstance(module, LeviCharacter) else module
    _, levi_odd = p.levi_positive()
    f = ch_m.shifted(rho0(alg).doubled)
    for a in positive_roots(alg).odd:
        if a not in levi_odd:
            f = f + f.shifted(tuple(-x for x in a.doubled))
    # dividing by the orthogonal-side roots first keeps the intermediate
    # quotients smaller here (the Kac orbit sums prefer the given order)
    halves = [_half(r.doubled) for r in reversed(positive_roots(alg).even)]
    return weyl_quotient(alg.n, alg.m, f.terms, signed_permutations(alg), halves, integral="Euler character")


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
