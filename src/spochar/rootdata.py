"""Root data for spo(2n|l), l = 2m or 2m+1.

Weights live in the span of d_1..d_n (symplectic side) and e_1..e_m
(orthogonal side) with bilinear form (d_i,d_j) = delta_ij,
(e_i,e_j) = -delta_ij, (d_i,e_j) = 0.  Coordinates are stored doubled so
half-integral weights (rho for odd l, Weyl denominators) stay exact integers.

The full theory needs l >= 3; degenerate cases (m = 0, or l = 2) are allowed
so the pure sp(2n)/so(l) Weyl machinery can serve as an internal oracle.

Weyl characters (`weyl_character`, `orthant_character`) read the module of
each simple factor on its dominant weights (Freudenthal's formula,
`_dominant_character`) and the orbit listings of its dominant weights
(`_permutations`, `_side_orbit`) from bounded process-wide tables, keyed on
the factor's own roots, rho and sign rule and the weight: each (factor,
highest weight) is computed once per process, for every algebra with that
factor.  The values are tuples and read-only mappings.  A Weyl character
holds its orthant terms, those with every exponent on its B and C factors
>= 0 (`laurent.sign_images`), and expands them to their sign images once,
in one pass over their columns, when its terms are first read.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .laurent import LaurentPoly, format_exponent, sign_images


class NonIntegralWeight(ValueError):
    """Operation requires an integral weight."""


class DimensionGuard(RuntimeError):
    """A request is above a size bound; refused before anything that size
    is allocated."""


class Algebra:
    """spo(2n|l) descriptor with l = 2m+1 when odd else 2m."""

    __slots__ = ("n", "m", "odd")

    def __init__(self, n: int, m: int, odd: bool):
        if n < 1:
            raise ValueError("n must be >= 1")
        if m < 0:
            raise ValueError("m must be >= 0")
        self.n, self.m, self.odd = n, m, odd

    def __eq__(self, other):
        return isinstance(other, Algebra) and (self.n, self.m, self.odd) == (other.n, other.m, other.odd)

    def __hash__(self):
        return hash((self.n, self.m, self.odd))

    def __repr__(self):
        return f"Algebra(n={self.n}, m={self.m}, odd={self.odd})"

    @property
    def ell(self):
        return 2 * self.m + (1 if self.odd else 0)

    @property
    def rank(self):
        return self.n + self.m

    @classmethod
    def parse(cls, text):
        """Parse '2n|l' strings, e.g. '2|3' -> spo(2|3), '6|4' -> spo(6|4)."""
        mobj = re.fullmatch(r"\s*(\d+)\s*\|\s*(\d+)\s*", text)
        if not mobj:
            raise ValueError(f"cannot parse algebra {text!r}; expected '2n|l'")
        two_n, ell = int(mobj.group(1)), int(mobj.group(2))
        if two_n % 2 or two_n == 0:
            raise ValueError("first component must be a positive even integer 2n")
        return cls(two_n // 2, ell // 2, bool(ell % 2))

    def __str__(self):
        return f"spo({2 * self.n}|{self.ell})"


class Weight:
    """Weight in the d/e basis, coordinates stored doubled (exact halves)."""

    __slots__ = ("alg", "doubled")

    def __init__(self, alg, doubled):
        doubled = tuple(doubled)
        if len(doubled) != alg.rank:
            raise ValueError(f"expected {alg.rank} coordinates, got {len(doubled)}")
        self.alg = alg
        self.doubled = doubled

    @classmethod
    def zero(cls, alg):
        return cls(alg, (0,) * alg.rank)

    @classmethod
    def from_coeffs(cls, alg, a=(), b=()):
        """Build sum a_i d_i + b_j e_j; coefficients may be half-integral."""
        a = list(a) + [0] * (alg.n - len(a))
        b = list(b) + [0] * (alg.m - len(b))
        if len(a) != alg.n or len(b) != alg.m:
            raise ValueError("too many coefficients for this algebra")
        out = []
        for c in list(a) + list(b):
            d = 2 * Fraction(c)
            if d.denominator != 1:
                raise NonIntegralWeight(f"{c} is not a half-integer")
            out.append(int(d))
        return cls(alg, out)

    _TERM = re.compile(r"([+-]?)\s*(\d+)?\s*([de])(\d+)")

    @classmethod
    def parse(cls, alg, text):
        """Parse '2d1+1e1' style text ('|' is accepted as a separator)."""
        text = text.strip().replace("|", "+")
        if text in ("", "0"):
            return cls.zero(alg)
        out = [0] * alg.rank
        pos = 0
        for mobj in cls._TERM.finditer(text):
            if text[pos:mobj.start()].strip():
                raise ValueError(f"cannot parse weight {text!r}")
            sign = -1 if mobj.group(1) == "-" else 1
            coef = int(mobj.group(2) or 1)
            idx = int(mobj.group(4)) - 1
            if mobj.group(3) == "d":
                if not 0 <= idx < alg.n:
                    raise ValueError(f"d{idx + 1} out of range for {alg}")
                out[idx] += 2 * sign * coef
            else:
                if not 0 <= idx < alg.m:
                    raise ValueError(f"e{idx + 1} out of range for {alg}")
                out[alg.n + idx] += 2 * sign * coef
            pos = mobj.end()
        if text[pos:].strip():
            raise ValueError(f"cannot parse weight {text!r}")
        return cls(alg, out)

    # -- coordinates ---------------------------------------------------------

    def is_integral(self):
        return all(x % 2 == 0 for x in self.doubled)

    def int_coeffs(self):
        if not self.is_integral():
            raise NonIntegralWeight(str(self))
        n = self.alg.n
        return tuple(x // 2 for x in self.doubled[:n]), tuple(x // 2 for x in self.doubled[n:])

    # -- arithmetic ----------------------------------------------------------

    def _chk(self, other):
        if self.alg != other.alg:
            raise ValueError("weights from different algebras")

    def __add__(self, other):
        self._chk(other)
        return Weight(self.alg, tuple(x + y for x, y in zip(self.doubled, other.doubled)))

    def __sub__(self, other):
        self._chk(other)
        return Weight(self.alg, tuple(x - y for x, y in zip(self.doubled, other.doubled)))

    def __neg__(self):
        return Weight(self.alg, tuple(-x for x in self.doubled))

    def scale(self, r):
        """Exact scalar multiple; r may be a Fraction (error if not exact)."""
        out = []
        for x in self.doubled:
            v = Fraction(r) * x
            if v.denominator != 1:
                raise NonIntegralWeight(f"{r} * {self} leaves the half lattice")
            out.append(int(v))
        return Weight(self.alg, out)

    def pair(self, other):
        """Bilinear form: sum a_i a'_i - sum b_j b'_j, exact."""
        self._chk(other)
        n = self.alg.n
        s = sum(x * y for x, y in zip(self.doubled[:n], other.doubled[:n]))
        s -= sum(x * y for x, y in zip(self.doubled[n:], other.doubled[n:]))
        return Fraction(s, 4)

    def __eq__(self, other):
        return isinstance(other, Weight) and self.alg == other.alg and self.doubled == other.doubled

    def __hash__(self):
        return hash((self.alg, self.doubled))

    def is_zero(self):
        return all(x == 0 for x in self.doubled)

    # -- presentation ----------------------------------------------------------

    def exponent_monomial(self):
        """e^{self} as a LaurentPoly."""
        return LaurentPoly.monomial(self.alg.n, self.alg.m, self.doubled)

    def format(self):
        return format_exponent(self.doubled, self.alg.n)

    def __repr__(self):
        return f"Weight({self.format()})"


class PositiveRoots(NamedTuple):
    even: tuple
    odd: tuple
    isotropic: tuple


def _unit(alg, i):
    v = [0] * alg.rank
    v[i] = 2
    return Weight(alg, v)


@lru_cache(maxsize=64)
def positive_roots(alg: Algebra) -> PositiveRoots:
    """Standard positive systems; isotropic odd roots are the d_i +/- e_j."""
    n, m = alg.n, alg.m
    d = [_unit(alg, i) for i in range(n)]
    e = [_unit(alg, n + j) for j in range(m)]
    even = []
    for i in range(n):
        for j in range(i + 1, n):
            even.append(d[i] - d[j])
            even.append(d[i] + d[j])
    for i in range(n):
        even.append(d[i] + d[i])
    for i in range(m):
        for j in range(i + 1, m):
            even.append(e[i] - e[j])
            even.append(e[i] + e[j])
    if alg.odd:
        even.extend(e)
    odd = []
    iso = []
    for i in range(n):
        for j in range(m):
            odd.append(d[i] - e[j])
            odd.append(d[i] + e[j])
            iso.append(d[i] - e[j])
            iso.append(d[i] + e[j])
    if alg.odd:
        odd.extend(d)
    return PositiveRoots(tuple(even), tuple(odd), tuple(iso))


def all_isotropic_roots(alg: Algebra):
    """Both signs of every isotropic root (linkage chains need them all)."""
    pos = positive_roots(alg).isotropic
    return tuple(pos) + tuple(-r for r in pos)


@lru_cache(maxsize=64)
def simple_roots(alg: Algebra):
    """Standard simple system, as a tuple: d-chain, d_n - e_1, e-chain, then
    the tail (e_m for odd l, e_{m-1} + e_m for even l >= 4, d_n + e_1 for
    l = 2)."""
    n, m = alg.n, alg.m
    d = [_unit(alg, i) for i in range(n)]
    e = [_unit(alg, n + j) for j in range(m)]
    out = [d[i] - d[i + 1] for i in range(n - 1)]
    if m == 0:
        out.append(d[n - 1] if alg.odd else d[n - 1] + d[n - 1])
        return tuple(out)
    out.append(d[n - 1] - e[0])
    out.extend(e[j] - e[j + 1] for j in range(m - 1))
    if alg.odd:
        out.append(e[m - 1])
    elif m >= 2:
        out.append(e[m - 2] + e[m - 1])
    else:
        out.append(d[n - 1] + e[0])
    return tuple(out)


@lru_cache(maxsize=64)
def rho(alg: Algebra) -> Weight:
    """Graded half sum of positive roots, by the closed formulas."""
    n, m = alg.n, alg.m
    out = [0] * alg.rank
    for i in range(1, n + 1):
        c = Fraction(i - m) if not alg.odd else Fraction(i - m) - Fraction(1, 2)
        out[n - i] = int(2 * c)
    for j in range(1, m + 1):
        c = Fraction(m - j) if not alg.odd else Fraction(m - j) + Fraction(1, 2)
        out[n + j - 1] = int(2 * c)
    return Weight(alg, out)


@lru_cache(maxsize=64)
def rho0(alg: Algebra) -> Weight:
    """Half sum of the even positive roots, summed directly."""
    tot = [0] * alg.rank
    for r in positive_roots(alg).even:
        for i, x in enumerate(r.doubled):
            tot[i] += x
    return Weight(alg, [x // 2 for x in tot])


@lru_cache(maxsize=256)
def _factors(rank, roots):
    """The simple factors (slots, roots, rho, flips) of the doubled positive
    roots `roots` on `rank` slots: slices of consecutive slots, cut where no
    root spans the cut, with the roots and doubled rho on the slice.  A
    factor with a one-slot root (x_i or 2x_i) is B or C (flips True: W
    changes any sign), else one with a root x_i + x_j is D (False: signs
    change in pairs), else A or a slot without a root (None).  g0 is C_n on
    the d-slots and B_m or D_m on the e-slots; an even Levi is A-chains and
    at most one B, C or D tail."""
    cuts = set(range(1, rank))
    for r in roots:
        support = [i for i, x in enumerate(r) if x]
        cuts -= set(range(support[0] + 1, support[-1] + 1))
    bounds = [0, *sorted(cuts), rank]
    out = []
    for slots in itertools.starmap(slice, zip(bounds, bounds[1:])):
        own = tuple(r[slots] for r in roots if any(r[slots]))
        flips = True if any(sum(map(bool, r)) == 1 for r in own) else False if any(map(sum, own)) else None
        out.append((slots, own, tuple(sum(col) // 2 for col in zip(*own)) or (0,) * (slots.stop - slots.start), flips))
    return tuple(out)


@lru_cache(maxsize=256)
def _fold_plan(rank, roots):
    """(factors, rho, steps) for `orthant_character`: the factors of
    `_factors(rank, roots)`, their doubled rho, and for each factor
    (slots, one-factor tuple), the tuple holding the factor alone on the
    slots of its own slice, so that `_chamber_fold` folds a weight's part on
    that factor by itself.  Kept for the process, so that a one-term
    numerator (Kac, even Levi) pays one table lookup for it."""
    factors = _factors(rank, roots)
    steps = tuple((slots, ((slice(None), own, rho, flips),)) for slots, own, rho, flips in factors)
    return factors, sum((rho for _, _, rho, _ in factors), ()), steps


@lru_cache(maxsize=64)
def _g0_factors(alg: Algebra):
    """The factors of g0 = sp(2n) + so(l), whose Weyl group is W."""
    return _factors(alg.rank, tuple(r.doubled for r in positive_roots(alg).even))


def _chamber_fold(factors, doubled):
    """(dominant, det): the dominant weight u(w) in the orbit of a doubled
    weight w under the Weyl group of `factors` (`_factors`), and det(u), or
    0 when a reflection fixes w.  On each factor the group permutes the
    entries (A), and changes any signs (B, C) or evenly many (D).  So the
    fold sorts each factor's entries, on B, C and D their absolute values,
    in descending order, and on D keeps the orbit's sign parity on the last
    entry unless an entry is 0 (Stembridge, MSJ Memoirs 11, 2001).  det(u)
    is the parity of the sort's inversions, times that of the sign changes
    on B and C.  A repeated (absolute) value is fixed by the reflection in
    x_i - x_j (x_i + x_j), and a 0 on B and C by the one in x_i.

    For the alternating sum A(w) = sum over the group of det(g) e^{g(w)},
    A(w) = det(u) A(u(w)) for every u, and A(w) = 0 when a reflection fixes
    w: so each numerator term of a Weyl character folds into the dominant
    chamber with its sign, and the singular ones drop out."""
    det = 1
    out = []
    for slots, _, _, flips in factors:
        side = doubled[slots]
        mags = list(side if flips is None else map(abs, side))
        if det:  # most weights the Laplacian blocks fold are singular: skip their parity
            if len(set(mags)) < len(mags) or flips and 0 in mags:
                det = 0
            elif (sum(itertools.starmap(operator.lt, itertools.combinations(mags, 2)))
                  + (flips is True and sum(map((0).__gt__, side)))) % 2:  # inversions, then sign changes
                det = -det
        mags.sort(reverse=True)
        if flips is False and mags[-1] and sum(map((0).__gt__, side)) % 2:
            mags[-1] = -mags[-1]
        out += mags
    return tuple(out), det


def fold_to_dominant(alg: Algebra, doubled):
    """The g0-dominant weight in the W-orbit of a doubled weight (the weight
    of `_chamber_fold`).  A weight is g0-dominant iff it is its own fold,
    and two weights lie in one W-orbit iff their folds are equal."""
    return _chamber_fold(_g0_factors(alg), doubled)[0]


# -- Weyl characters ---------------------------------------------------------------


# Entries in each table of simple-factor modules and orbits (see the module
# docstring).  A sweep over the spo(10|3) delta-chain Euler characters and
# 450 Kac and Weyl characters of 18 algebras fills at most 210 entries of
# one table, 446 in all, in 0.6 MiB; the spo(8|5) Euler character of the
# hook module at (4,3,2,1) reads 96 factor modules.
FACTOR_TABLE_SIZE = 1024


def weyl_character(alg: Algebra, numerator, roots) -> LaurentPoly:
    """sum over {nu: c} of c A(e^nu) / D, where `roots` are the doubled
    positive roots of a reductive root system with Weyl group W_R,
    A(e^nu) = sum over W_R of det(g) e^{g(nu)}, rho is half their sum and
    D = A(e^rho): for strictly dominant nu, the character of the simple
    module of highest weight nu - rho.  No sum over W_R is taken: the result
    holds `orthant_character` as its orthant, with the slots of the B and C
    factors sign-free, and expands it to its sign images only when its
    terms are first read (`laurent.sign_images`), so its term count, vdim,
    leading term and integrality cost no expansion.  Euler characters pass
    the roots of g0, Kac characters for odd l those of so(2n+1) + so(l)
    (the same W), and even-Levi characters the Levi's."""
    orthant = orthant_character(alg, numerator, roots)
    return sign_images(alg.n, alg.m, zip(*orthant.terms), orthant.terms.values(), _sign_free(_factors(alg.rank, roots)))


def _sign_free(factors):
    """The slots of the B and C factors, where W changes any single sign."""
    return tuple(s for slots, _, _, flips in factors if flips for s in range(slots.start, slots.stop))


def sign_free_slots(alg: Algebra):
    """The slots where W changes any single sign: the d-slots (C_n), and for
    odd l the e-slots (B_m); D_m, for even l, changes signs in pairs."""
    return _sign_free(_g0_factors(alg))


def orthant_character(alg: Algebra, numerator, roots) -> LaurentPoly:
    """The terms of `weyl_character(alg, numerator, roots)` whose exponents
    on its B and C factors are all >= 0: the character is invariant under
    each sign change there, so these terms determine it.

    The roots, W and dominance split into the factors of `_factors`.  The
    numerator is folded into the dominant chamber one factor at a time: a
    term's part on a factor folds to a dominant part and a det
    (`_chamber_fold` on that factor alone, `_fold_plan`), read from a dict
    kept for the call and keyed by the part, since the parts of an Euler
    numerator's terms repeat (the spo(8|5) hook numerator has 152134 terms
    but 3645 + 80 distinct parts).  The term's fold is the concatenation
    of its dominant parts with the product of their dets, and it is dropped
    at its first singular part.  A folded term's module is the product of
    one module per factor, given by its multiplicities on dominant weights
    (`_dominant_character`, read from a table kept for the process); they
    are added up on dominant weights, and each with a nonzero sum is listed
    on the orthant (`_orthant_orbit`)."""
    factors, r0, steps = _fold_plan(alg.rank, roots)
    memos = [{} for _ in steps]  # per factor: part -> (dominant part, det)
    folded = {}
    for nu, c in numerator.items():
        key = ()
        for (slots, one), memo in zip(steps, memos):
            part = nu[slots]
            hit = memo.get(part)
            if hit is None:
                hit = memo[part] = _chamber_fold(one, part)
            mu, det = hit
            if not det:
                break
            key += mu
            c *= det
        else:
            folded[key] = folded.get(key, 0) + c
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
    return LaurentPoly._wrap(alg.n, alg.m, out)


def _orthant_orbit(parts, groups):
    """The orbit of a dominant weight with its entries on B and C >= 0,
    given by its `parts` on consecutive factors with their (roots, flips)
    in `groups`: the product of the factors' orbits, the distinct
    permutations on A, B and C (`_permutations`) and the orbit on D
    (`_side_orbit`)."""
    images = [()]
    for mu, (roots, flips) in zip(parts, groups):
        orbit = _side_orbit(mu, roots, False) if flips is False else _permutations(mu)
        images = [x + y for x in images for y in orbit]
    return images


@lru_cache(maxsize=FACTOR_TABLE_SIZE)
def _dominant_character(lam, roots, rho_side, flips):
    """A read-only {mu: multiplicity} over the dominant weights mu of the
    simple module of dominant highest weight lam, for one factor of
    `_factors`: doubled weights, `roots` its doubled positive roots,
    `rho_side` its doubled rho, `flips` False for D (dominance x_1 >= ...
    >= x_{k-1} >= |x_k|), None for A (no test on x_k).  A lam that is not an integral weight of the
    roots raises ArithmeticError: its quotient is not a Laurent polynomial.

    A factor without roots is abelian: {lam: 1}.  Rank 1 is one root
    string, in closed form.  Otherwise Freudenthal's formula (Humphreys,
    Introduction to Lie Algebras and Representation Theory, 22.3), in exact
    ints with the Euclidean form, which is W-invariant and so a multiple of
    the Killing form on each simple factor:

        ((lam+rho, lam+rho) - (mu+rho, mu+rho)) m(mu)
            = 2 sum over alpha > 0, j >= 1 of m(mu + j alpha) (mu + j alpha, alpha).

    The dominant weights are reached from lam by subtracting positive roots
    and staying dominant (Stembridge, The partial order of dominant weights,
    Adv. Math. 136, 1998), and taken in decreasing (mu, rho): each
    mu + j alpha folds to a dominant weight above mu, already known, and its
    string ends at the first fold that is not a weight.  A division with a
    remainder raises ArithmeticError.

    Results are kept in a process-wide table keyed on all four arguments
    (`FACTOR_TABLE_SIZE` entries, least recently used out first); an
    ArithmeticError is not kept, and a repeated call raises it again.
    """
    def dot(u, v):
        return sum(map(operator.mul, u, v))

    # 2 (lam, a) / (a, a) is an integer for an integral lam: the roots are x_i -+ x_j, x_i, 2x_i
    if any(x % 2 for x in lam) and any(2 * dot(lam, a) % dot(a, a) for a in roots):
        raise ArithmeticError(f"{lam} is not an integral highest weight of the roots {roots}")
    if not roots:
        return MappingProxyType({lam: 1})
    if len(lam) == 1:
        return MappingProxyType({(x,): 1 for x in range(lam[0], -1, -roots[0][0])})

    def shifted_norm(mu):
        shifted = tuple(map(operator.add, mu, rho_side))
        return dot(shifted, shifted)

    def fold(w):
        if flips is None:
            return tuple(sorted(w, reverse=True))
        mags = sorted(map(abs, w), reverse=True)
        if not flips and mags[-1] and sum(map((0).__gt__, w)) % 2:
            mags[-1] = -mags[-1]
        return tuple(mags)

    weights = [lam]
    seen = {lam}
    for mu in weights:
        for a in roots:
            nu = tuple(map(operator.sub, mu, a))
            if (nu not in seen and all(map(operator.ge, nu, nu[1:]))
                    and (flips is None or (nu[-1] >= 0 if flips else nu[-2] >= -nu[-1]))):
                seen.add(nu)
                weights.append(nu)
    weights.sort(key=lambda mu: dot(mu, rho_side), reverse=True)
    top = shifted_norm(lam)
    mult = {lam: 1}
    for mu in weights[1:]:
        total = 0
        for a in roots:
            nu = tuple(map(operator.add, mu, a))
            while c := mult.get(fold(nu)):
                total += c * dot(nu, a)
                nu = tuple(map(operator.add, nu, a))
        den = top - shifted_norm(mu)
        m, rest = divmod(2 * total, den)
        if rest or m <= 0:
            raise ArithmeticError(f"Freudenthal's formula gives {2 * total} / {den} at {mu}")
        mult[mu] = m
    return MappingProxyType(mult)


@lru_cache(maxsize=FACTOR_TABLE_SIZE)
def _permutations(mu):
    """The distinct permutations of a tuple."""
    images = {()}
    for x in mu:  # insert each entry at every place
        images = {w[:i] + (x,) + w[i:] for w in images for i in range(len(w) + 1)}
    return tuple(images)


@lru_cache(maxsize=FACTOR_TABLE_SIZE)
def _side_orbit(mu, roots, flips):
    """The distinct images of a dominant doubled weight of one side of g0
    under that side's Weyl group: signed permutations of its entries, with
    evenly many sign changes on D_m (flips False), so that a D_m orbit
    without a 0 entry keeps the sign parity of mu, whose last entry may be
    negative.  A side without roots has the trivial group."""
    if not roots:
        return (mu,)
    if len(mu) == 1:
        return ((mu[0],), (-mu[0],)) if mu[0] else (mu,)
    images = {()}
    for x in map(abs, mu):  # insert each entry, with either sign, at every place
        images = {w[:i] + (y,) + w[i:] for w in images for i in range(len(w) + 1) for y in (x, -x)}
    if flips or 0 in mu:
        return tuple(images)
    parity = mu[-1] < 0
    return tuple(w for w in images if sum(map((0).__gt__, w)) % 2 == parity)


def is_dominant(w: Weight) -> bool:
    """Highest weight of a finite-dimensional simple module?

    Requires g0-dominance (a_1 >= ... >= a_n >= 0, and b_1 >= ... >= b_m >= 0
    for odd l or b_{m-1} >= |b_m| for even l: the weight is its own fold) and
    the hook condition: a_n < m forces b_{a_n+1} = ... = b_m = 0.
    """
    if not w.is_integral():
        raise NonIntegralWeight(str(w))
    if fold_to_dominant(w.alg, w.doubled) != w.doubled:
        return False
    a, b = w.int_coeffs()
    return not any(b[a[-1]:])


class HookConditionError(ValueError):
    """Partition does not fit the (n|m)-hook."""


def fits_hook(lam, n, m):
    """Does the partition lam fit the (n|m)-hook, i.e. lam_{n+1} <= m?"""
    return len(lam) <= n or lam[n] <= m


def hook_partition(partition, alg: Algebra):
    """The validated partition; HookConditionError if it does not fit the
    (n|m)-hook of alg."""
    lam = validate_partition(partition)
    if not fits_hook(lam, alg.n, alg.m):
        raise HookConditionError(f"{lam} does not fit the ({alg.n}|{alg.m}) hook")
    return lam


def partitions_up_to(total, max_parts=None):
    """Every partition of size at most total, with at most max_parts parts
    when given, ordered by size and then lexicographically."""
    out = [()]

    def extend(prefix, remaining):
        if len(prefix) == max_parts:
            return
        for part in range(1, min(remaining, prefix[-1] if prefix else remaining) + 1):
            out.append(prefix + (part,))
            extend(prefix + (part,), remaining - part)

    extend((), total)
    return sorted(out, key=lambda lam: (sum(lam), lam))


def sharp(partition, alg: Algebra) -> Weight:
    """Dominant weight of the partition: first n parts on the d side, then
    the clipped conjugate columns <lambda'_j - n> on the e side."""
    lam = hook_partition(partition, alg)
    conj = conjugate_partition(lam)
    a = [lam[i] if i < len(lam) else 0 for i in range(alg.n)]
    b = [max((conj[j] if j < len(conj) else 0) - alg.n, 0) for j in range(alg.m)]
    return Weight.from_coeffs(alg, a, b)


def weight_to_partition(w: Weight):
    """Inverse of sharp on dominant weights: rows a_1..a_n, then the
    conjugate of the b-columns."""
    a, b = w.int_coeffs()
    if any(x < 0 for x in b):
        raise ValueError("weight is not in the image of sharp")
    rows = list(a) + list(conjugate_partition([x for x in b if x]))
    lam = [x for x in rows if x]
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"{w} is not in the image of sharp")
    return tuple(lam)


def validate_partition(parts):
    """The parts as a tuple without trailing zeros; any other zero, a
    negative part or an increase is refused."""
    given = tuple(int(x) for x in parts)
    lam = given
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    if any(x <= 0 for x in lam) or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"{','.join(map(str, given))} is not a partition")
    return lam


def conjugate_partition(lam):
    lam = tuple(lam)
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x > j) for j in range(lam[0]))


# -- Weyl group -----------------------------------------------------------------


# Larger Weyl groups are refused before they are enumerated: spo(8|5) has
# |W| = 3072 and spo(8|8) 73728, while spo(10|10) would need 7.4 million
# elements.
WEYL_ORDER_LIMIT = 100_000


def weyl_order(alg: Algebra) -> int:
    """|W| = n! 2^n * m! 2^m (odd l) or m! 2^(m-1) (even l, m >= 1)."""
    so = 1 if alg.m == 0 else math.factorial(alg.m) * 2 ** (alg.m if alg.odd else alg.m - 1)
    return math.factorial(alg.n) * 2**alg.n * so


def check_weyl_order(alg: Algebra) -> None:
    """Raise DimensionGuard when |W|, by its closed form, is above
    WEYL_ORDER_LIMIT, so that no work sized by W starts."""
    order = weyl_order(alg)
    if order > WEYL_ORDER_LIMIT:
        raise DimensionGuard(f"|W| = {order} for {alg} exceeds the limit {WEYL_ORDER_LIMIT}")


@lru_cache(maxsize=64)
def weyl_group(alg: Algebra):
    """W as rows (perm, signs, det) over the n+m slots, acting by
    g(w)[perm[i]] = signs[i] * w[i] (`weyl_act`): signed permutations of
    the d-slots (type C_n), and of the e-slots with any signs (B_m, odd l)
    or evenly many sign changes (D_m, even l).  det is the determinant on
    the weight space, the inversion parity of perm times the product of the
    signs.  Only the independent oracles of `acceptance` enumerate W:
    `weyl_act` applies a row and `antisymmetrize` sums over it.

    Rows run lexicographically over (d-permutation, d-signs, e-permutation,
    e-signs), signs (+1, -1) per slot, so every W-sum adds its terms in one
    fixed order.  Raises DimensionGuard, before enumerating, above
    WEYL_ORDER_LIMIT (`check_weyl_order`)."""
    check_weyl_order(alg)
    n, m = alg.n, alg.m
    out = []
    for sp_perm in itertools.permutations(range(n)):
        for sp_signs in itertools.product((1, -1), repeat=n):
            for so_perm in itertools.permutations(range(n, n + m)):
                for so_signs in itertools.product((1, -1), repeat=m):
                    if not alg.odd and so_signs.count(-1) % 2:
                        continue
                    perm, signs = sp_perm + so_perm, sp_signs + so_signs
                    inversions = sum(itertools.starmap(operator.gt, itertools.combinations(perm, 2)))
                    out.append((perm, signs, (-1) ** inversions * math.prod(signs)))
    return tuple(out)


def weyl_act(g, doubled):
    """g(w) for a row g = (perm, signs, det) of `weyl_group` and a doubled
    weight w: slot i of w, times signs[i], moves to slot perm[i]."""
    perm, signs, _ = g
    out = [0] * len(doubled)
    for p, sign, x in zip(perm, signs, doubled):
        out[p] = sign * x
    return tuple(out)


def alternating_terms(group, doubled):
    """{e: c} of the alternating sum over rows of `weyl_group` (or any rows
    of that form) of det(g) e^{g(w)}, for a doubled weight w."""
    out = {}
    for g in group:
        k = weyl_act(g, doubled)
        out[k] = out.get(k, 0) + g[2]
    return out


def antisymmetrize(alg: Algebra, w: Weight) -> LaurentPoly:
    """Alternating Weyl sum of e^{w}: sum over W of sign(g) e^{g(w)}."""
    return LaurentPoly(alg.n, alg.m, alternating_terms(weyl_group(alg), w.doubled))
