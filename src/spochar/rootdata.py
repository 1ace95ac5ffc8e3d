"""Root data for spo(2n|l), l = 2m or 2m+1.

Weights live in the span of d_1..d_n (symplectic side) and e_1..e_m
(orthogonal side) with bilinear form (d_i,d_j) = delta_ij,
(e_i,e_j) = -delta_ij, (d_i,e_j) = 0.  Coordinates are stored doubled so
half-integral weights (rho for odd l, Weyl denominators) stay exact integers.

The full theory needs l >= 3; degenerate cases (m = 0, or l = 2) are allowed
so the pure sp(2n)/so(l) Weyl machinery can serve as an internal oracle.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .laurent import LaurentPoly, format_exponent, weyl_quotient


class NonIntegralWeight(ValueError):
    """Operation requires an integral weight."""


class DimensionGuard(RuntimeError):
    """A request is above a size bound; refused before anything that size
    is allocated."""


@dataclass(frozen=True)
class Algebra:
    """spo(2n|l) descriptor with l = 2m+1 when odd else 2m."""

    n: int
    m: int
    odd: bool

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.m < 0:
            raise ValueError("m must be >= 0")

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


def simple_roots(alg: Algebra):
    """Standard simple system: d-chain, d_n - e_1, e-chain, then the tail
    (e_m for odd l, e_{m-1} + e_m for even l >= 4, d_n + e_1 for l = 2)."""
    n, m = alg.n, alg.m
    d = [_unit(alg, i) for i in range(n)]
    e = [_unit(alg, n + j) for j in range(m)]
    out = [d[i] - d[i + 1] for i in range(n - 1)]
    if m == 0:
        out.append(d[n - 1] if alg.odd else d[n - 1] + d[n - 1])
        return out
    out.append(d[n - 1] - e[0])
    out.extend(e[j] - e[j + 1] for j in range(m - 1))
    if alg.odd:
        out.append(e[m - 1])
    elif m >= 2:
        out.append(e[m - 2] + e[m - 1])
    else:
        out.append(d[n - 1] + e[0])
    return out


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


def fold_to_dominant(alg: Algebra, doubled):
    """The g0-dominant weight in the W-orbit of a doubled weight.

    W acts by signed permutations: of the d-slots (type C_n), and of the
    e-slots with any signs (B_m, odd l) or evenly many sign changes (D_m,
    even l).  So the fold sorts the absolute values of each side in
    descending order and, for even l, keeps the orbit's sign parity on the
    last e-entry unless some e-entry is 0 (Stembridge, MSJ Memoirs 11,
    2001).  A weight is g0-dominant iff it is its own fold, and two weights
    lie in one W-orbit iff their folds are equal.
    """
    n = alg.n
    sp = sorted((abs(x) for x in doubled[:n]), reverse=True)
    so = sorted((abs(x) for x in doubled[n:]), reverse=True)
    if not alg.odd and so and so[-1] and sum(x < 0 for x in doubled[n:]) % 2:
        so[-1] = -so[-1]
    return tuple(sp + so)


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
    lam = validate_partition(partition)
    if not fits_hook(lam, alg.n, alg.m):
        raise HookConditionError(f"{lam} does not fit the ({alg.n}|{alg.m}) hook")
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
    lam = tuple(int(x) for x in parts if int(x) != 0)
    if any(x < 0 for x in lam) or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"{parts} is not a partition")
    return lam


def conjugate_partition(lam):
    lam = tuple(lam)
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x > j) for j in range(lam[0]))


# -- Weyl group -----------------------------------------------------------------


class WeylElement:
    """Signed permutation pair: type B_n on the d's; B_m (odd l) or D_m
    (even l: evenly many sign flips) on the e's.

    perms map position i to image position perm[i]; w(d_i) = s_i d_{perm[i]}.
    The sign is the determinant on the weight space, i.e. (-1)^{length},
    computed once on construction.
    """

    __slots__ = ("sp_perm", "sp_signs", "so_perm", "so_signs", "sign")

    def __init__(self, sp_perm, sp_signs, so_perm, so_signs):
        self.sp_perm = tuple(sp_perm)
        self.sp_signs = tuple(sp_signs)
        self.so_perm = tuple(so_perm)
        self.so_signs = tuple(so_signs)
        sign = self._perm_parity(self.sp_perm) * self._perm_parity(self.so_perm)
        for x in self.sp_signs + self.so_signs:
            sign *= x
        self.sign = sign

    @staticmethod
    def _perm_parity(perm):
        seen = [False] * len(perm)
        sign = 1
        for i in range(len(perm)):
            if seen[i]:
                continue
            j, clen = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                clen += 1
            if clen % 2 == 0:
                sign = -sign
        return sign

    def apply_doubled(self, exps):
        n = len(self.sp_perm)
        out = [0] * len(exps)
        for i in range(n):
            out[self.sp_perm[i]] = self.sp_signs[i] * exps[i]
        for j in range(len(self.so_perm)):
            out[n + self.so_perm[j]] = self.so_signs[j] * exps[n + j]
        return tuple(out)

    def apply_weight(self, w: Weight) -> Weight:
        return Weight(w.alg, self.apply_doubled(w.doubled))

    def apply_poly(self, p: LaurentPoly) -> LaurentPoly:
        return p.map_exponents(self.apply_doubled)

    def __mul__(self, other):
        """Composition self after other."""
        sp_perm = tuple(self.sp_perm[other.sp_perm[i]] for i in range(len(self.sp_perm)))
        sp_signs = tuple(other.sp_signs[i] * self.sp_signs[other.sp_perm[i]] for i in range(len(self.sp_perm)))
        so_perm = tuple(self.so_perm[other.so_perm[j]] for j in range(len(self.so_perm)))
        so_signs = tuple(other.so_signs[j] * self.so_signs[other.so_perm[j]] for j in range(len(self.so_perm)))
        return WeylElement(sp_perm, sp_signs, so_perm, so_signs)

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.sp_perm == other.sp_perm
            and self.sp_signs == other.sp_signs
            and self.so_perm == other.so_perm
            and self.so_signs == other.so_signs
        )

    def __hash__(self):
        return hash((self.sp_perm, self.sp_signs, self.so_perm, self.so_signs))

    def __repr__(self):
        return f"WeylElement(sp={self.sp_perm}/{self.sp_signs}, so={self.so_perm}/{self.so_signs})"


# Larger Weyl groups are refused before they are enumerated: spo(8|5) has
# |W| = 3072 and spo(8|8) 73728, while spo(10|10) would need 7.4 million
# elements.
WEYL_ORDER_LIMIT = 100_000


def weyl_order(alg: Algebra) -> int:
    """|W| = n! 2^n * m! 2^m (odd l) or m! 2^(m-1) (even l, m >= 1)."""
    so = 1 if alg.m == 0 else math.factorial(alg.m) * 2 ** (alg.m if alg.odd else alg.m - 1)
    return math.factorial(alg.n) * 2**alg.n * so


@lru_cache(maxsize=64)
def weyl_group(alg: Algebra):
    """Deterministic enumeration of W, lexicographic over (sp-permutation,
    sp-signs, so-permutation, so-signs); signs run (+1, -1) per slot.
    Raises DimensionGuard, before enumerating, above WEYL_ORDER_LIMIT."""
    order = weyl_order(alg)
    if order > WEYL_ORDER_LIMIT:
        raise DimensionGuard(f"|W| = {order} for {alg} exceeds the limit {WEYL_ORDER_LIMIT}")
    n, m = alg.n, alg.m
    out = []
    for sp_perm in itertools.permutations(range(n)):
        for sp_signs in itertools.product((1, -1), repeat=n):
            for so_perm in itertools.permutations(range(m)):
                for so_signs in itertools.product((1, -1), repeat=m):
                    if not alg.odd and m >= 1 and so_signs.count(-1) % 2:
                        continue
                    out.append(WeylElement(sp_perm, sp_signs, so_perm, so_signs))
    return tuple(out)


@lru_cache(maxsize=64)
def signed_permutations(alg: Algebra):
    """W in weyl_group's order as (perm, signs, det) over all n+m slots: the
    form `laurent.weyl_quotient` reads."""
    n = alg.n
    return tuple(
        (g.sp_perm + tuple(n + j for j in g.so_perm), g.sp_signs + g.so_signs, g.sign) for g in weyl_group(alg)
    )


def antisymmetrize(alg: Algebra, w: Weight) -> LaurentPoly:
    """Alternating Weyl sum of e^{w}: sum over W of sign(g) e^{g(w)}."""
    return weyl_quotient(alg.n, alg.m, {w.doubled: 1}, signed_permutations(alg))
