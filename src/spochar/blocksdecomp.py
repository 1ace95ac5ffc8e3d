"""Typicality, central-character linkage, the spo(2|3) irreducible character
table, and decomposition of virtual characters into irreducible or Kac bases.

Atypical spo(2|3) irreducible characters come from the finite recursion

    ch L(0|0) = 1
    ch L(1|0) = K(1|0) + 1
    ch L(2|1) = K(2|1) - ch L(1|0) - 1
    ch L(l+1|l) = K(l+1|l) - ch L(l|l-1)      (l >= 2)

whose outputs must be non-negative; a negative coefficient anywhere signals
a Kac-character bug and raises.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .charformulas import Parabolic, euler_character, hook_schur_character, kac_character, parabolic_removing
from .laurent import LaurentPoly, grlex_key
from .linalg import rank as matrix_rank
from .rootdata import (
    Algebra,
    DimensionGuard,
    Weight,
    all_isotropic_roots,
    fits_hook,
    fold_to_dominant,
    is_dominant,
    partitions_up_to,
    positive_roots,
    rho,
    sharp,
    validate_partition,
)
from .jacobitrudi import sym_power_char

SPO23 = Algebra(1, 1, True)


def is_typical(alg: Algebra, lam: Weight) -> bool:
    """(lam+rho, a) != 0 for every isotropic root a (positive ones suffice)."""
    lr = lam + rho(alg)
    return all(lr.pair(a) != 0 for a in positive_roots(alg).isotropic)


class BlockQuery(NamedTuple):
    lam: Weight
    mu: Weight
    max_depth: int = -1  # -1: default min(n,m)+1

    def depth(self, alg):
        return self.max_depth if self.max_depth >= 0 else min(alg.n, alg.m) + 1


class LinkageResult(NamedTuple):
    linked: bool
    inconclusive_at_depth: int | None = None

    def __bool__(self):
        return self.linked


def same_central_character(alg: Algebra, query: BlockQuery) -> LinkageResult:
    """Breadth-first search over chains of isotropic roots.

    From state nu (starting at lam+rho) one may add an isotropic root a with
    (nu, a) = 0; lam and mu are linked when some reachable state lies in the
    Weyl orbit of mu+rho.  Depth exhaustion is reported as inconclusive, not
    silently false.
    """
    lam_rho = query.lam + rho(alg)
    target = fold_to_dominant(alg, (query.mu + rho(alg)).doubled)
    depth = query.depth(alg)
    roots = all_isotropic_roots(alg)
    frontier = {lam_rho.doubled: lam_rho}
    seen = set(frontier)
    for _ in range(depth + 1):
        for state in frontier.values():
            if fold_to_dominant(alg, state.doubled) == target:
                return LinkageResult(True)
        nxt = {}
        for state in frontier.values():
            for a in roots:
                if state.pair(a) == 0:
                    cand = state + a
                    if cand.doubled not in seen:
                        seen.add(cand.doubled)
                        nxt[cand.doubled] = cand
        frontier = nxt
        if not frontier:
            return LinkageResult(False)
    return LinkageResult(False, inconclusive_at_depth=depth)


# -- spo(2|3) irreducible characters ------------------------------------------------


def _spo23_weight(a, b):
    return Weight.from_coeffs(SPO23, [a], [b])


def _assert_nonneg(p: LaurentPoly, what):
    if any(c < 0 for c in p.terms.values()):
        raise ArithmeticError(f"negative coefficient in {what}")
    return p


@lru_cache(maxsize=256)
def irr_char_spo23(a: int, b: int) -> LaurentPoly:
    """Character of the simple spo(2|3)-module with highest weight
    a*d1 + b*e1 (requires dominance)."""
    lam = _spo23_weight(a, b)
    if not is_dominant(lam):
        raise ValueError(f"({a}|{b}) is not dominant for {SPO23}")
    if is_typical(SPO23, lam):
        return _assert_nonneg(kac_character(SPO23, lam), f"L({a}|{b})")
    if (a, b) == (0, 0):
        return LaurentPoly.one(1, 1)
    if (a, b) == (1, 0):
        return _assert_nonneg(kac_character(SPO23, lam) + LaurentPoly.one(1, 1), "L(1|0)")
    if (a, b) == (2, 1):
        out = kac_character(SPO23, lam) - irr_char_spo23(1, 0) - LaurentPoly.one(1, 1)
        return _assert_nonneg(out, "L(2|1)")
    if b == a - 1 and a >= 3:
        out = kac_character(SPO23, lam) - irr_char_spo23(a - 1, b - 1)
        return _assert_nonneg(out, f"L({a}|{b})")
    raise ValueError(f"({a}|{b}): unexpected atypical weight")  # unreachable for dominant input


def irr_char(alg: Algebra, lam: Weight) -> LaurentPoly:
    """Irreducible character where available: typical weights of any spo
    (Kac character), plus the full spo(2|3) table."""
    if alg == SPO23:
        (a,), (b,) = lam.int_coeffs()
        return irr_char_spo23(a, b)
    if not is_typical(alg, lam):
        raise ValueError(f"no irreducible character table for atypical {lam.format()} over {alg}")
    return kac_character(alg, lam)


# -- decomposition into bases ----------------------------------------------------------


class VirtualDecomposition(NamedTuple):
    """Signed multiplicities of basis characters plus the unexplained rest.

    Reconstruction contract: sum of mult * basis_char + remainder equals the
    input exactly.
    """

    basis: str
    factors: dict  # Weight -> int
    remainder: LaurentPoly

    def is_clean(self):
        return self.remainder is None or self.remainder.is_zero()

    def sorted_factors(self):
        return sorted(self.factors.items(), key=lambda kv: grlex_key(kv[0].doubled), reverse=True)

    def to_json_dict(self):
        return {
            "basis": self.basis,
            "factors": [{"weight": w.format(), "mult": c} for w, c in self.sorted_factors()],
            "remainder_zero": self.is_clean(),
        }


def _basis_char(alg: Algebra, basis: str, w: Weight) -> LaurentPoly:
    if basis == "irr":
        return irr_char(alg, w)
    if basis == "kac":
        return kac_character(alg, w)
    raise ValueError(f"unknown basis {basis!r}")


def decompose(alg: Algebra, chi: LaurentPoly, basis: str = "irr") -> VirtualDecomposition:
    """Greedy peeling by graded-lex leading terms.

    Each step takes the leading exponent; if its weight is dominant and the
    basis character is nonzero, with its own leading term at that weight
    with coefficient one (true for every irreducible, and for Kac characters
    away from atypical cancellation), the multiple is subtracted and
    recorded.
    Otherwise peeling stops and the rest is returned as a remainder: the
    caller decides whether that is an error.
    """
    factors = {}
    current = chi
    while not current.is_zero():
        exps, coef = current.leading_term()
        if any(x % 2 for x in exps):
            break
        w = Weight(alg, exps)
        if not is_dominant(w):
            break
        bchar = _basis_char(alg, basis, w)
        if not bchar:
            break  # the basis character vanishes (a Kac character at a singular lam + rho)
        bexps, bcoef = bchar.leading_term()
        if bexps != exps or bcoef != 1:
            break  # basis char's top is elsewhere (atypical Kac cancellation)
        factors[w] = factors.get(w, 0) + coef
        current = current - coef * bchar
    return VirtualDecomposition(basis, factors, current)


def reconstruct(alg: Algebra, dec: VirtualDecomposition) -> LaurentPoly:
    """The sum of mult * basis_char and the remainder.  A zero remainder is
    left out, and the sum starts from its first part: a zero polynomial is
    not held on an orthant, so adding a held basis character to it would
    expand that character's sign images."""
    total = None if dec.is_clean() else dec.remainder
    for w, c in dec.factors.items():
        part = c * _basis_char(alg, dec.basis, w)
        total = part if total is None else total + part
    return LaurentPoly.zero(alg.n, alg.m) if total is None else total


# -- tensor products with the natural module ---------------------------------------------


def tensor_with_natural(a: int, b: int) -> VirtualDecomposition:
    """Composition factors of L(a|b) tensor the natural module of spo(2|3)."""
    chi = irr_char_spo23(a, b) * sym_power_char(SPO23, 1)
    dec = decompose(SPO23, chi, "irr")
    if not dec.is_clean():
        raise ArithmeticError(f"tensor product L({a}|{b}) x natural left a remainder")
    return dec


# The largest accepted tensor table (amax = bmax = 24) and conjecture check
# (bound 27) each take about 5 s on a 2-core host, where amax = bmax = 30
# takes 9 s and bound 35 takes 13 s.
TENSOR_TABLE_LIMIT = 24
CONJECTURE_BOUND_LIMIT = 27


def tensor_table(amax: int, bmax: int) -> dict:
    """decompose(L(a|b) * natural) for every dominant (a|b) in range.
    Raises ValueError when amax or bmax is negative and DimensionGuard when
    either is above TENSOR_TABLE_LIMIT."""
    if min(amax, bmax) < 0:
        raise ValueError(f"tensor table sizes must be >= 0, got a = {amax}, b = {bmax}")
    if max(amax, bmax) > TENSOR_TABLE_LIMIT:
        raise DimensionGuard(f"tensor table to a = {amax}, b = {bmax} exceeds the limit {TENSOR_TABLE_LIMIT}")
    out = {}
    for a in range(amax + 1):
        for b in range(bmax + 1):
            if is_dominant(_spo23_weight(a, b)):
                out[(a, b)] = tensor_with_natural(a, b)
    return out


# -- Euler character families and the basis conjecture check --------------------------------


def gl_parabolic(alg: Algebra) -> Parabolic:
    """The maximal parabolic whose Levi is gl(n|m): remove the tail simple
    root e_m (odd l only)."""
    if not alg.odd or alg.m < 1:
        raise ValueError("gl(n|m) Levi needs l = 2m+1 with m >= 1")
    return parabolic_removing(alg, [f"e{alg.m}"])


def euler_of_hook(alg: Algebra, partition) -> LaurentPoly:
    """Euler character of the covariant simple Levi module attached to a
    hook-bounded partition, for the gl(n|m) parabolic."""
    p = gl_parabolic(alg)
    lam = validate_partition(partition)
    return euler_character(p, hook_schur_character(p, lam))


class ConjectureReport(NamedTuple):
    bound: int
    pattern_min_ell: int
    entries: list  # per-partition dicts
    independent: bool
    rank: int
    count: int

    def all_patterns_match(self):
        return all(e["pattern_match"] for e in self.entries if e["pattern_checked"])


def conjecture_check(alg: Algebra, bound: int = 5, pattern_min_ell: int = 2) -> ConjectureReport:
    """Desk check of the Euler-character basis conjecture for spo(2|3).

    For every hook partition of size <= bound, the Euler character of its
    covariant Levi module is decomposed in the irreducible basis.  Pattern
    check per weight: typical weights must give the single factor [L(lam)];
    atypical weights (l+1|l) with l >= pattern_min_ell must give the
    two-factor pattern [L(l+1|l)] + [L(l|l-1)] at consecutive atypical
    weights (the Kac-module factor pattern of gl(1|1)).  Weights closer to
    zero are reported but not required to match.  Linear independence is
    certified by the rank of the matrix of irreducible-basis coordinates,
    which is basis independent.
    Raises ValueError for a negative bound and DimensionGuard for a bound
    above CONJECTURE_BOUND_LIMIT.
    """
    if alg != SPO23:
        raise ValueError("the desk-scale conjecture check is implemented for spo(2|3)")
    if bound < 0:
        raise ValueError(f"conjecture check bound must be >= 0, got {bound}")
    if bound > CONJECTURE_BOUND_LIMIT:
        raise DimensionGuard(f"conjecture check to bound {bound} exceeds the limit {CONJECTURE_BOUND_LIMIT}")
    partitions = [lam for lam in partitions_up_to(bound) if fits_hook(lam, alg.n, alg.m)]
    entries = []
    coord_rows = []
    coord_index = {}
    for lam in partitions:
        weight = sharp(lam, alg)
        (a,), (b,) = weight.int_coeffs()
        chi = euler_of_hook(alg, lam)
        dec = decompose(alg, chi, "irr")
        if not dec.is_clean():
            raise ArithmeticError(f"Euler character of {lam} did not decompose")
        typical = is_typical(alg, weight)
        checked = True
        if typical:
            expected = {weight: 1}
        elif a == b + 1 and b >= pattern_min_ell:
            expected = {weight: 1, _spo23_weight(a - 1, b - 1): 1}
        else:
            expected = None
            checked = False
        entry = {
            "partition": lam,
            "weight": (a, b),
            "typical": typical,
            "factors": {(f.int_coeffs()[0][0], f.int_coeffs()[1][0]): c for f, c in dec.factors.items()},
            "pattern_checked": checked,
            "pattern_match": (dec.factors == expected) if checked else None,
        }
        entries.append(entry)
        coord_rows.append({coord_index.setdefault(w, len(coord_index)): c for w, c in dec.factors.items() if c})
    rank = matrix_rank(coord_rows)
    return ConjectureReport(bound, pattern_min_ell, entries, rank == len(coord_rows), rank, len(coord_rows))


def block_consistency(alg: Algebra, dec: VirtualDecomposition, max_depth: int = -1):
    """Every pair of weights occurring in one decomposition must be linked."""
    weights = [w for w, c in dec.factors.items() if c]
    for i in range(len(weights)):
        for j in range(i + 1, len(weights)):
            res = same_central_character(alg, BlockQuery(weights[i], weights[j], max_depth))
            if not res.linked:
                return False
    return True
