"""The golden-table verification suite behind `spochar reproduce-paper`.

Each criterion is a function returning a CriterionResult; everything asserts
exact equality (integers and polynomials), no tolerances.  Expected values
are frozen from independent oracles: virtual-dimension products, the
reflection bookkeeping of alternating Weyl sums (for the tensor tables), and
exact singular-vector counts in realized modules.

Three printed tensor-table rows are internally inconsistent in the source
tables (they fail the virtual-dimension cross-check); those rows are
asserted in corrected form and reported, see the details of criterion 8.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .blocksdecomp import (
    SPO23,
    BlockQuery,
    block_consistency,
    conjecture_check,
    decompose,
    euler_of_hook,
    irr_char_spo23,
    is_typical,
    reconstruct,
    same_central_character,
    tensor_with_natural,
)
from .charformulas import (
    denominators,
    euler_character,
    kac_character,
    levi_character,
    parabolic_removing,
)
from .jacobitrudi import ext_power_char, identity_suite, jt_character, jt_character_e, sym_power_char
from .laurent import LaurentPoly, exact_div
from .rootdata import (
    Algebra,
    Weight,
    antisymmetrize,
    fits_hook,
    is_dominant,
    partitions_up_to,
    positive_roots,
    rho0,
    sharp,
    weight_to_partition,
    weyl_group,
)
from .superspace import (
    SuperElement,
    char_of_degree,
    irreducibility_report,
    kernel_basis,
    laplacian,
    natural_tensor_singular_counts,
    singular_vectors,
)


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: list = field(default_factory=list)


def _w23(a, b):
    return Weight.from_coeffs(SPO23, [a], [b])


def _factors_ab(dec):
    return {(w.int_coeffs()[0][0], w.int_coeffs()[1][0]): c for w, c in dec.factors.items()}


# -- criterion 1: Euler character goldens ---------------------------------------------


def criterion_1():
    details = []
    ok = True

    spo24 = Algebra.parse("2|4")
    p = parabolic_removing(spo24, "e1+e2")
    e_triv = euler_character(p, levi_character(p, "trivial"))
    ok &= e_triv == 2 * LaurentPoly.one(1, 2)
    details.append(f"spo(2|4) remove e1+e2: E(trivial) = {e_triv.evaluate_at_one()} (expected constant 2)")
    e_nat = euler_character(p, levi_character(p, "natural"))
    ok &= e_nat == sym_power_char(spo24, 1)
    details.append("spo(2|4): E(natural gl(1|2) module) equals the natural spo character")

    spo26 = Algebra.parse("2|6")
    q = parabolic_removing(spo26, "e2+e3")
    e_triv6 = euler_character(q, levi_character(q, "trivial"))
    ok &= e_triv6 == 2 * LaurentPoly.one(1, 3)
    details.append(f"spo(2|6) remove e2+e3: E(trivial) = {e_triv6.evaluate_at_one()} (expected constant 2)")
    e_nat6 = euler_character(q, levi_character(q, "natural"))
    ok &= e_nat6 == 2 * sym_power_char(spo26, 1)
    details.append("spo(2|6): E(natural gl(1|3) module) equals twice the natural spo character")
    e_sym2 = euler_character(q, levi_character(q, "sym_power", 2))
    ok &= e_sym2 == sym_power_char(spo26, 2)
    details.append("spo(2|6): E(S^2 of the gl(1|3) natural module) equals the S^2 spo character")
    return CriterionResult(1, "Euler character goldens", bool(ok), details)


# -- criterion 2: Euler equals Jacobi-Trudi -------------------------------------------


def _delta_chain_parabolic(alg):
    return parabolic_removing(alg, [f"d{i + 1}-d{i + 2}" for i in range(alg.n - 1)])


def criterion_2():
    details = []
    ok = True
    for algtxt in ("4|3", "6|3"):
        alg = Algebra.parse(algtxt)
        p = _delta_chain_parabolic(alg)
        count = 0
        for lam in partitions_up_to(5, max_parts=alg.n - 1):
            w = Weight.from_coeffs(alg, list(lam) + [0] * (alg.n - len(lam)), [0])
            e = euler_character(p, levi_character(p, "one_dimensional", w))
            d = jt_character(lam, alg)
            if e != d:
                ok = False
                details.append(f"spo({algtxt}) lambda={list(lam)}: Euler != Jacobi-Trudi")
            count += 1
        details.append(f"spo({algtxt}): Euler == Jacobi-Trudi for all {count} weights with |lambda| <= 5")
    return CriterionResult(2, "Euler characters coincide with Jacobi-Trudi characters", bool(ok), details)


# -- criterion 3: translation recursion and the doubling remark -------------------------


def criterion_3():
    details = []
    ok = True
    for algtxt in ("4|3", "6|3"):
        alg = Algebra.parse(algtxt)
        p = _delta_chain_parabolic(alg)
        q = parabolic_removing(alg, [f"d{i + 1}-d{i + 2}" for i in range(alg.n - 1)] + ["e1"])
        natural_levi = LaurentPoly.one(alg.n, alg.m)
        for txt in (f"1d{alg.n}", f"-1d{alg.n}", "1e1", "-1e1"):
            natural_levi = natural_levi + Weight.parse(alg, txt).exponent_monomial()
        n_rec = n_dbl = 0
        for lam in partitions_up_to(4, max_parts=alg.n - 1):
            w = Weight.from_coeffs(alg, list(lam) + [0] * (alg.n - len(lam)), [0])
            e_plain = euler_character(p, levi_character(p, "one_dimensional", w))
            if len(lam) == alg.n - 1 and all(x > 0 for x in lam):
                wt = w + Weight.parse(alg, f"1d{alg.n}")
                e_tilde = euler_character(p, w.exponent_monomial() * natural_levi)
                if e_tilde != kac_character(alg, wt) + e_plain:
                    ok = False
                    details.append(f"spo({algtxt}) lambda={list(lam)}: shift recursion failed")
                n_rec += 1
            e_q = euler_character(q, levi_character(q, "one_dimensional", w))
            if e_q != 2 * e_plain:
                ok = False
                details.append(f"spo({algtxt}) lambda={list(lam)}: gl(1|1)-Levi doubling failed")
            n_dbl += 1
        details.append(f"spo({algtxt}): shift recursion ({n_rec} cases) and Levi doubling ({n_dbl} cases) hold")
    return CriterionResult(3, "Highest-weight shift recursion and the doubled-Euler remark", bool(ok), details)


# -- criterion 4: the two determinant forms agree ----------------------------------------


def criterion_4():
    details = []
    ok = True
    for algtxt in ("2|3", "4|3"):
        alg = Algebra.parse(algtxt)
        count = 0
        for lam in partitions_up_to(6):
            if not fits_hook(lam, alg.n, alg.m):
                continue
            if jt_character(lam, alg) != jt_character_e(lam, alg):
                ok = False
                details.append(f"spo({algtxt}) {list(lam)}: p-form != e-form")
            count += 1
        details.append(f"spo({algtxt}): p-form == e-form for all {count} hook partitions with |lambda| <= 6")
    return CriterionResult(4, "Symmetric-power and exterior-power determinants agree", bool(ok), details)


# -- criterion 5: formal identity suite ---------------------------------------------------


def criterion_5():
    details = []
    ok = True
    for n in (1, 2):
        rep = identity_suite(n, truncation=10)
        for name, good in rep.items():
            if not good:
                ok = False
            details.append(f"n={n}: {name}: {'ok' if good else 'FAILED'}")
    return CriterionResult(5, "Determinant and series identity suite", bool(ok), details)


# -- criterion 6: virtual dimensions ------------------------------------------------------


def criterion_6():
    details = []
    ok = True

    def check(cond, label):
        nonlocal ok
        ok &= bool(cond)
        details.append(("ok  " if cond else "FAIL") + " " + label)

    check(kac_character(SPO23, _w23(1, 0)).evaluate_at_one() == 4, "vdim K(1|0) = 4")
    check(kac_character(SPO23, _w23(0, 0)).evaluate_at_one() == -4, "vdim K(0|0) = -4")
    for ell in range(3, 7):
        v = kac_character(SPO23, _w23(ell, ell - 1)).evaluate_at_one()
        check(v == 4 * (2 * ell - 1) ** 2, f"vdim K({ell}|{ell - 1}) = 4(2l-1)^2 = {4 * (2 * ell - 1) ** 2}")
        d = jt_character((ell,) + (1,) * (ell - 1), SPO23).evaluate_at_one()
        check(d == v - (-1) ** ell, f"vdim D({ell}|{ell - 1}) = vdim K - (-1)^l = {v - (-1) ** ell}")
    check(jt_character((2, 1), SPO23).evaluate_at_one() == 35, "vdim D(2|1) = 35")
    check(jt_character((1,), SPO23) == irr_char_spo23(1, 0), "D(1|0) equals the irreducible character exactly")
    for k in range(1, 6):
        d = jt_character((1,) * k, SPO23).evaluate_at_one()
        l = irr_char_spo23(1, k - 1).evaluate_at_one()
        check(d == l, f"vdim D(1|{k - 1}) = dim L(1|{k - 1}) = {l}")
    return CriterionResult(6, "Virtual dimension table", bool(ok), details)


# -- criterion 7: the two spo(2|3) Euler families -------------------------------------------


def criterion_7():
    details = []
    ok = True
    # first family: Levi gl(1|1), covariant Levi modules
    expected_atypical = {
        (0, 0): {(0, 0): 2},
        (1, 0): {(1, 0): 1, (0, 0): -1},
        (2, 1): {(2, 1): 1, (1, 0): 1, (0, 0): 1},
    }
    for ell in range(2, 6):
        expected_atypical[(ell + 1, ell)] = {(ell + 1, ell): 1, (ell, ell - 1): 1}
    for (a, b), expected in sorted(expected_atypical.items()):
        lam = (a,) + (1,) * b if a else ()
        chi = euler_of_hook(SPO23, lam)
        dec = decompose(SPO23, chi, "irr")
        got = _factors_ab(dec)
        if not dec.is_clean() or got != expected:
            ok = False
            details.append(f"gl(1|1) Levi, E({a}|{b}) decomposed to {got}, expected {expected}")
        if (a, b) != (0, 0):
            if chi != kac_character(SPO23, _w23(a, b)):
                ok = False
                details.append(f"gl(1|1) Levi: E({a}|{b}) != K({a}|{b})")
    for (a, b) in [(2, 0), (3, 1), (1, 2)]:  # typical: E = K = [L]
        chi = euler_of_hook(SPO23, (a,) + (1,) * b)
        if chi != kac_character(SPO23, _w23(a, b)) or _factors_ab(decompose(SPO23, chi)) != {(a, b): 1}:
            ok = False
            details.append(f"gl(1|1) Levi: typical E({a}|{b}) != [L({a}|{b})]")
    details.append("gl(1|1)-Levi family reproduced (atypical rows up to l=5, typical samples)")

    # second family: Levi gl(1) + so(3)
    p2 = parabolic_removing(SPO23, "d1-e1")
    expected2 = dict(expected_atypical)
    expected2[(0, 0)] = {(0, 0): 1, (1, 0): -1}
    for (a, b), expected in sorted(expected2.items()):
        chm = levi_character(p2, "even_simple", _w23(a, b))
        dec = decompose(SPO23, euler_character(p2, chm), "irr")
        got = _factors_ab(dec)
        if not dec.is_clean() or got != expected:
            ok = False
            details.append(f"gl(1)+so(3) Levi, E({a}|{b}) decomposed to {got}, expected {expected}")
    details.append("gl(1)+so(3)-Levi family reproduced, including E(0|0) = [L(0|0)] - [L(1|0)]")
    return CriterionResult(7, "Euler-character decompositions for both spo(2|3) parabolics", bool(ok), details)


# -- criterion 8: tensor tables --------------------------------------------------------------
#
# Independent oracle: reflection bookkeeping of alternating sums.  The Kac
# translates of K(a|b) by the natural weights, normalized back into the
# dominant chamber with signs, convert to irreducible factors through the
# finite atypical factor table.


def _kac_translates(a, b):
    out = {}
    for ga, gb in ((1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)):
        pa = Fraction(2 * a - 1 + 2 * ga, 2)
        pb = Fraction(2 * b + 1 + 2 * gb, 2)
        if pa == 0 or pb == 0:
            continue
        sign = (1 if pa > 0 else -1) * (1 if pb > 0 else -1)
        key = (int(abs(pa) + Fraction(1, 2)), int(abs(pb) - Fraction(1, 2)))
        out[key] = out.get(key, 0) + sign
    return {k: v for k, v in out.items() if v}


def _kac_factor_table(a, b):
    if (a, b) == (0, 0):
        return {(0, 0): 1, (1, 0): -1}
    if (a, b) == (1, 0):
        return {(1, 0): 1, (0, 0): -1}
    if (a, b) == (2, 1):
        return {(2, 1): 1, (1, 0): 1, (0, 0): 1}
    if a == b + 1 and a >= 3:
        return {(a, b): 1, (a - 1, b - 1): 1}
    return {(a, b): 1}


def _irr_kac_coords(a, b):
    """[L(a|b)] as (Kac coefficients, multiple of the trivial character)."""
    if (a, b) == (0, 0):
        return {}, 1
    if (a, b) == (1, 0):
        return {(1, 0): 1}, 1
    if (a, b) == (2, 1):
        return {(2, 1): 1, (1, 0): -1}, -2
    if a == b + 1 and a >= 3:
        coords, const = _irr_kac_coords(a - 1, b - 1)
        out = {k: -v for k, v in coords.items()}
        out[(a, b)] = out.get((a, b), 0) + 1
        return out, -const
    return {(a, b): 1}, 0


def _oracle_tensor_factors(a, b):
    kcoords, const = _irr_kac_coords(a, b)
    result_k = {}
    for (ka, kb), c in kcoords.items():
        for key, s in _kac_translates(ka, kb).items():
            result_k[key] = result_k.get(key, 0) + c * s
    const_out = 0
    if const:
        result_k[(1, 0)] = result_k.get((1, 0), 0) + const  # trivial x natural = L(1|0)
        const_out += const
    factors = {}
    for key, c in result_k.items():
        if not c:
            continue
        for lw, mult in _kac_factor_table(*key).items():
            factors[lw] = factors.get(lw, 0) + c * mult
    if const_out:
        factors[(0, 0)] = factors.get((0, 0), 0) + const_out
    return {k: v for k, v in factors.items() if v}


def _printed_tensor_rows():
    """The five source-table families on their stated ranges (a, b <= 5).
    Rows that fail the virtual-dimension cross-check carry their corrected
    value; the boundary instance (l=0 of the fourth family) repeats a row
    that the second family prints correctly, so only the defect is noted."""
    rows = []  # (family, (a, b), printed, corrected_or_None)
    rows.append(("atypical", (1, 0), {(2, 0): 1, (1, 1): 1, (0, 0): 1}, None))
    for ell in range(2, 6):
        rows.append(("atypical", (ell, ell - 1),
                     {(ell + 1, ell - 1): 1, (ell, ell): 1, (ell, ell - 1): 1}, None))
    rows.append(("low-row", (2, 0), {(3, 0): 1, (2, 1): 1, (1, 0): 2}, None))
    for ell in range(3, 6):
        rows.append(("low-row", (ell, 0), {(ell + 1, 0): 1, (ell, 1): 1, (ell - 1, 0): 1}, None))
    rows.append(("low-row", (1, 1), {(2, 1): 1, (1, 2): 1, (1, 0): 2}, None))
    rows.append(("low-row", (3, 1),
                 {(4, 1): 1, (3, 1): 1, (3, 0): 1, (3, 2): 1, (2, 1): 2, (1, 0): 2},
                 {(4, 1): 1, (3, 1): 1, (3, 0): 1, (3, 2): 1, (2, 1): 2, (1, 0): 1, (0, 0): 1}))
    for ell in range(4, 6):
        rows.append(("low-row", (ell, 1),
                     {(ell, 1): 1, (ell + 1, 1): 1, (ell - 1, 1): 1, (ell, 2): 1, (ell, 0): 1}, None))
    for ell in range(2, 6):
        rows.append(("low-row", (1, ell), {(2, ell): 1, (1, ell + 1): 1, (1, ell - 1): 1}, None))
    rows.append(("diagonal", (2, 2),
                 {(3, 2): 1, (2, 1): 2, (2, 2): 1, (1, 2): 1, (2, 3): 1, (1, 0): 1, (0, 0): 1}, None))
    for ell in range(3, 6):
        rows.append(("diagonal", (ell, ell),
                     {(ell + 1, ell): 1, (ell, ell - 1): 2, (ell, ell): 1, (ell - 1, ell): 1,
                      (ell, ell + 1): 1, (ell - 1, ell - 2): 1}, None))
    rows.append(("superdiagonal", (3, 1),
                 {(4, 1): 1, (2, 1): 2, (3, 1): 1, (1, 0): 1, (3, 2): 1, (3, 0): 1},
                 {(4, 1): 1, (2, 1): 2, (3, 1): 1, (1, 0): 1, (3, 2): 1, (3, 0): 1, (0, 0): 1}))
    for ell in range(2, 4):
        rows.append(("superdiagonal", (ell + 2, ell),
                     {(ell + 3, ell): 1, (ell + 1, ell): 2, (ell + 2, ell): 1, (ell, ell - 1): 1,
                      (ell + 2, ell + 1): 1, (ell + 2, ell - 1): 1}, None))
    for a in range(2, 6):
        for b in range(2, 6):
            if a == b or a == b + 2 or a == b + 1:
                continue
            rows.append(("generic", (a, b),
                         {(a + 1, b): 1, (a, b): 1, (a - 1, b): 1, (a, b + 1): 1, (a, b - 1): 1}, None))
    return rows


def criterion_8():
    details = []
    ok = True
    computed = {}
    for a in range(6):
        for b in range(6):
            if not is_dominant(_w23(a, b)):
                continue
            dec = tensor_with_natural(a, b)
            if not dec.is_clean():
                ok = False
                details.append(f"L({a}|{b}) x natural left a remainder")
            got = _factors_ab(dec)
            computed[(a, b)] = got
            oracle = _oracle_tensor_factors(a, b)
            if got != oracle:
                ok = False
                details.append(f"L({a}|{b}) x natural: greedy {got} != reflection oracle {oracle}")
    details.append(f"{len(computed)} products decomposed with zero remainder; all match the reflection oracle")
    corrected = 0
    for family, (a, b), printed, correction in _printed_tensor_rows():
        got = computed[(a, b)]
        if correction is None:
            if got != printed:
                ok = False
                details.append(f"{family} row ({a}|{b}): computed {got} != printed {printed}")
        else:
            if got != correction:
                ok = False
                details.append(f"{family} row ({a}|{b}): computed {got} != corrected {correction}")
            else:
                corrected += 1
                details.append(
                    f"{family} row ({a}|{b}): printed multiplicities fail the dimension "
                    f"cross-check and were corrected to {correction}"
                )
    details.append(f"printed rows verified ({corrected} internally inconsistent rows asserted in corrected form)")
    return CriterionResult(8, "Tensor-with-natural tables for spo(2|3)", bool(ok), details)


# -- criterion 9: Laplacian kernels ------------------------------------------------------------


def criterion_9():
    details = []
    ok = True

    def check(cond, label):
        nonlocal ok
        ok &= bool(cond)
        details.append(("ok  " if cond else "FAIL") + " " + label)

    # sign calibration
    A25 = Algebra(1, 2, True)
    x1, x2, xb1, xb2, x0 = (SuperElement.from_name(A25, s) for s in ("x1", "x2", "xb1", "xb2", "x0"))
    xi1, xib1 = SuperElement.from_name(A25, "xi1"), SuperElement.from_name(A25, "xib1")
    quad = x1 * xb1 + x2 * xb2 + Fraction(1, 2) * (x0 * x0)
    v = x1 * (Fraction(2 * 3 + 2 * 2 - 3, 2) * (xi1 * xib1) - quad)
    check(laplacian(A25).apply(v).is_zero(), "Laplacian kernel calibration vector is harmonic (k=3, spo(2|5))")
    v_bad = x1 * (Fraction(2 * 3 + 2 * 1 - 3, 2) * (xi1 * xib1) - quad)
    check(not laplacian(A25).apply(v_bad).is_zero(),
          "the competing leading coefficient is rejected by the kernel test")

    # kernel dimensions
    A23 = SPO23
    check(len(kernel_basis(A23, 1)) == 5, "dim ker on degree 1 of spo(2|3) = 5")
    check(len(kernel_basis(A23, 2)) == 12, "dim ker on degree 2 of spo(2|3) = 12")
    check(len(kernel_basis(A25, 3)) == 63, "dim ker on degree 3 of spo(2|5) = 63")

    # unique singular vectors for spo(2|5)
    for k in range(2, 6):
        svs = singular_vectors(A25, k)
        expect = Weight.from_coeffs(A25, [1], [k - 1, 0])
        good = list(svs) == [expect] and len(svs[expect]) == 1
        check(good, f"spo(2|5) degree {k}: unique singular vector at d1+{k - 1}e1")

    # irreducibility verdicts
    for algtxt, k, expected in [
        ("6|3", 1, "irreducible"), ("6|3", 2, "irreducible"),
        ("8|3", 1, "irreducible"), ("8|3", 2, "irreducible"), ("8|3", 3, "irreducible"),
        ("4|4", 2, "reducible_with_trivial_submodule"),
        ("4|4", 3, "irreducible"), ("4|4", 4, "irreducible"),
    ]:
        rep = irreducibility_report(Algebra.parse(algtxt), k)
        check(rep.classification == expected, f"spo({algtxt}) degree {k}: {expected}")

    # tensor decompositions of the kernels with the natural module
    for m in (1, 2):
        alg = Algebra(1, m, True)
        p1 = sym_power_char(alg, 1)
        e = lambda r: ext_power_char(alg, r)
        for k in range(2, 5):
            top = Weight.from_coeffs(alg, [2], [k - 1] + [0] * (m - 1))
            mid = Weight.from_coeffs(alg, [1], [k] + [0] * (m - 1))
            low = Weight.from_coeffs(alg, [1], [k - 2] + [0] * (m - 1))
            counts = natural_tensor_singular_counts(alg, k)
            expected_weights = {top, mid, low}
            check(set(counts) == expected_weights and all(c == 1 for c in counts.values()),
                  f"spo(2|{2 * m + 1}) degree {k}: one singular vector at each of the three expected weights")
            lhs = (e(k) - e(k - 2)) * p1
            if is_typical(alg, top):
                rhs = kac_character(alg, top) + (e(k + 1) - e(k - 1)) + (e(k - 1) - e(k - 3))
                check(lhs == rhs, f"spo(2|{2 * m + 1}) degree {k}: exact Kac-form tensor identity (typical top weight)")
            elif alg == SPO23:
                (a,), (b,) = top.int_coeffs()
                rhs = irr_char_spo23(a, b) + (e(k + 1) - e(k - 1)) + 2 * (e(k - 1) - e(k - 3))
                check(lhs == rhs,
                      f"spo(2|3) degree {k}: atypical top weight; identity holds with the irreducible "
                      f"character and the dimension-forced doubled lowest factor")
            else:
                resid = lhs - (e(k + 1) - e(k - 1)) - (e(k - 1) - e(k - 3))
                blocks_split = (
                    not same_central_character(alg, BlockQuery(top, mid)).linked
                    and not same_central_character(alg, BlockQuery(top, low)).linked
                    and not same_central_character(alg, BlockQuery(mid, low)).linked
                )
                lead_exp, lead_coef = resid.leading_term()
                good = (
                    blocks_split
                    and all(c >= 0 for c in resid.terms.values())
                    and lead_exp == top.doubled and lead_coef == 1
                    and all(g.apply_poly(resid) == resid for g in weyl_group(alg)[:4])
                )
                check(good,
                      f"spo(2|{2 * m + 1}) degree {k}: atypical top weight (Kac form invalid); "
                      f"multiplicity-one decomposition certified by block splitting and singular counts")
    return CriterionResult(9, "Laplacian kernels, singular vectors, and tensor identities", bool(ok), details)


# -- criterion 10: property suites ----------------------------------------------------------------


def _random_poly(rng, n, m):
    terms = {}
    for _ in range(rng.randint(1, 8)):
        e = tuple(rng.randint(-6, 6) for _ in range(n + m))
        terms[e] = rng.randint(-9, 9)
    return LaurentPoly(n, m, terms)


def criterion_10():
    details = []
    ok = True
    rng = random.Random(20260808)

    def check(cond, label):
        nonlocal ok
        ok &= bool(cond)
        details.append(("ok  " if cond else "FAIL") + " " + label)

    # ring axioms and division round trips
    axioms = True
    for _ in range(40):
        p, q, r = (_random_poly(rng, 2, 1) for _ in range(3))
        axioms &= (p + q == q + p) and (p * q == q * p)
        axioms &= (p + q) + r == p + (q + r) and (p * q) * r == p * (q * r)
        axioms &= p * (q + r) == p * q + p * r
        if not q.is_zero():
            axioms &= exact_div(p * q, q) == p
        axioms &= (p * q).evaluate_at_one() == p.evaluate_at_one() * q.evaluate_at_one()
        axioms &= (p + q).evaluate_at_one() == p.evaluate_at_one() + q.evaluate_at_one()
    check(axioms, "ring axioms, exact-division round trip, evaluation homomorphism (40 random instances)")

    # W-invariance of emitted characters
    winv = True
    samples = [
        (SPO23, kac_character(SPO23, _w23(2, 1))),
        (SPO23, irr_char_spo23(3, 2)),
        (SPO23, jt_character((2, 1), SPO23)),
        (Algebra.parse("2|4"), euler_character(
            parabolic_removing(Algebra.parse("2|4"), "e1+e2"),
            levi_character(parabolic_removing(Algebra.parse("2|4"), "e1+e2"), "natural"))),
    ]
    for alg, chi in samples:
        group = weyl_group(alg)
        for g in rng.sample(group, min(10, len(group))):
            winv &= g.apply_poly(chi) == chi
    check(winv, "every emitted character is Weyl invariant (10 random group elements each)")

    # block consistency of decompositions
    blocks = True
    for (a, b) in [(2, 1), (3, 2), (1, 0), (4, 3)]:
        dec = decompose(SPO23, kac_character(SPO23, _w23(a, b)))
        blocks &= block_consistency(SPO23, dec)
    for lam in [(), (1,), (3, 1, 1)]:
        dec = decompose(SPO23, euler_of_hook(SPO23, lam))
        blocks &= block_consistency(SPO23, dec)
    check(blocks, "all factors of each Kac/Euler decomposition share one central character")

    # reconstruction identity, including a nonzero remainder case
    rec = True
    for (a, b) in [(2, 1), (5, 2)]:
        chi = kac_character(SPO23, _w23(a, b))
        dec = decompose(SPO23, chi)
        rec &= reconstruct(SPO23, dec) == chi
    lopsided = LaurentPoly.monomial(1, 1, (-2, 0))  # leading weight not dominant
    dec = decompose(SPO23, lopsided)
    rec &= (not dec.is_clean()) and reconstruct(SPO23, dec) == lopsided
    check(rec, "decompositions reconstruct their input exactly (zero and nonzero remainders)")

    # irreducible characters: non-negative, dimensions
    irr_ok = True
    for ell in range(2, 7):
        ch = irr_char_spo23(ell, ell - 1)
        irr_ok &= all(c >= 0 for c in ch.terms.values())
        irr_ok &= ch.evaluate_at_one() == 2 * (4 * ell * ell - 1)
    check(irr_ok, "atypical irreducible characters non-negative with dim 2(4l^2-1), l = 2..6")

    # sharp/dominance bijection over partitions of size <= 8
    bij = True
    for algtxt in ("2|3", "2|5", "4|4", "6|3"):
        alg = Algebra.parse(algtxt)
        seen = {}
        for lam in partitions_up_to(8):
            if not fits_hook(lam, alg.n, alg.m):
                continue
            w = sharp(lam, alg)
            bij &= is_dominant(w)
            bij &= w not in seen
            seen[w] = lam
            bij &= weight_to_partition(w) == lam
    check(bij, "sharp is injective into dominant weights and inverts, partitions of size <= 8")

    # Weyl group structure: sign homomorphism, root permutation, denominator identity
    grp = True
    for algtxt in ("2|3", "4|3"):
        alg = Algebra.parse(algtxt)
        group = weyl_group(alg)
        for g in group:
            for h in group:
                grp &= (g * h).sign == g.sign * h.sign
        pos = positive_roots(alg)
        allroots = {r.doubled for r in pos.even + pos.odd}
        allroots |= {tuple(-x for x in r) for r in allroots}
        for g in group:
            for r in pos.even + pos.odd:
                grp &= g.apply_doubled(r.doubled) in allroots
    for algtxt in ("2|3", "2|4", "4|3"):
        alg = Algebra.parse(algtxt)
        grp &= denominators(alg) == antisymmetrize(alg, rho0(alg))
    check(grp, "sign homomorphism, root permutation, and the even denominator identity")

    # typical Kac characters are honest characters
    typ = True
    for (a, b) in [(2, 0), (3, 1), (2, 2), (1, 3)]:
        ch = kac_character(SPO23, _w23(a, b))
        typ &= all(c >= 0 for c in ch.terms.values()) and ch.evaluate_at_one() >= 1
    check(typ, "typical Kac characters have non-negative coefficients and positive dimension")

    # superspace cross-checks against the exterior power characters
    sup = True
    for algtxt, kmax in [("2|3", 5), ("4|4", 4)]:
        alg = Algebra.parse(algtxt)
        for k in range(kmax + 1):
            sup &= char_of_degree(alg, k) == ext_power_char(alg, k)
    for algtxt, kk in [("2|3", 3), ("2|5", 2), ("4|4", 2)]:
        alg = Algebra.parse(algtxt)
        kern = kernel_basis(alg, kk)
        expected = ext_power_char(alg, kk) - ext_power_char(alg, kk - 2)
        sup &= len(kern) == expected.evaluate_at_one()
    check(sup, "realized degree characters equal the exterior powers; kernel dims match e_k - e_{k-2}")

    return CriterionResult(10, "Property suites", bool(ok), details)


# -- criterion 11: basis conjecture desk check ------------------------------------------------------


def criterion_11():
    details = []
    rep = conjecture_check(SPO23, bound=5)
    ok = rep.independent and rep.all_patterns_match()
    details.append(f"{rep.count} Euler characters, coordinate rank {rep.rank}: linearly independent = {rep.independent}")
    checked = [e for e in rep.entries if e["pattern_checked"]]
    details.append(f"factor patterns checked on {len(checked)} weights (typical plus atypical with l >= 2): "
                   f"{'all match' if rep.all_patterns_match() else 'MISMATCH'}")
    for e in rep.entries:
        if not e["pattern_checked"]:
            details.append(f"weight {e['weight']}: close to zero, reported without pattern requirement: {e['factors']}")
    return CriterionResult(11, "Euler-character basis desk check", bool(ok), details)


_CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11,
}


def run_all(only=None):
    if only is None:
        numbers = sorted(_CRITERIA)
    elif isinstance(only, str):
        numbers = [int(x) for x in only.split(",") if x.strip()]
    else:
        numbers = list(only)
    return [_CRITERIA[k]() for k in numbers]
