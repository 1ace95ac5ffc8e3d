from .core import (
    FactoredRational,
    LatticeMismatch,
    LaurentPoly,
    NotDivisible,
    canonicalize_factor,
    divide_by_binomials,
    exact_div,
    grlex_key,
    multiply_by_binomials,
    rational_sum,
    rational_weyl_sum,
    weyl_quotient,
)

__all__ = [
    "FactoredRational",
    "LatticeMismatch",
    "LaurentPoly",
    "NotDivisible",
    "canonicalize_factor",
    "divide_by_binomials",
    "exact_div",
    "grlex_key",
    "multiply_by_binomials",
    "rational_sum",
    "rational_weyl_sum",
    "weyl_quotient",
]
