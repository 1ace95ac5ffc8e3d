from .core import (
    LATEX_SYMBOLS,
    LatticeMismatch,
    LaurentPoly,
    NotDivisible,
    exact_div,
    format_exponent,
    grlex_key,
    times_binomials,
)

__all__ = [
    "LATEX_SYMBOLS",
    "LatticeMismatch",
    "LaurentPoly",
    "NotDivisible",
    "exact_div",
    "format_exponent",
    "grlex_key",
    "times_binomials",
]
