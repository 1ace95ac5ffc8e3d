from .core import (
    LATEX_SYMBOLS,
    LatticeMismatch,
    LaurentPoly,
    NotDivisible,
    Packing,
    exact_div,
    format_exponent,
    grlex_key,
    sign_images,
    times_isotropic,
)

__all__ = [
    "LATEX_SYMBOLS",
    "LatticeMismatch",
    "LaurentPoly",
    "NotDivisible",
    "Packing",
    "exact_div",
    "format_exponent",
    "grlex_key",
    "sign_images",
    "times_isotropic",
]
