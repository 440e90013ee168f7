"""Exact densities of primes in arithmetic progressions with a
prescribed primitive root: a closed-form Euler-product calculator, an
independent truncated-series evaluator, a sieve-based empirical harness,
and classifiers for vanishing and equidistribution."""

from .arith import (
    Factorization,
    SquarefreeDecomposition,
    euler_phi,
    factor,
    is_fundamental_discriminant,
    is_prime,
    is_squarefree,
    kronecker,
    mobius,
    squarefree_decompose,
)
from .classify import WudFamily, WudVerdict, ZeroCause, ZeroReason, wud_set, zero_density
from .density import (
    ARTIN_CONSTANT,
    ARTIN_CONSTANT_30_DIGITS,
    Base,
    DensityValue,
    InvalidBaseError,
    Progression,
    coeff_A,
    delta_closed,
    delta_closed_v2,
    gamma_factor,
    make_base,
    s_of_b,
    w,
)
from .scan import EmpiricalCount, ScanConfig, is_primitive_root, li, scan
from .series import SeriesEstimate, c_a, degree_nkr, series_truncated

__version__ = "0.1.0"

__all__ = [
    "ARTIN_CONSTANT",
    "ARTIN_CONSTANT_30_DIGITS",
    "Base",
    "DensityValue",
    "EmpiricalCount",
    "Factorization",
    "InvalidBaseError",
    "Progression",
    "ScanConfig",
    "SeriesEstimate",
    "SquarefreeDecomposition",
    "WudFamily",
    "WudVerdict",
    "ZeroCause",
    "ZeroReason",
    "c_a",
    "coeff_A",
    "degree_nkr",
    "delta_closed",
    "delta_closed_v2",
    "euler_phi",
    "factor",
    "gamma_factor",
    "is_fundamental_discriminant",
    "is_prime",
    "is_primitive_root",
    "is_squarefree",
    "kronecker",
    "li",
    "make_base",
    "mobius",
    "s_of_b",
    "scan",
    "series_truncated",
    "squarefree_decompose",
    "w",
    "wud_set",
    "zero_density",
]
