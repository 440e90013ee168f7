import sys

import rootdensity

_PUBLIC_NAMES = [
    "ARTIN_CONSTANT", "ARTIN_CONSTANT_30_DIGITS", "Base", "DensityValue",
    "EmpiricalCount", "Factorization", "InvalidBaseError", "Progression",
    "ScanConfig", "SeriesEstimate", "SquarefreeDecomposition", "WudFamily",
    "WudVerdict", "ZeroCause", "ZeroReason", "c_a", "coeff_A", "degree_nkr",
    "delta_closed", "delta_closed_v2", "euler_phi", "factor", "gamma_factor",
    "is_fundamental_discriminant", "is_prime", "is_primitive_root",
    "is_squarefree", "kronecker", "li", "make_base", "mobius", "s_of_b",
    "scan", "series_truncated", "squarefree_decompose", "w", "wud_set",
    "zero_density",
]


def test_public_names():
    assert rootdensity.__all__ == _PUBLIC_NAMES
    assert all(hasattr(rootdensity, name) for name in _PUBLIC_NAMES)


def test_scan_is_the_function_not_the_submodule():
    assert rootdensity.scan is sys.modules["rootdensity.scan"].scan
