"""Exact densities of primes in arithmetic progressions with a
prescribed primitive root: a closed-form Euler-product calculator, an
independent truncated-series evaluator, a sieve-based empirical harness,
and classifiers for vanishing and equidistribution.

`arith`, `classify` and `density` are exact integer code and load with
the package.  `scan` and `series` need numpy, so each loads on the first
use of one of its names (PEP 562)."""

import importlib
import sys
import types

# each module's __all__ lists its names
from .arith import *
from .arith import __all__ as _arith
from .classify import *
from .classify import __all__ as _classify
from .density import *
from .density import __all__ as _density

__version__ = "0.1.0"

# the names of `scan` and `series`, each mapped to its module
_LAZY = {
    **dict.fromkeys(["EmpiricalCount", "ScanConfig", "is_primitive_root", "li", "scan"], "scan"),
    **dict.fromkeys(["SeriesEstimate", "c_a", "degree_nkr", "series_truncated"], "series"),
}

__all__ = sorted(_arith + _classify + _density + list(_LAZY))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())


class _Package(types.ModuleType):
    """The import system binds a loaded submodule as the package attribute
    of its name, whatever imported it; `scan` stays the function."""

    def __setattr__(self, name: str, value) -> None:
        if name == "scan" and isinstance(value, types.ModuleType):
            value = value.scan
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
