"""Exact densities of primes in arithmetic progressions with a
prescribed primitive root: a closed-form Euler-product calculator, an
independent truncated-series evaluator, a sieve-based empirical harness,
and classifiers for vanishing and equidistribution."""

# each module's __all__ lists its names; `scan` is rebound to the function
from .arith import *
from .arith import __all__ as _arith
from .classify import *
from .classify import __all__ as _classify
from .density import *
from .density import __all__ as _density
from .scan import *
from .scan import __all__ as _scan
from .series import *
from .series import __all__ as _series

__version__ = "0.1.0"

__all__ = sorted(_arith + _classify + _density + _scan + _series)
