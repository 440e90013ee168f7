"""Sieve-built prime lists and multiplicative-function tables.

The scanning harness sieves [2, x] in cache-sized segments; the series
evaluator wants Moebius and totient values for every index up to its
truncation point.  Tables are cached per limit and must be treated as
read-only by callers.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def prime_sieve(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def segment_primes(lo: int, hi: int, base_primes: list[int]) -> list[int]:
    """Primes in [lo, hi); base_primes must cover sqrt(hi - 1)."""
    lo = max(lo, 2)
    if hi <= lo:
        return []
    flags = np.ones(hi - lo, dtype=bool)
    for p in base_primes:
        if p * p >= hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        flags[start - lo :: p] = False
    return (np.flatnonzero(flags) + lo).tolist()


@lru_cache(maxsize=8)
def mobius_table(limit: int) -> np.ndarray:
    """mu(n) for 0 <= n <= limit (index 0 is meaningless)."""
    mu = np.ones(limit + 1, dtype=np.int8)
    for p in prime_sieve(limit):
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


@lru_cache(maxsize=8)
def phi_table(limit: int) -> np.ndarray:
    """phi(n) for 0 <= n <= limit (index 0 is meaningless)."""
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in prime_sieve(limit):
        phi[p::p] -= phi[p::p] // p
    return phi
