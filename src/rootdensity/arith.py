"""Exact integer and rational arithmetic primitives.

Factorization with a deterministic primality test, the classical
multiplicative functions, squarefree decomposition, and the Kronecker
symbol.  Everything here is pure and exact: the densities built on top
are rational multiples of the Artin constant, so no float ever enters
these code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

__all__ = [
    "Factorization",
    "SquarefreeDecomposition",
    "euler_phi",
    "factor",
    "is_fundamental_discriminant",
    "is_prime",
    "is_squarefree",
    "kronecker",
    "mobius",
    "squarefree_decompose",
]

_FACTOR_CAP = 2**63
_CACHE_SIZE = 1 << 16  # entries kept by each scalar-function cache

# Deterministic Miller-Rabin witness set: the primes up to 41 decide every
# n below psi_13, the least strong pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981  # psi_13, about 3.3e24


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3.3e24 (Miller-Rabin witnesses);
    larger n raise ValueError, as the witnesses no longer decide them."""
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime is deterministic only below {_MR_LIMIT}, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # no prime factor up to 41 and none above: n is prime
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """A positive integer as an ordered product of prime powers."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev or e < 1 or not is_prime(p):
                raise ValueError(f"invalid factor list for {self.value}")
            prev = p
            prod *= p**e
        if prod != self.value:
            raise ValueError(f"factors do not multiply back to {self.value}")

    def primes(self) -> tuple[int, ...]:
        """The distinct primes, ascending."""
        return self._primes

    # built on the first call only: `factor` hands out cached objects
    @cached_property
    def _primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def _proven(value: int, factors: tuple[tuple[int, int], ...]) -> Factorization:
    """A Factorization whose prime powers `factor` has already proven,
    built without `__post_init__`'s second primality test of each."""
    fac = object.__new__(Factorization)
    object.__setattr__(fac, "value", value)
    object.__setattr__(fac, "factors", factors)
    return fac


def _rho_split(n: int) -> int:
    """Nontrivial factor of a composite n with no prime factor up to 41.

    Brent's cycle-finding variant; the polynomial increment is bumped on the
    rare cycle that collapses to n itself.
    """
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if g != n:
            return g
    raise ArithmeticError(f"cycle search failed to split {n}")


def _large_prime_powers(m: int) -> dict[int, int]:
    # m has no prime factor up to 41; split until prime.
    out: dict[int, int] = {}
    stack = [m]
    while stack:
        v = stack.pop()
        if is_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        d = _rho_split(v)
        stack += [d, v // d]
    return out


@lru_cache(maxsize=_CACHE_SIZE)
def factor(n: int) -> Factorization:
    """Factor 1 <= n <= 2**63: divide out the primes up to 41, then split
    what is left until `is_prime` accepts each part (Brent's rho)."""
    if n < 1 or n > _FACTOR_CAP:
        raise ValueError(f"factor() expects 1 <= n <= 2**63, got {n}")
    m = n
    powers: dict[int, int] = {}
    for p in _MR_BASES:
        while m % p == 0:
            powers[p] = powers.get(p, 0) + 1
            m //= p
    if m > 1:
        powers.update(_large_prime_powers(m))
    return _proven(n, tuple(sorted(powers.items())))


@lru_cache(maxsize=_CACHE_SIZE)
def mobius(n: int) -> int:
    """0 on a squared factor, otherwise (-1)^(number of prime factors)."""
    fac = factor(n)
    if any(e > 1 for _, e in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


@lru_cache(maxsize=_CACHE_SIZE)
def euler_phi(n: int) -> int:
    """Count of residues 1 <= k <= n coprime to n."""
    result = n
    for p in factor(n).primes():
        result -= result // p
    return result


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return mobius(abs(n)) != 0


@dataclass(frozen=True)
class SquarefreeDecomposition:
    """g = g1 * g2**2 with g1 squarefree carrying the sign of g."""

    g1: int
    g2: int


def squarefree_decompose(g: int) -> SquarefreeDecomposition:
    if g == 0:
        raise ValueError("0 has no squarefree decomposition")
    g1, g2 = 1, 1
    for p, e in factor(abs(g)).factors:
        if e % 2:
            g1 *= p
        g2 *= p ** (e // 2)
    return SquarefreeDecomposition(g1=g1 if g > 0 else -g1, g2=g2)


def is_fundamental_discriminant(d: int) -> bool:
    """True when d is the discriminant of a quadratic field (1 counts as
    the trivial discriminant)."""
    if d == 0:
        return False
    if d % 4 == 1:
        return is_squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False


def kronecker(a: int, b: int) -> int:
    """Kronecker symbol (a|b): the Jacobi symbol extended to every nonzero b.

    (a|-1) is the sign of a, (a|2) matches (2|a) for odd a and is 0 for
    even a, and the symbol is completely multiplicative in b.  By the
    standard convention (a|b) = 0 whenever gcd(a, b) > 1, and (0|b) is 1
    exactly for b = +-1.
    """
    if b == 0:
        raise ValueError("Kronecker symbol needs a nonzero bottom argument")
    result = 1
    if b < 0:
        b = -b
        if a < 0:
            result = -result
    if b % 2 == 0:
        if a % 2 == 0:
            return 0
        twos = (b & -b).bit_length() - 1
        b >>= twos
        if twos % 2 and a % 8 in (3, 5):
            result = -result
    # Jacobi reduction; b is odd and positive from here on.
    a %= b
    while a:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                result = -result
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            result = -result
        a %= b
    return result if b == 1 else 0
