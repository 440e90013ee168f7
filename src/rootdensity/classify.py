"""Structural classifiers for the density landscape.

Two decision procedures: when does the density of a single class vanish
outright, and for which moduli f do all coprime classes receive the same
density (weak uniform distribution of the primes with primitive root g).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .arith import kronecker
from .density import _CONTEXT_CACHE_SIZE, Progression, make_base

__all__ = ["WudFamily", "WudVerdict", "ZeroCause", "ZeroReason", "wud_set", "zero_density"]


class ZeroCause(Enum):
    ELEMENTARY_GCD = "elementary-gcd"
    DISCRIMINANT_SPLITS = "discriminant-splits"
    CUBIC_OBSTRUCTION = "cubic-obstruction"


@dataclass(frozen=True)
class ZeroReason:
    triggered: bool
    cases: frozenset[ZeroCause]


# The reason for each 3-bit cause mask: bit i stands for the i-th ZeroCause.
_ZERO_REASONS = tuple(
    ZeroReason(
        triggered=mask != 0,
        cases=frozenset(cause for i, cause in enumerate(ZeroCause) if mask >> i & 1),
    )
    for mask in range(8)
)


@lru_cache(maxsize=_CONTEXT_CACHE_SIZE)
def _zero_context(f: int, g: int) -> tuple[int, int, bool, bool]:
    # h, delta, whether |delta| divides f, and the cubic precondition
    # (delta divides 3f, 3 | delta and 3 | h)
    base = make_base(g)
    abs_delta = abs(base.delta)
    cubic = (3 * f) % abs_delta == 0 and base.delta % 3 == 0 and base.h % 3 == 0
    return base.h, base.delta, f % abs_delta == 0, cubic


def zero_density(prog: Progression, g: int) -> ZeroReason:
    """Every structural reason the class density vanishes (possibly none).

    The density is zero iff at least one holds: gcd(a-1, f, h) > 1; the
    discriminant divides f and (delta | a) = 1; or delta divides 3f with
    3 | delta, 3 | h and (-delta/3 | a) = -1.
    """
    h, delta, splits, cubic = _zero_context(prog.f, g)
    a = prog.a
    mask = 0
    if math.gcd(a - 1, prog.f, h) > 1:
        mask = 1
    if splits and kronecker(delta, a) == 1:
        mask |= 2
    if cubic and kronecker(-delta // 3, a) == -1:
        mask |= 4
    return _ZERO_REASONS[mask]


class WudFamily(Enum):
    POWERS_OF_TWO = "powers-of-two"
    ONE_TWO_FOUR = "one-two-four"
    ONE_TWO = "one-two"
    EXCEPTIONAL_2M3N = "two-three-smooth"


@dataclass(frozen=True)
class WudVerdict:
    f: int
    is_wud: bool
    family: WudFamily


def _is_power_of_two(f: int) -> bool:
    return f & (f - 1) == 0


def _is_two_three_smooth(f: int) -> bool:
    for p in (2, 3):
        while f % p == 0:
            f //= p
    return f == 1


def wud_set(g: int, f: int) -> WudVerdict:
    """Whether the primes with primitive root g split evenly across the
    coprime classes mod f.

    The family of good moduli depends only on g1 mod 4, except for the
    exceptional bases with g1 = 21 and gcd(h, 21) = 7, where it is the
    full set of 2- and 3-smooth moduli.
    """
    if f < 1:
        raise ValueError(f"modulus must be positive, got {f}")
    base = make_base(g)
    if base.g1 == 21 and math.gcd(base.h, 21) == 7:
        return WudVerdict(f, _is_two_three_smooth(f), WudFamily.EXCEPTIONAL_2M3N)
    if base.g1 % 4 == 1:
        return WudVerdict(f, _is_power_of_two(f), WudFamily.POWERS_OF_TWO)
    if base.g1 % 4 == 2:
        return WudVerdict(f, f in (1, 2, 4), WudFamily.ONE_TWO_FOUR)
    return WudVerdict(f, f in (1, 2), WudFamily.ONE_TWO)
