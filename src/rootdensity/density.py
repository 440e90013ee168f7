"""Closed-form densities of primes with a prescribed primitive root.

For a base g (neither -1 nor a perfect square) and a residue class
a mod f with gcd(a, f) = 1, the set of primes p congruent to a mod f
such that g generates (Z/pZ)* has a natural density under GRH.  That
density is an explicit rational multiple of the Artin constant

    A = prod_p (1 - 1/(p(p-1))) = 0.3739558136...

This module computes the rational coefficient exactly, by two routes:
`delta_closed` keyed off the discriminant of the quadratic field
generated by sqrt(g), and `delta_closed_v2` keyed off the squarefree
kernel of g.  Both take the Euler factor from the one helper behind
`coeff_A`.  Route 1 takes its correction from `gamma_factor` and `w`, as
`s_of_b` does; route 2 codes its own (g1 mod 4, beta, gamma1), so their
equality checks `w` and the degree lemma in it.  Every identity relating
the exposed quantities can be tested as exact rational equality.
The arithmetic of each closed form is exact in integers and normalised
once into a `Fraction`.

The density of a mod f depends on a only through gcd(a-1, f) and one
Kronecker symbol, so a modulus has at most 2 * tau(f) distinct
coefficients.  Each closed form keeps its own private context per
(f, g) holding everything that does not depend on a: h, the symbol's
top, the correction weight and its denominator.  The value is one
`lru_cache`d function of every input of its formula, (f, h,
m = gcd(a-1, f), denom, correction), shared by both routes and every
base, and the symbol is read through one cache keyed by (top, a),
shared with `classify.zero_density`; a class then costs a gcd and at
most two cache lookups.  Each route still derives its own key, so a
wrong ingredient gives a wrong value.  Contexts are bounded at 64 per
function and the two shared caches at 256 entries each (see
`_VALUE_CACHE_SIZE`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_DOWN, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

from .arith import (
    _CACHE_SIZE,
    _FACTOR_CAP,
    euler_phi,
    factor,
    is_fundamental_discriminant,
    kronecker,
    mobius,
    squarefree_decompose,
)

__all__ = [
    "ARTIN_CONSTANT",
    "ARTIN_CONSTANT_30_DIGITS",
    "Base",
    "DensityValue",
    "InvalidBaseError",
    "Progression",
    "coeff_A",
    "delta_closed",
    "delta_closed_v2",
    "gamma_factor",
    "make_base",
    "s_of_b",
    "w",
]

# prod_p (1 - 1/(p(p-1))) truncated to 70 decimal places; all numeric
# renderings of densities are exact-rational coefficients times this value.
# Its relative error is below 3e-70, 40 orders of magnitude under the last
# of the 30 significant digits `DensityValue.numeric` can print.
_ARTIN_70_PLACES = (
    "0.3739558136192022880547280543464164151116292486061500420947428024173501"
)
ARTIN_CONSTANT_30_DIGITS = _ARTIN_70_PLACES[:32]
ARTIN_CONSTANT = Fraction(int(_ARTIN_70_PLACES[2:]), 10**70)

F_CAP = 10**6  # the most classes `residues` lists: a scan keeps a count for each
X_CAP = 10**8  # bounds the scan's x and the series' N: p**2 < 2**63 in the scan, int32 tables


class InvalidBaseError(ValueError):
    """The base is 0, -1 or a perfect square: such a base is a primitive
    root for at most finitely many primes, and no density is computed."""


@dataclass(frozen=True)
class Base:
    """A validated base together with its derived arithmetic data.

    h is the largest exponent such that g is an exact h-th power (odd for
    every admissible g), g1*g2**2 = g with g1 squarefree, and delta is the
    discriminant of the quadratic field generated by sqrt(g): g1 itself
    when g1 = 1 (mod 4), else 4*g1.
    """

    g: int
    h: int
    g1: int
    g2: int
    delta: int


@lru_cache(maxsize=_CACHE_SIZE)
def make_base(g: int) -> Base:
    if abs(g) > _FACTOR_CAP:
        raise InvalidBaseError(f"base {g} rejected: |g| > 2**63 is too large to factor")
    if g in (-1, 0, 1) or (g > 1 and math.isqrt(g) ** 2 == g):
        raise InvalidBaseError(
            f"base {g} rejected: 0, -1 and perfect squares generate the full "
            "multiplicative group for at most finitely many primes"
        )
    dec = squarefree_decompose(g)
    h = math.gcd(*(e for _, e in factor(abs(g)).factors))
    if g < 0:
        while h % 2 == 0:
            h //= 2
    # a positive non-square has odd exponent gcd already
    assert h % 2 == 1
    delta = dec.g1 if dec.g1 % 4 == 1 else 4 * dec.g1
    return Base(g=g, h=h, g1=dec.g1, g2=dec.g2, delta=delta)


@dataclass(frozen=True)
class Progression:
    """Residue class a mod f with 1 <= a <= f <= 2**63 and gcd(a, f) = 1:
    the closed forms factor f."""

    a: int
    f: int

    def __post_init__(self) -> None:
        if self.f > _FACTOR_CAP:
            raise ValueError(f"modulus {self.f} rejected: f > 2**63 is too large to factor")
        if self.f < 1 or not 1 <= self.a <= self.f:
            raise ValueError(f"need 1 <= a <= f, got a={self.a}, f={self.f}")
        if math.gcd(self.a, self.f) != 1:
            raise ValueError(f"progression {self.a} mod {self.f} is not coprime")


def residues(f: int) -> list[int]:
    """Every a with 1 <= a <= f and gcd(a, f) = 1, for 1 <= f <= F_CAP."""
    if not 1 <= f <= F_CAP:
        raise ValueError(f"need 1 <= f <= {F_CAP} to list every class, got f={f}")
    return [a for a in range(1, f + 1) if math.gcd(a, f) == 1]


@dataclass(frozen=True)
class DensityValue:
    """A density held exactly as coefficient * ArtinConstant."""

    coefficient: Fraction

    def numeric(self, digits: int = 12) -> Decimal:
        """Decimal rendering truncated to `digits` significant digits.

        At most 30 digits are supported.  The Artin constant is carried to
        70 places, so a digit printed can be wrong only if the density lies
        within a relative 3e-70 of a 30-digit boundary.
        """
        if not 1 <= digits <= 30:
            raise ValueError("supported precision is 1..30 significant digits")
        exact = self.coefficient * ARTIN_CONSTANT
        with localcontext() as ctx:
            ctx.prec = digits
            ctx.rounding = ROUND_DOWN
            return Decimal(exact.numerator) / Decimal(exact.denominator)

    def __float__(self) -> float:
        return float(self.coefficient * ARTIN_CONSTANT)


def gamma_factor(f: int, base: Base) -> tuple[int, int]:
    """The pair (b, gamma) steering the quadratic correction term.

    b = delta / gcd(f, delta).  For even b the correction vanishes and
    gamma is 1; for odd b, gamma = +-gcd(f, delta) is itself a fundamental
    discriminant dividing f, and enters through the symbol (gamma | a).
    """
    if f < 1:
        raise ValueError(f"modulus must be positive, got {f}")
    d = math.gcd(f, abs(base.delta))
    b = base.delta // d
    if b % 2 == 0:
        return b, 1
    gamma = d if ((b - 1) // 2) % 2 == 0 else -d
    assert is_fundamental_discriminant(gamma) and f % abs(gamma) == 0
    return b, gamma


def _degree(n, gcd_nh, phi_r, splits):
    """The degree lemma, elementwise over ints or integer arrays: for
    squarefree n | r, (n / gcd(n, h)) * phi(r), halved (exactly for any
    phi_r, as h is odd) when n is even and the discriminant divides r
    (splits): the square root of g1 then lies in the r-th cyclotomic field."""
    halve = ((n & 1) == 0) & splits
    return n // gcd_nh * phi_r >> halve


def w(k: int, f: int, h: int) -> int:
    """Multiplicative weight k * phi(lcm(k, f)) / (gcd(k, h) * phi(f)): the
    lemma in `_degree`, unhalved, at phi(lcm(k, f)) / phi(f) =
    phi(k) / phi(gcd(k, f)), so nothing larger than k or f is factored.

    On primes: p(p-1) away from f and h, p on f only, p-1 on h only, 1 on
    both, and w(2) = 2 whenever h is odd.
    """
    if k < 1 or f < 1 or h < 1 or h % 2 == 0:
        raise ValueError(f"need k, f >= 1 and odd h; got k={k}, f={f}, h={h}")
    return _degree(k, math.gcd(k, h), euler_phi(k) // euler_phi(math.gcd(k, f)), False)


@lru_cache(maxsize=_CACHE_SIZE)
def _coeff_A_fixed(f: int, h: int) -> tuple[int, int]:
    # the class-independent part of the coefficient of A in the Euler
    # factor, as a (numerator, denominator) pair in lowest terms
    num = den = 1
    for p in factor(h).primes():
        if f % p:
            num *= p - 2
            den *= p - 1
    for p in set(factor(f).primes()) | set(factor(h).primes()):
        num *= p * (p - 1)
        den *= p * (p - 1) - 1
    common = math.gcd(num, den)
    return num // common, den // common


def _coeff_A_at(m: int, f: int, h: int) -> tuple[int, int]:
    # the coefficient of A at m = gcd(a-1, f) as an unreduced pair
    # (num, den) with den > 0; (0, 1) when gcd(m, h) > 1
    if math.gcd(m, h) > 1:
        return 0, 1
    num, den = _coeff_A_fixed(f, h)
    for p, _ in factor(m).factors:
        num *= p - 1
        den *= p
    return num, den


def coeff_A(prog: Progression, h: int) -> Fraction:
    """Coefficient c such that the Euler factor A(a, f, h) equals c * A.

    Zero when gcd(a-1, f, h) > 1.  Otherwise the product of (1 - 1/p)
    over p | gcd(a-1, f) and (1 - 1/(p-1)) over p | h away from f,
    renormalized against the full Artin product by exact division over
    the finitely many primes dividing f*h.
    """
    return Fraction(*_coeff_A_at(math.gcd(prog.a - 1, prog.f), prog.f, h))


def _correction_denom(b: int, f: int, h: int) -> int:
    """prod_{p|b} (w(p, f, h) - 1), the quadratic correction's denominator."""
    denom = 1
    for p in factor(abs(b)).primes():
        denom *= w(p, f, h) - 1
    return denom


def s_of_b(prog: Progression, base: Base) -> Fraction:
    """Coefficient of the Artin constant in the correction sum S(b).

    S(b) = -mu(2|b|) A(a,f,h) / prod_{p|b} (w(p) - 1); it vanishes for
    even b, and the even-index restriction of the same sum is exactly
    -S(b).
    """
    b, _ = gamma_factor(prog.f, base)
    if b % 2 == 0:
        return Fraction(0)
    denom = _correction_denom(b, prog.f, base.h)
    return Fraction(-mobius(2 * abs(b)), denom) * coeff_A(prog, base.h)


# Bound of each per-(f, g) context cache below.  Every caller walks the
# classes of one (f, g) in a row (the CLI's density, verify, scan and
# classify, and a grid of classes), so a few dozen contexts serve them all.
# A context holds a handful of ints; the values live in `_value`.
_CONTEXT_CACHE_SIZE = 64

# Bounds of the two caches shared by both routes and every base.  A
# modulus f <= 60 has at most 2 * tau(f) <= 24 values per (f, g), and a
# grid walks f in the same order for every base, so 256 entries hold the
# values and symbols of the last few moduli.  On the benchmark's exact-grid
# workload (seed 41: every class of f <= 60 for each of 53 bases) 256
# entries each cut the values built per pass from 21 440 (one per context
# and key) to 6 829, and the symbols evaluated from 48 768 to 3 044;
# 4096 each raised the loop's max RSS by 1.7 MB.
_VALUE_CACHE_SIZE = 256
_SYMBOL_CACHE_SIZE = 256


# _symbol(top, a) is kronecker(top, a): both closed forms and
# `zero_density` read a class's symbol through it
_symbol = lru_cache(maxsize=_SYMBOL_CACHE_SIZE)(kronecker)


@lru_cache(maxsize=_VALUE_CACHE_SIZE)
def _value(f: int, h: int, m: int, denom: int, correction: int) -> DensityValue:
    """The density at gcd(a-1, f) = m: the coefficient of A at m over
    phi(f), times the factor (denom + correction) / denom.  A function of
    its key alone, so both routes and every base share it."""
    num, den = _coeff_A_at(m, f, h)
    num *= denom + correction
    # every factor of den is positive, so this is the sign of the density
    assert num >= 0
    return DensityValue(Fraction(num, den * euler_phi(f) * denom))


@dataclass(frozen=True)
class _Context:
    """The class-independent part of one closed form at one (f, g).

    The density of a mod f depends on a only through m = gcd(a-1, f) and
    one Kronecker symbol chi = (top | a), which is read only when the
    correction weight mu is nonzero.  The density at (m, chi) is
    `_value(f, h, m, denom, +-chi * mu)`.  Route 1 takes top, mu and denom
    from `gamma_factor` and `_correction_denom`; route 2 codes its own, so
    a wrong one changes the key and with it the value.
    """

    h: int
    top: int
    mu: int
    denom: int


@lru_cache(maxsize=_CONTEXT_CACHE_SIZE)
def _closed_context(f: int, g: int) -> _Context:
    base = make_base(g)
    b, gamma = gamma_factor(f, base)
    mu2b = mobius(2 * abs(b))
    denom = _correction_denom(b, f, base.h) if mu2b else 1
    return _Context(base.h, gamma, mu2b, denom)


def delta_closed(prog: Progression, g: int) -> DensityValue:
    """Exact density of the class, via the discriminant route."""
    f, a = prog.f, prog.a
    ctx = _closed_context(f, g)
    chi = _symbol(ctx.top, a) if ctx.mu else 0
    return _value(f, ctx.h, math.gcd(a - 1, f), ctx.denom, chi * ctx.mu)


@lru_cache(maxsize=_CONTEXT_CACHE_SIZE)
def _closed_v2_context(f: int, g: int) -> _Context:
    base = make_base(g)
    g1 = base.g1
    active = (
        g1 % 4 == 1
        or (g1 % 4 == 2 and f % 8 == 0)
        or (g1 % 4 == 3 and f % 4 == 0)
    )
    gamma1 = mu_beta = 0
    denom = 1
    if active:
        d = math.gcd(abs(g1), f)
        beta = g1 // d
        assert beta % 2 != 0
        gamma1 = d if ((beta - 1) // 2) % 2 == 0 else -d
        mu_beta = mobius(abs(beta))
        for p in factor(abs(beta)).primes():
            denom *= (p - 2) if base.h % p == 0 else (p * p - p - 1)
    return _Context(base.h, gamma1, mu_beta, denom)


def delta_closed_v2(prog: Progression, g: int) -> DensityValue:
    """Exact density of the class, via the squarefree-kernel route.

    The correction is active exactly when g1 = 1 (mod 4), or g1 = 2
    (mod 4) with 8 | f, or g1 = 3 (mod 4) with 4 | f; the condition is
    recomputed from those congruences rather than from the parity of b,
    so equality with `delta_closed` is a meaningful cross-check.
    """
    f, a = prog.f, prog.a
    ctx = _closed_v2_context(f, g)
    chi = _symbol(ctx.top, a) if ctx.mu else 0
    return _value(f, ctx.h, math.gcd(a - 1, f), ctx.denom, -chi * ctx.mu)
