"""Prime-scanning harness.

Sieves the primes up to x in cache-sized segments and counts, per
coprime residue class a mod f, how many have g as a primitive root,
alongside the weighted character sum 2 * sum phi(p-1)/(p-1) over primes
with (g|p) = -1 and gcd(p-1, h) = 1 that heuristically tracks the same
counts.  Segments are independent, merged in position order and summed
exactly, so the result is identical for any worker count and segment size.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .arith import factor, is_prime, kronecker
from .density import make_base
from .sieves import prime_sieve, segment_primes

__all__ = [
    "EmpiricalCount",
    "ScanConfig",
    "is_primitive_root",
    "li",
    "scan",
]

X_CAP = 10**8  # desk scale; the sieve and per-prime work are sized for this

# The heuristic sum is kept in integer units of 2**-_HEUR_BITS and rounded
# once, so no split of the primes into segments can change it; flooring
# X_CAP terms loses under 2**-69.
_HEUR_BITS = 96

_EULER_GAMMA = 0.5772156649015329
_LI_2 = 1.0451637801174928  # li(2), the offset of the integral taken from 2


@dataclass(frozen=True)
class ScanConfig:
    """Scan tuning: segment length (~256 KiB of sieve flags) and workers."""

    segment_size: int = 1 << 18
    workers: int = 1


@dataclass(frozen=True)
class EmpiricalCount:
    """Observed counts for one residue class at bound x."""

    x: int
    primes_total: int
    primes_in_class: int
    hits: int
    heuristic_sum: float
    li_x: float


def li(x: float) -> float:
    """Logarithmic integral from 2 to x: Ramanujan's series for li(x),
    gamma + log log x + sqrt(x) sum_n (-1)^(n-1) (log x)^n / (n! 2^(n-1))
    sum_{k <= (n-1)/2} 1/(2k+1), minus li(2).  In double precision the
    relative error is below 1e-14 for 3 <= x <= 1e8; nearer to 2, where
    subtracting li(2) cancels, the absolute error is below 1e-16.
    """
    if x < 2:
        raise ValueError(f"li is taken from 2, need x >= 2, got {x}")
    if x == 2:
        return 0.0
    log_x = math.log(x)
    n, coeff, odd_sum, series = 1, log_x, 1.0, log_x
    # the terms peak near n = (log x)/2, so stop only past log x
    while n < log_x or abs(coeff * odd_sum) > 1e-17 * series:
        n += 1
        coeff *= -log_x / (2 * n)
        odd_sum += (n % 2) / n
        series += coeff * odd_sum
    return _EULER_GAMMA + math.log(log_x) + math.sqrt(x) * series - _LI_2


def is_primitive_root(g: int, p: int) -> bool:
    """Whether g generates the multiplicative group of the odd prime p.

    Decided by g^((p-1)/q) != 1 (mod p) for every prime q dividing p-1.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if g % p == 0:
        raise ValueError(f"{g} = 0 (mod {p}) has no multiplicative order")
    pm1 = p - 1
    return all(pow(g, pm1 // q, p) != 1 for q in factor(pm1).primes())


def _distinct_prime_factors(m: int, base_primes: list[int]) -> list[int]:
    # base_primes reach sqrt(m), so the final cofactor is prime
    out = []
    for q in base_primes:
        if q * q > m:
            break
        if m % q == 0:
            out.append(q)
            m //= q
            while m % q == 0:
                m //= q
    if m > 1:
        out.append(m)
    return out


def _scan_segment(args: tuple) -> tuple:
    g, f, lo, hi, base_primes, h = args
    total = 0
    in_class: dict[int, int] = {}
    hits: dict[int, int] = {}
    heur: dict[int, int] = {}
    for p in segment_primes(lo, hi, base_primes):
        total += 1
        cls = p % f or f
        if math.gcd(cls, f) != 1:
            continue
        in_class[cls] = in_class.get(cls, 0) + 1
        if p == 2 or g % p == 0:
            continue
        pm1 = p - 1
        qs = _distinct_prime_factors(pm1, base_primes)
        gp = g % p
        if all(pow(gp, pm1 // q, p) != 1 for q in qs):
            hits[cls] = hits.get(cls, 0) + 1
        if math.gcd(pm1, h) == 1 and kronecker(g, p) == -1:
            phi = pm1
            for q in qs:
                phi -= phi // q
            heur[cls] = heur.get(cls, 0) + (phi << _HEUR_BITS) // pm1
    return total, in_class, hits, heur


def scan(
    g: int, f: int, x: int, config: ScanConfig = ScanConfig()
) -> dict[int, EmpiricalCount]:
    """Per-class counts of primes p <= x with g a primitive root mod p.

    Every prime counts toward primes_total (2 and the primes dividing g
    included); hits require p odd, p not dividing g, and g of full order.
    Classes not coprime to f are not reported.
    """
    base = make_base(g)
    if f < 1:
        raise ValueError(f"modulus must be positive, got {f}")
    if not 2 <= x <= X_CAP:
        raise ValueError(f"need 2 <= x <= {X_CAP}, got {x}")
    base_primes = prime_sieve(math.isqrt(x)).tolist()
    bounds = [
        (lo, min(lo + config.segment_size, x + 1))
        for lo in range(2, x + 1, config.segment_size)
    ]
    jobs = [(g, f, lo, hi, base_primes, base.h) for lo, hi in bounds]
    if config.workers <= 1 or len(jobs) == 1:
        partials = [_scan_segment(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            partials = list(pool.map(_scan_segment, jobs))
    residues = [a for a in range(1, f + 1) if math.gcd(a, f) == 1]
    total = 0
    in_class, hits, heur = Counter(), Counter(), Counter()
    for seg_total, seg_in_class, seg_hits, seg_heur in partials:
        total += seg_total
        in_class.update(seg_in_class)
        hits.update(seg_hits)
        heur.update(seg_heur)
    li_x = li(x)
    return {
        a: EmpiricalCount(
            x=x,
            primes_total=total,
            primes_in_class=in_class[a],
            hits=hits[a],
            heuristic_sum=2.0 * (heur[a] / (1 << _HEUR_BITS)),
            li_x=li_x,
        )
        for a in residues
    }

