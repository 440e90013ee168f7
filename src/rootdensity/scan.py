"""Prime-scanning harness.

Sieves the primes up to x in segments and counts, per coprime residue
class a mod f, how many have g as a primitive root, alongside the weighted
character sum 2 * sum phi(p-1)/(p-1) over primes with (g|p) = -1 and
gcd(p-1, h) = 1 that heuristically tracks the same counts.

Each segment is array work, with no loop over its primes:

- The quadratic character (g|p) of every odd p not dividing g is read
  from a table of (delta|r) for r mod |delta|, where delta = `Base.delta`
  is the fundamental discriminant of Q(sqrt g).  With g = g1 * g2^2 and
  delta = g1 or 4 * g1, (g|p) = (g1|p) = (delta|p) because p does not
  divide g2 and (4|p) = 1; and (delta|.) is periodic mod |delta| because
  delta is a fundamental discriminant.  Above |delta| = 2^12 the table is
  not built and Euler's criterion, g^((p-1)/2) = (g|p) (mod p), is
  evaluated for those primes instead, in slices of _PAIR_CHUNK.  g can
  be a primitive root only where the sign is -1, and that sign is also
  the heuristic's filter, so about half the primes stop here.
- For the rest, sieving the shifted window of the values p - 1
  (`sieves.factor_predecessors`) gives phi(p - 1) and every distinct odd
  prime q | p - 1, as the sign has decided q = 2.  Where g = g0^h, a p
  with a prime r | gcd(p - 1, h) is decided without a power, as g's
  order divides (p - 1)/r; the heuristic skips the same primes.
- `_pow_mod` decides g^((p-1)/q) != 1 for the odd q | p - 1, in slices
  of _PAIR_CHUNK pairs (p, q): left to right in 3-bit windows, from one
  table of g^0 .. g^7 mod p per prime (`_window_table`), so each 3 bits
  of the exponent cost three squarings and one table multiply.  The
  pairs come by q ascending, with the large cofactors last, and each
  slice drops the pairs of primes already decided, so a p that fails at
  q = 3 is not tested at its larger q.  A slice holds the same memory
  whatever the segment length; the table, 32 bytes per prime, is built
  after the factoring's peak.  It runs in int64: residues are below
  p <= X_CAP = 10^8 < 2^27 (`density.X_CAP`, which also bounds the
  series' N), so the table fits int32 and the product of two residues is
  below 2^54 and never wraps.
- Per-class counts come from np.bincount, and `sieves.floor_sums` adds
  the heuristic terms floor(phi(p-1) * 2^96 / (p-1)) per class exactly.

Segments are independent, merged in position order and summed exactly,
so the result is identical for any worker count and segment size.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .arith import factor, is_prime, kronecker
from .density import X_CAP, make_base, residues
from .sieves import factor_predecessors, floor_sums, prime_sieve, segment_primes

__all__ = [
    "EmpiricalCount",
    "ScanConfig",
    "is_primitive_root",
    "li",
    "scan",
]

# The heuristic sum is kept in integer units of 2**-_HEUR_BITS and rounded
# once, so no split of the primes into segments can change it; flooring
# X_CAP terms loses under 2**-69.
_HEUR_BITS = 96

# the (delta|r) table takes |delta| kronecker calls and |delta| bytes (int8),
# so this bounds it at a few ms and 4 KB per scan
_TABLE_CAP = 1 << 12

# bits per digit of `_pow_mod`'s exponent: on the pairs of one segment at
# 5*10^6 and 3*10^7, 3 bits beat 2 by 2-9 % and 4 by 25-30 % (2-vCPU Xeon)
_WINDOW = 3

# elements per `_pow_mod` call in the Euler pass and the order test, about
# 100 bytes each in the Euler pass, which builds a table per slice, and 70
# in the order test (inputs, result, gather buffers): 2^11 to 2^13 took
# the same time on a 2^17 segment near 4*10^6, where 2^13 peaked at 1.0 MB
# against 0.65; on a 2^19 segment near 3*10^7, 2^12 took 19.0 ms against
# 22.0 for one call over all pairs (2-vCPU Xeon)
_PAIR_CHUNK = 1 << 12

# a pool pays for its start-up only with at least this many base segments
# (`ScanConfig.segment_size` numbers each) per worker
_JOBS_PER_WORKER = 8

_EULER_GAMMA = 0.5772156649015329
_LI_2 = 1.0451637801174928  # li(2), the offset of the integral taken from 2


@dataclass(frozen=True)
class ScanConfig:
    """Scan tuning: worker processes.

    The segment length is worked out from x: `_segment_length` gives
    twice the base `segment_size` (2^17 numbers) below x = 2^23 and 2^19
    from there, as each segment walks the base primes up to sqrt(x) once
    per sieve.  The order test runs in slices of `_PAIR_CHUNK` pairs and
    the stride pass in batches of about `sieves._POSITION_BATCH`
    positions, so what grows with a segment is its sieve flags (one
    byte per odd number), its arrays per prime, among them the order
    test's window table of 32 bytes per prime with (g|p) = -1, its
    arrays per (p, q) pair, and the stride pass's map of 4 bytes per odd
    number.  A segment peaks near 0.69 MB at 2^17 and 2.20 MB at 2^19
    (by tracemalloc), and every pool worker holds one.  A pool gets at
    most `workers` processes, one per usable core and one per
    `_JOBS_PER_WORKER` base segments that x spans, whatever the segment
    length; with fewer than two, the segments run in process, where they
    finish before a pool would start.
    """

    segment_size = 1 << 16  # not annotated, so a class constant and not a field
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


def _window_table(base: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base^0 .. base^7 % mod per element, as an (n, 8) int32 table, for
    int64 arrays with 0 <= base < mod <= 2**31; base is not modified.

    Each row is the window table `_pow_mod` reads: six modular products
    per element, 32 bytes per element.  mod <= 2**31 bounds every residue,
    so int32 holds it, and a product of two residues is below 2**62.
    """
    size = 1 << _WINDOW
    table = np.empty((len(base), size), dtype=np.int32)
    table[:, 0] = 1
    table[:, 1] = base
    power = base.copy()
    for k in range(2, size):
        power *= base
        power %= mod
        table[:, k] = power
    return table


def _pow_mod(
    table: np.ndarray, row: np.ndarray, exp: np.ndarray, mod: np.ndarray
) -> np.ndarray:
    """base**exp % mod elementwise, where base is the element's row of a
    `_window_table` built for that mod: table[row] holds base^0 .. base^7
    % mod, for exp >= 0; no input is modified.

    Left to right in fixed 3-bit windows (_WINDOW): the table gives the
    leading digit of exp, and each later digit costs three squarings and
    one multiply by a table entry, where binary square-and-multiply pays
    a square, a multiply and two remainders per bit.  One table serves
    every exponent taken of its bases, so a prime's table is built once
    whatever the number of q tested.  A product of two residues is below
    mod**2 <= 2**62, so no product wraps int64.
    """
    n = len(row)
    result = np.ones(n, dtype=np.int64)
    bits = int(exp.max()).bit_length() if n else 0
    if not bits:
        return result
    size = 1 << _WINDOW
    flat = table.ravel()
    rows = np.multiply(row, size, dtype=np.intp)
    digit = np.empty(n, dtype=np.intp)
    entry = np.empty(n, dtype=np.int32)
    shift = (bits - 1) // _WINDOW * _WINDOW
    np.right_shift(exp, shift, out=digit)
    digit += rows
    np.take(flat, digit, out=entry)
    result[:] = entry
    while shift:
        shift -= _WINDOW
        for _ in range(_WINDOW):
            result *= result
            result %= mod
        np.right_shift(exp, shift, out=digit)
        digit &= size - 1
        digit += rows
        np.take(flat, digit, out=entry)
        result *= entry
        result %= mod
    return result


def _mod_primes(g: int, p: np.ndarray) -> np.ndarray:
    """g mod p elementwise for |g| <= 2**63 and primes p < 2**31: |g|
    fits uint64, and the sign is applied to its remainder."""
    r = (np.uint64(abs(g)) % p.view(np.uint64)).view(np.int64)
    if g < 0:
        np.subtract(p, r, out=r, where=r > 0)
    return r


def _kronecker_table(delta: int) -> np.ndarray | None:
    """(delta|r) for 0 <= r < |delta| as int8, with entry 0 set to 0, or
    None when |delta| > _TABLE_CAP."""
    if abs(delta) > _TABLE_CAP:
        return None
    return np.array([kronecker(delta, r) if r else 0 for r in range(abs(delta))],
                    dtype=np.int8)


def _classes(key: np.ndarray, lo: int, f: int) -> list[int]:
    """The class a (1 <= a <= f) of lo + key mod f, elementwise."""
    cls = (lo + key) % f
    cls[cls == 0] = f
    return cls.tolist()


def _by_class(key: np.ndarray, lo: int, f: int) -> dict[int, int]:
    """The number of primes p = lo + key (mod f) per class."""
    counts = np.bincount(key)
    nz = np.flatnonzero(counts)
    return dict(zip(_classes(nz, lo, f), counts[nz].tolist()))


def _scan_segment(args: tuple) -> tuple:
    g, f, lo, hi, base_primes, h, table = args
    p = segment_primes(lo, hi, base_primes)
    total = len(p)
    p = p[f % p != 0]  # p in a class coprime to f, as p is prime
    # key = (p - lo) mod f names the class (lo + key) mod f and stays below
    # min(f, hi - lo), which bounds the length of every bincount
    key = (p - lo) % f
    in_class = _by_class(key, lo, f)
    gp = _mod_primes(g, p)
    keep = (p != 2) & (gp != 0)
    p, key, gp = p[keep], key[keep], gp[keep]
    # (g|p) = -1 is both the q = 2 order test and the heuristic's filter;
    # without a table, Euler's criterion g^((p-1)/2) = (g|p) = +-1 decides it
    if table is None:
        keep = np.empty(len(p), dtype=bool)
        for start in range(0, len(p), _PAIR_CHUNK):
            s = slice(start, start + _PAIR_CHUNK)
            rows = np.arange(len(p[s]), dtype=np.int32)
            keep[s] = _pow_mod(_window_table(gp[s], p[s]), rows, p[s] >> 1, p[s]) == p[s] - 1
    else:
        keep = table[p % len(table)] == -1
    p, key, gp = p[keep], key[keep], gp[keep]
    idx, q, phi = factor_predecessors(p, base_primes)
    # g = g0^h has order dividing (p - 1)/r for a prime r | gcd(p - 1, h), so
    # those p fail without a power, and the heuristic skips the same p
    coprime = np.gcd(p - 1, h) == 1
    # phi(p - 1) < p - 1, as floor_sums asks of an array numerator
    nz, sums = floor_sums(key[coprime], phi[coprime], p[coprime] - 1, _HEUR_BITS)
    heur = dict(zip(_classes(nz, lo, f), sums))
    # the table is built past the peaks of factor_predecessors and
    # floor_sums, with phi freed first; gp is not needed after it
    del phi
    windows = _window_table(gp, p)
    del gp
    # g has full order mod p unless g^((p-1)/q) = 1 for some odd q | p - 1;
    # the pairs come by q ascending, so a p that fails at a small q drops
    # out before its larger q are tested
    fails = ~coprime
    for start in range(0, len(idx), _PAIR_CHUNK):
        s = slice(start, start + _PAIR_CHUNK)
        i = idx[s]
        live = ~fails[i]
        i = i[live]
        p_pair = p[i]
        fails[i[_pow_mod(windows, i, (p_pair - 1) // q[s][live], p_pair) == 1]] = True
    hits = _by_class(key[~fails], lo, f)
    return total, in_class, hits, heur


def _segment_length(x: int) -> int:
    """The segment length of a scan to x: twice the base `segment_size`
    below 2^23 and 2^19 from there (see `ScanConfig`)."""
    return ScanConfig.segment_size << (3 if x >= 1 << 23 else 1)


def _usable_cores() -> int:
    """The cores this process may run on, read at call time."""
    if hasattr(os, "sched_getaffinity"):  # macOS and Windows lack it
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def scan(
    g: int, f: int, x: int, config: ScanConfig = ScanConfig()
) -> dict[int, EmpiricalCount]:
    """Per-class counts of primes p <= x with g a primitive root mod p.

    Every prime counts toward primes_total (2 and the primes dividing g
    included); hits require p odd, p not dividing g, and g of full order.
    Classes not coprime to f are not reported.
    """
    classes = residues(f)
    base = make_base(g)
    if not 2 <= x <= X_CAP:
        raise ValueError(f"need 2 <= x <= {X_CAP}, got x={x}")
    if config.workers < 1:
        raise ValueError(f"need workers >= 1, got workers={config.workers}")
    base_primes = prime_sieve(math.isqrt(x)).tolist()
    length = _segment_length(x)
    bounds = [(lo, min(lo + length, x + 1)) for lo in range(2, x + 1, length)]
    table = _kronecker_table(base.delta)
    jobs = [(g, f, lo, hi, base_primes, base.h, table) for lo, hi in bounds]
    total = 0
    in_class, hits, heur = Counter(), Counter(), Counter()

    def merge(partials) -> None:
        nonlocal total
        for seg_total, seg_in_class, seg_hits, seg_heur in partials:
            total += seg_total
            in_class.update(seg_in_class)
            hits.update(seg_hits)
            heur.update(seg_heur)

    base_segments = len(range(2, x + 1, ScanConfig.segment_size))
    workers = min(config.workers, _usable_cores(), base_segments // _JOBS_PER_WORKER)
    if workers <= 1:
        merge(map(_scan_segment, jobs))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            merge(pool.map(_scan_segment, jobs))
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
        for a in classes
    }

