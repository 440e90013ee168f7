"""Sieve-built prime lists, p - 1 factorizations, multiplicative-function
tables, and exact per-key sums of floored quotients (`floor_sums`).

The scanning harness sieves the odd numbers of [2, x] in cache-sized
segments, then sieves the same window shifted by one with the odd primes
to factor the odd part of p - 1 for the primes it found, as the power of
2 in p - 1 is its lowest set bit; the series evaluator wants Moebius and
totient values for every index up to its truncation point, one block at
a time.
`mu_phi_block` sieves both over a block [lo, hi) with the primes up to
sqrt(hi - 1), which leaves each index with at most one larger prime
factor to apply.  The series reads blocks of 2^20 numbers, about 5 MB
each, and the cache holds two, so its tables stay near 10 MB at any
truncation point.  Both arrays are read-only: a write into either raises
ValueError rather than corrupt every later caller.

`density.X_CAP` bounds both the scan's x and the series' N, so the Moebius
table is int8 and the totient table int32.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache

import numpy as np

from .density import X_CAP

# `_sieve_divisors` strides one slice per odd base prime below this and
# batches the rest; caps from 32 to 128 were level on a 2^16-number
# segment at 5*10^6, and 3 (no slices) took twice as long
_STRIDE_CAP = 64

# positions per batch of the q >= _STRIDE_CAP in `_sieve_divisors`, about
# 17 bytes each: a 2^17-number segment near 4*10^6 peaked at 0.65 MB with
# 2^12, 0.67 with 2^13 and 0.90 in one batch, and took 4.9 against 4.6 ms;
# a 2^19 segment near 3*10^7 took 17.0 against 18.1 ms (2-vCPU Xeon)
_POSITION_BATCH = 1 << 12


def prime_sieve(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array: `segment_primes` over
    [2, limit], with the primes up to sqrt(limit) found the same way (no
    base primes are needed below 4)."""
    base_primes = prime_sieve(math.isqrt(limit)).tolist() if limit >= 4 else []
    return segment_primes(2, limit + 1, base_primes)


def segment_primes(lo: int, hi: int, base_primes: list[int]) -> np.ndarray:
    """Primes in [lo, hi) as an int64 array; base_primes must list every
    prime up to sqrt(hi - 1), ascending.

    One flag per odd number of the window, so the base prime 2 strides
    nothing, and from lo <= 2 the prime 2 takes the place of 1, whose
    flag no prime clears.  Each odd base prime p clears its odd
    multiples from max(p^2, lo) on, a step of 2p in number and of p in
    flags.
    """
    lo = max(lo, 2)
    if hi <= lo:
        return np.zeros(0, dtype=np.int64)
    first = 1 if lo == 2 else lo | 1  # flags[t] stands for first + 2t
    flags = np.ones((hi - first + 1) // 2, dtype=bool)
    for p in base_primes[1:]:
        if p * p >= hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        start += p * (start % 2 == 0)
        flags[(start - first) // 2 :: p] = False
    primes = np.flatnonzero(flags)
    primes *= 2
    primes += first
    if lo == 2:
        primes[0] = 2
    return primes


def factor_predecessors(
    ns: np.ndarray, base_primes: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct odd prime factors of n - 1, and phi(n - 1), for every
    n in ns.

    ns is a sorted int64 array of distinct odd integers from 3 to 2**31,
    and base_primes must cover sqrt(max(ns) - 1).  The power 2^k of 2 in
    n - 1 is its lowest set bit, with phi(2^k) = 2^(k-1).  Sieving finds
    each odd prime q up to the root with q | n - 1, and dividing out 2^k
    and their powers leaves of n - 1 a part with no prime factor up to
    its square root: 1 or a single odd prime, which joins the pairs.
    Returns int32 arrays (idx, q, phi): odd prime q divides ns[idx] - 1,
    each distinct q once per n, and phi[i] = phi(ns[i] - 1).  Every value
    divides some n - 1 < 2**31, so int32 holds it.
    """
    m = (ns - 1).astype(np.int32)
    idx, q = _sieve_divisors(ns, base_primes)
    q_power = _prime_powers(m[idx], q)
    smooth = m & -m
    phi = smooth >> 1
    np.multiply.at(smooth, idx, q_power)
    rest = m // smooth
    big = np.flatnonzero(rest > 1).astype(np.int32)
    idx = np.concatenate([idx, big])
    q = np.concatenate([q, rest[big]])
    q_power = np.concatenate([q_power, rest[big]])
    np.multiply.at(phi, idx, q_power - q_power // q)
    return idx, q, phi


def _sieve_divisors(
    ns: np.ndarray, base_primes: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (idx, q) of the odd primes q <= sqrt(max(ns) - 1) dividing
    ns[idx] - 1, for sorted odd ns, grouped by q ascending.

    An odd q divides n - 1 for n = lo + 2t exactly when t = (1 - lo) / 2
    (mod q), so each q strides over the odd numbers from lo = ns[0] to
    ns[-1] and keeps the positions of ns; 2 divides every n - 1 and is
    left to the caller.  The q below _STRIDE_CAP stride one slice each;
    the larger q, whose slices are short and would cost a Python
    iteration each, stride in batches of consecutive q (`_stride_batch`)
    of about _POSITION_BATCH positions, so no array but the position map
    grows with the window.
    """
    n = len(ns)
    if not n:
        return np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32)
    lo, top = int(ns[0]), int(ns[-1]) - 1
    # where[t] is the index in ns of n = lo + 2t, or -1
    half = (ns - lo) >> 1
    where = np.full(int(half[-1]) + 1, -1, dtype=np.int32)
    where[half] = np.arange(n, dtype=np.int32)
    t0 = (1 - lo) // 2
    split = bisect_left(base_primes, _STRIDE_CAP)
    end = bisect_right(base_primes, math.isqrt(top))
    small = base_primes[1 : min(split, end)]
    parts = [where[t0 % q :: q] for q in small]
    parts = [hit[hit >= 0] for hit in parts]
    q = np.repeat(np.array(small, dtype=np.int32), [len(part) for part in parts])
    big = np.array(base_primes[split:end], dtype=np.int32)
    start = t0 % big
    # a q whose first position lies past the window has an empty run
    live = start < len(where)
    big, start = big[live], start[live]
    count = (len(where) - 1 - start) // big + 1
    # a batch takes the runs of consecutive q that start in one block of
    # _POSITION_BATCH positions: that many and at most one run more
    first = np.cumsum(count) - count
    cuts = (np.flatnonzero(np.diff(first // _POSITION_BATCH)) + 1).tolist()
    hits, q_bigs = zip(*[_stride_batch(where, big[a:b], start[a:b], count[a:b])
                         for a, b in zip([0, *cuts], [*cuts, len(big)])])
    return np.concatenate([*parts, *hits]), np.concatenate([q, *q_bigs])


def _stride_batch(
    where: np.ndarray, big: np.ndarray, start: np.ndarray, count: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The entries where[pos] >= 0 at the positions pos = start + k * q,
    0 <= k < count, of one run per q in big, and the q of each, in run
    order.

    One int32 array of every position, built by a cumulative sum of
    steps, one gather and one mask; a kept position's q is that of the
    run it falls in.
    """
    # q's run of positions is start, start + q, ...: every step is q but
    # a run's first, which jumps from the last position of the run before
    pos = np.repeat(big, count)
    ends = np.cumsum(count)
    first = ends - count
    pos[first] = start
    pos[first[1:]] -= (start + (count - 1) * big)[:-1]
    np.cumsum(pos, out=pos)
    hit = where[pos]
    keep = np.flatnonzero(hit >= 0)
    return hit[keep], big[np.searchsorted(ends, keep, side="right")]


def _prime_powers(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The largest power of the odd prime q dividing m, elementwise (q | m)."""
    q_power = q.copy()
    deeper = np.flatnonzero(m % (q * q) == 0)
    while deeper.size:
        q_power[deeper] *= q[deeper]
        deeper = deeper[m[deeper] // q_power[deeper] % q[deeper] == 0]
    return q_power


def floor_sums(
    key: np.ndarray, num, den: np.ndarray, bits: int, weight=1
) -> tuple[np.ndarray, list[int]]:
    """Per key, the exact sum of weight * floor(num * 2^bits / den).

    key >= 0, int64 den in [1, 2^62) and weight in {-1, 0, 1} (or the
    scalar 1) are arrays of one length; num is an array below den, or one
    Python int >= 0.  Returns the keys that occur, ascending, and their
    sums as Python ints.  The long division runs in digits of
    b = min(53 - bit_length(len(key)), 63 - bit_length(max den)) bits, so
    a shifted remainder, below den * 2^b, fits int64, and a float64
    bincount of len(key) weighted digits, each below 2^b, is exact.  The
    Python loop runs over the keys that occur only.
    """
    if not len(key):
        return np.zeros(0, dtype=np.int64), []
    present = np.flatnonzero(np.bincount(key))
    width = min(53 - len(key).bit_length(), 63 - int(den.max()).bit_length())
    array = isinstance(num, np.ndarray)
    rem = num.astype(np.int64) if array else np.zeros_like(den)
    feed = 0 if array else num << bits
    shift = max(bits, feed.bit_length())
    sums = [0] * len(present)
    while shift:
        b = min(width, shift)
        shift -= b
        rem <<= b
        rem += (feed >> shift) & ((1 << b) - 1)
        digit, rem = np.divmod(rem, den)
        digit *= weight
        part = np.bincount(key, digit)[present].astype(np.int64).tolist()
        sums = [(s << b) + t for s, t in zip(sums, part)]
    return present, sums


@lru_cache(maxsize=2)  # two blocks of 2^20 numbers hold about 10 MB
def mu_phi_block(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """mu(n) as int8 and phi(n) as int32 for lo <= n < hi, 0 <= lo < hi
    and hi - 1 <= X_CAP, in one sieve, as read-only arrays; at n = 0 they
    hold mu = 1 and phi = 0.

    One int32 array starts as the numbers of the block.  Each prime
    p <= sqrt(hi - 1) flips the sign of mu on its multiples, zeroes it on
    those of p^2, and divides p out of the array once on the multiples of
    each power p^k < hi.  What is left of n is then 1 or its single prime
    factor P > sqrt(n), where mu flips once more.  The array becomes
    max(P - 1, 1), and each p multiplies it by p - 1 on its multiples and
    by p again on those of each p^k, k >= 2, which leaves phi(n).  Every
    step writes in place over a stride that starts at -lo % p^k, so the
    only transient is a boolean mask of one byte per n.
    """
    if not 0 <= lo < hi or hi - 1 > X_CAP:
        raise ValueError(f"need a block 0 <= lo < hi <= {X_CAP + 1}, got [{lo}, {hi})")
    mu = np.ones(hi - lo, dtype=np.int8)
    phi = np.arange(lo, hi, dtype=np.int32)
    primes = prime_sieve(math.isqrt(hi - 1)).tolist()
    for p in primes:
        mu[-lo % p :: p] *= -1
        mu[-lo % (p * p) :: p * p] = 0
        power = p
        while power < hi:
            phi[-lo % power :: power] //= p
            power *= p
    # one mask over the whole block, not in pieces: freeing it raises
    # glibc's mmap and trim thresholds to its size, so the bucket pass
    # reuses heap for its per-block arrays instead of paging them in
    # afresh (certify's four pairs at N = 10^6: 1.8k against 42k faults)
    np.negative(mu, out=mu, where=phi > 1)
    phi -= 1
    np.maximum(phi, 1, out=phi)
    for p in primes:
        phi[-lo % p :: p] *= p - 1
        power = p * p
        while power < hi:
            phi[-lo % power :: power] *= p
            power *= p
    if lo == 0:
        mu[0], phi[0] = 1, 0
    mu.flags.writeable = phi.flags.writeable = False  # the cache shares them
    return mu, phi


def mobius_table(limit: int) -> np.ndarray:
    """mu(n) for 0 <= n <= limit as int8 (index 0 is meaningless): the
    block [0, limit + 1) of `mu_phi_block`."""
    return mu_phi_block(0, limit + 1)[0]


def phi_table(limit: int) -> np.ndarray:
    """phi(n) for 0 <= n <= limit as int32 (index 0 is meaningless): the
    block [0, limit + 1) of `mu_phi_block`."""
    return mu_phi_block(0, limit + 1)[1]
