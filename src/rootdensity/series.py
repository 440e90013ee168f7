"""Series evaluation of the density, independent of the closed form.

The density equals the sum over squarefree n of mu(n) * c_a(n) / D(n),
where D(n) is the degree over Q of the field generated by the f-th and
n-th roots of unity together with an n-th root of g, and c_a(n) records
whether the automorphism attached to the class a acts trivially on the
intersection field at level n.  Degrees come from a closed-form lemma
and c_a from one congruence plus one Kronecker symbol, so no field
element is ever represented.  Truncation carries an explicit tail bound,
making agreement with the closed form a machine-checkable statement.

The O(N) pass is int64 array work: each term mu(n) / D(n) enters as the
exact integer mu(n) * floor(2^192 / D(n)), summed per bucket by
`sieves.floor_sums`, and the buckets' integer sums are rounded once, to
50 digits, when a class assembles its partial sum.  What a term needs of
f and g (its bucket among at most 2^(omega(f) + 1), gcd(n, h) and
phi(n / gcd(f, n))) comes from strided marks of the primes <= N of f and
h over each block of n, the way a sieve marks multiples, with no
per-term gcd.  mu and phi come from `sieves.mu_phi_block` in blocks of
2^20 numbers, at most two of them cached, about 5 MB each, so the pass
holds no table that grows with N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

from .arith import euler_phi, factor, is_squarefree, kronecker
from .density import X_CAP, Base, Progression, _degree, gamma_factor, make_base
from .sieves import floor_sums, mu_phi_block

__all__ = ["SeriesEstimate", "c_a", "degree_nkr", "series_truncated"]

_WORKING_PRECISION = 50  # digits carried by the partial sum
_BLOCK = 1 << 15  # n per array pass of _bucket_sums: a traced peak of 1.6 MB
# n per mu/phi sieve block: [k * 2^20, (k + 1) * 2^20), about 5 MB each, so
# a limit below 2^20 takes the one block `mobius_table` builds
_SIEVE_BLOCK = 1 << 20
_UNIT_BITS = 192  # bucket sums are integers in units of 2^-192


@dataclass(frozen=True)
class SeriesEstimate:
    """A truncated partial sum with a bound on everything discarded.

    partial_sum is the sum over n <= truncation_N to within
    truncation_N * 2^-192 (each term is floored to a multiple of 2^-192)
    plus half a unit in its 50th significant digit (one final rounding).
    """

    partial_sum: Decimal
    truncation_N: int
    tail_bound: Decimal


def _needs_symbol(even, on_delta, splits):
    """The quadratic-symbol condition, elementwise over bools or boolean
    arrays: with r = lcm(f, n), the intersection field picks up a square
    root iff n is even and the discriminant divides r (splits) but not n
    (on_delta: |delta| divides n)."""
    return even & splits & np.logical_not(on_delta)


def _splits(n: int, f: int, base: Base) -> bool:
    """Whether the discriminant divides lcm(f, n) = f * (n / gcd(f, n)),
    for squarefree n: iff |b| (`gamma_factor`) divides n / gcd(f, n)."""
    return n // math.gcd(f, n) % abs(gamma_factor(f, base)[0]) == 0


def degree_nkr(k: int, f: int, base: Base) -> int:
    """Degree over Q of the field of lcm(f, k)-th roots of unity and a k-th
    root of g, for squarefree k (the lemma in `density._degree`), with
    phi(lcm(f, k)) = phi(f) * phi(k) / phi(gcd(k, f))."""
    if k < 1 or f < 1:
        raise ValueError(f"need k, f >= 1, got k={k}, f={f}")
    if not is_squarefree(k):
        raise ValueError(f"k must be squarefree, got {k}")
    phi_r = euler_phi(f) * (euler_phi(k) // euler_phi(math.gcd(k, f)))
    return _degree(k, math.gcd(k, base.h), phi_r, _splits(k, f, base))


def _survives(prog: Progression, base: Base, d: int, special: bool) -> bool:
    """The class rule on the bucket (d, special) = (gcd(f, n),
    needs-symbol) of a squarefree n: a = 1 (mod d) and, in the one
    configuration where the intersection field picks up a square root
    (`_needs_symbol`), additionally (gamma | a) = 1."""
    if (prog.a - 1) % d:
        return False
    return not special or kronecker(gamma_factor(prog.f, base)[1], prog.a) == 1


def c_a(n: int, prog: Progression, base: Base) -> int:
    """Indicator that class a mod f survives the level-n condition.

    Defined for squarefree n >= 1 (callers drop the rest, where the
    series weight vanishes anyway): the rule in `_survives` on the bucket
    of n.
    """
    if n < 1 or not is_squarefree(n):
        raise ValueError(f"n must be squarefree and >= 1, got {n}")
    special = _needs_symbol(n % 2 == 0, n % abs(base.delta) == 0, _splits(n, prog.f, base))
    return int(_survives(prog, base, math.gcd(prog.f, n), special))


def _multiples(p: int, lo: int, size: int) -> np.ndarray:
    """Boolean mask over [lo, lo + size): True at the multiples of p."""
    mask = np.zeros(size, dtype=bool)
    mask[-lo % p :: p] = True
    return mask


@lru_cache(maxsize=256)
def _bucket_sums(
    f: int, g: int, limit: int
) -> tuple[tuple[tuple[int, bool], int], ...]:
    """Partial sums of mu(n)/degree over n <= limit in units of 2^-192,
    bucketed by the pair (gcd(f, n), needs-quadratic-symbol).

    Every class a mod f assembles its partial sum from at most 2*tau(f)
    buckets, so the O(limit) pass is paid once per (f, g, limit).  Each
    term is mu(n) * floor(2^192 / degree), an exact integer, so a bucket's
    sum is off from the true one by less than one unit per term and does
    not depend on the order of the terms.

    n is squarefree, so what it shares with f, h and the discriminant is a
    set of primes, and strided marks over each block of n find it, as in
    `sieves.segment_primes`.  Only the primes <= limit of f and of h can
    divide an n <= limit, so only they stride:
    - the i-th prime of f sets bit i of a bitmask m, so d = gcd(f, n)
      comes from a table of 2^omega entries, and the bucket key
      2m + needs-symbol takes at most 2^(omega + 1) values;
    - the same stride divides p - 1 out of phi, leaving phi(n / d);
    - gcd(n, h) is a strided product over the primes of h;
    - the discriminant divides lcm(f, n) iff |b| divides n / d (`_splits`).
      n / d is squarefree and prime to f, so that holds iff |b| is
      squarefree, prime to f and divides n: one stride of |b|, or none at
      all.

    The degree array is int64 for any f and g: the degree is
    phi(f) * deg', deg' the lemma at phi(n / d), so deg' <= limit^2
    and the floor is floor(floor(2^192 / phi(f)) / deg').

    mu and phi come from `sieves.mu_phi_block` one sieve block at a time,
    and each sieve block is walked in blocks of _BLOCK numbers by
    `_block_sums`, whose arrays are gone before the next sieve block is
    built.
    """
    base = make_base(g)
    f_primes = [p for p in factor(f).primes() if p <= limit]
    h_primes = [p for p in factor(base.h).primes() if p <= limit]
    d_of = [1]  # gcd(f, n) by the bitmask of the primes of f dividing n
    for p in f_primes:
        d_of += [d * p for d in d_of]
    abs_b = abs(gamma_factor(f, base)[0])
    if abs_b > limit or math.gcd(abs_b, f) > 1 or not is_squarefree(abs_b):
        abs_b = 0  # |b| divides no n / d
    abs_delta = abs(base.delta)
    if abs_delta > limit:
        abs_delta = 0  # |delta| divides no n
    top = (1 << _UNIT_BITS) // euler_phi(f)
    sums: dict[int, int] = {}  # by bucket key
    for start in range(0, limit + 1, _SIEVE_BLOCK):
        mob, phi = mu_phi_block(start, min(start + _SIEVE_BLOCK, limit + 1))
        for lo in range(max(start, 1), start + len(mob), _BLOCK):
            part = slice(lo - start, lo - start + _BLOCK)
            keys, block = _block_sums(lo, mob[part], phi[part], f_primes, h_primes,
                                      abs_b, abs_delta, top)
            for k, s in zip(keys.tolist(), block):
                sums[k] = sums.get(k, 0) + s
    # distinct masks give distinct d, so each (d, special) occurs once
    return tuple(sorted(((d_of[k >> 1], bool(k & 1)), s) for k, s in sums.items()))


def _block_sums(
    lo: int, mu: np.ndarray, phi: np.ndarray, f_primes: list[int],
    h_primes: list[int], abs_b: int, abs_delta: int, top: int,
) -> tuple[np.ndarray, list[int]]:
    """`_bucket_sums`' keys and their sums over lo <= n < lo + len(mu), as
    `sieves.floor_sums` returns them, from mu(n) and phi(n) there; abs_b
    and abs_delta are 0 where they divide no n, and top is
    floor(2^192 / phi(f))."""
    at = np.flatnonzero(mu)  # the squarefree n, less lo
    n = at + lo
    mark = np.zeros(len(mu), dtype=np.int32)
    phi_r = phi.copy()  # to be phi(n / d)
    for i, p in enumerate(f_primes):
        start = -lo % p
        mark[start::p] |= 1 << i
        phi_r[start::p] //= p - 1
    m = mark[at]
    gcd_nh = 1
    if h_primes:
        mark.fill(1)
        for p in h_primes:
            mark[-lo % p :: p] *= p
        gcd_nh = mark[at]
    splits = abs_b == 1
    if abs_b > 1:
        splits = _multiples(abs_b, lo, len(mu))[at]
    on_delta = False
    if abs_delta:
        on_delta = _multiples(abs_delta, lo, len(mu))[at]
    deg = _degree(n, gcd_nh, phi_r[at], splits)
    special = _needs_symbol((n & 1) == 0, on_delta, splits)
    return floor_sums(2 * m + special, top, deg, 0, mu[at])


def series_truncated(prog: Progression, g: int, N: int = 10_000) -> SeriesEstimate:
    """Truncated series value for the class density, with a tail bound,
    for 1 <= N <= `density.X_CAP`.

    The bound 2*sqrt(2)*h/sqrt(N) dominates the discarded terms.  Each
    has |term| <= 1/degree, and degree >= n*phi(n) / (h * (1 + [n even]))
    by the degree lemma.  An even squarefree n = 2m has m odd and
    n*phi(n) = 2m*phi(m), and phi(k) >= sqrt(k) for every odd k, so

        tail <= h * (sum_{odd k > N} k^(-3/2) + sum_{odd m > N/2} m^(-3/2)).

    As x^(-3/2) is convex, k^(-3/2) <= (1/2) * integral of x^(-3/2) over
    [k - 1, k + 1], so a sum over odd k >= K is at most 1/sqrt(K - 1).
    The odd k > N start at K >= N + 1 and the odd m > N/2 at
    K >= (N + 1)/2, so the tail is at most
    h * (1/sqrt(N) + sqrt(2/(N - 1))) <= 2*sqrt(2)*h/sqrt(N) for N >= 3.
    Directly: at N = 1 the tail is at most (1/sqrt(2) + 1 + 1/sqrt(2)) h
    < 2.42h (m = 1 counted alone), and at N = 2 at most
    (1/sqrt(2) + 1/sqrt(2)) h < 1.42h, both within the bound.  It is
    deliberately loose, trading sharpness for an easy correctness argument.
    """
    if not 1 <= N <= X_CAP:
        raise ValueError(f"need a truncation point 1 <= N <= {X_CAP}, got N={N}")
    base = make_base(g)
    units = sum(
        s
        for (d, special), s in _bucket_sums(prog.f, g, N)
        if _survives(prog, base, d, special)
    )
    with localcontext() as ctx:
        ctx.prec = _WORKING_PRECISION
        total = Decimal(units) / Decimal(1 << _UNIT_BITS)
        tail = Decimal(8).sqrt() * base.h / Decimal(N).sqrt()
    return SeriesEstimate(partial_sum=total, truncation_N=N, tail_bound=tail)
