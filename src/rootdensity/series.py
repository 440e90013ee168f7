"""Series evaluation of the density, independent of the closed form.

The density equals the sum over squarefree n of mu(n) * c_a(n) / D(n),
where D(n) is the degree over Q of the field generated by the f-th and
n-th roots of unity together with an n-th root of g, and c_a(n) records
whether the automorphism attached to the class a acts trivially on the
intersection field at level n.  Degrees come from a closed-form lemma
and c_a from one congruence plus one Kronecker symbol, so no field
element is ever represented.  Truncation carries an explicit tail bound,
making agreement with the closed form a machine-checkable statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

from .arith import euler_phi, is_squarefree, kronecker
from .density import Base, Progression, gamma_factor, make_base
from .sieves import mobius_table, phi_table

__all__ = ["SeriesEstimate", "c_a", "degree_nkr", "series_truncated"]

_WORKING_PRECISION = 50  # digits carried by the partial sum
_BLOCK = 1 << 16  # n per array pass of _bucket_sums, which bounds its memory


@dataclass(frozen=True)
class SeriesEstimate:
    """A truncated partial sum with a bound on everything discarded."""

    partial_sum: Decimal
    truncation_N: int
    tail_bound: Decimal


def _degree(n, gcd_nh, phi_r, r, abs_delta):
    """The degree lemma, elementwise over ints or integer arrays: for
    squarefree n | r, (n / gcd(n, h)) * phi(r), halved (exactly, as h is
    odd) when n is even and the discriminant divides r, since the square
    root of g1 then already lies in the r-th cyclotomic field."""
    halve = (n % 2 == 0) & (r % abs_delta == 0)
    return n // gcd_nh * phi_r // (1 + halve)


def _needs_symbol(n, r, abs_delta):
    """The quadratic-symbol condition, elementwise: with r = lcm(f, n), the
    intersection field picks up a square root iff n is even and the
    discriminant divides r but not n."""
    return (n % 2 == 0) & (n % abs_delta != 0) & (r % abs_delta == 0)


def degree_nkr(k: int, r: int, base: Base) -> int:
    """Degree over Q of the field of r-th roots of unity and a k-th root of g,
    for squarefree k dividing r (the lemma in `_degree`)."""
    if k < 1 or r < 1 or r % k:
        raise ValueError(f"need k | r, got k={k}, r={r}")
    if not is_squarefree(k):
        raise ValueError(f"k must be squarefree, got {k}")
    return _degree(k, math.gcd(k, base.h), euler_phi(r), r, abs(base.delta))


def c_a(n: int, prog: Progression, base: Base) -> int:
    """Indicator that class a mod f survives the level-n condition.

    Defined for squarefree n (callers drop the rest, where the series
    weight vanishes anyway): 1 iff a = 1 (mod gcd(f, n)) and, in the one
    configuration where the intersection field picks up a square root
    (`_needs_symbol`), additionally (gamma | a) = 1.
    """
    d = math.gcd(prog.f, n)
    if (prog.a - 1) % d:
        return 0
    if _needs_symbol(n, prog.f * n // d, abs(base.delta)):
        _, gamma = gamma_factor(prog.f, base)
        if kronecker(gamma, prog.a) != 1:
            return 0
    return 1


@lru_cache(maxsize=256)
def _bucket_sums(
    f: int, g: int, limit: int
) -> tuple[tuple[tuple[int, bool], Decimal], ...]:
    """Partial sums of mu(n)/degree over n <= limit, bucketed by the pair
    (gcd(f, n), needs-quadratic-symbol).

    Every class a mod f assembles its partial sum from at most 2*tau(f)
    buckets, so the O(limit) pass is paid once per (f, g, limit).  Degrees and
    keys are arrays over blocks of n (int64 when every intermediate fits, else
    Python ints); each bucket adds its Decimal terms in ascending n.
    """
    base = make_base(g)
    abs_delta = abs(base.delta)
    mob = mobius_table(limit)
    phi = phi_table(limit)
    phi_f = euler_phi(f)
    # r = f*n/d <= f*limit and degree <= limit * phi(f) * limit
    dtype = np.int64 if max(f, phi_f * limit, abs_delta) * limit < 2**63 else object
    sums: dict[tuple[int, bool], Decimal] = {}
    with localcontext() as ctx:
        ctx.prec = _WORKING_PRECISION
        for lo in range(1, limit + 1, _BLOCK):
            idx = np.flatnonzero(mob[lo : lo + _BLOCK]) + lo  # the squarefree n
            n = idx.astype(dtype, copy=False)
            d = np.gcd(n, f)
            r = f * n // d
            # phi(lcm(f, n)) = phi(f) phi(n) / phi(gcd(f, n))
            phi_r = phi_f * (phi[idx] // phi[d.astype(np.int64)]).astype(dtype)
            deg = _degree(n, np.gcd(n, base.h), phi_r, r, abs_delta)
            special = _needs_symbol(n, r, abs_delta)
            mu = mob[idx]
            for dv in np.unique(d).tolist():
                for sp in (False, True):
                    mask = (d == dv) & (special == sp)
                    if mask.any():
                        terms = zip(mu[mask].tolist(), deg[mask].tolist())
                        start = sums.get((dv, sp), Decimal(0))
                        sums[(dv, sp)] = sum((Decimal(m) / k for m, k in terms), start)
    return tuple(sorted(sums.items()))


def series_truncated(prog: Progression, g: int, N: int = 10_000) -> SeriesEstimate:
    """Truncated series value for the class density, with a tail bound.

    The bound 2*sqrt(2)*h/sqrt(N) dominates the discarded terms via
    degree >= n*phi(n)/(2h) and phi(n) >= sqrt(n/2); it is deliberately
    loose, trading sharpness for an easy correctness argument.
    """
    if N < 1:
        raise ValueError(f"truncation point must be >= 1, got {N}")
    base = make_base(g)
    _, gamma = gamma_factor(prog.f, base)
    symbol_ok = kronecker(gamma, prog.a) == 1
    with localcontext() as ctx:
        ctx.prec = _WORKING_PRECISION
        total = Decimal(0)
        for (d, special), s in _bucket_sums(prog.f, g, N):
            if (prog.a - 1) % d:
                continue
            if special and not symbol_ok:
                continue
            total += s
        tail = Decimal(8).sqrt() * base.h / Decimal(N).sqrt()
    return SeriesEstimate(partial_sum=total, truncation_N=N, tail_bound=tail)
