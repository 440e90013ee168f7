import math
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootdensity.arith import euler_phi, mobius
from rootdensity.sieves import (
    X_CAP,
    floor_sums,
    mobius_table,
    mu_phi_block,
    phi_table,
    prime_sieve,
    segment_primes,
)

_TOP = 2 * 10**4
_PRIME_POWERS = sorted(
    p**k for p in sympy.primerange(2, _TOP + 1) for k in range(1, 15) if p**k <= _TOP
)


@pytest.fixture(scope="module")
def reference() -> tuple[np.ndarray, np.ndarray]:
    """mu and phi for 1 <= n <= 2 * 10^4 from the scalar factorization."""
    n = range(1, _TOP + 1)
    return np.array([mobius(k) for k in n]), np.array([euler_phi(k) for k in n])


def _check(limit: int, reference) -> None:
    mu, phi = mobius_table(limit), phi_table(limit)
    assert mu.dtype == np.int8 and phi.dtype == np.int32
    assert len(mu) == len(phi) == limit + 1
    assert (mu[1:] == reference[0][:limit]).all()
    assert (phi[1:] == reference[1][:limit]).all()
    assert mu[0] == 1 and phi[0] == 0


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 97, 1000, 1024, 10**4 + 1])
def test_tables_match_scalar_functions(limit, reference):
    _check(limit, reference)


@given(limit=st.sampled_from(_PRIME_POWERS))
@settings(max_examples=60, deadline=None)
def test_tables_at_prime_power_limits(limit, reference):
    # limits that are primes, prime squares and prime powers: the largest
    # index is then its own leftover prime, or a power the sieve divides out
    _check(limit, reference)


def _check_block(lo: int, hi: int, reference) -> None:
    mu, phi = mu_phi_block(lo, hi)
    assert mu.dtype == np.int8 and phi.dtype == np.int32
    assert len(mu) == len(phi) == hi - lo
    assert not mu.flags.writeable and not phi.flags.writeable
    if lo == 0:
        assert mu[0] == 1 and phi[0] == 0
    first = max(lo, 1)
    assert (mu[first - lo :] == reference[0][first - 1 : hi - 1]).all()
    assert (phi[first - lo :] == reference[1][first - 1 : hi - 1]).all()


# every block [lo, hi) ends on a prime power hi - 1; lo is 0, 1, 2, the
# prime 97, or 97^2 - 1, 97^2 or 97^2 + 1, where the stride of 97^2
# starts at -lo % 97^2 = 1, 0 or 97^2 - 1
@pytest.mark.parametrize("lo, top", [
    (0, 1), (0, 2**13), (0, 97**2),
    (1, 2), (1, 3**8),
    (2, 2), (2, 11**4),
    (97, 97), (97, 101), (97, 97**2),
    (97**2 - 1, 97**2), (97**2 - 1, 10007),
    (97**2, 97**2), (97**2, 2**14),
    (97**2 + 1, 10007), (97**2 + 1, 3**9),
])
def test_block_matches_scalar_functions(lo, top, reference):
    _check_block(lo, top + 1, reference)


@given(lo=st.integers(0, _TOP), top=st.sampled_from(_PRIME_POWERS))
@settings(max_examples=60, deadline=None)
def test_blocks_at_prime_power_ends(lo, top, reference):
    _check_block(min(lo, top), top + 1, reference)


def test_block_at_the_cap():
    # the last numbers the series may reach, where sqrt(hi - 1) = 10^4
    lo = X_CAP - 300
    mu, phi = mu_phi_block(lo, X_CAP + 1)
    assert mu.tolist() == [mobius(n) for n in range(lo, X_CAP + 1)]
    assert phi.tolist() == [euler_phi(n) for n in range(lo, X_CAP + 1)]


def test_tables_stop_at_the_cap():
    # hi - 1 = X_CAP + 1 is refused before any array is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            mu_phi_block(X_CAP - 10**6, X_CAP + 2)
        assert tracemalloc.get_traced_memory()[1] < 10**5
    finally:
        tracemalloc.stop()
    for lo, hi in [(-1, 5), (5, 5)]:
        with pytest.raises(ValueError):
            mu_phi_block(lo, hi)


def test_table_cache_holds_two_blocks():
    assert mu_phi_block.cache_info().maxsize == 2
    for lo in range(0, 4000, 1000):
        mu_phi_block(lo, lo + 1000)
    assert mu_phi_block.cache_info().currsize == 2


def test_cached_tables_are_read_only():
    # the cache hands the same arrays to every caller, so a write into
    # one must fail instead of changing later series sums
    mu, phi = mobius_table(1000), phi_table(1000)
    for table in (mu, phi):
        with pytest.raises(ValueError):
            table[2] = 0
    assert mobius_table(1000)[2] == -1 and phi_table(1000)[2] == 1


def test_prime_sieve_against_sympy():
    # 961 = 31^2 is a prime square, and 1024 = 32^2 lies past it
    for limit in [*range(301), 961, 1024, 10**4 + 7]:
        primes = prime_sieve(limit)
        assert primes.dtype == np.int64
        assert primes.tolist() == list(sympy.primerange(limit + 1)), limit


@given(st.one_of(st.integers(0, 4), st.integers(5, X_CAP - 3000)),
       st.one_of(st.integers(0, 2), st.integers(3, 3000)))
# the window from 2 holds 2 alone; from 3, one odd flag; the last
# window below the cap; empty and one-number windows of either parity
@example(2, 1)
@example(2, 2)
@example(3, 1)
@example(X_CAP - 3000, 3000)
@example(4, 0)
@example(9, 1)
@example(10, 2)
@settings(max_examples=200, deadline=None)
def test_segment_primes_against_sympy(lo, width):
    # one flag per odd number: 2 comes in only when lo <= 2, and every
    # window edge, even or odd, keeps the primes of [lo, lo + width)
    hi = lo + width
    base_primes = prime_sieve(math.isqrt(max(hi - 1, 1))).tolist()
    primes = segment_primes(lo, hi, base_primes)
    assert primes.dtype == np.int64
    assert primes.tolist() == list(sympy.primerange(lo, hi))


def _exact_floor_sums(key, num, den, bits, weight) -> dict[int, int]:
    """sum(w * ((num << bits) // den)) per key, term by term in Python ints."""
    sums: dict[int, int] = {}
    for i, k in enumerate(key.tolist()):
        n = num if isinstance(num, int) else int(num[i])
        w = weight if isinstance(weight, int) else int(weight[i])
        sums[k] = sums.get(k, 0) + w * ((n << bits) // int(den[i]))
    return sums


@st.composite
def _floor_sum_inputs(draw):
    """Sparse keys with gaps, den up to 62 bits (1-bit digits), numerators
    either an array below den or one Python int up to 2^200, and weights
    in {-1, 0, 1} or the scalar 1; arrays come from a seeded generator, so
    lengths reach 2^15 cheaply."""
    length = draw(st.integers(1, 2**15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    key = rng.integers(0, draw(st.integers(1, 40)), length) * draw(st.integers(1, 1000))
    den_bits = draw(st.integers(1, 62))
    den = rng.integers(1, 1 << den_bits, length, dtype=np.int64)
    den[0] = (1 << den_bits) - 1  # the widest den fixes the digit width
    if draw(st.booleans()):
        num = rng.integers(0, den, dtype=np.int64)
    else:
        num = draw(st.integers(0, 2**200))
    weight = rng.integers(-1, 2, length).astype(np.int8) if draw(st.booleans()) else 1
    return key, num, den, draw(st.integers(0, 200)), weight


@given(_floor_sum_inputs())
@settings(max_examples=150, deadline=None)
def test_floor_sums_match_exact_division(inputs):
    present, sums = floor_sums(*inputs)
    exact = _exact_floor_sums(*inputs)
    assert present.tolist() == sorted(exact)
    assert sums == [exact[k] for k in sorted(exact)]


def test_floor_sums_at_the_float64_limit():
    # 2^15 - 1 terms on one key with den = 2^23 - 1: the float64 sums set
    # the digit width, 38 bits, and (den - 1)/den = 0.(1^22 0) in binary
    # puts every digit near 2^38, so each digit sum comes near 2^53
    den = np.full(2**15 - 1, 2**23 - 1, dtype=np.int64)
    inputs = (np.zeros(len(den), dtype=np.int64), den - 1, den, 96, 1)
    present, sums = floor_sums(*inputs)
    assert present.tolist() == [0] and sums == [_exact_floor_sums(*inputs)[0]]


def test_floor_sums_of_empty_input():
    empty = np.zeros(0, dtype=np.int64)
    present, sums = floor_sums(empty, 1 << 192, empty, 0)
    assert present.tolist() == [] and sums == []
