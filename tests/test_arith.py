import dataclasses
import math
import random

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootdensity import arith
from rootdensity.arith import (
    Factorization,
    euler_phi,
    factor,
    is_fundamental_discriminant,
    is_prime,
    is_squarefree,
    kronecker,
    mobius,
    squarefree_decompose,
)


class TestFactor:
    def test_one_has_empty_factor_list(self):
        assert factor(1).factors == ()

    def test_small_composite(self):
        assert factor(28).factors == ((2, 2), (7, 1))

    def test_large_prime(self):
        # independent primality oracle
        assert sympy.isprime(999983)
        assert factor(999983).factors == ((999983, 1),)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factor(0)

    def test_rejects_beyond_cap(self):
        with pytest.raises(ValueError):
            factor(2**63 + 1)

    def test_rho_fallback_on_large_semiprime(self):
        n = 1000003 * 1000033  # both factors above 41, so rho splits n
        assert factor(n).factors == ((1000003, 1), (1000033, 1))

    def test_mersenne_prime(self):
        assert factor(2**61 - 1).factors == ((2**61 - 1, 1),)

    def test_primes_built_once(self):
        # the cached factorization hands back one tuple, and the cache
        # behind it is no field: equality, hash and repr see value and
        # factors only
        fac = factor(360)
        assert fac.primes() == (2, 3, 5) and fac.primes() is fac.primes()
        fresh = Factorization(360, ((2, 3), (3, 2), (5, 1)))
        assert fac == fresh and hash(fac) == hash(fresh)
        assert repr(fac) == "Factorization(value=360, factors=((2, 3), (3, 2), (5, 1)))"
        assert [f.name for f in dataclasses.fields(fac)] == ["value", "factors"]

    @given(st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_sympy(self, n):
        assert dict(factor(n).factors) == sympy.factorint(n)

    @given(
        st.lists(
            st.tuples(st.integers(min_value=42, max_value=10**6), st.integers(1, 12)),
            min_size=1,
            max_size=4,
        ),
        st.lists(st.sampled_from(list(sympy.primerange(42))), max_size=10),
    )
    @settings(max_examples=200, deadline=None)
    @example([(43, 11)], [])
    @example([(999983, 3)], [])
    @example([(43, 1), (47, 1)], [])
    @example([(43, 9)], [2] * 10)
    def test_rough_parts_agree_with_sympy(self, powers, smooth):
        # past the primes up to 41, only is_prime and rho see the cofactor
        n = math.prod(smooth)
        for q, e in powers:
            q = sympy.nextprime(q - 1)
            if q < 10**6 and n * q**e <= 2**63:
                n *= q**e
        assert dict(factor(n).factors) == sympy.factorint(n)

    def test_invalid_factorization_rejected(self):
        with pytest.raises(ValueError):
            Factorization(value=12, factors=((2, 1), (3, 1)))
        with pytest.raises(ValueError):
            Factorization(value=12, factors=((3, 1), (2, 2)))
        with pytest.raises(ValueError):
            Factorization(value=8, factors=((8, 1),))

    def test_each_large_prime_tested_once(self, monkeypatch):
        calls = []

        def counting_is_prime(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(arith, "is_prime", counting_is_prime)
        # factor.__wrapped__ bypasses the cache, so the call is cold
        assert factor.__wrapped__(10**9 + 7).factors == ((10**9 + 7, 1),)
        assert calls == [10**9 + 7]


class TestIsPrime:
    def test_rejects_twelfth_strong_pseudoprime(self):
        # psi_12: a strong pseudoprime to every prime base up to 37
        psi12 = 318665857834031151167461
        assert not sympy.isprime(psi12)
        assert is_prime(psi12) is False

    def test_raises_beyond_deterministic_range(self):
        with pytest.raises(ValueError):
            is_prime(3317044064679887385961981)  # psi_13

    def test_agrees_with_sympy_below_3000(self):
        # covers the trial-division shortcut below 43^2 and its edge: 1849 = 43^2
        for n in range(-2, 3000):
            assert is_prime(n) == sympy.isprime(n), n


class TestMobiusPhi:
    def test_examples(self):
        assert mobius(1) == 1
        assert mobius(4) == 0
        assert mobius(30) == -1  # 2*3*5, three distinct primes
        assert euler_phi(1) == 1
        assert euler_phi(28) == 12
        assert euler_phi(8) == 4

    def test_phi_against_definition(self):
        for n in range(1, 2001):
            assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    def test_mobius_against_definition(self):
        for n in range(1, 2001):
            m, count, square = n, 0, False
            d = 2
            while d * d <= m:
                if m % d == 0:
                    count += 1
                    m //= d
                    if m % d == 0:
                        square = True
                        break
                    continue
                d += 1
            if m > 1:
                count += 1
            expected = 0 if square else (-1) ** count
            assert mobius(n) == expected

    def test_against_sieve_to_1e4(self):
        limit = 10**4
        mu = [1] * (limit + 1)
        phi = list(range(limit + 1))
        sieve = [True] * (limit + 1)
        for p in range(2, limit + 1):
            if not sieve[p]:
                continue
            for m in range(2 * p, limit + 1, p):
                sieve[m] = False
            for m in range(p, limit + 1, p):
                mu[m] = -mu[m]
                phi[m] -= phi[m] // p
            for m in range(p * p, limit + 1, p * p):
                mu[m] = 0
        for n in range(1, limit + 1):
            assert mobius(n) == mu[n]
            assert euler_phi(n) == phi[n]


class TestSquarefreeDecompose:
    def test_examples(self):
        dec = squarefree_decompose(8)
        assert (dec.g1, dec.g2) == (2, 2)
        dec = squarefree_decompose(21)
        assert (dec.g1, dec.g2) == (21, 1)
        dec = squarefree_decompose(-75)
        assert (dec.g1, dec.g2) == (-3, 5)

    def test_minus_75_brute_force(self):
        # largest square divisor of 75 by enumeration gives the oracle pair
        g2 = max(d for d in range(1, 76) if 75 % (d * d) == 0)
        assert (-75 // g2**2, g2) == (-3, 5)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            squarefree_decompose(0)

    @given(st.integers(min_value=-10**9, max_value=10**9).filter(lambda g: g != 0))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, g):
        dec = squarefree_decompose(g)
        assert dec.g1 * dec.g2**2 == g
        assert dec.g2 > 0
        assert is_squarefree(dec.g1)
        assert (dec.g1 > 0) == (g > 0)


class TestKronecker:
    def test_examples(self):
        assert kronecker(8, 3) == -1
        assert kronecker(5, 11) == 1  # 4^2 = 16 = 5 (mod 11)
        assert kronecker(7, -1) == 1
        assert kronecker(-7, -1) == -1

    def test_rejects_zero_bottom(self):
        with pytest.raises(ValueError):
            kronecker(5, 0)

    def test_zero_top_convention(self):
        assert kronecker(0, 1) == 1
        assert kronecker(0, -1) == 1
        assert kronecker(0, 5) == 0
        assert kronecker(0, 2) == 0

    def test_shared_factor_gives_zero(self):
        assert kronecker(6, 9) == 0
        assert kronecker(10, 4) == 0

    def test_legendre_euler_criterion(self, small_primes):
        rng = random.Random(7)
        odd_primes = [p for p in small_primes if p > 2]
        for _ in range(2000):
            p = rng.choice(odd_primes)
            a = rng.randrange(-3 * p, 3 * p)
            e = pow(a % p, (p - 1) // 2, p)
            expected = 0 if e == 0 else (1 if e == 1 else -1)
            assert kronecker(a, p) == expected

    @given(
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=-10**4, max_value=10**4).filter(lambda b: b != 0),
    )
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_sympy(self, a, b):
        assert kronecker(a, b) == sympy.kronecker_symbol(a, b)

    @given(
        st.integers(min_value=-10**5, max_value=10**5),
        st.integers(min_value=-10**3, max_value=10**3).filter(lambda b: b != 0),
        st.integers(min_value=-10**3, max_value=10**3).filter(lambda b: b != 0),
    )
    @settings(max_examples=300, deadline=None)
    def test_multiplicative_in_bottom(self, a, b1, b2):
        assert kronecker(a, b1 * b2) == kronecker(a, b1) * kronecker(a, b2)

    def test_reciprocity(self):
        rng = random.Random(11)
        checked = 0
        while checked < 2000:
            m = rng.randrange(1, 2000) * 2 + 1
            n = rng.randrange(1, 2000) * 2 + 1
            if math.gcd(m, n) != 1:
                continue
            sign = (-1) ** (((m - 1) * (n - 1)) // 4)
            assert kronecker(n, m) * kronecker(m, n) == sign
            checked += 1

    def test_discriminant_periodicity(self):
        # (D | a + kD) = (D | a) for fundamental discriminants
        for absd in range(1, 201):
            for d in (absd, -absd):
                if not is_fundamental_discriminant(d):
                    continue
                for a in range(1, abs(d) + 1):
                    if math.gcd(a, abs(d)) != 1:
                        continue
                    ref = kronecker(d, a)
                    for k in range(1, 11):
                        assert kronecker(d, a + k * d) == ref


class TestFundamentalDiscriminant:
    def test_known_values(self):
        for d in (1, 5, 8, -3, -4, -8, 12, 13, -7, 21, 24):
            assert is_fundamental_discriminant(d)
        for d in (0, 2, 3, -5, 4, 9, 16, -9, 25, 18):
            assert not is_fundamental_discriminant(d)

