import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rootdensity.arith import euler_phi, mobius
from rootdensity.sieves import mobius_table, phi_table

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
    assert mu.dtype == np.int8 and phi.dtype == np.int64
    assert len(mu) == len(phi) == limit + 1
    assert (mu[1:] == reference[0][:limit]).all()
    assert (phi[1:] == reference[1][:limit]).all()


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 97, 1000, 1024, 10**4 + 1])
def test_tables_match_scalar_functions(limit, reference):
    _check(limit, reference)


@given(limit=st.sampled_from(_PRIME_POWERS))
@settings(max_examples=60, deadline=None)
def test_tables_at_prime_power_limits(limit, reference):
    # limits that are primes, prime squares and prime powers: the largest
    # index is then its own leftover prime, or a power the sieve divides out
    _check(limit, reference)
