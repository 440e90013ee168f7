import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
import sympy

import rootdensity
from rootdensity.arith import euler_phi, kronecker
from rootdensity.density import InvalidBaseError, Progression, delta_closed
from rootdensity.scan import ScanConfig, is_primitive_root, li, scan

from conftest import brute_order, residues


def _oracle_hits(g: int, f: int, x: int) -> dict[int, int]:
    """Hit counts by enumeration and repeated-multiplication order."""
    hits = {a: 0 for a in residues(f)}
    for p in sympy.primerange(3, x + 1):
        if g % p == 0:
            continue
        cls = p % f or f
        if math.gcd(cls, f) != 1:
            continue
        if brute_order(g, p) == p - 1:
            hits[cls] += 1
    return hits


class TestIsPrimitiveRoot:
    def test_examples(self):
        assert is_primitive_root(2, 3) is True
        assert is_primitive_root(2, 7) is False  # 2**3 = 1 (mod 7)
        assert is_primitive_root(5, 23) is True

    def test_against_brute_order(self):
        for p in sympy.primerange(3, 200):
            for g in (2, 3, 5, -2, 10):
                if g % p == 0:
                    continue
                assert is_primitive_root(g, p) == (brute_order(g, p) == p - 1)

    def test_rejects_two_and_composites(self):
        with pytest.raises(ValueError):
            is_primitive_root(2, 2)
        with pytest.raises(ValueError):
            is_primitive_root(2, 15)

    def test_rejects_divisible_base(self):
        with pytest.raises(ValueError):
            is_primitive_root(21, 7)


class TestScan:
    def test_primes_below_ten(self):
        counts = scan(2, 1, 10)
        assert counts[1].primes_total == 4  # 2, 3, 5, 7

    def test_base_two_to_hundred(self):
        counts = scan(2, 1, 100)
        # oracle: 2 generates mod 3,5,11,13,19,29,37,53,59,61,67,83
        oracle = _oracle_hits(2, 1, 100)
        assert oracle[1] == 12
        assert counts[1].hits == oracle[1]
        assert counts[1].primes_total == 25
        assert counts[1].primes_in_class == 25

    def test_matches_oracle_with_classes(self):
        x = 20_000
        for g, f in [(2, 4), (5, 3), (-3, 8)]:
            counts = scan(g, f, x)
            oracle = _oracle_hits(g, f, x)
            for a in residues(f):
                assert counts[a].hits == oracle[a]

    def test_count_ordering_invariant(self):
        for a, c in scan(3, 8, 50_000).items():
            assert c.hits <= c.primes_in_class <= c.primes_total

    def test_class_sums_against_trivial_modulus(self):
        x = 50_000
        g, f = 2, 12
        counts = scan(g, f, x)
        whole = scan(g, 1, x)
        # the coprime classes miss exactly the primes dividing f
        f_primes = [p for p in (2, 3) if p <= x]
        f_hits = sum(
            1 for p in f_primes if p != 2 and g % p and is_primitive_root(g, p)
        )
        assert sum(c.primes_in_class for c in counts.values()) + len(f_primes) \
            == whole[1].primes_in_class
        assert sum(c.hits for c in counts.values()) + f_hits == whole[1].hits
        assert whole[1].primes_total == counts[1].primes_total

    def test_deterministic_across_worker_counts(self):
        # small segments force the multi-segment pool path for workers > 1
        cfg = dict(segment_size=1 << 14)
        one = scan(2, 5, 10**5, ScanConfig(workers=1, **cfg))
        two = scan(2, 5, 10**5, ScanConfig(workers=2, **cfg))
        three = scan(2, 5, 10**5, ScanConfig(workers=3, **cfg))
        assert one == two == three

    def test_deterministic_across_segment_sizes(self):
        for x, sizes in [(30_000, (1 << 10, 1 << 20)), (10**6, (4096, 10007, 1 << 18))]:
            runs = [scan(-6, 7, x, ScanConfig(segment_size=s)) for s in sizes]
            assert all(run == runs[0] for run in runs)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidBaseError):
            scan(4, 1, 100)
        with pytest.raises(ValueError):
            scan(2, 1, 1)
        with pytest.raises(ValueError):
            scan(2, 1, 10**8 + 1)

    def test_sampled_hits_have_full_order(self):
        # reproduce the scan's hit set independently on a sample
        g, f, x = 2, 4, 10**4
        counts = scan(g, f, x)
        hit_primes = [
            p
            for p in sympy.primerange(3, x + 1)
            if g % p and math.gcd(p % f or f, f) == 1 and is_primitive_root(g, p)
        ]
        assert len(hit_primes) == sum(c.hits for c in counts.values())
        rng = random.Random(13)
        for p in rng.sample(hit_primes, min(100, len(hit_primes))):
            assert brute_order(g, p) == p - 1


class TestHeuristicSum:
    def test_empty_below_first_qualifying_prime(self):
        assert scan(2, 1, 2)[1].heuristic_sum == 0.0

    def test_exact_enumeration_to_hundred(self):
        # 2 * sum over odd p <= 100 with (2|p) = -1 of phi(p-1)/(p-1)
        expected = Fraction(0)
        for p in sympy.primerange(3, 101):
            if kronecker(2, p) == -1:
                expected += 2 * Fraction(euler_phi(p - 1), p - 1)
        got = scan(2, 1, 100)[1].heuristic_sum
        assert got == pytest.approx(float(expected), rel=1e-12)

    def test_h_filter_applies(self):
        # base 8 has h = 3: primes with 3 | p-1 are skipped
        expected = Fraction(0)
        for p in sympy.primerange(3, 2001):
            if kronecker(8, p) == -1 and math.gcd(p - 1, 3) == 1:
                expected += 2 * Fraction(euler_phi(p - 1), p - 1)
        got = scan(8, 1, 2000)[1].heuristic_sum
        assert got == pytest.approx(float(expected), rel=1e-12)

    def test_tracks_scaled_hit_count(self):
        counts = scan(2, 4, 10**5)
        for a, c in counts.items():
            scaled = c.hits * (c.li_x / c.primes_total)
            assert c.heuristic_sum == pytest.approx(scaled, rel=0.05)


class TestLi:
    def test_at_lower_limit(self):
        assert li(2) == 0.0

    def test_value_at_million(self):
        assert li(10**6) == pytest.approx(78626.5, abs=0.5)

    def test_against_mpmath(self):
        for x in (3, 10, 10**3, 10**4, 10**6, 10**7, 10**8):
            expected = float(mpmath.li(x) - mpmath.li(2))
            assert li(x) == pytest.approx(expected, rel=1e-8)

    def test_monotone(self):
        assert li(10**6) < li(2 * 10**6)

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            li(1.5)

    def test_import_leaves_out_scipy(self):
        # a fresh interpreter importing this same copy of the package
        env = {**os.environ, "PYTHONPATH": str(Path(rootdensity.__file__).parents[1])}
        code = "import sys, rootdensity; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestEmpiricalConvergence:
    def test_observed_tracks_predicted_and_improves(self):
        # |hits/total - delta| at 1e6 within 0.01 for g=2, f in {1,3,4,5,8},
        # and shrinking from 1e5 to 1e6 in at least 80% of the cells
        g = 2
        improved = 0
        cells = 0
        for f in (1, 3, 4, 5, 8):
            small = scan(g, f, 10**5)
            large = scan(g, f, 10**6)
            for a in residues(f):
                predicted = float(delta_closed(Progression(a, f), g))
                err_small = abs(small[a].hits / small[a].primes_total - predicted)
                err_large = abs(large[a].hits / large[a].primes_total - predicted)
                assert err_large <= 0.01
                cells += 1
                if err_large <= err_small:
                    improved += 1
        assert improved >= 0.8 * cells
