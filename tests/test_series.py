import hashlib
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy

from rootdensity.arith import euler_phi, is_squarefree, mobius
from rootdensity import series
from rootdensity.density import Progression, delta_closed, make_base
from rootdensity.series import SeriesEstimate, c_a, degree_nkr, series_truncated
from rootdensity.sieves import X_CAP, mu_phi_block

from conftest import residues


def _naive_partial_sum(prog: Progression, g: int, N: int) -> Fraction:
    """Term-by-term series straight from the defining formula, exact.

    The degree is the lemma of `degree_nkr` with phi(lcm(f, n)) from sympy
    and the split test written as |delta| dividing lcm(f, n).
    """
    base = make_base(g)
    total = Fraction(0)
    for n in range(1, N + 1):
        mu = mobius(n)
        if mu == 0:
            continue
        if not c_a(n, prog, base):
            continue
        r = math.lcm(prog.f, n)
        splits = r % abs(base.delta) == 0
        deg = series._degree(n, math.gcd(n, base.h), int(sympy.totient(r)), splits)
        total += Fraction(mu, deg)
    return total


class TestDegree:
    def test_square_root_of_two_in_eighth_cyclotomic(self):
        assert degree_nkr(2, 8, make_base(2)) == 4

    def test_pure_cyclotomic(self):
        base = make_base(2)
        for f in (1, 3, 8, 28, 40):
            assert degree_nkr(1, f, base) == euler_phi(f)

    def test_exponent_absorbed_by_h(self):
        assert degree_nkr(3, 3, make_base(8)) == 2  # k1 = 1, phi(3) = 2

    def test_rejects_bad_inputs(self):
        base = make_base(2)
        with pytest.raises(ValueError):
            degree_nkr(4, 8, base)  # not squarefree

    def test_level_is_lcm_past_factor_cap(self):
        # lcm(2^63, 3) = 3 * 2^63 lies beyond factor(); phi comes from f and k / d
        base = make_base(2)
        r = 3 * 2**63
        deg = series._degree(3, math.gcd(3, base.h), int(sympy.totient(r)), r % 8 == 0)
        assert degree_nkr(3, 2**63, base) == deg
        assert degree_nkr(3, 4, base) == degree_nkr(3, 12, base)

    def test_divisibility(self):
        for g in (2, 3, 8, -21, 12):
            base = make_base(g)
            for k in range(1, 40):
                if not is_squarefree(k):
                    continue
                for mult in (1, 2, 3, 8):
                    r = k * mult
                    deg = degree_nkr(k, r, base)
                    assert deg % euler_phi(r) == 0
                    assert (k * euler_phi(r)) % deg == 0


class TestCa:
    def test_level_one(self):
        for g in (2, 3, -5):
            base = make_base(g)
            for f in (1, 4, 9):
                for a in residues(f):
                    assert c_a(1, Progression(a, f), base) == 1

    def test_symbol_blocks_class(self):
        base = make_base(2)
        assert c_a(2, Progression(3, 8), base) == 0  # (8|3) = -1
        assert c_a(2, Progression(7, 8), base) == 1  # (8|7) = 1

    def test_congruence_blocks_class(self):
        base = make_base(2)
        # gcd(f, n) = 3 and a != 1 (mod 3)
        assert c_a(3, Progression(2, 3), base) == 0
        assert c_a(3, Progression(1, 3), base) == 1

    def test_rejects_n_below_one_or_not_squarefree(self):
        base = make_base(2)
        for n, prog in [(0, Progression(1, 4)), (-3, Progression(1, 4)),
                        (4, Progression(1, 4)), (12, Progression(1, 3))]:
            with pytest.raises(ValueError, match="squarefree"):
                c_a(n, prog, base)

    def test_class_sum_collapses_to_single_class(self):
        # sum over a of c_a(n)/degree_f(n) equals the f = 1 series weight
        for g in (2, -3, 8, 21):
            base = make_base(g)
            for f in (3, 8, 12, 24):
                for n in range(1, 101):
                    if not is_squarefree(n):
                        continue
                    deg_f = degree_nkr(n, math.lcm(f, n), base)
                    total = sum(
                        Fraction(c_a(n, Progression(a, f), base), deg_f)
                        for a in residues(f)
                    )
                    assert total == Fraction(1, degree_nkr(n, n, base))


class TestSeriesTruncated:
    def test_two_term_prefix(self):
        est = series_truncated(Progression(1, 1), 2, N=2)
        assert est.partial_sum == Decimal("0.5")  # 1 - 1/2

    def test_matches_naive_formula(self):
        cases = [
            (g, Progression(a, f), 300)
            for g, f in [(2, 1), (2, 8), (-3, 12), (8, 5), (21, 4)]
            for a in residues(f)
        ]
        # degrees phi(f) * n * phi(n) of 62 bits and more, and |delta| =
        # 4 * (2**62 + 1): phi(f) and the clamped |delta| keep them in int64
        cases += [(2, Progression(a, 2**50), 500) for a in (1, 3, 2**49 + 1, 2**50 - 1)]
        cases += [(-(2**62 + 1), Progression(a, 8), 500) for a in residues(8)]
        cases += [
            (2, Progression(a, f), 61) for f in (2**51, 2**52) for a in (1, 3, f // 2 + 1)
        ]
        # the largest f and |g| the API takes; 2**63 - 1 = 7^2*73*127*337*92737*649657
        cases += [(2, Progression(a, 2**63), 60) for a in (1, 3, 2**62 + 1, 2**63 - 1)]
        cases += [(2, Progression(a, 2**63 - 1), 60) for a in (1, 2, 3, 2**63 - 2)]
        cases += [(g, Progression(a, 24), 200) for g in (2**63, -(2**63)) for a in residues(24)]
        cases += [(-(2**63), Progression(a, 2**63), 60) for a in (1, 2**62 - 1)]
        # the strided marks: h = 3 with six primes of f and b = 2 sharing one;
        # h = 7 with |b| = 3 prime to f and |b| = 1; a prime of f above N
        # with |b| = 15 <= N; |b| and |delta| above N
        cases += [(27, Progression(a, 30030), 300) for a in (1, 17, 4621, 30029)]
        cases += [(21**7, Progression(a, 28), 300) for a in residues(28)]
        cases += [(-(3**7), Progression(a, 21), 300) for a in residues(21)]
        cases += [(15, Progression(a, 4 * 307), 300) for a in (1, 3, 615, 1227)]
        cases += [(-223092870, Progression(a, 840), 300) for a in (1, 11, 421, 839)]
        cases += [(3, Progression(1, 2), 300)]
        for g, prog, N in cases:
            est = series_truncated(prog, g, N=N)
            exact = _naive_partial_sum(prog, g, N)
            # N terms floored to units of 2^-192, then one rounding to 50 digits
            half_unit = Fraction(1, 2) * Fraction(10) ** (est.partial_sum.adjusted() - 49)
            bound = Fraction(N, 2**192) + half_unit
            assert abs(Fraction(est.partial_sum) - exact) <= bound, (g, prog, N)

    def test_unit_degree_gives_full_first_digit(self):
        # deg(1) = phi(f) = 1 for f = 1: the long division's first digit is 2^b
        assert series._bucket_sums(1, 2, 1) == (((1, False), 1 << 192),)
        assert series_truncated(Progression(1, 1), 2, N=1).partial_sum == 1

    def test_last_block_without_squarefree_n(self):
        # 327681 = 5 * 2^16 + 1 = 9 * 36409 alone in the last block
        assert mobius(327681) == 0
        assert series._bucket_sums(12, 5, 327681) == series._bucket_sums(12, 5, 327680)

    def test_blocks_leave_bucket_sums_unchanged(self, monkeypatch):
        # the integer bucket sums must not depend on where the blocks end
        cases = [(1, 2, 3000), (28, 2, 3000), (24, -15, 3000), (2**50, 2, 500)]
        # blocks of 7, then of 11, start at every offset mod each striding
        # prime: h > 1, six primes of f, a prime of f above N, |b| squarefree
        # and prime to f, |b| sharing a prime with f, and |b|, |delta| above N
        cases += [(30030, 27, 3000), (28, 21**7, 3000), (21, -(3**7), 3000),
                  (4 * 3001, 15, 3000), (2, 3, 3000), (840, -223092870, 3000)]
        # the squarefree N = 3003 = 7 * 429 is alone in a sieve block of 7
        cases += [(12, 5, 3003)]
        whole = [series._bucket_sums(*case) for case in cases]
        series._bucket_sums.cache_clear()
        # then mu/phi sieve blocks of 7, 1000 and 2^10 numbers, the last
        # also walked in blocks of 11
        sizes = [(series._SIEVE_BLOCK, 7), (series._SIEVE_BLOCK, 11), (7, series._BLOCK),
                 (1000, series._BLOCK), (2**10, series._BLOCK), (2**10, 11)]
        try:
            for sieve_block, block in sizes:
                monkeypatch.setattr(series, "_SIEVE_BLOCK", sieve_block)
                monkeypatch.setattr(series, "_BLOCK", block)
                got = [series._bucket_sums(*case) for case in cases]
                assert got == whole, (sieve_block, block)
                series._bucket_sums.cache_clear()
        finally:
            series._bucket_sums.cache_clear()

    def test_bucket_pass_holds_two_sieve_blocks(self):
        # past 2^20 the pass holds the two cached sieve blocks, 10.5 MB,
        # and the one being built with its mask, 6.3 MB; whole tables
        # peaked at 31 MB
        mu_phi_block.cache_clear()
        series._bucket_sums.cache_clear()
        tracemalloc.start()
        try:
            series._bucket_sums(4, 2, 3 * 2**20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            series._bucket_sums.cache_clear()
        assert peak < 17_000_000

    @pytest.mark.parametrize("f,g,digest", [
        (30030, 27, "26ff227d86f4d17659c58cc3ab9f07a2ab2ed9b58072bb0c8a951db254703982"),
        (840, -223092870, "499f6a7bc7d3cd694040923a29310cf883660c1342e38c8131fa09626eef430e"),
        (28, 21**7, "31f5855629e92425980cc2c7ce8be536b5c06c590d3323f450ed296043879c06"),
        (21, -(3**7), "390cd9d9361755c5c497c990fe3463bd041682c564600e3739b17a0c3d7b2077"),
        (4 * 131101, 15, "b6485afea767a20cea7ceb2bf6af6feb28bcbb5ca03129d99ea8853ac6339fdc"),
        (2, 3, "ea81676e083b2ea59d1e673fe729eb94fee9546bcd7062fa70636cdeef605ca6"),
    ])
    def test_bucket_sums_pinned(self, f, g, digest):
        # sha256 of the repr as the per-term gcd pass built it, over five
        # blocks of 2^15 and three more n; 131101 is a prime above N
        sums = series._bucket_sums(f, g, 2**17 + 3)
        assert hashlib.sha256(repr(sums).encode()).hexdigest() == digest

    def test_converges_to_artin_constant(self):
        est = series_truncated(Progression(1, 1), 2, N=10**4)
        target = delta_closed(Progression(1, 1), 2).numeric(30)
        assert abs(est.partial_sum - target) <= est.tail_bound
        assert abs(est.partial_sum - target) < Decimal("1e-6")

    def test_converges_on_corrected_class(self):
        est = series_truncated(Progression(3, 28), 2, N=10**4)
        target = delta_closed(Progression(3, 28), 2).numeric(30)
        assert abs(est.partial_sum - target) <= est.tail_bound
        assert abs(est.partial_sum - target) < Decimal("1e-6")

    def test_tail_bound_monotone_in_N(self):
        prev = None
        for N in (16, 64, 256, 1024, 4096):
            est = series_truncated(Progression(1, 1), 2, N=N)
            if prev is not None:
                assert est.tail_bound <= prev
            prev = est.tail_bound

    def test_doubling_never_escapes_previous_tail(self):
        for g, f in [(2, 1), (5, 8), (-3, 4)]:
            for a in residues(f):
                prog = Progression(a, f)
                target = delta_closed(prog, g).numeric(30)
                for N in (16, 32, 64, 128, 256, 512):
                    prev = series_truncated(prog, g, N=N)
                    bigger = series_truncated(prog, g, N=2 * N)
                    assert abs(bigger.partial_sum - target) <= prev.tail_bound

    def test_rejects_nonpositive_truncation(self):
        with pytest.raises(ValueError, match="N=0"):
            series_truncated(Progression(1, 1), 2, N=0)

    def test_rejects_truncation_past_cap(self, monkeypatch):
        # checked at the top, naming N, before a table is asked for
        def no_table(lo, hi):
            raise AssertionError("a table was built")

        monkeypatch.setattr(series, "mu_phi_block", no_table)
        with pytest.raises(ValueError, match=f"N={X_CAP + 1}"):
            series_truncated(Progression(1, 1), 2, N=X_CAP + 1)

    def test_estimate_fields(self):
        est = series_truncated(Progression(1, 1), 2, N=100)
        assert isinstance(est, SeriesEstimate)
        assert est.truncation_N == 100
        assert est.tail_bound > 0
