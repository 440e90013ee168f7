import concurrent.futures
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rootdensity
from rootdensity.arith import euler_phi, factor, kronecker
from rootdensity.density import InvalidBaseError, Progression, delta_closed, make_base
from rootdensity.scan import (
    _TABLE_CAP,
    X_CAP,
    EmpiricalCount,
    ScanConfig,
    _kronecker_table,
    _mod_primes,
    _pow_mod,
    _scan_segment,
    _segment_length,
    _window_table,
    is_primitive_root,
    li,
    scan,
)
from rootdensity.sieves import _sieve_divisors, factor_predecessors, prime_sieve, segment_primes

from conftest import brute_order, residues

# the submodule: the package attribute `scan` is the function
SCAN_MODULE = sys.modules[scan.__module__]
SIEVES_MODULE = sys.modules["rootdensity.sieves"]


def _oracle_hits(g: int, f: int, x: int) -> dict[int, int]:
    """Hit counts by enumeration and sympy's multiplicative order."""
    hits = {a: 0 for a in residues(f)}
    for p in sympy.primerange(3, x + 1):
        if g % p == 0:
            continue
        cls = p % f or f
        if math.gcd(cls, f) != 1:
            continue
        if sympy.n_order(g % p, p) == p - 1:
            hits[cls] += 1
    return hits


def _stub_pool(monkeypatch) -> list[int]:
    """Replace the process pool by a stub that records its size and runs
    the segments in process, so no worker process is started; returns the
    list of recorded sizes."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return sizes


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

    def test_deterministic_across_worker_counts(self, monkeypatch):
        # 25 small base segments and 3 usable cores, enough for pools of 2 and 3
        pools = []

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(SCAN_MODULE, "_usable_cores", lambda: 3)
        monkeypatch.setattr(ScanConfig, "segment_size", 1 << 12)
        one = scan(2, 5, 10**5, ScanConfig(workers=1))
        two = scan(2, 5, 10**5, ScanConfig(workers=2))
        three = scan(2, 5, 10**5, ScanConfig(workers=3))
        assert one == two == three
        assert pools == [2, 3]

    def test_pool_capped_by_cores_and_segments(self, monkeypatch):
        sizes = _stub_pool(monkeypatch)
        monkeypatch.setattr(ScanConfig, "segment_size", 64)
        cfg = ScanConfig(workers=500)
        # x = 64000 and 10240 make 1000 and 160 base segments, 8 per worker for
        # 125 and 20 workers
        for cores, x, want in [(64, 64_000, [64]), (1000, 10_240, [20]), (1, 64_000, [])]:
            sizes.clear()
            monkeypatch.setattr(SCAN_MODULE, "_usable_cores", lambda n=cores: n)
            assert scan(2, 4, x, cfg) == scan(2, 4, x)
            assert sizes == want

    def test_pool_counts_base_segments(self, monkeypatch):
        # stub segments; no large scan runs
        sizes = _stub_pool(monkeypatch)
        monkeypatch.setattr(SCAN_MODULE, "_scan_segment", lambda job: (0, {}, {}, {}))
        monkeypatch.setattr(SCAN_MODULE, "_usable_cores", lambda: 64)
        cfg = ScanConfig(workers=500)
        # below 2^23 the cap is one worker per 8 blocks of base size
        # that x spans, though the segments there are 2^17 numbers long
        base = ScanConfig.segment_size
        xs = [2, 8 * base, 8 * base + 1, 16 * base + 1, 16 * base + 2,
              100 * base + 7, 120 * base + 1, 2**23 - 1]
        for x in xs:
            sizes.clear()
            scan(2, 4, x, cfg)
            cap = min(64, len(range(2, x + 1, ScanConfig.segment_size)) // 8)
            assert sizes == ([cap] if cap > 1 else []), x
        # from 2^23 the segments are longer, but the cap still counts base
        # segments: 256 of them at 2^24 and 1526 at X_CAP
        for x, want in [(2**24, 32), (X_CAP, 64)]:
            sizes.clear()
            scan(2, 4, x, cfg)
            assert sizes == [want], x

    def test_few_segments_run_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        # 2 base segments: fewer than 8 per worker
        assert scan(2, 4, 10**5, ScanConfig(workers=2)) == scan(2, 4, 10**5)

    def test_deterministic_across_segment_sizes(self, monkeypatch):
        for x, sizes in [(30_000, (1 << 10, 1 << 20)), (10**6, (4096, 10007, 1 << 18))]:
            runs = []
            for s in sizes:
                monkeypatch.setattr(SCAN_MODULE, "_segment_length", lambda x, s=s: s)
                runs.append(scan(-6, 7, x))
            assert all(run == runs[0] for run in runs)

    def test_segment_length_from_x(self):
        xs = [2, 10**5, 5 * 10**6, 2**23 - 1, 2**23, 10**7, 3 * 10**7, X_CAP]
        lengths = [_segment_length(x) for x in xs]
        assert all(n & (n - 1) == 0 for n in lengths)
        assert lengths == sorted(lengths)
        assert lengths[:3] == [1 << 17] * 3
        assert lengths[-1] == 1 << 19
        # one switch, at 2^23
        assert _segment_length(2**23 - 1) == 1 << 17
        assert _segment_length(2**23) == 1 << 19
        assert ScanConfig().segment_size == 1 << 16
        with pytest.raises(TypeError):
            ScanConfig(segment_size=64)

    def test_longer_segments_split_x(self, monkeypatch):
        # a stub segment records its bounds; no large scan runs
        seen = []

        def empty(job):
            seen.append(job[2:4])
            return 0, {}, {}, {}

        monkeypatch.setattr(SCAN_MODULE, "_scan_segment", empty)
        for x in (2**23, 2**23 + 1, X_CAP):
            seen.clear()
            length = _segment_length(x)
            assert length > ScanConfig().segment_size
            scan(2, 4, x)
            assert len(seen) == -(-(x - 1) // length)
            assert seen[0][0] == 2 and seen[-1][1] == x + 1
            assert all(hi - lo == length for lo, hi in seen[:-1])

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidBaseError):
            scan(4, 1, 100)
        with pytest.raises(ValueError, match="x=1") as info:
            scan(2, 1, 1, ScanConfig(workers=2))
        assert "ScanConfig" not in str(info.value)
        with pytest.raises(ValueError):
            scan(2, 1, 10**8 + 1)
        for f in (0, 10**6 + 1, 10**8 + 1, 2**63):
            with pytest.raises(ValueError):
                scan(2, f, 1000)
        for config in (ScanConfig(workers=0), ScanConfig(workers=-2)):
            with pytest.raises(ValueError, match="workers >= 1") as info:
                scan(2, 4, 1000, config)
            assert "ScanConfig" not in str(info.value) and " x=" not in str(info.value)

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


# bases with h > 1 (27, 21^7), g outside int64 (2^63), a huge |delta|
# (-223092870 = -2*3*5*...*23); x reaches every prime dividing them and
# spans 9, 4 and 1 segments at the sizes test_grid sets
GRID_BASES = (2, -3, -6, 27, 21**7, -223092870, 2**63, -(2**63))
GRID_MODULI = (1, 4, 5, 7, 12, 840)
GRID_X = 70_000


def _scalar_terms(g: int, primes) -> list[tuple[int, bool, int]]:
    """(p, g is a primitive root mod p, heuristic term in units of 2^-96)
    for each prime p not dividing 2g, by the scalar oracles."""
    h = make_base(g).h
    out = []
    for p in primes:
        if p == 2 or g % p == 0:
            out.append((p, False, 0))
            continue
        term = 0
        if math.gcd(p - 1, h) == 1 and kronecker(g, p) == -1:
            term = (euler_phi(p - 1) << 96) // (p - 1)
        out.append((p, is_primitive_root(g, p), term))
    return out


def _scalar_classes(terms, f: int) -> tuple[Counter, Counter, Counter]:
    in_class, hits, heur = Counter(), Counter(), Counter()
    for p, hit, term in terms:
        cls = p % f or f
        if math.gcd(cls, f) == 1:
            in_class[cls] += 1
            hits[cls] += hit
            heur[cls] += term
    return +in_class, +hits, +heur


def _tested_pairs(g: int, primes) -> int:
    """The (p, q) pairs the order test must take one at a time: for each
    odd p not dividing g with (g|p) = -1 and gcd(p - 1, h) = 1, its odd
    q | p - 1 in ascending order, up to and including the first q with
    g^((p-1)/q) = 1 (mod p), by the scalar oracles."""
    h = make_base(g).h
    pairs = 0
    for p in primes:
        if p == 2 or g % p == 0 or kronecker(g, p) != -1 or math.gcd(p - 1, h) != 1:
            continue
        for q in sorted(factor(p - 1).primes())[1:]:
            pairs += 1
            if pow(g, (p - 1) // q, p) == 1:
                break
    return pairs


def _counting_pow_mod(monkeypatch) -> list[int]:
    """Wrap the scan's `_pow_mod` to record the number of elements of
    each call; returns the list of recorded counts."""
    elements = []

    def counted(table, row, exp, mod):
        elements.append(len(row))
        return _pow_mod(table, row, exp, mod)

    monkeypatch.setattr(SCAN_MODULE, "_pow_mod", counted)
    return elements


@lru_cache(maxsize=None)
def _grid_terms(g: int) -> list[tuple[int, bool, int]]:
    return _scalar_terms(g, list(sympy.primerange(2, GRID_X + 1)))


class TestAgainstScalarOracle:
    """scan() bit for bit against a per-prime loop over is_primitive_root,
    kronecker and euler_phi, with the exact integer heuristic sum."""

    @pytest.mark.parametrize("g", GRID_BASES)
    def test_grid(self, g, monkeypatch):
        # only -223092870 (|delta| = 4 * 223092870) takes the Euler pass
        table = _kronecker_table(make_base(g).delta)
        assert (table is None) == (g == -223092870)
        terms = _grid_terms(g)
        li_x = li(GRID_X)
        default_size = ScanConfig.segment_size
        pools = []

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        # the pool of two below must not depend on the cores of the host
        monkeypatch.setattr(SCAN_MODULE, "_usable_cores", lambda: 2)
        for f in GRID_MODULI:
            in_class, hits, heur = _scalar_classes(terms, f)
            want = {
                a: EmpiricalCount(GRID_X, len(terms), in_class[a], hits[a],
                                  2.0 * (heur[a] / 2**96), li_x)
                for a in residues(f)
            }
            for size in (4096, 10007, default_size):
                monkeypatch.setattr(ScanConfig, "segment_size", size)
                for workers in (1, 2):
                    cfg = ScanConfig(workers=workers)
                    assert scan(g, f, GRID_X, cfg) == want, (f, size, cfg)
        # 18 base segments of 4096 start a pool of 2 for each modulus; 7 of
        # 10007 and 2 of the default run in process
        assert pools == [2] * len(GRID_MODULI)

    def test_segment_ending_at_cap(self):
        # every residue and every product of two stays below 2^63
        assert X_CAP**2 < 2**63
        base_primes = prime_sieve(math.isqrt(X_CAP)).tolist()
        lo, hi = X_CAP - 4000, X_CAP + 1
        primes = list(sympy.primerange(lo, hi))
        for g in (2, -3, 21**7, 2**63):
            terms = _scalar_terms(g, primes)
            base = make_base(g)
            for table in (_kronecker_table(base.delta), None):
                for f in (1, 12):
                    got = _scan_segment((g, f, lo, hi, base_primes, base.h, table))
                    assert got == (len(primes), *_scalar_classes(terms, f)), (g, f)

    def test_table_replaces_euler_pass(self, monkeypatch):
        # with a table, the only modular powers left are the odd-q order
        # tests, one element per (p, q) pair that is still open: one pair
        # per slice shows each p stop at the first q that decides it
        elements = _counting_pow_mod(monkeypatch)
        monkeypatch.setattr(SCAN_MODULE, "_PAIR_CHUNK", 1)
        base_primes = prime_sieve(math.isqrt(GRID_X)).tolist()
        primes = list(sympy.primerange(5, GRID_X + 1))  # the p not dividing 12
        for g in (2, -3, 21**7):
            base = make_base(g)
            job = (g, 12, 2, GRID_X + 1, base_primes, base.h)
            candidates = [p for p in primes if g % p]
            pairs = _tested_pairs(g, primes)
            elements.clear()
            with_table = _scan_segment((*job, _kronecker_table(base.delta)))
            assert sum(elements) == pairs
            elements.clear()
            assert _scan_segment((*job, None)) == with_table
            # without: the Euler pass over every candidate for (g|p)
            assert sum(elements) == pairs + len(candidates)


class TestBoundedSegment:
    """A segment's order test runs in slices of `_PAIR_CHUNK` pairs and its
    stride pass in batches of about `_POSITION_BATCH` positions."""

    @pytest.mark.parametrize("g", (2, -223092870, 27))
    def test_slice_and_batch_edges(self, g, monkeypatch):
        # 8 segments of 2^12 to 30 000, each within one slice and one
        # batch at the default sizes, then one pair and one position per
        # slice and batch, and 7 of each; an element goes to _pow_mod at
        # most once, and with one pair per slice exactly while its p is
        # still open
        elements = _counting_pow_mod(monkeypatch)
        monkeypatch.setattr(ScanConfig, "segment_size", 1 << 11)
        x = 30_000
        want = scan(g, 12, x)
        # one order test per segment, and one Euler pass without a table
        assert len(elements) == 8 * (1 + (g == -223092870))
        primes = list(sympy.primerange(5, x + 1))  # the p not dividing 12
        euler = sum(1 for p in primes if g % p) if g == -223092870 else 0
        pair_total = euler + sum(
            sum(q != 2 for q in factor(p - 1).primes())
            for p in primes if g % p and kronecker(g, p) == -1)
        assert sum(elements) <= pair_total
        for size in (1, 7):
            monkeypatch.setattr(SCAN_MODULE, "_PAIR_CHUNK", size)
            monkeypatch.setattr(SIEVES_MODULE, "_POSITION_BATCH", size)
            elements.clear()
            assert scan(g, 12, x) == want, size
            assert max(elements) <= size and sum(elements) <= pair_total, size
            if size == 1:
                assert sum(elements) == euler + _tested_pairs(g, primes)

    @pytest.mark.parametrize("g", (2, 27, 21**7))
    def test_decided_primes_skip_the_order_test(self, g, monkeypatch):
        # bases with h = 1, 3 and 7: with one pair per slice, the powers
        # taken are exactly the pairs of primes still open, those with
        # gcd(p - 1, h) > 1 never open, and the counts are unchanged
        x = 30_000
        want = scan(g, 1, x)
        primes = list(sympy.primerange(3, x + 1))
        assert want[1].hits == sum(1 for p in primes if g % p and is_primitive_root(g, p))
        elements = _counting_pow_mod(monkeypatch)
        monkeypatch.setattr(SCAN_MODULE, "_PAIR_CHUNK", 1)
        assert scan(g, 1, x) == want
        assert sum(elements) == _tested_pairs(g, primes)

    @staticmethod
    def _peak(g: int, lo: int, x: int) -> int:
        """The tracemalloc peak in bytes of one segment of scan(g, 4, x)
        from lo, after a first call has warmed every cache."""
        base = make_base(g)
        job = (g, 4, lo, lo + _segment_length(x), prime_sieve(math.isqrt(x)).tolist(),
               base.h, _kronecker_table(base.delta))
        _scan_segment(job)
        tracemalloc.start()
        try:
            _scan_segment(job)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the peaks of one 2^16-number segment of scan(g, 4, 5 * 10^6) from
    # lo = 2 and from lo = 4 * 10^6, measured before the order test ran in
    # slices and the stride pass in batches (numpy 2.4)
    @pytest.mark.parametrize("g, before", [
        (2, (865_662, 669_760)),
        (-223092870, (848_914, 674_395)),
    ])
    def test_working_set(self, g, before):
        # a 2^17-number segment holds no more than a 2^16 one did
        assert _segment_length(5 * 10**6) == 1 << 17
        for lo, peak in zip((2, 4_000_000), before):
            assert self._peak(g, lo, 5 * 10**6) <= peak, lo
        # and a 2^19-number one near 3 * 10^7 stays under 3.2 MB, where it
        # peaked at 4.7 MB
        assert self._peak(g, 3 * 10**7 - (1 << 19), 3 * 10**7) < 3_200_000


class TestArrayKernels:
    """The scan's array steps against the scalar functions they replace."""

    @given(st.lists(st.tuples(st.integers(2, X_CAP), st.integers(0, X_CAP),
                              st.integers(0, 2**27)), min_size=1, max_size=40))
    @example([(99999989, 99999988, 99999988), (99999989, 99999987, 2**27 - 1),
              (99999971, 0, 0), (2, 1, 1)])
    # exponents of every bit length mod 3, so leading window digits of
    # one, two and three bits, and the empty array
    @example([(99999989, 12345678, e) for e in range(9)])
    @example([(99999971, 3, 2**k + d) for k in range(1, 28) for d in (-1, 1)])
    @example([])
    @settings(max_examples=200, deadline=None)
    def test_pow_mod_against_pow(self, rows):
        mod = np.array([m for m, _, _ in rows], dtype=np.int64)
        base = np.array([b % m for m, b, _ in rows], dtype=np.int64)
        exp = np.array([e for _, _, e in rows], dtype=np.int64)
        want = [pow(int(b), int(e), int(m)) for m, b, e in zip(mod, base, exp)]
        table = _window_table(base, mod)
        assert table.dtype == np.int32 and table.shape == (len(rows), 8)
        frozen = table.copy()
        row = np.arange(len(rows))
        assert _pow_mod(table, row, exp, mod).tolist() == want
        # each element reads the row it names, in any order
        assert _pow_mod(table, row[::-1], exp[::-1], mod[::-1]).tolist() == want[::-1]
        # the inputs are left as they were
        assert base.tolist() == [b % m for m, b, _ in rows]
        assert exp.tolist() == [e for _, _, e in rows]
        assert mod.tolist() == [m for m, _, _ in rows]
        assert np.array_equal(table, frozen) and row.tolist() == list(range(len(rows)))

    @given(st.integers(1, X_CAP // 2 - 1000),
           st.lists(st.integers(0, 999), min_size=1, max_size=60, unique=True))
    @example(1, [0])  # n = 3: n - 1 = 2 with no odd base prime
    @example(X_CAP // 2 - 1000, [999, 998, 500, 0])  # n up to X_CAP - 1
    @settings(max_examples=200, deadline=None)
    def test_factor_predecessors_against_factor(self, start, offsets):
        ns = sorted(2 * (start + o) + 1 for o in offsets)
        base_primes = prime_sieve(math.isqrt(ns[-1] - 1)).tolist()
        idx, q, phi = factor_predecessors(np.array(ns, dtype=np.int64), base_primes)
        pairs = sorted(zip(idx.tolist(), q.tolist()))
        assert len(set(pairs)) == len(pairs)
        want = sorted((i, r) for i, n in enumerate(ns) for r in factor(n - 1).primes())
        assert pairs == want
        assert phi.tolist() == [euler_phi(n - 1) for n in ns]

    def test_factor_predecessors_on_a_full_window_at_cap(self):
        # the primes of one 2^16-number window below X_CAP: every base
        # prime q from 64 to sqrt(X_CAP) = 10^4 strides it several times
        lo, hi = X_CAP + 1 - (1 << 16), X_CAP + 1
        base_primes = prime_sieve(math.isqrt(X_CAP)).tolist()
        ns = segment_primes(lo, hi, base_primes)
        idx, q, phi = factor_predecessors(ns, base_primes)
        pairs = sorted(zip(idx.tolist(), q.tolist()))
        assert len(set(pairs)) == len(pairs)
        want = sorted((i, r) for i, n in enumerate(ns.tolist()) for r in factor(n - 1).primes())
        assert pairs == want
        assert phi.tolist() == [euler_phi(n - 1) for n in ns.tolist()]

    def test_sieve_divisors_in_batches(self, monkeypatch):
        # the same (idx, q) in the same order for any batch size: one
        # position or seven per batch against one batch of them all, on
        # every other prime of a window at the bottom and one at X_CAP
        base_primes = prime_sieve(math.isqrt(X_CAP)).tolist()
        for lo, hi in [(3, 30_000), (X_CAP + 1 - (1 << 15), X_CAP + 1)]:
            ns = segment_primes(lo, hi, base_primes)[::2]
            monkeypatch.setattr(SIEVES_MODULE, "_POSITION_BATCH", 1 << 30)
            idx, q = _sieve_divisors(ns, base_primes)
            for size in (1, 7, 1 << 12):
                monkeypatch.setattr(SIEVES_MODULE, "_POSITION_BATCH", size)
                got_idx, got_q = _sieve_divisors(ns, base_primes)
                assert got_idx.dtype == got_q.dtype == np.int32
                assert np.array_equal(got_idx, idx) and np.array_equal(got_q, q), (lo, size)

    @given(st.integers(-(2**63), 2**63), st.integers(3, X_CAP - 3000))
    @example(-(2**63), X_CAP - 3000)
    @example(2**63, 3)
    @example(-223092870, 3)
    @settings(max_examples=100, deadline=None)
    def test_euler_signs_against_kronecker(self, g, lo):
        base_primes = prime_sieve(math.isqrt(lo + 3000)).tolist()
        p = segment_primes(lo, lo + 3000, base_primes)
        gp = _mod_primes(g, p)
        assert gp.tolist() == [g % int(r) for r in p]
        keep = gp != 0
        p, gp = p[keep], gp[keep]
        power = _pow_mod(_window_table(gp, p), np.arange(len(p)), p >> 1, p)
        sign = np.where(power == p - 1, -1, power)
        assert sign.tolist() == [kronecker(g, int(r)) for r in p]

    @given(st.one_of(st.integers(-(2**63), 2**63),
                     st.builds(lambda s, t: s * t * t, st.integers(-_TABLE_CAP, _TABLE_CAP),
                               st.integers(1, 2**25))),
           st.integers(3, X_CAP - 3000))
    @example(2**63, 3)  # delta = 8
    @example(-(2**63), X_CAP - 3000)  # delta = -8
    @example(21**7, 3)  # delta = 21
    @example(-223092870, 3)  # |delta| > 2^12: no table
    @settings(max_examples=100, deadline=None)
    def test_character_table_against_kronecker(self, g, lo):
        try:
            delta = make_base(g).delta
        except InvalidBaseError:
            assume(False)
        table = _kronecker_table(delta)
        assert (table is None) == (abs(delta) > _TABLE_CAP)
        if table is None:
            return
        assert len(table) == abs(delta)
        base_primes = prime_sieve(math.isqrt(lo + 3000)).tolist()
        p = segment_primes(lo, lo + 3000, base_primes)
        p = p[(p != 2) & (_mod_primes(g, p) != 0)]
        assert table[p % abs(delta)].tolist() == [kronecker(g, int(r)) for r in p]


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
