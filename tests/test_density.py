import dataclasses
import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rootdensity.arith import euler_phi, factor, is_fundamental_discriminant, kronecker, mobius
from rootdensity.classify import ZeroCause, _zero_context, zero_density
from rootdensity.density import (
    ARTIN_CONSTANT,
    ARTIN_CONSTANT_30_DIGITS,
    DensityValue,
    InvalidBaseError,
    Progression,
    _closed_context,
    _closed_v2_context,
    _coeff_A_fixed,
    _symbol,
    _value,
    coeff_A,
    delta_closed,
    delta_closed_v2,
    gamma_factor,
    make_base,
    s_of_b,
    w,
)

from conftest import admissible_bases, residues


class TestMakeBase:
    def test_base_two(self):
        b = make_base(2)
        assert (b.h, b.g1, b.g2, b.delta) == (1, 2, 1, 8)

    def test_base_eight(self):
        b = make_base(8)
        assert (b.h, b.g1, b.g2, b.delta) == (3, 2, 2, 8)

    def test_negative_base(self):
        b = make_base(-4)  # not a square: negative
        assert (b.h, b.g1, b.g2, b.delta) == (1, -1, 2, -4)

    def test_minus_eight_exponent(self):
        # -8 = (-2)**3, so h = 3; -32 = (-2)**5
        assert make_base(-8).h == 3
        assert make_base(-32).h == 5
        assert make_base(-16).h == 1  # no integer y with y**2 or y**4 = -16

    @pytest.mark.parametrize("g", [-1, 0, 1, 4, 9, 49, 10**6])
    def test_rejections(self, g):
        with pytest.raises(InvalidBaseError):
            make_base(g)

    def test_h_odd_and_delta_fundamental(self):
        for g in admissible_bases(-10**4, 10**4):
            b = make_base(g)
            assert b.h % 2 == 1
            assert b.g1 * b.g2**2 == g
            assert b.delta == (b.g1 if b.g1 % 4 == 1 else 4 * b.g1)
            assert is_fundamental_discriminant(b.delta)

    def test_h_maximality_brute_force(self):
        # h really is the largest e with g an exact e-th power
        for g in admissible_bases(-300, 300):
            h = make_base(g).h
            found = 1
            for e in range(2, 12):
                r = round(abs(g) ** (1 / e))
                for y in (r - 1, r, r + 1):
                    if y >= 0 and y**e == abs(g) and (g > 0 or e % 2 == 1):
                        found = max(found, e)
            assert h == found


class TestProgression:
    def test_validation(self):
        Progression(1, 1)
        Progression(3, 28)
        with pytest.raises(ValueError):
            Progression(2, 28)
        with pytest.raises(ValueError):
            Progression(0, 5)
        with pytest.raises(ValueError):
            Progression(6, 5)


class TestGammaFactor:
    def test_examples(self):
        b2 = make_base(2)
        assert gamma_factor(28, b2) == (2, 1)
        assert gamma_factor(8, b2) == (1, 8)
        assert gamma_factor(1, b2) == (8, 1)  # even discriminant, f = 1

    def test_odd_b_properties(self):
        for g in admissible_bases(-50, 50):
            base = make_base(g)
            for f in range(1, 60):
                b, gamma = gamma_factor(f, base)
                assert b * math.gcd(f, abs(base.delta)) == base.delta
                if b % 2:
                    assert is_fundamental_discriminant(gamma)
                    assert f % abs(gamma) == 0
                else:
                    assert gamma == 1


class TestW:
    def test_primes_away_from_f_and_h(self):
        for p in (2, 3, 5, 7, 11):
            assert w(p, 9 if p != 3 else 5, 1) == p * (p - 1)

    def test_w2_with_odd_h(self):
        for f in (1, 3, 5, 9, 15):
            for h in (1, 3, 9):
                assert w(2, f, h) == 2

    def test_prime_cases(self):
        assert w(3, 3, 1) == 3        # p | f, p not | h
        assert w(3, 5, 3) == 2        # p | h, p not | f
        assert w(3, 3, 3) == 1        # p | f and p | h
        assert w(6, 1, 1) == 12       # multiplicativity: w(2) w(3) = 2 * 6

    def test_multiplicative_on_coprime_pairs(self):
        # exhaustive over coprime k1, k2 <= 100
        for f, h in ((1, 1), (12, 1), (5, 3), (28, 7)):
            for k1 in range(1, 101):
                wk1 = w(k1, f, h)
                for k2 in range(1, 101):
                    if math.gcd(k1, k2) != 1:
                        continue
                    assert w(k1 * k2, f, h) == wk1 * w(k2, f, h)

    def test_rejects_even_h(self):
        with pytest.raises(ValueError):
            w(3, 1, 2)

    def test_against_definition_past_factor_cap(self):
        # lcm(k, f) exceeds 2**63 here, so w must not factor it
        for f in (2**63, 3 * 2**62, 12, 1):
            for h in (1, 3, 15):
                for k in range(1, 61):
                    want = Fraction(k * int(sympy.totient(math.lcm(k, f))),
                                    math.gcd(k, h) * int(sympy.totient(f)))
                    assert w(k, f, h) == want, (k, f, h)


def _coeff_A_defining_product(a: int, f: int, h: int, prime_bound: int) -> float:
    """The three-factor Euler product, truncated over p <= prime_bound.

    Independent numeric oracle for coeff_A (which returns the exact
    coefficient of the full Artin product).
    """
    if math.gcd(math.gcd(a - 1, f), h) > 1:
        return 0.0
    value = 1.0
    for p in sympy.primerange(2, prime_bound):
        if f % p == 0:
            if (a - 1) % p == 0:
                value *= 1 - 1 / p
        elif h % p == 0:
            value *= 1 - 1 / (p - 1)
        else:
            value *= 1 - 1 / (p * (p - 1))
    return value


class TestCoeffA:
    def test_trivial_class(self):
        assert coeff_A(Progression(1, 1), 1) == 1

    def test_examples(self):
        assert coeff_A(Progression(3, 4), 1) == 1
        assert coeff_A(Progression(3, 28), 1) == Fraction(42, 41)

    def test_zero_on_shared_gcd(self):
        # gcd(a-1, f, h) = 3
        assert coeff_A(Progression(1, 3), 3) == 0
        assert coeff_A(Progression(4, 9), 3) == 0

    @pytest.mark.parametrize(
        "a,f,h",
        [(1, 1, 1), (3, 4, 1), (3, 28, 1), (1, 8, 3), (2, 5, 7), (7, 12, 3)],
    )
    def test_numeric_against_defining_product(self, a, f, h):
        exact = float(coeff_A(Progression(a, f), h) * ARTIN_CONSTANT)
        approx = _coeff_A_defining_product(a, f, h, 10**5)
        assert exact == pytest.approx(approx, abs=1e-4)


class TestSOfB:
    def test_even_b_vanishes(self):
        base = make_base(2)
        assert s_of_b(Progression(3, 28), base) == 0

    def test_b_equal_one(self):
        base = make_base(2)
        for a in residues(8):
            assert s_of_b(Progression(a, 8), base) == coeff_A(Progression(a, 8), 1)

    def test_proof_identity_small_grid(self):
        # phi(f) * delta = coeff_A + (gamma | a) * (-S(b)), exactly; 27
        # (b = 3 when 4 | f) and 21^7 (b = 21 when f is prime to 21) reach
        # w(p) - 1 = p - 2 at p | h
        for g in (-3, 2, 5, 8, 12, 27, 21**7):
            base = make_base(g)
            for f in range(1, 25):
                for a in residues(f):
                    prog = Progression(a, f)
                    _, gamma = gamma_factor(f, base)
                    lhs = euler_phi(f) * delta_closed(prog, g).coefficient
                    rhs = coeff_A(prog, base.h) + kronecker(gamma, a) * (-s_of_b(prog, base))
                    assert lhs == rhs

    def test_proof_identity_at_factor_cap(self):
        # f = 2**63: every odd b here has w(p, f, h) with lcm(p, f) > 2**63
        f = 2**63
        for g in (3, 5, -3, 12):
            base = make_base(g)
            b, gamma = gamma_factor(f, base)
            assert b % 2
            for a in (1, 3, 5, f - 1):
                prog = Progression(a, f)
                denom = 1
                for p in sympy.primefactors(abs(b)):
                    w_p = p * int(sympy.totient(p * f)) // (math.gcd(p, base.h) * int(sympy.totient(f)))
                    assert w(p, f, base.h) == w_p
                    denom *= w_p - 1
                s = s_of_b(prog, base)
                assert s == Fraction(-sympy.mobius(2 * abs(b)), denom) * coeff_A(prog, base.h)
                lhs = euler_phi(f) * delta_closed(prog, g).coefficient
                assert lhs == coeff_A(prog, base.h) + kronecker(gamma, a) * (-s)
                assert delta_closed(prog, g) == delta_closed_v2(prog, g)


class TestDeltaClosed:
    def test_full_artin_density(self):
        assert delta_closed(Progression(1, 1), 2).coefficient == 1

    def test_corrected_class(self):
        assert delta_closed(Progression(3, 28), 2).coefficient == Fraction(7, 82)

    def test_exact_zero(self):
        assert delta_closed(Progression(4, 5), 5).coefficient == 0

    def test_quadratic_correction(self):
        assert delta_closed(Progression(1, 1), 5).coefficient == Fraction(20, 19)

    def test_v2_equality_on_examples(self):
        for a, f, g in [(1, 1, 5), (3, 28, 2), (3, 4, 27), (1, 1, 2), (7, 8, 2)]:
            prog = Progression(a, f)
            assert delta_closed(prog, g).coefficient == delta_closed_v2(prog, g).coefficient

    def test_v2_cubic_zero(self):
        assert delta_closed_v2(Progression(3, 4), 27).coefficient == 0

    def test_partition_small_grid(self):
        for g in (-5, 2, 3, 6, 8):
            d11 = delta_closed(Progression(1, 1), g).coefficient
            for f in range(1, 25):
                total = sum(
                    (delta_closed(Progression(a, f), g).coefficient for a in residues(f)),
                    Fraction(0),
                )
                assert total == d11

    @pytest.mark.parametrize("g", [2, -3, 5, 21**7])
    def test_partition_every_class_of_5040(self, g):
        # a memo keyed by gcd(a-1, f) alone, or by the symbol alone, breaks
        # this identity: classes sharing a key have different densities
        for route in (delta_closed, delta_closed_v2):
            total = sum(
                (route(Progression(a, 5040), g).coefficient for a in residues(5040)),
                Fraction(0),
            )
            assert total == route(Progression(1, 1), g).coefficient

    @given(
        st.sampled_from(admissible_bases(-30, 30)),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_routes_agree_and_nonnegative(self, g, f, seed):
        classes = residues(f)
        a = classes[seed % len(classes)]
        prog = Progression(a, f)
        c1 = delta_closed(prog, g).coefficient
        c2 = delta_closed_v2(prog, g).coefficient
        assert c1 == c2
        assert c1 >= 0
        assert float(DensityValue(c1)) < 1


# The closed forms as first written, one Fraction per factor: an oracle for
# the integer-pair arithmetic the package now does.
def _fraction_chain_fixed(f, h):
    c = Fraction(1)
    for p in factor(h).primes():
        if f % p:
            c *= Fraction(p - 2, p - 1)
    for p in sorted(set(factor(f).primes()) | set(factor(h).primes())):
        c /= 1 - Fraction(1, p * (p - 1))
    return c


def _fraction_chain_coeff_A(prog, h):
    a, f = prog.a, prog.f
    if math.gcd(math.gcd(a - 1, f), h) > 1:
        return Fraction(0)
    c = _fraction_chain_fixed(f, h)
    for p in factor(math.gcd(a - 1, f)).primes():
        c *= Fraction(p - 1, p)
    return c


def _fraction_chain_delta_closed(prog, g):
    base = make_base(g)
    c = _fraction_chain_coeff_A(prog, base.h)
    if c == 0:
        return Fraction(0)
    b, gamma = gamma_factor(prog.f, base)
    corr = Fraction(1)
    mu2b = mobius(2 * abs(b))
    if mu2b:
        denom = 1
        for p in factor(abs(b)).primes():
            denom *= (p - 2) if base.h % p == 0 else (p * p - p - 1)
        corr += Fraction(kronecker(gamma, prog.a) * mu2b, denom)
    return c * corr / euler_phi(prog.f)


def _fraction_chain_delta_closed_v2(prog, g):
    base = make_base(g)
    c = _fraction_chain_coeff_A(prog, base.h)
    if c == 0:
        return Fraction(0)
    f, g1 = prog.f, base.g1
    corr = Fraction(1)
    if g1 % 4 == 1 or (g1 % 4 == 2 and f % 8 == 0) or (g1 % 4 == 3 and f % 4 == 0):
        d = math.gcd(abs(g1), f)
        beta = g1 // d
        gamma1 = d if ((beta - 1) // 2) % 2 == 0 else -d
        denom = 1
        for p in factor(abs(beta)).primes():
            denom *= (p - 2) if base.h % p == 0 else (p * p - p - 1)
        corr -= Fraction(kronecker(gamma1, prog.a) * mobius(abs(beta)), denom)
    return c * corr / euler_phi(f)


class TestIntegerArithmetic:
    @pytest.mark.parametrize(
        "g", [2, -3, 5, 12, -8, 21**7, -(3**7), 1000003 * 1000117]
    )
    def test_equals_fraction_chain(self, g):
        h = make_base(g).h
        for f in range(1, 121):
            for a in residues(f):
                prog = Progression(a, f)
                assert coeff_A(prog, h) == _fraction_chain_coeff_A(prog, h), (a, f)
                assert delta_closed(prog, g).coefficient == _fraction_chain_delta_closed(prog, g), (a, f)
                assert delta_closed_v2(prog, g).coefficient == _fraction_chain_delta_closed_v2(prog, g), (a, f)

    def test_fixed_part_in_lowest_terms(self):
        for h in (1, 3, 7, 15, 105):
            for f in range(1, 121):
                num, den = _coeff_A_fixed(f, h)
                assert type(num) is int and type(den) is int
                assert den > 0 and math.gcd(num, den) == 1
                assert Fraction(num, den) == _fraction_chain_fixed(f, h), (f, h)


# zero_density's per-class rules as first written: an oracle for the
# per-(f, g) context and the prebuilt reasons
def _zero_density_rules(prog, g):
    base = make_base(g)
    a, f = prog.a, prog.f
    causes = set()
    if math.gcd(math.gcd(a - 1, f), base.h) > 1:
        causes.add(ZeroCause.ELEMENTARY_GCD)
    abs_delta = abs(base.delta)
    if f % abs_delta == 0 and kronecker(base.delta, a) == 1:
        causes.add(ZeroCause.DISCRIMINANT_SPLITS)
    if (
        (3 * f) % abs_delta == 0
        and base.delta % 3 == 0
        and base.h % 3 == 0
        and kronecker(-base.delta // 3, a) == -1
    ):
        causes.add(ZeroCause.CUBIC_OBSTRUCTION)
    return bool(causes), frozenset(causes)


class TestContexts:
    def test_eviction_and_call_order(self):
        # 720 (f, g) pairs visited class by class in a shuffled order, so
        # contexts, values and symbols are evicted and rebuilt between
        # classes of one modulus
        bases = [2, -3, 12, 21**7, -(3**7), 1000003 * 1000117]
        contexts = (_closed_context, _closed_v2_context, _zero_context)
        shared = (_value, _symbol)
        for cache in contexts + shared:
            cache.cache_clear()
        triples = [(g, f, a) for g in bases for f in range(1, 121) for a in residues(f)]
        random.Random(16).shuffle(triples)
        for g, f, a in triples:
            prog = Progression(a, f)
            assert delta_closed(prog, g).coefficient == _fraction_chain_delta_closed(prog, g), (g, a, f)
            assert delta_closed_v2(prog, g).coefficient == _fraction_chain_delta_closed_v2(prog, g), (g, a, f)
            reason = zero_density(prog, g)
            assert (reason.triggered, reason.cases) == _zero_density_rules(prog, g), (g, a, f)
        for cache in contexts + shared:
            info = cache.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize
        for context in contexts:
            assert context.cache_info().misses > len(bases) * 120  # some pairs were built again
        for cache in shared:
            info = cache.cache_info()
            assert info.currsize == info.maxsize
            assert info.misses > 10 * info.maxsize  # entries were evicted and built again

    def test_shared_values_across_contexts(self):
        # contexts that share (f, h) but differ in top, denom or the sign of
        # the correction, with h = 1 for four bases and h = 3 for 27: a
        # value cached under a key that leaves out denom or the correction's
        # sign, or a symbol keyed without its top, is read by the wrong
        # context.  Both walks run on warm shared caches after the first.
        pairs = [(f, g) for f in (8, 12, 24, 28, 36) for g in (2, 5, -3, 12, 27)]
        keys = {(f, *dataclasses.astuple(_closed_context(f, g))) for f, g in pairs}
        shared_fh = {(f, _closed_context(f, g).h) for f, g in pairs}
        assert len(keys) > 2 * len(shared_fh)  # (f, h) alone does not name a context
        _value.cache_clear()
        _symbol.cache_clear()
        rng = random.Random(27)
        for _ in range(2):
            rng.shuffle(pairs)
            for f, g in pairs:
                for a in residues(f):
                    prog = Progression(a, f)
                    assert delta_closed(prog, g).coefficient == _fraction_chain_delta_closed(prog, g), (g, a, f)
                    assert delta_closed_v2(prog, g).coefficient == _fraction_chain_delta_closed_v2(prog, g), (g, a, f)
                    reason = zero_density(prog, g)
                    assert (reason.triggered, reason.cases) == _zero_density_rules(prog, g), (g, a, f)
        assert _value.cache_info().hits > 0 and _symbol.cache_info().hits > 0


def _artin_constant_mpmath(dps: int) -> mpmath.mpf:
    """A at dps digits from log A = -sum_{n>=2} (L_n - 1) P(n)/n (L_n the
    Lucas numbers, P the prime zeta function).  The primes below 200 are
    multiplied in directly and taken out of P(n), so the terms fall like
    (golden ratio / 211)^n instead of (golden ratio / 2)^n."""
    small = list(sympy.primerange(2, 200))
    with mpmath.workdps(dps + 10):
        log_a = mpmath.fsum(mpmath.log(1 - mpmath.mpf(1) / (p * (p - 1))) for p in small)
        lucas = [2, 1]
        for n in range(2, 10**4):
            lucas.append(lucas[-1] + lucas[-2])
            tail = mpmath.primezeta(n) - mpmath.fsum(mpmath.mpf(p) ** -n for p in small)
            term = (lucas[n] - 1) * tail / n
            log_a -= term
            if term < mpmath.mpf(10) ** -(dps + 5):
                break
        return +mpmath.exp(log_a)


@pytest.fixture(scope="module")
def artin_100():
    return _artin_constant_mpmath(100)


class TestDensityValue:
    def test_artin_constant_to_70_places(self, artin_100):
        with mpmath.workdps(110):
            stored = mpmath.mpf(ARTIN_CONSTANT.numerator) / ARTIN_CONSTANT.denominator
            assert 0 <= artin_100 - stored < mpmath.mpf(10) ** -70
            assert ARTIN_CONSTANT_30_DIGITS == "0." + str(int(artin_100 * 10**30))

    def test_numeric_30_against_mpmath(self, artin_100):
        # the grid holds g = 3, class 1 mod 5, whose 30th digit needs A past 30 places
        coefficients = {Fraction(1), Fraction(1, 7), Fraction(7, 82), Fraction(1, 10**9)}
        for g in (2, 3, -3, 5, 6, 21, -15):
            for f in (1, 4, 5, 8, 21, 28):
                for a in residues(f):
                    coefficients.add(delta_closed(Progression(a, f), g).coefficient)
        coefficients.discard(Fraction(0))
        with mpmath.workdps(110):
            for c in coefficients:
                value = artin_100 * c.numerator / c.denominator
                exponent = int(mpmath.floor(mpmath.log10(value)))
                digits = int(mpmath.floor(value * mpmath.mpf(10) ** (29 - exponent)))
                expected = Decimal(f"{digits}e{exponent - 29}")
                assert DensityValue(c).numeric(30) == expected, c

    def test_numeric_truncates(self):
        dv = DensityValue(Fraction(1))
        assert str(dv.numeric(12)) == "0.373955813619"
        assert str(dv.numeric(30)) == "0.373955813619202288054728054346"
        assert str(dv.numeric(4)) == "0.3739"

    def test_zero(self):
        assert DensityValue(Fraction(0)).numeric() == Decimal(0)

    def test_digit_bounds(self):
        dv = DensityValue(Fraction(1, 2))
        with pytest.raises(ValueError):
            dv.numeric(0)
        with pytest.raises(ValueError):
            dv.numeric(31)

    def test_range_invariant(self):
        for g in (2, 3, 5, -6, 21):
            for f in (1, 4, 9, 20):
                for a in residues(f):
                    dv = delta_closed(Progression(a, f), g)
                    assert 0 <= dv.numeric(20) < 1
