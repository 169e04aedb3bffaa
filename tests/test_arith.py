import random
import time
from fractions import Fraction
from functools import cache
from math import comb, gcd, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heckebound.arith as arith
from heckebound.arith import (
    InternalCheckError,
    QuadraticCharacter,
    bernoulli,
    generalized_bernoulli,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    primes_between,
    von_staudt_clausen_denominator,
    zeta_special_value,
)
from heckebound.numberfield import FieldSpec

# Reference routes for the differential tests: the defining O(n^2)
# Bernoulli recurrence, and B_{n,chi} as a sum of Bernoulli-polynomial
# values, one per residue a (the kernel sums power sums, one per index k).
REFERENCE_LIMIT = 300


@cache
def _recurrence_table() -> tuple[Fraction, ...]:
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1
    table = [Fraction(1)]
    for n in range(1, REFERENCE_LIMIT + 1):
        s = sum(comb(n + 1, k) * table[k] for k in range(n))
        table.append(Fraction(-s, n + 1))
    return tuple(table)


def reference_bernoulli(n: int) -> Fraction:
    return _recurrence_table()[n]


@cache
def _cleared_polynomial(n: int) -> tuple[int, tuple[int, ...]]:
    # (L, e) with L * C(n, k) * B_k = e_k an integer for every k
    coefficients = [comb(n, k) * reference_bernoulli(k) for k in range(n + 1)]
    scale = lcm(*(c.denominator for c in coefficients))
    return scale, tuple(c.numerator * (scale // c.denominator) for c in coefficients)


def bernoulli_polynomial(n: int, x: Fraction) -> Fraction:
    """B_n(x) = sum_k C(n, k) B_k x^(n-k), evaluated exactly.

    For x = p/q the sum is formed over the integer coefficients e_k and
    the denominator L * q^n, so it costs one Fraction, not n + 1.
    """
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    scale, cleared = _cleared_polynomial(n)
    total = sum(e * p ** (n - k) * q**k for k, e in enumerate(cleared))
    return Fraction(total, scale * q**n)


def reference_generalized_bernoulli(n: int, d: int) -> Fraction:
    """B_{n,chi_D} = D^(n-1) sum_{a=1}^{D} chi_D(a) B_n(a/D)."""
    total = sum(
        c * bernoulli_polynomial(n, Fraction(a, d))
        for a in range(1, d + 1)
        if (c := kronecker(d, a))
    )
    return d ** (n - 1) * total


FUNDAMENTAL_BELOW_3000 = [
    d for d in range(2, 3001) if is_fundamental_discriminant(d)
]


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_vanishing():
    for n in range(3, 41, 2):
        assert bernoulli(n) == 0


def test_bernoulli_von_staudt_clausen():
    # independent handle on the tangent-number table: denominators of
    # even-index values are the product of primes p with (p-1) | n
    for n in range(2, 41, 2):
        assert bernoulli(n).denominator == von_staudt_clausen_denominator(n)


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_polynomial_values():
    # B_2(x) = x^2 - x + 1/6
    assert bernoulli_polynomial(2, Fraction(1, 5)) == Fraction(1, 150)
    assert bernoulli_polynomial(2, Fraction(2, 5)) == Fraction(-11, 150)
    # B_n(0) = B_n
    for n in range(8):
        assert bernoulli_polynomial(n, Fraction(0)) == bernoulli(n)


def test_bernoulli_matches_recurrence(monkeypatch):
    # start from an empty table so every doubling of it is exercised
    monkeypatch.setattr(arith, "_bern_even", (Fraction(1),))
    for n in range(REFERENCE_LIMIT + 1):
        assert bernoulli(n) == reference_bernoulli(n), n


def test_bernoulli_table_from_cold_is_fast(monkeypatch):
    # the recurrence took about a minute here; tangent numbers take < 1 s
    monkeypatch.setattr(arith, "_bern_even", (Fraction(1),))
    start = time.perf_counter()
    value = bernoulli(1600)
    assert time.perf_counter() - start < 5
    assert value.denominator == von_staudt_clausen_denominator(1600)
    assert value < 0  # sign (-1)^(k-1) at k = 800


def test_kronecker_examples():
    assert kronecker(5, 2) == -1  # 5 = -3 mod 8
    assert kronecker(5, 11) == 1  # 4^2 = 5 mod 11
    for a in (-7, -1, 0, 1, 2, 9, 100):
        assert kronecker(a, 1) == 1


def test_kronecker_against_euler_criterion():
    # for odd primes the symbol is the quadratic residue indicator
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for a in range(-30, 31):
            e = pow(a % p, (p - 1) // 2, p)
            expected = 0 if a % p == 0 else (1 if e == 1 else -1)
            assert kronecker(a, p) == expected, (a, p)


def test_kronecker_multiplicative_random_grid():
    rng = random.Random(20240811)
    for _ in range(400):
        a = rng.randint(-200, 200)
        b = rng.randint(-200, 200)
        m = rng.randint(1, 200)
        n = rng.randint(1, 200)
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_kronecker_special_arguments():
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(2, 0) == 0
    assert kronecker(-3, -1) == -1
    assert kronecker(3, -1) == 1


def test_fundamental_discriminant_recognition():
    assert is_fundamental_discriminant(5)
    assert is_fundamental_discriminant(8)
    assert is_fundamental_discriminant(12)
    assert is_fundamental_discriminant(13)
    assert not is_fundamental_discriminant(4)
    assert not is_fundamental_discriminant(9)
    assert not is_fundamental_discriminant(16)
    assert not is_fundamental_discriminant(45)  # 9 * 5


def test_character_periodicity_and_zero_locus():
    for d in (5, 8, 12, 13):
        chi = QuadraticCharacter(d)
        for n in range(1, 3 * d + 1):
            assert chi(n) == chi(n + d)
            assert (chi(n) == 0) == (gcd(n, d) > 1)
            assert chi(n) in (-1, 0, 1)


def test_character_validation():
    with pytest.raises(ValueError):
        QuadraticCharacter(9)
    with pytest.raises(ValueError):
        QuadraticCharacter(-4)
    with pytest.raises(ValueError):
        QuadraticCharacter(1)  # the rationals never build a character


def test_character_is_an_immutable_value():
    chi = QuadraticCharacter(5)
    assert chi == QuadraticCharacter(5) != QuadraticCharacter(8)
    assert len({chi, QuadraticCharacter(5), QuadraticCharacter(8)}) == 2
    with pytest.raises(AttributeError):
        chi.discriminant = 8


def test_generalized_bernoulli_values():
    chi5 = QuadraticCharacter(5)
    assert generalized_bernoulli(2, chi5) == Fraction(4, 5)
    assert generalized_bernoulli(4, chi5) == -8
    assert generalized_bernoulli(1, chi5) == 0  # even character
    assert generalized_bernoulli(2, QuadraticCharacter(8)) == 2


def test_generalized_bernoulli_matches_polynomial_sum():
    for d in [d for d in FUNDAMENTAL_BELOW_3000 if d < 300]:
        chi = QuadraticCharacter(d)
        for n in range(1, 9):
            expected = reference_generalized_bernoulli(n, d)
            assert generalized_bernoulli(n, chi) == expected, (d, n)


@settings(max_examples=25, deadline=None)
@given(
    d=st.sampled_from(FUNDAMENTAL_BELOW_3000),
    n=st.integers(min_value=1, max_value=12),
)
def test_generalized_bernoulli_random_against_polynomial_sum(d, n):
    expected = reference_generalized_bernoulli(n, d)
    assert generalized_bernoulli(n, QuadraticCharacter(d)) == expected


def test_generalized_bernoulli_rejects_trivial():
    # the trivial character cannot be built, so it never reaches B_{n,chi}
    with pytest.raises(ValueError):
        generalized_bernoulli(2, QuadraticCharacter(1))
    with pytest.raises(ValueError):
        generalized_bernoulli(0, QuadraticCharacter(5))


ZETA_Q = {
    1: Fraction(-1, 12),
    2: Fraction(1, 120),
    3: Fraction(-1, 252),
    4: Fraction(1, 240),
    5: Fraction(-1, 132),
    6: Fraction(691, 32760),
}


def test_zeta_rational_values():
    q = FieldSpec.rationals()
    for j, expected in ZETA_Q.items():
        assert zeta_special_value(q, j) == expected
        assert zeta_special_value(q, j) == -bernoulli(2 * j) / (2 * j)


def test_zeta_real_quadratic_values():
    r5 = FieldSpec.real_quadratic(5)
    assert zeta_special_value(r5, 1) == Fraction(1, 30)
    assert zeta_special_value(r5, 2) == Fraction(1, 60)
    # zeta_{Q(sqrt 2)}(-1) = 1/12 is classical
    assert zeta_special_value(FieldSpec.real_quadratic(8), 1) == Fraction(1, 12)


def _sigma(k: int, n: int) -> int:
    total = 0
    for e in range(1, isqrt(n) + 1):
        if n % e == 0:
            total += e**k + ((n // e) ** k if e * e != n else 0)
    return total


# j -> (k, c): zeta_F(1-2j) = (1/c) sum sigma_k((d - x^2)/4)
_SIEGEL_COEFFICIENTS = {1: (1, 60), 2: (3, 120)}


def _siegel_zeta(d: int, j: int) -> Fraction:
    # Siegel's formula (dim M_{4j} = 1 for j = 1, 2), summed over integers
    # x with x^2 < d and x = d mod 2, i.e. x^2 = d mod 4
    k, c = _SIEGEL_COEFFICIENTS[j]
    total = sum(
        _sigma(k, (d - x * x) // 4)
        for x in range(-isqrt(d - 1), isqrt(d - 1) + 1)
        if (d - x * x) % 4 == 0
    )
    return Fraction(total, c)


SIEGEL_DISCRIMINANTS = [d for d in FUNDAMENTAL_BELOW_3000 if d < 400]


def test_zeta_minus_one_against_divisor_sums():
    # a second, character-free route to the same special value
    for d in SIEGEL_DISCRIMINANTS:
        fld = FieldSpec.real_quadratic(d)
        assert zeta_special_value(fld, 1) == _siegel_zeta(d, 1), d


def test_zeta_minus_three_against_divisor_sums():
    for d in SIEGEL_DISCRIMINANTS:
        fld = FieldSpec.real_quadratic(d)
        assert zeta_special_value(fld, 2) == _siegel_zeta(d, 2), d


def test_zeta_at_large_discriminant_is_fast():
    # the Bernoulli-polynomial route took about 4.5 s here
    arith._character_support.cache_clear()
    start = time.perf_counter()
    value = zeta_special_value(FieldSpec.real_quadratic(100001), 1)
    assert time.perf_counter() - start < 3
    assert value == _siegel_zeta(100001, 1)


def test_character_support_keeps_only_the_last_discriminant():
    support = arith._character_support
    support.cache_clear()
    m = 4
    for j in range(1, m + 1):
        zeta_special_value(FieldSpec.real_quadratic(5), j)
    info = support.cache_info()
    assert (info.hits, info.misses, info.currsize) == (m - 1, 1, 1)
    zeta_special_value(FieldSpec.real_quadratic(8), 1)
    info = support.cache_info()
    assert (info.misses, info.currsize) == (2, 1)


def test_zeta_sign_law():
    for fld in (
        FieldSpec.rationals(),
        FieldSpec.real_quadratic(5),
        FieldSpec.real_quadratic(8),
        FieldSpec.real_quadratic(12),
        FieldSpec.real_quadratic(13),
    ):
        d = fld.degree
        for j in range(1, 7):
            value = zeta_special_value(fld, j)
            assert value != 0
            assert (value > 0) == ((d * j) % 2 == 0), (fld, j)


def test_zeta_sign_violation_raises_internal_check_error(monkeypatch):
    # B_4 with the wrong sign makes zeta(-3) negative; the check must
    # raise a real exception, which python -O cannot strip
    monkeypatch.setattr(arith, "bernoulli", lambda n: Fraction(1, 30))
    with pytest.raises(InternalCheckError, match="sign violated") as info:
        zeta_special_value(FieldSpec.rationals(), 2)
    assert not isinstance(info.value, AssertionError)


def test_zeta_rejects_bad_index():
    with pytest.raises(ValueError):
        zeta_special_value(FieldSpec.rationals(), 0)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-2, 50):
        assert is_prime(n) == (n in primes)
    assert is_prime(104729)
    assert not is_prime(104729 * 104723)


def _sieve(limit: int) -> bytearray:
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, limit + 1, i)))
    return flags


# psi_k, the least odd composite that is a strong probable prime to each of
# the first k prime bases (psi_7 = psi_8, psi_9 = psi_10 = psi_11)
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051)


def test_is_prime_rejects_each_psi_k():
    # each psi_k is the first n that k bases would pass: is_prime must
    # switch to more bases at psi_k, not after it
    for psi in PSI:
        assert not is_prime(psi), psi


def test_is_prime_agrees_with_a_sieve_below_10_6():
    flags = _sieve(10**6)
    assert [n for n in range(10**6 + 1) if is_prime(n)] == [
        n for n in range(10**6 + 1) if flags[n]
    ]


def _is_prime_12_bases(n: int) -> bool:
    # the reference: Miller-Rabin to all twelve prime bases 2..37
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.integers(0, 10**24),
    st.sampled_from(PSI).flatmap(lambda psi: st.integers(psi - 10**4, psi + 10**4)),
    # products of two primes of about the same size are the hard composites
    st.tuples(st.integers(2, 10**12), st.integers(2, 10**12)).map(
        lambda ab: next(p for p in range(ab[0], 2 * ab[0] + 2) if _is_prime_12_bases(p))
        * next(p for p in range(ab[1], 2 * ab[1] + 2) if _is_prime_12_bases(p))
    ),
))
def test_is_prime_agrees_with_twelve_bases(n):
    assert is_prime(n) == _is_prime_12_bases(n)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((0, 10**5, 10**10 - 3000, 10**18)),
    st.integers(0, 3000),
    st.integers(0, 3000),
)
def test_primes_between_is_the_is_prime_filter(base, offset, width):
    # windows both sieved to their square root and above 10^10, where
    # survivors of the partial sieve go to is_prime
    lo = base + offset
    hi = lo + width
    assert primes_between(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]


def test_primes_between_matches_a_full_sieve():
    flags = _sieve(10**5)
    assert primes_between(2, 10**5) == [n for n in range(10**5 + 1) if flags[n]]
    assert primes_between(24, 28) == []
    assert primes_between(0, 2) == [2]
    # the least composite without a prime factor up to 10^5, which only
    # is_prime can reject
    square = 100003**2
    assert primes_between(square - 10, square + 10) == [
        n for n in range(square - 10, square + 11) if is_prime(n)
    ]
    assert square not in primes_between(square - 10, square + 10)
