import random
from fractions import Fraction
from math import gcd

import pytest

import heckebound.arith as arith
from heckebound.arith import (
    InternalCheckError,
    QuadraticCharacter,
    bernoulli,
    bernoulli_polynomial,
    generalized_bernoulli,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    von_staudt_clausen_denominator,
    zeta_special_value,
)
from heckebound.numberfield import FieldSpec


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
    # independent handle on the recurrence: denominators of even-index
    # values are the product of primes p with (p-1) | n
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


def _divisor_sum_zeta_minus_one(d: int) -> Fraction:
    # Siegel's formula: zeta_F(-1) = (1/60) sum sigma_1((d - b^2)/4)
    # over integers b with b^2 < d and b^2 = d mod 4
    from math import isqrt

    total = 0
    for b in range(-isqrt(d), isqrt(d) + 1):
        if d - b * b > 0 and (d - b * b) % 4 == 0:
            n = (d - b * b) // 4
            total += sum(k for k in range(1, n + 1) if n % k == 0)
    return Fraction(total, 60)


def test_zeta_minus_one_against_divisor_sums():
    # a second, character-free route to the same special value
    for d in (5, 8, 12, 13, 17, 21, 24, 28, 29, 33):
        fld = FieldSpec.real_quadratic(d)
        assert zeta_special_value(fld, 1) == _divisor_sum_zeta_minus_one(d), d


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
