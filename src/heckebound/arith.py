"""Exact rational arithmetic: Bernoulli numbers, Kronecker symbols,
quadratic Dirichlet characters, and zeta special values at negative
odd integers (degree <= 2 totally real fields).

Everything is computed over ``fractions.Fraction``; no floating point.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .numberfield import FieldSpec

__all__ = [
    "InternalCheckError",
    "bernoulli",
    "bernoulli_polynomial",
    "kronecker",
    "QuadraticCharacter",
    "generalized_bernoulli",
    "zeta_special_value",
    "is_squarefree",
    "is_fundamental_discriminant",
]


class InternalCheckError(RuntimeError):
    """An exact identity the formulas guarantee failed to hold: the
    implementation (not the input) is at fault."""


# Bernoulli cache (first convention, B_1 = -1/2).  Only even indices ever
# reach the zeta path, but the recurrence needs every index anyway.
_bern_lock = threading.Lock()
_bern: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """B_n with the convention B_1 = -1/2.

    Uses the defining recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0 and
    memoizes all values up to the largest index requested.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    with _bern_lock:
        while len(_bern) <= n:
            m = len(_bern)
            s = sum(comb(m + 1, k) * _bern[k] for k in range(m))
            _bern.append(Fraction(-s, m + 1))
        return _bern[n]


def bernoulli_polynomial(n: int, x: Fraction) -> Fraction:
    """B_n(x) = sum_k C(n, k) B_k x^(n-k), evaluated exactly."""
    if n < 0:
        raise ValueError("Bernoulli polynomial degree must be >= 0")
    x = Fraction(x)
    return sum(
        comb(n, k) * bernoulli(k) * x ** (n - k) for k in range(n + 1)
    )


# (a/2) as a function of a mod 8
_KRONECKER_AT_TWO = (0, 1, 0, -1, 0, -1, 0, 1)


def kronecker(a: int, n: int) -> int:
    """Full Kronecker symbol (a/n), extending Jacobi to all integers n.

    Rules: (a/2) is 0 for even a and +-1 by a mod 8; (a/-1) is the sign
    of a; (a/1) = 1 by the empty-product convention.  The odd part is
    reduced by quadratic reciprocity.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    while n % 2 == 0:
        n //= 2
        k *= _KRONECKER_AT_TWO[a & 7]
    if k == 0:
        return 0
    # n is now odd and positive: Jacobi loop
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n & 7 in (3, 5):
                k = -k
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def is_squarefree(n: int) -> bool:
    return n != 0 and all(e == 1 for _, e in factorize(abs(n)))


def is_fundamental_discriminant(d: int) -> bool:
    """True for d = 1 (trivial) and every fundamental discriminant."""
    if d == 1:
        return True
    if d % 4 == 1:
        return is_squarefree(d)
    if d % 4 == 0:
        q = d // 4
        return q % 4 in (2, 3) and is_squarefree(q)
    return False


@dataclass(frozen=True)
class QuadraticCharacter:
    """The real character chi_D(n) = (D/n) attached to a fundamental
    discriminant D > 1."""

    discriminant: int

    def __post_init__(self):
        d = self.discriminant
        if d < 2 or not is_fundamental_discriminant(d):
            raise ValueError(f"{d} is not a fundamental discriminant > 1")

    def __call__(self, n: int) -> int:
        return kronecker(self.discriminant, n)

    def __repr__(self) -> str:
        return f"QuadraticCharacter({self.discriminant})"


def generalized_bernoulli(n: int, chi: QuadraticCharacter) -> Fraction:
    """B_{n,chi} = D^(n-1) sum_{a=1}^{D} chi(a) B_n(a/D) for the
    discriminant D of chi."""
    if n < 1:
        raise ValueError("generalized Bernoulli index must be >= 1")
    d = chi.discriminant
    total = sum(
        chi(a) * bernoulli_polynomial(n, Fraction(a, d)) for a in range(1, d + 1)
    )
    return d ** (n - 1) * total


def _dirichlet_l_negative(n: int, chi: QuadraticCharacter) -> Fraction:
    # L(1-n, chi) = -B_{n,chi}/n for n >= 1
    return -generalized_bernoulli(n, chi) / n


def zeta_special_value(field: "FieldSpec", j: int) -> Fraction:
    """zeta_F(1-2j) for the rationals or a real quadratic field F.

    Over the rationals this is -B_{2j}/(2j); for real quadratic F with
    character chi_D it is the product zeta(1-2j) * L(1-2j, chi_D).  The
    result is nonzero of sign (-1)^(d*j); a violation raises
    InternalCheckError.
    """
    if j < 1:
        raise ValueError("zeta argument index j must be >= 1")
    d = field.degree
    if d not in (1, 2):
        raise ValueError(f"unsupported field degree {d}")
    value = -bernoulli(2 * j) / (2 * j)
    if d == 2:
        value *= _dirichlet_l_negative(2 * j, field.quadratic_character)
    expected_sign = -1 if (d * j) % 2 else 1
    if value == 0 or (value > 0) != (expected_sign > 0):
        raise InternalCheckError(
            f"zeta_F(1-2j) sign violated for disc={field.discriminant}, j={j}"
        )
    return value


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] in increasing p, by trial division."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    """Miller-Rabin to the twelve prime bases 2..37.

    Proven deterministic for n < psi_12 = 318665857834031151167461
    (Sorenson and Webster, arXiv:1509.00864); at or above that bound the
    answer is a 12-base strong-probable-prime test.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def von_staudt_clausen_denominator(n: int) -> int:
    """prod of primes p with (p-1) | n; the denominator of B_n for even n."""
    if n < 2 or n % 2:
        raise ValueError("von Staudt-Clausen applies to even n >= 2")
    result = 1
    for p in range(2, n + 2):
        if is_prime(p) and n % (p - 1) == 0:
            result *= p
    return result
