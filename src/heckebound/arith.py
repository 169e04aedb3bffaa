"""Exact rational arithmetic: Bernoulli numbers, Kronecker symbols,
quadratic Dirichlet characters, and zeta special values at negative
odd integers (degree <= 2 totally real fields).

The zeta kernel is integer-only: Bernoulli numbers come from tangent
numbers and generalized Bernoulli numbers from integer power sums of the
character, so ``fractions.Fraction`` appears only in the final few terms.
The character's values come from the Kronecker symbol at the primes up to
D and complete multiplicativity; the power sums of the last discriminant
are kept, one multiplication pass per new even exponent.  No floating
point.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd, isqrt
from operator import mul
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .numberfield import FieldSpec

__all__ = [
    "InternalCheckError",
    "bernoulli",
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


class _Value:
    """Base of the package's value types, which are __slots__ classes.

    The constructor takes the per-class tuple _fields, which equality and
    the hash read (a class whose constructor takes them in another form
    overrides __reduce__); the fields in _derived, which the constructor
    derives from them, follow them in the repr but are neither compared
    nor hashed.  Equality with another class is NotImplemented, the hash is
    that of the tuple of _fields, and the repr lists every field by name,
    _fields first.  A read-only subclass sets its fields in __init__
    through object.__setattr__ and takes _read_only as its __setattr__
    and __delattr__.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _derived: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields + self._derived
        )
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        # pickled and copied through the constructor, from _fields alone
        return type(self), self._key()


def _read_only(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


# _bern_even[k] = B_{2k}.  The table is replaced, never mutated, so a
# reader holding the old tuple still sees consistent values.
_bern_even: tuple[Fraction, ...] = (Fraction(1),)


def _even_bernoulli_table(size: int) -> tuple[Fraction, ...]:
    """(B_0, B_2, ..., B_{2(size-1)}) from the tangent numbers T_1..T_{size-1}.

    Brent and Harvey, arXiv:1108.0286, Algorithm TangentNumbers: O(size^2)
    integer operations, then B_{2k} = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).
    """
    t = [0, 1]
    for k in range(2, size):
        t.append((k - 1) * t[k - 1])
    for k in range(2, size):
        for j in range(k, size):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return (Fraction(1),) + tuple(
        Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1))
        for k in range(1, size)
    )


def bernoulli(n: int) -> Fraction:
    """B_n with the convention B_1 = -1/2.

    B_n = 0 for odd n >= 3; even indices are read from a table of tangent
    numbers, rebuilt in one pass to at least twice its size whenever a
    larger index is requested.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n % 2:
        return Fraction(-1, 2) if n == 1 else Fraction(0)
    global _bern_even
    table = _bern_even
    k = n // 2
    if k >= len(table):
        table = _bern_even = _even_bernoulli_table(max(k + 1, 2 * len(table)))
    return table[k]


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


class QuadraticCharacter(_Value):
    """The real character chi_D(n) = (D/n) attached to a fundamental
    discriminant D > 1."""

    __slots__ = ("discriminant",)
    _fields = __slots__
    __setattr__ = __delattr__ = _read_only

    def __init__(self, discriminant: int):
        if discriminant < 2 or not is_fundamental_discriminant(discriminant):
            raise ValueError(f"{discriminant} is not a fundamental discriminant > 1")
        object.__setattr__(self, "discriminant", discriminant)

    def __call__(self, n: int) -> int:
        return kronecker(self.discriminant, n)

    def __repr__(self) -> str:
        return f"QuadraticCharacter({self.discriminant})"


# the character table's byte codes 0, 1, 2 stand for chi = 0, 1, -1
_CHI_VALUES = (0, 1, -1)
_NEGATED = bytes.maketrans(b"\1\2", b"\2\1")


def _character_table(d: int) -> list[int]:
    """[chi_D(0), chi_D(1), ..., chi_D(D)], with the Kronecker symbol
    evaluated at the primes l <= D alone.

    (D/.) is completely multiplicative in its lower argument, so chi_D(a)
    is the product of chi_D(l) over the prime powers l^k dividing a.  The
    codes start at 1; each prime l dividing D zeroes its multiples, and
    each l with chi_D(l) = -1 negates the multiples of every power
    l^k <= D, one bytearray slice per power.
    """
    codes = bytearray([1]) * (d + 1)
    codes[0] = 0
    for ell in itertools.compress(range(d + 1), _prime_flags(d)):
        c = kronecker(d, ell)
        if c == 0:
            codes[ell::ell] = bytes(len(range(ell, d + 1, ell)))
        elif c < 0:
            q = ell
            while q <= d:
                codes[q::q] = codes[q::q].translate(_NEGATED)
                q *= ell
    return list(map(_CHI_VALUES.__getitem__, codes))


# (D, squares, terms, sums) of the last discriminant generalized_bernoulli
# read: squares lists a^2 for the a in [1, D] with chi_D(a) != 0, terms
# the chi_D(a) * a^j over them for the largest even j read, and
# sums = (S_0, S_1, ...) with S_i = sum_a chi_D(a) a^i.  A call needing a
# higher index replaces the tuple; none mutates it.  The m calls of one
# datum are consecutive, so they share one table.
_power_sums: tuple[int, list[int], list[int], tuple[int, ...]] = (0, [], [], ())


def _power_sums_to(d: int, j: int) -> tuple[int, ...]:
    """(S_0, S_1, ...) of chi_D, through at least S_j.

    An even index costs one multiplication pass over the support of chi.
    An odd one costs none: chi_D is even, so a -> D - a gives
    S_i = sum_k C(i, k) D^(i-k) (-1)^k S_k, where for odd i the k = i term
    is -S_i, and 2 S_i is the sum of the lower terms.
    """
    global _power_sums
    key, squares, terms, sums = _power_sums
    if key != d:
        table = _character_table(d)
        support = list(itertools.compress(range(d + 1), table))
        squares = list(map(mul, support, support))
        terms = list(filter(None, table))
        sums = (sum(terms),)
    while len(sums) <= j:
        i = len(sums)
        if i % 2:
            lower = sum((-1) ** k * comb(i, k) * d ** (i - k) * s
                        for k, s in enumerate(sums))
            sums += (lower // 2,)
        else:
            terms = list(map(mul, terms, squares))
            sums += (sum(terms),)
    _power_sums = (d, squares, terms, sums)
    return sums


def generalized_bernoulli(n: int, chi: QuadraticCharacter) -> Fraction:
    """B_{n,chi} = D^(n-1) sum_{a=1}^{D} chi(a) B_n(a/D) for the
    discriminant D of chi.

    Expanding B_n(x) gives sum_k C(n, k) B_k D^(k-1) S_{n-k} with the
    integer power sums S_j = sum_a chi(a) a^j; only the terms with
    B_k != 0 are formed.  The sums are read from the last discriminant's
    kept S_0, S_1, ..., extended to S_n when n is new, so the m calls of
    one datum take m + 1 passes over the support of chi in all.
    """
    if n < 1:
        raise ValueError("generalized Bernoulli index must be >= 1")
    d = chi.discriminant
    sums = _power_sums_to(d, n)
    total = Fraction(0)
    for k in range(n + 1):
        b = bernoulli(k)
        if b:
            total += comb(n, k) * d**k * sums[n - k] * b
    return total / d


def zeta_special_value(field: "FieldSpec", j: int) -> Fraction:
    """zeta_F(1-2j) for the rationals or a real quadratic field F.

    Over the rationals this is -B_{2j}/(2j); for real quadratic F it is
    the product zeta(1-2j) * L(1-2j, chi_D), with chi_D the character the
    field spec built once.  The result is nonzero of sign (-1)^(d*j); a
    violation raises InternalCheckError.
    """
    if j < 1:
        raise ValueError("zeta argument index j must be >= 1")
    d = field.degree
    value = -bernoulli(2 * j) / (2 * j)
    if d == 2:
        # L(1-2j, chi_D) = -B_{2j,chi_D}/(2j)
        value *= -generalized_bernoulli(2 * j, field.quadratic_character) / (2 * j)
    expected_sign = -1 if (d * j) % 2 else 1
    if value == 0 or (value > 0) != (expected_sign > 0):
        raise InternalCheckError(
            f"zeta_F(1-2j) sign violated for disc={field.discriminant}, j={j}"
        )
    return value


def balanced_product(factors) -> int:
    """The product of the integers, 1 for none, multiplied in pairs round
    by round: operands of like size keep it near-linear in the size of
    the result, where a running product is quadratic."""
    values = list(factors) or [1]
    while len(values) > 1:
        values = [a * b for a, b in
                  itertools.zip_longest(values[::2], values[1::2], fillvalue=1)]
    return values[0]


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


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_BASES_PRODUCT = 7_420_738_134_810  # the product of _PRIME_BASES

# (psi_k, k): psi_k is the least odd composite that is a strong probable
# prime to each of the first k prime bases, so those k bases decide every
# n < psi_k (psi_7 = psi_8, psi_9 = psi_10 = psi_11).  Jaeschke, Math.
# Comp. 61 (1993); Jiang and Deng, Math. Comp. 83 (2014); Sorenson and
# Webster, arXiv:1509.00864.
_PSI = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 8),
    (3_825_123_056_546_413_051, 11),
)


# (lo, flags) of the last window primes_between sieved: flags[n - lo] is 1
# exactly when n is in the list it returned.  Each call replaces the pair;
# windows are never merged.
_sieved: tuple[int, bytearray] = (0, bytearray())


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first k prime bases, k the least with n < psi_k.

    Proven deterministic for n < psi_12 = 318665857834031151167461; at or
    above that bound the answer is a 12-base strong-probable-prime test.
    An n inside the last window primes_between sieved is answered from
    that window's flags, which hold the same answer, so a swept prime is
    proven once.
    """
    lo, flags = _sieved
    if 0 <= n - lo < len(flags):
        return flags[n - lo] == 1
    if n < 2:
        return False
    if gcd(n, _BASES_PRODUCT) != 1:
        # a prime with a factor among the bases is that base
        return n in _PRIME_BASES
    bases = _PRIME_BASES
    for bound, k in _PSI:
        if n < bound:
            bases = _PRIME_BASES[:k]
            break
    # n - 1 = d * 2^r with d odd: r is the index of its lowest set bit
    r = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> r
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


def _prime_flags(n: int) -> bytearray:
    """flags[k] = 1 exactly when k is a prime, for 0 <= k <= n (n >= 1):
    the sieve of Eratosthenes, one slice per prime up to isqrt(n)."""
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\0\0"
    for q in range(2, isqrt(n) + 1):
        if flags[q]:
            flags[q * q::q] = bytes(len(range(q * q, n + 1, q)))
    return flags


def primes_between(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi], from one bytearray sieve of the window.

    The window is crossed off by the primes up to b = min(isqrt(hi),
    10^5), themselves sieved.  A survivor below (b + 1)^2 has no prime
    factor up to its square root and is prime; one at or above it (only
    when hi > 10^10) is decided by is_prime.  The window's flags are kept
    until the next call, so is_prime answers for any n in [lo, hi]
    without a second Miller-Rabin test.
    """
    global _sieved
    lo = max(lo, 2)
    if hi < lo:
        return []
    b = min(isqrt(hi), 10**5)
    window = bytearray([1]) * (hi - lo + 1)
    for q in itertools.compress(range(b + 1), _prime_flags(b)):
        start = max(q * q, -(-lo // q) * q)
        window[start - lo::q] = bytes(len(range(start, hi + 1, q)))
    # the survivors from (b + 1)^2 on are proven before the window is kept,
    # so is_prime cannot read a survivor's flag as its own proof
    start = max(lo, (b + 1) ** 2)
    for n in itertools.compress(range(start, hi + 1), window[start - lo:]):
        if not is_prime(n):
            window[n - lo] = 0
    _sieved = (lo, window)
    return list(itertools.compress(range(lo, hi + 1), window))


def von_staudt_clausen_denominator(n: int) -> int:
    """prod of primes p with (p-1) | n; the denominator of B_n for even n."""
    if n < 2 or n % 2:
        raise ValueError("von Staudt-Clausen applies to even n >= 2")
    result = 1
    for p in range(2, n + 2):
        if is_prime(p) and n % (p - 1) == 0:
            result *= p
    return result
