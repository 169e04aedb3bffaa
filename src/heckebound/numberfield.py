"""Totally real base fields of degree <= 2, prime splitting, quaternion
ramification data, and the validated input tuple for the bound pipeline.

Places are modelled as (residue prime, residue degree, index) only; all
downstream formulas consume just the residue cardinalities q_v.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd

from .arith import (
    QuadraticCharacter,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    zeta_special_value,
)

__all__ = [
    "SettingError",
    "FieldSpec",
    "Place",
    "QuaternionData",
    "ShimuraSetting",
    "split_prime",
    "resolve_ramification",
    "check_level_and_prime",
    "validate_setting",
]


class SettingError(ValueError):
    """Invalid input tuple; ``code`` identifies the violated invariant."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _fail(code: str, message: str):
    raise SettingError(code, message)


@dataclass(frozen=True)
class FieldSpec:
    """The rationals (discriminant 1) or a real quadratic field given by
    its positive fundamental discriminant."""

    discriminant: int

    def __post_init__(self):
        if self.discriminant == 1:
            return
        if self.discriminant > 200_000:
            # the zeta kernel is linear in the discriminant; 200 000 keeps
            # one record with m <= 4 under about two seconds
            _fail(
                "disc_too_large",
                f"discriminant must be <= 200000, got {self.discriminant}",
            )
        if self.discriminant < 1 or not is_fundamental_discriminant(self.discriminant):
            _fail(
                "bad_discriminant",
                f"{self.discriminant} is not a positive fundamental discriminant",
            )

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(1)

    @classmethod
    def real_quadratic(cls, discriminant: int) -> "FieldSpec":
        if discriminant == 1:
            _fail("bad_discriminant", "real quadratic field needs discriminant > 1")
        return cls(discriminant)

    @property
    def degree(self) -> int:
        return 1 if self.discriminant == 1 else 2

    @property
    def is_rational(self) -> bool:
        return self.discriminant == 1

    @property
    def quadratic_character(self) -> QuadraticCharacter:
        return QuadraticCharacter(self.discriminant)

    def __repr__(self) -> str:
        if self.is_rational:
            return "FieldSpec(Q)"
        return f"FieldSpec(Q(sqrt({self.discriminant})))"


@dataclass(frozen=True, order=True)
class Place:
    """A finite place, identified by its residue prime, residue degree,
    and an index separating the two places over a split prime."""

    residue_prime: int
    residue_degree: int
    index: int = 0
    ramified: bool = False

    @property
    def residue_cardinality(self) -> int:
        return self.residue_prime ** self.residue_degree

    def __repr__(self) -> str:
        tag = "r" if self.ramified else str(self.index)
        return f"Place({self.residue_prime}^{self.residue_degree},{tag})"


def split_prime(fld: FieldSpec, ell: int) -> list[Place]:
    """Places of the field over the rational prime ell.

    For a real quadratic field the splitting type is read off the
    character: chi_D(ell) = +1 split, -1 inert, 0 ramified.
    """
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if fld.is_rational:
        return [Place(ell, 1)]
    s = kronecker(fld.discriminant, ell)
    if s == 1:
        return [Place(ell, 1, index=0), Place(ell, 1, index=1)]
    if s == -1:
        return [Place(ell, 2)]
    return [Place(ell, 1, ramified=True)]


@dataclass(frozen=True)
class QuaternionData:
    """A totally indefinite quaternion algebra over the field, given by
    its finite ramified places, together with the module rank m."""

    field: FieldSpec
    ramified_places: tuple[Place, ...]
    m: int

    def __post_init__(self):
        if self.m < 1:
            _fail("m_not_positive", f"module rank m must be >= 1, got {self.m}")
        if len(self.ramified_places) % 2 != 0:
            _fail(
                "odd_ramification_set",
                "a totally indefinite quaternion algebra is ramified at an "
                f"even number of finite places, got {len(self.ramified_places)}",
            )
        if len(set(self.ramified_places)) != len(self.ramified_places):
            _fail("duplicate_place", "ramified places must be pairwise distinct")
        for v in self.ramified_places:
            if not is_prime(v.residue_prime):
                _fail(
                    "ramified_prime_not_prime",
                    f"{v.residue_prime} is not prime",
                )
            # re-derive the splitting so stale residue degrees cannot slip in
            if v not in split_prime(self.field, v.residue_prime):
                _fail(
                    "residue_degree_mismatch",
                    f"{v!r} is not a place of the field",
                )

    @cached_property
    def zeta_values(self) -> tuple[Fraction, ...]:
        """(zeta_F(-1), zeta_F(-3), ..., zeta_F(1-2m)), computed on first
        use and shared by every prime p of a run."""
        return tuple(zeta_special_value(self.field, j) for j in range(1, self.m + 1))


def resolve_ramification(
    fld: FieldSpec, pairs: list[tuple[int, int]]
) -> tuple[Place, ...]:
    """Resolve user-level (prime, residue_degree) pairs into places.

    Splitting is recomputed from the field, so a residue degree that
    contradicts it is rejected rather than silently feeding a wrong q_v
    into the local factors.  Listing (ell, 1) twice selects both places
    over a split prime.
    """
    used: list[Place] = []
    for ell, f in pairs:
        if not is_prime(ell):
            _fail("ramified_prime_not_prime", f"ramification entry {ell} is not prime")
        candidates = [
            v
            for v in split_prime(fld, ell)
            if v.residue_degree == f and v not in used
        ]
        if not candidates:
            actual = [v.residue_degree for v in split_prime(fld, ell)]
            _fail(
                "residue_degree_mismatch",
                f"no unused place over {ell} has residue degree {f} "
                f"(splitting gives degrees {actual})",
            )
        used.append(candidates[0])
    return tuple(sorted(used))


@dataclass(frozen=True)
class ShimuraSetting:
    """Validated tuple (F, Delta_B, m, N, p) with the splitting of p and
    the two halves of the derived discriminant precomputed.

    delta_prime_at_p are the places over p of odd residue degree and
    even_places_at_p the others; delta_prime_away is the ramification set
    of the quaternion algebra, which is entirely away from p by validation.
    """

    quaternion: QuaternionData
    level: int
    p: int
    places_over_p: tuple[Place, ...] = field(compare=False)
    delta_prime_at_p: tuple[Place, ...] = field(compare=False)
    even_places_at_p: tuple[Place, ...] = field(compare=False)
    delta_prime_away: tuple[Place, ...] = field(compare=False)

    @property
    def field(self) -> FieldSpec:
        return self.quaternion.field

    @property
    def degree(self) -> int:
        return self.quaternion.field.degree

    @property
    def m(self) -> int:
        return self.quaternion.m


def check_level_and_prime(level: int, p: int) -> None:
    """The checks on N and p shared by every bound route, with the codes
    level_too_small, level_too_large, p_not_prime and p_divides_level."""
    if level < 3:
        _fail("level_too_small", f"level must be >= 3, got {level}")
    if level > 10**12:
        # trial division factorizes the level; 10^12 keeps that under a second
        _fail("level_too_large", f"level must be <= 10^12, got {level}")
    if not is_prime(p):
        _fail("p_not_prime", f"p must be prime, got {p}")
    if level % p == 0:
        _fail("p_divides_level", f"p = {p} divides the level {level}")


def validate_setting(quaternion: QuaternionData, level: int, p: int) -> ShimuraSetting:
    """Check every invariant of the input tuple and derive the rest.

    Violations raise SettingError with one of the codes: level_too_small,
    level_too_large, p_not_prime, p_divides_level, p_ramified_in_field, p_in_ramification_set,
    level_not_coprime.  The p-independent checks, including that every
    ramified place is a place of the field, ran once when the
    QuaternionData was built (codes m_not_positive, odd_ramification_set,
    duplicate_place, ramified_prime_not_prime, residue_degree_mismatch).
    """
    fld = quaternion.field
    check_level_and_prime(level, p)
    if fld.discriminant % p == 0:
        _fail(
            "p_ramified_in_field",
            f"p = {p} ramifies in the field of discriminant {fld.discriminant}",
        )
    for v in quaternion.ramified_places:
        if v.residue_prime == p:
            _fail(
                "p_in_ramification_set",
                f"p = {p} lies under a ramified place of the quaternion algebra",
            )
    bad = fld.discriminant
    for v in quaternion.ramified_places:
        bad *= v.residue_prime
    if gcd(level, bad) != 1:
        _fail(
            "level_not_coprime",
            f"level {level} shares a factor with the ramified primes and "
            f"field discriminant (product {bad}); no closed form is "
            "available for the level group order at such primes",
        )
    places = tuple(split_prime(fld, p))
    return ShimuraSetting(
        quaternion=quaternion,
        level=level,
        p=p,
        places_over_p=places,
        delta_prime_at_p=tuple(v for v in places if v.residue_degree % 2 == 1),
        even_places_at_p=tuple(v for v in places if v.residue_degree % 2 == 0),
        delta_prime_away=tuple(sorted(quaternion.ramified_places)),
    )
