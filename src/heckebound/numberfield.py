"""Totally real base fields of degree <= 2, prime splitting, quaternion
ramification data, and the validated input tuple for the bound pipeline.

Places are modelled as (residue prime, residue degree, index, ramified)
only; all downstream formulas consume just the residue cardinalities q_v.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt
from operator import attrgetter

from .arith import (
    QuadraticCharacter,
    _read_only,
    _Value,
    balanced_product,
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


class FieldSpec(_Value):
    """The rationals (discriminant 1) or a real quadratic field given by
    its positive fundamental discriminant.  Derived on construction, and
    neither compared, hashed nor shown: degree, 1 or 2, and
    quadratic_character, None over the rationals and otherwise chi_D,
    whose constructor is the one proof that D is fundamental."""

    __slots__ = ("discriminant", "degree", "quadratic_character")
    _fields = __slots__[:1]
    __setattr__ = __delattr__ = _read_only

    def __init__(self, discriminant: int):
        setter = object.__setattr__
        setter(self, "discriminant", discriminant)
        setter(self, "degree", 1 if discriminant == 1 else 2)
        setter(self, "quadratic_character", None)
        if discriminant == 1:
            return
        if discriminant > 200_000:
            # the zeta kernel's character table and power sums are linear
            # in the discriminant; at 199 997 a CLI record with m = 4 takes
            # about 0.5 s, 0.2 s of it the zeta values
            _fail(
                "disc_too_large",
                f"discriminant must be <= 200000, got {discriminant}",
            )
        try:
            setter(self, "quadratic_character", QuadraticCharacter(discriminant))
        except ValueError:
            _fail(
                "bad_discriminant",
                f"{discriminant} is not a positive fundamental discriminant",
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
    def is_rational(self) -> bool:
        return self.discriminant == 1

    def __repr__(self) -> str:
        if self.is_rational:
            return "FieldSpec(Q)"
        return f"FieldSpec(Q(sqrt({self.discriminant})))"


class Place(_Value):
    """A finite place, identified by its residue prime, residue degree,
    an index separating the two places over a split prime, and whether
    it lies over a prime ramified in the field.  Places compare for
    equality only; a quaternion datum sorts its ramified places by these
    fields in turn.  The residue cardinality q_v =
    residue_prime^residue_degree is derived on construction and is
    neither compared, hashed nor shown."""

    __slots__ = ("residue_prime", "residue_degree", "index", "ramified",
                 "residue_cardinality")
    _fields = __slots__[:4]
    __setattr__ = __delattr__ = _read_only

    def __init__(self, residue_prime: int, residue_degree: int, index: int = 0,
                 ramified: bool = False):
        # each slot's own setter: a place over p is built for every record,
        # and object.__setattr__ would look each name up again
        _set_prime(self, residue_prime)
        _set_degree(self, residue_degree)
        _set_index(self, index)
        _set_ramified(self, ramified)
        _set_cardinality(self, residue_prime**residue_degree)

    def __repr__(self) -> str:
        tag = "r" if self.ramified else str(self.index)
        return f"Place({self.residue_prime}^{self.residue_degree},{tag})"


(_set_prime, _set_degree, _set_index, _set_ramified, _set_cardinality) = (
    getattr(Place, name).__set__ for name in Place.__slots__
)
_place_order = attrgetter(*Place._fields)


def split_prime(fld: FieldSpec, ell: int) -> list[Place]:
    """Places of the field over the rational prime ell.

    For a real quadratic field the splitting type is read off the
    character: chi_D(ell) = +1 split, -1 inert, 0 ramified.  Raises
    ValueError unless ell is proven prime (SettingError prime_too_large
    from psi_12 on).
    """
    if not _proven_prime(ell, "ell", "prime_too_large"):
        raise ValueError(f"{ell} is not prime")
    return list(_places_over(fld, ell))


def _places_over(fld: FieldSpec, ell: int) -> tuple[Place, ...]:
    # split_prime, as a tuple, for an ell the caller has already proven prime
    if fld.degree == 1:
        return (Place(ell, 1),)
    s = kronecker(fld.discriminant, ell)
    if s == 1:
        return (Place(ell, 1, 0), Place(ell, 1, 1))
    if s == -1:
        return (Place(ell, 2),)
    return (Place(ell, 1, 0, True),)


class QuaternionData(_Value):
    """A totally indefinite quaternion algebra over the field, given by
    its finite ramified places, kept sorted, and the module rank m.

    Besides its three fields it holds what validation reads of it:
    ramified_primes, the residue primes of the ramified places, and
    bad_product, the field discriminant times the residue prime of each
    ramified place; the cached zeta_values (hence the __dict__ slot);
    and _levels, an empty dict in which bounds keeps the bound's
    per-level part.  None of these is compared, hashed or shown.

    The constructor proves each ramified place's residue prime and
    re-derives its splitting; from_ramification builds the datum from
    the user's (prime, residue degree) pairs, which resolve_ramification
    has already checked that way."""

    __slots__ = ("field", "ramified_places", "m", "ramified_primes", "bad_product",
                 "_levels", "__dict__")
    _fields = ("field", "ramified_places", "m")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, field: FieldSpec, ramified_places: tuple[Place, ...], m: int):
        _check_rank_and_count(field, ramified_places, m)
        for v in ramified_places:
            if not _proven_prime(
                v.residue_prime, "ramified prime", "ramified_prime_too_large"
            ):
                _fail(
                    "ramified_prime_not_prime",
                    f"{v.residue_prime} is not prime",
                )
            # re-derive the splitting so stale residue degrees cannot slip in
            if v not in _places_over(field, v.residue_prime):
                _fail(
                    "residue_degree_mismatch",
                    f"{v!r} is not a place of the field",
                )
        self._set_fields(field, ramified_places, m)

    @classmethod
    def from_ramification(
        cls, field: FieldSpec, pairs: list[tuple[int, int]], m: int
    ) -> "QuaternionData":
        """The datum of resolve_ramification(field, pairs) and m, with the
        same errors in the same order as QuaternionData(field,
        resolve_ramification(field, pairs), m); each entry's prime is
        proven once, by resolve_ramification."""
        places = resolve_ramification(field, pairs)
        _check_rank_and_count(field, places, m)
        datum = cls.__new__(cls)
        datum._set_fields(field, places, m)
        return datum

    def _set_fields(self, field: FieldSpec, ramified_places: tuple[Place, ...], m: int):
        setter = object.__setattr__
        setter(self, "field", field)
        # one key per place: its fields in turn
        setter(self, "ramified_places",
               tuple(sorted(ramified_places, key=_place_order)))
        setter(self, "m", m)
        setter(self, "ramified_primes",
               frozenset(v.residue_prime for v in ramified_places))
        setter(self, "bad_product", field.discriminant
               * balanced_product(v.residue_prime for v in ramified_places))
        setter(self, "_levels", {})

    @cached_property
    def zeta_values(self) -> tuple[Fraction, ...]:
        """(zeta_F(-1), zeta_F(-3), ..., zeta_F(1-2m)), computed on first
        use and shared by every prime p of a run."""
        return tuple(zeta_special_value(self.field, j) for j in range(1, self.m + 1))


def _check_rank_and_count(
    field: FieldSpec, ramified_places: tuple[Place, ...], m: int
) -> None:
    # the datum's checks that read no single place, in their documented order
    if m < 1:
        _fail("m_not_positive", f"module rank m must be >= 1, got {m}")
    # the zeta power sums grow like D*m^2 (m + 1 passes over about D
    # integers of up to 2m*log2(D) bits: 0.03 s at D = 2609, m = 35) and
    # the bound's decimal text like (d*m^2)^2; these two caps keep one
    # record under about two seconds for every N <= 10^12 and p <= 10^18
    # (measured in ROADMAP)
    limit = min(
        isqrt(2_500 // field.degree),
        isqrt(3_200_000 // field.discriminant),
    )
    if m > limit:
        _fail(
            "m_too_large",
            f"module rank m must be <= {limit} for this field, got {m}",
        )
    if len(ramified_places) % 2 != 0:
        _fail(
            "odd_ramification_set",
            "a totally indefinite quaternion algebra is ramified at an "
            f"even number of finite places, got {len(ramified_places)}",
        )
    if len(set(ramified_places)) != len(ramified_places):
        _fail("duplicate_place", "ramified places must be pairwise distinct")


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
    seen: set[Place] = set()
    for ell, f in pairs:
        if not _proven_prime(ell, "ramification entry", "ramified_prime_too_large"):
            _fail("ramified_prime_not_prime", f"ramification entry {ell} is not prime")
        candidates = [
            v
            for v in _places_over(fld, ell)
            if v.residue_degree == f and v not in seen
        ]
        if not candidates:
            actual = [v.residue_degree for v in _places_over(fld, ell)]
            _fail(
                "residue_degree_mismatch",
                f"no unused place over {ell} has residue degree {f} "
                f"(splitting gives degrees {actual})",
            )
        used.append(candidates[0])
        seen.add(candidates[0])
    return tuple(used)


class ShimuraSetting(_Value):
    """The tuple (F, Delta_B, m, N, p), given as (quaternion, level, p),
    with the rest derived on construction: places_over_p, the places of
    F over p, and delta_prime_at_p, the part Delta'_p of them of odd
    residue degree.  F is Galois over Q, so every place over p has one
    residue degree f and delta_prime_at_p is either all of places_over_p
    (f odd) or empty (f even); the bound's p-factors read the one sign
    (-1)^f from it.  delta_prime_away, the ramification set of the
    quaternion algebra, lies away from p by validation.  The constructor
    checks nothing; validate_setting checks the tuple, then builds it.
    Settings compare and hash on (quaternion, level, p) alone."""

    __slots__ = ("quaternion", "level", "p", "places_over_p", "delta_prime_at_p")
    _fields = __slots__[:3]
    _derived = __slots__[3:]

    def __init__(self, quaternion: QuaternionData, level: int, p: int):
        self.quaternion = quaternion
        self.level = level
        self.p = p
        places = self.places_over_p = _places_over(quaternion.field, p)
        self.delta_prime_at_p = places if places[0].residue_degree % 2 else ()

    @property
    def delta_prime_away(self) -> tuple[Place, ...]:
        return self.quaternion.ramified_places

    @property
    def field(self) -> FieldSpec:
        return self.quaternion.field

    @property
    def degree(self) -> int:
        return self.quaternion.field.degree

    @property
    def m(self) -> int:
        return self.quaternion.m


# psi_12, the least strong pseudoprime to the twelve bases of arith.is_prime
_PSI_12 = 318_665_857_834_031_151_167_461


def _proven_prime(n: int, what: str, code: str) -> bool:
    """is_prime(n) where that is a proof: below psi_12, which itself passes
    all twelve bases.  From psi_12 on, fail with the caller's code."""
    if n >= _PSI_12:
        _fail(code, f"{what} must be < {_PSI_12}, got {n}")
    return is_prime(n)


def check_level_and_prime(level: int, p: int) -> None:
    """The checks on N and p shared by every bound route, with the codes
    level_too_small, level_too_large, p_too_large, p_not_prime and
    p_divides_level."""
    if level < 3:
        _fail("level_too_small", f"level must be >= 3, got {level}")
    if level > 10**12:
        # trial division factorizes the level; 10^12 keeps that under a second
        _fail("level_too_large", f"level must be <= 10^12, got {level}")
    # the m caps were sized for p <= 10^18, well below psi_12
    if not _proven_prime(p, "p", "p_too_large"):
        _fail("p_not_prime", f"p must be prime, got {p}")
    if level % p == 0:
        _fail("p_divides_level", f"p = {p} divides the level {level}")


def validate_setting(quaternion: QuaternionData, level: int, p: int) -> ShimuraSetting:
    """Check every invariant of the input tuple, then build the setting.

    Violations raise SettingError with one of the codes, in this order:
    level_too_small, level_too_large, p_too_large, p_not_prime,
    p_divides_level, p_ramified_in_field, p_in_ramification_set,
    level_not_coprime.  The checks on N and p are check_level_and_prime,
    as for siegel_bound; the rest read the datum's ramified_primes and
    take one gcd of N with its bad_product.  Per p this proves p prime
    (for a p in the window arith.primes_between sieved last, is_prime
    reads the sieve's proof), tests p against N, the field discriminant
    and the ramified places, and builds the setting, which splits p.
    The p-independent checks, including that every ramified place is a
    place of the field, ran once when the QuaternionData was built
    (codes m_not_positive, m_too_large, odd_ramification_set,
    duplicate_place, ramified_prime_too_large, ramified_prime_not_prime,
    residue_degree_mismatch).
    """
    check_level_and_prime(level, p)
    fld = quaternion.field
    if fld.discriminant % p == 0:
        _fail(
            "p_ramified_in_field",
            f"p = {p} ramifies in the field of discriminant {fld.discriminant}",
        )
    if p in quaternion.ramified_primes:
        _fail(
            "p_in_ramification_set",
            f"p = {p} lies under a ramified place of the quaternion algebra",
        )
    bad = quaternion.bad_product
    if gcd(level, bad) != 1:
        _fail(
            "level_not_coprime",
            f"level {level} shares a factor with the ramified primes and "
            f"field discriminant (product {bad}); no closed form is "
            "available for the level group order at such primes",
        )
    return ShimuraSetting(quaternion, level, p)
