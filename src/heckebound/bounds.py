"""Assembly of the superspecial mass, the p-independent constant, and
the final upper bound on the number of prime-to-p Hecke eigensystems,
plus the Siegel-case specialization and growth-in-p diagnostics.

All assembly is exact; integrality of the mass and the factorization
identity final = mass * irr * dim are checked, and a violation is an
implementation fault, never an input error.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import add, floordiv, mod, mul, ne, sub

from .arith import InternalCheckError, _Value, balanced_product, bernoulli, factorize
from .groups import (
    _irr_column,
    _over_places,
    _residue_cardinalities,
    dim_bound,
    dim_bounds,
    irr_count,
    level_group_order,
    sp_order,
)
from .numberfield import FieldSpec, QuaternionData, ShimuraSetting, validate_setting

__all__ = [
    "InternalCheckError",
    "BoundReport",
    "bound_constant",
    "superspecial_mass",
    "superspecial_masses",
    "final_bound",
    "final_bounds",
    "siegel_bound",
    "asymptotic_exponent",
    "asymptotic_check",
    "detect_p_degree",
]


class BoundReport(_Value):
    """Every quantity computed on the way to the final bound."""

    __slots__ = ("setting", "zeta_values", "constant", "level_group_order", "mass",
                 "irr_count", "dim_bound", "final_bound", "asymptotic_exponent")
    _fields = __slots__

    def __init__(
        self,
        setting: ShimuraSetting,
        zeta_values: tuple[Fraction, ...],
        constant: Fraction,
        level_group_order: int,
        mass: int,
        irr_count: int,
        dim_bound: int,
        final_bound: int,
        asymptotic_exponent: int,
    ):
        self.setting = setting
        self.zeta_values = zeta_values
        self.constant = constant
        self.level_group_order = level_group_order
        self.mass = mass
        self.irr_count = irr_count
        self.dim_bound = dim_bound
        self.final_bound = final_bound
        self.asymptotic_exponent = asymptotic_exponent


def _positive_integers(scale: Fraction, factors, what: str) -> list[int]:
    """scale * factor for each of factors: counts the construction
    guarantees to be positive integers; anything else, at any of them, is
    an implementation fault.  scale is in lowest terms, so a count is an
    integer exactly when its factor is a multiple of scale's denominator
    (every factor is, when that is 1)."""
    numerator, denominator = scale.numerator, scale.denominator
    factors = list(factors)
    if denominator == 1 or not any(map(mod, factors, repeat(denominator))):
        quotients = factors if denominator == 1 else map(floordiv, factors, repeat(denominator))
        counts = list(map(mul, quotients, repeat(numerator)))
        if min(counts, default=1) > 0:
            return counts
    value = next(x for x in map(mul, factors, repeat(scale)) if x <= 0 or x.denominator != 1)
    raise InternalCheckError(f"{what} came out {value}, not a positive integer")


def asymptotic_exponent(degree: int, m: int) -> int:
    """Growth exponent of the bound in p: d*m^2 + d*m + 1."""
    return degree * m * m + degree * m + 1


def bound_constant(setting: ShimuraSetting) -> Fraction:
    """The p-independent rational constant of the final bound:

        (-1)^(dm(m+1)/2) / 2^(md)
            * prod_{i=1}^{m} zeta_F(1-2i) * prod_{v ramified} (q_v^i + (-1)^i),

    where every ramified place lies away from p by validation.  Positive
    for every valid setting (the zeta signs cancel the leading sign),
    which is checked.
    """
    quaternion = setting.quaternion
    d, m = setting.degree, setting.m
    sign = -1 if (d * m * (m + 1) // 2) % 2 else 1
    value = Fraction(sign, 2 ** (m * d))
    # the integer product of the local factors first, so each zeta value
    # meets one Fraction product, not one per ramified place
    for i, zeta in enumerate(quaternion.zeta_values, start=1):
        sign_i = (-1) ** i
        value *= zeta * balanced_product(
            v.residue_cardinality**i + sign_i for v in quaternion.ramified_places
        )
    if value <= 0:
        raise InternalCheckError(f"bound constant {value} is not positive")
    return value


class _LevelPart:
    """The p-independent part of the bound at one (datum, level N):
    constant (C_B), group_order (|G(Z/NZ)|), scale, their product, which
    scales every count's p-factor, exponent (d*m^2 + d*m + 1), and
    p_exponent, the power d(m+2)(m-1)/2 of p in the closed form."""

    __slots__ = ("constant", "group_order", "scale", "exponent", "p_exponent")

    def __init__(self, setting: ShimuraSetting):
        constant = self.constant = bound_constant(setting)
        order = self.group_order = level_group_order(setting)
        self.scale = constant * order
        d, m = setting.degree, setting.m
        self.exponent = asymptotic_exponent(d, m)
        self.p_exponent = d * (m + 2) * (m - 1) // 2


def _level_part(setting: ShimuraSetting) -> _LevelPart:
    """The setting's _LevelPart, built on the first setting of its (datum,
    level) and kept in the datum's _levels for every later p."""
    levels = setting.quaternion._levels
    try:
        return levels[setting.level]
    except KeyError:
        part = levels[setting.level] = _LevelPart(setting)
        return part


def superspecial_masses(setting: ShimuraSetting, ps) -> list[int]:
    """superspecial_mass at each prime of ps, primes that split in F as
    setting.p does, at setting's datum and level: one map pass per factor
    of the closed form over all of them."""
    return _mass_column(setting, _level_part(setting), *_residue_cardinalities(setting, ps))


def _mass_column(setting: ShimuraSetting, part: _LevelPart, qs, count: int,
                 eps: int) -> list[int]:
    # superspecial_masses at primes whose _residue_cardinalities are known
    factors = list(map(add, qs, repeat(eps)))
    qj = qs
    for j in range(2, setting.m + 1):
        qj = list(map(mul, qj, qs))
        factors = list(map(mul, factors, map(add, qj, repeat(eps**j))))
    return _positive_integers(part.scale, _over_places(factors, count), "superspecial mass")


def superspecial_mass(setting: ShimuraSetting) -> int:
    """Cardinality of the superspecial locus at the given level:

        C * |G(Z/NZ)| * prod_{j=1}^{m} prod_{v | p, f_v odd} (q_v^j + (-1)^j)
                                        * prod_{v | p, f_v even} (q_v^j + 1).

    Every place over p has one residue degree f, so with eps = (-1)^f
    both products are prod_{v | p} prod_{j=1}^{m} (q_v^j + eps^j).  The
    divisor part of the derived discriminant away from p sits in C.
    Being a cardinality the mass must come out a positive integer, and
    anything else raises InternalCheckError.  The one-prime case of
    superspecial_masses.
    """
    return superspecial_masses(setting, (setting.p,))[0]


def _final_bound_column(setting: ShimuraSetting, part: _LevelPart, ps, qs,
                        count: int, eps: int) -> list[int]:
    # final_bound's closed form at each prime of ps, by its own passes
    local = list(map(sub, qs, repeat(eps)))
    for j in range(1, setting.m + 1):
        qj = qs if j == 1 else map(pow, qs, repeat(j))
        local = list(map(mul, local, map(add, qj, repeat(eps**j))))
    factors = map(mul, map(pow, ps, repeat(part.p_exponent)), map(sub, ps, repeat(1)))
    factors = map(mul, factors, _over_places(local, count))
    return _positive_integers(part.scale, factors, "final bound")


def _check_identity(bounds, masses, irrs, dims) -> None:
    # final = mass * irr * dim at every prime, in one pass over the columns
    if any(map(ne, bounds, map(mul, map(mul, masses, irrs), dims))):
        bound, mass, irr, dim = next(
            row for row in zip(bounds, masses, irrs, dims) if row[0] != row[1] * row[2] * row[3]
        )
        raise InternalCheckError(
            f"factorization identity violated: bound {bound} != "
            f"mass {mass} * irr {irr} * dim {dim}"
        )


def final_bounds(setting: ShimuraSetting, ps) -> tuple[list[int], ...]:
    """(masses, irr_counts, dim_bounds, final bounds) at each prime of ps,
    primes that split in F as setting.p does, at setting's datum and
    level: final_bound's quantities as integer columns, each by its own
    closed form, with every check of final_bound at every prime.  A prime
    of ps that splits otherwise raises ValueError; the columns share one
    check of that, and no primes give empty columns."""
    part = _level_part(setting)
    cards = _residue_cardinalities(setting, ps)
    bounds = _final_bound_column(setting, part, ps, *cards)
    masses = _mass_column(setting, part, *cards)
    irrs = _irr_column(setting, ps, *cards)
    dims = dim_bounds(setting, ps)
    _check_identity(bounds, masses, irrs, dims)
    return masses, irrs, dims, bounds


def final_bound(setting: ShimuraSetting) -> BoundReport:
    """Evaluate the full bound and every intermediate quantity.

    The bound is assembled from the closed form
        C * |G(Z/NZ)| * p^(d(m+2)(m-1)/2) * (p-1)
          * prod_{v | p, f_v odd}  (q_v + 1) * prod_{j=1}^{m} (q_v^j + (-1)^j)
          * prod_{v | p, f_v even} (q_v - 1) * prod_{j=1}^{m} (q_v^j + 1),
    that is, with eps = (-1)^f for the one residue degree f of the
    places over p, prod_{v | p} (q_v - eps) * prod_{j=1}^{m} (q_v^j + eps^j).
    It must agree exactly with mass * irr_count * dim_bound; the two
    p-factors are computed independently and compared.  C * |G(Z/NZ)|
    and both exponents come from the per-level part, built on the first
    setting of a (datum, level); each prime adds only its p-factors,
    scaled by that shared product.  The one-prime case of final_bounds,
    through the one-prime functions.
    """
    part = _level_part(setting)
    ps = (setting.p,)
    (bound,) = _final_bound_column(setting, part, ps, *_residue_cardinalities(setting, ps))
    # through the one-prime functions, not final_bounds: a sweep calls this
    # once per shape, and perfbench's traced spans of each must see it
    mass = superspecial_mass(setting)
    irr = irr_count(setting)
    dim = dim_bound(setting)
    _check_identity((bound,), (mass,), (irr,), (dim,))
    return BoundReport(setting, setting.quaternion.zeta_values, part.constant,
                       part.group_order, mass, irr, dim, bound, part.exponent)


def siegel_bound(m: int, level: int, p: int) -> int:
    """The bound in the principally polarized (Siegel) case, written out
    on its own rather than delegating to final_bound, so that agreement
    between the two over the rationals is a genuine cross-check:

        C * |GSp_2m(Z/NZ)| * p^((m+2)(m-1)/2) * (p-1)(p+1)
          * prod_{j=1}^{m} (p^j + (-1)^j),
        C = (-1)^(m(m+1)/2) / 2^m * prod_{i=1}^{m} zeta(1-2i).
    """
    # the inputs the main route accepts over Q, with its codes in its
    # order: the datum's checks on m, then the setting's on N and p
    validate_setting(QuaternionData(FieldSpec.rationals(), (), m), level, p)

    constant = Fraction((-1) ** (m * (m + 1) // 2), 2**m)
    for i in range(1, m + 1):
        constant *= -bernoulli(2 * i) / (2 * i)

    gsp = 1
    for ell, a in factorize(level):
        gsp *= (
            ell ** (a - 1) * (ell - 1)
            * sp_order(m, ell)
            * ell ** ((a - 1) * (2 * m * m + m))
        )

    factor = p ** ((m + 2) * (m - 1) // 2) * (p - 1) * (p + 1)
    for j in range(1, m + 1):
        factor *= p**j + (-1) ** j
    return _positive_integers(constant * gsp, (factor,), "Siegel bound")[0]


def _check_shared_inputs(settings: list[ShimuraSetting]) -> None:
    first = settings[0]
    for s in settings[1:]:
        if s.quaternion != first.quaternion or s.level != first.level:
            raise ValueError("settings must share field, ramification, m and level")
    ps = [s.p for s in settings]
    if any(b <= a for a, b in zip(ps, ps[1:])):
        raise ValueError("settings must have strictly increasing p")


def asymptotic_check(settings: list[ShimuraSetting]) -> bool:
    """Exact finite-sample test that the bound grows like O(p^E) with
    E = d*m^2 + d*m + 1, over settings sharing everything but p.

    Two conditions, both exact rational comparisons:
      * every sampled bound is below an explicit constant times p^E
        (each local factor q^j + 1 is at most twice its leading term,
        giving the cap constant * 2^(d(m+1)) valid for all p); and
      * the empirical log-slope between consecutive primes stays below
        the next integer exponent E + 1, so the detected growth degree
        never reaches E + 1.

    The slope is compared via bound2 * p1^(E+1) < bound1 * p2^(E+1),
    one integer comparison per consecutive pair.
    """
    if len(settings) < 3:
        raise ValueError("need at least 3 sample primes")
    _check_shared_inputs(settings)
    reports = [final_bound(s) for s in settings]
    d, m = settings[0].degree, settings[0].m
    exp = asymptotic_exponent(d, m)
    cap = (
        reports[0].constant
        * reports[0].level_group_order
        * 2 ** (d * (m + 1))
    )
    for r in reports:
        if r.final_bound > cap * Fraction(r.setting.p) ** exp:
            return False
    for r1, r2 in zip(reports, reports[1:]):
        p1, p2 = r1.setting.p, r2.setting.p
        if r2.final_bound * p1 ** (exp + 1) >= r1.final_bound * p2 ** (exp + 1):
            return False
    return True


def detect_p_degree(settings: list[ShimuraSetting]) -> int:
    """Degree of the exact interpolating polynomial through the points
    (p, final_bound(p)).

    On samples where every place over p has residue degree 1 the bound
    is a single polynomial in p, so feeding E + 2 primes certifies that
    its degree is exactly E.  Newton divided differences over Fraction.
    """
    if len(settings) < 2:
        raise ValueError("need at least 2 sample primes")
    _check_shared_inputs(settings)
    xs = [Fraction(s.p) for s in settings]
    ys = [Fraction(final_bound(s).final_bound) for s in settings]

    # divided-difference coefficients of the Newton form; the k-th Newton
    # basis polynomial prod_{i<k} (x - x_i) has exact degree k
    coeffs = list(ys)
    n = len(xs)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    return max((k for k, c in enumerate(coeffs) if c), default=0)
