"""Closed-form orders of the finite classical groups entering the bound,
the order of the similitude group over Z/NZ, the count of irreducible
modular representations of the residual automorphism group, and the
Sylow dimension bound.
"""

from __future__ import annotations

from itertools import repeat
from operator import mul, ne, sub

from .arith import factorize, kronecker
from .numberfield import ShimuraSetting, splitting

__all__ = [
    "gl_order",
    "unitary_order",
    "sp_order",
    "level_group_order",
    "irr_count",
    "irr_counts",
    "dim_bound",
    "dim_bounds",
]


def gl_order(m: int, q: int) -> int:
    """|GL_m(F_q)| = q^(m(m-1)/2) * prod_{j=1}^{m} (q^j - 1)."""
    if m < 1 or q < 2:
        raise ValueError("need m >= 1 and a prime power q >= 2")
    order = q ** (m * (m - 1) // 2)
    for j in range(1, m + 1):
        order *= q**j - 1
    return order


def unitary_order(m: int, q: int) -> int:
    """|U_m(F_q)| = q^(m(m-1)/2) * prod_{j=1}^{m} (q^j - (-1)^j).

    U_m(F_q) is the isometry group of the hermitian form on F_{q^2}^m
    with respect to the involution x -> x^q.
    """
    if m < 1 or q < 2:
        raise ValueError("need m >= 1 and a prime power q >= 2")
    order = q ** (m * (m - 1) // 2)
    for j in range(1, m + 1):
        order *= q**j - (-1) ** j
    return order


def sp_order(m: int, q: int) -> int:
    """|Sp_2m(F_q)| = q^(m^2) * prod_{j=1}^{m} (q^(2j) - 1)."""
    if m < 1 or q < 2:
        raise ValueError("need m >= 1 and a prime power q >= 2")
    order = q ** (m * m)
    for j in range(1, m + 1):
        order *= q ** (2 * j) - 1
    return order


def level_group_order(setting: ShimuraSetting) -> int:
    """Order of the similitude group over Z/NZ at a good level N.

    For each prime power ell^a || N the local factor is
    phi(ell^a) * prod_{w | ell} |Sp_2m(F_{ell^f_w})| * (ell^f_w)^((a-1)(2m^2+m)),
    one similitude unit shared by all places over ell.  The lift exponent
    per extra power of ell is the relative dimension 2m^2 + m of the
    symplectic factor, which is smooth at primes coprime to the
    discriminant data (enforced by validation).  The places over ell
    share one residue degree, so their product is one place's factor to
    the power of their count.  The primes of N are proven by factorize's
    trial division, so they are split without a second primality test.
    """
    m = setting.m
    lift_dim = 2 * m * m + m
    order = 1
    for ell, a in factorize(setting.level):
        count, degree, _ = splitting(setting.field, ell)
        qw = ell**degree
        place = sp_order(m, qw) * qw ** ((a - 1) * lift_dim)
        order *= ell ** (a - 1) * (ell - 1) * place**count
    return order


def _residue_cardinalities(setting: ShimuraSetting, ps) -> tuple[list, int, int]:
    """(q_v = p^f for each p of ps, the count of places over p, and
    eps = (-1)^f) for primes ps that split in F as setting.p does.  A
    prime that splits otherwise raises ValueError naming it: over Q
    every prime splits one way, and over a quadratic field the check is
    one Kronecker symbol per prime."""
    fld = setting.field
    if fld.degree == 2:
        d = fld.discriminant
        chi = kronecker(d, setting.p)
        if any(map(ne, map(kronecker, repeat(d), ps), repeat(chi))):
            p = next(p for p in ps if kronecker(d, p) != chi)
            raise ValueError(f"p = {p} does not split in F as p = {setting.p} does")
    places = setting.places_over_p
    f = places[0].residue_degree
    qs = ps if f == 1 else list(map(pow, ps, repeat(f)))
    return qs, len(places), -1 if setting.delta_prime_at_p else 1


def _over_places(factors, count: int):
    # a local factor's product over the places over p: they share one q_v,
    # so it is the factor's count-th power
    return factors if count == 1 else map(pow, factors, repeat(count))


def irr_counts(setting: ShimuraSetting, ps) -> list[int]:
    """irr_count at each prime of ps, primes that split in F as setting.p
    does, in setting's datum: one map pass per factor of the closed form
    over all of them."""
    return _irr_column(setting, ps, *_residue_cardinalities(setting, ps))


def _irr_column(setting: ShimuraSetting, ps, qs, count: int, eps: int) -> list[int]:
    # irr_counts at primes whose _residue_cardinalities are already known
    quaternion = setting.quaternion
    center = map(mul, map(sub, ps, repeat(1)), _over_places(map(sub, qs, repeat(eps)), count))
    rank = quaternion.field.degree * (quaternion.m - 1)
    return list(map(mul, map(pow, ps, repeat(rank)), center))


def irr_count(setting: ShimuraSetting) -> int:
    """Number of irreducible modular representations of the residual
    automorphism group in characteristic p:

        p^(d(m-1)) * (p-1) * prod_{v | p, f_v even} (q_v - 1)
                           * prod_{v | p, f_v odd}  (q_v + 1),

    i.e. p^(semisimple rank) times the center order.  Every place over p
    has one residue degree f, so with eps = (-1)^f both products are
    prod_{v | p} (q_v - eps).  This equals the number of p-regular
    conjugacy classes (the enumeration oracle verifies that on every
    small instance).  The one-prime case of irr_counts.
    """
    return irr_counts(setting, (setting.p,))[0]


def dim_bounds(setting: ShimuraSetting, ps) -> list[int]:
    """dim_bound at each prime of ps, in setting's datum."""
    quaternion = setting.quaternion
    m = quaternion.m
    return list(map(pow, ps, repeat(quaternion.field.degree * m * (m - 1) // 2)))


def dim_bound(setting: ShimuraSetting) -> int:
    """p^(dm(m-1)/2): the p-Sylow order of the residual automorphism
    group, an upper bound for the dimension of any of its simple
    modules in characteristic p.  The one-prime case of dim_bounds."""
    return dim_bounds(setting, (setting.p,))[0]
