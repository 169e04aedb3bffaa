"""Closed-form orders of the finite classical groups entering the bound,
the order of the similitude group over Z/NZ, the count of irreducible
modular representations of the residual automorphism group, and the
Sylow dimension bound.
"""

from __future__ import annotations

from .arith import factorize
from .numberfield import ShimuraSetting, _places_over

__all__ = [
    "gl_order",
    "unitary_order",
    "sp_order",
    "level_group_order",
    "irr_count",
    "dim_bound",
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
    discriminant data (enforced by validation).  The primes of N are
    proven by factorize's trial division, so they are split without a
    second primality test.
    """
    m = setting.m
    lift_dim = 2 * m * m + m
    order = 1
    for ell, a in factorize(setting.level):
        local = ell ** (a - 1) * (ell - 1)
        for w in _places_over(setting.field, ell):
            qw = w.residue_cardinality
            local *= sp_order(m, qw) * qw ** ((a - 1) * lift_dim)
        order *= local
    return order


def irr_count(setting: ShimuraSetting) -> int:
    """Number of irreducible modular representations of the residual
    automorphism group in characteristic p:

        p^(d(m-1)) * (p-1) * prod_{v | p, f_v even} (q_v - 1)
                           * prod_{v | p, f_v odd}  (q_v + 1),

    i.e. p^(semisimple rank) times the center order.  Every place over p
    has one residue degree f, so with eps = (-1)^f both products are
    prod_{v | p} (q_v - eps).  This equals the number of p-regular
    conjugacy classes (the enumeration oracle verifies that on every
    small instance).
    """
    p, quaternion = setting.p, setting.quaternion
    eps = -1 if setting.delta_prime_at_p else 1
    center = p - 1
    for v in setting.places_over_p:
        center *= v.residue_cardinality - eps
    return p ** (quaternion.field.degree * (quaternion.m - 1)) * center


def dim_bound(setting: ShimuraSetting) -> int:
    """p^(dm(m-1)/2): the p-Sylow order of the residual automorphism
    group, an upper bound for the dimension of any of its simple
    modules in characteristic p."""
    quaternion = setting.quaternion
    m = quaternion.m
    return setting.p ** (quaternion.field.degree * m * (m - 1) // 2)
