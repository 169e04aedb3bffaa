from math import gcd

import pytest

import heckebound.arith as arith_mod
import heckebound.numberfield as numberfield_mod
from heckebound.groups import (
    dim_bound,
    gl_order,
    irr_count,
    level_group_order,
    sp_order,
    unitary_order,
)
from heckebound.numberfield import FieldSpec, QuaternionData, validate_setting

Q = FieldSpec.rationals()
R5 = FieldSpec.real_quadratic(5)
R8 = FieldSpec.real_quadratic(8)


def setting(fld, m, level, p, ram=()):
    return validate_setting(QuaternionData(fld, tuple(ram), m), level, p)


def test_gl_order_values():
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    assert gl_order(3, 2) == 168
    for q in (2, 3, 4, 5, 7, 9):
        assert gl_order(1, q) == q - 1


def test_unitary_order_values():
    assert unitary_order(1, 3) == 4
    assert unitary_order(2, 2) == 18
    assert unitary_order(2, 3) == 96
    for q in (2, 3, 4, 5, 7):
        assert unitary_order(1, q) == q + 1


def test_sp_order_values():
    assert sp_order(1, 2) == 6
    assert sp_order(1, 3) == 24
    assert sp_order(2, 2) == 720
    # Sp_2 = SL_2
    for q in (2, 3, 4, 5, 7, 9):
        assert sp_order(1, q) == gl_order(2, q) // (q - 1)


def test_order_preconditions():
    for fn in (gl_order, unitary_order, sp_order):
        with pytest.raises(ValueError):
            fn(0, 3)
        with pytest.raises(ValueError):
            fn(2, 1)


def test_level_group_order_values():
    assert level_group_order(setting(Q, 1, 3, 5)) == 48
    assert level_group_order(setting(Q, 1, 4, 5)) == 96
    assert level_group_order(setting(Q, 1, 5, 2)) == 480
    assert level_group_order(setting(Q, 1, 6, 5)) == 288
    # 3 is inert in Q(sqrt 5): 2 * |SL_2(F_9)|
    assert level_group_order(setting(R5, 1, 3, 2)) == 1440
    # 7 splits in Q(sqrt 8): two Sp factors over F_7
    assert level_group_order(setting(R8, 1, 7, 3)) == 6 * 336 * 336


def test_level_group_order_proves_no_prime_of_the_level(monkeypatch):
    # factorize's trial division proves the primes of N; splitting them
    # runs no second primality test
    s = setting(Q, 1, 3 * 5 * 7 * 11, 2)
    calls = []
    for module in (arith_mod, numberfield_mod):
        real = module.is_prime
        monkeypatch.setattr(module, "is_prime",
                            lambda n, real=real: calls.append(n) or real(n))
    # |GSp_2(Z/ell)| = (ell - 1) * |SL_2(F_ell)| for each ell
    assert level_group_order(s) == 2 * 24 * 4 * 120 * 6 * 336 * 10 * 1320
    assert calls == []


def test_level_group_order_multiplicative():
    for fld in (Q, R5):
        for m in (1, 2):
            for n1, n2 in ((3, 4), (3, 7), (4, 7), (3, 11)):
                if gcd(fld.discriminant, n1 * n2) != 1:
                    continue
                p = 13 if (n1 * n2) % 13 else 17
                a = level_group_order(setting(fld, m, n1 * n2, p))
                b = level_group_order(setting(fld, m, n1, p))
                c = level_group_order(setting(fld, m, n2, p))
                assert a == b * c, (fld, m, n1, n2)


def test_irr_count_examples():
    assert irr_count(setting(Q, 1, 4, 3)) == 8
    assert irr_count(setting(Q, 2, 3, 2)) == 6
    assert irr_count(setting(Q, 1, 3, 5)) == 24


def test_irr_count_is_rank_power_times_center():
    for fld in (Q, R5, R8):
        for m in (1, 2, 3):
            for level, p in ((3, 2), (3, 7), (4, 3), (3, 11), (3, 13)):
                if fld.discriminant % p == 0 or level % p == 0:
                    continue
                if gcd(level, fld.discriminant) != 1:
                    continue
                s = setting(fld, m, level, p)
                # center: (p-1) * prod_{v|p, f_v even} (q_v - 1) * prod_{f_v odd} (q_v + 1)
                center = p - 1
                for v in s.places_over_p:
                    q = v.residue_cardinality
                    center *= q + 1 if v.residue_degree % 2 else q - 1
                assert irr_count(s) == p ** (fld.degree * (m - 1)) * center


def test_dim_bound_examples():
    assert dim_bound(setting(Q, 1, 3, 5)) == 1
    assert dim_bound(setting(Q, 1, 3, 13)) == 1
    assert dim_bound(setting(Q, 2, 3, 2)) == 2
    assert dim_bound(setting(Q, 2, 4, 3)) == 3
    assert dim_bound(setting(R5, 2, 3, 2)) == 4


def test_dim_bound_exponent():
    for fld, m, level, p, expected in (
        (Q, 3, 5, 2, 2**3),
        (R5, 3, 3, 2, 2**6),
        (R8, 2, 5, 3, 3**2),
    ):
        assert dim_bound(setting(fld, m, level, p)) == expected
