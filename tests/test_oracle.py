import itertools
import time

import pytest

import heckebound.oracle as oracle_mod
from heckebound.arith import InternalCheckError
from heckebound.groups import (
    dim_bound,
    gl_order,
    irr_count,
    level_group_order,
    sp_order,
    unitary_order,
)
from heckebound.numberfield import FieldSpec, QuaternionData, validate_setting
from heckebound.oracle import (
    FqMatrixGroup,
    StateSpaceError,
    _hermitian_matrices,
    count_symplectic_matrices,
    enumerate_gl,
    enumerate_gsp_modn,
    enumerate_similitude_product,
    enumerate_sp,
    enumerate_unitary,
    mat_mul,
    p_regular_class_count,
    small_field,
    sylow_p_order,
    verify_setting_with_oracle,
)

Q = FieldSpec.rationals()
R5 = FieldSpec.real_quadratic(5)
R8 = FieldSpec.real_quadratic(8)
R13 = FieldSpec.real_quadratic(13)


def setting(fld, m, level, p):
    return validate_setting(QuaternionData(fld, (), m), level, p)


# --- fields ------------------------------------------------------------------


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (7, 1),
                                 (2, 2), (3, 2), (5, 2), (7, 2), (2, 4)])
def test_small_field_construction(p, e):
    # construction runs the exhaustive axiom check internally
    f = small_field(p, e)
    assert f.order == p**e
    assert f.mul[f.one][f.one] == f.one
    if e % 2 == 0:
        fixed = [a for a in range(f.order) if f.frob[a] == a]
        assert len(fixed) == p ** (e // 2)
        assert set(range(p)).issubset(set(fixed))


def test_small_field_rejects_out_of_range():
    with pytest.raises(ValueError):
        small_field(11, 1)
    with pytest.raises(ValueError):
        small_field(3, 4)  # 81 > 49
    with pytest.raises(ValueError):
        small_field(4, 1)


# --- closed-form orders vs enumeration --------------------------------------


@pytest.mark.parametrize("m,q", [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2),
                                 (2, 3), (3, 2)])
def test_gl_enumeration_matches_formula(m, q):
    assert enumerate_gl(m, q).order == gl_order(m, q)


@pytest.mark.parametrize("m,q", [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2),
                                 (2, 3), (3, 2)])
def test_unitary_enumeration_matches_formula(m, q):
    assert enumerate_unitary(m, q).order == unitary_order(m, q)


@pytest.mark.parametrize("m,q", [(1, 2), (1, 3), (1, 5), (1, 9), (2, 2)])
def test_sp_enumeration_matches_formula(m, q):
    assert enumerate_sp(m, q).order == sp_order(m, q)


@pytest.mark.parametrize("m,q", [(1, 7), (2, 3), (2, 4)])
def test_sp_count_matches_formula(m, q):
    assert count_symplectic_matrices(m, q) == sp_order(m, q)


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_gsp_enumeration_matches_level_group_order(level):
    p = 7 if level != 7 else 11
    s = setting(Q, 1, level, p)
    assert enumerate_gsp_modn(1, level).order == level_group_order(s)


# --- guards ------------------------------------------------------------------


def test_state_space_guard(monkeypatch):
    with pytest.raises(StateSpaceError):
        enumerate_gl(3, 7)  # 7^9 candidates
    t0 = time.monotonic()
    with pytest.raises(StateSpaceError):
        count_symplectic_matrices(3, 3)  # |Sp_6(F_3)| ~ 9e9 leaves
    assert time.monotonic() - t0 < 0.5  # charged before the walk
    monkeypatch.setattr(oracle_mod, "ELEMENT_LIMIT", 1000)
    with pytest.raises(StateSpaceError, match="1000 element limit"):
        enumerate_sp(2, 3)  # 51840 elements to store
    with pytest.raises(StateSpaceError):
        enumerate_similitude_product(setting(Q, 1, 3, 11))  # char > 7


def test_oracle_verification_helper():
    assert verify_setting_with_oracle(setting(Q, 1, 3, 5)) == {"verified": True}
    skipped = verify_setting_with_oracle(setting(Q, 1, 3, 11))
    assert skipped["verified"] is False and "skipped" in skipped


@pytest.mark.parametrize("fld", [R5, R8])  # p = 7 inert, split
def test_oversized_residual_group_skips_fast(fld):
    # |GL_2(F_49)| * 6 and |U_2(F_7)|^2 * 6 both exceed the element limit
    t0 = time.monotonic()
    result = verify_setting_with_oracle(setting(fld, 2, 3, 7))
    assert time.monotonic() - t0 < 5.0
    assert result["verified"] is False
    assert "element limit" in result["skipped"]


@pytest.mark.parametrize("fld,m,level,p,reason", [
    (Q, 3, 3, 5, "budget"),  # pool of 3150 vectors: the mask table alone is 9.9M entries
    (R13, 3, 4, 3, "element limit"),  # two U_3(F_3) pools of 24 192 before assembly
])
def test_hermitian_search_skips_before_its_work(fld, m, level, p, reason):
    t0 = time.monotonic()
    result = verify_setting_with_oracle(setting(fld, m, level, p))
    assert time.monotonic() - t0 < 1.0
    assert result["verified"] is False
    assert reason in result["skipped"]


def brute_force_hermitian(f, m: int) -> dict[int, list[tuple]]:
    """Reference for the mask search: every m x m matrix A over f, kept
    under t when A^t conj(A) = t*I for a nonzero t."""
    rows = list(itertools.product(range(f.order), repeat=m))
    conj = {r: tuple(f.frob[x] for x in r) for r in rows}
    scalar = {
        tuple(tuple(t if i == j else 0 for j in range(m)) for i in range(m)): t
        for t in range(1, f.order)
    }
    out: dict[int, list[tuple]] = {}
    for a in itertools.product(rows, repeat=m):
        t = scalar.get(mat_mul(f, tuple(zip(*a)), tuple(conj[r] for r in a)))
        if t is not None:
            out.setdefault(t, []).append(a)
    return out


@pytest.mark.parametrize("p,e,m", [(2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2),
                                   (2, 4, 1), (2, 4, 2), (2, 2, 3)])
def test_hermitian_search_matches_brute_force(p, e, m):
    f = small_field(p, e)
    targets = list(range(1, f.order))  # targets off the fixed field have no solution
    found = _hermitian_matrices(f, m, targets, "test")
    expected = brute_force_hermitian(f, m)
    assert expected  # at least t = 1 has solutions
    for t in targets:
        assert len(set(found[t])) == len(found[t]), t
        assert set(found[t]) == set(expected.get(t, [])), t


# --- group structure queries -------------------------------------------------


def test_group_closure_checks():
    # conjugacy_classes certifies closure: the generating set must close
    # up to exactly the enumerated element set
    for group in (enumerate_gl(2, 3), enumerate_unitary(2, 2),
                  enumerate_gsp_modn(1, 4)):
        classes = group.conjugacy_classes()
        assert sum(len(c) for c in classes) == group.order


def test_conjugacy_partition_sanity():
    for group in (enumerate_gl(2, 3), enumerate_unitary(2, 3),
                  enumerate_sp(2, 2)):
        classes = group.conjugacy_classes()
        sizes = [len(c) for c in classes]
        assert sum(sizes) == group.order
        for size in sizes:
            assert group.order % size == 0


def test_group_faults_raise_internal_check_error():
    identity = ((1,),)
    with pytest.raises(InternalCheckError, match="duplicate"):
        FqMatrixGroup("doubled", [identity, identity], lambda a, b: a, identity)
    with pytest.raises(InternalCheckError, match="identity"):
        FqMatrixGroup("no identity", [((2,),)], lambda a, b: a, identity)
    # {1, 2} in (Z/5)^*: 2 * 2 = 4 leaves the set
    not_closed = FqMatrixGroup(
        "not closed", [identity, ((2,),)],
        lambda a, b: ((a[0][0] * b[0][0] % 5,),), identity,
    )
    with pytest.raises(InternalCheckError, match="closure"):
        not_closed.conjugacy_classes()


def test_non_group_closure_raises_internal_check_error():
    # {1, 0} in Z/5 is closed under products, but x -> x * 0 is no permutation
    identity = ((1,),)
    monoid = FqMatrixGroup(
        "monoid", [identity, ((0,),)],
        lambda a, b: ((a[0][0] * b[0][0] % 5,),), identity,
    )
    with pytest.raises(InternalCheckError, match="permute"):
        monoid.conjugacy_classes()


def test_trivial_group_class_count():
    identity = ((1,),)
    trivial = FqMatrixGroup("trivial", [identity], lambda a, b: identity, identity)
    for p in (2, 3, 5):
        assert p_regular_class_count(trivial, p) == 1
        assert sylow_p_order(trivial, p) == 1


def test_p_regular_count_unitary_example():
    group = enumerate_unitary(2, 2)
    assert p_regular_class_count(group, 2) == 6


def test_sylow_order_examples():
    assert sylow_p_order(enumerate_gl(2, 2), 2) == 2
    assert sylow_p_order(enumerate_unitary(2, 2), 2) == 2
    assert sylow_p_order(enumerate_gl(2, 2), 5) == 1


# --- residual automorphism group instances -----------------------------------


def test_similitude_instance_d1_m1_p3():
    group = enumerate_similitude_product(setting(Q, 1, 4, 3))
    assert group.order == 8
    assert p_regular_class_count(group, 3) == 8
    assert sylow_p_order(group, 3) == 1


def test_similitude_instance_orders():
    # constrained factor contributes |U_m(F_p)| per unit r
    assert enumerate_similitude_product(setting(Q, 2, 3, 2)).order == 18
    assert enumerate_similitude_product(setting(Q, 2, 4, 3)).order == 96 * 2
    # inert place: unconstrained GL_m(F_{p^2}) times the unit group
    assert enumerate_similitude_product(setting(R5, 1, 3, 2)).order == 3
    assert enumerate_similitude_product(setting(R5, 2, 3, 2)).order == 180
    # split p: two norm equations sharing one similitude
    assert enumerate_similitude_product(setting(R8, 1, 3, 7)).order == 8 * 8 * 6


CROSS_CHECK_INSTANCES = [
    (Q, 1, 3, 2), (Q, 1, 4, 3), (Q, 1, 3, 5), (Q, 1, 3, 7),
    (Q, 2, 3, 2), (Q, 2, 4, 3),
    (R5, 1, 3, 2), (R5, 1, 4, 3),
    (R8, 1, 3, 7),
    (R5, 2, 3, 2),
]


@pytest.mark.parametrize("fld,m,level,p", CROSS_CHECK_INSTANCES)
def test_irr_and_sylow_cross_checks(fld, m, level, p):
    s = setting(fld, m, level, p)
    group = enumerate_similitude_product(s)
    assert group.order <= 100_000
    assert p_regular_class_count(group, p) == irr_count(s)
    assert sylow_p_order(group, p) == dim_bound(s)


def test_m3_residual_group_verifies():
    # the similitude unitary group of U_3(F_3); N does not enter it, so
    # N = 5 gives the same group
    s = setting(Q, 3, 4, 3)
    group = enumerate_similitude_product(s)
    assert group.order == 48_384
    assert p_regular_class_count(group, 3) == irr_count(s)
    assert verify_setting_with_oracle(s) == {"verified": True}


def direct_conjugacy_classes(group: FqMatrixGroup) -> list[list]:
    """Reference partition: the orbit of x is {g x g^-1 : g in G}, with
    every element of G as a conjugator and its inverse found by search
    (O(|G|^2) products)."""
    inverses = {
        g: next(h for h in group.elements if group.mul(g, h) == group.identity)
        for g in group.elements
    }
    assigned = set()
    classes = []
    for x in group.elements:
        if x in assigned:
            continue
        orbit = {group.mul(group.mul(g, x), inverses[g]) for g in group.elements}
        assigned |= orbit
        classes.append(sorted(orbit))
    return classes


def test_generating_set_path_matches_direct_orbits():
    # residual groups of settings, then four standalone groups that are not
    residual = [
        enumerate_similitude_product(setting(fld, m, level, p))
        for fld, m, level, p in ((Q, 1, 3, 5), (Q, 2, 3, 2), (Q, 2, 4, 3), (R5, 2, 3, 2))
    ]
    standalone = [enumerate_gl(2, 3), enumerate_unitary(2, 3), enumerate_sp(1, 5),
                  enumerate_gsp_modn(1, 4)]
    orders = (24, 18, 192, 180, 48, 96, 120, 96)
    for group, order in zip(residual + standalone, orders, strict=True):
        assert group.order == order
        via_gens = group.conjugacy_classes()
        direct = direct_conjugacy_classes(group)
        assert sorted(map(tuple, via_gens)) == sorted(map(tuple, direct)), order
