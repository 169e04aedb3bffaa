import functools
import itertools
import math
import random
import time
from operator import getitem
from types import SimpleNamespace

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
    _charge,
    _hermitian_matrices,
    _matrix_right,
    _pairing_masks,
    _ring_tables,
    count_symplectic_matrices,
    enumerate_gl,
    enumerate_gsp_modn,
    enumerate_similitude_product,
    enumerate_sp,
    enumerate_unitary,
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


def mat_mul(f, a: tuple, b: tuple) -> tuple:
    """Reference matrix product over a table ring f: a row times a column
    summed entry by entry through f.add and f.mul."""
    mul, add = f.mul, f.add
    bt = tuple(zip(*b))
    out = []
    for row in a:
        orow = []
        for col in bt:
            s = 0
            for x, y in zip(row, col):
                s = add[s][mul[x][y]]
            orow.append(s)
        out.append(tuple(orow))
    return tuple(out)


def zmod(n: int) -> SimpleNamespace:
    return _ring_tables(n, 1, (0,))


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


ALL_TABLE_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
                    (5, 1), (5, 2), (7, 1), (7, 2)]  # every p^e <= 49


def reference_field_tables(p: int, e: int):
    """Schoolbook F_{p^e}: coefficient vectors (constant term first, read
    as base-p digits) multiplied out and reduced modulo the first monic
    irreducible of degree e, with tails in itertools.product order and
    irreducibility decided by trial division."""

    def rem(num, den):  # remainder of num modulo the monic den
        num = list(num)
        d = len(den) - 1
        for i in range(len(num) - 1, d - 1, -1):
            c = num[i]
            for k, y in enumerate(den):
                num[i - d + k] = (num[i - d + k] - c * y) % p
        return num[:d]

    def irreducible(poly):
        return all(
            any(rem(poly, list(t) + [1]))
            for deg in range(1, e // 2 + 1)
            for t in itertools.product(range(p), repeat=deg)
        )

    modulus = next(
        list(t) + [1] for t in itertools.product(range(p), repeat=e)
        if irreducible(list(t) + [1])
    )
    q = p**e
    vec = [[a // p**i % p for i in range(e)] for a in range(q)]

    def code(v):
        return sum(c % p * p**i for i, c in enumerate(v))

    def times(u, v):
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                prod[i + j] += x * y
        return code(rem(prod, modulus))

    add = [[code([x + y for x, y in zip(vec[a], vec[b])]) for b in range(q)]
           for a in range(q)]
    mul = [[times(vec[a], vec[b]) for b in range(q)] for a in range(q)]
    neg = [add[a].index(0) for a in range(q)]
    frob = None
    if e % 2 == 0:
        frob = []
        for a in range(q):
            y = 1
            for _ in range(p ** (e // 2)):
                y = mul[y][a]
            frob.append(y)
    return add, mul, neg, frob


@pytest.mark.parametrize("p,e", ALL_TABLE_FIELDS)
def test_small_field_tables_match_schoolbook_reference(p, e):
    # the modulus and the element encoding are pinned, not just the axioms
    f = small_field(p, e)
    assert (f.add, f.mul, f.neg, f.frob) == reference_field_tables(p, e)


@pytest.mark.parametrize("n", range(2, 13))
def test_zmod_ring_negates_by_its_constant_minus_one(n):
    ring = zmod(n)
    assert ring.order == n
    assert ring.neg == [(-a) % n for a in range(n)]


@pytest.mark.parametrize("p,e", ALL_TABLE_FIELDS)
def test_small_field_neg_is_the_additive_inverse(p, e):
    f = small_field(p, e)
    assert all(f.add[a][f.neg[a]] == 0 for a in range(f.order))


@pytest.mark.parametrize("n", range(2, 13))
def test_mat_mul_over_zmod_tables_is_the_integer_product(n):
    # the reference product and the row tables the closure walk looks up
    zn = zmod(n)
    rng = random.Random(n)
    for size in (2, 4):
        for _ in range(25):
            a, b = (
                tuple(tuple(rng.randrange(n) for _ in range(size)) for _ in range(size))
                for _ in range(2)
            )
            expected = tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(size)) % n
                      for j in range(size))
                for i in range(size)
            )
            tables = _matrix_right(zn)(b)
            assert tuple(map(getitem, tables, a)) == expected == mat_mul(zn, a, b)
            assert set(tables[0]) == set(a)  # filled by the lookups alone


def test_charge_decides_huge_powers_from_the_exponent():
    cap = oracle_mod.DEFAULT_CAP
    for base in range(6):
        for exponent in range(40):
            if base**exponent > cap:
                with pytest.raises(StateSpaceError, match=f"^x: .* {cap} budget$"):
                    _charge("x", base, exponent)
            else:
                assert _charge("x", base, exponent, spent=1) == base**exponent + 1
    assert _charge("x", 1, 10**15) == 1
    with pytest.raises(StateSpaceError):
        _charge("x", 1, spent=cap)


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


def leibniz_det(add, mul, neg, a) -> int:
    """det(a) = sum over permutations s of sign(s) * prod_i a[i][s(i)]."""
    m = len(a)
    det = 0
    for perm in itertools.permutations(range(m)):
        term = 1
        for i, j in enumerate(perm):
            term = mul[term][a[i][j]]
        inversions = sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m))
        det = add[det][neg[term] if inversions % 2 else term]
    return det


@pytest.mark.parametrize("m,q", [(1, 2), (1, 4), (1, 49), (2, 2), (2, 3), (2, 4),
                                 (2, 9), (3, 2), (3, 3)])
def test_gl_row_search_is_the_determinant_filter(m, q):
    # every m x m matrix in increasing order of its entries, kept when its
    # determinant over the schoolbook tables is nonzero: same list, same order
    p, e = next((p, e) for p in (2, 3, 5, 7) for e in range(1, 6) if p**e == q)
    add, mul, neg, _ = reference_field_tables(p, e)
    expected = []
    for entries in itertools.product(range(q), repeat=m * m):
        a = tuple(entries[i * m:(i + 1) * m] for i in range(m))
        if leibniz_det(add, mul, neg, a) != 0:
            expected.append(a)
    assert enumerate_gl(m, q).elements == expected


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


@pytest.mark.parametrize("level", [3, 4, 5, 6, 7, 8, 9, 12])
def test_gsp_enumeration_matches_level_group_order(level):
    p = 7 if level != 7 else 11
    s = setting(Q, 1, level, p)
    assert enumerate_gsp_modn(1, level).order == level_group_order(s)


def test_gsp_over_z2_is_sp_over_f2():
    # 1 is the only unit mod 2, so GSp_4(Z/2) = Sp_4(F_2)
    assert enumerate_gsp_modn(2, 2).order == sp_order(2, 2) == 720


def brute_force_gsp(m: int, level: int) -> set[tuple]:
    """Reference for the basis search: every 2m x 2m matrix g over Z/N,
    kept when g^t J g = c J for a unit c, with products by mat_mul over
    the Z/N tables."""
    n = 2 * m
    zn = zmod(level)
    jmat = [[0] * n for _ in range(n)]
    for k in range(m):
        jmat[2 * k][2 * k + 1] = 1
        jmat[2 * k + 1][2 * k] = level - 1
    jmat = tuple(tuple(r) for r in jmat)
    out = set()
    for entries in itertools.product(range(level), repeat=n * n):
        g = tuple(entries[i * n:(i + 1) * n] for i in range(n))
        w = mat_mul(zn, mat_mul(zn, tuple(zip(*g)), jmat), g)
        c = w[0][1]
        if math.gcd(c, level) == 1 and w == tuple(
            tuple(c * x % level for x in row) for row in jmat
        ):
            out.add(g)
    return out


@pytest.mark.parametrize("level", range(2, 9))
def test_gsp_basis_search_matches_brute_force(level):
    found = enumerate_gsp_modn(1, level).elements
    assert set(found) == brute_force_gsp(1, level)


def test_gsp_charges_its_basis_tree_and_tables(monkeypatch):
    # N^(2m^2+m+1) for the tree and N^(4m) for the tables, charged apart:
    # N^4 both at m = 1, the old charge for all N^(4m^2) matrices
    monkeypatch.setattr(oracle_mod, "DEFAULT_CAP", 5**4)
    assert enumerate_gsp_modn(1, 5).order == 480
    with pytest.raises(StateSpaceError, match=r"^GSp_2\(Z/6\): candidate space"):
        enumerate_gsp_modn(1, 6)
    monkeypatch.setattr(oracle_mod, "DEFAULT_CAP", 2**11 - 1)  # the m = 2 tree
    with pytest.raises(StateSpaceError, match=r"^GSp_4\(Z/2\): candidate space"):
        enumerate_gsp_modn(2, 2)


@pytest.mark.parametrize("build,order,what", [
    (lambda: enumerate_gsp_modn(1, 5), 480, r"GSp_2\(Z/5\)"),
    (lambda: enumerate_sp(1, 7), 336, r"Sp_2\(F_7\)"),
], ids=["GSp_2(Z/5)", "Sp_2(F_7)"])
def test_m1_basis_groups_count_elements_as_rows_complete(monkeypatch, build, order, what):
    # the running count is exact: a limit of the order passes, one less fails
    monkeypatch.setattr(oracle_mod, "ELEMENT_LIMIT", order)
    assert build().order == order
    monkeypatch.setattr(oracle_mod, "ELEMENT_LIMIT", order - 1)
    with pytest.raises(StateSpaceError,
                       match=f"^{what}: more than the {order - 1} element limit to store$"):
        build()
    monkeypatch.setattr(oracle_mod, "ELEMENT_LIMIT", 10)
    assert count_symplectic_matrices(1, 7) == 336  # stores nothing, so unlimited


def test_gsp_element_limit_fires_while_the_table_is_built():
    # GSp_2(Z/56) has about 3.1M elements; its full pairing table takes
    # seconds, the rows up to the 100 000th element a fraction of one
    t0 = time.monotonic()
    with pytest.raises(StateSpaceError,
                       match=r"^GSp_2\(Z/56\): more than the 100000 element limit"):
        enumerate_gsp_modn(1, 56)
    assert time.monotonic() - t0 < 1.0


def check_pairing_masks(left, right, ring, swap, values, value_rows):
    """_pairing_masks against value_rows(i), the pairings <i, j> for every
    j evaluated directly, over all i: so both <i, j> and <j, i> for each
    pair.  Each row must be complete when its index is yielded."""
    masks, rows = _pairing_masks(left, right, ring, swap, values)
    at_yield = [{t: masks[t][i] for t in values} for i in rows]
    assert len(at_yield) == len(left)
    assert [s for s in range(ring.order) if masks[s] is not None] == sorted(values)
    # bit j of the mask for t is set iff <i, j> = t and j != i: the row of
    # values as bytes, translated to the binary digits of that mask
    digits = {t: bytes(ord("1") if s == t else ord("0") for s in range(256)) for t in values}
    for i in range(len(left)):
        row = bytes(value_rows(i))
        expected = {t: int(row.translate(digits[t])[::-1], 2) & ~(1 << i) for t in values}
        assert at_yield[i] == expected == {t: masks[t][i] for t in values}, i


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pairing_masks_of_hermitian_pools(p):
    f = small_field(p, 2)
    add, mul, frob = f.add, f.mul, f.frob

    def herm(u, v):  # sum_k u_k conj(v_k)
        s = 0
        for x, y in zip(u, v):
            s = add[s][mul[x][frob[y]]]
        return s

    vectors = list(itertools.product(range(f.order), repeat=2))
    for t in range(1, p):  # the m = 2 pools the hermitian search builds
        pool = [v for v in vectors if herm(v, v) == t]
        conj = [[frob[y] for y in v] for v in pool]
        for values in ((0,), tuple(range(f.order))):
            check_pairing_masks(pool, conj, f, frob, values,
                                lambda i: [herm(pool[i], v) for v in pool])


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("p,e,n", [(2, 1, None), (3, 1, None), (2, 2, None), (5, 1, None),
                                   (None, None, 4), (None, None, 6)])
def test_pairing_masks_of_the_alternating_form(p, e, n, m):
    if n is None:  # F_q tracking every value, as for Sp
        ring = small_field(p, e)
        values = tuple(range(ring.order))
    else:  # Z/n tracking 0 and the units, as for GSp
        ring = _ring_tables(n, 1, (0,))
        values = (0, *(c for c in range(1, n) if math.gcd(c, n) == 1))
    order = ring.order
    add, mul, neg = ring.add, ring.mul, ring.neg
    vectors = list(itertools.product(range(order), repeat=2 * m))
    # <u, v> = sum_k (u_{2k} v_{2k+1} - u_{2k+1} v_{2k}), a sum of one form
    # per coordinate pair: block[x][y] on the pairs x, y of R^2
    planes = list(itertools.product(range(order), repeat=2))
    block = [[add[mul[x[0]][y[1]]][neg[mul[x[1]][y[0]]]] for y in planes] for x in planes]

    def value_row(i):  # vectors in product order: the first pair varies slowest
        row = [0]
        for k in range(0, 2 * m, 2):
            x = block[planes.index(vectors[i][k:k + 2])]
            row = [add[r][s] for r in row for s in x]
        return row

    twisted = [tuple(x for k in range(0, 2 * m, 2) for x in (neg[u[k + 1]], u[k]))
               for u in vectors]
    check_pairing_masks(twisted, vectors, ring, neg, values, value_row)


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


def test_hermitian_search_charges_its_inner_nodes(monkeypatch):
    # U_4(F_2): the pool of norm-1 vectors of F_4^4 has 2^3 (2^4 - 1) = 120
    # members, each orthogonal to 36 of them, and a depth-2 node has 6
    # children.  A budget that just covers the root and depth-1 charges
    # fails at the first inner node, before any solution is stored.
    size = 120
    covered = 4**4 + size + size**2 + size * (36 * size)
    charges = []
    real = oracle_mod._charge

    def recorded(what, base, exponent=1, spent=0):
        charges.append((base, exponent, spent))
        return real(what, base, exponent, spent)

    monkeypatch.setattr(oracle_mod, "_charge", recorded)
    monkeypatch.setattr(oracle_mod, "DEFAULT_CAP", covered)
    with pytest.raises(StateSpaceError, match=rf"^U_4\(F_2\): .* {covered} budget$"):
        enumerate_unitary(4, 2)
    assert charges[:3] == [(4, 4, 0), (size, 1, 4**4), (size, 2, 4**4 + size)]
    assert [c[0] for c in charges[3:-1]] == [36 * size] * size
    assert charges[-1] == (6 * size, 1, covered)


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


@pytest.mark.parametrize("fld,level", [(R5, 3), (R13, 5)])  # p = 2 inert
def test_oversized_gl_factor_skips_before_enumerating(fld, level):
    # |GL_3(F_4)| = 181 440: the count is checked before any matrix is
    # stored or its determinant taken
    t0 = time.monotonic()
    result = verify_setting_with_oracle(setting(fld, 3, level, 2))
    assert time.monotonic() - t0 < 0.2
    assert result == {
        "verified": False,
        "skipped": "linear factor over Place(2^2,0): more than the 100000 "
        "element limit to store",
    }


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
        # sorted by columns: the order a search of the norm-t pool finds them in
        assert found[t] == sorted(found[t], key=lambda a: tuple(zip(*a))), t


def test_similitude_factors_come_from_one_hermitian_search(monkeypatch):
    # p = 7: six similitude factors r, each the norm-1 solutions scaled by a
    # lam of norm r, so the pairing-mask table is built once, not once per r
    calls = []

    def spy(*args):
        calls.append(args[2])
        return _pairing_masks(*args)

    monkeypatch.setattr(oracle_mod, "_pairing_masks", spy)
    group = enumerate_similitude_product(setting(Q, 2, 3, 7))
    assert calls == [small_field(7, 2)]
    assert group.order == 6 * unitary_order(2, 7)


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


class ReferenceRows(dict):
    """row -> row * g by the reference mat_mul, filled on lookup."""

    def __init__(self, ring, g):
        super().__init__()
        self.ring, self.g = ring, g

    def __missing__(self, row):
        self[row] = out = mat_mul(self.ring, (row,), self.g)[0]
        return out


def reference_right(ring):
    """right(g) of a matrix group from the reference product."""
    return lambda g: [ReferenceRows(ring, g)] * len(g)


def test_group_faults_raise_internal_check_error():
    identity = ((1,),)
    z5 = reference_right(zmod(5))
    with pytest.raises(InternalCheckError, match="duplicate"):
        FqMatrixGroup("doubled", [identity, identity], z5, identity)
    with pytest.raises(InternalCheckError, match="identity"):
        FqMatrixGroup("no identity", [((2,),)], z5, identity)
    # {1, 2} in (Z/5)^*: 2 * 2 = 4 leaves the set
    not_closed = FqMatrixGroup("not closed", [identity, ((2,),)], z5, identity)
    with pytest.raises(InternalCheckError, match="closure"):
        not_closed.conjugacy_classes()


def test_non_group_closure_raises_internal_check_error():
    # {1, 0} in Z/5 is closed under products, but x -> x * 0 is no permutation
    identity = ((1,),)
    monoid = FqMatrixGroup("monoid", [identity, ((0,),)], reference_right(zmod(5)),
                           identity)
    with pytest.raises(InternalCheckError, match="permute"):
        monoid.conjugacy_classes()


def test_trivial_group_class_count():
    identity = ((1,),)
    trivial = FqMatrixGroup("trivial", [identity], reference_right(zmod(5)), identity)
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


def direct_conjugacy_classes(group: FqMatrixGroup, product) -> list[list]:
    """Reference partition: the orbit of x is {g x g^-1 : g in G}, with
    every element of G as a conjugator and its inverse found by search
    (O(|G|^2) products)."""
    inverses = {
        g: next(h for h in group.elements if product(g, h) == group.identity)
        for g in group.elements
    }
    assigned = set()
    classes = []
    for x in group.elements:
        if x in assigned:
            continue
        orbit = {product(product(g, x), inverses[g]) for g in group.elements}
        assigned |= orbit
        classes.append(sorted(orbit))
    return classes


def similitude_product(f, m: int, p: int):
    """Reference product of flat residual-group codes: the m-row block of
    each place by mat_mul, the similitude units mod p."""
    def product(a, b):
        out = []
        for k in range(0, len(a) - 1, m):
            out += mat_mul(f, a[k:k + m], b[k:k + m])
        return (*out, a[-1] * b[-1] % p)
    return product


def residual_with_product(fld, m, level, p):
    return (enumerate_similitude_product(setting(fld, m, level, p)),
            similitude_product(small_field(p, 2), m, p))


def class_test_groups() -> list[tuple[FqMatrixGroup, object]]:
    """Residual groups of settings, then four standalone groups that are
    not, each with its reference product."""
    residual = [
        residual_with_product(fld, m, level, p)
        for fld, m, level, p in ((Q, 1, 3, 5), (Q, 2, 3, 2), (Q, 2, 4, 3), (R5, 2, 3, 2))
    ]
    standalone = [
        (enumerate_gl(2, 3), small_field(3)),
        (enumerate_unitary(2, 3), small_field(3, 2)),
        (enumerate_sp(1, 5), small_field(5)),
        (enumerate_gsp_modn(1, 4), zmod(4)),
    ]
    return residual + [(group, functools.partial(mat_mul, ring)) for group, ring in standalone]


def test_generating_set_path_matches_direct_orbits():
    orders = (24, 18, 192, 180, 48, 96, 120, 96)
    for (group, product), order in zip(class_test_groups(), orders, strict=True):
        assert group.order == order
        via_gens = group.conjugacy_classes()
        direct = direct_conjugacy_classes(group, product)
        assert sorted(map(tuple, via_gens)) == sorted(map(tuple, direct)), order


def power_walk_order(group: FqMatrixGroup, product, x) -> int:
    """Reference order: multiply by x until the identity comes back."""
    n, y = 1, x
    while y != group.identity:
        y = product(y, x)
        n += 1
    return n


def test_tree_element_orders_match_the_power_walk():
    for group, product in class_test_groups():
        for x in group.elements:
            assert group.element_order(x) == power_walk_order(group, product, x), \
                group.descriptor


def test_class_queries_multiply_only_in_the_walk():
    for group, _ in class_test_groups():
        right, calls = group.right, [0]

        def counted(g):
            calls[0] += 1
            return right(g)

        group.right = counted
        group.conjugacy_classes()
        walked = calls[0]
        assert walked > 0
        for p in (2, 3, 5):
            p_regular_class_count(group, p)
        assert calls[0] == walked, group.descriptor


def test_walk_actions_match_the_reference_product():
    # every action of the walk against the reference product, and the row
    # tables filled with exactly the rows that occur at their positions
    groups = class_test_groups() + [residual_with_product(R8, 1, 3, 7)]
    for group, product in groups:
        made = []
        right = group.right

        def recorded(g):
            made.append((g, right(g)))
            return made[-1][1]

        group.right = recorded
        actions, _, _, reach = group._closure_walk
        assert len(made) == len(actions) > 0 and len(reach) == group.order
        for (g, tables), act in zip(made, actions):
            for a, x in enumerate(group.elements):
                assert group.elements[act[a]] == product(x, g), group.descriptor
            for table in {id(t): t for t in tables if isinstance(t, dict)}.values():
                occurred = {x[i] for x in group.elements
                            for i, t in enumerate(tables) if t is table}
                assert set(table) == occurred, group.descriptor
