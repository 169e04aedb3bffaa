import copy
import functools
import itertools
import math
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

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
from heckebound.numberfield import (
    FieldSpec,
    QuaternionData,
    SettingError,
    validate_setting,
)
from heckebound.oracle import (
    FqMatrixGroup,
    SmallField,
    StateSpaceError,
    _charge,
    _hermitian_matrices,
    _iter_bits,
    _pairing_masks,
    _ring_tables,
    _row_table,
    _symplectic_bases,
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
    assert f.mul[1][1] == 1
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
            table = _row_table(zn, b, a)
            assert tuple(map(table.__getitem__, a)) == expected == mat_mul(zn, a, b)
            assert set(table) == set(a)  # exactly the rows asked for


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



def _break_identity(f):
    # add[1][0] with its mirror, so commutativity still holds at (0, 1)
    f.add[1][0] = f.add[0][1] = 0


def _break_commutativity(f):
    f.mul[2][3] = 2


def _break_associativity(f):
    # x * (x + 1) is 1 in F_4; both products 2 keep the table symmetric
    f.mul[2][3] = f.mul[3][2] = 2


def _set_frob(images):
    def corrupt(f):
        f.frob = images
    return corrupt


# each corruption of F_4 = SmallField(2, 2), elements 0, 1, x = 2 and
# x + 1 = 3 with frob = [0, 1, 3, 2], and the axiom its check names
_FIELD_CORRUPTIONS = (
    (_break_identity, "identity law"),
    (_break_commutativity, "commutativity"),
    (_break_associativity, "associativity or distributivity"),
    (_set_frob([0, 2, 3, 1]), "involutivity of the automorphism"),
    (_set_frob([1, 0, 2, 3]), "additivity or multiplicativity of the automorphism"),
    (_set_frob([0, 1, 2, 3]), "fixed-field size"),
)


def test_small_field_check_names_each_broken_axiom():
    # a fresh field each time: the cached small_field(2, 2) stays intact
    for corrupt, axiom in _FIELD_CORRUPTIONS:
        f = SmallField(2, 2)
        corrupt(f)
        with pytest.raises(InternalCheckError) as info:
            f._verify()
        assert str(info.value) == f"SmallField(2^2): {axiom} fails"
    assert small_field(2, 2).frob == [0, 1, 3, 2]
    # each field builds its own add table, once for all the tails it tries
    assert SmallField(2, 2).add is not small_field(2, 2).add
    small_field(2, 2)._verify()


@pytest.mark.parametrize("p,e,tails", [(7, 2, [(1, 0)]), (2, 4, [(1, 0, 0, 1)]),
                                       (2, 5, [(1, 0, 0, 0, 1), (1, 0, 0, 1, 0)])])
def test_small_field_tail_search_builds_one_add_table(monkeypatch, p, e, tails):
    # tails whose f has a root in F_p get no tables: F_49's first 7 tails
    # and F_16's first 9.  x^5 + x^4 + 1 = (x^2 + x + 1)(x^3 + x + 1) has
    # none, so F_32 tries it before x^5 + x^3 + 1, over the first add table
    built = []
    real = oracle_mod._ring_tables

    def spy(n, e, tail, add=None):
        built.append((tail, add))
        return real(n, e, tail, add)

    monkeypatch.setattr(oracle_mod, "_ring_tables", spy)
    f = SmallField(p, e)
    assert [tail for tail, _ in built] == tails
    assert built[0][1] is None and all(add is f.add for _, add in built[1:])
    assert f.mul == small_field(p, e).mul and f.add is not small_field(p, e).add


def corruptible_copy(p: int, e: int) -> SmallField:
    """The cached field with tables of its own, free to corrupt."""
    f = copy.copy(small_field(p, e))
    f.add, f.mul = [r[:] for r in f.add], [r[:] for r in f.mul]
    if f.frob is not None:
        f.frob = f.frob[:]
    return f


_AXIOMS = {axiom for _, axiom in _FIELD_CORRUPTIONS}


def _swap_frob_pairs(f):
    # frob swaps x = q - 1 with frob(x), and y with frob(y), for a second
    # moved y; sending x <-> y and frob(x) <-> frob(y) instead keeps an
    # involution with the same fixed points, which is not additive
    frob, x = f.frob, f.order - 1
    y = next(a for a in range(x - 1, 0, -1) if frob[a] != a and a != frob[x])
    fx, fy = frob[x], frob[y]
    frob[x], frob[y], frob[fx], frob[fy] = y, x, fy, fx


def _corrupt_corner(table):
    def corrupt(f):
        row = getattr(f, table)[f.order - 1]
        row[-1] = (row[-1] + 1) % f.order
    return corrupt


def _corrupt_pair(table):
    # the entry at (q - 1, q - 2) with its mirror, so commutativity holds
    def corrupt(f):
        rows, q = getattr(f, table), f.order
        rows[q - 1][q - 2] = rows[q - 2][q - 1] = (rows[q - 1][q - 2] + 1) % q
    return corrupt


def _corrupt_last_image(f):
    f.frob[-1] = (f.frob[-1] + 1) % f.order


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("corrupt,axiom", [
    (_corrupt_corner("add"), "associativity or distributivity"),
    (_corrupt_corner("mul"), "associativity or distributivity"),
    (_corrupt_pair("add"), "associativity or distributivity"),
    (_corrupt_pair("mul"), "associativity or distributivity"),
    # a = 0 comes first, and frob(0 + b) = frob(b) fails at b = q - 1
    (_corrupt_last_image, "additivity or multiplicativity of the automorphism"),
    (_swap_frob_pairs, "additivity or multiplicativity of the automorphism"),
], ids=["add corner", "mul corner", "add pair", "mul pair", "frob last", "frob swap"])
def test_field_check_reaches_the_last_row_and_column(p, corrupt, axiom):
    # F_25 and F_49: the entries at the end of each table row, next to
    # where the whole-table check pads its rows to 256 bytes
    f = corruptible_copy(p, 2)
    corrupt(f)
    with pytest.raises(InternalCheckError) as info:
        f._verify()
    assert str(info.value) == f"SmallField({p}^2): {axiom} fails"
    small_field(p, 2)._verify()  # the cached field is untouched


def _magma_with_lone_failure(f):
    # F_3's + with 1 + 1 = 1 and 2 + 2 = 2: commutative, and x -> -x is
    # still an automorphism, so distributivity holds, but
    # (1 + 1) + 2 = 0 while 1 + (1 + 2) = 1
    f.add[1][1], f.add[2][2] = 1, 2


def _product_with_lone_failure(f):
    # F_3 with 2 * 2 = 2: a commutative, associative monoid, but
    # 2 * (1 + 1) = 2 while 2 * 1 + 2 * 1 = 1
    f.mul[2][2] = 2


def _algebra_with_lone_failure(f):
    # F_2^3 with basis 1, x, y (bits 0, 1, 2) and the bilinear product
    # x x = y, x y = 1, y y = 0: commutative and distributive, but
    # (x x) y = 0 while x (x y) = x
    basis = {(1, 1): 1, (1, 2): 2, (1, 4): 4, (2, 2): 4, (2, 4): 1, (4, 4): 0}
    for a in range(8):
        for b in range(8):
            s = 0
            for i in (1, 2, 4):
                for j in (1, 2, 4):
                    if a & i and b & j:
                        s ^= basis[min(i, j), max(i, j)]
            f.mul[a][b] = s


@pytest.mark.parametrize("p,e,corrupt,axiom", [
    (3, 1, _magma_with_lone_failure, "associativity or distributivity"),
    (3, 1, _product_with_lone_failure, "associativity or distributivity"),
    (2, 3, _algebra_with_lone_failure, "associativity or distributivity"),
    # on F_4, 1 -> x + 1 fixes {0, x} and is additive, not multiplicative
    (2, 2, _set_frob([0, 3, 2, 1]),
     "additivity or multiplicativity of the automorphism"),
    # on F_9, a -> a^-1 fixes 0, 1 and -1 and is multiplicative, not additive
    (3, 2, _set_frob(
        [0] + [next(b for b in range(1, 9) if small_field(3, 2).mul[a][b] == 1)
               for a in range(1, 9)]),
     "additivity or multiplicativity of the automorphism"),
], ids=["+ associativity", "distributivity", "* associativity",
        "multiplicativity", "additivity"])
def test_field_check_sees_each_equation_alone(p, e, corrupt, axiom):
    # tables that break one equation of the whole-table check and keep
    # every other axiom, so no other equation can stand in for it
    f = corruptible_copy(p, e)
    corrupt(f)
    with pytest.raises(InternalCheckError) as info:
        f._verify()
    assert str(info.value) == f"SmallField({p}^{e}): {axiom} fails"


def test_field_check_catches_random_single_entry_corruptions():
    rng = random.Random(0)
    for _ in range(50):
        p = rng.choice((5, 7))
        f = corruptible_copy(p, 2)
        q = f.order
        table = rng.choice(("add", "mul", "frob"))
        if table == "frob":
            rows, at = [f.frob], (0, rng.randrange(q))
        else:
            rows, at = getattr(f, table), (rng.randrange(q), rng.randrange(q))
        row = rows[at[0]]
        row[at[1]] = rng.choice([x for x in range(q) if x != row[at[1]]])
        with pytest.raises(InternalCheckError) as info:
            f._verify()
        message = str(info.value)
        assert message.startswith(f"SmallField({p}^2): ") and message.endswith(" fails")
        assert message[len(f"SmallField({p}^2): "):-len(" fails")] in _AXIOMS, (table, at)

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


def quadratic_residue_ring(disc: int, level: int) -> SimpleNamespace:
    """O_F/N for F = Q(sqrt D) as (Z/N)[x]/(x^2 + t(x)), x the generator
    (1 + sqrt D)/2 of O_F, a root of x^2 - x - (D - 1)/4, for D = 1 mod 4,
    and sqrt D / 2, a root of x^2 - D/4, for D = 0 mod 4."""
    tail = (-(disc - 1) // 4, -1) if disc % 4 == 1 else (-disc // 4, 0)
    return _ring_tables(level, 2, tuple(t % level for t in tail))


# N = 3 inert (D = 5) and split (D = 13); N = 4 inert (D = 5) and split (D = 17)
QUADRATIC_LEVELS = [(disc, level) for disc in (5, 8, 12, 13, 17, 21)
                    for level in (3, 4, 5) if math.gcd(disc, level) == 1]


@pytest.mark.parametrize("disc,level", QUADRATIC_LEVELS)
def test_gsp_over_quadratic_residue_rings_matches_level_group_order(disc, level):
    # |GSp_2(O_F/N)| with the multipliers (Z/N)^x, the constants of the
    # ring: the last column of each basis counted by popcount, as
    # count_symplectic_matrices does, so nothing is stored
    ring = quadratic_residue_ring(disc, level)
    units = [c for c in range(1, level) if math.gcd(c, level) == 1]
    _, bases = _symplectic_bases(ring, 1, units)
    count = sum((pair[i] & avail).bit_count() for _, avail, pair in bases
                for i in _iter_bits(avail))
    p = next(q for q in (7, 11) if disc % q)
    s = setting(FieldSpec.real_quadratic(disc), 1, level, p)
    assert count == level_group_order(s)


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


def check_pairing_masks(left, right, ring, values, value_rows):
    """_pairing_masks against value_rows(i), the pairings <i, j> for every
    j evaluated directly, over all i: so both <i, j> and <j, i> for each
    pair.  Each row must be complete when its index is yielded."""
    masks, rows = _pairing_masks(left, right, ring, values)
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


@pytest.mark.parametrize("p", [2, 3, 5, 7])
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
        # u_0 conj(v_0) + u_1 conj(v_1), entry by entry from the tables
        table = [[add[mul_a[c]][mul_b[d]] for c, d in conj]
                 for mul_a, mul_b in ((mul[a], mul[b]) for a, b in pool)]
        for values in ((0,), tuple(range(f.order))):
            check_pairing_masks(pool, conj, f, values, table.__getitem__)


# the fields of 3, 4 and 5 digit planes, F_8, F_16, F_27 and F_32, and
# the ring Z/4[x]/(x^2 + x + 1), which is not a field, at m = 1 only:
# their m = 2 tables have order^4 rows
@pytest.mark.parametrize("p,e,n,m", [
    *((p, e, n, m) for p, e, n in [(2, 1, None), (3, 1, None), (2, 2, None), (5, 1, None),
                                   (None, None, 4), (None, None, 6)] for m in (1, 2)),
    (2, 3, None, 1), (2, 4, None, 1), (3, 3, None, 1), (2, 5, None, 1), (None, 2, 4, 1),
])
def test_pairing_masks_of_the_alternating_form(p, e, n, m):
    if n is None:  # F_q tracking every value, as for Sp
        ring = small_field(p, e)
        values = tuple(range(ring.order))
    else:  # (Z/n)[x]/(x^e + x + 1), Z/n at e = 1, tracking 0 and the units, as for GSp
        ring = _ring_tables(n, e or 1, (1, 1) if e else (0,))
        values = (0, *(c for c in range(1, ring.order) if 1 in ring.mul[c]))
    order = ring.order
    add, mul, neg = ring.add, ring.mul, ring.neg
    vectors = list(itertools.product(range(order), repeat=2 * m))
    # <u, v> = sum_k (u_{2k} v_{2k+1} - u_{2k+1} v_{2k}), a sum of one form
    # per coordinate pair: block[x][y] on the pairs x, y of R^2
    planes = list(itertools.product(range(order), repeat=2))
    block = [[add[mul_0[y1]][neg[mul_1[y0]]] for y0, y1 in planes]
             for mul_0, mul_1 in ((mul[x0], mul[x1]) for x0, x1 in planes)]

    def value_row(i):  # vectors in product order: the first pair varies slowest
        row = [0]
        for k in range(0, 2 * m, 2):
            x = block[vectors[i][k] * order + vectors[i][k + 1]]  # the pair's place in planes
            row = [add[r][s] for r in row for s in x]
        return row

    twisted = [tuple(x for k in range(0, 2 * m, 2) for x in (neg[u[k + 1]], u[k]))
               for u in vectors]
    check_pairing_masks(twisted, vectors, ring, values, value_row)


@pytest.mark.parametrize("ring", [
    zmod(56), small_field(7, 2), small_field(2, 3), small_field(2, 4), small_field(3, 3),
    small_field(2, 5), _ring_tables(4, 2, (1, 1)),
], ids=["Z/56", "F_49", "F_8", "F_16", "F_27", "F_32", "Z/4[x]/(x^2+x+1)"])
def test_row_table_at_the_largest_rings(ring):
    # Z/56 is the largest ring the budgets admit (GSp_2(Z/56)), F_49 the
    # largest field: each table row against the reference product.  The
    # fields of 3 to 5 digit planes and a ring that is not a field, of 2,
    # check that the planes are summed and recombined digit by digit
    rng = random.Random(ring.order)
    for size in (1, 2, 3, 4):
        block = tuple(tuple(rng.randrange(ring.order) for _ in range(size))
                      for _ in range(size))
        rows = list(dict.fromkeys(tuple(rng.randrange(ring.order) for _ in range(size))
                                  for _ in range(60)))
        table = _row_table(ring, block, rows)
        assert list(table) == rows
        assert [(table[r],) for r in rows] == [mat_mul(ring, (r,), block) for r in rows]


def test_pairing_masks_at_z56_against_each_pair():
    # GSp_2(Z/56)'s table, values 0 and the units: the first 40 rows as the
    # generator yields them, against <i, j> evaluated one pair at a time
    ring = zmod(56)
    values = (0, *(c for c in range(1, 56) if math.gcd(c, 56) == 1))
    vectors = list(itertools.product(range(56), repeat=2))
    twisted = [(ring.neg[v], u) for u, v in vectors]
    masks, rows = _pairing_masks(twisted, vectors, ring, values)
    for i in itertools.islice(rows, 40):
        expected = dict.fromkeys(values, 0)
        for j, (x, y) in enumerate(vectors):
            s = (twisted[i][0] * x + twisted[i][1] * y) % 56
            if j != i and s in expected:
                expected[s] |= 1 << j
        assert {t: masks[t][i] for t in values} == expected, i


def test_pairing_masks_refuse_a_ring_past_256():
    # a row of values is bytes, so a ring of order 257 is an internal fault
    with pytest.raises(InternalCheckError, match="^the column kernel needs a ring of order "
                                                 "at most 256, got 257$"):
        _pairing_masks([(1,)], [(1,)], zmod(257), (0,))


@pytest.mark.parametrize("ring,terms", [(zmod(56), 5), (zmod(56), 6), (small_field(2, 5), 256)],
                         ids=["Z/56-5", "Z/56-6", "F_32-256"])
def test_column_kernel_refuses_terms_that_could_carry(ring, terms):
    # a plane's byte sums up to terms * (n - 1): past 255 it would carry into
    # the next entry, so the kernel refuses it for the masks and the row
    # tables alike.  255 // (n - 1) terms are exact: 4 over Z/56, where
    # 4 * 55 = 220, and 255 over F_32
    n, order = ring.base, ring.order
    limit = 255 // (n - 1)
    assert terms > limit
    rows = [tuple(i % order for i in range(terms)), (order - 1,) * terms]
    message = (f"^the column kernel's {terms} terms of digits mod {n} "
               "could carry past a byte$")
    with pytest.raises(InternalCheckError, match=message):
        _pairing_masks(rows, rows, ring, (0,))
    with pytest.raises(InternalCheckError, match=message):
        _row_table(ring, [[1] * terms] * terms, rows)
    # at the limit: the first block column sums every term, the others are 0
    block = tuple((1, *(0,) * (limit - 1)) for _ in range(limit))
    short = [r[:limit] for r in rows]
    table = _row_table(ring, block, short)
    assert [table[r] for r in short] == [mat_mul(ring, (r,), block)[0] for r in short]


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
    under t when A^t conj(A) = t*I for a nonzero t.  Entry (i, j) of
    A^t conj(A) is the hermitian dot of columns i and j, read from a table
    of sum_k u_k conj(v_k) over every pair of vectors u, v of f^m, so each
    matrix is checked by at most m^2 lookups."""
    add, mul, frob = f.add, f.mul, f.frob
    vectors = list(itertools.product(range(f.order), repeat=m))
    dot = []
    for u in vectors:
        row = []
        for v in vectors:
            s = 0
            for x, y in zip(u, v):
                s = add[s][mul[x][frob[y]]]
            row.append(s)
        dot.append(row)
    entries = [(i, j) for i in range(m) for j in range(m)]
    out: dict[int, list[tuple]] = {}
    for cols in itertools.product(range(len(vectors)), repeat=m):
        t = dot[cols[0]][cols[0]]
        if t and all(dot[cols[i]][cols[j]] == (t if i == j else 0) for i, j in entries):
            out.setdefault(t, []).append(tuple(zip(*(vectors[c] for c in cols))))
    return out


@pytest.mark.parametrize("p,e,m", [(2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2),
                                   (2, 4, 1), (2, 4, 2), (2, 2, 3)])
def test_hermitian_search_matches_brute_force(p, e, m):
    f = small_field(p, e)
    found = _hermitian_matrices(f, m, "test")
    expected = brute_force_hermitian(f, m)[1]
    assert len(set(found)) == len(found)
    assert set(found) == set(expected)
    # sorted by columns: the search picks columns in increasing pool order
    assert found == sorted(found, key=lambda a: tuple(zip(*a)))
    # the matrices share their rows: one object per distinct row
    rows = [row for a in found for row in a]
    assert len({id(row) for row in rows}) == len(set(rows))


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3)])
def test_similitude_layers_match_brute_force(p, m):
    # the layer of factor r, read as matrices, is every A with
    # A^t conj(A) = r*I: the scaled pool against the exhaustive reference
    group = enumerate_similitude_product(setting(Q, m, 3 if p == 2 else 4, p))
    expected = brute_force_hermitian(small_field(p, 2), m)
    assert sorted(expected) == list(range(1, p))
    for r in range(1, p):
        found = sorted(x[:-1] for x in group.elements if x[-1] == (r,))
        assert found == sorted(expected[r]), r


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


def test_similitude_matrices_share_their_row_tuples():
    # GU_2(F_7): 16 128 elements of two rows each, but only 2 016 distinct
    # rows, the vectors of norm r in F_49^2 for r = 1..6; each is one object
    group = enumerate_similitude_product(setting(Q, 2, 3, 7))
    rows = [row for x in group.elements for row in x[:-1]]
    assert len(rows) == 32_256
    assert len(set(map(id, rows))) == 2_016
    assert len(set(rows)) == len({id(row) for row in rows}) == 2_016


@pytest.mark.parametrize("fld,m,level,p", [(Q, 2, 3, 5), (R5, 1, 4, 3), (R8, 1, 3, 7),
                                            (R13, 1, 4, 3)],
                         ids=["Q-unitary", "Q(sqrt5)-GL", "Q(sqrt8)-two", "Q(sqrt13)-two"])
def test_similitude_elements_keep_the_reference_order(fld, m, level, p):
    # the walk's seeded draw reads element indices, so the element list is
    # pinned tuple for tuple: r outer, then the places' matrices over the
    # pool in product order, lam_r * A by direct products with lam_r the
    # least element of norm r (1 at a GL place), then (r,)
    case = setting(fld, m, level, p)
    f = small_field(p, 2)
    if case.delta_prime_at_p:
        pool = _hermitian_matrices(f, m, "reference")
        lam = {r: min(x for x in range(1, f.order) if f.mul[x][f.frob[x]] == r)
               for r in range(1, p)}
    else:
        pool = oracle_mod._invertible_matrices(f, m, "reference")
        lam = dict.fromkeys(range(1, p), 1)
    expected = []
    for r in range(1, p):
        layer = [tuple(tuple(f.mul[lam[r]][x] for x in row) for row in a) for a in pool]
        for combo in itertools.product(layer, repeat=len(case.places_over_p)):
            expected.append((*itertools.chain(*combo), (r,)))
    group = enumerate_similitude_product(case)
    assert group.elements == expected
    # one object per distinct row of the places' blocks, and per unit block
    rows = [row for x in group.elements for row in x[:-1]]
    assert len({id(row) for row in rows}) == len(set(rows))
    assert len({id(x[-1]) for x in group.elements}) == p - 1


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
    z5 = zmod(5)
    with pytest.raises(InternalCheckError, match="duplicate"):
        FqMatrixGroup("doubled", [identity, identity], z5, identity)
    with pytest.raises(InternalCheckError, match="identity"):
        FqMatrixGroup("no identity", [((2,),)], z5, identity)
    # {1, 2} in (Z/5)^*: 2 * 2 = 4 leaves the set
    not_closed = FqMatrixGroup("not closed", [identity, ((2,),)], z5, identity)
    with pytest.raises(InternalCheckError, match="closure"):
        not_closed.conjugacy_classes()


def test_ragged_elements_raise_internal_check_error():
    # the walk reads the elements column by column, so they must all have
    # the same number of rows
    identity = ((1,),)
    with pytest.raises(InternalCheckError, match="^ragged: elements differ in length$"):
        FqMatrixGroup("ragged", [identity, ((2,), (3,))], zmod(5), identity)


def test_non_group_closure_raises_internal_check_error():
    # {1, 0} in Z/5 is closed under products, but x -> x * 0 is no permutation
    identity = ((1,),)
    monoid = FqMatrixGroup("monoid", [identity, ((0,),)], zmod(5), identity)
    with pytest.raises(InternalCheckError, match="permute"):
        monoid.conjugacy_classes()


def test_trivial_group_class_count():
    identity = ((1,),)
    trivial = FqMatrixGroup("trivial", [identity], zmod(5), identity)
    for p in (2, 3, 5):
        assert p_regular_class_count(trivial, p) == 1
        assert sylow_p_order(trivial, p) == 1


def test_p_regular_count_reads_the_classes_once_per_group(monkeypatch):
    # p_regular_class_count goes through FqMatrixGroup.conjugacy_classes,
    # once per group: the benchmark's traced pass requires that span,
    # oracle.FqMatrixGroup.conjugacy_classes, on oracle_check and reads
    # oracle.class_count_total from its result
    calls = []
    real = FqMatrixGroup.conjugacy_classes

    def spy(group):
        calls.append(group)
        return real(group)

    monkeypatch.setattr(FqMatrixGroup, "conjugacy_classes", spy)
    groups = [enumerate_gl(2, 3), enumerate_unitary(2, 2)]
    assert [p_regular_class_count(group, 2) for group in groups] == [2, 6]
    assert calls == groups
    assert verify_setting_with_oracle(setting(Q, 1, 3, 5)) == {"verified": True}
    assert len(calls) == 3


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
    (R13, 2, 4, 3),  # 3 splits: two U_2(F_3) places, 2 * 96^2 elements
]


@pytest.mark.parametrize("fld,m,level,p", CROSS_CHECK_INSTANCES)
def test_irr_and_sylow_cross_checks(fld, m, level, p):
    s = setting(fld, m, level, p)
    group = enumerate_similitude_product(s)
    assert group.order <= 100_000
    assert p_regular_class_count(group, p) == irr_count(s)
    assert sylow_p_order(group, p) == dim_bound(s)


def test_m3_residual_group_verifies():
    # the similitude unitary group of U_3(F_3), built once and given the
    # checks verify_setting_with_oracle makes; N does not enter it, so
    # N = 5 gives the same group
    s = setting(Q, 3, 4, 3)
    group = enumerate_similitude_product(s)
    assert group.order == 48_384
    assert p_regular_class_count(group, 3) == irr_count(s)
    assert sylow_p_order(group, 3) == dim_bound(s)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((Q, R5, R8)),
    st.one_of(st.tuples(st.just(1), st.sampled_from((2, 3, 5, 7))),
              st.tuples(st.just(2), st.sampled_from((2, 3, 5)))),
    st.integers(3, 8),
)
def _oracle_verifies_or_skips(fld, m_and_p, level):
    m, p = m_and_p
    try:
        s = setting(fld, m, level, p)
    except SettingError:
        reject()
    result = verify_setting_with_oracle(s)
    assert result == {"verified": True} or (
        set(result) == {"verified", "skipped"}
        and result["verified"] is False and result["skipped"]
    ), result


def test_random_valid_settings_verify_or_skip_with_a_reason():
    # fields, ranks, primes and levels drawn independently, the invalid
    # tuples rejected by validation: every valid one is verified, or
    # skipped with a reason (GL_2(F_25) over Q(sqrt8) at p = 5 is over
    # the element limit), and the whole test stays within 2 s
    t0 = time.monotonic()
    _oracle_verifies_or_skips()
    assert time.monotonic() - t0 < 2.0


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
    """Reference product of residual-group elements: the m-row block of
    each place by mat_mul, the 1 x 1 blocks of the similitude units mod p
    by integer arithmetic, so the unit is kept apart from the tables."""
    def product(a, b):
        out = []
        for k in range(0, len(a) - 1, m):
            out += mat_mul(f, a[k:k + m], b[k:k + m])
        return (*out, (a[-1][0] * b[-1][0] % p,))
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
        via_gens = [sorted(group.elements[i] for i in cls)
                    for cls in group.conjugacy_classes()]
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


def test_index_classes_open_at_their_first_reached_member():
    # the classes are index lists that partition the group, each opened at
    # its member reached first, with one order per class; the p-regular
    # count read at those members is the reference count over the direct
    # classes and the power-walk orders
    for group, product in class_test_groups():
        classes = group.conjugacy_classes()
        assert sorted(itertools.chain(*classes)) == list(range(group.order))
        position = [0] * group.order
        for k, x in enumerate(group._closure_walk[3]):
            position[x] = k
        for cls in classes:
            assert min(cls, key=position.__getitem__) == cls[0], group.descriptor
            orders = {group.element_order(group.elements[i]) for i in cls}
            assert len(orders) == 1, group.descriptor
        direct_orders = [power_walk_order(group, product, cls[0])
                         for cls in direct_conjugacy_classes(group, product)]
        for p in (2, 3, 5):
            expected = sum(order % p != 0 for order in direct_orders)
            assert p_regular_class_count(group, p) == expected, (group.descriptor, p)


@pytest.mark.parametrize("p", [-1, 0, 1, 4])
def test_class_queries_refuse_a_non_prime(p):
    # at p = 1 the Sylow loop never ended, p = 0 divided by zero, p = 4
    # gave 16 for GL_2(F_3) and p = 1 a p-regular count of 0; the class
    # count is asked first, so a missing check fails here and never
    # reaches the Sylow loop at p = +-1
    group = enumerate_gl(2, 3)
    with pytest.raises(ValueError, match=f"^p must be a prime, got {p}$"):
        p_regular_class_count(group, p)
    with pytest.raises(ValueError, match=f"^p must be a prime, got {p}$"):
        sylow_p_order(group, p)


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
            for table in {id(t): t for t in tables}.values():
                occurred = {x[i] for x in group.elements
                            for i, t in enumerate(tables) if t is table}
                assert set(table) == occurred, group.descriptor
                # each image is the row object the group stores at the
                # table's positions, so the walk's lookups match by identity
                stored = {id(x[i]) for x in group.elements
                          for i, t in enumerate(tables) if t is table}
                assert {id(row) for row in table} <= stored, group.descriptor
                keys = {row: row for row in table}
                assert all(image is keys[image] for image in table.values()), \
                    group.descriptor


# the residual groups of the oracle_check benchmark: Q at p = 2, 5 and 7,
# and Q(sqrt5) at p = 3 inert
ORACLE_CHECK_SETTINGS = [(Q, 2, 3, 2), (Q, 2, 3, 5), (Q, 2, 3, 7), (R5, 2, 4, 3)]


def test_walk_tree_reaches_each_element_from_an_earlier_parent():
    # every element but the identity is parent * generator, and its parent
    # was reached before it, which the class and order lookups rely on
    oracle_groups = [enumerate_similitude_product(setting(*args))
                     for args in ORACLE_CHECK_SETTINGS]
    for group in [group for group, _ in class_test_groups()] + oracle_groups:
        actions, parent, letter, reach = group._closure_walk
        assert sorted(reach) == list(range(group.order))
        position = [0] * group.order
        for k, x in enumerate(reach):
            position[x] = k
        for x in reach[1:]:
            assert actions[letter[x]][parent[x]] == x, group.descriptor
            assert position[parent[x]] < position[x], group.descriptor
    assert [(group.order, len(group._closure_walk[0])) for group in oracle_groups] == [
        (18, 3), (2_880, 3), (16_128, 3), (11_520, 3)]
