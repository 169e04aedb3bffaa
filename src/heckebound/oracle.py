"""Brute-force verification engine, independent of the closed forms.

Finite fields of order at most 49 and the rings Z/N are realized as
lookup tables; matrix groups are enumerated straight from their defining
conditions.  An element is a flat tuple of positions: a matrix's rows,
and for the residual group the rows of each place's matrix, then the
similitude unit.  GL_m(F_q) comes from a search over rows outside the
span of the rows above.  One symplectic basis search builds Sp_2m(F_q),
its count and GSp_2m(Z/N), and one row builder makes the hermitian and
the alternating masks.  A group multiplies only in one closure walk, which
computes x g as one lookup per position of x in tables of g built on
demand; its conjugacy classes and element orders are read off the
walk's spanning tree by index lookups.
Every enumeration is guarded by a candidate budget, charged before the
work it stands for, and every stored collection by an element limit, so
a typo in a descriptor cannot start a runaway enumeration.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import deque
from math import gcd, prod
from operator import getitem
from types import SimpleNamespace

from .arith import InternalCheckError, factorize, is_prime
from .groups import dim_bound, irr_count
from .numberfield import ShimuraSetting

__all__ = [
    "DEFAULT_CAP",
    "StateSpaceError",
    "SmallField",
    "small_field",
    "FqMatrixGroup",
    "enumerate_gl",
    "enumerate_unitary",
    "enumerate_sp",
    "enumerate_gsp_modn",
    "enumerate_similitude_product",
    "count_symplectic_matrices",
    "p_regular_class_count",
    "sylow_p_order",
    "verify_setting_with_oracle",
]

# Budgets, read at call time: candidates charged per enumeration before
# the work they stand for, and elements held by any one stored collection
# (a matrix pool, the Sp leaves, the GSp elements, an assembled group).
DEFAULT_CAP = 10_000_000
ELEMENT_LIMIT = 100_000

MAX_FIELD_ORDER = 49
MAX_FIELD_CHAR = 7


class StateSpaceError(RuntimeError):
    """The requested enumeration exceeds the candidate budget or the
    element limit."""


# ---------------------------------------------------------------------------
# small finite fields as lookup tables
# ---------------------------------------------------------------------------


def _ring_tables(n: int, e: int, tail: tuple) -> tuple[list, list]:
    """The addition and multiplication tables of (Z/n)[x]/(x^e + t(x)),
    t(x) = sum_i tail[i] x^i.  Elements are integers in [0, n^e) read as
    base-n coefficient vectors, constant term lowest.

    x * a shifts a's digits up one place and replaces the carried c x^e
    by -c t(x).  Then a * b = sum_i b_i (x^i a), built up over b in
    increasing order: a * b = a * (b - 1) + a when b's constant digit is
    nonzero, and a * b = x (a * (b // n)) when it is zero."""
    size = n**e
    top = n ** (e - 1)
    add = [[0] * size for _ in range(size)]
    for a in range(size):
        for b in range(size):  # digitwise: rows a // n < a are complete
            add[a][b] = add[a // n][b // n] * n + (a + b) % n
    carry = [sum((-c * t) % n * n**i for i, t in enumerate(tail)) for c in range(n)]
    times_x = [add[a % top * n][carry[a // top]] for a in range(size)]
    mul = []
    for a in range(size):
        row = [0]
        for b in range(1, size):
            row.append(add[row[b - 1]][a] if b % n else times_x[row[b // n]])
        mul.append(row)
    return add, mul


class SmallField:
    """F_{p^e} with p^e <= 49 as explicit addition / multiplication
    tables, built from the first monic irreducible polynomial of degree
    e.  Elements are integers in [0, p^e) encoding coefficient vectors
    in base p, so the prime subfield is encoded by 0..p-1 itself.

    Field axioms are checked exhaustively at construction.  For even e
    the tables carry the inverting automorphism x -> x^(p^(e/2)), whose
    fixed subfield has exactly p^(e/2) elements (also checked).
    """

    def __init__(self, p: int, e: int):
        if not is_prime(p) or p > MAX_FIELD_CHAR:
            raise ValueError(f"characteristic must be a prime <= {MAX_FIELD_CHAR}")
        if e < 1 or p**e > MAX_FIELD_ORDER:
            raise ValueError(f"field order must be at most {MAX_FIELD_ORDER}")
        self.p = p
        self.e = e
        self.order = q = p**e
        self.one = 1

        # F_p[x]/(f) is a field exactly when f is irreducible, so the first
        # tail (in itertools.product order) whose ring has no zero divisors,
        # i.e. every nonzero element has an inverse, gives the first monic
        # irreducible f of degree e
        for tail in itertools.product(range(p), repeat=e):
            self.add, self.mul = _ring_tables(p, e, tail)
            if all(1 in row for row in self.mul[1:]):
                break
        else:
            raise InternalCheckError(f"no field of order {q} among the tails")

        self.neg = [self.add[a].index(0) for a in range(q)]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = self.mul[a].index(1)

        self.frob = None
        if e % 2 == 0:  # a -> a^(p^(e/2)) by repeated products; p^(e/2) <= 7
            self.frob = list(range(q))
            for _ in range(p ** (e // 2) - 1):
                self.frob = [self.mul[y][a] for a, y in enumerate(self.frob)]

        self._verify()

    def _verify(self):
        q = self.order
        add, mul = self.add, self.mul
        rng = range(q)

        def fail(axiom):
            raise InternalCheckError(f"{self!r}: {axiom} fails")

        for a in rng:
            if add[a][0] != a or mul[a][1] != a or mul[a][0] != 0:
                fail("identity law")
            for b in rng:
                if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                    fail("commutativity")
        for a in rng:
            for b in rng:
                ab, mab = add[a][b], mul[a][b]
                for c in rng:
                    if (
                        add[ab][c] != add[a][add[b][c]]
                        or mul[mab][c] != mul[a][mul[b][c]]
                        or mul[a][add[b][c]] != add[mab][mul[a][c]]
                    ):
                        fail("associativity or distributivity")
        for a in range(1, q):
            if mul[a][self.inv[a]] != 1:
                fail("inverse law")
        if self.frob is not None:
            frob = self.frob
            fixed = 0
            for a in rng:
                if frob[frob[a]] != a:
                    fail("involutivity of the automorphism")
                if frob[a] == a:
                    fixed += 1
                for b in rng:
                    if (
                        frob[add[a][b]] != add[frob[a]][frob[b]]
                        or frob[mul[a][b]] != mul[frob[a]][frob[b]]
                    ):
                        fail("additivity or multiplicativity of the automorphism")
            if fixed != self.p ** (self.e // 2):
                fail("fixed-field size")

    def __repr__(self):
        return f"SmallField({self.p}^{self.e})"


@functools.cache
def small_field(p: int, e: int = 1) -> SmallField:
    return SmallField(p, e)


def field_of_order(q: int) -> SmallField:
    if q > MAX_FIELD_ORDER:  # before factorize, whose trial division grows with q
        raise ValueError(f"field order must be at most {MAX_FIELD_ORDER}")
    if q < 2 or len(fac := factorize(q)) != 1:  # factorize takes positive integers
        raise ValueError(f"{q} is not a prime power")
    p, e = fac[0]
    return small_field(p, e)


# ---------------------------------------------------------------------------
# matrices over a SmallField (tuples of row tuples of element codes)
# ---------------------------------------------------------------------------


def mat_identity(m: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))


class _RowTable(dict):
    """row -> row * g over a table ring: a row is multiplied out on its
    first lookup and stored, so each row that occurs costs one product."""

    def __init__(self, ring, g):
        super().__init__()
        self.add, self.mul = ring.add, ring.mul
        self.columns = tuple(zip(*g))

    def __missing__(self, row):
        add, mul = self.add, self.mul
        out = []
        for col in self.columns:
            s = 0
            for x, y in zip(row, col):
                s = add[s][mul[x][y]]
            out.append(s)
        self[row] = out = tuple(out)
        return out


def _matrix_right(ring):
    """right(g) of a matrix group over a table ring: every row of x g is
    that row of x times g, so one row table serves all positions."""
    return lambda g: [_RowTable(ring, g)] * len(g)


# ---------------------------------------------------------------------------
# enumerated groups
# ---------------------------------------------------------------------------

class FqMatrixGroup:
    """A fully enumerated finite group of matrices (or of matrices with
    a shared similitude unit).  Elements are flat tuples of positions,
    and right(g) returns one lookup per position such that x g is
    tuple(map(getitem, right(g), x)): each row of x g is that row of x
    times g, and a similitude unit is multiplied mod p.

    The elements are numbered once, and one closure walk is the only
    place that multiplies: generators are drawn from a `random.Random(0)`
    shuffle of the element indices and added until their closure under
    right multiplication is the whole element set, which certifies the
    generating set.  The walk builds right(g) once per generator g, keeps
    each right action x -> x g as an index list, checked to permute the
    elements, and its spanning tree (a Schreier tree) records every
    element as parent * generator.
    Everything else is read off the tree by index lookups.  The order of
    x is the number of passes of x's tree word through the right actions
    that bring the identity back.  Conjugacy classes are orbits under
    x -> g^-1 x g = R_g(g^-1 x) for the generators g only, where g^-1 is
    the preimage of the identity under R_g and g^-1 x follows x's tree
    word from g^-1.  Each such map permutes the finite element set, so
    its inverse is one of its own powers, and an orbit closed under the
    maps is closed under conjugation by the generators themselves.
    """

    def __init__(self, descriptor: str, elements, right, identity):
        self.descriptor = descriptor
        self.elements = list(elements)
        self.right = right
        self.identity = identity
        self._index = {x: i for i, x in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise InternalCheckError(f"{descriptor}: duplicate elements enumerated")
        if identity not in self._index:
            raise InternalCheckError(f"{descriptor}: identity not in element set")

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_order(self, x) -> int:
        actions, parent, letter, reach = self._closure_walk
        root, i = reach[0], self._index[x]
        word = []  # x's right actions, from the root down to x
        while i != root:
            word.append(actions[letter[i]])
            i = parent[i]
        word.reverse()
        n, y = 0, root
        while n == 0 or y != root:  # y is x^n; the actions permute, so it returns
            for act in word:
                y = act[y]
            n += 1
        return n

    @functools.cached_property
    def _closure_walk(self) -> tuple[list[list[int]], list[int], list[int], list[int]]:
        """The right actions of a certified generating set as index
        lists, the walk's spanning tree (element i is parent[i] *
        generator letter[i]) and its elements in reach order, the
        identity first."""
        elements, index, right = self.elements, self._index, self.right
        n = len(elements)
        root = index[self.identity]
        parent = [-1] * n
        letter = [-1] * n
        applied = [0] * n  # generators already applied to each reached element
        reached = bytearray(n)
        reached[root] = 1
        closure = [root]
        tables: list = []  # right(g) per generator g
        actions: list[list[int]] = []
        candidates = list(range(n))
        random.Random(0).shuffle(candidates)
        for c in candidates:
            if len(closure) == n:
                break
            if reached[c]:
                continue
            tables.append(right(elements[c]))
            actions.append([-1] * n)
            queue = deque(closure)
            while queue:
                a = queue.popleft()
                x = elements[a]
                for k in range(applied[a], len(tables)):
                    b = index.get(tuple(map(getitem, tables[k], x)))
                    if b is None:
                        raise InternalCheckError(
                            f"{self.descriptor}: generated closure does not match "
                            "the enumerated element set"
                        )
                    actions[k][a] = b
                    if not reached[b]:
                        reached[b] = 1
                        parent[b], letter[b] = a, k
                        closure.append(b)
                        queue.append(b)
                applied[a] = len(tables)
        for act in actions:
            hit = bytearray(n)
            for b in act:
                hit[b] = 1
            if 0 in hit:
                raise InternalCheckError(
                    f"{self.descriptor}: a generator does not permute the elements"
                )
        return actions, parent, letter, closure

    def conjugacy_classes(self) -> list[list]:
        actions, parent, letter, reach = self._closure_walk
        conjugations = []
        for act in actions:
            left = [act.index(reach[0])] * len(act)  # g^-1 x, from g^-1 at the root
            for x in reach[1:]:
                left[x] = actions[letter[x]][left[parent[x]]]
            conjugations.append([act[y] for y in left])
        assigned = bytearray(len(self.elements))
        classes = []
        for x in range(len(self.elements)):
            if assigned[x]:
                continue
            assigned[x] = 1
            orbit = [x]
            for y in orbit:  # the list grows while it is walked
                for conj in conjugations:
                    z = conj[y]
                    if not assigned[z]:
                        assigned[z] = 1
                        orbit.append(z)
            classes.append(sorted(self.elements[i] for i in orbit))
        return classes


def _charge(what: str, base: int, exponent: int = 1, spent: int = 0) -> int:
    """spent + base**exponent, the candidates charged so far, or
    StateSpaceError past DEFAULT_CAP.  A base >= 2 raised to more than
    DEFAULT_CAP.bit_length() is over the cap whatever the base, so the
    exponent is checked first and such a power is never built."""
    if base < 2 or exponent <= DEFAULT_CAP.bit_length():
        spent += base**exponent
        if spent <= DEFAULT_CAP:
            return spent
    raise StateSpaceError(f"{what}: candidate space exceeds the {DEFAULT_CAP} budget")


def _check_elements(count: int, what: str):
    if count > ELEMENT_LIMIT:
        raise StateSpaceError(
            f"{what}: more than the {ELEMENT_LIMIT} element limit to store"
        )


def _check_rank(m: int):
    if m < 1:
        raise ValueError(f"matrix size m must be >= 1, got {m}")


def _invertible_matrices(f: SmallField, m: int, what: str) -> list[tuple]:
    """Every m x m matrix over f with linearly independent rows, in
    increasing order of its entries: a depth-first search over rows, each
    row any vector outside the span of the rows above it.  The span is
    kept as a set, grown by u + c v for each new row v."""
    _check_rank(m)
    q = f.order
    _charge(what, q, m * m)
    # |GL_m(F_q)| = q^(m(m-1)/2) prod_j (q^j - 1) elements will be kept:
    # checked before the loop, which would store and test that many
    count = q ** (m * (m - 1) // 2)
    for j in range(1, m + 1):
        count *= q**j - 1
    _check_elements(count, what)
    add, mul = f.add, f.mul
    vectors = list(itertools.product(range(q), repeat=m))
    out = []

    def extend(rows: tuple, span: set):
        for v in vectors:
            if v in span:
                continue
            if len(rows) == m - 1:
                out.append((*rows, v))
            else:
                extend((*rows, v), {tuple(add[x][mul[c][y]] for x, y in zip(u, v))
                                    for u in span for c in range(q)})

    extend((), {(0,) * m})
    return out


def enumerate_gl(m: int, q: int) -> FqMatrixGroup:
    f = field_of_order(q)
    what = f"GL_{m}(F_{q})"
    return FqMatrixGroup(what, _invertible_matrices(f, m, what), _matrix_right(f),
                         mat_identity(m))


def _pairing_masks(left, right, ring, swap, values):
    """Orthogonality bitmasks of the pairing <i, j> = sum_k left[i][k] *
    right[j][k] over a table ring, with <j, i> = swap[<i, j>].  Returns
    masks, a list indexed by ring element: masks[s][i] has bit j set for
    every j != i with <i, j> = s, for each s in values (None elsewhere),
    and a generator that fills them.  It evaluates each unordered pair
    once and yields i as soon as row i is complete: rows j < i set their
    bits in it earlier, and its own pass covers every j > i."""
    add, mul = ring.add, ring.mul
    size = len(left)
    masks = [[0] * size if s in values else None for s in range(ring.order)]

    def rows():
        for i, u in enumerate(left):
            bit = 1 << i
            for j, v in enumerate(right[i + 1:], i + 1):
                s = 0
                for x, y in zip(u, v):
                    s = add[s][mul[x][y]]
                hit = masks[s]
                if hit is not None:
                    hit[i] |= 1 << j
                hit = masks[swap[s]]
                if hit is not None:
                    hit[j] |= bit
            yield i

    return masks, rows()


def _hermitian_matrices(
    f: SmallField, m: int, targets: list[int], what: str
) -> dict[int, list[tuple]]:
    """All A with A^t conj(A) = t*I for each t in targets, via depth-first
    search over column tuples: every column has hermitian norm t and the
    columns are pairwise hermitian-orthogonal.  Invertibility follows
    from det(A) conj(det(A)) = t^m != 0.

    Each pool vector gets the bitmask of the pool vectors orthogonal to
    it, so a node's children are the AND of its columns' masks.  The
    search is charged in pool scans, before the work they stand for:
    the root's scan, then each inner node's children's scans.  The
    root's children's charge, made before the mask table is built,
    covers the table; each depth-1 node is charged as its mask row is
    completed."""
    _check_rank(m)
    q2 = f.order
    spent = _charge(what, q2, m)
    # <u, v> = sum_k u_k * conj(v_k), with conj the inverting automorphism
    mul, add, frob = f.mul, f.add, f.frob
    by_norm: dict[int, list[tuple]] = {}
    for c in itertools.product(range(q2), repeat=m):
        s = 0
        for x in c:
            s = add[s][mul[x][frob[x]]]
        by_norm.setdefault(s, []).append(c)

    out: dict[int, list[tuple]] = {}
    for t in targets:
        pool = by_norm.get(t, [])
        size = len(pool)
        spent = _charge(what, size, spent=spent)  # the root's scan
        masks = [0] * size
        if m >= 2:
            spent = _charge(what, size, 2, spent)  # the root's children's scans
            # the pool against its conjugates: <v, u> = conj(<u, v>)
            conj = [[frob[y] for y in v] for v in pool]
            by_value, rows = _pairing_masks(pool, conj, f, frob, (0,))
            masks = by_value[0]
            for i in rows:
                if m >= 3:  # depth-1 node i, whose children are its row's bits
                    spent = _charge(what, masks[i].bit_count() * size, spent=spent)
        solutions: list[tuple] = []

        def extend(avail: int, chosen: list):
            nonlocal spent
            if len(chosen) == m:
                solutions.append(tuple(zip(*chosen)))  # columns -> rows
                _check_elements(len(solutions), what)
                return
            if 2 <= len(chosen) < m - 1:
                spent = _charge(what, avail.bit_count() * size, spent=spent)
            for i in _iter_bits(avail):
                extend(avail & masks[i], chosen + [pool[i]])

        extend((1 << size) - 1, [])
        out[t] = solutions
    return out


def enumerate_unitary(m: int, q: int) -> FqMatrixGroup:
    """The isometry group of the standard hermitian form on F_{q^2}^m."""
    base = field_of_order(q)
    f = small_field(base.p, 2 * base.e)
    elems = _hermitian_matrices(f, m, [f.one], f"U_{m}(F_{q})")[f.one]
    return FqMatrixGroup(f"U_{m}(F_{q})", elems, _matrix_right(f), mat_identity(m))


# --- symplectic groups ------------------------------------------------------


def _symplectic_bases(ring, m: int, multipliers, what: str | None = None):
    """The vectors of R^(2m), R a table ring, and a depth-first search for
    the columns e_1, f_1, ..., e_m, f_m of each g with g^t J g = c J, c in
    multipliers: <e_k, f_k> = c and all other pairs of columns pair to 0
    under <u, v> = sum_k (u_{2k} v_{2k+1} - u_{2k+1} v_{2k}).  Once
    e_1, ..., f_(m-1) are chosen it yields (columns, avail, pair): their
    vector indices, the mask of the vectors pairing to 0 with all of them,
    and pair; e_m is any bit i of avail and f_m any bit of pair[i] & avail.

    With `what`, the elements are to be stored: at m = 1 the matrices
    with first column i are counted as row i completes, so the element
    limit fires while the table is being built."""
    n = 2 * m
    vectors = list(itertools.product(range(ring.order), repeat=n))
    neg = ring.neg
    # J-twisted vectors against vectors: <u, v> = (Ju) . v, <v, u> = -<u, v>
    twisted = [tuple(x for k in range(0, n, 2) for x in (neg[u[k + 1]], u[k]))
               for u in vectors]
    masks, rows = _pairing_masks(twisted, vectors, ring, neg, (0, *multipliers))
    if what is not None and m == 1:  # e_1 = i, f_1 any bit of masks[c][i]
        count = 0
        for i in rows:
            count += sum(masks[c][i].bit_count() for c in multipliers)
            _check_elements(count, what)
    else:
        deque(rows, maxlen=0)
    zero = masks[0]

    def walk(avail: int, chosen: list, pair: list):
        if len(chosen) == n - 2:
            yield chosen, avail, pair
            return
        for i in _iter_bits(avail):
            for j in _iter_bits(pair[i] & avail):
                yield from walk(avail & zero[i] & zero[j], chosen + [i, j], pair)

    full = (1 << len(vectors)) - 1
    return vectors, (basis for c in multipliers for basis in walk(full, [], masks[c]))


def _iter_bits(mask: int):
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def _basis_group(what: str, ring, m: int, multipliers) -> FqMatrixGroup:
    """The matrices whose columns _symplectic_bases finds, at most ELEMENT_LIMIT."""
    vectors, bases = _symplectic_bases(ring, m, multipliers, what)
    elems: list[tuple] = []
    for columns, avail, pair in bases:
        chosen = [vectors[k] for k in columns]
        for i in _iter_bits(avail):
            for j in _iter_bits(pair[i] & avail):
                elems.append(tuple(zip(*chosen, vectors[i], vectors[j])))
                _check_elements(len(elems), what)
    return FqMatrixGroup(what, elems, _matrix_right(ring), mat_identity(2 * m))


def _sp_field(m: int, q: int) -> SmallField:
    """F_q for Sp_2m(F_q), charged first: the basis tree's q^(2m^2+m)
    leaf bound (the j-th last pair (e, f) has at most q^(2j) * q^(2j-1)
    choices), then the q^(4m) pairing-table entries."""
    f = field_of_order(q)
    _check_rank(m)
    _charge(f"Sp_{2 * m}(F_{q}) basis tree", q, 2 * m * m + m)
    _charge(f"Sp_{2 * m}(F_{q}) pairing tables", q, 4 * m)
    return f


def count_symplectic_matrices(m: int, q: int) -> int:
    """|Sp_2m(F_q)| by exhaustive depth-first enumeration of ordered
    symplectic bases (each basis is the column list of exactly one
    group element, so leaves of the search tree biject with matrices).
    The last f of each basis is counted by popcount; nothing is stored."""
    _, bases = _symplectic_bases(_sp_field(m, q), m, (1,))
    return sum((pair[i] & avail).bit_count() for _, avail, pair in bases
               for i in _iter_bits(avail))


def enumerate_sp(m: int, q: int) -> FqMatrixGroup:
    """Sp_2m(F_q) with at most ELEMENT_LIMIT elements materialized;
    use count_symplectic_matrices for orders too large to store."""
    return _basis_group(f"Sp_{2 * m}(F_{q})", _sp_field(m, q), m, (1,))


def enumerate_gsp_modn(m: int, level: int) -> FqMatrixGroup:
    """Symplectic similitude matrices over Z/NZ: g^t J g = c J for a
    unit c, with J the block-diagonal alternating form.  The complement
    of a partial symplectic basis is free, so Sp's bound per pair holds,
    and there are fewer than N multipliers: the basis tree is charged
    N^(2m^2+m+1), then the N^(4m) table entries."""
    if m < 1 or level < 2:
        raise ValueError(f"GSp needs m >= 1 and level >= 2, got {m}, {level}")
    what = f"GSp_{2 * m}(Z/{level})"
    _charge(what, level, 2 * m * m + m + 1)
    _charge(what, level, 4 * m)
    add, mul = _ring_tables(level, 1, (0,))  # Z/NZ in the table shape of SmallField
    zn = SimpleNamespace(add=add, mul=mul, neg=mul[level - 1], order=level)
    units = [c for c in range(1, level) if gcd(c, level) == 1]
    return _basis_group(what, zn, m, units)


# --- the residual automorphism group of a validated setting -----------------


def enumerate_similitude_product(setting: ShimuraSetting) -> FqMatrixGroup:
    """The finite group attached to a superspecial point of a validated
    setting: tuples ((A_v)_v, r) with r a unit mod p, A_v unrestricted
    invertible at places of even residue degree, and A_v^t conj(A_v) = r*I
    at places of odd residue degree.  Matrices live over F_{p^2} at every
    place (residue degrees are 1 or 2 here), so a single table field
    serves all components."""
    p, m = setting.p, setting.m
    if p > MAX_FIELD_CHAR:
        raise StateSpaceError(
            f"residue characteristic {p} exceeds the table-field limit "
            f"{MAX_FIELD_CHAR}"
        )
    f = small_field(p, 2)
    units = list(range(1, p))
    inside = setting.delta_prime_at_p
    if inside:  # one pool serves every place of odd residue degree
        hermitian = _hermitian_matrices(
            f, m, units, f"similitude factor over {inside!r}"
        )

    pools: list[dict[int, list[tuple]]] = []
    for v in setting.places_over_p:
        if v in inside:
            pools.append(hermitian)
        else:
            full = _invertible_matrices(f, m, f"linear factor over {v!r}")
            pools.append({r: full for r in units})

    _check_elements(
        sum(prod(len(pool[r]) for pool in pools) for r in units),
        "similitude product assembly",
    )
    elems = []
    for r in units:  # flat codes: the rows of A_v for each place v, then r
        for combo in itertools.product(*(pool[r] for pool in pools)):
            elems.append((*itertools.chain(*combo), r))

    def right(g):
        tables = []
        for k in range(0, len(g) - 1, m):  # one row table per place
            tables += [_RowTable(f, g[k:k + m])] * m
        tables.append([x * g[-1] % p for x in range(p)])
        return tables

    identity = (*mat_identity(m) * len(pools), 1)
    descriptor = (
        f"residual group (disc {setting.field.discriminant}, m={m}, p={p})"
    )
    return FqMatrixGroup(descriptor, elems, right, identity)


# ---------------------------------------------------------------------------
# class-level queries
# ---------------------------------------------------------------------------


def p_regular_class_count(group: FqMatrixGroup, p: int) -> int:
    """Number of conjugacy classes whose elements have order coprime
    to p (the element order is constant on a class)."""
    count = 0
    for cls in group.conjugacy_classes():
        if group.element_order(cls[0]) % p != 0:
            count += 1
    return count


def sylow_p_order(group: FqMatrixGroup, p: int) -> int:
    """The exact power of p dividing the group order."""
    n = group.order
    result = 1
    while n % p == 0:
        n //= p
        result *= p
    return result


def verify_setting_with_oracle(setting: ShimuraSetting) -> dict:
    """Cross-check the closed-form irreducible count and Sylow dimension
    bound against the enumerated residual group of the setting.

    Returns {"verified": bool} on a completed check, or
    {"verified": False, "skipped": reason} when the instance does not
    fit the candidate budget or the element limit."""
    try:
        group = enumerate_similitude_product(setting)
    except StateSpaceError as exc:
        return {"verified": False, "skipped": str(exc)}
    ok = (
        p_regular_class_count(group, setting.p) == irr_count(setting)
        and sylow_p_order(group, setting.p) == dim_bound(setting)
    )
    return {"verified": ok}
