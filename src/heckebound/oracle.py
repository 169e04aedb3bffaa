"""Brute-force verification engine, independent of the closed forms.

Finite fields F_{p^e} with p <= 7 and p^e <= 49, and the rings Z/N, are
table rings of one shape: the order and the add, mul and neg tables of
(Z/n)[x]/(x^e + t(x)).  Matrix groups are enumerated straight from their
defining conditions.  An element is the tuple of rows of a block-diagonal
matrix over one table ring: one square block for a matrix group, and for
the residual group each place's m x m block, then the similitude unit r
as the 1 x 1 block (r,).  GL_m(F_q) comes from a search over rows
outside the span of the rows above.  One symplectic basis search builds
Sp_2m(F_q), its count and GSp_2m(Z/N), and one row builder makes the
hermitian and the alternating masks.  One unitary search finds U_m(F_p),
and the residual group is assembled from that pool by columns: each
factor r's elements are one zip of the pool's row columns, scaled
through one row table and indexed per place.  One column kernel,
_ring_sums, does the table arithmetic on whole rows: sum_k c_k * column_k
for every entry at once, as bytes of ring elements.  A table ring adds
its elements' base-n digits mod n with no carry, so on plane d each term
is one bytes.translate of its column through x -> digit d of c_k x, and
the k terms add as little-endian integers; no byte carries while
k (n - 1) <= 255, which the kernel checks; one translate per plane then
reduces it mod n and weights it by n^d.  A row table zips the kernel's
bytes into image rows, and a pairing mask is one translate of them per
value.  The oracle's verdict on a setting compares the enumerated group
with the irreducible count and Sylow bound it is given, the ones a
record prints.  A group multiplies only in one closure walk, which maps all its
elements through a generator g in one pass: each row's column of values
goes through a table of the block of g that holds the row, built over
the distinct rows at the block's positions.  Candidate generators come
from a seeded Fisher-Yates shuffle run forward, drawn only as far as the
walk needs them, and the walk's breadth-first search goes a layer at a
time.  A row table's images are the group's own row objects, so an
image element is found by identity on its rows.  Conjugacy classes are
unsorted orbits of element indices, opened in the walk's reach order,
and each class's order is read off the walk's spanning tree at its
first-reached member, whose tree word is short.  The unitary
search's matrices share their row tuples, one object per distinct row.
Every enumeration is guarded by a candidate budget, charged before the
work it stands for, and every stored collection by an element limit, so a
typo in a descriptor cannot start a runaway enumeration.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import deque
from math import gcd
from types import SimpleNamespace

from .arith import InternalCheckError, factorize, is_prime
from .numberfield import ShimuraSetting, _proven_prime

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


def _ring_tables(n: int, e: int, tail: tuple) -> SimpleNamespace:
    """The ring (Z/n)[x]/(x^e + t(x)), t(x) = sum_i tail[i] x^i: its order
    n^e, its digit base n and digit count e, and its add, mul and neg
    tables.  Elements are integers in [0, n^e) read as base-n coefficient
    vectors, constant term lowest, so addition is digit by digit mod n
    with no carry.

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
    return SimpleNamespace(order=size, base=n, e=e, add=add, mul=mul,
                           neg=mul[n - 1])  # n - 1 is -1


class SmallField:
    """F_{p^e} with p <= 7 and p^e <= 49: the table ring of _ring_tables
    for the first monic irreducible polynomial of degree e.  Elements are
    integers in [0, p^e) encoding coefficient vectors in base p, so the
    prime subfield is encoded by 0..p-1 itself.

    Field axioms are checked exhaustively at construction, a whole table
    at a time: every pair and triple of elements.  For even e
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

        # F_p[x]/(f) is a field exactly when f is irreducible, so the first
        # tail (in itertools.product order) whose ring has no zero divisors,
        # i.e. every nonzero element has an inverse, gives the first monic
        # irreducible f of degree e.  A tail whose f has a root in F_p is
        # reducible at e >= 2 and gets no tables
        for tail in itertools.product(range(p), repeat=e):
            if e >= 2 and any((r**e + sum(t * r**i for i, t in enumerate(tail))) % p == 0
                              for r in range(p)):
                continue
            ring = _ring_tables(p, e, tail)
            if all(1 in row for row in ring.mul[1:]):
                break
        else:
            raise InternalCheckError(f"no field of order {p**e} among the tails")
        self.order, self.base = ring.order, ring.base
        self.add, self.mul, self.neg = ring.add, ring.mul, ring.neg

        self.frob = None
        if e % 2 == 0:  # a -> a^(p^(e/2)) by repeated products; p^(e/2) <= 7
            self.frob = list(range(self.order))
            for _ in range(p ** (e // 2) - 1):
                self.frob = [self.mul[y][a] for a, y in enumerate(self.frob)]

        self._verify()

    def _verify(self):
        """Every axiom on every pair and triple of elements, a whole table
        at a time: each row becomes bytes, and padded to 256 bytes it is a
        bytes.translate table, so row.translate(T[a]) maps every entry x
        of a row to add[a][x] (or mul[a][x]) in one call."""
        q = self.order
        add, mul = self.add, self.mul
        rng = range(q)

        def fail(axiom):
            raise InternalCheckError(f"{self!r}: {axiom} fails")

        add_cols, mul_cols = list(zip(*add)), list(zip(*mul))
        for a in rng:
            if add[a][0] != a or mul[a][1] != a or mul[a][0] != 0:
                fail("identity law")
            if tuple(add[a]) != add_cols[a] or tuple(mul[a]) != mul_cols[a]:
                fail("commutativity")
        pad = bytes(256 - q)
        add_rows, mul_rows = [bytes(r) for r in add], [bytes(r) for r in mul]
        add_by, mul_by = [r + pad for r in add_rows], [r + pad for r in mul_rows]
        add_flat, mul_flat = b"".join(add_rows), b"".join(mul_rows)
        for a in rng:
            # all (b, c) at once.  Read b outer, the flat tables give
            # (a + b) + c = a + (b + c) and (a b) c = a (b c); read c outer,
            # with + commutative, a (b + c) = (a b) + (a c) = (a c) + (a b)
            sums = b"".join(map(add_rows.__getitem__, add[a]))
            products = b"".join(map(mul_rows.__getitem__, mul[a]))
            spread = b"".join(map(mul_rows[a].translate, map(add_by.__getitem__, mul[a])))
            if (
                sums != add_flat.translate(add_by[a])
                or products != mul_flat.translate(mul_by[a])
                or spread != add_flat.translate(mul_by[a])
            ):
                fail("associativity or distributivity")
        if self.frob is not None:
            frob = self.frob
            images = bytes(frob)
            frob_by = images + pad
            fixed = 0
            for a in rng:
                if frob[frob[a]] != a:
                    fail("involutivity of the automorphism")
                if frob[a] == a:
                    fixed += 1
                # all b at once: frob(a + b) = frob(a) + frob(b), and for a b
                fa = frob[a]
                if (
                    add_rows[a].translate(frob_by) != images.translate(add_by[fa])
                    or mul_rows[a].translate(frob_by) != images.translate(mul_by[fa])
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


@functools.cache
def _plane_tables(n: int, e: int) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """Two translate tables per digit plane d of the base-n digits of a
    byte x: x -> digit d of x, and x -> (x mod n) * n^d."""
    return (tuple(bytes(x // n**d % n for x in range(256)) for d in range(e)),
            tuple(bytes(x % n * n**d for x in range(256)) for d in range(e)))


def _ring_sums(ring, columns):
    """The column kernel over a table ring of order at most 256: sums(c)
    gives sum_k c[k] * columns[k][t] for every t at once, as bytes of
    ring elements.

    Every table ring adds digit by digit mod n with no carry between
    digits, so each digit plane is summed on its own: the term
    c_k * column_k on plane d is one bytes.translate of the column through
    the 256-byte table x -> digit d of mul[c_k][x], and the terms add as
    little-endian integers.  A byte of the sum is at most k (n - 1) for k
    terms, so no byte carries into the next while k (n - 1) <= 255; a
    larger k is an internal fault, as is a ring whose elements are not
    bytes.  The budgets stay far inside: the most is 2 * 55, for
    GSp_2(Z/56).  Each plane is then reduced mod n and weighted by n^d in
    one translate, and the weighted planes add as integers into the
    elements: their bytes sum to at most n^e - 1 <= 255, so they do not
    carry either."""
    order, n, e = ring.order, ring.base, ring.e
    if order > 256:
        raise InternalCheckError(f"the column kernel needs a ring of order at most 256, "
                                 f"got {order}")
    if len(columns) * (n - 1) > 255:
        raise InternalCheckError(f"the column kernel's {len(columns)} terms of digits "
                                 f"mod {n} could carry past a byte")
    columns = [bytes(col) for col in columns]
    size = len(columns[0])
    pad = bytes(256 - order)
    digit_tables, weighted = _plane_tables(n, e)

    @functools.cache
    def planes(c):  # x -> digit d of c * x, one table per plane d
        products = bytes(ring.mul[c])
        return [products.translate(t) + pad for t in digit_tables]

    def sums(coeffs) -> bytes:
        total = [0] * e
        for c, col in zip(coeffs, columns, strict=True):
            if c:
                for d, table in enumerate(planes(c)):
                    total[d] += int.from_bytes(col.translate(table), "little")
        return sum(int.from_bytes(t.to_bytes(size, "little").translate(w), "little")
                   for t, w in zip(total, weighted)).to_bytes(size, "little")

    return sums


def _row_table(ring, block, rows) -> dict:
    """row -> row * block over a commutative table ring, for each of the
    given distinct rows: one kernel sum over the rows' columns per column
    of the block.  An image equal to one of the given rows is that row
    object, so a lookup of an image in a dict keyed by those rows matches
    by identity and never compares entries; any other image is a new
    tuple."""
    sums = _ring_sums(ring, tuple(zip(*rows)))
    images = list(zip(*map(sums, zip(*block))))
    stored = dict(zip(rows, rows))
    return dict(zip(rows, map(stored.get, images, images)))


# ---------------------------------------------------------------------------
# enumerated groups
# ---------------------------------------------------------------------------

class FqMatrixGroup:
    """A fully enumerated finite group of block-diagonal matrices over a
    table ring.  Elements are tuples of rows, all of one length, and a run
    of b rows of length b is one square block: a matrix group's elements
    are one block, the residual group's one m x m block per place, then
    the 1 x 1 block (r,) of the similitude unit.  The block layout and the
    identity are read off the first element.

    The elements are numbered once, and one closure walk is the only
    place that multiplies: candidates are drawn from the element indices
    by a Fisher-Yates shuffle run forward with `random.Random(0)`, one
    draw per candidate taken, and each one outside the closure so far is
    added as a generator, until the closure under right multiplication
    is the whole element set, which certifies the generating set.  For
    each generator g the walk maps every element through g in one pass
    into the right action x -> x g as an index list, checked to land in
    the element set and to permute it before the walk reads it.
    The walk's spanning tree (a Schreier tree) records every element as
    parent * generator.  It is grown breadth first, a layer at a time:
    a new generator's action is mapped over the whole closure so far,
    then every generator's over each new layer, and an element reached
    for the first time takes the layer element and generator that
    reached it as its parent and letter.  Everything else is read off
    the tree by index lookups.  The order of
    x is the number of passes of x's tree word through the right actions
    that bring the identity back.  Conjugacy classes are orbits of
    element indices under x -> g^-1 x g = R_g(g^-1 x) for the generators
    g only, where g^-1 is the preimage of the identity under R_g and
    g^-1 x follows x's tree word from g^-1.  Each such map permutes the
    finite element set, so its inverse is one of its own powers, and an
    orbit closed under the maps is closed under conjugation by the
    generators themselves.  The orbits are opened in reach order and not
    sorted, so each class's first index is its first-reached member,
    whose tree word is short; the class's order is read there.
    """

    def __init__(self, descriptor: str, elements, ring):
        self.descriptor = descriptor
        self.elements = list(elements)
        self.ring = ring
        first = self.elements[0] if self.elements else ()
        self._blocks, self.identity, start = [], (), 0
        while start < len(first):  # a run of b rows of length b is one block
            size = len(first[start])
            self._blocks.append(slice(start, start + size))
            self.identity += mat_identity(size)
            start += size
        self._index = dict(zip(self.elements, range(len(self.elements))))
        if len(self._index) != len(self.elements):
            raise InternalCheckError(f"{descriptor}: duplicate elements enumerated")
        if self.identity not in self._index:
            raise InternalCheckError(f"{descriptor}: identity not in element set")
        if len(set(map(len, self.elements))) != 1:
            raise InternalCheckError(f"{descriptor}: elements differ in length")

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_order(self, x) -> int:
        return self._order(self._index[x])

    def _order(self, i: int) -> int:
        """The order of element i: the number of passes of its tree word
        through the right actions that bring the identity back."""
        actions, parent, letter, reach = self._closure_walk
        root = reach[0]
        word = []  # i's right actions, from the root down to i
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
        identity first.  x g is read off the elements' values at each row:
        each block of g has one row table over the distinct rows that occur
        at the block's positions, and each row's column of values goes
        through its block's table."""
        elements, ring, find = self.elements, self.ring, self._index.get
        n = len(elements)
        columns = list(zip(*elements, strict=True))
        blocks = [(block, list(dict.fromkeys(itertools.chain(*columns[block]))))
                  for block in self._blocks]
        root = self._index[self.identity]
        parent = [-1] * n
        letter = [-1] * n
        reached = bytearray(n)
        reached[root] = 1
        closure = [root]
        actions: list[list[int]] = []
        candidates = list(range(n))
        draw = random.Random(0).randrange
        for i in range(n):
            if len(closure) == n:
                break
            j = draw(i, n)  # Fisher-Yates run forward: one draw per candidate taken
            candidates[i], candidates[j] = candidates[j], candidates[i]
            c = candidates[i]
            if reached[c]:
                continue
            # x g for every x at once; the tables go as soon as the action
            # is read off
            images = []
            for block, rows in blocks:
                table = _row_table(ring, elements[c][block], rows)
                images += [map(table.__getitem__, col) for col in columns[block]]
            act = list(map(find, zip(*images)))
            if None in act:
                raise InternalCheckError(
                    f"{self.descriptor}: generated closure does not match "
                    "the enumerated element set"
                )
            if len(set(act)) != n:
                raise InternalCheckError(
                    f"{self.descriptor}: a generator does not permute the elements"
                )
            actions.append(act)
            # breadth first, a layer at a time: the new generator on the
            # whole closure so far, then every generator on each new layer;
            # the closure grows only once a layer is done, so it can be one
            layer, letters = closure, [len(actions) - 1]
            while layer and len(closure) < n:
                grown = []
                for k in letters:
                    for a, b in zip(layer, map(actions[k].__getitem__, layer)):
                        if not reached[b]:
                            reached[b] = 1
                            parent[b], letter[b] = a, k
                            grown.append(b)
                closure += grown
                layer, letters = grown, range(len(actions))
        return actions, parent, letter, closure

    def conjugacy_classes(self) -> list[list[int]]:
        """The conjugacy classes as lists of element indices (positions
        in `elements`), unsorted.  Classes are opened in the walk's reach
        order, so each class's first index is its member reached first,
        whose tree word is short."""
        actions, parent, letter, reach = self._closure_walk
        conjugations = []
        for act in actions:
            left = [act.index(reach[0])] * len(act)  # g^-1 x, from g^-1 at the root
            for x in reach[1:]:
                left[x] = actions[letter[x]][left[parent[x]]]
            conjugations.append(list(map(act.__getitem__, left)))
        assigned = bytearray(len(reach))
        classes = []
        for x in reach:
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
            classes.append(orbit)
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
    return FqMatrixGroup(what, _invertible_matrices(f, m, what), f)


def _pairing_masks(left, right, ring, values):
    """Orthogonality bitmasks of the pairing <i, j> = sum_k left[i][k] *
    right[j][k] over a table ring.  Returns masks, a list indexed by ring
    element: masks[s][i] has bit j set for every j != i with <i, j> = s,
    for each s in values (None elsewhere), and a generator that fills
    them.  Row i is one column-kernel sum over right's columns, and
    masks[s][i] is one translate of its reversed value bytes to the binary
    digits of the entries equal to s.  i is yielded once its own row is
    done."""
    sums = _ring_sums(ring, tuple(zip(*right)))
    masks = [[0] * len(left) if s in values else None for s in range(ring.order)]
    picks = [(masks[s], bytes(b"01"[x == s] for x in range(256))) for s in values]

    def rows():
        for i, u in enumerate(left):
            reversed_values = sums(u)[::-1]
            others = ~(1 << i)
            for hit, pick in picks:
                hit[i] = int(reversed_values.translate(pick), 2) & others
            yield i

    return masks, rows()


def _hermitian_matrices(f: SmallField, m: int, what: str) -> list[tuple]:
    """All A with A^t conj(A) = I, in the order one depth-first search
    finds them: their columns have hermitian norm 1 and are pairwise
    orthogonal, and are chosen in increasing pool order.

    Each pool vector gets the bitmask of the pool vectors orthogonal to
    it, so a node's children are the AND of its columns' masks.  The
    search is charged in pool scans, before the work they stand for:
    the root's scan, then each inner node's children's scans.  The
    root's children's charge, made before the mask table is built,
    covers the table; each depth-1 node is charged once its mask row's
    own pass has ended.  The matrices share their row tuples: each
    distinct row is one object."""
    _check_rank(m)
    q2 = f.order
    spent = _charge(what, q2, m)
    # <u, v> = sum_k u_k * conj(v_k), with conj the inverting automorphism
    mul, add, frob = f.mul, f.add, f.frob
    norms = [mul[x][frob[x]] for x in range(q2)]
    total = [0]  # <v, v> of every v of f^k in product order, k = 1..m
    for _ in range(m):
        total = [add[s][t] for s in total for t in norms]
    pool = list(itertools.compress(itertools.product(range(q2), repeat=m),
                                   map((1).__eq__, total)))
    size = len(pool)
    spent = _charge(what, size, spent=spent)  # the root's scan
    masks = [0] * size
    if m >= 2:
        spent = _charge(what, size, 2, spent)  # the root's children's scans
        # the pool against its conjugates: <u, v> = sum_k u_k conj(v_k)
        conj = [[frob[y] for y in v] for v in pool]
        by_value, rows = _pairing_masks(pool, conj, f, (0,))
        masks = by_value[0]
        for i in rows:
            if m >= 3:  # depth-1 node i, whose children are its row's bits
                spent = _charge(what, masks[i].bit_count() * size, spent=spent)
    solutions: list[tuple] = []  # the pool indices of each solution's columns

    def extend(avail: int, chosen: tuple):
        nonlocal spent
        if len(chosen) == m - 1:  # the last column: any bit of avail, a
            # batch of at most one pool's size checked against the limit
            solutions.extend([(*chosen, i) for i in _iter_bits(avail)])
            _check_elements(len(solutions), what)
            return
        if len(chosen) >= 2:
            spent = _charge(what, avail.bit_count() * size, spent=spent)
        for i in _iter_bits(avail):
            extend(avail & masks[i], (*chosen, i))

    extend((1 << size) - 1, ())
    # row i of every solution at once: entry i of each column's pool
    # vector, by column maps; one dict makes each distinct row one tuple
    columns = list(zip(*solutions))
    share = {}.setdefault
    shared = []
    for entry in zip(*pool):
        row = list(zip(*(map(entry.__getitem__, col) for col in columns)))
        shared.append(list(map(share, row, row)))
    return list(zip(*shared))


def enumerate_unitary(m: int, q: int) -> FqMatrixGroup:
    """The isometry group of the standard hermitian form on F_{q^2}^m."""
    base = field_of_order(q)
    if q * q > MAX_FIELD_ORDER:
        raise ValueError(f"U_{m}(F_{q}) needs F_{q * q}, past the field-order limit "
                         f"{MAX_FIELD_ORDER}")
    f = small_field(base.p, 2 * base.e)
    elems = _hermitian_matrices(f, m, f"U_{m}(F_{q})")
    return FqMatrixGroup(f"U_{m}(F_{q})", elems, f)


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
    # J-twisted vectors against vectors: <u, v> = (Ju) . v
    twisted = [tuple(x for k in range(0, n, 2) for x in (neg[u[k + 1]], u[k]))
               for u in vectors]
    masks, rows = _pairing_masks(twisted, vectors, ring, (0, *multipliers))
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
    return FqMatrixGroup(what, elems, ring)


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
    units = [c for c in range(1, level) if gcd(c, level) == 1]
    return _basis_group(what, _ring_tables(level, 1, (0,)), m, units)


# --- the residual automorphism group of a validated setting -----------------


def enumerate_similitude_product(setting: ShimuraSetting) -> FqMatrixGroup:
    """The finite group attached to a superspecial point of a validated
    setting: tuples ((A_v)_v, r) with r a unit mod p, A_v unrestricted
    invertible at places of even residue degree, and A_v^t conj(A_v) = r*I
    at places of odd residue degree.  An element is the block-diagonal
    matrix of the A_v and the 1 x 1 block (r,), all over F_{p^2} (residue
    degrees are 1 or 2 here); F_p is its subfield of codes 0..p-1, so the
    table field multiplies the units mod p.  F is Galois, so every place
    over p has one residue degree and one pool serves them all:
    GL_m(F_{p^2}) for every r, or U_m(F_p), whose layer of factor r is
    lam*A for one lam with lam conj(lam) = r.

    The elements are assembled by columns, in the order r, then the
    places' matrices in product order: factor r's elements are one zip of
    the pool's row columns, mapped through the row table of lam*I when the
    pool is unitary and indexed by the product's index columns when there
    are two places, with the unit block (r,) repeated."""
    p, m = setting.p, setting.m
    if p > MAX_FIELD_CHAR:
        raise StateSpaceError(
            f"residue characteristic {p} exceeds the table-field limit "
            f"{MAX_FIELD_CHAR}"
        )
    f = small_field(p, 2)
    units = range(1, p)
    places = setting.places_over_p
    inside = setting.delta_prime_at_p
    if inside:
        pool = _hermitian_matrices(f, m, f"similitude factor over {inside!r}")
    else:
        pool = _invertible_matrices(f, m, f"linear factor over {places[0]!r}")
    _check_elements((p - 1) * len(pool) ** len(places), "similitude product assembly")
    # the pool's row columns: column i holds row i of every matrix
    pool_rows = list(zip(*pool))
    if inside:  # lam*A through one row table of lam*I per r: one object per row
        # one lam per norm; descending, so norm 1 keeps lam = 1
        lams = {f.mul[x][f.frob[x]]: x for x in range(f.order - 1, 0, -1)}
        rows = list(dict.fromkeys(itertools.chain(*pool_rows)))
    if len(places) > 1:  # each place's pool indices, in product order
        picks = list(zip(*itertools.product(range(len(pool)), repeat=len(places))))
    elems = []
    for r in units:  # the rows of A_v per place, then (r,)
        layer = pool_rows
        if inside:
            table = _row_table(f, [[lams[r] if i == j else 0 for j in range(m)]
                                   for i in range(m)], rows)
            layer = [list(map(table.__getitem__, col)) for col in layer]
        if len(places) > 1:
            layer = [list(map(col.__getitem__, pick)) for pick in picks for col in layer]
        elems += zip(*layer, itertools.repeat((r,)))
    descriptor = (
        f"residual group (disc {setting.field.discriminant}, m={m}, p={p})"
    )
    return FqMatrixGroup(descriptor, elems, f)


# ---------------------------------------------------------------------------
# class-level queries
# ---------------------------------------------------------------------------


def _check_prime(p: int):
    # is_prime is a proof below psi_12 only, which passes all its bases
    if not _proven_prime(p, "p", "p_too_large"):
        raise ValueError(f"p must be a prime, got {p}")


def p_regular_class_count(group: FqMatrixGroup, p: int) -> int:
    """Number of conjugacy classes whose elements have order coprime to
    the prime p.  The order is constant on a class, so it is read at each
    class's first-reached member.  ValueError unless p is a prime."""
    _check_prime(p)
    return sum(group._order(cls[0]) % p != 0 for cls in group.conjugacy_classes())


def sylow_p_order(group: FqMatrixGroup, p: int) -> int:
    """The exact power of the prime p dividing the group order.
    ValueError unless p is a prime."""
    _check_prime(p)
    n = group.order
    result = 1
    while n % p == 0:
        n //= p
        result *= p
    return result


def verify_setting_with_oracle(setting: ShimuraSetting, irr_count: int,
                               dim_bound: int) -> dict:
    """Cross-check irr_count and dim_bound, the closed-form irreducible
    count and Sylow dimension bound at the setting, against its enumerated
    residual group: its p-regular class count and its Sylow p-order.

    Returns {"verified": bool} on a completed check, or
    {"verified": False, "skipped": reason} when the instance does not
    fit the candidate budget or the element limit."""
    try:
        group = enumerate_similitude_product(setting)
    except StateSpaceError as exc:
        return {"verified": False, "skipped": str(exc)}
    ok = (
        p_regular_class_count(group, setting.p) == irr_count
        and sylow_p_order(group, setting.p) == dim_bound
    )
    return {"verified": ok}
