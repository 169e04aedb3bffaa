"""Brute-force verification engine, independent of the closed forms.

Finite fields of order at most 49 are realized as exhaustively verified
lookup tables; matrix groups are enumerated straight from their defining
conditions; conjugacy classes come from explicit orbit computation.
Everything is guarded by a candidate budget so a typo in a descriptor
cannot start a runaway enumeration.
"""

from __future__ import annotations

import itertools
from collections import deque
from math import gcd

from .arith import InternalCheckError, factorize, is_prime
from .groups import dim_bound, irr_count
from .numberfield import ShimuraSetting

__all__ = [
    "DEFAULT_CAP",
    "StateSpaceError",
    "SmallField",
    "small_field",
    "FqMatrixGroup",
    "enumerate_group",
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

# Budgets, read at call time: candidates charged per enumeration, group
# elements stored by enumerate_sp, the largest group verify_setting_with_oracle
# checks, and the size up to which verify_closure tries every pair.
DEFAULT_CAP = 10_000_000
MATERIALIZE_LIMIT = 200_000
MAX_VERIFIED_ORDER = 100_000
EXHAUSTIVE_CLOSURE_LIMIT = 1500

MAX_FIELD_ORDER = 49
MAX_FIELD_CHAR = 7


class StateSpaceError(RuntimeError):
    """The requested enumeration exceeds the candidate budget."""


# ---------------------------------------------------------------------------
# small finite fields as lookup tables
# ---------------------------------------------------------------------------


def _poly_divmod(num, den, p):
    num = list(num)
    deg_d = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p) if den[-1] != 1 else 1
    quot = [0] * max(len(num) - deg_d, 0)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i] * inv_lead % p
        quot[i - deg_d] = c
        if c:
            for k in range(deg_d + 1):
                num[i - deg_d + k] = (num[i - deg_d + k] - c * den[k]) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _is_irreducible(poly, p):
    e = len(poly) - 1
    for deg in range(1, e // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            den = list(tail) + [1]
            _, rem = _poly_divmod(poly, den, p)
            if rem == [0]:
                return False
    return True


def _find_irreducible(p, e):
    # first monic irreducible of degree e in lexicographic tail order
    for tail in itertools.product(range(p), repeat=e):
        poly = list(tail) + [1]
        if _is_irreducible(poly, p):
            return poly
    raise InternalCheckError(f"no irreducible polynomial of degree {e} over F_{p}")


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
        self.zero = 0
        self.one = 1

        def decode(code):
            out = []
            for _ in range(e):
                out.append(code % p)
                code //= p
            return out

        def encode(coeffs):
            code = 0
            for c in reversed(coeffs[:e]):
                code = code * p + c % p
            return code

        modpoly = _find_irreducible(p, e) if e > 1 else [0, 1]
        self.modulus = tuple(modpoly)

        self.add = [[0] * q for _ in range(q)]
        self.mul = [[0] * q for _ in range(q)]
        coeffs = [decode(a) for a in range(q)]
        for a in range(q):
            for b in range(q):
                self.add[a][b] = encode(
                    [(x + y) % p for x, y in zip(coeffs[a], coeffs[b])]
                )
                prod = [0] * (2 * e - 1)
                for i, x in enumerate(coeffs[a]):
                    if x:
                        for j, y in enumerate(coeffs[b]):
                            prod[i + j] += x * y
                if e > 1:
                    _, rem = _poly_divmod([c % p for c in prod], modpoly, p)
                    rem += [0] * (e - len(rem))
                    self.mul[a][b] = encode(rem)
                else:
                    self.mul[a][b] = prod[0] % p

        self.neg = [self.add[a].index(0) for a in range(q)]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = self.mul[a].index(1)

        if e % 2 == 0:
            power = p ** (e // 2)
            self.frob = [self._pow(a, power) for a in range(q)]
        else:
            self.frob = None

        self._verify()

    def _pow(self, a: int, n: int) -> int:
        result = 1
        base = a
        while n:
            if n & 1:
                result = self.mul[result][base]
            base = self.mul[base][base]
            n >>= 1
        return result

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


_FIELD_CACHE: dict[tuple[int, int], SmallField] = {}


def small_field(p: int, e: int = 1) -> SmallField:
    key = (p, e)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = SmallField(p, e)
    return _FIELD_CACHE[key]


def field_of_order(q: int) -> SmallField:
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, e = fac[0]
    return small_field(p, e)


# ---------------------------------------------------------------------------
# matrices over a SmallField (tuples of row tuples of element codes)
# ---------------------------------------------------------------------------


def mat_identity(m: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))


def mat_mul(f: SmallField, a: tuple, b: tuple) -> tuple:
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


def mat_det(f: SmallField, a: tuple) -> int:
    n = len(a)
    m = [list(r) for r in a]
    mul, add, neg, inv = f.mul, f.add, f.neg, f.inv
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = neg[det]
        det = mul[det][m[col][col]]
        ipiv = inv[m[col][col]]
        for r in range(col + 1, n):
            factor = mul[m[r][col]][ipiv]
            if factor:
                for k in range(col, n):
                    m[r][k] = add[m[r][k]][neg[mul[factor][m[col][k]]]]
    return det


def _hermitian_dot(f: SmallField, u: tuple, v: tuple) -> int:
    # sum_k u_k * conj(v_k), with conj the inverting automorphism
    mul, add, frob = f.mul, f.add, f.frob
    s = 0
    for x, y in zip(u, v):
        s = add[s][mul[x][frob[y]]]
    return s


# ---------------------------------------------------------------------------
# enumerated groups
# ---------------------------------------------------------------------------

class FqMatrixGroup:
    """A fully enumerated finite group of matrices (or of tuples of
    matrices with a shared similitude unit).

    Conjugacy classes are orbits grown from a generating set under
    conjugation by the generators and their inverses.  The generating
    set is certified by closing it and comparing against the full
    element list.
    """

    def __init__(self, descriptor: str, elements, mul, identity):
        self.descriptor = descriptor
        self.elements = list(elements)
        self._mul = mul
        self.identity = identity
        self._elements_set = set(self.elements)
        if len(self._elements_set) != len(self.elements):
            raise InternalCheckError(f"{descriptor}: duplicate elements enumerated")
        if identity not in self._elements_set:
            raise InternalCheckError(f"{descriptor}: identity not in element set")
        self._order_cache: dict = {}
        self._classes = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, a, b):
        return self._mul(a, b)

    def element_order(self, x) -> int:
        cached = self._order_cache.get(x)
        if cached is not None:
            return cached
        n = 1
        y = x
        while y != self.identity:
            y = self._mul(y, x)
            n += 1
            if n > len(self.elements):
                raise InternalCheckError(f"{self.descriptor}: element has no finite order")
        self._order_cache[x] = n
        return n

    def inverse(self, x):
        n = self.element_order(x)
        y = self.identity
        for _ in range(n - 1):
            y = self._mul(y, x)
        return y

    def verify_closure(self) -> None:
        """Check the group axioms on the enumerated set, exhaustively up
        to EXHAUSTIVE_CLOSURE_LIMIT elements and on a deterministic slice
        above."""
        elems = self.elements
        if len(elems) <= EXHAUSTIVE_CLOSURE_LIMIT:
            pairs = itertools.product(elems, elems)
        else:
            step = len(elems) // 200 or 1
            sample = elems[::step]
            pairs = itertools.product(sample, sample)
        for a, b in pairs:
            if self._mul(a, b) not in self._elements_set:
                raise InternalCheckError(f"{self.descriptor}: not closed under product")
        for a in elems[:EXHAUSTIVE_CLOSURE_LIMIT]:
            if self.inverse(a) not in self._elements_set:
                raise InternalCheckError(f"{self.descriptor}: not closed under inverse")

    def _generating_set(self) -> list:
        gens: list = []
        closure = [self.identity]
        closure_set = {self.identity}
        processed = {self.identity: 0}
        for x in self.elements:
            if x in closure_set:
                continue
            gens.append(x)
            queue = deque(closure)
            while queue:
                a = queue.popleft()
                for g in gens[processed[a]:]:
                    b = self._mul(a, g)
                    if b not in closure_set:
                        closure_set.add(b)
                        closure.append(b)
                        processed[b] = 0
                        queue.append(b)
                processed[a] = len(gens)
        if closure_set != self._elements_set:
            raise InternalCheckError(
                f"{self.descriptor}: generated closure does not match the "
                "enumerated element set"
            )
        return gens

    def conjugacy_classes(self) -> list[list]:
        if self._classes is not None:
            return self._classes
        gens = self._generating_set()
        conjugators = [(g, self.inverse(g)) for g in gens]
        conjugators += [(gi, g) for g, gi in conjugators]
        assigned = set()
        classes = []
        for x in self.elements:
            if x in assigned:
                continue
            orbit = {x}
            frontier = [x]
            while frontier:
                y = frontier.pop()
                for g, gi in conjugators:
                    z = self._mul(self._mul(g, y), gi)
                    if z not in orbit:
                        orbit.add(z)
                        frontier.append(z)
            assigned |= orbit
            classes.append(sorted(orbit))
        self._classes = classes
        return classes


def _charge(counter: list, amount: int, what: str, cap: int | None = None):
    if cap is None:
        cap = DEFAULT_CAP
    counter[0] += amount
    if counter[0] > cap:
        raise StateSpaceError(
            f"{what}: candidate space exceeds the {cap} budget"
        )


def _invertible_matrices(f: SmallField, m: int) -> list[tuple]:
    """Every m x m matrix over f with nonzero determinant; the caller
    charges the f.order^(m*m) candidates."""
    out = []
    for entries in itertools.product(range(f.order), repeat=m * m):
        a = tuple(entries[i * m:(i + 1) * m] for i in range(m))
        if mat_det(f, a) != 0:
            out.append(a)
    return out


def enumerate_gl(m: int, q: int) -> FqMatrixGroup:
    f = field_of_order(q)
    _charge([0], q ** (m * m), f"GL_{m}(F_{q})")
    return FqMatrixGroup(
        f"GL_{m}(F_{q})",
        _invertible_matrices(f, m),
        lambda a, b: mat_mul(f, a, b),
        mat_identity(m),
    )


def _hermitian_matrices(
    f: SmallField, m: int, targets: list[int], what: str
) -> dict[int, list[tuple]]:
    """All A with A^t conj(A) = t*I for each t in targets, via depth-first
    search over column tuples: every column has hermitian norm t and the
    columns are pairwise hermitian-orthogonal.  Invertibility follows
    from det(A) conj(det(A)) = t^m != 0."""
    q2 = f.order
    counter = [0]
    _charge(counter, q2**m, what)
    columns = list(itertools.product(range(q2), repeat=m))
    by_norm: dict[int, list[tuple]] = {}
    for c in columns:
        by_norm.setdefault(_hermitian_dot(f, c, c), []).append(c)

    out: dict[int, list[tuple]] = {}
    for t in targets:
        pool = by_norm.get(t, [])
        solutions: list[tuple] = []

        def extend(chosen):
            if len(chosen) == m:
                solutions.append(tuple(zip(*chosen)))  # columns -> rows
                return
            for c in pool:
                _charge(counter, 1, what)
                if all(_hermitian_dot(f, c, prev) == 0 for prev in chosen):
                    extend(chosen + [c])

        extend([])
        out[t] = solutions
    return out


def enumerate_unitary(m: int, q: int) -> FqMatrixGroup:
    """The isometry group of the standard hermitian form on F_{q^2}^m."""
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, e = fac[0]
    f = small_field(p, 2 * e)
    elems = _hermitian_matrices(f, m, [f.one], f"U_{m}(F_{q})")[f.one]
    return FqMatrixGroup(
        f"U_{m}(F_{q})", elems, lambda a, b: mat_mul(f, a, b), mat_identity(m)
    )


# --- symplectic groups ------------------------------------------------------


def _symplectic_masks(f: SmallField, m: int):
    """For every vector of F_q^(2m), bitmasks of the vectors pairing to
    0 and to 1 under the standard alternating form
    <u, v> = sum_k (u_{2k} v_{2k+1} - u_{2k+1} v_{2k})."""
    q = f.order
    n = 2 * m
    big_q = q**n
    counter = [0]
    _charge(counter, big_q * big_q, f"Sp_{n}(F_{q})")
    vectors = list(itertools.product(range(q), repeat=n))
    mul, add, neg = f.mul, f.add, f.neg
    # J-twisted partner: <u, v> = (Ju) . v as a plain dot product
    twisted = []
    for u in vectors:
        w = []
        for k in range(m):
            w.append(neg[u[2 * k + 1]])
            w.append(u[2 * k])
        twisted.append(tuple(w))
    zero_masks = [0] * big_q
    one_masks = [0] * big_q
    for i, w in enumerate(twisted):
        zm = 0
        om = 0
        bit = 1
        for v in vectors:
            s = 0
            for x, y in zip(w, v):
                s = add[s][mul[x][y]]
            if s == 0:
                zm |= bit
            elif s == 1:
                om |= bit
            bit <<= 1
        zero_masks[i] = zm
        one_masks[i] = om
    return vectors, zero_masks, one_masks


def _iter_bits(mask: int):
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def count_symplectic_matrices(m: int, q: int) -> int:
    """|Sp_2m(F_q)| by exhaustive depth-first enumeration of ordered
    symplectic bases (each basis is the column list of exactly one
    group element, so leaves of the search tree biject with matrices).
    Nothing is stored; the candidate budget counts the leaves."""
    f = field_of_order(q)
    _, zero_masks, one_masks = _symplectic_masks(f, m)
    big_q = q ** (2 * m)
    counter = [0]

    def count(avail: int, depth: int) -> int:
        if depth == 1:
            total = 0
            for i in _iter_bits(avail):
                total += (one_masks[i] & avail).bit_count()
            _charge(counter, total, f"Sp_{2*m}(F_{q})")
            return total
        total = 0
        for i in _iter_bits(avail):
            rest = zero_masks[i]
            for j in _iter_bits(one_masks[i] & avail):
                total += count(avail & rest & zero_masks[j], depth - 1)
        return total

    return count((1 << big_q) - 1, m)


def enumerate_sp(m: int, q: int) -> FqMatrixGroup:
    """Sp_2m(F_q) with at most MATERIALIZE_LIMIT elements materialized;
    use count_symplectic_matrices for orders too large to store."""
    f = field_of_order(q)
    vectors, zero_masks, one_masks = _symplectic_masks(f, m)
    big_q = q ** (2 * m)
    counter = [0]
    store_cap = min(DEFAULT_CAP, MATERIALIZE_LIMIT)
    elems: list[tuple] = []

    def extend(avail: int, chosen: list):
        if len(chosen) == 2 * m:
            _charge(counter, 1, f"Sp_{2*m}(F_{q})", store_cap)
            elems.append(tuple(zip(*chosen)))
            return
        for i in _iter_bits(avail):
            for j in _iter_bits(one_masks[i] & avail):
                extend(
                    avail & zero_masks[i] & zero_masks[j],
                    chosen + [vectors[i], vectors[j]],
                )

    extend((1 << big_q) - 1, [])
    return FqMatrixGroup(
        f"Sp_{2*m}(F_{q})", elems, lambda a, b: mat_mul(f, a, b), mat_identity(2 * m)
    )


# --- similitude symplectic group over Z/NZ ----------------------------------


def _zmod_mat_mul(n: int, a: tuple, b: tuple) -> tuple:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % n for col in bt) for row in a
    )


def enumerate_gsp_modn(m: int, level: int) -> FqMatrixGroup:
    """Symplectic similitude matrices over Z/NZ: g^t J g = c J for a
    unit c, with J the block-diagonal alternating form."""
    n = 2 * m
    _charge([0], level ** (n * n), f"GSp_{n}(Z/{level})")
    jmat = [[0] * n for _ in range(n)]
    for k in range(m):
        jmat[2 * k][2 * k + 1] = 1
        jmat[2 * k + 1][2 * k] = level - 1
    jmat = tuple(tuple(r) for r in jmat)
    elems = []
    for entries in itertools.product(range(level), repeat=n * n):
        g = tuple(entries[i * n:(i + 1) * n] for i in range(n))
        gt = tuple(zip(*g))
        w = _zmod_mat_mul(level, _zmod_mat_mul(level, gt, jmat), g)
        c = w[0][1]
        if gcd(c, level) != 1:
            continue
        if w == tuple(tuple(c * x % level for x in row) for row in jmat):
            elems.append(g)
    return FqMatrixGroup(
        f"GSp_{n}(Z/{level})",
        elems,
        lambda a, b: _zmod_mat_mul(level, a, b),
        mat_identity(n),
    )


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
    inside = set(setting.delta_prime_at_p)
    counter = [0]

    pools: list[dict[int, list[tuple]]] = []
    for v in setting.places_over_p:
        if v in inside:
            pools.append(
                _hermitian_matrices(f, m, units, f"similitude factor over {v!r}")
            )
        else:
            _charge(counter, f.order ** (m * m), f"linear factor over {v!r}")
            full = _invertible_matrices(f, m)
            pools.append({r: full for r in units})

    elems = []
    for r in units:
        per_place = [pool[r] for pool in pools]
        size = 1
        for block in per_place:
            size *= len(block)
        _charge(counter, size, "similitude product assembly")
        for combo in itertools.product(*per_place):
            elems.append((combo, r))

    def mul(a, b):
        mats_a, r_a = a
        mats_b, r_b = b
        return (
            tuple(mat_mul(f, x, y) for x, y in zip(mats_a, mats_b)),
            r_a * r_b % p,
        )

    identity = (tuple(mat_identity(m) for _ in setting.places_over_p), 1)
    descriptor = (
        f"residual group (disc {setting.field.discriminant}, m={m}, p={p})"
    )
    return FqMatrixGroup(descriptor, elems, mul, identity)


# ---------------------------------------------------------------------------
# dispatch and class-level queries
# ---------------------------------------------------------------------------

_DESCRIPTORS = {
    "GL": enumerate_gl,
    "U": enumerate_unitary,
    "Sp": enumerate_sp,
    "GSp_modN": enumerate_gsp_modn,
    "similitude_product": enumerate_similitude_product,
}


def enumerate_group(descriptor: str, **params):
    """Enumerate a group by descriptor: GL, U, Sp (with m and q),
    GSp_modN (with m and level), or similitude_product (with setting)."""
    if descriptor not in _DESCRIPTORS:
        raise ValueError(f"unknown descriptor {descriptor!r}")
    return _DESCRIPTORS[descriptor](**params)


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
    fit the enumeration budget."""
    try:
        group = enumerate_similitude_product(setting)
    except StateSpaceError as exc:
        return {"verified": False, "skipped": str(exc)}
    if group.order > MAX_VERIFIED_ORDER:
        return {
            "verified": False,
            "skipped": f"residual group order {group.order} exceeds "
            f"{MAX_VERIFIED_ORDER}",
        }
    ok = (
        p_regular_class_count(group, setting.p) == irr_count(setting)
        and sylow_p_order(group, setting.p) == dim_bound(setting)
    )
    return {"verified": ok}
