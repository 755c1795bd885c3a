"""Finite abelian groups in invariant-factor form.

A group is presented as a direct sum ``C_{n_1} + ... + C_{n_r}`` with
``2 <= n_1 | n_2 | ... | n_r``.  Elements are plain tuples of residues,
coordinate ``i`` reduced mod ``n_i``; the trivial group has rank 0 and the
single element ``()``.  Elements carry no reference to their group, so every
operation takes the group explicitly.

Arbitrary products of cyclic groups are normalized to the canonical chain
via an integer Smith normal form:

>>> make_group([2, 3])
Group(invariants=(6,))
>>> make_group([2, 4])
Group(invariants=(2, 4))
>>> make_group([1, 1]).order
1
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod


GroupElement = tuple[int, ...]

# Largest group order accepted.  Element tables and packed count vectors
# grow with |G| (the translation table of C2 x C(n/2) with 64-bit limbs
# holds about 8 n^2 bytes), so a larger group is refused when it is
# constructed, before any table is built, instead of exhausting memory.
MAX_ORDER = 1024
# Largest group order whose subgroup lattice is enumerated.
SUBGROUP_CAP = 64


@dataclass(frozen=True)
class Group:
    """Canonical presentation: the tuple of invariant factors."""

    invariants: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "invariants", tuple(int(n) for n in self.invariants))
        prev = None
        for n in self.invariants:
            if n < 2:
                raise ValueError(
                    f"invariant factor {n} < 2; use make_group to normalize arbitrary specs"
                )
            if prev is not None and n % prev:
                raise ValueError(
                    f"invariant factors must form a divisibility chain, got {self.invariants}"
                )
            prev = n
        _check_order(self.order)
        # Groups key every lru_cache of the library: hash them once.
        object.__setattr__(self, "_hash", hash(self.invariants))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__, so the hash is this interpreter's.
        return Group, (self.invariants,)

    @property
    def order(self) -> int:
        return prod(self.invariants)

    @property
    def rank(self) -> int:
        return len(self.invariants)

    def zero(self) -> GroupElement:
        return (0,) * len(self.invariants)

    def spec(self) -> str:
        """Canonical text form, e.g. ``C2xC4``; the trivial group is ``C1``."""
        if not self.invariants:
            return "C1"
        return "x".join(f"C{n}" for n in self.invariants)

    def __str__(self) -> str:
        return self.spec()


def _check_order(order: int) -> None:
    if order > MAX_ORDER:
        raise ValueError(f"group order {order} exceeds the cap {MAX_ORDER}")


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its element set: equal sets, equal subgroups."""

    elements: frozenset[GroupElement]

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_trivial(self) -> bool:
        return len(self.elements) == 1


def make_group(orders) -> Group:
    """Canonicalize a direct sum of cyclic groups of the given orders.

    Factors of 1 are dropped; an empty list (or all ones) yields the trivial
    group.  Normalization runs the Smith normal form of the diagonal
    relation matrix, so non-chain specs are folded together:

    >>> make_group([6])
    Group(invariants=(6,))
    >>> make_group([4, 6]).invariants
    (2, 12)
    """
    entries = [int(n) for n in orders]
    if any(n < 1 for n in entries):
        raise ValueError(f"cyclic factors must be >= 1, got {entries}")
    entries = [n for n in entries if n > 1]
    if not entries:
        return Group(())
    _check_order(prod(entries))  # before the Smith normal form
    diag = [[entries[i] if i == j else 0 for j in range(len(entries))] for i in range(len(entries))]
    return Group(tuple(d for d in smith_normal_form(diag) if d > 1))


_GROUP_SPEC_RE = re.compile(r"c\d+(?:xc\d+)*", re.ASCII)


def parse_group(text: str) -> Group:
    """Parse a group spec like ``C2xC4`` (case-insensitive, ``C1`` = trivial)."""
    compact = re.sub(r"\s+", "", text).lower()
    if not _GROUP_SPEC_RE.fullmatch(compact):
        raise ValueError(f"bad group spec {text!r}: expected e.g. C6 or C2xC4")
    return make_group(int(part[1:]) for part in compact.split("x"))


def _check_arity(G: Group, a: GroupElement) -> None:
    if len(a) != G.rank:
        raise ValueError(f"element {a!r} has arity {len(a)}, group {G} has rank {G.rank}")


def elem_reduce(G: Group, a) -> GroupElement:
    """Reduce each coordinate into its modulus (arity must match the rank).

    An input equal to a reduced element, the common case, is answered by
    one lookup in ``reduced_elements(G)``; anything else, unhashable
    input included, goes through the arithmetic and its errors."""
    try:
        reduced = reduced_elements(G).get(a)
    except TypeError:
        reduced = None
    if reduced is not None:
        return reduced
    a = tuple(int(x) for x in a)
    _check_arity(G, a)
    return tuple(x % n for x, n in zip(a, G.invariants))


def elem_add(G: Group, a: GroupElement, b: GroupElement) -> GroupElement:
    _check_arity(G, a)
    _check_arity(G, b)
    return tuple((x + y) % n for x, y, n in zip(a, b, G.invariants))


def elem_neg(G: Group, a: GroupElement) -> GroupElement:
    _check_arity(G, a)
    return tuple((-x) % n for x, n in zip(a, G.invariants))


def elem_sub(G: Group, a: GroupElement, b: GroupElement) -> GroupElement:
    _check_arity(G, a)
    _check_arity(G, b)
    return tuple((x - y) % n for x, y, n in zip(a, b, G.invariants))


def elem_scale(G: Group, k: int, a: GroupElement) -> GroupElement:
    _check_arity(G, a)
    return tuple((k * x) % n for x, n in zip(a, G.invariants))


def elem_order(G: Group, a: GroupElement) -> int:
    """Least k >= 1 with k*a = 0."""
    _check_arity(G, a)
    return lcm(*(n // gcd(x, n) for x, n in zip(a, G.invariants))) if a else 1


@lru_cache(maxsize=None)
def all_elements(G: Group) -> tuple[GroupElement, ...]:
    """All |G| elements in lexicographic coordinate order, zero first."""
    return tuple(product(*(range(n) for n in G.invariants)))


@lru_cache(maxsize=None)
def reduced_elements(G: Group) -> dict[GroupElement, GroupElement]:
    """Each reduced element of G mapped to itself: a tuple equal to a key,
    such as ``(True, 0)`` or ``(1.0, 0)``, looks up the canonical int
    tuple.  Shared cache; do not mutate."""
    return {e: e for e in all_elements(G)}


@lru_cache(maxsize=None)
def element_index(G: Group):
    """Element -> position in all_elements(G).  Shared cache; do not mutate."""
    return {e: i for i, e in enumerate(all_elements(G))}


def _elementary_automorphisms(G: Group) -> list[tuple[int, ...]]:
    """Elementary automorphisms of G as permutations of element indices.

    Unit scalings e_i -> u*e_i; shears e_i -> e_i + c*e_j with
    c = n_j/n_i for j > i and c = 1 for j < i (so c*e_j has order dividing
    n_i); swaps of equal invariant factors.  They generate Aut(G): the
    tests check the order of their Schreier–Sims chain against |Aut(G)| in
    closed form on every group of order at most 64.
    """
    inv = G.invariants
    idx = element_index(G)
    maps = []
    for i, n in enumerate(inv):
        for u in range(2, n):
            if gcd(u, n) == 1:
                maps.append(lambda x, i=i, u=u, n=n: x[:i] + (u * x[i] % n,) + x[i + 1:])
    for i, ni in enumerate(inv):
        for j, nj in enumerate(inv):
            if i != j:
                c = nj // ni if j > i else 1
                maps.append(lambda x, i=i, j=j, c=c, nj=nj:
                            x[:j] + ((x[j] + c * x[i]) % nj,) + x[j + 1:])
            if i < j and ni == nj:
                maps.append(lambda x, i=i, j=j:
                            x[:i] + (x[j],) + x[i + 1:j] + (x[i],) + x[j + 1:])
    return [tuple(idx[f(x)] for x in all_elements(G)) for f in maps]


Perm = tuple[int, ...]


def _compose(p: Perm, q: Perm) -> Perm:
    """p, then q."""
    return tuple(map(q.__getitem__, p))


def _inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


class _Chain:
    """A base and strong generating set, grown by deterministic Schreier–Sims
    (C. C. Sims, 1970; Á. Seress, *Permutation Group Algorithms*, 2003).

    Level l has the base point ``base[l]``, the strong generators
    ``gens[l]`` that fix ``base[:l]``, and a transversal of the orbit of
    ``base[l]`` under them: ``trans[l][x]`` maps ``base[l]`` to x, and
    ``inv[l][x]`` is its inverse.  Transversal entries are never replaced,
    so a Schreier generator once sifted stays sifted; ``pending[l]`` holds
    the (point, generator number) pairs whose Schreier generator is not yet
    sifted.  The group order is the product of the orbit lengths.
    """

    def __init__(self, n: int, base=()) -> None:
        self.identity = tuple(range(n))
        self.base: list[int] = []
        self.gens: list[list[Perm]] = []
        self.trans: list[dict[int, Perm]] = []
        self.inv: list[dict[int, Perm]] = []
        self.pending: list[deque[tuple[int, int]]] = []
        for b in base:
            self._new_level(b)

    @property
    def order(self) -> int:
        return prod(len(t) for t in self.trans)

    def sift(self, g: Perm, level: int = 0) -> tuple[Perm, int]:
        """Strip g through the levels from ``level`` on: the residue and the
        level where it left the chain (``len(base)`` if it sifted through)."""
        for l in range(level, len(self.base)):
            x = g[self.base[l]]
            if x not in self.inv[l]:
                return g, l
            if x != self.base[l]:
                g = _compose(g, self.inv[l][x])
        return g, len(self.base)

    def add(self, g: Perm, order: int | None = None) -> None:
        """Close the chain under g.  With the group's ``order`` known, stop as
        soon as the chain reaches it: the orbit product of a partial chain
        never exceeds the order of the group it generates, and equals it
        only when every level's generators reach that level's stabilizer."""
        g, j = self.sift(g)
        if g == self.identity:
            return
        self._insert(g, 0, j)
        i = j
        while i >= 0 and self.order != order:
            failed = self._unsifted_schreier_generator(i)
            if failed is None:
                i -= 1
            else:
                h, j = failed
                self._insert(h, i + 1, j)
                i = j

    def _new_level(self, b: int) -> None:
        self.base.append(b)
        self.gens.append([])
        self.trans.append({b: self.identity})
        self.inv.append({b: self.identity})
        self.pending.append(deque())

    def _insert(self, h: Perm, low: int, high: int) -> None:
        """Add h, which fixes ``base[:high]``, to levels ``low..high``."""
        if high == len(self.base):
            self._new_level(next(x for x, y in enumerate(h) if x != y))
        for l in range(low, high + 1):
            trans, inv, gens, pending = self.trans[l], self.inv[l], self.gens[l], self.pending[l]
            gens.append(h)
            pending.extend((x, len(gens) - 1) for x in trans)
            orbit = list(trans)
            for x in orbit:  # grows while iterating: a breadth-first orbit walk
                for s in gens:
                    y = s[x]
                    if y not in trans:
                        trans[y] = _compose(trans[x], s)
                        inv[y] = _inverse(trans[y])
                        orbit.append(y)
                        pending.extend((y, k) for k in range(len(gens)))

    def _unsifted_schreier_generator(self, i: int):
        """The residue and level of the next pending Schreier generator
        u_x s u_(xs)^-1 of level i that does not sift through the levels
        below, or None when all of them do."""
        trans, inv, gens, pending = self.trans[i], self.inv[i], self.gens[i], self.pending[i]
        while pending:
            x, k = pending.popleft()
            s = gens[k]
            h = tuple(map(inv[s[x]].__getitem__, map(s.__getitem__, trans[x])))
            h, j = self.sift(h, i + 1)
            if h != self.identity:
                return h, j
        return None


@dataclass(frozen=True)
class _Stabilizer:
    """A subgroup of Aut(G): strong generators, order, and for each element
    index the least index in its orbit."""

    gens: tuple[Perm, ...]
    order: int
    orbit_min: tuple[int, ...]


def _chain_stabilizer(chain: _Chain, level: int) -> _Stabilizer:
    """The subgroup that fixes the first ``level`` base points of a
    complete chain."""
    gens = tuple(chain.gens[level]) if level < len(chain.base) else ()
    n = len(chain.identity)
    low = list(range(n))
    for a in range(n):
        if low[a] == a:  # a is the least point of its orbit
            orbit = [a]
            for x in orbit:
                for s in gens:
                    y = s[x]
                    if low[y] == y and y != a:
                        low[y] = a
                        orbit.append(y)
    return _Stabilizer(gens, prod(len(t) for t in chain.trans[level:]), tuple(low))


@lru_cache(maxsize=None)
def _automorphism_group(G: Group) -> _Stabilizer:
    """Aut(G), the stabilizer of nothing: Schreier–Sims over the elementary
    automorphisms, whose order the tests compare with the closed form for
    |Aut(G)|.  Aut(G) is never listed."""
    chain = _Chain(G.order)
    for perm in _elementary_automorphisms(G):
        chain.add(perm)
    return _chain_stabilizer(chain, 0)


def _fix_point(stab: _Stabilizer, point: int) -> _Stabilizer:
    """The elements of ``stab`` that fix ``point``: level 1 of a chain based
    at ``point``, closed by Schreier–Sims over ``stab.gens`` and stopped at
    ``stab.order``.  Folding it over the points of a set gives the set's
    pointwise stabilizer, each step starting from the last."""
    chain = _Chain(len(stab.orbit_min), base=[point])
    for s in stab.gens:
        chain.add(s, stab.order)
    return _chain_stabilizer(chain, 1)


def subgroup_closure(G: Group, gens) -> Subgroup:
    """Smallest subgroup containing the generators (closure under addition).

    In a finite group the additive closure of a set containing 0 already
    contains negatives, since -a = (order(a)-1)*a.
    """
    gens = tuple(elem_reduce(G, g) for g in gens)
    elems = {G.zero()}
    frontier = [G.zero()]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = elem_add(G, x, g)
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return Subgroup(frozenset(elems))


def order_two_subgroups(G: Group) -> list[Subgroup]:
    """One subgroup {0, h} per element h of order 2, in element order."""
    return [
        subgroup_closure(G, [h])
        for h in all_elements(G)
        if elem_order(G, h) == 2
    ]


def all_subgroups(G: Group) -> list[Subgroup]:
    """Every subgroup exactly once, sorted by (order, elements): the
    closure of the trivial subgroup under the sumset joins H + C with
    cyclic subgroups C.  Refuses groups of order above ``SUBGROUP_CAP``;
    the lattice is only needed at desk scale.
    """
    if G.order > SUBGROUP_CAP:
        raise ValueError(f"all_subgroups: |G| = {G.order} exceeds cap {SUBGROUP_CAP}")
    return list(_all_subgroups_cached(G))


@lru_cache(maxsize=None)
def _all_subgroups_cached(G: Group) -> tuple[Subgroup, ...]:
    # Subgroups as index sets into all_elements(G); index order is lex order.
    elems = all_elements(G)
    idx = element_index(G)
    add = [[idx[elem_add(G, a, b)] for b in elems] for a in elems]
    cyclic = {frozenset(idx[x] for x in subgroup_closure(G, [g]).elements)
              for g in elems}
    seen = {frozenset({0})}
    queue = list(seen)
    while queue:
        H = queue.pop()
        for C in cyclic:
            if C <= H:
                continue
            J = frozenset(add[h][c] for h in H for c in C)
            if J not in seen:
                seen.add(J)
                queue.append(J)
    lattice = sorted(seen, key=lambda H: (len(H), sorted(H)))
    return tuple(Subgroup(frozenset(elems[i] for i in H)) for H in lattice)


def _validate_subgroup(G: Group, H: Subgroup) -> None:
    elems = H.elements
    if G.zero() not in elems:
        raise ValueError("subgroup does not contain zero")
    for x in elems:
        if elem_reduce(G, x) != x:
            raise ValueError(f"subgroup element {x!r} is not a reduced element of {G}")
    for x in elems:
        for y in elems:
            if elem_add(G, x, y) not in elems:
                raise ValueError("subgroup element set is not closed under addition")


def smith_normal_form(matrix, transforms: bool = False):
    """Smith normal form of an integer matrix.

    Returns the diagonal ``[d_1, ..., d_k]`` (k = min(rows, cols)) with
    ``d_i >= 0`` and ``d_i | d_{i+1}``; zeros come last.  With
    ``transforms=True`` returns ``(diag, U, V)`` where U, V are unimodular
    and ``U @ M @ V`` is the diagonal matrix.
    """
    A = [[int(x) for x in row] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("matrix rows have unequal lengths")
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):  # row_i += q * row_j
        A[i] = [a + q * b for a, b in zip(A[i], A[j])]
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]

    def add_col(i, j, q):  # col_i += q * col_j
        for row in A:
            row[i] += q * row[j]
        for row in V:
            row[i] += q * row[j]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            if A[t][t] < 0:
                negate_row(t)
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    add_row(i, t, -(A[i][t] // A[t][t]))
                    if A[i][t]:  # nonzero remainder: strictly smaller pivot
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    add_col(j, t, -(A[t][j] // A[t][t]))
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(t + 1, m):
                if any(A[i][j] % A[t][t] for j in range(t + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1
    diag = [A[i][i] for i in range(min(m, n))]
    return (diag, U, V) if transforms else diag


@lru_cache(maxsize=None)
def quotient_group(G: Group, H: Subgroup):
    """Quotient G/H in canonical form, with the projection homomorphism.

    The relation matrix M of H in G has the columns diag(n_1..n_r)
    followed by the elements of H; its column lattice L is the preimage of
    H in Z^r, so G/H = Z^r / L.  With the Smith form ``U @ M @ V = diag``,
    U unimodular (L has full rank, so every d_i is positive), G/H is the
    sum of the C_{d_i} with d_i > 1 and a -> (U a)_i mod d_i projects onto
    it.  Memoized per (G, H): sweeps ask for the same few quotients many
    times.  An invalid H raises on every call (exceptions are not cached).
    """
    _validate_subgroup(G, H)
    r = G.rank
    hs = sorted(H.elements)
    M = [[0] * (r + len(hs)) for _ in range(r)]
    for i, n in enumerate(G.invariants):
        M[i][i] = n
    for j, h in enumerate(hs):
        for i in range(r):
            M[i][r + j] = h[i]
    diag, U, _ = smith_normal_form(M, transforms=True)
    quotient = Group(tuple(d for d in diag if d > 1))
    keep = [(i, d) for i, d in enumerate(diag) if d > 1]

    def project(a: GroupElement) -> GroupElement:
        _check_arity(G, a)
        return tuple(sum(U[i][k] * a[k] for k in range(r)) % d for i, d in keep)

    return quotient, project


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def d_star(G: Group) -> int:
    """Sum of (n_i - 1) over the invariant factors."""
    return sum(n - 1 for n in G.invariants)
