"""Davenport constants: exact search and known closed forms.

The Davenport constant of a finite abelian group is the least length that
forces a nonempty zero-sum subsequence; equivalently one more than the
longest zero-sum-free sequence.  The exact search is a DFS over multisets
in non-decreasing element order whose state is the subset-sum set of the
prefix, kept as a bitset over the group and translated with the 1-bit
limb table of ``counting._limb_adders``, as are the subgroup joins
below.  Appending a is legal exactly when -a is not yet a subset sum, and
every legal append grows the sum set strictly, which yields the search's
one bound, the headroom: a prefix whose sum set misses k elements
extends by at most k terms.  Everything else that asks whether a
sequence is zero-sum free reads the zero count of
``counting.count_packed``: ``is_zero_sum_free`` on one sequence,
``zero_sum_free_sequences`` on the walk pruned at zero count 1
(``symmetry.pruned_walk`` with no group, loaded on first use).

The search also cuts by symmetry, at every depth.  The automorphisms that
fix every term of a prefix P are those that fix the subgroup <P>, and a
child c is skipped when one of them maps c below itself: one lookup in
their ``orbit_min`` table.  At the root that is Aut(G)
(``groups._automorphism_group``, a Schreier–Sims chain, never listed),
whose table also skips a child below the first term.  The search carries
<P> as a bitmask over element indices.  When c is not in it, <P> + <c> is
the union of the cosets <P> + kc, each the last one translated by c with
the width-1 table, until the coset is <P> again; its stabilizer is
Stab(<P>) ∩ Stab(c), one ``groups._fix_point`` step from that of <P>.
Joins are kept per (<P>, c) and stabilizers per joined bitmask, by
``_span_joins``, which the catalog walk cut by symmetry calls too.
``symmetry.pruned_walk`` tests a child the same way, on the same tables.

Both cuts are sound for any set of automorphisms: they never cut a
prefix of a multiset L that is lex-least in its orbit.  If sigma fixes
<P> and sigma(c) < c for the term c after the prefix P of L, then sorted
sigma(L) is lex-smaller than L: it holds P and sigma(c), so its first
|P| + 1 terms are termwise at most those of P and c sorted, which are the
first |P| + 1 terms of L, and they sum to less.  If sigma(c) lies below
the first term of L, so does the least term of sigma(L).  The first
zero-sum-free multiset of each length in lex order is lex-least in its
orbit, so the value and the witness are those of the search without the
cuts.

The closed form D = 1 + sum(n_i - 1) is applied only where it is settled:
cyclic groups, rank <= 2, and p-groups.  Everywhere else the constant must
be searched for or the caller fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    Group,
    _Stabilizer,
    all_elements,
    element_index,
    d_star,
    elem_neg,
    _automorphism_group,
    _fix_point,
    _prime_factors,
)
from .sequences import Sequence, _seq_from_sorted, sequence
from .counting import _limb_adders, translate, zero_count

DAVENPORT_CAP = 36


@dataclass(frozen=True)
class DavenportResult:
    group: Group
    value: int
    method: str  # "exact-search" | "formula" | "both"
    witness: Sequence  # zero-sum-free, length value - 1


def is_zero_sum_free(S: Sequence) -> bool:
    """True iff no nonempty subsequence sums to zero: the empty subset is
    the only one counted at zero."""
    return zero_count(S) == 1


def _product_of_generators(G: Group, exponents) -> Sequence:
    counts = {}
    for i, e in enumerate(exponents):
        if e:
            gen = tuple(1 if j == i else 0 for j in range(G.rank))
            counts[gen] = e
    return sequence(G, counts)


def _star_witness(G: Group) -> Sequence:
    """prod e_i^(n_i - 1): zero-sum free in every group, length d_star."""
    return _product_of_generators(G, (n - 1 for n in G.invariants))


def _span_joins(G: Group, automorphisms: _Stabilizer):
    """The subgroups <P> spanned by the prefixes P of a walk over G, as
    bitmasks over element indices (bit 0 alone is the trivial subgroup),
    with the automorphisms that fix each of them pointwise: the function
    ``join`` and the dict ``stabilizers``, keyed by bitmask and starting
    from ``automorphisms`` at the trivial subgroup.

    ``join(span, c)`` is <P> + <c>, for an element index c not in <P>:
    the union of the cosets <P> + kc, each the last one translated by c
    with the width-1 table, until the coset is <P> again.  Its stabilizer
    is that of <P> fixing c, one ``_fix_point`` step.  Joins are kept per
    (<P>, c)."""
    adders = _limb_adders(G, 1)
    stabilizers = {1: automorphisms}
    joins: dict[tuple[int, int], int] = {}

    def join(span: int, c: int) -> int:
        if (span, c) not in joins:
            joined, coset = span, translate(span, adders[c])
            while coset != span:
                joined |= coset
                coset = translate(coset, adders[c])
            if joined not in stabilizers:
                stabilizers[joined] = _fix_point(stabilizers[span], c)
            joins[span, c] = joined
        return joins[span, c]

    return join, stabilizers


def davenport_exact(G: Group, cap: int = DAVENPORT_CAP) -> DavenportResult:
    """Exhaustive search for the longest zero-sum-free sequence.

    DFS over multisets in non-decreasing element order, carrying the
    subset-sum bitset.  Branches are cut when they cannot beat the best
    length found so far: each append grows the sum set by at least one
    element, so a prefix extends by at most the headroom, the number of
    elements that are not yet its subset sums.
    Children are also cut by symmetry: c is skipped when an automorphism
    that fixes every element of the subgroup <P> generated by the prefix
    maps it below itself, or when an automorphism maps it below the first
    term.  The only stabilizer step is fixing one point: that of
    <P> + <c>, joined coset by coset on the bitmask of <P>, is the
    stabilizer of c inside that of <P>.  Neither cut removes a prefix of
    the lex-least multiset of an orbit, so the value and the witness are
    those of the uncut search (see the module notes).
    The search starts from the known-zero-sum-free prod e_i^(n_i - 1), so
    groups whose constant meets that floor are confirmed, not rediscovered;
    where d* = |G| - 1 (the cyclic groups) the bound at the root returns it
    before any table is built.
    """
    if G.order > cap:
        raise ValueError(f"davenport_exact: |G| = {G.order} exceeds cap {cap}")
    n = G.order
    star = _star_witness(G)
    best_len = d_star(G)
    if n - 1 <= best_len:  # the headroom bound at the root, whose sum set is {0}
        return DavenportResult(G, best_len + 1, "exact-search", star)
    elems = all_elements(G)
    idx = element_index(G)
    best_occ = star.expanded()
    adders = _limb_adders(G, 1)
    neg_idx = [idx[elem_neg(G, e)] for e in elems]
    automorphisms = _automorphism_group(G)
    aut_low = automorphisms.orbit_min
    join, stabilizers = _span_joins(G, automorphisms)  # keyed by the bitmask of <P>
    stack: list[int] = []

    def dfs(start: int, mask: int, size: int, first: int, span: int) -> None:
        nonlocal best_len, best_occ
        if size + n - mask.bit_count() <= best_len:  # the headroom bound
            return
        low = stabilizers[span].orbit_min
        for c in range(start, n):
            if (mask >> neg_idx[c]) & 1 or low[c] < c or aut_low[c] < first:
                continue
            stack.append(c)
            if size + 1 > best_len:
                best_len = size + 1
                best_occ = tuple(elems[j] for j in stack)
            child = span if span >> c & 1 else join(span, c)
            dfs(c, mask | translate(mask, adders[c]), size + 1, first or c, child)
            stack.pop()

    dfs(1, 1, 0, 0, 1)
    witness = _seq_from_sorted(G, best_occ)
    return DavenportResult(G, best_len + 1, "exact-search", witness)


def davenport_formula(G: Group) -> int | None:
    """1 + d_star for the settled classes (cyclic, rank <= 2, p-groups);
    None anywhere else, never a guess."""
    if G.rank <= 2 or len(_prime_factors(G.order)) == 1:
        return d_star(G) + 1
    return None


_FOUND: dict[tuple[Group, str], DavenportResult] = {}


def davenport(G: Group, method: str = "auto", cap: int = DAVENPORT_CAP) -> DavenportResult:
    """Davenport constant by the requested method.

    "auto" prefers the closed form and falls back to exact search;
    "both" runs both and insists they agree.  Results are memoized per
    (G, method); ``cap`` refuses only an exact search that has to run, so a
    value once found is returned whatever the cap.
    """
    if (G, method) not in _FOUND:
        _FOUND[G, method] = _davenport(G, method, cap)
    return _FOUND[G, method]


davenport.cache_clear = _FOUND.clear


def _davenport(G: Group, method: str, cap: int) -> DavenportResult:
    if method not in ("auto", "exact", "formula", "both"):
        raise ValueError(f"unknown method {method!r}")
    formula = davenport_formula(G)
    if method == "formula" or (method == "auto" and formula is not None):
        if formula is None:
            raise ValueError(f"no settled closed form for {G}")
        return DavenportResult(G, formula, "formula", _star_witness(G))
    if method in ("exact", "auto"):
        return davenport_exact(G, cap=cap)
    if formula is None:
        raise ValueError(f"no settled closed form for {G}; use method='exact'")
    exact = davenport_exact(G, cap=cap)
    if formula != exact.value:
        raise ArithmeticError(
            f"search found {exact.value} but the closed form gives {formula} for {G}"
        )
    return DavenportResult(G, exact.value, "both", exact.witness)


def t_bound(G: Group) -> int:
    """D(G) + |G| - 1, the sum-set length ceiling used by the
    bounded-length arguments."""
    return davenport(G).value + G.order - 1


def zero_sum_free_sequences(G: Group, length: int):
    """All zero-sum-free multisets of exactly the given length, in
    lexicographic order of their occurrence tuples: the multisets whose
    zero count stays 1, the pruned walk with the one band [1, 2) on the
    zero count at that length."""
    if length < 0:
        raise ValueError("length must be >= 0")
    from .symmetry import pruned_walk  # see the symmetry module notes

    for occ, _ in pruned_walk(G, length, [None] * length + [(1, 2)], None):
        yield _seq_from_sorted(G, occ)
