"""Davenport constants: exact search, known closed forms, and inequalities.

The Davenport constant of a finite abelian group is the least length that
forces a nonempty zero-sum subsequence; equivalently one more than the
longest zero-sum-free sequence.  The exact search is a DFS over multisets
in non-decreasing element order whose state is the subset-sum set of the
prefix, kept as a bitset over the group and translated with the 1-bit
limb table of ``counting._limb_adders``; it is the only user of that
table.  Appending a is legal exactly when -a is not yet a subset sum, and
every legal append grows the sum set strictly, which yields the pruning
bounds used below.  Everything else that asks whether a sequence is
zero-sum free reads the zero count of ``counting.count_packed``:
``is_zero_sum_free`` on one sequence, ``zero_sum_free_sequences`` on the
zero-count-ceiling sweep.

The search also cuts by symmetry.  ``groups.element_orbits`` maps each
element to the least index in its orbit under automorphisms of G, and a
child a is skipped when that index lies below the first term of the
multiset (at depth 1, below a itself).  This is sound for any set of
automorphisms: the lex-least multiset of an orbit has no term with an
image below its first term, and each of its prefixes is lex-least too, so
it survives.  The first zero-sum-free multiset of each length in lex
order is lex-least in its orbit, so the value and the witness are those
of the search without the cut.

The closed form D = 1 + sum(n_i - 1) is applied only where it is settled:
cyclic groups, rank <= 2, and p-groups.  Everywhere else the constant must
be searched for or the caller fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    Group,
    Subgroup,
    all_elements,
    element_index,
    d_star,
    elem_neg,
    elem_order,
    element_orbits,
    quotient_group,
    subgroup_invariants,
    _prime_factors,
)
from .reports import VerificationReport
from .sequences import Sequence, _seq_from_sorted, sequence
from .counting import _limb_adders, sweep_counts, translate, zero_count

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


def davenport_exact(G: Group, cap: int = DAVENPORT_CAP) -> DavenportResult:
    """Exhaustive search for the longest zero-sum-free sequence.

    DFS over multisets in non-decreasing element order, carrying the
    subset-sum bitset.  Branches are cut when they cannot beat the best
    length found so far: each append grows the sum set by at least one
    element, and element a can repeat at most order(a) - 1 times in total.
    Children are also cut by automorphism orbit (see the module notes).
    The search starts from the known-zero-sum-free prod e_i^(n_i - 1), so
    groups whose constant meets that floor are confirmed, not rediscovered.
    """
    if G.order > cap:
        raise ValueError(f"davenport_exact: |G| = {G.order} exceeds cap {cap}")
    n = G.order
    elems = all_elements(G)
    idx = element_index(G)
    star = _star_witness(G)
    best_len = d_star(G)
    best_occ = star.expanded()
    if n == 1:
        return DavenportResult(G, 1, "exact-search", sequence(G))
    adders = _limb_adders(G, 1)
    neg_idx = [idx[elem_neg(G, e)] for e in elems]
    orders = [elem_order(G, e) for e in elems]
    orbit_min = element_orbits(G)
    stack: list[int] = []

    def dfs(start: int, mask: int, size: int) -> None:
        nonlocal best_len, best_occ
        headroom = n - mask.bit_count()
        if size + headroom <= best_len:
            return
        budget = 0
        for i in range(start, n):
            if not (mask >> neg_idx[i]) & 1:
                budget += orders[i] - 1
        if size + min(headroom, budget) <= best_len:
            return
        for i in range(start, n):
            if (mask >> neg_idx[i]) & 1 or orbit_min[i] < (stack[0] if stack else i):
                continue
            stack.append(i)
            if size + 1 > best_len:
                best_len = size + 1
                best_occ = tuple(elems[j] for j in stack)
            dfs(i, mask | translate(mask, adders[i]), size + 1)
            stack.pop()

    dfs(1, 1, 0)
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


def check_davenport_inequalities(G: Group, H: Subgroup) -> VerificationReport:
    """D(G) >= D(H) + D(G/H) - 1 and D(G) >= d_star(G) + 1."""
    DG = davenport(G).value
    DH = davenport(subgroup_invariants(G, H)).value
    quotient, _ = quotient_group(G, H)
    DQ = davenport(quotient).value
    floor = d_star(G) + 1
    details = {
        "group": G.spec(),
        "quotient": quotient.spec(),
        "D_group": DG,
        "D_subgroup": DH,
        "D_quotient": DQ,
        "d_star_plus_one": floor,
        "chain_ok": DG >= DH + DQ - 1,
        "floor_ok": DG >= floor,
    }
    status = "pass" if details["chain_ok"] and details["floor_ok"] else "fail"
    return VerificationReport("davenport-inequalities", status, details)


def t_bound(G: Group) -> int:
    """D(G) + |G| - 1, the sum-set length ceiling used by the
    bounded-length arguments."""
    return davenport(G).value + G.order - 1


def zero_sum_free_sequences(G: Group, length: int):
    """All zero-sum-free multisets of exactly the given length, in
    lexicographic order of their occurrence tuples: the multisets whose
    zero count stays 1."""
    if length < 0:
        raise ValueError("length must be >= 0")
    for occ, _ in sweep_counts(G, length, min_length=length, zero_ceiling=1):
        yield _seq_from_sorted(G, occ)
