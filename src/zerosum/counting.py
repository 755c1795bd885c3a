"""Exact subsequence-sum counting.

For a sequence S of length m, each of the 2^m index subsets has a sum in
G; ``count_all`` computes the whole histogram (one exact big integer per
group element) by applying the append recurrence

    new[g] = old[g] + old[g - a]

once per term occurrence a, for a total cost of O(m * |G|) additions.
``count_brute_vector`` recomputes the same histogram by literally walking
all 2^m subsets in Gray-code order (one toggle per step) and is kept as an
independent oracle; the two must agree everywhere.

Everything here is exact integer arithmetic: the statements being checked
are equalities against powers of two, so a single rounding error would be
fatal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .groups import (
    Group,
    GroupElement,
    all_elements,
    element_index,
    elem_add,
    elem_reduce,
    elem_sub,
    quotient_group,
    _validate_subgroup,
    Subgroup,
)
from .reports import VerificationReport
from .sequences import (
    Sequence,
    divides,
    format_sequence,
    seq_div,
    seq_mul,
    seq_neg,
    sequence,
)

BRUTE_CAP = 25


@dataclass(frozen=True)
class CountVector:
    """Subsequence-sum counts for every group element, aligned with
    ``all_elements(group)``."""

    group: Group
    counts: tuple[int, ...]
    source_length: int

    def __getitem__(self, g: GroupElement) -> int:
        return self.counts[element_index(self.group)[elem_reduce(self.group, g)]]

    @property
    def zero_count(self) -> int:
        return self.counts[0]

    def total(self) -> int:
        return sum(self.counts)

    def as_dict(self) -> dict[GroupElement, int]:
        return dict(zip(all_elements(self.group), self.counts))


@lru_cache(maxsize=4096)
def _subtraction_perm(G: Group, a: GroupElement) -> tuple[int, ...]:
    """Index permutation i -> index(elements[i] - a)."""
    idx = element_index(G)
    return tuple(idx[elem_sub(G, e, a)] for e in all_elements(G))


def count_all(S: Sequence) -> CountVector:
    """Exact subsequence-sum counts for every group element at once."""
    G = S.group
    n = G.order
    counts = [0] * n
    counts[0] = 1
    for g, mult in S.terms:
        perm = _subtraction_perm(G, g)
        for _ in range(mult):
            counts = [c + counts[p] for c, p in zip(counts, perm)]
    assert sum(counts) == 1 << len(S)
    return CountVector(G, tuple(counts), len(S))


def count_brute_vector(S: Sequence, cap: int = BRUTE_CAP) -> CountVector:
    """The same histogram by enumerating all 2^|S| index subsets.

    Walks subsets in Gray-code order so each step toggles a single
    occurrence; stays independent of the recurrence used by count_all.
    """
    G = S.group
    occurrences = S.expanded()
    m = len(occurrences)
    if m > cap:
        raise ValueError(f"brute-force enumeration capped at length {cap}, got {m}")
    idx = element_index(G)
    add = [[idx[elem_add(G, x, y)] for y in all_elements(G)] for x in all_elements(G)]
    sub = [[idx[elem_sub(G, x, y)] for y in all_elements(G)] for x in all_elements(G)]
    occ_idx = [idx[g] for g in occurrences]
    counts = [0] * G.order
    counts[0] = 1  # empty subset
    included = [False] * m
    cur = 0
    for k in range(1, 1 << m):
        j = (k & -k).bit_length() - 1
        if included[j]:
            cur = sub[cur][occ_idx[j]]
            included[j] = False
        else:
            cur = add[cur][occ_idx[j]]
            included[j] = True
        counts[cur] += 1
    return CountVector(G, tuple(counts), m)


def count_brute(S: Sequence, g: GroupElement, cap: int = BRUTE_CAP) -> int:
    """Number of index subsets of S summing to g, by enumeration."""
    return count_brute_vector(S, cap=cap)[g]


def subsums(S: Sequence) -> frozenset[GroupElement]:
    """The set of all subset sums of S, zero (the empty subset) included."""
    G = S.group
    reach = {G.zero()}
    for g, mult in S.terms:
        for _ in range(mult):
            if len(reach) == G.order:
                return frozenset(reach)
            reach |= {elem_add(G, x, g) for x in reach}
    return frozenset(reach)


def _meets_bound(count: int, exponent: int) -> bool:
    # count >= 2^exponent, valid for negative exponents too
    return count >= (1 << exponent) if exponent >= 0 else count >= 1


def check_lower_bound(S: Sequence, D: int) -> VerificationReport:
    """Every attainable sum g must have at least 2^(|S|-D+1) subsequences.

    D is the Davenport constant of S's group, passed in so sweeps can
    reuse one computation.  A failure would falsify this implementation,
    not the statement.
    """
    cv = count_all(S)
    exponent = len(S) - D + 1
    violations = [
        g for g, c in zip(all_elements(S.group), cv.counts)
        if c > 0 and not _meets_bound(c, exponent)
    ]
    details = {
        "sequence": format_sequence(S),
        "exponent": exponent,
        "violations": [format_sequence(sequence(S.group, {g: 1})) for g in violations],
    }
    if violations:
        return VerificationReport("lower-bound", "fail", details, (S,))
    return VerificationReport("lower-bound", "pass", details)


def transform(S: Sequence, T: Sequence) -> Sequence:
    """The length-preserving rewrite W = T * (-(S * T^{-1})).

    W satisfies count_all(S)[sum(T)] == count_all(W)[0]; the subsequences
    of S summing to sum(T) correspond bijectively to the zero-sum
    subsequences of W.
    """
    if not divides(T, S):
        raise ValueError("transform requires T | S")
    return seq_mul(T, seq_neg(seq_div(S, T)))


@dataclass(frozen=True)
class ExtremalSet:
    """Elements whose count meets the lower bound exactly."""

    group: Group
    members: frozenset[GroupElement]
    bound_exponent: int


def extremal_set(S: Sequence, D: int) -> ExtremalSet:
    """Elements g with count exactly 2^(|S|-D+1); needs |S| >= D-1."""
    exponent = len(S) - D + 1
    if exponent < 0:
        raise ValueError(
            f"extremal set undefined for |S| = {len(S)} < D - 1 = {D - 1}"
        )
    cv = count_all(S)
    bound = 1 << exponent
    members = frozenset(
        g for g, c in zip(all_elements(S.group), cv.counts) if c == bound
    )
    return ExtremalSet(S.group, members, exponent)


def _extremal_members(G: Group, counts, exponent: int) -> frozenset[GroupElement]:
    bound = 1 << exponent
    return frozenset(g for g, c in zip(all_elements(G), counts) if c == bound)


def check_one_and_all(S: Sequence, D: int) -> VerificationReport:
    """If any element attains the bound exactly, every element must meet it."""
    cv = count_all(S)
    exponent = len(S) - D + 1
    attained = exponent >= 0 and any(c == (1 << exponent) for c in cv.counts)
    details = {
        "sequence": format_sequence(S),
        "exponent": exponent,
        "attained": attained,
    }
    if not attained:
        details["note"] = "no element attains the bound; vacuous"
        return VerificationReport("one-and-all", "pass", details)
    if all(_meets_bound(c, exponent) for c in cv.counts):
        return VerificationReport("one-and-all", "pass", details)
    return VerificationReport("one-and-all", "fail", details, (S,))


def pushforward_counts(S: Sequence, H: Subgroup) -> VerificationReport:
    """Summing counts over a subgroup equals the zero count of the projected
    sequence over the quotient."""
    G = S.group
    _validate_subgroup(G, H)
    quotient, project = quotient_group(G, H)
    cv = count_all(S)
    lhs = sum(cv[h] for h in H.elements)
    counts: dict[GroupElement, int] = {}
    for g, m in S.terms:
        q = project(g)
        counts[q] = counts.get(q, 0) + m
    projected = sequence(quotient, counts)
    rhs = count_all(projected)[quotient.zero()]
    details = {
        "sequence": format_sequence(S),
        "subgroup_order": H.order,
        "quotient": quotient.spec(),
        "projected": format_sequence(projected),
        "sum_over_subgroup": lhs,
        "zero_count_of_projection": rhs,
    }
    status = "pass" if lhs == rhs else "fail"
    witnesses = () if lhs == rhs else (S,)
    return VerificationReport("pushforward-counts", status, details, witnesses)


def sweep_counts(G: Group, max_length: int, *, min_length: int = 0,
                 exclude_zero: bool = True, zero_ceiling: int | None = None):
    """Yield (occurrence tuple, counts list) for every multiset up to
    ``max_length``, sharing the counting DP along the enumeration tree.

    Equivalent to running count_all on each sequence from
    iterate_multisets (for every length), but costs O(|G|) per multiset
    instead of O(|S| * |G|).  Multisets appear in lexicographic order of
    their occurrence tuples (a pre-order walk of the tree); lengths are
    interleaved.  Every yielded counts list is fresh.

    With ``zero_ceiling``, a multiset whose zero count exceeds it is
    neither yielded nor extended.  Appending a can only raise the zero
    count (N_0(S a) = N_0(S) + N_{-a}(S)), so every multiset skipped this
    way also exceeds the ceiling: the pruned stream is the unpruned one
    restricted to multisets whose zero count is at most the ceiling.
    """
    # The empty multiset has zero count 1.
    if max_length < 0 or (zero_ceiling is not None and zero_ceiling < 1):
        return
    elems = all_elements(G)
    terms = elems[1:] if exclude_zero else elems
    perms = [_subtraction_perm(G, a) for a in terms]
    width = len(terms)
    base = [0] * G.order
    base[0] = 1
    if min_length <= 0:
        yield (), base
    if max_length == 0:
        return
    # One frame per multiset on the current path: its counts and the next
    # term position to try.  Terms are appended in nondecreasing position,
    # so each multiset is reached once.
    occurrences: list[GroupElement] = []
    path_counts = [base]
    next_pos = [0]
    while next_pos:
        pos = next_pos[-1]
        if pos == width:
            next_pos.pop()
            path_counts.pop()
            if occurrences:
                occurrences.pop()
            continue
        next_pos[-1] = pos + 1
        counts = path_counts[-1]
        perm = perms[pos]
        # The child's zero count, read before building its whole list.
        if zero_ceiling is not None and counts[0] + counts[perm[0]] > zero_ceiling:
            continue
        child = [c + counts[p] for c, p in zip(counts, perm)]
        occurrences.append(terms[pos])
        depth = len(occurrences)
        if depth >= min_length:
            yield tuple(occurrences), child
        if depth < max_length:
            path_counts.append(child)
            next_pos.append(pos)
        else:
            occurrences.pop()
