"""Extremal-sequence search and conjecture-falsification harnesses.

A zero-free sequence is extremal when its zero count equals the bound
2^(|S|-D+1) exactly.  The exhaustive search scans all zero-free multisets
up to a length cap; budgets are counted in sequences visited, never wall
time, so reports are machine-independent.  The randomized probe uses a
SplitMix64 stream (documented in the README) so catalogs reproduce
bit-for-bit across runs and implementations.

Harness passes always mean "no counterexample up to the stated cap".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .groups import Group, GroupElement, all_elements, all_subgroups, d_star, elem_reduce
from .reports import VerificationReport, sweep_status
from .sequences import (
    Sequence,
    _seq_from_sorted,
    format_sequence,
    seq_key,
    seq_mul,
    sequence,
    subsequences_with_sum,
)
from .counting import (
    DEFAULT_BUDGET,
    ExtremalSet,
    SweepStats,
    _extremal_probe,
    _transform_probe,
    count_all,
    extremal_set,
    extremal_sweep,
    transform,
)
from .davenport import _product_of_generators, davenport, zero_sum_free_sequences
from .structure import condition_profile, minimal_zero_sums


@dataclass(frozen=True)
class ExtremalCatalog:
    group: Group
    D: int
    entries: tuple[tuple[Sequence, ExtremalSet], ...]
    max_length_found: int
    length_cap: int
    exhaustive: bool


def find_extremals(G: Group, length_cap: int,
                   budget: int = DEFAULT_BUDGET) -> ExtremalCatalog:
    """Scan the zero-free multisets up to the cap and record the extremal
    ones.  A blown budget yields a partial catalog flagged non-exhaustive.

    An extremal S of length L <= cap has N_0(S) = 2^(L-D+1) <= 2^(cap-D+1),
    and the zero count never drops as terms are appended, so the sweep
    prunes every multiset whose zero count exceeds 2^(cap-D+1); it also
    cuts by symmetry and expands the orbits it reaches (see
    ``extremal_sweep``).  The walk stops after ``budget`` multisets, those
    it visits, the empty one included, and the orbit members it expands.
    The catalog is exhaustive unless one was left unvisited, and it holds
    exactly the entries up to the last multiset visited otherwise.  Below
    cap D-1 no extremal sequence exists and nothing is swept."""
    D = davenport(G).value
    stats = SweepStats(budget)
    entries = [
        (_seq_from_sorted(G, occ), ExtremalSet(G, members, len(occ) - D + 1))
        for occ, members in extremal_sweep(G, D, length_cap, prune=True, stats=stats)
    ]
    entries.sort(key=lambda pair: seq_key(pair[0]))
    max_length = max((len(S) for S, _ in entries), default=0)
    return ExtremalCatalog(G, D, tuple(entries), max_length, length_cap, stats.exhaustive)


def construct_extremal(G: Group, g: GroupElement, m: int) -> Sequence:
    """A length-m sequence whose count at g is exactly 2^(m-D+1).

    Take the first maximal zero-sum-free base U (length D-1, canonical
    order), the least subsequence T of U summing to g, and pad
    T * (-(U T^{-1})) with zeros up to length m.  Every g is a subsum of
    U: if some g != 0 were not, U * (-g) would be zero-sum free of length
    D.  So a T that is missing means D is wrong, and raises RuntimeError.
    """
    D = davenport(G).value
    g = elem_reduce(G, g)
    if m < D - 1:
        raise ValueError(f"length m = {m} is below D - 1 = {D - 1}")
    U = next(zero_sum_free_sequences(G, D - 1))
    T = min(subsequences_with_sum(U, g), key=seq_key, default=None)
    if T is None:
        raise RuntimeError(
            f"{g!r} is not a subsum of the maximal zero-sum-free base "
            f"{format_sequence(U)} over {G}; D = {D} must be wrong"
        )
    S = seq_mul(transform(U, T), sequence(G, {G.zero(): m - D + 1}))
    if count_all(S)[g] != 1 << (m - D + 1):
        raise RuntimeError("constructed sequence failed count verification")
    return S


def conjecture1_harness(G: Group, length_cap: int,
                        budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """On qualifying groups, every extremal sequence up to the cap must
    decompose into exactly |S|-D+1 pairwise disjoint minimal zero-sum
    subsequences.  Non-qualifying groups are flagged, not errored."""
    profile = condition_profile(G)
    details = {
        "group": G.spec(),
        "length_cap": length_cap,
        "qualifies": profile.cond_iii,
    }
    if not profile.cond_iii:
        details["reason"] = "an order-2 quotient drops the Davenport constant by only 1"
        return VerificationReport("conjecture-1", "skipped", details)
    catalog = find_extremals(G, length_cap, budget)
    details["extremal_checked"] = len(catalog.entries)
    details["exhaustive"] = catalog.exhaustive
    for S, _ in catalog.entries:
        rep = minimal_zero_sums(S)
        if len(rep.minimals) != len(S) - catalog.D + 1 or not rep.pairwise_disjoint:
            details["counterexample"] = format_sequence(S)
            return VerificationReport("conjecture-1", "fail", details, (S,))
    details["result"] = "no counterexample up to cap"
    status = sweep_status(False, catalog.exhaustive)
    return VerificationReport("conjecture-1", status, details)


def conjecture2_harness(G: Group, length_cap: int,
                        budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Among zero-free sequences whose extremal set is nonempty and free of
    nontrivial subgroups, the length should never exceed d_star + rank.

    Reports the maximum qualifying length and verifies the designated
    tightness example prod e_i^(n_i): its length is exactly the bound and
    its zero count attains 2^(|S|-D+1).
    """
    D = davenport(G).value
    ds = d_star(G)
    if D != ds + 1:
        raise ValueError(
            f"hypothesis requires D(G) = d_star + 1; got D = {D}, d_star = {ds}"
        )
    bound = ds + G.rank
    if length_cap < bound + 1:
        raise ValueError(f"length cap must be at least d_star + rank + 1 = {bound + 1}")
    nontrivial = [H for H in all_subgroups(G) if H.order > 1]
    max_qualifying = None
    qualifying = 0
    violation = None
    stats = SweepStats(budget)
    for occ, members in extremal_sweep(G, D, length_cap, stats=stats):
        if any(H.elements <= members for H in nontrivial):
            continue
        length = len(occ)
        qualifying += 1
        if max_qualifying is None or length > max_qualifying:
            max_qualifying = length
        if length > bound and violation is None:
            violation = _seq_from_sorted(G, occ)
    exhaustive = stats.exhaustive
    witness = _product_of_generators(G, G.invariants)
    witness_members = extremal_set(witness, D).members
    details = {
        "group": G.spec(),
        "length_cap": length_cap,
        "bound": bound,
        "qualifying_sequences": qualifying,
        "max_qualifying_length": max_qualifying,
        "exhaustive": exhaustive,
        "witness": format_sequence(witness),
        "witness_length": len(witness),
        "witness_extremal": G.zero() in witness_members,
        "witness_qualifies": bool(witness_members)
        and not any(H.elements <= witness_members for H in nontrivial),
        "bound_attained": max_qualifying == bound,
    }
    if violation is None:
        details["result"] = "no counterexample up to cap"
        return VerificationReport("conjecture-2", sweep_status(False, exhaustive), details)
    details["counterexample"] = format_sequence(violation)
    return VerificationReport("conjecture-2", "fail", details, (violation,))


_M64 = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (next state, 64-bit output)."""
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


def sweep_transform(G: Group, max_len: int, trials: int, seed: int) -> VerificationReport:
    """The rewrite identity N_{sum T}(S) = N_0(transform(S, T)) on random
    pairs T | S: each trial draws a length up to ``max_len``, S's
    occurrences and T's multiplicities from one SplitMix64 stream.  A
    trial is decided on the positions of the terms in ``all_elements(G)``;
    S and T are built only for a failure."""
    probe = _transform_probe(G)
    order = G.order
    state = seed & _M64
    checked = 0
    for _ in range(trials):
        state, v = splitmix64(state)
        length = v % (max_len + 1)
        positions = []
        for _ in range(length):
            state, v = splitmix64(state)
            positions.append(v % order)
        # Element order is position order, so S's terms come in this order.
        positions.sort()
        runs = Counter(positions)
        kept = []
        for m in runs.values():
            state, v = splitmix64(state)
            kept.append(v % (m + 1))
        lhs, rhs = probe(positions, kept)
        checked += 1
        if lhs != rhs:
            elems = all_elements(G)
            S = _seq_from_sorted(G, [elems[p] for p in positions])
            T = Sequence(G, tuple((elems[p], k) for p, k in zip(runs, kept) if k))
            return VerificationReport.fail(
                "transform-sweep", (S,), group=G.spec(),
                sequence=format_sequence(S), subsequence=format_sequence(T),
                lhs=lhs, rhs=rhs,
            )
    return VerificationReport.ok(
        "transform-sweep", group=G.spec(), trials=checked, max_len=max_len,
    )


def random_search(G: Group, length: int, trials: int, seed: int) -> ExtremalCatalog:
    """Sample zero-free multisets of a fixed length and keep the extremal
    hits.  Each trial draws `length` elements as splitmix64(seed) outputs
    reduced modulo the nonzero-element count; fixed seeds reproduce the
    catalog exactly."""
    if length < 0 or trials < 0:
        raise ValueError("length and trials must be >= 0")
    D = davenport(G).value
    allowed = all_elements(G)[1:]
    count = len(allowed)
    exponent = length - D + 1
    hits = []
    # Below length D - 1 nothing attains the bound, and the trivial group
    # has nothing to draw.
    if trials and count and exponent >= 0:
        probe = _extremal_probe(G, length, exponent)
        state = seed & _M64
        seen = set()
        for _ in range(trials):
            # A draw is the sorted tuple of its positions in ``allowed``:
            # the same order as its occurrences, so the same multiset.
            positions = []
            for _ in range(length):
                state, value = splitmix64(state)
                positions.append(value % count)
            positions.sort()
            key = tuple(positions)
            if key in seen:
                continue
            seen.add(key)
            members = probe(key)
            if members is not None:
                S = _seq_from_sorted(G, [allowed[p] for p in key])
                hits.append((S, ExtremalSet(G, members, exponent)))
    hits.sort(key=lambda pair: seq_key(pair[0]))
    max_length = max((len(S) for S, _ in hits), default=0)
    return ExtremalCatalog(G, D, tuple(hits), max_length, length, False)
