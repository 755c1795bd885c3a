"""Minimal zero-sum machinery and structural checks on extremal sequences.

A minimal zero-sum sequence is a nonempty zero-sum sequence all of whose
proper nonempty subsequences are zero-sum free.  Minimality is read off
the zero count: a nonempty zero-sum S is minimal iff N_0(S) = 2, the
empty subset and S itself.

The checkers here replay structural statements about sequences attaining
the count bound 2^(|S|-D+1): the disjoint-decomposition property on
odd-order groups, the growth of the extremal set under term removal, the
shape of subgroups inside extremal sets, and the quotient condition that
separates groups with bounded extremal length from those carrying an
unbounded extremal family.  Each sweep sits beside the checks it drives
and streams ``extremal_sweep`` on its own D.  The statements hold or fail
together on an orbit of Aut(G), which maps N_g(S) to N_{sigma g}(sigma S)
and minimal zero-sum subsequences onto minimal zero-sum subsequences, so
the catalog sweeps check each orbit once (``_orbit_verdicts``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd

from .groups import (
    Group,
    Subgroup,
    all_subgroups,
    elem_neg,
    elem_order,
    elem_sub,
    make_group,
    order_two_subgroups,
    quotient_group,
    _validate_subgroup,
)
from .reports import VerificationReport, sweep_status
from .sequences import (
    Sequence,
    _seq_from_sorted,
    format_element,
    format_sequence,
    seq_div,
    seq_key,
    seq_mul,
    seq_sum,
    sequence,
    subsequences_with_sum,
)
from .counting import (
    DEFAULT_BUDGET,
    ExtremalSet,
    SweepStats,
    count_all,
    extremal_set,
    extremal_sweep,
    subsums,
    zero_count,
)
from .davenport import davenport, t_bound, zero_sum_free_sequences

MINIMAL_CAP = 25


@dataclass(frozen=True)
class MinZeroSumReport:
    sequence: Sequence
    minimals: tuple[Sequence, ...]
    pairwise_disjoint: bool


@dataclass(frozen=True)
class ConditionProfile:
    group: Group
    cond_iii: bool  # D(G) >= D(G/H) + 2 for every order-2 subgroup H
    t: int  # length ceiling D(G) + |G| - 1
    offending_H: Subgroup | None


def is_minimal_zero_sum(S: Sequence) -> bool:
    """Nonempty, zero-sum, and the only zero-sum index subsets are the
    empty one and the whole of S."""
    return (not S.is_empty() and seq_sum(S) == S.group.zero()
            and zero_count(S) == 2)


def minimal_zero_sums(S: Sequence) -> MinZeroSumReport:
    """All minimal zero-sum subsequences of S, each once as a multiset.
    They are pairwise disjoint when no element lies in two supports."""
    if len(S) > MINIMAL_CAP:
        raise ValueError(f"minimal_zero_sums capped at length {MINIMAL_CAP}, got {len(S)}")
    minimals = [T for T in subsequences_with_sum(S, S.group.zero())
                if T.terms and zero_count(T) == 2]
    minimals.sort(key=seq_key)
    supports = [T.support() for T in minimals]
    disjoint = len(set().union(*supports)) == sum(map(len, supports))
    return MinZeroSumReport(S, tuple(minimals), disjoint)


def _attains_zero_bound(S: Sequence, D: int) -> bool:
    e = len(S) - D + 1
    return e >= 0 and zero_count(S) == 1 << e


def check_odd_group_structure(S: Sequence, D: int) -> VerificationReport:
    """On an odd-order group, a zero-free sequence attaining the zero-count
    bound must split into exactly |S|-D+1 pairwise disjoint minimal
    zero-sum subsequences."""
    G = S.group
    unmet = []
    if G.order % 2 == 0:
        unmet.append("group order is even")
    if S.multiplicity(G.zero()):
        unmet.append("sequence contains zero")
    if not _attains_zero_bound(S, D):
        unmet.append("zero count does not attain the bound")
    details = {"sequence": format_sequence(S), "group": G.spec()}
    if unmet:
        details["unmet"] = unmet
        return VerificationReport("odd-group-structure", "skipped", details)
    expected = len(S) - D + 1
    rep = minimal_zero_sums(S)
    details.update(
        expected_minimal_count=expected,
        minimal_count=len(rep.minimals),
        pairwise_disjoint=rep.pairwise_disjoint,
        minimals=[format_sequence(T) for T in rep.minimals],
    )
    ok = len(rep.minimals) == expected and rep.pairwise_disjoint
    return VerificationReport(
        "odd-group-structure", "pass" if ok else "fail", details,
        () if ok else (S,),
    )


def _orbit_verdicts(G: Group, D: int, max_len: int, stats: SweepStats | None, check):
    """(occurrence tuple, ``check(S, D)``) for each extremal S of the
    pruned ``extremal_sweep`` up to ``max_len``, in walk order.  The check
    must give every member of an Aut(G) orbit the same verdict: it runs
    on the orbit's least member, which the walk yields first, and that
    verdict serves the rest (see ``extremal_sweep``)."""
    verdicts = {}
    for occ, _, orbit in extremal_sweep(G, D, max_len, prune=True, stats=stats):
        verdict = verdicts.get(orbit)
        if verdict is None:
            verdict = check(_seq_from_sorted(G, occ), D)
            if orbit is not None:
                verdicts[orbit] = verdict
        yield occ, verdict


def sweep_odd_structure(G: Group, D: int, max_len: int) -> VerificationReport:
    """``check_odd_group_structure`` on every extremal S up to ``max_len``,
    in walk order, to the first that fails, once per orbit (see
    ``_orbit_verdicts``).  On a group of even order the check skips every
    S: the behavior is recorded and nothing is asserted.  The walk stops
    after ``DEFAULT_BUDGET`` multisets (see ``extremal_sweep``)."""
    stats = SweepStats(DEFAULT_BUDGET)
    checked = skipped = 0
    for occ, rep in _orbit_verdicts(G, D, max_len, stats, check_odd_group_structure):
        if rep.failed:
            S = _seq_from_sorted(G, occ)
            return VerificationReport.fail(
                "odd-structure-sweep", (S,), group=G.spec(), max_len=max_len,
                counterexample=format_sequence(S),
            )
        checked += 1
        if rep.status == "skipped":
            skipped += 1
    details = {
        "group": G.spec(),
        "max_len": max_len,
        "extremal_checked": checked,
        "skipped": skipped,
        "stats": {"exhaustive": stats.exhaustive},
    }
    if G.order % 2 == 0:
        details["note"] = "group order is even; behavior recorded, nothing asserted"
    return VerificationReport("odd-structure-sweep",
                              sweep_status(False, stats.exhaustive), details)


def check_corollary_decomposition(S: Sequence, D: int) -> VerificationReport:
    """When additionally only zero attains the bound, the minimal zero-sum
    subsequences use up S exactly: S = T_1 T_2 ... T_r."""
    G = S.group
    unmet = []
    if G.order % 2 == 0:
        unmet.append("group order is even")
    if S.multiplicity(G.zero()):
        unmet.append("sequence contains zero")
    if len(S) < D - 1:
        unmet.append("extremal set undefined below length D - 1")
    elif extremal_set(S, D).members != {G.zero()}:
        unmet.append("extremal set is not exactly {0}")
    details = {"sequence": format_sequence(S), "group": G.spec()}
    if unmet:
        details["unmet"] = unmet
        return VerificationReport("corollary-decomposition", "skipped", details)
    rep = minimal_zero_sums(S)
    recombined = sequence(G)
    for T in rep.minimals:
        recombined = seq_mul(recombined, T)
    details.update(
        minimal_count=len(rep.minimals),
        pairwise_disjoint=rep.pairwise_disjoint,
        product=format_sequence(recombined),
    )
    ok = rep.pairwise_disjoint and recombined == S
    return VerificationReport(
        "corollary-decomposition", "pass" if ok else "fail", details,
        () if ok else (S,),
    )


def sweep_corollary(G: Group, D: int, max_len: int) -> VerificationReport:
    """``check_corollary_decomposition`` on every extremal S up to
    ``max_len``, in walk order, to the first that fails, once per orbit
    (see ``_orbit_verdicts``); ``decompositions_checked`` counts the S
    that the check does not skip (those whose extremal set is exactly {0}
    on a group of odd order).  The walk stops after ``DEFAULT_BUDGET``
    multisets (see ``extremal_sweep``)."""
    stats = SweepStats(DEFAULT_BUDGET)
    checked = 0
    for occ, rep in _orbit_verdicts(G, D, max_len, stats, check_corollary_decomposition):
        if rep.status == "skipped":
            continue
        checked += 1
        if rep.failed:
            S = _seq_from_sorted(G, occ)
            return VerificationReport.fail(
                "corollary-sweep", (S,), group=G.spec(),
                sequence=format_sequence(S),
            )
    return VerificationReport(
        "corollary-sweep", sweep_status(False, stats.exhaustive),
        {"group": G.spec(), "max_len": max_len, "decompositions_checked": checked,
         "stats": {"exhaustive": stats.exhaustive}},
    )


def check_es_chain(S: Sequence, D: int) -> VerificationReport:
    """Removing one term a of a zero-sum subsequence can only grow the
    extremal set: E(S) together with its translate by -a lands in the
    extremal set of S with one copy of a removed.

    The hypotheses on S (zero-free, |S| >= D, 0 in E(S)) are decided once;
    an unmet one is listed in ``details["unmet"]`` of a ``skipped`` report.
    Each term a of the support with -a a subsum of the rest is checked, in
    support order, and counted in ``details["terms_checked"]``; a fail
    names the first failing term in ``details["removed"]``."""
    G = S.group
    unmet = []
    if S.multiplicity(G.zero()):
        unmet.append("sequence contains zero")
    if len(S) < D:
        unmet.append("sequence is shorter than D")
    else:
        before = extremal_set(S, D).members
        if G.zero() not in before:
            unmet.append("zero does not attain the count bound")
    details = {"sequence": format_sequence(S)}
    if unmet:
        details["unmet"] = unmet
        return VerificationReport("extremal-set-chain", "skipped", details)
    checked = 0
    for a in S.support():
        rest = seq_div(S, sequence(G, {a: 1}))
        if elem_neg(G, a) not in subsums(rest):
            continue
        checked += 1
        after = extremal_set(rest, D).members
        if not before | {elem_sub(G, h, a) for h in before} <= after:
            details.update(terms_checked=checked, removed=format_element(G, a))
            return VerificationReport("extremal-set-chain", "fail", details, (S,))
    details["terms_checked"] = checked
    return VerificationReport("extremal-set-chain", "pass", details)


def sweep_es_chain(G: Group, D: int, max_len: int) -> VerificationReport:
    """``check_es_chain`` once per orbit of the extremal S up to
    ``max_len`` (see ``_orbit_verdicts``), to the first S that fails;
    ``pairs_checked`` is the sum of the checks' ``terms_checked`` over
    every S."""
    checked = 0
    for occ, rep in _orbit_verdicts(G, D, max_len, None, check_es_chain):
        if rep.failed:
            S = _seq_from_sorted(G, occ)
            return VerificationReport.fail(
                "es-chain-sweep", (S,), group=G.spec(),
                sequence=format_sequence(S), removed=rep.details["removed"],
            )
        checked += rep.details.get("terms_checked", 0)
    return VerificationReport.ok(
        "es-chain-sweep", group=G.spec(), max_len=max_len, pairs_checked=checked,
    )


def max_subgroups_in_extremal_set(E: ExtremalSet):
    """Subgroups contained in the extremal set, maximal ones flagged.

    Any nontrivial subgroup sitting inside an extremal set must be
    elementary abelian of exponent 2, with the Davenport constant dropping
    by exactly its rank on the quotient; the verdict asserts both.
    """
    G = E.group
    contained = [H for H in all_subgroups(G) if H.elements <= E.members]
    maximal = [
        H for H in contained
        if not any(H.elements < K.elements for K in contained)
    ]
    DG = davenport(G).value
    records = []
    ok = True
    for H in contained:
        if H.is_trivial():
            continue
        exponent_two = all(
            elem_order(G, x) == 2 for x in H.elements if x != G.zero()
        )
        rank_h = H.order.bit_length() - 1 if H.order & (H.order - 1) == 0 else None
        quotient, _ = quotient_group(G, H)
        DQ = davenport(quotient).value
        drop_matches = rank_h is not None and DG == DQ + rank_h
        ok = ok and exponent_two and drop_matches
        records.append({
            "subgroup_order": H.order,
            "exponent_two": exponent_two,
            "davenport_drop_matches_rank": drop_matches,
        })
    details = {
        "group": G.spec(),
        "contained": len(contained),
        "maximal": len(maximal),
        "nontrivial_records": records,
    }
    report = VerificationReport(
        "subgroup-in-extremal-set", "pass" if ok else "fail", details
    )
    return contained, report


def sweep_subgroup_es(G: Group, D: int, max_len: int) -> VerificationReport:
    """``max_subgroups_in_extremal_set`` on the extremal set of every
    zero-free multiset up to ``max_len`` where it is nonempty.  The check
    reads only the member set, so each distinct set is checked once."""
    checked = 0
    nontrivial_found = 0
    seen = {}
    for occ, members, _ in extremal_sweep(G, D, max_len):
        if members not in seen:
            seen[members] = max_subgroups_in_extremal_set(
                ExtremalSet(G, members, len(occ) - D + 1))
        contained, verdict = seen[members]
        checked += 1
        nontrivial_found += sum(1 for H in contained if not H.is_trivial())
        if verdict.failed:
            S = _seq_from_sorted(G, occ)
            return VerificationReport.fail(
                "subgroup-es-sweep", (S,), group=G.spec(),
                sequence=format_sequence(S),
            )
    return VerificationReport.ok(
        "subgroup-es-sweep", group=G.spec(), max_len=max_len,
        extremal_sets_checked=checked, nontrivial_subgroups=nontrivial_found,
    )


def condition_profile(G: Group) -> ConditionProfile:
    """Check D(G) >= D(G/H) + 2 over every order-2 subgroup H (vacuously
    true for odd order), and record the length ceiling t."""
    DG = davenport(G).value
    offending = None
    for H in order_two_subgroups(G):
        quotient, _ = quotient_group(G, H)
        if DG < davenport(quotient).value + 2:
            offending = H
            break
    return ConditionProfile(G, offending is None, t_bound(G), offending)


def construct_unbounded_family(G: Group, H: Subgroup, k: int) -> Sequence:
    """Base sequence projecting to a minimal zero-sum sequence on G/H and
    summing to the order-2 element h, padded with k extra copies of h.

    Exists exactly when D(G) = D(G/H) + 1; every member attains the
    zero-count bound, so these groups carry extremal sequences of
    unbounded length.  The result is re-verified by exact counting before
    being returned.
    """
    _validate_subgroup(G, H)
    if H.order != 2:
        raise ValueError("H must have order 2")
    if k < 0:
        raise ValueError("k must be >= 0")
    (h,) = [x for x in H.elements if x != G.zero()]
    DG = davenport(G).value
    base = _family_base(G, H)
    result = seq_mul(base, sequence(G, {h: k})) if k else base
    cv = count_all(result)
    e = len(result) - DG + 1
    if not (cv.zero_count == cv[h] == 1 << e):
        raise RuntimeError("constructed sequence failed count verification")
    return result


@lru_cache(maxsize=None)
def _family_base(G: Group, H: Subgroup) -> Sequence:
    (h,) = [x for x in H.elements if x != G.zero()]
    quotient, project = quotient_group(G, H)
    DG = davenport(G).value
    DQ = davenport(quotient).value
    if DG != DQ + 1:
        raise ValueError(
            f"needs D(G) = D(G/H) + 1; got D({G}) = {DG}, D({quotient}) = {DQ}"
        )
    # A qualifying base is zero-sum free: a nonempty zero-sum subsequence
    # would project to a zero-sum subsequence of the minimal projection,
    # hence to all of it, so it would be S itself, which sums to h != 0.
    for S in zero_sum_free_sequences(G, DQ):
        if seq_sum(S) != h:
            continue
        if is_minimal_zero_sum(sequence(quotient, map(project, S.expanded()))):
            return S
    raise RuntimeError(
        f"no qualifying base of length {DQ} over {G}; "
        "this contradicts the construction and indicates a defect"
    )


def sweep_equivalences(G: Group, max_len: int, family_k: int) -> VerificationReport:
    """The quotient condition decides between bounded and unbounded
    extremal lengths: when it holds, no extremal S up to min(max_len, t)
    for D = D(G) is longer than t, and the walk stops after
    ``DEFAULT_BUDGET`` multisets; when it fails, the first
    ``family_k`` members of the unbounded family are exhibited."""
    profile = condition_profile(G)
    details = {
        "group": G.spec(),
        "cond_iii": profile.cond_iii,
        "t_bound": profile.t,
    }
    if not profile.cond_iii:
        H = profile.offending_H
        details["offending_subgroup"] = sorted(
            format_element(G, x) for x in H.elements
        )
        family = [
            construct_unbounded_family(G, H, k) for k in range(1, family_k + 1)
        ]
        details["family"] = [format_sequence(S) for S in family]
        details["family_verified"] = True  # construct re-verifies each member
        details["note"] = "extremal lengths unbounded; family exhibited"
        return VerificationReport("equivalences", "pass", details)
    cap = min(max_len, profile.t)
    stats = SweepStats(DEFAULT_BUDGET)
    walk = extremal_sweep(G, davenport(G).value, cap, prune=True, stats=stats)
    lengths = sorted({len(occ) for occ, *_ in walk})
    longest = max(lengths, default=0)
    details["sweep_cap"] = cap
    details["extremal_lengths"] = lengths
    details["max_extremal_length"] = longest
    details["ceiling_within_t_bound"] = longest <= profile.t
    details["stats"] = {"exhaustive": stats.exhaustive}
    status = sweep_status(not details["ceiling_within_t_bound"], stats.exhaustive)
    return VerificationReport("equivalences", status, details)


def check_cyclic_characterization(n: int, max_len: int) -> VerificationReport:
    """Over a cyclic group of order n >= 3, the zero-free sequences whose
    zero count meets the bound are exactly the generator powers a^(n-1)
    and a^n; nothing longer qualifies.

    Sweeps every zero-free multiset up to max_len, and checks that one
    more copy of a generator overshoots: the zero count of a^(n+1) is
    1 + C(n+1, n) > 4.
    """
    if n < 3:
        raise ValueError("characterization needs n >= 3 (order 2 is degenerate)")
    if max_len < n + 1:
        raise ValueError(f"max_len must be at least n + 1 = {n + 1}")
    G = make_group([n])
    # D(C_n) = n.
    found = [_seq_from_sorted(G, occ) for occ, *_ in extremal_sweep(G, n, max_len, prune=True)]
    generators = [a for a in range(1, n) if gcd(a, n) == 1]
    expected = {
        seq_key(sequence(G, {(a,): reps}))
        for a in generators
        for reps in (n - 1, n)
    }
    got = {seq_key(S) for S in found}
    overshoot_ok = True
    for a in generators:
        zc = count_all(sequence(G, {(a,): n + 1})).zero_count
        if zc != 1 + comb(n + 1, n) or zc <= 4:
            overshoot_ok = False
    ok = got == expected and overshoot_ok
    details = {
        "n": n,
        "max_len": max_len,
        "extremal_count": len(found),
        "expected_count": 2 * len(generators),
        "extremals": [format_sequence(S) for S in found],
        "generator_overshoot_ok": overshoot_ok,
    }
    return VerificationReport(
        "cyclic-characterization", "pass" if ok else "fail", details,
        tuple(found) if not ok else (),
    )
