import importlib
import random
from functools import lru_cache
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

from zerosum import (
    all_elements,
    check_corollary_decomposition,
    check_cyclic_characterization,
    check_es_chain,
    check_odd_group_structure,
    condition_profile,
    construct_unbounded_family,
    count_all,
    davenport,
    extremal_set,
    find_extremals,
    format_sequence,
    iterate_multisets,
    make_group,
    max_subgroups_in_extremal_set,
    minimal_zero_sums,
    order_two_subgroups,
    parse_sequence,
    quotient_group,
    seq_sum,
    sequence,
    subgroup_closure,
)
import helpers
from zerosum import conjecture1_harness, search, structure
from zerosum.counting import DEFAULT_BUDGET, ExtremalSet, SweepStats, extremal_sweep
from zerosum.groups import _automorphism_group, element_index
from zerosum.reports import VerificationReport
from zerosum.sequences import format_element
from zerosum.structure import (
    MinZeroSumReport,
    _family_base,
    is_minimal_zero_sum,
    sweep_corollary,
    sweep_es_chain,
    sweep_odd_structure,
    sweep_subgroup_es,
)

from helpers import es_chain_terms, groups_up_to_order, per_entry_sweep, seq_gcd

C2 = make_group([2])
C3 = make_group([3])
C22 = make_group([2, 2])
C33 = make_group([3, 3])


def brute_is_minimal(T):
    """Definition-level check: zero-sum, nonempty, and no proper nonempty
    sub-multiset sums to zero."""
    G = T.group
    if T.is_empty() or seq_sum(T) != G.zero():
        return False
    support = T.support()
    mults = [T.multiplicity(g) for g in support]
    for vector in product(*(range(m + 1) for m in mults)):
        if not any(vector) or list(vector) == mults:
            continue
        U = sequence(G, dict(zip(support, vector)))
        if seq_sum(U) == G.zero():
            return False
    return True


def test_minimal_zero_sums_examples():
    rep = minimal_zero_sums(parse_sequence(C3, "1^3"))
    assert [format_sequence(T) for T in rep.minimals] == ["1^3"]
    assert rep.pairwise_disjoint

    rep = minimal_zero_sums(parse_sequence(C22, "(1,0) (0,1) (1,1)"))
    assert len(rep.minimals) == 1
    assert rep.minimals[0] == parse_sequence(C22, "(1,0) (0,1) (1,1)")

    rep = minimal_zero_sums(parse_sequence(C3, "1^2"))
    assert rep.minimals == () and rep.pairwise_disjoint


def test_minimal_zero_sums_cap():
    with pytest.raises(ValueError):
        minimal_zero_sums(parse_sequence(C2, "1^26"))


def test_minimal_zero_sums_against_definition():
    rng = random.Random(13)
    disjointness_seen = set()
    for G in (C3, C22, make_group([4]), C33):
        elems = all_elements(G)
        for _ in range(25):
            S = sequence(G, [rng.choice(elems) for _ in range(rng.randint(0, 8))])
            rep = minimal_zero_sums(S)
            listed = set(rep.minimals)
            for T in listed:
                assert brute_is_minimal(T)
            # disjointness: no two listed multisets share a term
            assert rep.pairwise_disjoint == all(
                seq_gcd(T, U).is_empty()
                for i, T in enumerate(rep.minimals)
                for U in rep.minimals[i + 1:]
            )
            disjointness_seen.add(rep.pairwise_disjoint)
            # completeness: every minimal sub-multiset is listed
            support = S.support()
            mults = [S.multiplicity(g) for g in support]
            for vector in product(*(range(m + 1) for m in mults)):
                T = sequence(G, dict(zip(support, vector)))
                if brute_is_minimal(T):
                    assert T in listed
    assert disjointness_seen == {True, False}


def test_single_removal_criterion_matches_definition():
    rng = random.Random(14)
    for G in (C3, C22, make_group([6])):
        elems = all_elements(G)
        for _ in range(60):
            T = sequence(G, [rng.choice(elems) for _ in range(rng.randint(1, 7))])
            assert is_minimal_zero_sum(T) == brute_is_minimal(T)


def test_odd_group_structure_examples():
    assert check_odd_group_structure(parse_sequence(C3, "1^3"), 3).passed
    S = parse_sequence(C33, "(1,0)^3 (0,1)^3")
    rep = check_odd_group_structure(S, 5)
    assert rep.passed
    assert rep.details["minimal_count"] == 2 == rep.details["expected_minimal_count"]
    # precondition failure is reported, not asserted
    rep = check_odd_group_structure(parse_sequence(C3, "1^2 2"), 3)
    assert rep.status == "skipped"
    rep = check_odd_group_structure(parse_sequence(C22, "(1,0)^2"), 3)
    assert rep.status == "skipped"  # even group


def test_corollary_examples():
    S = parse_sequence(C33, "(1,0)^3 (0,1)^3")
    assert extremal_set(S, 5).members == {(0, 0)}
    assert check_corollary_decomposition(S, 5).passed
    assert check_corollary_decomposition(parse_sequence(C3, "1^3"), 3).passed
    # extremal set bigger than {0}: skipped
    rep = check_corollary_decomposition(parse_sequence(C3, "1^2"), 3)
    assert rep.status == "skipped"


def test_es_chain_examples():
    for G, text, D, terms in [
        (C33, "(1,0)^3 (0,1)^3", 5, 2),
        (C2, "1^2", 2, 1),
    ]:
        S = parse_sequence(G, text)
        rep = check_es_chain(S, D)
        assert rep.passed
        assert rep.details["terms_checked"] == len(es_chain_terms(S)) == terms


def test_es_chain_passes_over_a_term_in_no_zero_sum_subsequence():
    # (0,1) lies in no nonempty zero-sum subsequence, so it is not checked;
    # the check still runs on (1,0) instead of skipping the whole sequence.
    S = parse_sequence(C33, "(1,0)^3 (0,1)^2")
    assert es_chain_terms(S) == [(1, 0)]
    rep = check_es_chain(S, 5)
    assert rep.passed
    assert rep.details["terms_checked"] == 1


@pytest.mark.parametrize("G,text,D,unmet", [
    (C3, "0 1^3", 3, "sequence contains zero"),
    (C33, "(1,0)^3", 5, "sequence is shorter than D"),
    (C33, "(1,0)^3 (0,1)^3 (1,1)", 5, "zero does not attain the count bound"),
])
def test_es_chain_skips_each_unmet_hypothesis(G, text, D, unmet):
    rep = check_es_chain(parse_sequence(G, text), D)
    assert rep.status == "skipped"
    assert rep.details["unmet"] == [unmet]


def test_es_chain_fails_at_the_first_failing_term(monkeypatch):
    # An extremal set that empties on removal breaks the inclusion for every
    # checked term; the check stops at the first one in support order.
    import zerosum.structure as structure

    real = structure.extremal_set
    S = parse_sequence(C33, "(1,0)^3 (0,1)^3")
    monkeypatch.setattr(structure, "extremal_set", lambda T, D: (
        real(T, D) if T == S else ExtremalSet(T.group, frozenset(), len(T) - D + 1)))
    rep = check_es_chain(S, 5)
    assert rep.failed and rep.witnesses == (S,)
    assert rep.details["removed"] == "(0,1)"
    assert rep.details["terms_checked"] == 1
    report = sweep_es_chain(C33, 5, 6)
    assert report.failed and report.witnesses == (S,)
    assert report.details["removed"] == "(0,1)"


def test_es_chain_exhaustive_small():
    for G in (C3, make_group([4]), C22):
        D = davenport(G).value
        catalog = find_extremals(G, D + 3)
        for S, E in catalog.entries:
            if len(S) < D:
                continue
            rep = check_es_chain(S, D)
            assert rep.passed
            assert rep.details["terms_checked"] == len(es_chain_terms(S))


def test_es_chain_sweep_counts_the_pairs_of_its_own_filter():
    # Oracle: the catalog entries of length >= D and their terms a with -a
    # a subsum of S with a removed, filtered here rather than by the check.
    for G in groups_up_to_order(8):
        D = davenport(G).value
        expected = sum(len(es_chain_terms(S)) for S, _ in find_extremals(G, D + 2).entries
                       if len(S) >= D)
        report = sweep_es_chain(G, D, D + 2)
        assert report.passed
        assert report.details["pairs_checked"] == expected, G


def test_max_subgroups_examples():
    E = extremal_set(parse_sequence(C2, "1^3"), 2)
    assert E.members == {(0,), (1,)}
    contained, verdict = max_subgroups_in_extremal_set(E)
    assert verdict.passed
    assert {H.order for H in contained} == {1, 2}

    E = extremal_set(parse_sequence(C3, "1^3"), 3)
    contained, verdict = max_subgroups_in_extremal_set(E)
    assert [H.order for H in contained] == [1]
    assert verdict.passed

    # {0, 2} over C3 is not closed, so only the trivial subgroup fits
    E = extremal_set(parse_sequence(C3, "1^2"), 3)
    contained, _ = max_subgroups_in_extremal_set(E)
    assert [H.order for H in contained] == [1]


def test_odd_structure_sweep_order_9():
    # all extremal zero-free sequences up to D+4 over the odd groups of
    # order <= 9 (cap 9 keeps the rank-2 sweep at desk scale)
    from helpers import ODD_GROUPS_9

    for G in ODD_GROUPS_9:
        D = davenport(G).value
        cap = min(D + 4, 9) if G.rank == 2 else D + 4
        for S, _ in find_extremals(G, cap).entries:
            assert check_odd_group_structure(S, D).passed, format_sequence(S)


def test_catalog_sweeps_walk_the_d_they_are_given():
    # Below D(G) the walk differs from the catalog of D(G): over C5 it has
    # 12 extremal entries for D = 4 and 8 for D = 5, and over C3xC3 the
    # D = 4 walk breaks the odd-order statement at its first entry.
    C5 = make_group([5])
    rep = sweep_odd_structure(C5, 4, 7)
    assert rep.details["extremal_checked"] == 12
    assert sum(1 for _ in extremal_sweep(C5, 4, 7, prune=True)) == 12
    rep = sweep_odd_structure(C33, 4, 7)
    assert rep.failed
    assert rep.details["counterexample"] == "(0,1)^4 (1,0) (1,1) (2,0)"
    assert rep.witnesses == (parse_sequence(C33, "(0,1)^4 (1,0) (1,1) (2,0)"),)
    rep = sweep_corollary(C33, 4, 7)
    assert rep.details["decompositions_checked"] == 24


def test_theorem_consistency_order_16():
    # groups whose quotient condition fails carry a verified unbounded
    # family; groups where it holds show a bounded-extremal-length sweep
    for G in groups_up_to_order(16):
        profile = condition_profile(G)
        if not profile.cond_iii:
            H = profile.offending_H
            for k in (1, 5, 10):
                construct_unbounded_family(G, H, k)  # re-verifies internally
        else:
            D = davenport(G).value
            cap = min(profile.t, D + 2)
            catalog = find_extremals(G, cap)
            assert catalog.exhaustive, G
            assert catalog.max_length_found <= profile.t


def test_condition_profile_examples():
    assert condition_profile(C33).cond_iii is True
    assert condition_profile(make_group([4])).cond_iii is True
    prof = condition_profile(C22)
    assert prof.cond_iii is False and prof.offending_H is not None
    assert prof.t == 6
    prof = condition_profile(C2)
    assert prof.cond_iii is False
    prof = condition_profile(make_group([2, 4]))
    assert prof.cond_iii is False


def test_construct_unbounded_family_examples():
    H = subgroup_closure(C22, [(1, 1)])
    S = construct_unbounded_family(C22, H, 3)
    assert S == parse_sequence(C22, "(1,0) (0,1) (1,1)^3")
    base = construct_unbounded_family(C22, H, 0)
    cv = count_all(base)
    assert cv.zero_count == cv[(1, 1)] == 1

    family = construct_unbounded_family(C2, subgroup_closure(C2, [(1,)]), 5)
    assert family == parse_sequence(C2, "1^6")

    C4 = make_group([4])
    with pytest.raises(ValueError):
        construct_unbounded_family(C4, subgroup_closure(C4, [(2,)]), 1)
    with pytest.raises(ValueError):
        construct_unbounded_family(C22, subgroup_closure(C22, []), 1)


def multiset_scan_family_base(G, H):
    """The first multiset of length D(G/H) over G minus zero, in
    lexicographic order, that sums to h and projects to a minimal
    zero-sum sequence over G/H."""
    (h,) = [x for x in H.elements if x != G.zero()]
    quotient, project = quotient_group(G, H)
    for S in iterate_multisets(G, davenport(quotient).value, exclude_zero=True):
        projected = sequence(quotient, [project(g) for g in S.expanded()])
        if seq_sum(S) == h and is_minimal_zero_sum(projected):
            return S
    return None


def test_family_base_matches_the_multiset_scan():
    checked = 0
    for G in groups_up_to_order(16):
        for H in order_two_subgroups(G):
            quotient, _ = quotient_group(G, H)
            if davenport(G).value != davenport(quotient).value + 1:
                continue
            assert _family_base(G, H) == multiset_scan_family_base(G, H), (G, H)
            checked += 1
    assert checked == 39  # every valid (G, H) of order <= 16


def unmemoized_subgroup_es(G, D, max_len):
    checked = nontrivial = 0
    for occ, members, _ in extremal_sweep(G, D, max_len):
        if members:
            contained, verdict = max_subgroups_in_extremal_set(
                ExtremalSet(G, members, len(occ) - D + 1))
            assert not verdict.failed
            checked += 1
            nontrivial += sum(1 for H in contained if not H.is_trivial())
    return {"group": G.spec(), "max_len": max_len,
            "extremal_sets_checked": checked, "nontrivial_subgroups": nontrivial}


@pytest.mark.parametrize("spec,max_len,distinct", [
    ([2, 2, 2], 7, 1), ([2, 4], 8, 48), ([3, 3], 7, 99), ([2, 6], 8, 120),
])
def test_subgroup_es_sweep_checks_each_member_set_once(monkeypatch, spec, max_len, distinct):
    structure = importlib.import_module("zerosum.structure")
    G = make_group(spec)
    D = davenport(G).value
    sets = {members for _, members, _ in extremal_sweep(G, D, max_len) if members}
    assert len(sets) == distinct
    expected = unmemoized_subgroup_es(G, D, max_len)
    real = structure.max_subgroups_in_extremal_set
    seen = []
    monkeypatch.setattr(structure, "max_subgroups_in_extremal_set",
                        lambda E: seen.append(E.members) or real(E))
    report = sweep_subgroup_es(G, D, max_len)
    assert report.passed and report.details == expected
    assert len(seen) == len(set(seen)) == distinct


def test_subgroup_es_sweep_reports_the_first_failing_sequence(monkeypatch):
    structure = importlib.import_module("zerosum.structure")
    G = make_group([2, 4])
    D = davenport(G).value
    sweep = [(occ, m) for occ, m, _ in extremal_sweep(G, D, 8) if m]
    bad = list(dict.fromkeys(m for _, m in sweep))[5]  # fail the sixth distinct set
    first = next(occ for occ, m in sweep if m == bad)
    real = structure.max_subgroups_in_extremal_set

    def fake(E):
        contained, verdict = real(E)
        return contained, (VerificationReport.fail("x", ()) if E.members == bad else verdict)

    monkeypatch.setattr(structure, "max_subgroups_in_extremal_set", fake)
    report = sweep_subgroup_es(G, D, 8)
    assert report.failed
    assert report.details["sequence"] == format_sequence(sequence(G, first))


def test_construct_unbounded_family_verifies_counts():
    for spec, gens in [("C2xC2", (1, 1)), ("C2xC4", (1, 0))]:
        G = make_group([int(c) for c in spec.replace("C", "").split("x")])
        H = subgroup_closure(G, [gens])
        D = davenport(G).value
        for k in range(1, 6):
            S = construct_unbounded_family(G, H, k)
            cv = count_all(S)
            e = len(S) - D + 1
            h = [x for x in H.elements if x != G.zero()][0]
            assert cv.zero_count == cv[h] == 1 << e


def test_cyclic_characterization():
    rep = check_cyclic_characterization(3, 5)
    assert rep.passed
    assert sorted(rep.details["extremals"]) == ["1^2", "1^3", "2^2", "2^3"]
    rep = check_cyclic_characterization(4, 8)
    assert rep.passed and rep.details["extremal_count"] == 4
    with pytest.raises(ValueError):
        check_cyclic_characterization(2, 6)
    with pytest.raises(ValueError):
        check_cyclic_characterization(5, 4)


# The catalog sweeps that check each Aut(G) orbit once, by the name of
# their kind in ``helpers.per_entry_sweep``.
CATALOG_SWEEPS = ("odd-structure", "corollary", "es-chain", "conjecture-1")
# The per-entry reference checks catalogs of at most this many entries:
# C2^4 at caps 6 and 7 (33,628 and 126,568 entries) and C2xC2xC4 at cap 8
# (18,232) would take it about two minutes.
REFERENCE_ENTRIES = 12_000


def run_catalog_sweep(kind, G, D, cap, budget):
    """The report of the catalog sweep ``kind``; the verify sweeps read
    their budget from ``structure.DEFAULT_BUDGET``, patched by the caller."""
    if kind == "conjecture-1":
        return conjecture1_harness(G, cap, budget)
    sweep = {"odd-structure": sweep_odd_structure, "corollary": sweep_corollary,
             "es-chain": sweep_es_chain}[kind]
    return sweep(G, D, cap)


@lru_cache(maxsize=None)
def reference_catalogs():
    """(G, D, cap, multisets materialized) for every group of order <= 16
    at each cap from D - 1 to D + 2 whose catalog has at most
    ``REFERENCE_ENTRIES`` entries."""
    cases = []
    for G in groups_up_to_order(16):
        D = davenport(G).value
        for cap in range(D - 1, D + 3):
            stats = SweepStats()
            stream = extremal_sweep(G, D, cap, prune=True, stats=stats)
            if sum(1 for _ in islice(stream, REFERENCE_ENTRIES + 1)) <= REFERENCE_ENTRIES:
                cases.append((G, D, cap, stats.visited))
    return tuple(cases)


@pytest.mark.parametrize("kind", CATALOG_SWEEPS)
def test_catalog_sweeps_match_the_per_entry_reference(monkeypatch, kind):
    # Oracle: helpers.per_entry_sweep, which runs the check on every entry
    # of the stream.  Each sweep checks an orbit once and must give the
    # same status, details and witnesses, uncut and, where the sweep has a
    # budget, cut at half its walk: such cuts end the walk inside orbits
    # (ones that do not fit, and ones expanded but released only up to the
    # last multiset visited).
    cases = reference_catalogs()
    assert len(cases) == 4 * 24 - 3
    for G, D, cap, visited in cases:
        budgets = [DEFAULT_BUDGET]
        if kind != "es-chain":  # es-chain walks with no budget
            budgets.append(visited // 2)
        for budget in budgets:
            monkeypatch.setattr(structure, "DEFAULT_BUDGET", budget)
            rep = run_catalog_sweep(kind, G, D, cap, budget)
            expected = per_entry_sweep(kind, G, D, cap, budget)
            assert (rep.status, rep.details, rep.witnesses) == expected, (G, cap, budget)


def image_under(G, occ, word):
    """The occurrences of the image of ``occ`` under the product of the
    permutations of element indices in ``word``."""
    elems, idx = all_elements(G), element_index(G)
    indices = [idx[g] for g in occ]
    for perm in word:
        indices = [perm[i] for i in indices]
    return [elems[i] for i in indices]


@lru_cache(maxsize=None)
def catalog_entries(G):
    D = davenport(G).value
    return D, [occ for occ, _, _ in extremal_sweep(G, D, D + 1, prune=True)]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_each_catalog_check_gives_an_automorphic_image_the_same_verdict(data):
    # Oracle: the check on S itself.  sigma, a random product of the strong
    # generators of Aut(G), maps an extremal S to sigma S, and every check
    # that a catalog sweep runs once per orbit must give sigma S the same
    # status and counts; only the text naming S's terms may differ.
    G = data.draw(st.sampled_from(groups_up_to_order(16)), label="G")
    D, entries = catalog_entries(G)
    occ = data.draw(st.sampled_from(entries), label="S")
    gens = _automorphism_group(G).gens
    word = data.draw(st.lists(st.sampled_from(gens), max_size=6)) if gens else []
    S = sequence(G, list(occ))
    T = sequence(G, image_under(G, occ, word))
    named = ("sequence", "minimals", "product", "removed")
    for check in (check_odd_group_structure, check_corollary_decomposition, check_es_chain):
        a, b = check(S, D), check(T, D)
        assert a.status == b.status, check
        assert ({k: v for k, v in a.details.items() if k not in named}
                == {k: v for k, v in b.details.items() if k not in named}), check
    a, b = minimal_zero_sums(S), minimal_zero_sums(T)
    assert (len(a.minimals), a.pairwise_disjoint) == (len(b.minimals), b.pairwise_disjoint)


def test_a_failing_check_names_the_entry_of_the_per_entry_reference(monkeypatch):
    # Every check is patched to fail on the S with exactly three distinct
    # terms, which Aut(G) keeps.  Each sweep must report what the
    # per-entry reference does: the first failure in walk order for the
    # verify sweeps, and the least by length, then occurrences, for
    # conjecture 1.  On C4xC4 at cap 9 the two differ.
    def fails(S):
        return len(S.terms) == 3

    def failing(check):
        def fake(S, D):
            if not fails(S):
                return check(S, D)
            return VerificationReport("x", "fail", {
                "removed": format_element(S.group, S.support()[0])}, (S,))
        return fake

    for name in ("check_odd_group_structure", "check_corollary_decomposition",
                 "check_es_chain"):
        fake = failing(getattr(structure, name))
        monkeypatch.setattr(structure, name, fake)
        monkeypatch.setattr(helpers, name, fake)
    real = minimal_zero_sums

    def fake_minimals(S):
        return MinZeroSumReport(S, (), False) if fails(S) else real(S)

    monkeypatch.setattr(search, "minimal_zero_sums", fake_minimals)
    monkeypatch.setattr(helpers, "minimal_zero_sums", fake_minimals)
    for G, cap in ((make_group([4, 4]), 9), (C33, 7), (make_group([2, 2, 4]), 7)):
        D = davenport(G).value
        for kind in CATALOG_SWEEPS:
            rep = run_catalog_sweep(kind, G, D, cap, DEFAULT_BUDGET)
            expected = per_entry_sweep(kind, G, D, cap, DEFAULT_BUDGET)
            assert (rep.status, rep.details, rep.witnesses) == expected, (G, kind)
            qualifies = kind != "conjecture-1" or condition_profile(G).cond_iii
            assert rep.status == ("fail" if qualifies else "skipped"), (G, kind)
    stream = [occ for occ, _, _ in extremal_sweep(make_group([4, 4]), 7, 9, prune=True)
              if len(set(occ)) == 3]
    assert stream[0] != min(stream, key=lambda occ: (len(occ), occ))
