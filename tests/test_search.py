import dataclasses
import importlib
import json
import tracemalloc
from itertools import product
from math import comb

import pytest

from zerosum import (
    all_elements,
    conjecture1_harness,
    conjecture2_harness,
    construct_extremal,
    count_all,
    count_brute_vector,
    davenport,
    find_extremals,
    format_sequence,
    is_zero_sum_free,
    make_group,
    parse_sequence,
    random_search,
    seq_sum,
    sequence,
)
from zerosum import cli, counting, groups, search, structure, symmetry
from zerosum.davenport import zero_sum_free_sequences
from zerosum.reports import VerificationReport, sweep_status
from zerosum.search import splitmix64
from zerosum.sequences import Sequence, seq_key

from helpers import (
    automorphisms,
    every_band,
    groups_up_to_order,
    reference_random_search,
    reference_transform_sweep,
)

C2 = make_group([2])
C3 = make_group([3])
C5 = make_group([5])
C22 = make_group([2, 2])
C33 = make_group([3, 3])


def test_find_extremals_c3():
    catalog = find_extremals(C3, 5)
    got = sorted(format_sequence(S) for S, _ in catalog.entries)
    assert got == ["1^2", "1^3", "2^2", "2^3"]
    assert catalog.max_length_found == 3
    assert catalog.exhaustive


def test_find_extremals_c2_unbounded_family():
    catalog = find_extremals(C2, 6)
    assert [format_sequence(S) for S, _ in catalog.entries] == [
        "1", "1^2", "1^3", "1^4", "1^5", "1^6"
    ]


def test_find_extremals_c3xc3_contains_generator_product():
    catalog = find_extremals(C33, 7)
    assert catalog.max_length_found == 6
    entries = {S.terms for S, _ in catalog.entries}
    assert parse_sequence(C33, "(1,0)^3 (0,1)^3").terms in entries


def test_catalog_entries_reverify():
    for G, cap in ((C3, 5), (C22, 5), (make_group([4]), 6)):
        catalog = find_extremals(G, cap)
        for S, E in catalog.entries:
            assert S.multiplicity(G.zero()) == 0
            exponent = len(S) - catalog.D + 1
            assert count_brute_vector(S).zero_count == 1 << exponent
            assert E.bound_exponent == exponent


def test_catalog_sorted_and_budget():
    catalog = find_extremals(C33, 6)
    keys = [(len(S), S.expanded()) for S, _ in catalog.entries]
    assert keys == sorted(keys)
    truncated = find_extremals(C33, 6, budget=50)
    assert not truncated.exhaustive
    for cap in (1, 6):
        with pytest.raises(ValueError):
            find_extremals(C33, cap, budget=-1)


def test_budget_keeps_the_entries_of_a_prefix_of_the_walk(monkeypatch):
    # A catalog's budget counts the multisets that its walk materializes:
    # the nodes of the walk cut by Aut(G), and at the first member of each
    # orbit that attains the bound, the rest of the orbit (here from the
    # listed automorphisms).  With N that count at cap D + 2, a budget b
    # ends the walk at the first multiset where the count reaches b, keeps
    # exactly the entries lex-<= it, materializes min(b, N) and is
    # exhaustive exactly when b >= N.  Every b below 64 and from N - 2 to
    # N + 1 is tried, and every 17th between: trying every b makes the
    # test quadratic in N.
    from zerosum.counting import SweepStats, limb_layout
    from zerosum.groups import _automorphism_group, element_index

    walks = []

    @dataclasses.dataclass
    class Recorded(SweepStats):
        def __post_init__(self):
            walks.append(self)

    monkeypatch.setattr(search, "SweepStats", Recorded)
    between_sibling_leaves = orbit_cuts = 0
    for G in groups_up_to_order(8):
        D = davenport(G).value
        cap = D + 2
        auts = automorphisms(G)
        idx = element_index(G)
        mask = limb_layout(G, cap).mask
        # The cut walk, and the count materialized up to each multiset.
        walk, totals, orbits = [], [], set()
        total = 0
        for occ, packed in symmetry.pruned_walk(
                G, cap, [(0, (1 << (cap - D + 1)) + 1)] * (cap + 1), _automorphism_group(G)):
            occ = tuple(occ)
            total += 1
            if len(occ) >= D - 1 and packed & mask == 1 << (len(occ) - D + 1):
                orbit = {tuple(sorted(perm[idx[g]] for g in occ)) for perm in auts}
                if min(orbit) not in orbits:
                    orbits.add(min(orbit))
                    total += len(orbit) - 1
            walk.append(occ)
            totals.append(total)
        N = total
        entries = find_extremals(G, cap).entries
        for b in range(N + 2):
            if 64 <= b < N - 2 and b % 17:
                continue
            catalog = find_extremals(G, cap, budget=b)
            stats = walks[-1]
            assert catalog.exhaustive == (b >= N), (G, b)
            assert (stats.visited, stats.exhaustive) == (min(b, N), b >= N)
            if b >= N:
                assert catalog.entries == entries
                continue
            k = next((k for k, t in enumerate(totals) if t >= b), None)
            last = walk[k] if b else None
            assert stats.last == last, (G, b)
            assert catalog.entries == tuple(
                (S, E) for S, E in entries if b and S.expanded() <= last), (G, b)
            if b and totals[k] > b:
                orbit_cuts += 1  # the orbit of walk[k] did not fit
            elif b and len(walk[k]) == len(walk[k + 1]) == cap \
                    and walk[k][:-1] == walk[k + 1][:-1]:
                between_sibling_leaves += 1  # the walk ends between two leaves of one parent
    assert between_sibling_leaves and orbit_cuts


def test_pruned_catalog_matches_unpruned_sweep():
    # Oracle: the unpruned sweep filtered on the zero count, at every cap
    # from D-1 to D+2 whose unpruned sweep visits at most 100,000 nodes.
    from math import comb

    from helpers import groups_up_to_order
    from zerosum.counting import limb_layout, sweep_counts

    checked = 0
    for G in groups_up_to_order(16):
        D = davenport(G).value
        for cap in range(D - 1, D + 3):
            if sum(comb(G.order - 2 + L, L) for L in range(cap + 1)) > 100_000:
                break
            unpack = limb_layout(G, cap).unpack
            expected = []
            for occ, packed in sweep_counts(G, cap, every_band(cap)):
                counts = unpack(packed)
                if len(occ) >= D - 1 and counts[0] == 1 << (len(occ) - D + 1):
                    expected.append((tuple(occ), counts))
            catalog = find_extremals(G, cap)
            assert catalog.exhaustive
            got = {S.expanded(): E for S, E in catalog.entries}
            assert len(got) == len(expected), (G, cap)
            for occ, counts in expected:
                E = got[occ]
                assert E.members == {
                    g for g, c in zip(all_elements(G), counts) if c == counts[0]
                }, (G, cap, occ)
            checked += 1
    assert checked == 59  # (group, cap) pairs within the node limit


def test_catalogs_past_order_64_build_no_automorphism_group(monkeypatch):
    # The catalog walk cuts by Aut(G) only up to order 64, where the tests
    # check its Schreier-Sims chain; past it, it takes the trivial group.
    def refuse(G):
        raise RuntimeError(f"Aut({G}) built")

    monkeypatch.setattr(symmetry, "_automorphism_group", refuse)
    for G in (make_group([2] * 7), make_group([128]), make_group([2, 64])):
        catalog = find_extremals(G, davenport(G).value + 1, budget=2_000)
        assert not catalog.exhaustive, G
    with pytest.raises(RuntimeError, match="built"):
        find_extremals(make_group([2] * 6), 7, budget=2_000)


def test_the_walk_without_a_group_builds_nothing_the_cut_needs(monkeypatch):
    # Past order 64, and for the zero-sum-free enumeration, the pruned walk
    # takes no group: it builds no automorphism group and no stabilizer.
    # Below cap D - 1 a catalog returns before building either.
    def refuse(*args):
        raise RuntimeError("a symmetry table was built")

    for module in (groups, importlib.import_module("zerosum.davenport"), symmetry):
        for name in ("_automorphism_group", "_fix_point"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    pairs = list(zero_sum_free_sequences(make_group([2] * 7), 2))
    assert len(pairs) == comb(127, 2)  # two distinct nonzero elements
    catalog = find_extremals(make_group([65]), 66, budget=3_000)
    assert (catalog.exhaustive, len(catalog.entries)) == (False, 2)
    catalog = find_extremals(make_group([2] * 6), 3)
    assert (catalog.exhaustive, catalog.entries) == (True, ())


def test_an_orbit_past_the_budget_ends_the_catalog(monkeypatch, capsys):
    # The first extremal multiset of C2^6 at cap 7 is e_1^2 e_2 ... e_6, and
    # the orbit of the bases alone has |GL(6,2)| / 6! (about 2.8 * 10^7)
    # members.  The orbit is expanded only as far as the budget allows, and
    # the catalog ends, partial, at that multiset.
    calls = []
    orbit = symmetry._orbit

    def recorded(gens, key, members, room):
        found = orbit(gens, key, members, room)
        calls.append((room, found))
        return found

    monkeypatch.setattr(symmetry, "_orbit", recorded)
    assert cli.main(["extremal", "C2xC2xC2xC2xC2xC2", "--max-len", "7",
                     "--budget", "1000", "--json", "--no-timestamp"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["exhaustive"], result["count"]) == (False, 1)
    assert result["entries"][0]["sequence"] == (
        "(0,0,0,0,0,1)^2 (0,0,0,0,1,0) (0,0,0,1,0,0) (0,0,1,0,0,0) "
        "(0,1,0,0,0,0) (1,0,0,0,0,0)")
    [(room, found)] = calls
    assert 0 < room < 1000 and found is None


def test_find_extremals_below_d_minus_one_is_empty_and_exhaustive():
    for G in (C3, C33, make_group([2, 4])):
        D = davenport(G).value
        for cap in range(-1, D - 1):
            catalog = find_extremals(G, cap, budget=1)
            assert catalog.entries == () and catalog.exhaustive
            assert catalog.length_cap == cap and catalog.max_length_found == 0


def test_catalog_is_enumeration_order_independent():
    # re-deriving the catalog from a reversed-order enumeration (filtering
    # by count_all directly) yields the same entry set
    from itertools import combinations_with_replacement

    from zerosum import all_elements, sequence

    for G, cap in ((C3, 5), (make_group([4]), 6), (C22, 5)):
        catalog = find_extremals(G, cap)
        expected = {S.terms for S, _ in catalog.entries}
        got = set()
        allowed = list(all_elements(G)[1:])[::-1]
        for length in range(catalog.D - 1, cap + 1):
            for combo in combinations_with_replacement(allowed, length):
                S = sequence(G, combo)
                if count_all(S).zero_count == 1 << (length - catalog.D + 1):
                    got.add(S.terms)
        assert got == expected


def test_construct_extremal_examples():
    S = construct_extremal(C5, (2,), 6)
    assert S == parse_sequence(C5, "1^2 4^2 0^2")
    assert count_all(S)[(2,)] == 4

    # g = 0 at the minimum length: the negated base, exactly one zero subset
    S0 = construct_extremal(C5, (0,), 4)
    assert len(S0) == 4 and is_zero_sum_free(S0)
    assert count_all(S0).zero_count == 1

    with pytest.raises(ValueError):
        construct_extremal(C5, (2,), 3)


def test_construct_extremal_refuses_a_wrong_davenport_constant(monkeypatch):
    # With D(C5) taken as 4, the first base 1^3 reaches no subsum 4.
    real = search.davenport
    monkeypatch.setattr(search, "davenport",
                        lambda G: dataclasses.replace(real(G), value=real(G).value - 1))
    with pytest.raises(RuntimeError, match="must be wrong"):
        construct_extremal(C5, (4,), 4)


def test_construct_extremal_reaches_every_element():
    for G in [make_group([])] + groups_up_to_order(16):
        D = davenport(G).value
        for g in all_elements(G):
            for m in (D - 1, D + 1):
                S = construct_extremal(G, g, m)
                assert len(S) == m
                assert count_all(S)[g] == 1 << (m - D + 1)


def test_conjecture1():
    assert conjecture1_harness(C33, 7).passed
    assert conjecture1_harness(make_group([4]), 8).passed
    assert conjecture1_harness(C5, 8).passed
    rep = conjecture1_harness(C22, 6)
    assert rep.status == "skipped" and rep.details["qualifies"] is False


def test_conjecture1_reports_the_first_failing_entry(monkeypatch, capsys):
    # Every entry fails: the counterexample is the first one in seq_key
    # order, shortest first, and the whole catalog was counted.
    def never_disjoint(S):
        return structure.MinZeroSumReport(S, (), False)

    monkeypatch.setattr(search, "minimal_zero_sums", never_disjoint)
    catalog = find_extremals(C33, 7)
    assert len(catalog.entries) > 1
    first = min((S for S, _ in catalog.entries), key=seq_key)
    rep = conjecture1_harness(C33, 7)
    assert rep.status == "fail"
    assert rep.details["counterexample"] == format_sequence(first)
    assert rep.witnesses == (first,)
    assert len(first) == min(len(S) for S, _ in catalog.entries)
    assert rep.details["extremal_checked"] == len(catalog.entries)
    assert "result" not in rep.details
    assert cli.main(["conjecture", "1", "C3xC3", "--max-len", "7", "--json",
                     "--no-timestamp"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "fail"


def test_conjecture2_c3xc3():
    rep = conjecture2_harness(C33, 7)
    assert rep.passed
    assert rep.details["bound"] == 6
    assert rep.details["max_qualifying_length"] == 6
    assert rep.details["witness"] == "(0,1)^3 (1,0)^3"
    assert rep.details["witness_extremal"]
    assert rep.details["witness_qualifies"]
    assert rep.details["bound_attained"]


def test_conjecture2_c5():
    rep = conjecture2_harness(C5, 7)
    assert rep.passed
    assert rep.details["max_qualifying_length"] == 5 == rep.details["bound"]
    assert rep.details["witness"] == "1^5"
    assert rep.details["witness_qualifies"]


def test_conjecture2_c2xc2_family_is_empty():
    # Over C2xC2 the identity sum_g N_g = 2^|S| forces E(S) = G whenever
    # E(S) is nonempty, so no sequence passes the subgroup-free filter;
    # the designated witness still attains the bound with respect to 0.
    rep = conjecture2_harness(C22, 5)
    assert rep.passed
    assert rep.details["qualifying_sequences"] == 0
    assert rep.details["max_qualifying_length"] is None
    assert rep.details["witness_length"] == 4 == rep.details["bound"]
    assert rep.details["witness_extremal"]
    assert not rep.details["witness_qualifies"]


def test_conjecture2_cap_validation():
    with pytest.raises(ValueError):
        conjecture2_harness(C5, 4)


def test_sweep_status_never_passes_a_truncated_sweep():
    got = [sweep_status(failed, exhaustive)
           for failed, exhaustive in product((True, False), repeat=2)]
    assert got == ["fail", "fail", "pass", "partial"]
    assert VerificationReport("x", "partial").status == "partial"
    with pytest.raises(ValueError):
        VerificationReport("x", "unknown")


def test_truncated_harnesses_and_sweeps_report_partial(monkeypatch):
    for rep in (conjecture1_harness(C33, 7, budget=10),
                conjecture2_harness(C5, 7, budget=10)):
        assert rep.status == "partial", rep.check
        assert rep.details["exhaustive"] is False
    monkeypatch.setattr(structure, "DEFAULT_BUDGET", 20)
    for rep in (structure.sweep_odd_structure(C33, 5, 10),
                structure.sweep_corollary(C33, 5, 8),
                structure.sweep_equivalences(make_group([12]), 14, 10)):
        assert rep.status == "partial", rep.check
        assert rep.details["stats"] == {"exhaustive": False}


def test_random_search_deterministic():
    a = random_search(C22, 10, 2000, seed=1)
    b = random_search(C22, 10, 2000, seed=1)
    assert a == b
    assert random_search(C22, 5, 0, seed=0).entries == ()
    c = random_search(C22, 10, 2000, seed=2)
    assert not c.exhaustive


def test_random_search_hits_verify():
    catalog = random_search(C22, 10, 3000, seed=1)
    assert catalog.entries
    for S, _ in catalog.entries:
        assert S.multiplicity((0, 0)) == 0
        assert count_all(S).zero_count == 1 << (10 - catalog.D + 1)


@pytest.mark.parametrize("shape,length,trials,seed", [
    ((), 3, 20, 1),  # the trivial group: nothing to draw
    ((2,), 4, 50, 1),  # one nonzero element: every draw after the first repeats
    ((3, 3), 0, 10, 1),
    ((3, 3), 3, 200, 1),  # D - 2: the exponent is negative
    ((3, 3), 4, 200, 1),  # D - 1
    ((3, 3), 5, 300, 1),  # D
    ((3, 3), 5, 300, 7),
    ((3, 3), 7, 300, 2),  # D + 2
    ((2, 2, 2, 2), 7, 300, 3),  # D + 2, most draws hit
    ((3, 3), 5, 0, 1),
    ((5,), 6, 200, 3),
    ((2, 4), 6, 300, 5),
    ((2, 2, 2, 2), 6, 300, 1),
    ((2, 2, 2, 2), 6, 300, 2),
    ((4, 4), 8, 3000, 3),  # one hit
])
def test_random_search_matches_reference(shape, length, trials, seed):
    G = make_group(list(shape))
    assert random_search(G, length, trials, seed) == \
        reference_random_search(G, length, trials, seed)


def test_random_search_memory_does_not_grow_with_the_trials():
    # Only the hits are kept, so the traced peak of 20,000 draws stays
    # within a small constant of the peak of 2,000 (about 3 KiB against
    # 2 KiB; keeping every distinct draw, the peaks were 2,226 KiB and
    # 331 KiB).
    G = make_group([4, 4])
    random_search(G, 8, 10, seed=3)  # the probe's tables, built once
    peaks = []
    for trials in (2_000, 20_000):
        tracemalloc.start()
        try:
            random_search(G, 8, trials, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 32 * 1024, peaks


def test_random_search_refuses_a_length_above_the_cap_only_to_count(monkeypatch):
    monkeypatch.setattr(counting, "MAX_LENGTH", 8)
    with pytest.raises(ValueError, match="length 9 exceeds the cap 8"):
        random_search(C5, 9, 1, seed=1)
    assert random_search(C5, 9, 0, seed=1).entries == ()
    assert random_search(make_group([]), 9, 5, seed=1).entries == ()


def _record_probe(monkeypatch, G, disagree_on=None):
    """Record the trials ``sweep_transform`` hands to its probe over G:
    the returned list gains the (S, T) pair of each, rebuilt from the
    probe's arguments.  With ``disagree_on``, the probe's N_0(W) is off by
    one on the trial with that (1-based) index in the list."""
    real = search._transform_probe
    elems = all_elements(G)
    pairs = []

    def recording(H):
        probe = real(H)

        def record(positions, kept):
            assert list(positions) == sorted(positions)
            S = sequence(G, [elems[p] for p in positions])
            assert len(kept) == len(S.terms)
            pairs.append((S, sequence(G, {g: k for (g, _), k in zip(S.terms, kept)})))
            lhs, rhs = probe(positions, kept)
            return lhs, rhs + (len(pairs) == disagree_on)

        return record

    monkeypatch.setattr(search, "_transform_probe", recording)
    return pairs


@pytest.mark.parametrize("shape,max_len,trials,seed", [
    ((), 5, 20, 1),  # the trivial group: every term is zero
    ((2,), 6, 40, 1),
    ((2,), 0, 10, 3),  # --max-len 0: every S is empty
    ((3, 3), 8, 0, 1),  # no trials
    ((5,), 12, 50, 11),
    ((6,), 14, 60, 3),
    ((2, 4), 10, 80, 2),
    ((8, 8), 30, 60, 3),
    ((2, 2, 4), 20, 60, 7),
    ((2, 2, 4), 100, 10, 7),  # 128-bit limbs
])
def test_transform_sweep_draws_the_reference_stream(monkeypatch, shape, max_len,
                                                    trials, seed):
    G = make_group(list(shape))
    pairs = _record_probe(monkeypatch, G)
    report = search.sweep_transform(G, max_len, trials, seed)
    assert report == VerificationReport.ok("transform-sweep", group=G.spec(),
                                           trials=trials, max_len=max_len)
    assert pairs == reference_transform_sweep(G, max_len, trials, seed)


def test_transform_sweep_builds_no_sequence_on_a_passing_trial(monkeypatch):
    G = make_group([8, 8])

    def refuse(*args, **kwargs):
        raise AssertionError("a passing trial built a Sequence or counted one")

    monkeypatch.setattr(Sequence, "__post_init__", refuse)
    monkeypatch.setattr(search, "count_all", refuse)
    monkeypatch.setattr(search, "transform", refuse)
    report = search.sweep_transform(G, 30, 60, 3)
    monkeypatch.undo()
    assert report.passed and report.details["trials"] == 60


def test_transform_sweep_reports_the_failing_trial(monkeypatch, capsys):
    G = make_group([2, 2, 4])
    pairs = _record_probe(monkeypatch, G, disagree_on=3)
    report = search.sweep_transform(G, 20, 10, 7)
    S, T = reference_transform_sweep(G, 20, 10, 7)[2]
    assert len(pairs) == 3 and len(S) and len(T) < len(S)
    lhs = count_all(S)[seq_sum(T)]
    assert report == VerificationReport.fail(
        "transform-sweep", (S,), group="C2xC2xC4", sequence=format_sequence(S),
        subsequence=format_sequence(T), lhs=lhs, rhs=lhs + 1)
    # The same failure through the CLI exits 1.
    pairs.clear()
    code = cli.main(["verify", "transform", "C2xC2xC4", "--max-len", "20",
                     "--trials", "10", "--seed", "7", "--json", "--no-timestamp"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["status"] == "fail"
    assert payload["result"]["details"] == report.details


def test_splitmix64_known_stream():
    # reference values for seed 0 (SplitMix64 test vectors)
    state = 0
    out = []
    for _ in range(3):
        state, v = splitmix64(state)
        out.append(v)
    assert out == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
