import dataclasses
import json
import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from zerosum import (
    all_elements,
    count_all,
    count_brute_vector,
    davenport,
    divides,
    extremal_set,
    format_sequence,
    iterate_multisets,
    make_group,
    parse_sequence,
    seq_sum,
    sequence,
    subsums,
    transform,
)
from zerosum import counting, symmetry
from zerosum.cli import main
from zerosum.counting import (
    MAX_LENGTH,
    Limbs,
    SweepStats,
    count_packed,
    extremal_sweep,
    limb_layout,
    limb_width,
    sweep_counts,
    zero_count,
)
from zerosum.groups import _automorphism_group, _Stabilizer, element_index
from zerosum.sequences import empty_sequence
from zerosum.symmetry import pruned_walk

from helpers import (
    automorphisms,
    cyclic_zero_free_counts,
    every_band,
    groups_up_to_order,
    naive_count,
    sweep_oracle,
)

C2 = make_group([2])
C3 = make_group([3])
C22 = make_group([2, 2])


def counts_of(G, text):
    return count_all(parse_sequence(G, text)).as_dict()


def test_count_all_frozen_examples():
    # expected histograms computed by subset enumeration (count_brute_vector)
    assert counts_of(C3, "1^2 2") == {(0,): 3, (1,): 3, (2,): 2}
    assert counts_of(C2, "1^4") == {(0,): 8, (1,): 8}
    assert counts_of(C3, "1^3") == {(0,): 2, (1,): 3, (2,): 3}
    assert counts_of(C3, "1^2") == {(0,): 1, (1,): 2, (2,): 1}
    assert counts_of(C3, "empty") == {(0,): 1, (1,): 0, (2,): 0}


def test_count_all_refuses_a_vector_of_the_wrong_total(monkeypatch):
    # The normalization check is a raise, not an assert, so it also holds
    # under ``python -O``.
    real = counting.count_packed

    def one_too_many(S):
        packed, limbs = real(S)
        return packed + 1, limbs

    monkeypatch.setattr(counting, "count_packed", one_too_many)
    with pytest.raises(RuntimeError, match="does not sum"):
        count_all(parse_sequence(C3, "1^2 2"))


def test_count_brute_matches_naive_subset_iteration():
    for text in ("empty", "1", "1^2 2", "1^3 2^2", "1 2^4"):
        S = parse_sequence(C3, text)
        for g in all_elements(C3):
            assert count_brute_vector(S)[g] == naive_count(S, g)
    S = parse_sequence(C22, "(1,0) (0,1) (1,1)^2")
    for g in all_elements(C22):
        assert count_brute_vector(S)[g] == naive_count(S, g)


def test_count_brute_examples():
    assert count_brute_vector(parse_sequence(C3, "1^3"))[(0,)] == 2
    assert count_brute_vector(parse_sequence(C3, "1^2"))[(1,)] == 2
    with pytest.raises(ValueError):
        count_brute_vector(parse_sequence(C2, "1^26"))


def test_oracle_equivalence_exhaustive_small():
    for G in (C3, make_group([4])):
        for length in range(0, 7):
            for S in iterate_multisets(G, length):
                assert count_all(S) == count_brute_vector(S)


def test_oracle_equivalence_random():
    rng = random.Random(12345)
    pool = groups_up_to_order(8)
    for _ in range(300):
        G = rng.choice(pool)
        elems = all_elements(G)
        S = sequence(G, [rng.choice(elems) for _ in range(rng.randint(0, 12))])
        assert count_all(S) == count_brute_vector(S)


def test_normalization():
    rng = random.Random(5)
    for G in (C3, C22, make_group([8])):
        elems = all_elements(G)
        for _ in range(50):
            S = sequence(G, [rng.choice(elems) for _ in range(rng.randint(0, 10))])
            assert sum(count_all(S).counts) == 1 << len(S)


def test_zero_padding_doubles_counts():
    rng = random.Random(6)
    for G in (C3, C22):
        elems = all_elements(G)
        for _ in range(30):
            S = sequence(G, [rng.choice(elems) for _ in range(rng.randint(0, 8))])
            padded = sequence(G, dict(S.terms) | {G.zero(): S.multiplicity(G.zero()) + 1})
            before = count_all(S)
            after = count_all(padded)
            assert after.counts == tuple(2 * c for c in before.counts)


def test_append_law():
    rng = random.Random(7)
    for G in (C3, C22, make_group([6])):
        elems = all_elements(G)
        for _ in range(40):
            S = sequence(G, [rng.choice(elems) for _ in range(rng.randint(0, 8))])
            a = rng.choice(elems)
            bigger = sequence(G, dict(S.terms) | {a: S.multiplicity(a) + 1})
            cv, big = count_all(S), count_all(bigger)
            for g in elems:
                shifted = tuple((x - y) % n for x, y, n in zip(g, a, G.invariants))
                assert big[g] == cv[g] + cv[shifted]


def test_subsums_examples():
    assert subsums(empty_sequence(C3)) == {(0,)}
    assert subsums(parse_sequence(C3, "1^2")) == {(0,), (1,), (2,)}
    assert subsums(parse_sequence(C22, "(1,0)")) == {(0, 0), (1, 0)}


def test_subsums_matches_positive_counts():
    # Oracle: the Gray-code walk, since subsums reads count_packed itself.
    rng = random.Random(8)
    for G in (make_group([1]), C3, C22, make_group([5])):
        elems = all_elements(G)
        samples = [empty_sequence(G)] + [
            sequence(G, [rng.choice(elems) for _ in range(rng.randint(0, 8))])
            for _ in range(40)
        ]
        for S in samples:
            cv = count_brute_vector(S)
            assert subsums(S) == {g for g in elems if cv[g] > 0}


def test_transform_examples():
    S = parse_sequence(C3, "1^2 2")
    T = parse_sequence(C3, "2")
    W = transform(S, T)
    assert W == parse_sequence(C3, "2^3")
    assert count_all(W).zero_count == count_all(S)[(2,)] == 2
    # empty T: counting zero-sums is negation-invariant
    W = transform(S, empty_sequence(C3))
    assert count_all(W).zero_count == count_all(S).zero_count
    # T = S: counts at the total sum match counts at zero
    W = transform(S, S)
    assert W == S
    assert count_all(S)[seq_sum(S)] == count_all(S).zero_count == 3
    with pytest.raises(ValueError):
        transform(T, S)


def test_transform_identity_random():
    rng = random.Random(9)
    pool = groups_up_to_order(8)
    for _ in range(200):
        G = rng.choice(pool)
        elems = all_elements(G)
        S = sequence(G, [rng.choice(elems) for _ in range(rng.randint(0, 10))])
        T = sequence(G, {g: rng.randint(0, m) for g, m in S.terms})
        assert divides(T, S)
        W = transform(S, T)
        assert len(W) == len(S)
        assert count_all(S)[seq_sum(T)] == count_all(W).zero_count


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_transform_probe_matches_brute_force(data):
    # (N_{sum T}(S), N_0(transform(S, T))) from the Gray-code oracle, with
    # S and T built from elements, not positions.
    G = data.draw(st.sampled_from([make_group([])] + groups_up_to_order(16)), label="G")
    elems = all_elements(G)
    positions = sorted(data.draw(st.lists(st.integers(0, G.order - 1), max_size=12)))
    S = sequence(G, [elems[p] for p in positions])
    kept = [data.draw(st.integers(0, m)) for _, m in S.terms]
    T = sequence(G, {g: k for (g, _), k in zip(S.terms, kept)})
    expected = (count_brute_vector(S)[seq_sum(T)],
                count_brute_vector(transform(S, T)).zero_count)
    assert counting._transform_probe(G)(positions, kept) == expected


def test_transform_probe_on_wide_limbs():
    # Lengths past 30 and 62 take 64- and 128-bit limbs, beyond the brute
    # force oracle: compare with count_all on the Sequence-level rewrite.
    rng = random.Random(20)
    for shape in [(2,), (6,), (2, 2, 4), (256,)]:
        G = make_group(list(shape))
        elems = all_elements(G)
        probe = counting._transform_probe(G)
        for length in (31, 62, 63, 70):
            positions = sorted(rng.randrange(G.order) for _ in range(length))
            S = sequence(G, [elems[p] for p in positions])
            kept = [rng.randint(0, m) for _, m in S.terms]
            T = sequence(G, {g: k for (g, _), k in zip(S.terms, kept)})
            assert probe(positions, kept) == (count_all(S)[seq_sum(T)],
                                              count_all(transform(S, T)).zero_count)


@pytest.mark.parametrize("wrong", [1, 2], ids=["S", "W"])
def test_transform_probe_refuses_a_vector_of_the_wrong_total(monkeypatch, wrong):
    # The probe appends T, then S = T R and W = T (-R) from T's vector.
    # Each of S and W is checked, by a raise that ``python -O`` keeps.
    real = counting._append
    calls = []

    def one_off(x, term_ops):
        calls.append(None)
        return real(x, term_ops) + (len(calls) - 1 == wrong)

    monkeypatch.setattr(counting, "_append", one_off)
    probe = counting._transform_probe(C3)
    with pytest.raises(RuntimeError, match="does not sum"):
        probe([1, 1, 2], [1, 0])


def test_transform_probe_refuses_lengths_above_the_cap(monkeypatch):
    monkeypatch.setattr(counting, "MAX_LENGTH", 8)
    probe = counting._transform_probe(C2)
    assert probe([1] * 8, [3]) == (1 << 7, 1 << 7)
    with pytest.raises(ValueError, match="length 9 exceeds the cap 8"):
        probe([1] * 9, [3])


def test_extremal_set_examples():
    E = extremal_set(parse_sequence(C3, "1^3"), 3)
    assert E.members == {(0,)} and E.bound_exponent == 1
    E = extremal_set(parse_sequence(C3, "1^2"), 3)
    assert E.members == {(0,), (2,)} and E.bound_exponent == 0
    E = extremal_set(parse_sequence(C2, "1^4"), 2)
    assert E.members == {(0,), (1,)}
    with pytest.raises(ValueError):
        extremal_set(parse_sequence(C3, "1"), 3)


def test_one_and_all_sweep_order_8():
    # every zero-free sequence up to length D+4 on every group of order <= 8
    from zerosum import davenport

    for G in groups_up_to_order(8):
        D = davenport(G).value
        limbs = limb_layout(G, D + 4)
        for occ, packed in sweep_counts(G, D + 4, every_band(D + 4)):
            counts = limbs.unpack(packed)
            exponent = len(occ) - D + 1
            if exponent < 0:
                continue
            bound = 1 << exponent
            if any(c == bound for c in counts):
                assert all(c >= bound for c in counts), occ


def _check_census_sweeps(G, D, max_len, statuses, rows=None):
    """Both census sweeps against ``sweep_oracle``: status, details and
    witness; records each status reached in ``statuses``."""
    for check, sweep in (("lower-bound", counting.sweep_lower_bound),
                         ("one-and-all", counting.sweep_one_and_all)):
        status, details = sweep_oracle(G, D, max_len, check, rows)
        report = sweep(G, D, max_len)
        assert (report.status, report.details) == (status, details), \
            (G, check, D, max_len)
        if status == "fail":
            assert [format_sequence(S) for S in report.witnesses] == \
                [details["sequence"]]
        statuses[check].add(status)


@pytest.mark.parametrize("G", [make_group([])] + groups_up_to_order(8), ids=str)
def test_census_sweeps_match_the_brute_force_oracle(G):
    # Every max_len from 0 to D+2 and every D' from D-2 to D+2, so both
    # sweeps reach their fail branch as well as their pass branch.
    D = davenport(G).value
    statuses = {"lower-bound": set(), "one-and-all": set()}
    for max_len in range(D + 3):
        for D2 in range(D - 2, D + 3):
            _check_census_sweeps(G, D2, max_len, statuses)
    # On C1 every count is the zero count, so one-and-all cannot fail.
    assert statuses["lower-bound"] == {"pass", "fail"}
    assert statuses["one-and-all"] == ({"pass", "fail"} if G.order > 1 else {"pass"})


WIDTHS = {14: 16, 15: 32, 30: 32, 31: 64, 70: 128, 130: 192}


@pytest.mark.parametrize("max_len", sorted(WIDTHS))
def test_census_sweeps_on_wide_limbs_match_the_binomial_oracle(max_len):
    # Lengths on both sides of each step of the limb width, up to 128- and
    # 192-bit limbs, past the reach of the Gray-code oracle; these counts
    # come from binomial sums.
    assert limb_layout(C2, max_len).width == WIDTHS[max_len]
    statuses = {"lower-bound": set(), "one-and-all": set()}
    for G in (C2, C3):
        D = davenport(G).value
        rows = cyclic_zero_free_counts(G.order, max_len)
        for D2 in (D - 1, D, D + 1):
            _check_census_sweeps(G, D2, max_len, statuses, rows)
    assert statuses == {"lower-bound": {"pass", "fail"},
                        "one-and-all": {"pass", "fail"}}


def _in_band(occ, counts, thresholds):
    """Whether some count lies in the band [lo, hi) of len(occ), if any."""
    band = thresholds[len(occ)]
    return band is not None and any(band[0] <= c < band[1] for c in counts)


def test_sweep_counts_matches_count_all():
    # Under every_band, the stream is count_all on every zero-free
    # multiset up to length 4.  Under other bands it is that stream
    # restricted to the multisets with a count in the band of their
    # length, and the walk still visits all C(|G| - 1 + 4, 4) of them.
    thresholds = [(1, 2), (1, 2), None, (2, 3), (3, 9)]
    for G in groups_up_to_order(8):
        limbs = limb_layout(G, 4)
        stream = [(tuple(occ), limbs.unpack(packed))
                  for occ, packed in sweep_counts(G, 4, every_band(4))]
        expected = {}
        for length in range(0, 5):
            for S in iterate_multisets(G, length, exclude_zero=True):
                expected[S.expanded()] = count_all(S).counts
        assert dict(stream) == expected and len(stream) == len(expected)
        stats = SweepStats()
        assert [
            (tuple(occ), limbs.unpack(packed))
            for occ, packed in sweep_counts(G, 4, thresholds, stats=stats)
        ] == [(occ, counts) for occ, counts in stream
              if _in_band(occ, counts, thresholds)]
        assert stats.visited == comb(G.order - 1 + 4, 4) and stats.exhaustive


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from([(1,), (2,), (3,), (4,), (2, 2), (5,), (6,), (2, 4), (3, 3)]),
    max_length=st.integers(-1, 5),
    zero_ceiling=st.integers(0, 40),
    thresholds=st.lists(st.none() | st.tuples(st.integers(0, 40), st.integers(0, 40)),
                        min_size=6, max_size=6),
    budget=st.none() | st.integers(0, 80),
)
def test_pruned_sweep_is_unpruned_sweep_restricted(shape, max_length, zero_ceiling,
                                                   thresholds, budget):
    # The pruned walk with no group, in order, is the unpruned one
    # restricted to the multisets none of whose prefixes (the empty one
    # included) has a zero count above the ceiling.  The stream is further
    # restricted to the multisets with a count in the band [lo, hi) of
    # their length, and a budget cuts the walk to its first ``budget``
    # multisets.
    G = make_group(list(shape))
    limbs = limb_layout(G, max_length)
    unpack = limbs.unpack
    thresholds = thresholds[:max_length + 1]
    rows = [(tuple(occ), unpack(packed))
            for occ, packed in sweep_counts(G, max_length, every_band(max_length))]
    zero_count = {occ: counts[0] for occ, counts in rows}
    tree = [(occ, counts) for occ, counts in rows
            if all(zero_count[occ[:k]] <= zero_ceiling for k in range(len(occ) + 1))]
    stats = SweepStats()
    got = [
        (tuple(occ), unpack(packed))
        for occ, packed in pruned_walk(G, max_length, every_band(max_length),
                                       zero_ceiling, None, stats)
    ]
    assert got == tree
    assert (stats.visited, stats.exhaustive) == (len(tree), True)
    stats = SweepStats(budget)
    visited = tree if budget is None else tree[:budget]
    filtered = [
        (tuple(occ), unpack(packed))
        for occ, packed in pruned_walk(G, max_length, thresholds,
                                       zero_ceiling, None, stats)
    ]
    assert filtered == [(occ, counts) for occ, counts in visited
                        if _in_band(occ, counts, thresholds)]
    assert stats.visited == len(visited)
    assert stats.exhaustive == (len(visited) == len(tree))


def _walk(G, max_length, bands, budget):
    stats = SweepStats(budget)
    unpack = limb_layout(G, max_length).unpack
    stream = [(tuple(occ), unpack(packed))
              for occ, packed in sweep_counts(G, max_length, bands, stats=stats)]
    return stream, stats


_COUNT_BOUND = st.integers(0, 130)


@settings(max_examples=300, deadline=None)
@given(
    shape=st.sampled_from([(1,), (2,), (3,), (4,), (2, 2), (5,), (6,), (2, 4), (7,),
                           (8,), (2, 2, 2), (3, 3), (9,)]),
    max_length=st.integers(-1, 7),
    bands=st.lists(st.none() | st.none() | st.none()
                   | st.tuples(_COUNT_BOUND, _COUNT_BOUND)
                   | st.tuples(_COUNT_BOUND, _COUNT_BOUND, _COUNT_BOUND),
                   min_size=8, max_size=8),
    budget=st.none() | st.integers(0, 400),
)
def test_memo_changes_no_result(shape, max_length, bands, budget):
    # With MEMO_MIN at 1 the memo stores every yield-free subtree below the
    # root's children and above the leaves; with MEMO_CAP at 0 it stores
    # none.  Both walks give the same
    # stream, visited, exhaustive and flagged, and both agree with the
    # every-band stream cut to the budget: flagged counts the visited
    # multisets with a count in their band, and the stream holds those
    # that also have a count below the floor, if any.
    G = make_group(list(shape))
    bands = bands[:max_length + 1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "MEMO_MIN", 1)
        memo_stream, memo = _walk(G, max_length, bands, budget)
        mp.setattr(counting, "MEMO_CAP", 0)
        plain_stream, plain = _walk(G, max_length, bands, budget)
    assert memo_stream == plain_stream
    assert (memo.visited, memo.exhaustive, memo.flagged) == (
        plain.visited, plain.exhaustive, plain.flagged)
    assert plain.entries == plain.hits == 0
    tree, _ = _walk(G, max_length, every_band(max_length), None)
    visited = tree if budget is None else tree[:budget]
    flagged = [(occ, counts) for occ, counts in visited if _in_band(occ, counts, bands)]
    assert memo.visited == len(visited) and memo.flagged == len(flagged)
    assert memo_stream == [(occ, counts) for occ, counts in flagged
                           if len(bands[len(occ)]) == 2
                           or min(counts) < bands[len(occ)][2]]


def test_memo_is_bounded_and_on(monkeypatch):
    # The census job one-and-all C2^4 up to length 8 reports the answer
    # recorded in perfbench/golden.json with the memo capped at 8 entries,
    # and with the default constants the memo answers some subtrees.
    walks = []

    @dataclasses.dataclass
    class Recorded(SweepStats):
        def __post_init__(self):
            walks.append(self)

    monkeypatch.setattr(counting, "SweepStats", Recorded)
    G = make_group([2, 2, 2, 2])
    expected = {"group": "C2xC2xC2xC2", "max_len": 8,
                "sequences_checked": 490_314, "bound_attained": 404_323}
    with monkeypatch.context() as mp:
        mp.setattr(counting, "MEMO_CAP", 8)
        report = counting.sweep_one_and_all(G, 5, 8)
    assert (report.status, report.details) == ("pass", expected)
    assert 0 < walks[-1].entries <= 8
    report = counting.sweep_one_and_all(G, 5, 8)
    assert (report.status, report.details) == ("pass", expected)
    assert walks[-1].hits > 0


def _spanning_multisets(r: int, n: int) -> int:
    # The multisets of n nonzero vectors of F_2^r whose support spans it,
    # by Moebius inversion over the subspace lattice: a subspace of
    # dimension k holds C(2^k - 2 + n, n) multisets of its nonzero vectors.
    def subspaces(k):
        num = den = 1
        for i in range(k):
            num *= 2 ** (r - i) - 1
            den *= 2 ** (i + 1) - 1
        return num // den
    return sum((-1) ** (r - k) * 2 ** comb(r - k, 2) * subspaces(k)
               * (comb(2 ** k - 2 + n, n) if k else int(n == 0))
               for k in range(r + 1))


def test_memo_totals_past_64_bits():
    # Memo hits add whole subtrees, so a walk may total more than 2^64
    # multisets.  A walk without bands is counted, not walked: C100 up to
    # 40 reports all C(139, 40) ~ 2^116 multisets and flags none.
    stats = SweepStats()
    assert list(sweep_counts(make_group([100]), 40, [None] * 41, stats=stats)) == []
    assert (stats.visited, stats.exhaustive, stats.flagged) == (comb(139, 40), True, 0)
    report = counting.sweep_lower_bound(make_group([100]), 100, 40)
    assert report.details["sequences_checked"] == comb(139, 40)
    # On C2^r every count is 0 or 2^(n - rank), so a multiset attains the
    # bound 2^(n - r) exactly where it spans; up to 37, 2^64.2 multisets.
    # The same formula gives the golden 404,323 of C2^4 up to 8.
    assert sum(_spanning_multisets(4, n) for n in range(9)) == 404_323
    report = counting.sweep_one_and_all(make_group([2] * 5), 6, 37)
    assert report.details["sequences_checked"] == comb(31 + 37, 37) > 2 ** 64
    assert report.details["bound_attained"] == sum(
        _spanning_multisets(5, n) for n in range(38))


def test_a_walk_no_band_reaches_builds_no_table(monkeypatch, capsys):
    # Below length D - 1 the bound is at most 1, so a lower-bound sweep
    # capped there has no band: it reports the size of the tree, C(|G| - 1
    # + L, L), cut to the budget, and builds no limb table.
    def refuse(*args):
        raise AssertionError("a limb table was built")

    monkeypatch.setattr(counting, "_limbs", refuse)
    monkeypatch.setattr(counting, "_limb_adders", refuse)
    argv = ["verify", "lower-bound", "C1000", "--max-len", "900", "--json"]
    size = comb(1899, 900)
    assert main(argv) == 0
    details = json.loads(capsys.readouterr().out)["result"]["details"]
    assert details["sequences_checked"] == size
    C1000 = make_group([1000])
    for budget, visited, exhaustive in ((10**6, 10**6, False), (size - 1, size - 1, False),
                                        (size, size, True), (size + 1, size, True)):
        stats = SweepStats(budget)
        assert list(sweep_counts(C1000, 900, [None] * 901, stats=stats)) == []
        assert (stats.visited, stats.exhaustive, stats.flagged) == (visited, exhaustive, 0)
    with pytest.raises(ValueError, match="exceeds the cap"):
        list(sweep_counts(C1000, MAX_LENGTH + 1, [None] * (MAX_LENGTH + 2)))


@pytest.mark.parametrize("shape", [(3,), (4,), (5,), (6,), (2, 2), (2, 4), (3, 3)])
def test_extremal_sweep_matches_extremal_set(shape):
    # Oracle: extremal_set and zero_count on each multiset of the unpruned
    # sweep.  Unpruned, the stream is every multiset with a nonempty
    # extremal set, with that set; pruned, it is those where zero attains
    # the bound.  The pruned walk cuts the zero-count-ceiling tree by
    # Aut(G): the cut tree keeps the lex-least member of every orbit (from
    # the listed automorphisms), and the walk materializes it plus the
    # rest of each orbit in the stream.
    G = make_group(list(shape))
    D = davenport(G).value
    auts = automorphisms(G)
    elems = all_elements(G)
    idx = element_index(G)

    def orbit_min(occ):
        return min(tuple(sorted(elems[perm[idx[g]]] for g in occ)) for perm in auts)

    for max_length in (D - 2, D - 1, D + 2):
        ceiling = 1 << (max_length - D + 1) if max_length >= D - 1 else 0
        expected = []
        for occ, _ in sweep_counts(G, max_length, every_band(max_length)):
            S = sequence(G, list(occ))
            assert zero_count(S) == count_all(S).zero_count
            E = extremal_set(S, D).members if len(S) >= D - 1 else frozenset()
            if E:
                expected.append((tuple(occ), E))
        assert list(extremal_sweep(G, D, max_length)) == expected
        stats = SweepStats()
        pruned = list(extremal_sweep(G, D, max_length, prune=True, stats=stats))
        assert pruned == [(occ, E) for occ, E in expected if G.zero() in E]
        # The cut tree lies in the zero-count-ceiling tree and holds the
        # lex-least member of each orbit of it.  The pruned walk visits the
        # cut tree, flags its multisets with a nonempty extremal set, and
        # materializes all but one member of each orbit in the stream.
        tree_occs = [tuple(occ) for occ, _ in pruned_walk(
            G, max_length, every_band(max_length), ceiling, None)]
        cut = SweepStats()
        cut_occs = [tuple(occ) for occ, _ in pruned_walk(
            G, max_length, every_band(max_length), ceiling,
            _automorphism_group(G), cut)]
        assert set(cut_occs) <= set(tree_occs)
        assert {occ for occ in tree_occs if orbit_min(occ) == occ} <= set(cut_occs)
        orbits = {orbit_min(occ) for occ, _ in pruned}
        attained = {occ for occ, _ in expected}
        assert (stats.visited, stats.exhaustive) == (
            cut.visited + len(pruned) - len(orbits), cut.exhaustive)
        assert stats.flagged == sum(occ in attained for occ in cut_occs)
        if max_length == D + 2:
            assert len(cut_occs) < len(tree_occs), G


def test_symmetry_cut_keeps_the_pruned_stream(monkeypatch):
    # Oracle: the walk with the trivial group, which cuts nothing and
    # expands no orbit.  The stream of the pruned extremal sweep is the
    # same, in order and with the same members, on every group of order at
    # most 16 at every cap from D - 1 to D + 2.
    real = {}
    for G in groups_up_to_order(16):
        D = davenport(G).value
        for cap in range(D - 1, D + 3):
            stats = SweepStats()
            real[G, D, cap] = list(extremal_sweep(G, D, cap, prune=True, stats=stats)), stats
    monkeypatch.setattr(symmetry, "_automorphism_group",
                        lambda G: _Stabilizer((), 1, tuple(range(G.order))))
    for (G, D, cap), (stream, cut) in real.items():
        stats = SweepStats()
        assert list(extremal_sweep(G, D, cap, prune=True, stats=stats)) == stream, (G, cap)
        assert cut.exhaustive and stats.exhaustive
    # C4xC4 at cap 9: 1,488 entries in 18 orbits; the walk cut by Aut(G),
    # of order 96, and the orbits take 14,935 multisets instead of 146,783.
    stream, cut = real[make_group([4, 4]), 7, 9]
    assert (cut.visited, len(stream)) == (14_935, 1_488)
    assert len(real) == 4 * 24


def test_sweep_counts_yields_immutable_vectors():
    # Vectors are plain ints, so a caller may keep every one of them: the
    # kept stream still unpacks to count_all's counts.
    seen = [(tuple(occ), packed) for occ, packed in sweep_counts(C3, 3, every_band(3))]
    assert all(type(packed) is int for _, packed in seen)
    unpack = limb_layout(C3, 3).unpack
    for occ, packed in seen:
        assert unpack(packed) == count_all(sequence(C3, list(occ))).counts


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_packed_count_all_matches_brute_force(data):
    G = data.draw(st.sampled_from(groups_up_to_order(16)))
    elems = all_elements(G)
    occ = data.draw(st.lists(st.sampled_from(elems), max_size=14))
    S = sequence(G, occ)
    assert count_all(S) == count_brute_vector(S)
    packed, limbs = count_packed(S)
    assert limbs.unpack(packed) == count_brute_vector(S).counts


def test_brute_force_oracle_is_independent_of_limbs():
    names = set(count_brute_vector.__code__.co_names)
    assert not names & {"count_all", "count_packed", "sweep_counts", "translate",
                        "_limb_adders", "limb_layout", "Limbs"}


def _boundary_counts(width):
    values = {0, 1, (1 << (width - 1)) - 1}
    for e in range(width - 1):
        values |= {(1 << e) - 1, 1 << e, (1 << e) + 1}
    return sorted(v for v in values if v < 1 << (width - 1))


@pytest.mark.parametrize("width", [16, 32, 64, 128, 192])
def test_swar_predicates_match_per_limb_comparisons(width):
    # Every boundary count 0, 1, 2^e - 1, 2^e, 2^e + 1 and 2^(W-1) - 1
    # below the sentinel bit sits in some limb, tested against thresholds
    # equal to it and one above it.
    values = _boundary_counts(width)
    rng = random.Random(width)
    order = 7
    limbs = Limbs(order, width)
    half = 1 << (width - 1)
    for start in range(0, len(values), order):
        limb_values = values[start:start + order]
        limb_values += [rng.choice(values) for _ in range(order - len(limb_values))]
        rng.shuffle(limb_values)
        packed = sum(v << (i * width) for i, v in enumerate(limb_values))
        assert limbs.unpack(packed) == tuple(limb_values)
        for b in {0, 1, half, half + 1} | {v + d for v in limb_values for d in (0, 1)}:
            ge = limbs.at_least(packed, b)
            eq = limbs.equal(packed, b)
            assert limbs.flagged(ge) == [i for i, v in enumerate(limb_values) if v >= b]
            assert limbs.flagged(eq) == [i for i, v in enumerate(limb_values) if v == b]


def test_limb_width_keeps_counts_below_the_sentinel():
    # The least of 16, 32 or a multiple of 64 that leaves the sentinel bit
    # W-1 above every count (at most 2^length).
    for length in range(0, 200):
        width = limb_width(length)
        assert width in (16, 32) or width % 64 == 0
        assert length + 2 <= width and not any(
            length + 2 <= narrower < width
            for narrower in (16, 32, *range(64, width, 64)))
    assert [limb_width(length) for length in (14, 15, 30, 31, 62, 63, MAX_LENGTH)] == \
        [16, 32, 32, 64, 64, 128, 1088]
    # A count of 2^14, 2^30 or 2^62 needs the last bit below the sentinel
    # of a 16-, 32- or 64-bit limb; one more term moves to wider limbs.
    for length in (14, 15, 30, 31, 62, 63, 64):
        S = sequence(C2, {(0,): 2, (1,): length - 2})
        assert count_all(S).counts == (1 << (length - 1), 1 << (length - 1))
        assert count_all(sequence(C2, {(0,): length})).counts == (1 << length, 0)


def test_limb_width_refuses_lengths_above_the_cap(monkeypatch):
    monkeypatch.setattr(counting, "MAX_LENGTH", 8)
    assert limb_width(8) == 16
    with pytest.raises(ValueError, match="length 9 exceeds the cap 8"):
        limb_width(9)
    with pytest.raises(ValueError, match="exceeds the cap 8"):
        count_all(sequence(C2, {(1,): 9}))


def test_count_vector_lookup_reduces():
    cv = count_all(parse_sequence(C3, "1^2 2"))
    assert cv[(4,)] == cv[(1,)] == 3
