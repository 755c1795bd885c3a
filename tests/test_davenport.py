import importlib
import json
import pathlib
import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from zerosum import (
    all_elements,
    cli,
    count_all,
    count_brute_vector,
    davenport,
    davenport_exact,
    davenport_formula,
    is_zero_sum_free,
    iterate_multisets,
    make_group,
    parse_sequence,
    sequence,
    subsums,
    t_bound,
)
from zerosum.counting import _limb_adders, limb_width, translate
from zerosum.davenport import zero_sum_free_sequences
from zerosum.groups import _Stabilizer, element_index

from helpers import groups_up_to_order

C3 = make_group([3])


def test_is_zero_sum_free_examples():
    assert is_zero_sum_free(parse_sequence(C3, "1^2"))
    assert not is_zero_sum_free(parse_sequence(C3, "1^3"))
    assert is_zero_sum_free(parse_sequence(C3, "empty"))
    assert not is_zero_sum_free(parse_sequence(C3, "0"))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_is_zero_sum_free_matches_brute_zero_count(data):
    G = data.draw(st.sampled_from(groups_up_to_order(16)))
    occ = data.draw(st.lists(st.sampled_from(all_elements(G)), max_size=12))
    S = sequence(G, occ)
    assert is_zero_sum_free(S) == (count_brute_vector(S).zero_count == 1)


def test_exact_values_small():
    expected = {
        (2,): 2, (3,): 3, (4,): 4, (5,): 5, (6,): 6, (7,): 7, (8,): 8, (9,): 9,
        (2, 2): 3, (2, 4): 5, (2, 2, 2): 4, (3, 3): 5,
    }
    for shape, value in expected.items():
        res = davenport_exact(make_group(shape))
        assert res.value == value, shape
        assert res.method == "exact-search"


def test_exact_trivial_group():
    res = davenport_exact(make_group([]))
    assert res.value == 1 and res.witness.is_empty()


def test_exact_cap():
    with pytest.raises(ValueError):
        davenport_exact(make_group([37]))


def test_davenport_memo_keeps_the_cap_out_of_the_key(monkeypatch):
    # C2xC2xC6 has no settled closed form, so "auto" runs the exact search.
    # (`zerosum.davenport` the attribute is the function, not the module.)
    dav = importlib.import_module("zerosum.davenport")
    G = make_group([2, 2, 6])
    real = dav.davenport_exact
    searched = []
    monkeypatch.setattr(dav, "davenport_exact",
                        lambda G, cap: searched.append(cap) or real(G, cap=cap))
    davenport.cache_clear()
    try:
        with pytest.raises(ValueError, match="exceeds cap 20"):
            davenport(G, cap=20)  # a miss above the cap raises
        found = davenport(G, cap=30)
        assert found.value == 8 and found.method == "exact-search"
        assert davenport(G, cap=20) is found  # a hit, whatever the cap
        assert davenport(G) is found
        assert searched == [20, 30]
        with pytest.raises(ValueError, match="exceeds cap 20"):
            davenport(G, method="exact", cap=20)  # memoized per (G, method)
    finally:
        davenport.cache_clear()


def test_both_without_a_closed_form_refuses_before_searching(monkeypatch, capsys):
    dav = importlib.import_module("zerosum.davenport")
    searched = []
    monkeypatch.setattr(dav, "davenport_exact", lambda G, cap: searched.append(G))
    davenport.cache_clear()
    try:
        with pytest.raises(ValueError, match="no settled closed form for C2xC2xC10"):
            davenport(make_group([2, 2, 10]), method="both", cap=40)
        assert cli.main(["davenport", "C2xC2xC10", "--method", "both",
                         "--davenport-cap", "40"]) == 2
        assert "no settled closed form" in capsys.readouterr().err
        assert searched == []
    finally:
        davenport.cache_clear()


def _identity(n):
    """The trivial group of automorphisms: no generators, every orbit a point."""
    return _Stabilizer((), 1, tuple(range(n)))


def _search_with_orbit_tables(monkeypatch, G, depth_one, deeper):
    """davenport_exact on G with the Aut(G) orbit table (the depth-1 cut
    and the cut below the first term) and the stabilizer orbit tables (the
    cut at depth 2 and below) each replaced by the identity when off."""
    dav = importlib.import_module("zerosum.davenport")
    with monkeypatch.context() as m:
        if not depth_one:
            m.setattr(dav, "_automorphism_group", lambda G: _identity(G.order))
        if not deeper:
            m.setattr(dav, "_fix_point", lambda stab, point: _identity(len(stab.orbit_min)))
        return davenport_exact(G)


def _search_without_orbit_cut(monkeypatch, G):
    return _search_with_orbit_tables(monkeypatch, G, depth_one=False, deeper=False)


def _search_with_depth_one_cut_only(monkeypatch, G):
    return _search_with_orbit_tables(monkeypatch, G, depth_one=True, deeper=False)


def test_orbit_cut_keeps_value_and_witness(monkeypatch):
    for G in groups_up_to_order(24):
        assert davenport_exact(G) == _search_without_orbit_cut(monkeypatch, G), G


def test_stabilizer_cut_keeps_value_and_witness(monkeypatch):
    groups = groups_up_to_order(36)
    assert len(groups) == 61
    for G in groups:
        assert davenport_exact(G) == _search_with_depth_one_cut_only(monkeypatch, G), G


def _dfs_nodes(monkeypatch, search):
    """The translations a search makes: one per DFS node below the root,
    plus one per coset step of each subgroup join <P> + <c>."""
    dav = importlib.import_module("zerosum.davenport")
    nodes = []
    with monkeypatch.context() as m:
        m.setattr(dav, "translate",
                  lambda mask, ops: nodes.append(1) or translate(mask, ops))
        search()
    return len(nodes)


def test_orbit_cut_visits_fewer_nodes(monkeypatch):
    for spec in ([2, 2, 6], [3, 6], [2, 12]):
        G = make_group(spec)
        pruned = _dfs_nodes(monkeypatch, lambda: davenport_exact(G))
        nodes = _dfs_nodes(monkeypatch, lambda: _search_without_orbit_cut(monkeypatch, G))
        assert 0 < pruned < nodes / 2, (G, pruned, nodes)


def test_stabilizer_cut_visits_fewer_nodes(monkeypatch):
    cut = {}
    for spec in ([3, 12], [2, 4, 4]):
        G = make_group(spec)
        cut[G.spec()] = _dfs_nodes(monkeypatch, lambda: davenport_exact(G))
        depth_one = _dfs_nodes(monkeypatch,
                               lambda: _search_with_depth_one_cut_only(monkeypatch, G))
        assert cut[G.spec()] < depth_one, (G, cut[G.spec()], depth_one)
    assert cut["C3xC12"] <= 120_000  # 297,243 with the depth-1 cut only


def test_root_bound_ends_a_cyclic_search_before_any_table(monkeypatch):
    # On C_n, d* = n - 1 fills the headroom of the empty prefix, so the
    # search returns the star witness 1^(n-1) before it builds Aut(G).
    dav = importlib.import_module("zerosum.davenport")

    def refuse(G):
        raise RuntimeError(f"Aut({G}) built")

    monkeypatch.setattr(dav, "_automorphism_group", refuse)
    for n in (1, 2, 7, 256, 1024):
        G = make_group([n])
        res = davenport_exact(G, cap=1024)
        assert res.value == n, G
        assert res.witness == sequence(G, {(1,): n - 1}), G


def test_exact_search_improves_on_d_star_plus_one():
    # D(C2^4 x C6) = 11 > d* + 1 = 10, so the search finds a zero-sum-free
    # sequence longer than d*.  The 4-5 s search runs once, as a golden.
    golden = pathlib.Path(__file__).parent / "golden" / "davenport-c2xc2xc2xc2xc6.json"
    G = make_group([2, 2, 2, 2, 6])
    witness = parse_sequence(G, json.loads(golden.read_text())["result"]["witness"])
    assert len(witness) == 10
    assert count_brute_vector(witness).zero_count == 1


def test_witness_properties():
    for G in groups_up_to_order(16):
        res = davenport_exact(G)
        assert is_zero_sum_free(res.witness)
        assert len(res.witness) == res.value - 1


def test_length_D_forces_zero_sum_exhaustively():
    # every multiset of length D over the whole group has a nonempty
    # zero-sum subsequence (zero count > 1)
    for G in groups_up_to_order(9):
        D = davenport_exact(G).value
        for S in iterate_multisets(G, D):
            assert count_all(S).zero_count >= 2


def test_exact_search_against_enumeration_oracle():
    # independent route: filter every multiset by is_zero_sum_free and
    # take 1 + the longest surviving length
    for G in groups_up_to_order(9):
        longest = 0
        for length in range(1, G.order):
            if any(
                is_zero_sum_free(S)
                for S in iterate_multisets(G, length, exclude_zero=True)
            ):
                longest = length
        assert davenport_exact(G).value == longest + 1


def test_formula_classes():
    assert davenport_formula(make_group([6])) == 6
    assert davenport_formula(make_group([2, 4])) == 5
    assert davenport_formula(make_group([2, 2, 2])) == 4  # p-group
    assert davenport_formula(make_group([])) == 1
    # rank 3, mixed primes: unsettled, no guess
    assert davenport_formula(make_group([2, 2, 6])) is None


def test_formula_agrees_with_search():
    for G in groups_up_to_order(16):
        formula = davenport_formula(G)
        if formula is not None:
            assert formula == davenport_exact(G).value


def test_davenport_methods():
    G = make_group([3, 3])
    assert davenport(G, method="both").value == 5
    assert davenport(G, method="formula").method == "formula"
    assert davenport(G, method="auto").value == 5
    with pytest.raises(ValueError):
        davenport(G, method="frobnicate")


def test_t_bound():
    assert t_bound(make_group([3])) == 5
    assert t_bound(make_group([3, 3])) == 13
    assert t_bound(make_group([2])) == 3


def test_pruning_rejections_are_sound():
    # whenever -a is already a subset sum of S, appending a genuinely
    # creates a zero-sum subsequence (checked by enumeration)
    rng = random.Random(11)
    for G in (C3, make_group([2, 4]), make_group([5])):
        elems = all_elements(G)
        for _ in range(40):
            S = sequence(G, [rng.choice(elems[1:]) for _ in range(rng.randint(0, 6))])
            if not is_zero_sum_free(S):
                continue
            reach = subsums(S)
            for a in elems[1:]:
                neg = tuple((-x) % n for x, n in zip(a, G.invariants))
                if neg in reach:
                    extended = sequence(G, dict(S.terms) | {a: S.multiplicity(a) + 1})
                    assert count_brute_vector(extended)[G.zero()] >= 2


def test_zero_sum_free_sequences_enumeration():
    # Oracle: the zero-sum-free multisets among all those of the length, on
    # every group of order at most 16 at each length up to D(G) whose
    # oracle enumerates at most 20,000 multisets.  Length D(G) has none.
    for G in groups_up_to_order(16):
        D = davenport(G).value
        for length in range(D + 1):
            got = list(zero_sum_free_sequences(G, length))
            if length == D:
                assert got == [], G
            if comb(G.order - 2 + length, length) > 20_000:
                continue
            expected = [
                S for S in iterate_multisets(G, length, exclude_zero=True)
                if is_zero_sum_free(S)
            ]
            assert got == expected, (G, length)


def test_mask_adders_match_set_translation():
    # The limb table moves limb i to limb index(elements[i] + a), at the
    # Davenport bitset width 1, at width 2 and at the count width W.
    rng = random.Random(12)
    for G in (make_group([6]), make_group([2, 4]), make_group([2, 2, 2]), make_group([3, 3])):
        elems = all_elements(G)
        idx = element_index(G)
        for width in (1, 2, limb_width(0)):
            adders = _limb_adders(G, width)
            for _ in range(30):
                values = {e: rng.randrange(1 << width) for e in elems}
                packed = sum(v << (idx[e] * width) for e, v in values.items())
                a = rng.choice(elems)
                shifted = translate(packed, adders[idx[a]])
                translated = {
                    tuple((x + y) % n for x, y, n in zip(e, a, G.invariants)): v
                    for e, v in values.items()
                }
                assert shifted == sum(
                    v << (idx[e] * width) for e, v in translated.items()
                ), (G, width, a)
