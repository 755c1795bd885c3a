import random
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from zerosum import (
    all_elements,
    divides,
    format_sequence,
    iterate_multisets,
    make_group,
    parse_sequence,
    seq_div,
    seq_mul,
    seq_neg,
    seq_sum,
    sequence,
)
from zerosum.sequences import (
    Sequence,
    empty_sequence,
    parse_element,
    seq_key,
    subsequences_with_sum,
)

from helpers import element_forms, groups_up_to_order, seq_gcd


C3 = make_group([3])
C24 = make_group([2, 4])


def test_parse_examples():
    S = parse_sequence(C3, "1^2 2")
    assert S.terms == (((1,), 2), ((2,), 1))
    S = parse_sequence(C24, "(1,0)^2 (0,1)")
    assert S.terms == (((0, 1), 1), ((1, 0), 2))
    assert parse_sequence(C3, "empty").is_empty()
    assert parse_sequence(C3, " Empty ").is_empty()


def test_parse_reduces_coordinates():
    assert parse_sequence(C3, "4^2 2") == parse_sequence(C3, "1^2 2")
    assert parse_sequence(C3, "-1") == parse_sequence(C3, "2")
    assert parse_sequence(C24, "(3, 5)") == parse_sequence(C24, "(1,1)")


def test_parse_merges_repeated_terms():
    assert parse_sequence(C3, "1 1 1") == parse_sequence(C3, "1^3")
    assert parse_sequence(C3, "1^2 1") == parse_sequence(C3, "1^3")


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_sequence(C3, "1^0")
    with pytest.raises(ValueError):
        parse_sequence(C3, "(1,2)")  # arity 2 over rank 1
    with pytest.raises(ValueError):
        parse_sequence(C24, "3")  # bare int needs rank <= 1
    with pytest.raises(ValueError):
        parse_sequence(C3, "1 ? 2")
    with pytest.raises(ValueError):
        parse_sequence(C24, "(1,)")


@pytest.mark.parametrize("G", [make_group([])] + groups_up_to_order(16), ids=str)
def test_sequence_accepts_only_reduced_tuples(G):
    for e in all_elements(G):
        assert Sequence(G, ((e, 1),)).terms == ((e, 1),)
        unreduced = [a for a in element_forms(G, e)
                     if type(a) is not tuple or a != e]
        for a in unreduced + [e + (0,)]:
            with pytest.raises(ValueError):
                Sequence(G, ((a, 1),))


def test_trivial_group_sequences():
    T = make_group([])
    assert parse_sequence(T, "empty").is_empty()
    S = parse_sequence(T, "0^3")
    assert len(S) == 3 and S.support() == ((),)
    assert format_sequence(S) == "0^3"
    with pytest.raises(ValueError):
        parse_sequence(T, "(0)")


def test_format_round_trip_random():
    rng = random.Random(7)
    for G in (C3, C24, make_group([]), make_group([5]), make_group([2, 2, 2])):
        elems = all_elements(G)
        for _ in range(40):
            S = sequence(G, [rng.choice(elems) for _ in range(rng.randint(0, 8))])
            assert parse_sequence(G, format_sequence(S)) == S


def test_parse_element():
    assert parse_element(C3, "2") == (2,)
    assert parse_element(C24, "(1,3)") == (1, 3)
    with pytest.raises(ValueError):
        parse_element(C3, "1 2")


def test_seq_sum_examples():
    assert seq_sum(parse_sequence(C3, "1^3")) == (0,)
    C22 = make_group([2, 2])
    assert seq_sum(parse_sequence(C22, "(1,0) (0,1)")) == (1, 1)
    assert seq_sum(empty_sequence(C3)) == (0,)


def test_divides_examples():
    assert divides(parse_sequence(C3, "1^2"), parse_sequence(C3, "1^3"))
    assert not divides(parse_sequence(C3, "1^4"), parse_sequence(C3, "1^3"))
    assert divides(empty_sequence(C3), parse_sequence(C3, "1^3"))
    with pytest.raises(ValueError):
        divides(parse_sequence(C3, "1"), parse_sequence(make_group([5]), "1"))


def test_gcd_mul_div_neg_examples():
    A = parse_sequence(C3, "1^2 2")
    B = parse_sequence(C3, "1 2^3")
    assert seq_gcd(A, B) == parse_sequence(C3, "1 2")
    assert seq_neg(A) == parse_sequence(C3, "2^2 1")
    assert seq_div(A, A).is_empty()
    assert seq_mul(A, B) == parse_sequence(C3, "1^3 2^4")
    with pytest.raises(ValueError):
        seq_div(parse_sequence(C3, "1"), parse_sequence(C3, "2"))


def test_algebra_properties_random():
    rng = random.Random(99)
    for G in (C3, C24, make_group([6])):
        elems = all_elements(G)
        for _ in range(60):
            A = sequence(G, [rng.choice(elems) for _ in range(rng.randint(0, 6))])
            B = sequence(G, [rng.choice(elems) for _ in range(rng.randint(0, 6))])
            total = seq_mul(A, B)
            ga, gb = seq_sum(A), seq_sum(B)
            assert seq_sum(total) == tuple(
                (x + y) % n for x, y, n in zip(ga, gb, G.invariants)
            )
            assert seq_neg(seq_neg(A)) == A
            assert seq_sum(seq_neg(A)) == tuple(
                (-x) % n for x, n in zip(seq_sum(A), G.invariants)
            )
            assert seq_gcd(A, A) == A
            assert seq_gcd(A, empty_sequence(G)).is_empty()
            assert len(seq_div(total, B)) == len(total) - len(B)


def test_iterate_multisets_examples():
    got = [format_sequence(S) for S in iterate_multisets(C3, 3, exclude_zero=True)]
    assert got == ["1^3", "1^2 2", "1 2^2", "2^3"]
    assert [S for S in iterate_multisets(C24, 0)] == [empty_sequence(C24)]
    assert sum(1 for _ in iterate_multisets(make_group([2, 2]), 2, exclude_zero=True)) == 6


def test_iterate_multisets_counts_and_order():
    shapes = [(2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4),
              (2, 2, 2), (9,), (3, 3), ()]
    for shape in shapes:
        G = make_group(shape)
        for exclude in (False, True):
            pool = G.order - 1 if exclude else G.order
            for length in range(0, 7):
                seqs = list(iterate_multisets(G, length, exclude_zero=exclude))
                if length == 0:
                    expected = 1
                elif pool == 0:
                    expected = 0
                else:
                    expected = comb(pool + length - 1, length)
                assert len(seqs) == expected
                keys = [seq_key(S) for S in seqs]
                assert keys == sorted(keys)
                assert len(set(keys)) == len(keys)


def test_sequence_rejects_bad_terms():
    with pytest.raises(ValueError):
        sequence(C3, {(1,): -1})
    assert sequence(C3, {(1,): 0}).is_empty()


def brute_subsequences_with_sum(S, g):
    """Every multiplicity vector of S, summed term by term with seq_sum."""
    support = S.support()
    found = []
    for vector in product(*(range(m + 1) for _, m in S.terms)):
        T = sequence(S.group, dict(zip(support, vector)))
        if seq_sum(T) == g:
            found.append(T)
    return found


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_subsequences_with_sum_matches_brute_force(data):
    G = data.draw(st.sampled_from(groups_up_to_order(16) + [make_group([])]))
    elems = all_elements(G)
    S = sequence(G, data.draw(st.lists(st.sampled_from(elems), max_size=10)))
    g = data.draw(st.sampled_from(elems))
    assert list(subsequences_with_sum(S, g)) == brute_subsequences_with_sum(S, g)


def test_subsequences_with_sum_of_the_empty_sequence():
    for G in (C3, C24, make_group([])):
        E = empty_sequence(G)
        assert list(subsequences_with_sum(E, G.zero())) == [E]
        for g in all_elements(G)[1:]:
            assert list(subsequences_with_sum(E, g)) == []
