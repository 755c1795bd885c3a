import copy
import pickle
import random
from math import gcd, lcm

import pytest

from zerosum import (
    Group,
    Subgroup,
    all_elements,
    all_subgroups,
    d_star,
    elem_add,
    elem_neg,
    elem_order,
    elem_scale,
    make_group,
    order_two_subgroups,
    parse_group,
    quotient_group,
    smith_normal_form,
    subgroup_closure,
)
from zerosum.groups import (
    _automorphism_group,
    _elementary_automorphisms,
    _fix_point,
    elem_reduce,
    element_index,
)

from helpers import (
    automorphism_count,
    automorphisms,
    determinant,
    element_forms,
    gcd_of_k_minors,
    groups_up_to_order,
    matmul,
    reduce_by_arithmetic,
    subgroups_by_closure,
)


def test_make_group_canonical_examples():
    assert make_group([6]).invariants == (6,)
    assert make_group([2, 4]).invariants == (2, 4)
    assert make_group([2, 3]).invariants == (6,)
    assert make_group([]).invariants == ()
    assert make_group([1, 1]).order == 1


def test_make_group_crt_preserves_element_orders():
    # C2 x C3 and its normalization C6 must have the same multiset of
    # element orders; computed directly on the raw product here.
    def cyclic_orders(n):
        return [n // gcd(k, n) for k in range(n)]

    raw = sorted(
        lcm(a, b) for a in cyclic_orders(2) for b in cyclic_orders(3)
    )
    G = make_group([2, 3])
    normalized = sorted(elem_order(G, e) for e in all_elements(G))
    assert raw == normalized


def test_make_group_idempotent():
    for G in groups_up_to_order(16):
        assert make_group(G.invariants) == G


def test_equal_groups_hash_and_compare_equal():
    # The hash is computed once per Group; every way of getting an equal
    # group (rebuilt, copied, unpickled) must still hash and compare equal,
    # or the lru_caches keyed by groups would split.
    groups = [make_group([])] + groups_up_to_order(16)
    assert len(set(groups)) == len(groups)
    for G in groups:
        for H in (make_group(G.invariants), Group(tuple(G.invariants)), copy.copy(G),
                  copy.deepcopy(G), pickle.loads(pickle.dumps(G))):
            assert H == G and hash(H) == hash(G)
            assert {G: 1}[H] == 1


def test_make_group_rejects_nonpositive():
    with pytest.raises(ValueError):
        make_group([0])
    with pytest.raises(ValueError):
        make_group([3, -2])


def test_group_constructor_validates():
    with pytest.raises(ValueError):
        Group((3, 2))  # not a divisibility chain
    with pytest.raises(ValueError):
        Group((1,))


def test_parse_group():
    assert parse_group("C2xC4").invariants == (2, 4)
    assert parse_group("c2 x c4").invariants == (2, 4)
    assert parse_group("C1").order == 1
    assert parse_group("C2xC3").spec() == "C6"
    with pytest.raises(ValueError):
        parse_group("C0")
    with pytest.raises(ValueError):
        parse_group("D4")
    with pytest.raises(ValueError):
        parse_group("C2+C4")


def test_element_arithmetic_examples():
    G = make_group([2, 4])
    assert elem_add(G, (1, 3), (1, 2)) == (0, 1)
    assert elem_neg(G, (0, 3)) == (0, 1)
    assert elem_order(G, (0, 2)) == 2
    assert elem_scale(G, 3, (1, 1)) == (1, 3)
    with pytest.raises(ValueError):
        elem_add(G, (1,), (0, 0))


@pytest.mark.parametrize("G", [make_group([])] + groups_up_to_order(16), ids=str)
def test_elem_reduce_lookup_matches_the_arithmetic(G):
    for e in all_elements(G):
        for a in element_forms(G, e):
            reduced = elem_reduce(G, a)
            assert reduced == reduce_by_arithmetic(G, a) == e, a
            assert type(reduced) is tuple and all(type(x) is int for x in reduced), a
        for a in (e + (0,), e[:-1]) if e else ((0,),):
            with pytest.raises(ValueError, match="arity"):
                elem_reduce(G, a)


def test_all_elements_order_and_count():
    G = make_group([2, 4])
    elems = all_elements(G)
    assert len(elems) == 8
    assert elems[0] == (0, 0)
    assert list(elems) == sorted(elems)
    assert all_elements(make_group([])) == ((),)
    assert all_elements(make_group([3])) == ((0,), (1,), (2,))


def test_element_orders_divide_group_order():
    for G in groups_up_to_order(16):
        for a in all_elements(G):
            assert G.order % elem_order(G, a) == 0


def test_order_two_subgroups():
    assert order_two_subgroups(make_group([3])) == []
    (only,) = order_two_subgroups(make_group([2]))
    assert only.elements == {(0,), (1,)}
    subgroups = order_two_subgroups(make_group([2, 4]))
    assert [sorted(H.elements) for H in subgroups] == [
        [(0, 0), (0, 2)], [(0, 0), (1, 0)], [(0, 0), (1, 2)]]


def test_subgroup_closure():
    G = make_group([2, 2])
    assert subgroup_closure(G, []).elements == {(0, 0)}
    assert subgroup_closure(G, [(1, 1)]).elements == {(0, 0), (1, 1)}
    C4 = make_group([4])
    assert subgroup_closure(C4, [(2,)]).elements == {(0,), (2,)}


def test_all_subgroups_counts():
    assert len(all_subgroups(make_group([2, 2]))) == 5
    assert len(all_subgroups(make_group([4]))) == 3
    assert len(all_subgroups(make_group([]))) == 1
    with pytest.raises(ValueError):
        all_subgroups(make_group([65]))


def test_all_subgroups_match_the_closure_oracle():
    for G in [make_group([])] + groups_up_to_order(16):
        lattice = all_subgroups(G)
        assert len(lattice) == len({H.elements for H in lattice}), G
        assert {H.elements for H in lattice} == subgroups_by_closure(G), G
        assert lattice == sorted(lattice, key=lambda H: (H.order, sorted(H.elements)))


def test_elementary_abelian_subgroup_counts_are_gaussian_binomial_sums():
    def gaussian_binomial(k, j):  # number of j-dimensional subspaces of F_2^k
        num = den = 1
        for i in range(j):
            num *= 2 ** (k - i) - 1
            den *= 2 ** (i + 1) - 1
        return num // den

    counts = [len(all_subgroups(make_group([2] * k))) for k in range(7)]
    assert counts == [1, 2, 5, 16, 67, 374, 2825]
    assert counts == [sum(gaussian_binomial(k, j) for j in range(k + 1)) for k in range(7)]


def test_all_subgroups_lagrange_and_closure():
    for G in groups_up_to_order(16):
        for H in all_subgroups(G):
            assert G.order % H.order == 0
            for x in H.elements:
                for y in H.elements:
                    assert elem_add(G, x, y) in H.elements


def test_smith_normal_form_examples():
    assert smith_normal_form([[2, 0], [0, 4]]) == [2, 4]
    assert smith_normal_form([[2, 0, 0], [0, 4, 2]]) == [2, 2]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([]) == []


def test_smith_normal_form_random_properties():
    rng = random.Random(20240817)
    for _ in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        diag, U, V = smith_normal_form(M, transforms=True)
        # divisibility chain, zeros last
        for i in range(len(diag) - 1):
            assert diag[i] >= 0
            if diag[i] == 0:
                assert diag[i + 1] == 0
            else:
                assert diag[i + 1] % diag[i] == 0
        # unimodular transforms reproduce the diagonal
        assert abs(determinant(U)) == 1
        assert abs(determinant(V)) == 1
        D = matmul(matmul(U, M), V)
        for i in range(m):
            for j in range(n):
                expected = diag[i] if i == j and i < len(diag) else 0
                assert D[i][j] == expected
        # prefix products equal gcds of k x k minors
        prod = 1
        for k in range(1, min(m, n) + 1):
            prod *= diag[k - 1]
            assert abs(prod) == gcd_of_k_minors(M, k)


def test_quotient_group_examples():
    G = make_group([2, 4])
    Q, _ = quotient_group(G, subgroup_closure(G, [(0, 2)]))
    assert Q.invariants == (2, 2)
    C4 = make_group([4])
    Q, _ = quotient_group(C4, subgroup_closure(C4, [(2,)]))
    assert Q.invariants == (2,)
    Q, _ = quotient_group(G, subgroup_closure(G, []))
    assert Q == G


def test_quotient_group_projection_laws():
    for G in groups_up_to_order(16):
        for H in all_subgroups(G):
            Q, proj = quotient_group(G, H)
            assert Q.order * H.order == G.order
            image = {proj(a) for a in all_elements(G)}
            assert image == set(all_elements(Q))
            kernel = {a for a in all_elements(G) if proj(a) == Q.zero()}
            assert kernel == set(H.elements)
            for a in all_elements(G):
                for b in all_elements(G):
                    assert proj(elem_add(G, a, b)) == elem_add(Q, proj(a), proj(b))


def test_quotient_rejects_foreign_subgroup():
    G = make_group([2, 4])
    bad = subgroup_closure(make_group([2, 2]), [(1, 1)])
    with pytest.raises(ValueError):
        quotient_group(G, bad)


def test_quotient_rejects_invalid_subgroup_on_every_call():
    # lru_cache does not cache exceptions: every call re-validates.
    G = make_group([2, 4])
    not_closed = Subgroup(frozenset({(0, 0), (0, 1)}))
    for _ in range(3):
        with pytest.raises(ValueError, match="not closed"):
            quotient_group(G, not_closed)


def test_quotient_memo_validates_each_subgroup_once(monkeypatch):
    import zerosum.groups as groups

    calls = []
    original = groups._validate_subgroup

    def counting_validate(G, H):
        calls.append(H)
        original(G, H)

    monkeypatch.setattr(groups, "_validate_subgroup", counting_validate)
    quotient_group.cache_clear()
    G = make_group([2, 2, 2])
    subgroups = all_subgroups(G)
    first = [quotient_group(G, H) for H in subgroups]
    again = [quotient_group(G, H) for H in subgroups for _ in range(5)]
    assert len(calls) == len(subgroups) == 16
    assert all(a is first[i // 5] for i, a in enumerate(again))
    info = quotient_group.cache_info()
    assert info.misses == 16 and info.hits == 80
    quotient_group.cache_clear()


def test_order_cap_rejects_before_building_tables(monkeypatch):
    import zerosum.groups as groups

    monkeypatch.setattr(groups, "MAX_ORDER", 8)
    all_elements.cache_clear()
    for build in (lambda: make_group([16]), lambda: make_group([2, 2, 2, 2]),
                  lambda: parse_group("C3xC3"), lambda: Group((4, 4))):
        with pytest.raises(ValueError, match="exceeds the cap 8"):
            build()
    assert all_elements.cache_info().currsize == 0
    assert make_group([2, 4]).order == 8  # at the cap is accepted


def test_d_star():
    assert d_star(make_group([7])) == 6
    assert d_star(make_group([3, 3])) == 4
    assert d_star(make_group([])) == 0


def test_element_index_consistent():
    G = make_group([2, 4])
    idx = element_index(G)
    for i, e in enumerate(all_elements(G)):
        assert idx[e] == i


def test_automorphism_enumerator_counts():
    # |Aut(C_n)| = phi(n); |GL(2,2)| = 6, |GL(3,2)| = 168, |GL(4,2)| = 20160,
    # |GL(3,3)| = 11232, |GL(2, Z/4)| = 96; Aut(C2xC4) is dihedral of order 8.
    expected = {(12,): 4, (7,): 6, (2, 2): 6, (2, 2, 2): 168, (2, 2, 2, 2): 20160,
                (3, 3, 3): 11232, (4, 4): 96, (2, 4): 8}
    for shape, count in expected.items():
        G = make_group(list(shape))
        assert len(set(automorphisms(G))) == count, shape
        assert automorphism_count(G) == count, shape
    assert automorphisms(make_group([2, 2, 2]), limit=100) is None
    assert automorphism_count(make_group([2] * 5)) == 9_999_360  # |GL(5,2)|


def test_automorphism_chain_order_matches_the_closed_form():
    # The elementary automorphisms generate Aut(G): Schreier-Sims over them
    # reaches the order Hillar and Rhea give, on every group up to order 64.
    groups = groups_up_to_order(64)
    assert len(groups) == 116
    for G in groups:
        assert _automorphism_group(G).order == automorphism_count(G), G


def test_elementary_automorphisms_are_bijective_homomorphisms():
    # Past order 36, the groups whose exact Davenport search runs the
    # symmetry cut in the goldens: the cut is sound only for automorphisms.
    past_36 = [make_group([2, 2, 10]), make_group([2, 2, 2, 6]),
               make_group([2, 2, 2, 2, 6])]
    for G in groups_up_to_order(36) + past_36:
        elems = all_elements(G)
        idx = element_index(G)
        for perm in _elementary_automorphisms(G):
            assert sorted(perm) == list(range(G.order)), G
            for a in elems:
                for b in elems:
                    image = elem_add(G, elems[perm[idx[a]]], elems[perm[idx[b]]])
                    assert elems[perm[idx[elem_add(G, a, b)]]] == image, (G, perm)


def test_element_orbits_match_the_full_automorphism_group():
    checked = 0
    for G in groups_up_to_order(36):
        auts = automorphisms(G, limit=25_000)
        if auts is None:
            assert G.invariants == (2, 2, 2, 2, 2)  # |GL(5,2)| is about 10^7
            continue
        assert _automorphism_group(G).order == len(auts), G
        brute = tuple(min(perm[a] for perm in auts) for a in range(G.order))
        assert _automorphism_group(G).orbit_min == brute, G
        checked += 1
    assert checked == 60


def test_stabilizer_orbits_match_the_listed_automorphisms():
    # For every subgroup and every set of one or two element indices,
    # _fix_point folded over its points from Aut(G) gives the listed
    # automorphisms that fix every point: their number and the least
    # image of each element.
    subgroups = point_sets = 0
    for G in groups_up_to_order(16):
        auts = automorphisms(G)
        idx = element_index(G)
        fixed = [{a for a, b in enumerate(perm) if a == b} for perm in auts]
        sets = {tuple(sorted(idx[h] for h in H.elements)) for H in all_subgroups(G)}
        subgroups += len(sets)
        sets.update((a,) for a in range(G.order))
        sets.update((a, b) for a in range(G.order) for b in range(a + 1, G.order))
        for points in sorted(sets):
            stab = _automorphism_group(G)
            for a in points:
                stab = _fix_point(stab, a)
            listed = [perm for perm, fix in zip(auts, fixed) if fix.issuperset(points)]
            brute = tuple(min(perm[a] for perm in listed) for a in range(G.order))
            assert stab.orbit_min == brute, (G, points)
            assert stab.order == len(listed), (G, points)
            point_sets += 1
    assert subgroups == 214
    assert point_sets == 1702


def test_element_orbits_examples():
    def orbit_min(spec):
        return _automorphism_group(make_group(spec)).orbit_min

    assert orbit_min([]) == (0,)
    assert orbit_min([5]) == (0, 1, 1, 1, 1)
    # C2xC4: {0}, {(0,2)} (the doubles), {(1,0), (1,2)}, the order-4 elements.
    assert orbit_min([2, 4]) == (0, 1, 2, 1, 4, 1, 4, 1)
