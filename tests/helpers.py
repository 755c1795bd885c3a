"""Shared test fixtures: group pools and dead-simple reference oracles."""

from functools import lru_cache
from itertools import combinations, product
from math import comb, gcd

from zerosum import (
    ExtremalCatalog,
    ExtremalSet,
    Group,
    all_elements,
    count_brute_vector,
    davenport,
    elem_add,
    elem_neg,
    elem_order,
    elem_scale,
    format_sequence,
    iterate_multisets,
    make_group,
    seq_div,
    sequence,
    subsums,
)
from zerosum.counting import SweepStats, extremal_sweep
from zerosum.groups import element_index
from zerosum.search import splitmix64
from zerosum.structure import (
    check_corollary_decomposition,
    check_es_chain,
    check_odd_group_structure,
    condition_profile,
    minimal_zero_sums,
)


def groups_up_to_order(n):
    """Every isomorphism class of order 2..n, by order, then rank, then
    invariant factors."""
    shapes = []

    def extend(shape, order):
        for k in range(shape[-1] if shape else 2, n // order + 1):
            if not shape or k % shape[-1] == 0:
                shapes.append(shape + (k,))
                extend(shape + (k,), order * k)

    extend((), 1)
    return [Group(s) for s in sorted(shapes, key=lambda s: (_order(s), len(s), s))]


def _order(shape):
    out = 1
    for k in shape:
        out *= k
    return out


def automorphisms(G, limit=None):
    """Every automorphism of G as a permutation of element indices, or
    None once more than ``limit`` have been found.

    Brute force over generator images, chosen one at a time: the image of
    e_i must have order dividing n_i, and a partial choice is rejected as
    soon as the span of the images so far has fewer than n_1...n_i
    elements (the map would not be injective on <e_1, ..., e_i>).  The
    span is kept as the images of <e_1, ..., e_i> in element order, so a
    full choice is the permutation itself.
    """
    elems = all_elements(G)
    idx = element_index(G)
    add = [[idx[elem_add(G, a, b)] for b in elems] for a in elems]
    found = []

    def extend(span, i):
        if i == G.rank:
            found.append(tuple(span))
            return limit is None or len(found) <= limit
        n = G.invariants[i]
        for g in elems:
            if n % elem_order(G, g):
                continue
            multiples = [idx[elem_scale(G, k, g)] for k in range(n)]
            wider = [add[a][m] for a in span for m in multiples]
            if len(set(wider)) == len(wider) and not extend(wider, i + 1):
                return False
        return True

    return found if extend([0], 0) else None


def automorphism_count(G):
    """|Aut(G)| in closed form (C. J. Hillar and D. L. Rhea, "Automorphisms
    of finite abelian groups", Amer. Math. Monthly 114, 2007).

    Aut(G) is the product of the Aut(G_p) over the Sylow subgroups.  For
    G_p = Z/p^e_1 + ... + Z/p^e_k with e_1 <= ... <= e_k, let
    d_j = max{l : e_l = e_j} and c_j = min{l : e_l = e_j} (1-based); then
    |Aut(G_p)| = prod_j (p^d_j - p^(j-1)) * prod_j p^(e_j (k - d_j))
    * prod_j p^((e_j - 1)(k - c_j + 1)).
    """
    total = 1
    for p in sorted({q for n in G.invariants for q in range(2, n + 1)
                     if n % q == 0 and all(q % r for r in range(2, q))}):
        e = []
        for n in G.invariants:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            if k:
                e.append(k)
        k = len(e)
        d = [max(l for l in range(1, k + 1) if e[l - 1] == ej) for ej in e]
        c = [min(l for l in range(1, k + 1) if e[l - 1] == ej) for ej in e]
        for j in range(1, k + 1):
            total *= p ** d[j - 1] - p ** (j - 1)
            total *= p ** (e[j - 1] * (k - d[j - 1]))
            total *= p ** ((e[j - 1] - 1) * (k - c[j - 1] + 1))
    return total


def davenport_by_plain_dfs(G):
    """D(G) by a DFS with no bound and no cut: over nondecreasing element
    indices, appending a only while -a is not yet a subset sum, the sums
    kept as a set of element indices that starts as {0}; one more than the
    longest sequence reached."""
    elems = all_elements(G)
    idx = element_index(G)
    adds = [[idx[elem_add(G, s, a)] for s in elems] for a in elems]
    negs = [idx[elem_neg(G, a)] for a in elems]
    longest = 0

    def extend(start, sums, length):
        nonlocal longest
        longest = max(longest, length)
        for i in range(start, len(elems)):
            if negs[i] not in sums:
                add = adds[i]
                extend(i, sums | {add[s] for s in sums}, length + 1)

    extend(0, {0}, 0)
    return longest + 1


def subgroups_by_closure(G):
    """Every subgroup of G as a frozenset of elements, by closing every set
    of at most rank(G) elements under addition: a subgroup of an abelian
    group of rank r needs at most r generators."""
    found = set()
    for k in range(G.rank + 1):
        for gens in combinations(all_elements(G), k):
            H = {G.zero()}
            while True:
                grown = {elem_add(G, h, g) for h in H for g in gens} - H
                if not grown:
                    break
                H |= grown
            found.add(frozenset(H))
    return found


def es_chain_terms(S):
    """The terms a of S (support order) with -a a subsum of S with one a
    removed: the terms an es-chain check of S must check."""
    G = S.group
    return [a for a in S.support()
            if elem_neg(G, a) in subsums(seq_div(S, sequence(G, {a: 1})))]


ODD_GROUPS_9 = [make_group(s) for s in [[3], [5], [7], [9], [3, 3]]]


def reduce_by_arithmetic(G, a):
    """The reduction of ``a`` by plain arithmetic: int() of every
    coordinate, the arity checked, each coordinate taken mod its factor."""
    a = tuple(int(x) for x in a)
    if len(a) != G.rank:
        raise ValueError(f"element {a!r} has arity {len(a)}, group {G} has rank {G.rank}")
    return tuple(x % n for x, n in zip(a, G.invariants))


def element_forms(G, e):
    """Inputs that denote the element e of G: e itself, each coordinate
    plus or minus its modulus, every coordinate made negative, e as a
    list, and e with bool or float coordinates."""
    forms = [e, list(e), tuple(x - n for x, n in zip(e, G.invariants)),
             tuple(x == 1 if x < 2 else x for x in e), tuple(float(x) for x in e)]
    for i, n in enumerate(G.invariants):
        for shift in (n, -n):
            forms.append(e[:i] + (e[i] + shift,) + e[i + 1:])
    return forms


def naive_count(S, g):
    """Count index subsets summing to g by explicit subset iteration.

    Kept deliberately primitive (itertools.combinations over index sets) to
    double-check the Gray-code enumerator on small inputs.
    """
    G = S.group
    occ = S.expanded()
    total = 0
    for size in range(len(occ) + 1):
        for picks in combinations(range(len(occ)), size):
            s = G.zero()
            for i in picks:
                s = elem_add(G, s, occ[i])
            if s == g:
                total += 1
    return total


@lru_cache(maxsize=None)
def _zero_free_counts(G, max_len):
    """(occurrence tuple, counts) for every multiset of nonzero elements
    of length at most ``max_len``, sorted by occurrence tuple, the counts
    from ``count_brute_vector``."""
    rows = [(S.expanded(), count_brute_vector(S).counts)
            for S in iterate_multisets(G, max_len, exclude_zero=True)]
    if max_len > 0:
        rows += _zero_free_counts(G, max_len - 1)
    return tuple(sorted(rows))


def cyclic_zero_free_counts(n, max_len):
    """The rows of ``_zero_free_counts`` for the cyclic group C_n, at any
    length: counts from binomial sums and cyclic convolution.

    k of the m occurrences of a term a give comb(m, k) subsets summing to
    k*a, and distinct terms combine by convolution over Z/n.  No subset
    walk and no packed vector is involved.
    """
    def term_counts(a, m):
        out = [0] * n
        for k in range(m + 1):
            out[k * a % n] += comb(m, k)
        return out

    rows = []
    for mults in product(range(max_len + 1), repeat=n - 1):
        if sum(mults) > max_len:
            continue
        counts = [1] + [0] * (n - 1)
        for a, m in enumerate(mults, 1):
            term = term_counts(a, m)
            counts = [sum(counts[(r - s) % n] * term[s] for s in range(n))
                      for r in range(n)]
        occ = tuple((a,) for a, m in enumerate(mults, 1) for _ in range(m))
        rows.append((occ, tuple(counts)))
    return tuple(sorted(rows))


def reference_random_search(G, length, trials, seed):
    """The catalog that ``random_search(G, length, trials, seed)`` must
    return, as the README states the sampler: each trial draws ``length``
    SplitMix64 outputs, each indexing the nonzero elements in
    lexicographic order modulo their number; a multiset seen before is
    skipped; a new one is a hit when its zero count is 2^(length - D + 1),
    and its extremal members are the elements with that count.  The
    counts come from ``count_brute_vector``, the multisets from
    ``sequence``.
    """
    D = davenport(G).value
    nonzero = all_elements(G)[1:]
    exponent = length - D + 1
    state = seed & ((1 << 64) - 1)
    seen = set()
    hits = []
    for _ in range(trials if nonzero else 0):
        draw = []
        for _ in range(length):
            state, value = splitmix64(state)
            draw.append(nonzero[value % len(nonzero)])
        S = sequence(G, draw)
        if S in seen:
            continue
        seen.add(S)
        if exponent < 0:
            continue
        counts = count_brute_vector(S).counts
        if counts[0] == 1 << exponent:
            members = frozenset(g for g, c in zip(all_elements(G), counts)
                                if c == 1 << exponent)
            hits.append((S, ExtremalSet(G, members, exponent)))
    hits.sort(key=lambda pair: pair[0].expanded())
    return ExtremalCatalog(G, D, tuple(hits), length if hits else 0, length, False)


def reference_transform_sweep(G, max_len, trials, seed):
    """The (S, T) pairs that ``sweep_transform(G, max_len, trials, seed)``
    must check, in order, as the README states the stream: per trial a
    SplitMix64 output modulo max_len + 1 gives the length; that many
    outputs, each indexing all elements of G in lexicographic order
    modulo |G|, give S's occurrences; then one output per distinct term
    of S, in element order, modulo its multiplicity m plus 1, gives T's
    multiplicity of that term.  S and T come from ``sequence``.
    """
    elems = all_elements(G)
    state = seed & ((1 << 64) - 1)
    pairs = []
    for _ in range(trials):
        state, value = splitmix64(state)
        draw = []
        for _ in range(value % (max_len + 1)):
            state, value = splitmix64(state)
            draw.append(elems[value % len(elems)])
        S = sequence(G, draw)
        kept = {}
        for g, m in S.terms:
            state, value = splitmix64(state)
            kept[g] = value % (m + 1)
        pairs.append((S, sequence(G, kept)))
    return pairs


def every_band(max_length):
    """The band table under which ``sweep_counts`` yields every multiset
    it visits: at length n the band (0, 2^n + 1) holds every count."""
    return [(0, (1 << n) + 1) for n in range(max_length + 1)]


def sweep_oracle(G, D, max_len, check, rows=None):
    """The status and details that ``sweep_lower_bound`` (check
    "lower-bound") or ``sweep_one_and_all`` (check "one-and-all") must
    report on G with Davenport constant D up to ``max_len``, from
    plain-int counts: ``rows`` if given (as ``_zero_free_counts`` gives
    them), else the Gray-code counts of ``_zero_free_counts``.

    Walks the zero-free multisets of lengths 0 to ``max_len`` in
    lexicographic order of their occurrence tuples, the order the sweeps
    visit them in, and stops at the first that breaks the check.  The
    bound 2^(|S|-D+1) is an exact float below 1 when the exponent is
    negative, so that case needs no branch.
    """
    if rows is None:
        rows = _zero_free_counts(G, max_len)
    attained = 0
    for occ, counts in rows:
        bound = 2 ** (len(occ) - D + 1)
        if check == "lower-bound":
            failed = any(0 < c < bound for c in counts)
        else:
            hit = bound in counts
            attained += hit
            failed = hit and any(c < bound for c in counts)
        if failed:
            S = sequence(G, occ)
            return "fail", {"group": G.spec(), "sequence": format_sequence(S),
                            "max_len": max_len}
    if check == "lower-bound":
        return "pass", {"group": G.spec(), "max_len": max_len, "davenport": D,
                        "sequences_checked": len(rows)}
    return "pass", {"group": G.spec(), "max_len": max_len,
                    "sequences_checked": len(rows), "bound_attained": attained}


def seq_gcd(A, B):
    """The longest common subsequence of A and B: the pointwise minimum of
    multiplicities."""
    return sequence(A.group, {g: min(m, B.multiplicity(g)) for g, m in A.terms})


def determinant(M):
    """Integer determinant by Laplace expansion (tiny matrices only)."""
    k = len(M)
    if k == 0:
        return 1
    if k == 1:
        return M[0][0]
    total = 0
    for j in range(k):
        if M[0][j] == 0:
            continue
        minor = [[row[c] for c in range(k) if c != j] for row in M[1:]]
        total += (-1) ** j * M[0][j] * determinant(minor)
    return total


def gcd_of_k_minors(M, k):
    """gcd of the absolute values of all k x k minors."""
    rows = range(len(M))
    cols = range(len(M[0]) if M else 0)
    g = 0
    for rsel in combinations(rows, k):
        for csel in combinations(cols, k):
            sub = [[M[r][c] for c in csel] for r in rsel]
            g = gcd(g, abs(determinant(sub)))
    return g


def matmul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def per_entry_sweep(kind, G, D, max_len, budget=None):
    """The (status, details, witnesses) that the catalog sweep ``kind``
    must report on G with Davenport constant D up to ``max_len``: its
    check run on every entry of the pruned ``extremal_sweep``, in walk
    order, with the orbit keys ignored, and the walk stopped after
    ``budget`` multisets (None: no limit; ``es-chain`` walks with none).
    The kinds are the sweeps of
    ``verify odd-structure``, ``corollary`` and ``es-chain`` (their first
    failure in walk order) and ``conjecture1_harness``, with D = D(G) (the
    least failing entry by length, then occurrences).
    """
    spec = G.spec()
    if kind == "conjecture-1":
        details = {"group": spec, "length_cap": max_len,
                   "qualifies": condition_profile(G).cond_iii}
        if not details["qualifies"]:
            details["reason"] = "an order-2 quotient drops the Davenport constant by only 1"
            return "skipped", details, ()
    stats = SweepStats(None if kind == "es-chain" else budget)
    entries = [sequence(G, list(occ)) for occ, _, _ in
               extremal_sweep(G, D, max_len, stats=stats)]
    partial = "pass" if stats.exhaustive else "partial"
    if kind == "conjecture-1":
        failures = []
        for S in entries:
            rep = minimal_zero_sums(S)
            if len(rep.minimals) != len(S) - D + 1 or not rep.pairwise_disjoint:
                failures.append(S)
        details.update(extremal_checked=len(entries), exhaustive=stats.exhaustive)
        if failures:
            S = min(failures, key=lambda T: (len(T), T.expanded()))
            details["counterexample"] = format_sequence(S)
            return "fail", details, (S,)
        details["result"] = "no counterexample up to cap"
        return partial, details, ()
    if kind == "odd-structure":
        reports = [check_odd_group_structure(S, D) for S in entries]
        for S, rep in zip(entries, reports):
            if rep.failed:
                return "fail", {"group": spec, "max_len": max_len,
                                "counterexample": format_sequence(S)}, (S,)
        details = {"group": spec, "max_len": max_len, "extremal_checked": len(entries),
                   "skipped": sum(rep.status == "skipped" for rep in reports),
                   "stats": {"exhaustive": stats.exhaustive}}
        if G.order % 2 == 0:
            details["note"] = "group order is even; behavior recorded, nothing asserted"
        return partial, details, ()
    if kind == "corollary":
        checked = 0
        for S in entries:
            rep = check_corollary_decomposition(S, D)
            checked += rep.status != "skipped"
            if rep.failed:
                return "fail", {"group": spec, "sequence": format_sequence(S)}, (S,)
        return partial, {"group": spec, "max_len": max_len,
                         "decompositions_checked": checked,
                         "stats": {"exhaustive": stats.exhaustive}}, ()
    assert kind == "es-chain", kind
    pairs = 0
    for S in entries:
        rep = check_es_chain(S, D)
        if rep.failed:
            return "fail", {"group": spec, "sequence": format_sequence(S),
                            "removed": rep.details["removed"]}, (S,)
        pairs += rep.details.get("terms_checked", 0)
    return "pass", {"group": spec, "max_len": max_len, "pairs_checked": pairs}, ()
