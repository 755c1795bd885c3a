"""End-to-end acceptance suite.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s``).  Every assertion is an exact
integer equality; there are no tolerances anywhere.
"""

import random
from math import gcd

from zerosum import (
    all_elements,
    check_corollary_decomposition,
    check_odd_group_structure,
    check_es_chain,
    condition_profile,
    conjecture1_harness,
    conjecture2_harness,
    construct_unbounded_family,
    count_all,
    count_brute_vector,
    d_star,
    davenport_exact,
    davenport_formula,
    divides,
    extremal_set,
    find_extremals,
    format_sequence,
    iterate_multisets,
    make_group,
    max_subgroups_in_extremal_set,
    quotient_group,
    seq_sum,
    sequence,
    subgroup_closure,
    transform,
)
from zerosum.counting import ExtremalSet, limb_layout, sweep_counts
from helpers import es_chain_terms, every_band, groups_up_to_order, ODD_GROUPS_9


def conclude(number, description, problems):
    status = "FAIL" if problems else "PASS"
    print(f"ACCEPTANCE {number}: {status} - {description}")
    for p in problems[:5]:
        print(f"    {p}")
    assert not problems, f"criterion {number}: {problems[:5]}"


def meets(count, exponent):
    return count >= (1 << exponent) if exponent >= 0 else count >= 1


def test_criterion_01_oracle_equivalence():
    problems = []
    for n in (3, 4):
        G = make_group([n])
        for length in range(0, 7):
            for S in iterate_multisets(G, length):
                if count_all(S) != count_brute_vector(S):
                    problems.append(f"exhaustive mismatch on {format_sequence(S)} over {G}")
    rng = random.Random(20250810)
    pool = groups_up_to_order(8)
    for _ in range(1000):
        G = rng.choice(pool)
        elems = all_elements(G)
        S = sequence(G, [rng.choice(elems) for _ in range(rng.randint(0, 12))])
        if count_all(S) != count_brute_vector(S):
            problems.append(f"random mismatch on {format_sequence(S)} over {G}")
    conclude(1, "count_all equals subset-enumeration oracle everywhere", problems)


def test_criterion_02_lower_bound():
    problems = []
    for G in groups_up_to_order(8):
        D = davenport_exact(G).value
        unpack = limb_layout(G, D + 4).unpack
        for occurrences, packed in sweep_counts(G, D + 4, every_band(D + 4)):
            counts = unpack(packed)
            exponent = len(occurrences) - D + 1
            for c in counts:
                if c > 0 and not meets(c, exponent):
                    problems.append(
                        f"{G}: violation at {occurrences} (count {c}, exponent {exponent})"
                    )
    conclude(2, "attainable sums meet 2^(|S|-D+1) for all groups of order <= 8", problems)


def test_criterion_03_transform_identity():
    problems = []
    rng = random.Random(424242)
    pool = groups_up_to_order(8)
    for _ in range(1000):
        G = rng.choice(pool)
        elems = all_elements(G)
        S = sequence(G, [rng.choice(elems) for _ in range(rng.randint(0, 10))])
        T = sequence(G, {g: rng.randint(0, m) for g, m in S.terms})
        assert divides(T, S)
        W = transform(S, T)
        if count_all(S)[seq_sum(T)] != count_all(W).zero_count:
            problems.append(f"{G}: {format_sequence(S)} / {format_sequence(T)}")
    conclude(3, "counts at sum(T) equal zero counts of the rewrite, 1000 random pairs", problems)


def test_criterion_04_davenport_values():
    problems = []
    for n in range(1, 13):
        value = davenport_exact(make_group([n])).value
        if value != max(n, 1):
            problems.append(f"C{n}: expected {n}, got {value}")
    for m in range(2, 7):
        for n in range(m, 37):
            if m * n > 36 or n % m:
                continue
            G = make_group([m, n])
            value = davenport_exact(G).value
            if value != m + n - 1:
                problems.append(f"{G}: expected {m + n - 1}, got {value}")
    if davenport_exact(make_group([2, 2, 2])).value != 4:
        problems.append("C2xC2xC2: expected 4")
    if davenport_exact(make_group([3, 3])).value != 5:
        problems.append("C3xC3: expected 5")
    for G in groups_up_to_order(16):
        formula = davenport_formula(G)
        if formula is not None and formula != davenport_exact(G).value:
            problems.append(f"{G}: formula {formula} != search")
    conclude(4, "exact Davenport search matches known values and closed forms", problems)


def test_criterion_05_cyclic_catalogs():
    problems = []
    for n in (3, 4, 5, 6):
        G = make_group([n])
        catalog = find_extremals(G, n + 2)
        got = {S.terms for S, _ in catalog.entries}
        expected = {
            sequence(G, {(a,): reps}).terms
            for a in range(1, n)
            if gcd(a, n) == 1
            for reps in (n - 1, n)
        }
        phi = sum(1 for a in range(1, n) if gcd(a, n) == 1)
        if got != expected or len(got) != 2 * phi:
            problems.append(f"C{n}: catalog has {len(got)} entries, expected {2 * phi}")
    cap = 6
    catalog = find_extremals(make_group([2]), cap)
    got = [format_sequence(S) for S, _ in catalog.entries]
    if got != [f"1^{k}" if k > 1 else "1" for k in range(1, cap + 1)]:
        problems.append(f"C2: catalog {got}")
    conclude(5, "cyclic extremal catalogs are exactly the generator powers", problems)


def test_criterion_06_odd_group_structure():
    problems = []
    for G in ODD_GROUPS_9:
        D = davenport_exact(G).value
        cap = min(D + 3, 7) if G.order == 9 and G.rank == 2 else D + 3
        catalog = find_extremals(G, cap)
        for S, _ in catalog.entries:
            report = check_odd_group_structure(S, D)
            if report.status != "pass":
                problems.append(f"{G}: {format_sequence(S)} -> {report.status}")
    conclude(6, "extremal sequences over odd groups decompose disjointly", problems)


def test_criterion_07_corollary_decomposition():
    problems = []
    checked = 0
    for G in ODD_GROUPS_9:
        D = davenport_exact(G).value
        cap = min(D + 3, 7) if G.order == 9 and G.rank == 2 else D + 3
        catalog = find_extremals(G, cap)
        for S, E in catalog.entries:
            if E.members != {G.zero()}:
                continue
            checked += 1
            report = check_corollary_decomposition(S, D)
            if report.status != "pass":
                problems.append(f"{G}: {format_sequence(S)} -> {report.status}")
    if checked == 0:
        problems.append("no sequence with extremal set {0} was checked")
    conclude(7, "sequences with extremal set {0} factor into their minimal zero-sums", problems)


def test_criterion_08_extremal_set_lemmas():
    problems = []
    for G in groups_up_to_order(8):
        D = davenport_exact(G).value
        catalog = find_extremals(G, D + 3)
        for S, _ in catalog.entries:
            if len(S) < D:
                continue
            report = check_es_chain(S, D)
            if not report.passed or report.details["terms_checked"] != len(es_chain_terms(S)):
                problems.append(f"chain: {G} {format_sequence(S)} -> {report.status}")
        lo = max(D - 1, 0)
        unpack = limb_layout(G, D + 3).unpack
        bands = [None] * lo + every_band(D + 3)[lo:]
        for occurrences, packed in sweep_counts(G, D + 3, bands):
            exponent = len(occurrences) - D + 1
            members = frozenset(
                g for g, c in zip(all_elements(G), unpack(packed)) if c == 1 << exponent
            )
            if not members:
                continue
            E = ExtremalSet(G, members, exponent)
            _, verdict = max_subgroups_in_extremal_set(E)
            if not verdict.passed:
                problems.append(f"subgroup: {G} at {occurrences}")
    conclude(8, "extremal-set chain inclusion and subgroup verdicts hold (order <= 8)", problems)


def test_criterion_09_equivalences():
    problems = []
    expectations = {
        "C2": False, "C2xC2": False, "C2xC4": False, "C4": True,
        "C3": True, "C5": True, "C7": True, "C9": True, "C3xC3": True,
    }
    profiles = {}
    for spec, expected in expectations.items():
        G = make_group([int(p[1:]) for p in spec.split("x")])
        profile = condition_profile(G)
        profiles[spec] = profile
        if profile.cond_iii is not expected:
            problems.append(f"{spec}: cond_iii {profile.cond_iii}, expected {expected}")
    for spec in ("C2", "C2xC2", "C2xC4"):
        G = make_group([int(p[1:]) for p in spec.split("x")])
        H = profiles[spec].offending_H
        if H is None:
            problems.append(f"{spec}: no offending subgroup recorded")
            continue
        D = davenport_exact(G).value
        h = next(x for x in H.elements if x != G.zero())
        for k in range(1, 11):
            S = construct_unbounded_family(G, H, k)
            cv = count_all(S)
            exponent = len(S) - D + 1
            if not (cv.zero_count == cv[h] == 1 << exponent):
                problems.append(f"{spec}: family member k={k} fails the count check")
    G24 = make_group([2, 4])
    quotient, _ = quotient_group(G24, subgroup_closure(G24, [(0, 2)]))
    if quotient.invariants != (2, 2):
        problems.append(f"C2xC4 quotient: {quotient}")
    conclude(9, "quotient condition profiles and unbounded families verified", problems)


def test_criterion_10_conjecture_harnesses():
    problems = []
    for spec, cap in (("C3xC3", 7), ("C4", 8), ("C5", 8)):
        G = make_group([int(p[1:]) for p in spec.split("x")])
        report = conjecture1_harness(G, cap)
        if report.status != "pass" or report.details.get("result") != "no counterexample up to cap":
            problems.append(f"conjecture 1 on {spec}: {report.status}")

    for spec, cap in (("C3xC3", 7), ("C5", 7), ("C2xC2", 5)):
        G = make_group([int(p[1:]) for p in spec.split("x")])
        report = conjecture2_harness(G, cap)
        bound = d_star(G) + G.rank
        details = report.details
        if report.status != "pass":
            problems.append(f"conjecture 2 on {spec}: {report.status}")
        if details["witness_length"] != bound or not details["witness_extremal"]:
            problems.append(f"conjecture 2 on {spec}: witness does not attain the bound")
        if spec == "C2xC2":
            # Over C2xC2, |G| * 2^(|S|-D+1) = 2^|S| exactly, so a nonempty
            # extremal set is forced to be the whole group and never passes
            # the subgroup-free filter; the bound d_star + rank = 4 is
            # exhibited by the witness e1^2 e2^2 itself.  Verified here.
            if details["max_qualifying_length"] is not None:
                problems.append("conjecture 2 on C2xC2: expected an empty filtered family")
            D = davenport_exact(G).value
            full = set(all_elements(G))
            for length in range(max(D - 1, 0), cap + 1):
                for S in iterate_multisets(G, length, exclude_zero=True):
                    members = extremal_set(S, D).members
                    if members and members != full:
                        problems.append(
                            f"C2xC2: proper nonempty extremal set at {format_sequence(S)}"
                        )
        else:
            if details["max_qualifying_length"] != bound:
                problems.append(
                    f"conjecture 2 on {spec}: max qualifying length "
                    f"{details['max_qualifying_length']} != {bound}"
                )
            if not (details["witness_qualifies"] and details["bound_attained"]):
                problems.append(f"conjecture 2 on {spec}: witness not in the filtered family")
    conclude(10, "conjecture harnesses find no counterexamples; bounds tight", problems)


def test_criterion_11_normalization():
    problems = []
    rng = random.Random(31415)
    pool = groups_up_to_order(8)
    for _ in range(300):
        G = rng.choice(pool)
        elems = all_elements(G)
        S = sequence(G, [rng.choice(elems) for _ in range(rng.randint(0, 14))])
        if sum(count_all(S).counts) != 1 << len(S):
            problems.append(f"{G}: {format_sequence(S)}")
    for G in (make_group([5]), make_group([2, 2])):
        unpack = limb_layout(G, 6).unpack
        for occurrences, packed in sweep_counts(G, 6, every_band(6)):
            if sum(unpack(packed)) != 1 << len(occurrences):
                problems.append(f"{G}: sweep at {occurrences}")
    # count_all additionally asserts this identity on every call made
    # anywhere in the suite.
    conclude(11, "count vectors always sum to 2^|S|", problems)
