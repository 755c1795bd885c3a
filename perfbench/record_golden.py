"""Record golden answers for the seed-independent benchmark jobs.

Usage, from the root of a checkout:  python3 perfbench/record_golden.py

Runs every fixed job once, cross-checks the answers against oracles that
do not go through the code being timed, and only then writes golden.json:

- catalog sizes from a reference sweep of every zero-free multiset, counted
  with the reference subset-sum counter of checks.py;
- cyclic catalog sizes equal to 2*phi(n);
- Davenport values from settled closed forms, and witnesses that are
  zero-sum free by zerosum.count_brute_vector (a subset walk that shares
  nothing with count_all);
- sweep sizes equal to C(|G| - 1 + L, L).
"""

from __future__ import annotations

import json
import sys
from math import comb, gcd
from pathlib import Path

import checks
import jobs as joblists
import run

sys.path.insert(0, str(run.SRC))

from zerosum import count_brute_vector, parse_group, parse_sequence  # noqa: E402


def reference_catalog_size(invariants, cap: int) -> int:
    """Zero-free multisets of length <= cap whose zero count is 2^(len-D+1),
    found by a DFS that extends the reference counts one term at a time."""
    ref = checks.ReferenceGroup(invariants)
    D = joblists.settled_davenport(invariants)
    n = len(ref.elements)
    found = 0

    def dfs(start: int, depth: int, counts: list[int]) -> None:
        nonlocal found
        if depth >= D - 1 and counts[0] == 1 << (depth - D + 1):
            found += 1
        if depth == cap:
            return
        for j in range(start, n):
            new = counts[:]
            for i, c in enumerate(counts):
                if c:
                    new[ref.add[i][j]] += c
            dfs(j, depth + 1, new)

    dfs(1, 0, [1] + [0] * (n - 1))
    return found


def phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


# Davenport constants known independently of zerosum: 1 + sum(n_i - 1) for
# rank <= 2 and p-groups (Olson), and 2n + 2 for C2 + C2 + C2n
# (van Emde Boas and Kruyswijk).
KNOWN_DAVENPORT = {
    "C3xC12": joblists.settled_davenport((3, 12)),
    "C2xC4xC4": joblists.settled_davenport((2, 4, 4)),
    "C2xC2xC2xC4": joblists.settled_davenport((2, 2, 2, 4)),
    "C2xC2xC6": 8,
}


def cross_check(key: str, answer: dict) -> list[str]:
    """Independent checks of one answer; returns the failures."""
    argv = key.split()
    result = answer["result"]
    failures = []

    def expect(label, got, want):
        status = "ok" if got == want else "MISMATCH"
        print(f"  {status:8s} {key}: {label} = {got} (expected {want})")
        if got != want:
            failures.append(f"{key}: {label}")

    expect("status", answer["status"], "pass")
    if argv[0] == "davenport":
        G = parse_group(argv[1])
        expect("value", result["value"], KNOWN_DAVENPORT[argv[1]])
        witness = parse_sequence(G, result["witness"])
        expect("witness length", len(witness), result["value"] - 1)
        expect("witness zero count (brute force)", count_brute_vector(witness).zero_count, 1)
    elif argv[0] == "extremal":
        invariants = parse_group(argv[1]).invariants
        cap = int(argv[argv.index("--max-len") + 1])
        expect("catalog size", result["count"], reference_catalog_size(invariants, cap))
        if len(invariants) == 1:
            expect("cyclic catalog size", result["count"], 2 * phi(invariants[0]))
        G = parse_group(argv[1])
        D = result["davenport"]
        wrong = 0
        for entry in result["entries"]:
            S = parse_sequence(G, entry["sequence"])
            cv = count_brute_vector(S)
            bound = 1 << (len(S) - D + 1)
            members = sorted(joblists.format_element(invariants, g)
                             for g, c in cv.as_dict().items() if c == bound)
            wrong += cv.zero_count != bound or members != entry["extremal_members"]
        expect("entries whose brute-force counts disagree", wrong, 0)
    elif argv[:2] == ["conjecture", "1"] or argv[:2] == ["verify", "odd-structure"]:
        invariants = parse_group(argv[2]).invariants
        cap = int(argv[argv.index("--max-len") + 1])
        expect("extremal_checked", result["details"]["extremal_checked"],
               reference_catalog_size(invariants, cap))
    elif argv[:2] == ["verify", "cn"]:
        n = int(argv[argv.index("--n") + 1])
        expect("extremal_count", result["details"]["extremal_count"], 2 * phi(n))
    elif argv[1] in ("lower-bound", "one-and-all"):
        order = parse_group(argv[2]).order
        cap = int(argv[argv.index("--max-len") + 1])
        expect("sequences_checked", result["details"]["sequences_checked"],
               comb(order - 1 + cap, cap))
    else:
        print(f"  {'status':8s} {key}: only the status is cross-checked")
    return failures


def main() -> int:
    golden = {}
    failures = []
    for workload in joblists.WORKLOADS:
        job_list = [j for j in joblists.build(workload, 0) if j.check == "golden"]
        rnd = run._round(job_list)
        for job, res in zip(job_list, rnd["jobs"], strict=True):
            if res["error"] or res["rc"] != 0:
                failures.append(f"{job.key}: {res['error'] or res['rc']}")
                continue
            answer = checks.canonical(res["payload"])
            failures += cross_check(job.key, answer)
            golden[job.key] = answer
    if failures:
        print("not recorded; failed cross-checks:\n  " + "\n  ".join(failures))
        return 1
    Path(checks.GOLDEN_PATH).write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} golden answers in {checks.GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
