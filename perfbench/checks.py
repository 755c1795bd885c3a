"""Answer checks for benchmark jobs.

Fixed jobs are compared with golden answers (golden.json), canonicalized
from the report's `status` and `result`; provenance and any diagnostic
counter block (`stats`) are left out, so adding counters to reports is not
a failure.  Seeded jobs are checked with the small reference subset-sum
counter below, which shares no code with `zerosum.counting`.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from jobs import Draws, Job, settled_davenport

GOLDEN_PATH = Path(__file__).with_name("golden.json")
DIAGNOSTIC_KEYS = frozenset({"stats"})


def canonical(payload: dict) -> dict:
    """The part of a `--json` report that is the answer."""
    return {"status": payload["status"], "result": _strip(payload["result"])}


def _strip(x):
    if isinstance(x, dict):
        return {k: _strip(v) for k, v in x.items() if k not in DIAGNOSTIC_KEYS}
    if isinstance(x, list):
        return [_strip(v) for v in x]
    return x


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


class ReferenceGroup:
    """prod C_{n_i} with elements in lexicographic order and an addition
    table, for counting subset sums by pushing each count forward."""

    def __init__(self, invariants):
        self.invariants = tuple(invariants)
        self.elements = list(itertools.product(*(range(n) for n in self.invariants)))
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.add = [
            [self.index[tuple((x + y) % n for x, y, n in zip(g, h, self.invariants))]
             for h in self.elements]
            for g in self.elements
        ]

    def counts(self, occurrences) -> list[int]:
        """Number of index subsets of `occurrences` summing to each element."""
        counts = [0] * len(self.elements)
        counts[0] = 1
        for a in occurrences:
            j = self.index[a]
            new = counts[:]
            for i, c in enumerate(counts):
                if c:
                    new[self.add[i][j]] += c
            counts = new
        return counts


def parse_element(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text.strip("()").split(","))


def parse_sequence(text: str) -> tuple[tuple[int, ...], ...]:
    """Sorted occurrences of a sequence printed as `(0,1)^2 (1,0)` or `empty`."""
    if text == "empty":
        return ()
    occ = []
    for token in text.split():
        elem, _, mult = token.partition("^")
        occ.extend([parse_element(elem)] * int(mult or 1))
    return tuple(occ)


def check_answer(job: Job, payload: dict, golden: dict) -> str | None:
    """None when the answer is right, else the reason it is not."""
    result = payload["result"]
    if job.check != "random" and _reports_truncation(result):
        return "exhaustive sweep reported exhaustive: false"
    try:
        if job.check == "golden":
            expected = golden.get(job.key)
            if expected is None:
                return "no golden answer recorded"
            return None if canonical(payload) == expected else "answer differs from golden"
        if job.check == "transform":
            ok = (payload["status"] == "pass" and result["status"] == "pass"
                  and result["details"]["trials"] == job.info["trials"])
            return None if ok else "transform sweep did not pass every trial"
        if job.check == "construct":
            return _check_construct(job, payload)
        if job.check == "random":
            return _check_random(job, payload)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return f"malformed answer ({type(exc).__name__}: {exc})"
    raise ValueError(f"unknown check {job.check!r}")


def _reports_truncation(result) -> bool:
    if not isinstance(result, dict):
        return False
    details = result.get("details")
    return result.get("exhaustive") is False or (
        isinstance(details, dict) and details.get("exhaustive") is False)


def _check_construct(job: Job, payload: dict) -> str | None:
    """The count at g equals 2^(m-D+1) and the length is m."""
    info = job.info
    result = payload["result"]
    ref = ReferenceGroup(info["invariants"])
    exponent = info["m"] - info["D"] + 1
    S = parse_sequence(result["sequence"])
    count = ref.counts(S)[ref.index[info["g"]]]
    if payload["status"] != "pass" or len(S) != info["m"] or result["length"] != info["m"]:
        return "constructed sequence has the wrong length"
    if parse_element(result["g"]) != info["g"] or result["exponent"] != exponent:
        return "construct reported the wrong target or exponent"
    if count != 1 << exponent or result["count_at_g"] != count:
        return f"count at g is {count}, reported {result['count_at_g']}, expected {1 << exponent}"
    return None


def _check_random(job: Job, payload: dict) -> str | None:
    """Recompute the random catalog's hits from the same SplitMix64 draws:
    each trial draws `length` nonzero elements (in lexicographic order) as
    output mod their number, sorts them, and skips repeated multisets."""
    info = job.info
    result = payload["result"]
    ref = ReferenceGroup(info["invariants"])
    D = settled_davenport(info["invariants"])
    length = info["length"]
    bound = 1 << (length - D + 1)
    allowed = ref.elements[1:]
    draws = Draws(int(job.argv[job.argv.index("--seed") + 1]))
    seen = set()
    hits = {}
    for _ in range(info["trials"]):
        occ = tuple(sorted(allowed[draws.next() % len(allowed)] for _ in range(length)))
        if occ in seen:
            continue
        seen.add(occ)
        counts = ref.counts(occ)
        if counts[0] == bound:
            hits[occ] = sorted(g for g, c in zip(ref.elements, counts) if c == bound)
    got = {
        parse_sequence(e["sequence"]): sorted(parse_element(m) for m in e["extremal_members"])
        for e in result["entries"]
    }
    if payload["status"] != "pass" or result["davenport"] != D:
        return "random catalog reported the wrong status or Davenport constant"
    if result["count"] != len(hits) or got != hits:
        return f"random catalog has {result['count']} hits, reference finds {len(hits)}"
    return None
