"""Workload job lists for the zerosum benchmark.

Each workload is a list of `zerosum` command lines run one after another
(a closed loop with a single caller).  Exhaustive sweeps are fixed and do
not depend on the seed; every finishes inside the default 2,000,000-node
budget, so its work and its answer are fixed.  The seeded jobs take their
`--seed`, target element and length from a SplitMix64 stream started at
the workload seed, so the same seed always gives the same argv.
"""

from __future__ import annotations

from dataclasses import dataclass, field

_M64 = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """One SplitMix64 step, as documented in the zerosum README:
    returns (next state, 64-bit output)."""
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


class Draws:
    """A SplitMix64 stream of 64-bit outputs."""

    def __init__(self, seed: int):
        self.state = seed & _M64

    def next(self) -> int:
        self.state, value = splitmix64(self.state)
        return value


@dataclass(frozen=True)
class Job:
    """One command line.  `check` names how its answer is checked:
    "golden" (recorded answer), "transform", "construct" or "random"."""

    argv: tuple[str, ...]
    check: str = "golden"
    info: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _fixed(*lines: str) -> list[Job]:
    return [Job(tuple(line.split())) for line in lines]


# Extremal catalogs and the harnesses built on them: counting.sweep_counts
# reading only the zero count, search.find_extremals filtering and
# structure.minimal_zero_sums over the catalog entries.
CATALOG_FIXED = (
    "conjecture 1 C4xC4 --max-len 9",
    "extremal C11 --max-len 13",
    "extremal C2xC6 --max-len 10",
    "verify odd-structure C3xC3 --max-len 10",
    "verify cn --n 9 --max-len 11",
    "verify es-chain C2xC4 --max-len 9",
    "verify equivalences C3xC3 --max-len 9",
)

# Sweeps that read every count of every multiset (pruning is unsound here).
CENSUS_FIXED = (
    "verify lower-bound C4xC4 --max-len 8",
    "verify one-and-all C2xC2xC2xC2 --max-len 8",
    "verify lower-bound C13 --max-len 10",
)
# (group, max_len, trials) for the seeded transform sweeps: long random
# sequences counted from scratch by count_all.
CENSUS_TRANSFORMS = (("C64", 60, 600), ("C8xC8", 50, 600), ("C256", 60, 150))

# Davenport exact search, the subgroup lattice and quotients.
LATTICE_FIXED = (
    "davenport C3xC12 --method exact",
    "davenport C2xC4xC4 --method both",
    "davenport C2xC2xC2xC4 --method both",
    "davenport C2xC2xC6 --method exact",
    "verify subgroup-es C2xC2xC2 --max-len 7",
    "verify subgroup-es C2xC4 --max-len 8",
    "verify equivalences C2xC2xC2 --max-len 8",
    "verify equivalences C2xC4 --max-len 8 --family-k 20",
)
# (invariants, construct jobs per group) for the seeded construct jobs.
LATTICE_CONSTRUCTS = (((5, 5), 4), ((3, 3, 3), 4))
# Lengths m are drawn from D-1 .. D-1+CONSTRUCT_SPAN-1.
CONSTRUCT_SPAN = 8

WORKLOADS = ("catalog", "census", "lattice")


def settled_davenport(invariants) -> int:
    """D(G) = 1 + sum(n_i - 1), settled for rank <= 2 and for p-groups
    (Olson).  Only called on groups of those classes."""
    order = 1
    for n in invariants:
        order *= n
    p = next(p for p in range(2, order + 1) if order % p == 0)
    while order % p == 0:
        order //= p
    if len(invariants) > 2 and order != 1:
        raise ValueError(f"D is not settled in closed form for {invariants}")
    return 1 + sum(n - 1 for n in invariants)


def group_spec(invariants) -> str:
    return "x".join(f"C{n}" for n in invariants)


def format_element(invariants, g) -> str:
    if len(invariants) == 1:
        return str(g[0])
    return "(" + ",".join(str(c) for c in g) + ")"


def build(workload: str, seed: int) -> list[Job]:
    """The job list of a workload for a seed."""
    draws = Draws(seed)
    if workload == "catalog":
        return _fixed(*CATALOG_FIXED) + [Job(
            ("extremal", "C4xC4", "--max-len", "8", "--random", "--trials", "20000",
             "--seed", str(draws.next())),
            "random", {"invariants": (4, 4), "length": 8, "trials": 20000},
        )]
    if workload == "census":
        seeded = [
            Job(("verify", "transform", spec, "--max-len", str(max_len),
                 "--trials", str(trials), "--seed", str(draws.next())),
                "transform", {"trials": trials})
            for spec, max_len, trials in CENSUS_TRANSFORMS
        ]
        return _fixed(*CENSUS_FIXED) + seeded
    if workload == "lattice":
        seeded = []
        for invariants, count in LATTICE_CONSTRUCTS:
            D = settled_davenport(invariants)
            for _ in range(count):
                g = tuple(draws.next() % n for n in invariants)
                m = D - 1 + draws.next() % CONSTRUCT_SPAN
                seeded.append(Job(
                    ("construct", group_spec(invariants), "--g",
                     format_element(invariants, g), "--m", str(m)),
                    "construct", {"invariants": invariants, "g": g, "m": m, "D": D},
                ))
        return _fixed(*LATTICE_FIXED) + seeded
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
