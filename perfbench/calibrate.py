"""A fixed unit of pure-Python work that measures the host's current speed.

On a shared host, other tenants slow every process down, by up to 2x,
switching between fast and slow within seconds, while CPU time keeps
tracking wall time.  `probe()` times the same small piece of work every
call; a job's time divided by the mean time of the probes taken during and
next to it is much steadier across host load than the job's time alone.
The work mixes the kinds of operation zerosum spends its time on:
big-integer additions over a permutation (count vectors), shift-and-mask on
wide integers (subset-sum bitsets), and tuple, dict and sort work
(sequences and structure checks).  It never changes with the program under
test.
"""

from __future__ import annotations

import argparse
import signal
import time

# Seconds one probe takes at the reference speed: the median over 3,229
# probes taken during 29 `census` rounds on a shared 2-vCPU Intel Xeon
# virtual machine, whose probes took 0.9 ms fast and 1.7 ms slow.
REFERENCE_PROBE_S = 0.0015
# Seconds one set-up probe takes at the reference speed: its median over 40
# fresh interpreters on the same machine, each probed right after set-up.
REFERENCE_SETUP_PROBE_S = 0.0115
# Seconds between probes taken while a job runs.
SAMPLE_INTERVAL_S = 0.1

_N = 64
_PERM = [(7 * i + 3) % _N for i in range(_N)]
_FULL = (1 << 1024) - 1


def _work() -> int:
    counts = [1] + [0] * (_N - 1)
    for _ in range(60):
        counts = [c + counts[p] for c, p in zip(counts, _PERM)]
    mask = 1
    for i in range(1200):
        mask = ((mask << (i % 7 + 1)) | (mask >> 5) | mask) & _FULL ^ (i * 0x9E3779B9)
    table: dict[tuple[int, int], int] = {}
    for i in range(1500):
        key = ((i * 7) % 13, (i * 11) % 17)
        table[key] = table.get(key, 0) + 1
    return counts[0] + mask.bit_count() + len(sorted(table.items()))


def probe() -> float:
    """Seconds taken by one unit of the fixed work."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


# Set-up is compiling and executing module bodies (dataclasses among them)
# and building an argparse parser; its probe does the same kind of work, to
# which host load makes a different difference than to plain arithmetic.
_SETUP_SOURCE = """
from dataclasses import dataclass, field

@dataclass(frozen=True)
class A:
    x: int
    y: tuple = ()

    def total(self):
        return self.x + len(self.y)

@dataclass
class B:
    a: A
    names: list = field(default_factory=list)

@dataclass(frozen=True)
class C:
    p: int
    q: int
    r: str = ""

def f(items):
    out = {}
    for i, v in enumerate(items):
        out.setdefault(v % 7, []).append(i)
    return out
"""


def setup_probe() -> float:
    """Seconds taken by one unit of fixed set-up-like work."""
    t0 = time.perf_counter()
    for _ in range(3):
        exec(compile(_SETUP_SOURCE, "<setup probe>", "exec"), {})
        parser = argparse.ArgumentParser(prog="probe")
        sub = parser.add_subparsers(dest="command")
        for k in range(6):
            command = sub.add_parser(f"c{k}")
            for a in range(5):
                command.add_argument(f"--opt{a}", type=int, default=a)
    return time.perf_counter() - t0


class Sampler:
    """Takes a probe every SAMPLE_INTERVAL_S of wall time, from a SIGALRM
    handler, while the `with` block runs.  `samples` holds (start, seconds)
    pairs; the caller subtracts the probes' time from what it measures."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _work()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def between(self, start: float, end: float) -> list[float]:
        """Durations of the probes that started in [start, end)."""
        return [s for t, s in self.samples if start <= t < end]
