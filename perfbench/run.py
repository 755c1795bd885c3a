"""zerosum benchmark: runs one workload of CLI jobs, checks every answer
and prints its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {catalog,census,lattice} --seed N \
        --seconds S --trace {0,1}

--trace 0 prints the end-to-end metrics of BENCHMARK.json:
  setup_s       median, over SETUP_SAMPLES fresh interpreters, of the time to
                import zerosum and build the CLI parser, at reference speed;
  wall_s        the job list's wall time after set-up, at reference host
                speed: the sum over jobs of each job's median scaled time
                over the rounds run;
  peak_rss_mib  median peak resident memory of a round's process;
  ok_ratio      jobs answered correctly / jobs attempted.
Rounds of the whole job list run one after another, each in a fresh
interpreter, while the next round is expected to end within --seconds (at
least one round).  A time at reference speed is the wall time multiplied by
calibrate.REFERENCE_PROBE_S and divided by the mean time of the calibration
probes taken during and next to it (calibrate.py), which removes most of
the slowdown other tenants of a shared host cause.  Set-up is scaled the
same way by set-up probes (compile, exec, argparse) taken right after it.

--trace 1 prints the per-layer metrics: one untraced round gives
process.cpu_s, then one traced round (tracer.py) gives the per-function
counts and self times, and trace.overhead_ratio (traced / untraced wall
time).  Its spans are written to perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when a result is
printed, and non-zero without a result when the benchmark cannot run (no
zerosum source, or a round's process fails).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import jobs as joblists
from calibrate import REFERENCE_PROBE_S, REFERENCE_SETUP_PROBE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 9
ROUND_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself cannot run: no result is printed."""


def _worker(flags: list[str], stdin: str = "") -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *flags], input=stdin, capture_output=True,
            text=True, cwd=ROOT, env=env, timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"round exceeded {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed with exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _round(job_list, trace: bool = False) -> dict:
    flags = ["--trace"] if trace else []
    return _worker(flags, json.dumps([list(j.argv) for j in job_list]))


class Checker:
    """Checks every job run; each distinct answer of a job is checked once."""

    def __init__(self):
        self.golden = checks.load_golden()
        self.verdicts: dict[tuple[str, str], str | None] = {}
        self.attempted = 0
        self.failed = 0

    def check_round(self, job_list, rnd: dict) -> None:
        for job, res in zip(job_list, rnd["jobs"], strict=True):
            self.attempted += 1
            reason = res["error"] or (None if res["rc"] == 0 else f"exit code {res['rc']}")
            if reason is None:
                answer = json.dumps(checks.canonical(res["payload"]), sort_keys=True)
                key = (job.key, answer)
                if key not in self.verdicts:
                    self.verdicts[key] = checks.check_answer(job, res["payload"], self.golden)
                reason = self.verdicts[key]
            if reason is not None:
                self.failed += 1
                print(f"FAILED {job.key}: {reason}", file=sys.stderr)


def _at_reference_speed(seconds: float, probes, reference: float = REFERENCE_PROBE_S) -> float:
    """A time scaled to the host speed at which one calibration probe takes
    `reference` seconds, using the probes run during and next to it."""
    return seconds * reference / statistics.fmean(probes)


def _end_to_end(job_list, seconds: float, checker: Checker) -> dict:
    setup = []
    for _ in range(SETUP_SAMPLES):
        probe = _worker(["--setup-only"])
        setup.append(_at_reference_speed(probe["setup_s"], probe["probes"],
                                         REFERENCE_SETUP_PROBE_S))
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(_round(job_list))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break
    for rnd in rounds:
        checker.check_round(job_list, rnd)
    print(f"{len(rounds)} rounds; per job, the median time at reference speed "
          "and the median wall time:", file=sys.stderr)
    wall = 0.0
    for i, job in enumerate(job_list):
        runs = [rnd["jobs"][i] for rnd in rounds]
        scaled = statistics.median(_at_reference_speed(r["seconds"], r["probes"]) for r in runs)
        wall += scaled
        raw = statistics.median(r["seconds"] for r in runs)
        print(f"  {scaled:8.4f} {raw:8.4f}  {job.key}", file=sys.stderr)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mib": statistics.median(r["peak_rss_kib"] for r in rounds) / 1024,
        "ok_ratio": (checker.attempted - checker.failed) / checker.attempted,
    }


def _per_layer(job_list, workload: str, seed: int, checker: Checker) -> dict:
    plain = _round(job_list)
    traced = _round(job_list, trace=True)
    checker.check_round(job_list, plain)
    checker.check_round(job_list, traced)
    metrics = dict(traced["trace"]["metrics"])
    metrics["process.cpu_s"] = sum(j["cpu_s"] for j in plain["jobs"])
    metrics["trace.overhead_ratio"] = (sum(j["seconds"] for j in traced["jobs"])
                                       / sum(j["seconds"] for j in plain["jobs"]))
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(
        json.dumps(traced["trace"], indent=1))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=joblists.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zerosum" / "__init__.py").is_file():
        print(f"error: no zerosum source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    job_list = joblists.build(args.workload, args.seed)
    checker = Checker()
    try:
        if args.trace:
            values = _per_layer(job_list, args.workload, args.seed, checker)
            declared = spec["per_layer"]
        else:
            values = _end_to_end(job_list, args.seconds, checker)
            declared = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
