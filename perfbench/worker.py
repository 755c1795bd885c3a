"""One benchmark round in a fresh interpreter.

Usage: python3 perfbench/worker.py [--setup-only] [--trace] < jobs.json

Times the set-up (import zerosum and build the CLI parser) first, before
importing anything else that zerosum would import itself.  Then, unless
--setup-only, runs each job of the JSON list on stdin through
`zerosum.cli.main(argv + ["--json", "--no-timestamp"])`, one at a time.
Every lru cache of the library is cleared before each job, so lazily built
tables are paid by every job, as by a user running each command in a new
process.  With --trace the library's public functions are wrapped by
tracer.Tracer.  Prints one JSON object as its last line.
"""

import sys
import time

_t0 = time.perf_counter()
import zerosum.cli  # noqa: E402

_build_parser = getattr(zerosum.cli, "_build_parser", None)
if _build_parser is not None:
    _build_parser()
SETUP_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import calibrate  # noqa: E402

# Probes taken this close to a job also count towards its host speed.
PROBE_MARGIN_S = 0.3
# Probes taken right after a set-up measurement.
SETUP_PROBES = 5


def _library_caches() -> list:
    caches = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "zerosum" or name.startswith("zerosum.")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                caches[id(value)] = value
    return list(caches.values())


def run_jobs(jobs: list[list[str]], tracer=None) -> list[dict]:
    """Runs the jobs.  Unless traced, each result carries the times of the
    calibration probes taken during the job and within PROBE_MARGIN_S of it;
    the probes taken during the job are not counted in its time."""
    caches = _library_caches()
    results = []
    sampler = calibrate.Sampler()
    with contextlib.ExitStack() as stack:
        if tracer is None:
            stack.enter_context(sampler)
        for argv in jobs:
            for cache in caches:
                cache.cache_clear()
            out = io.StringIO()
            error = None
            rc = None
            if tracer is not None:
                tracer.begin_job(argv)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    rc = zerosum.cli.main(argv + ["--json", "--no-timestamp"])
            except SystemExit as exc:
                error = f"exited with {exc.code}"
            except Exception as exc:  # a failing job is recorded, the round goes on
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            cpu_s = time.process_time() - cpu0
            if tracer is not None:
                tracer.end_job()
            during = sampler.between(t0, t1)
            payload = None
            if error is None:
                try:
                    payload = json.loads(out.getvalue())
                except ValueError:
                    error = "output is not one JSON report"
            results.append({"argv": argv, "seconds": t1 - t0 - sum(during),
                            "cpu_s": cpu_s - sum(during),
                            "window": (t0 - PROBE_MARGIN_S, t1 + PROBE_MARGIN_S), "rc": rc,
                            "error": error, "payload": payload})
    for result in results:
        start, end = result.pop("window")
        result["probes"] = sampler.between(start, end) or [calibrate.probe()]
    return results


def main() -> int:
    if "--setup-only" in sys.argv:
        probes = [calibrate.setup_probe() for _ in range(SETUP_PROBES)]
        print(json.dumps({"setup_s": SETUP_S, "probes": probes}))
        return 0
    jobs = json.load(sys.stdin)
    tracer = None
    if "--trace" in sys.argv:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        results = run_jobs(jobs, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    report = {
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": results,
    }
    if tracer is not None:
        report["trace"] = {"metrics": tracer.metrics(), "spans": tracer.spans()}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
