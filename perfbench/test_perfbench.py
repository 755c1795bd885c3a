"""Self-test of the benchmark.

Run from the root of a checkout:  PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import zerosum  # noqa: E402
import zerosum.cli  # noqa: E402
from zerosum import all_elements, count_brute_vector, make_group, sequence  # noqa: E402


@pytest.mark.parametrize("invariants", [(6,), (2, 4), (3, 3), (2, 2, 2), (4, 4)])
def test_reference_counter_matches_brute_force(invariants):
    rng = random.Random(sum(invariants))
    G = make_group(invariants)
    ref = checks.ReferenceGroup(G.invariants)
    assert ref.elements == list(all_elements(G))
    for _ in range(20):
        occ = sorted(rng.choice(ref.elements) for _ in range(rng.randrange(11)))
        brute = count_brute_vector(sequence(G, occ))
        assert ref.counts(occ) == list(brute.counts)


def test_parse_round_trips_program_format():
    G = make_group((3, 3))
    S = sequence(G, {(0, 1): 2, (1, 0): 1, (2, 2): 3})
    assert checks.parse_sequence(zerosum.format_sequence(S)) == S.expanded()
    assert checks.parse_sequence("empty") == ()
    assert checks.parse_sequence("3^2 5") == ((3,), (3,), (5,))


def test_job_lists_follow_the_seed():
    for workload in jobs.WORKLOADS:
        assert jobs.build(workload, 11) == jobs.build(workload, 11)
        fixed = [j for j in jobs.build(workload, 11) if j.check == "golden"]
        assert fixed == [j for j in jobs.build(workload, 12) if j.check == "golden"]
        assert jobs.build(workload, 11) != jobs.build(workload, 12)


def _answer(argv):
    out = run._round([jobs.Job(tuple(argv))])["jobs"][0]
    assert out["error"] is None and out["rc"] == 0
    return out["payload"]


def test_seeded_checks_reject_wrong_answers():
    [random_job] = [j for j in jobs.build("catalog", 3) if j.check == "random"]
    small = jobs.Job(random_job.argv[:6] + ("500",) + random_job.argv[7:], "random",
                     dict(random_job.info, trials=500))
    payload = _answer(small.argv)
    assert checks.check_answer(small, payload, {}) is None
    wrong = copy.deepcopy(payload)
    wrong["result"]["count"] += 1
    assert checks.check_answer(small, wrong, {}) is not None

    construct = [j for j in jobs.build("lattice", 3) if j.check == "construct"][0]
    payload = _answer(construct.argv)
    assert checks.check_answer(construct, payload, {}) is None
    wrong = copy.deepcopy(payload)
    wrong["result"]["sequence"] = wrong["result"]["sequence"].split(" ", 1)[1]
    assert checks.check_answer(construct, wrong, {}) is not None


def test_golden_check_ignores_provenance_and_stats_only():
    job = jobs.Job(tuple("verify cn --n 9 --max-len 11".split()))
    golden = checks.load_golden()
    payload = _answer(job.argv)
    assert checks.check_answer(job, payload, golden) is None
    payload["provenance"] = {"other": 1}
    payload["result"]["details"]["stats"] = {"nodes": 5}
    assert checks.check_answer(job, payload, golden) is None
    payload["result"]["details"]["extremal_count"] += 1
    assert checks.check_answer(job, payload, golden) is not None
    truncated = _answer(["extremal", "C12", "--max-len", "14", "--budget", "1000"])
    assert checks.check_answer(jobs.Job(("extremal", "C12")), truncated, golden) \
        == "exhaustive sweep reported exhaustive: false"


def test_removing_wrappers_restores_the_originals():
    modules = {name: m for name, m in sys.modules.items()
               if name == "zerosum" or name.startswith("zerosum.")}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    t = tracer.Tracer()
    t.install()
    try:
        assert zerosum.cli.find_extremals is not before["zerosum.cli"]["find_extremals"]
        assert zerosum.count_all is not before["zerosum"]["count_all"]
        t.begin_job(["extremal", "C5", "--max-len", "6"])
        with contextlib.redirect_stdout(io.StringIO()):
            assert zerosum.cli.main(["extremal", "C5", "--max-len", "6", "--json"]) == 0
        t.end_job()
    finally:
        t.uninstall()
    for name, m in modules.items():
        after = vars(m)
        assert all(after[k] is v for k, v in before[name].items() if k in after), name
    metrics = t.metrics()
    assert t.missing == []
    assert metrics["cli.main.calls"] == 1
    assert metrics["search.find_extremals.calls"] == 1
    # Multisets of length <= 6 over the 4 nonzero elements of C5.
    assert metrics["counting.sweep_counts.nodes"] == 210
    assert metrics["search.find_extremals.entries"] == 8  # 2 * phi(5)


def test_missing_function_is_absent_not_zero(monkeypatch):
    monkeypatch.delattr(sys.modules["zerosum.structure"], "check_es_chain")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == ["structure.check_es_chain"]
    assert not any(k.startswith("structure.check_es_chain") for k in t.metrics())


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_workload_at_minimum_scale_answers_everything(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stderr
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
