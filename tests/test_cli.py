import json
import os
import pathlib
import re
import subprocess
import sys
from datetime import datetime

import pytest

from zerosum import counting, structure
from zerosum.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json", "--no-timestamp")
    return code, json.loads(out), err


def test_group_info(capsys):
    code, payload, _ = run_json(capsys, "group", "info", "C2xC3")
    assert code == 0
    assert payload["command"] == "group info"
    assert payload["group"] == "C6"
    assert payload["result"]["canonical"] == "C6"
    assert payload["result"]["order"] == 6
    assert payload["result"]["d_star"] == 5
    assert set(payload) == {
        "command", "group", "parameters", "result", "status", "provenance"
    }


def test_group_info_trivial_and_error(capsys):
    code, payload, _ = run_json(capsys, "group", "info", "C1")
    assert code == 0 and payload["result"]["order"] == 1
    code, out, err = run(capsys, "group", "info", "C0")
    assert code == 2 and "error" in err


def test_count_full_vector(capsys):
    code, payload, _ = run_json(capsys, "count", "C3", "1^2 2")
    assert code == 0
    assert payload["result"]["counts"] == {"0": 3, "1": 3, "2": 2}
    assert payload["result"]["extremal_set"]["members"] == ["2"]


def test_count_empty_and_single_g(capsys):
    code, payload, _ = run_json(capsys, "count", "C3", "empty")
    assert code == 0 and payload["result"]["counts"]["0"] == 1
    code, payload, _ = run_json(capsys, "count", "C2", "1^4", "--g", "1")
    assert code == 0 and payload["result"]["count"] == 8


def test_count_searches_davenport_only_when_the_extremal_set_may_exist(capsys):
    # |G| = 96 is above the search cap, and d* = 9: a shorter sequence
    # is answered without D, a 9-term one still needs the search.
    code, payload, _ = run_json(capsys, "count", "C2xC2xC2xC2xC6", "(0,0,0,0,1)")
    assert code == 0 and "extremal_set" not in payload["result"]
    assert payload["result"]["counts"]["(0,0,0,0,1)"] == 1
    code, _, err = run(capsys, "count", "C2xC2xC2xC2xC6", "(0,0,0,0,1)^9")
    assert code == 2 and "exceeds cap 36" in err


def test_count_parse_error(capsys):
    code, _, err = run(capsys, "count", "C3", "(1,2)")
    assert code == 2 and "arity" in err


@pytest.mark.parametrize("argv", [
    ("count", "C16", "1"),
    ("extremal", "C3xC3", "--max-len", "4"),
    ("verify", "cn", "--n", "9"),
    ("group", "info", "C2xC2xC2xC2"),
])
def test_oversized_group_exits_2(capsys, monkeypatch, argv):
    import zerosum.groups as groups

    monkeypatch.setattr(groups, "MAX_ORDER", 8)
    code, _, err = run(capsys, *argv)
    assert code == 2 and "exceeds the cap 8" in err


def test_davenport_methods(capsys):
    code, payload, _ = run_json(capsys, "davenport", "C3xC3", "--method", "both")
    assert code == 0
    assert payload["result"]["value"] == 5
    assert payload["result"]["method"] == "both"
    code, payload, _ = run_json(capsys, "davenport", "C6", "--method", "formula")
    assert payload["result"]["value"] == 6
    code, _, err = run(capsys, "davenport", "C2xC2xC2xC2xC2xC2", "--method", "exact")
    assert code == 2 and "cap" in err


def test_extremal_catalog(capsys):
    code, payload, _ = run_json(capsys, "extremal", "C3", "--max-len", "5")
    assert code == 0
    assert [e["sequence"] for e in payload["result"]["entries"]] == [
        "1^2", "2^2", "1^3", "2^3"
    ]
    assert payload["result"]["exhaustive"] is True


def test_extremal_random_mode_deterministic(capsys):
    args = ("extremal", "C2xC2", "--max-len", "8", "--random",
            "--trials", "500", "--seed", "3")
    code1, payload1, _ = run_json(capsys, *args)
    code2, payload2, _ = run_json(capsys, *args)
    assert code1 == code2 == 0
    assert payload1 == payload2


def test_only_the_exhaustive_catalog_reports_a_budget(capsys):
    # The catalog reads --budget, a random draw --trials and --seed.
    _, exhaustive, _ = run_json(capsys, "extremal", "C3", "--max-len", "5")
    _, random, _ = run_json(capsys, "extremal", "C3", "--max-len", "5", "--random",
                            "--trials", "10", "--seed", "1")
    assert exhaustive["provenance"]["caps"] == {
        "max-len": 5, "budget": 2_000_000, "davenport-cap": 36}
    assert "seed" not in exhaustive["provenance"]
    assert random["provenance"]["caps"] == {
        "max-len": 5, "davenport-cap": 36, "trials": 10}
    assert random["provenance"]["seed"] == 1


def test_transform_reports_a_davenport_cap_only_when_it_searches(capsys):
    # Given --max-len, the transform sweep needs no D and runs no search.
    _, capped, _ = run_json(capsys, "verify", "transform", "C5", "--max-len", "6",
                            "--trials", "3")
    _, searched, _ = run_json(capsys, "verify", "transform", "C5", "--trials", "3")
    assert capped["provenance"]["caps"] == {"max-len": 6, "trials": 3}
    assert searched["provenance"]["caps"] == {"davenport-cap": 36, "trials": 3}


def test_verify_cn(capsys):
    code, payload, _ = run_json(capsys, "verify", "cn", "--n", "4", "--max-len", "8")
    assert code == 0
    assert payload["result"]["status"] == "pass"
    assert payload["result"]["details"]["extremal_count"] == 4


def exits_2(capsys, *argv):
    """Runs a command line that argparse refuses; returns its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    return captured.err


def test_verify_requires_group(capsys):
    err = exits_2(capsys, "verify", "lower-bound")
    assert "the following arguments are required: group" in err


@pytest.mark.parametrize("argv,message", [
    (("verify", "cn", "C5", "--n", "7"), "unrecognized arguments: C5"),
    # --n is not taken as short for --no-timestamp.
    (("verify", "lower-bound", "C5", "--n", "7"), "unrecognized arguments: --n"),
    (("verify", "lower-bound", "C5", "--n"), "unrecognized arguments: --n"),
    # A theorem's flags follow its id; verify itself takes none.
    (("verify", "--json", "lower-bound", "C5"), "unrecognized arguments: --json"),
])
def test_verify_refuses_an_argument_it_does_not_read(capsys, argv, message):
    assert message in exits_2(capsys, *argv)


@pytest.mark.parametrize("argv,flag", [
    (("verify", "lower-bound", "C5", "--trials", "3"), "--trials"),
    (("verify", "odd-structure", "C3xC3", "--family-k", "2"), "--family-k"),
    (("verify", "transform", "C5", "--family-k", "2"), "--family-k"),
    (("verify", "equivalences", "C5", "--seed", "1"), "--seed"),
    (("verify", "cn", "--n", "7", "--davenport-cap", "40"), "--davenport-cap"),
    (("group", "info", "C6", "--davenport-cap", "40"), "--davenport-cap"),
])
def test_a_flag_its_command_does_not_read_exits_2(capsys, argv, flag):
    assert f"unrecognized arguments: {flag}" in exits_2(capsys, *argv)


def test_verify_lower_bound(capsys):
    code, payload, _ = run_json(capsys, "verify", "lower-bound", "C5", "--max-len", "7")
    assert code == 0 and payload["result"]["status"] == "pass"


def test_verify_odd_structure(capsys):
    code, payload, _ = run_json(capsys, "verify", "odd-structure", "C3xC3",
                                "--max-len", "7")
    assert code == 0 and payload["result"]["status"] == "pass"


def test_verify_equivalences_false_case(capsys):
    code, payload, _ = run_json(capsys, "verify", "equivalences", "C2xC4",
                                "--max-len", "8")
    assert code == 0
    details = payload["result"]["details"]
    assert details["cond_iii"] is False
    assert len(details["family"]) == 10


def test_verify_equivalences_true_case(capsys):
    code, payload, _ = run_json(capsys, "verify", "equivalences", "C4",
                                "--max-len", "7")
    assert code == 0
    details = payload["result"]["details"]
    assert details["cond_iii"] is True
    assert details["max_extremal_length"] == 4


def test_conjecture_commands(capsys):
    code, payload, _ = run_json(capsys, "conjecture", "1", "C3xC3", "--max-len", "7")
    assert code == 0 and payload["result"]["details"]["result"] == "no counterexample up to cap"
    code, payload, _ = run_json(capsys, "conjecture", "2", "C5", "--max-len", "7")
    assert code == 0 and payload["result"]["details"]["bound_attained"] is True
    code, payload, _ = run_json(capsys, "conjecture", "1", "C2xC2", "--max-len", "6")
    assert code == 0 and payload["result"]["status"] == "skipped"


def test_failed_check_exits_1(capsys):
    # D(C2xC4) = d_star + 1, but the extremal lengths over C2xC4 are
    # unbounded, so a qualifying sequence outgrows d_star + rank = 6.
    code, payload, _ = run_json(capsys, "conjecture", "2", "C2xC4")
    assert code == 1 and payload["status"] == "fail"
    details = payload["result"]["details"]
    assert details["counterexample"] == "(0,1)^3 (0,3) (1,0)^3"
    assert details["bound_attained"] is False


def test_conjecture_2_refuses_d_above_d_star_plus_one(capsys):
    code, _, err = run(capsys, "conjecture", "2", "C2xC2xC2xC2xC6",
                       "--davenport-cap", "96")
    assert code == 2
    assert "hypothesis requires D(G) = d_star + 1; got D = 11, d_star = 9" in err


def test_timestamp_is_iso_8601(capsys):
    code, out, _ = run(capsys, "group", "info", "C2", "--json")
    assert code == 0
    datetime.fromisoformat(json.loads(out)["provenance"]["timestamp"])


def test_human_output_renders_booleans_and_lists(capsys):
    code, out, _ = run(capsys, "extremal", "C3", "--max-len", "5", "--no-timestamp")
    lines = out.splitlines()
    assert code == 0 and "  exhaustive: true" in lines
    i = lines.index("  entries:")
    assert lines[i + 1:i + 5] == [
        "    -", "      sequence: 1^2", "      length: 2", "      extremal_members:",
    ]
    code, out, _ = run(capsys, "extremal", "C3", "--max-len", "1", "--no-timestamp")
    assert code == 0 and "  entries: []" in out.splitlines()


def test_verify_cn_requires_n(capsys):
    err = exits_2(capsys, "verify", "cn")
    assert "the following arguments are required: --n" in err


def test_construct_command(capsys):
    code, payload, _ = run_json(capsys, "construct", "C5", "--g", "2", "--m", "6")
    assert code == 0
    assert payload["result"]["sequence"] == "0^2 1^2 4^2"
    assert payload["result"]["count_at_g"] == 4
    code, _, err = run(capsys, "construct", "C5", "--g", "2", "--m", "3")
    assert code == 2


def test_extremal_budget_truncation_reports_partial(capsys):
    code, payload, _ = run_json(capsys, "extremal", "C3xC3", "--max-len", "6",
                                "--budget", "50")
    assert code == 0
    assert payload["status"] == "partial"
    assert payload["result"]["exhaustive"] is False


@pytest.mark.parametrize("argv", [
    ("verify", "odd-structure", "C3xC3", "--max-len", "10"),
    ("verify", "corollary", "C3xC3", "--max-len", "8"),
    ("verify", "equivalences", "C12", "--max-len", "14"),
])
def test_verify_on_truncated_catalog_reports_partial(capsys, monkeypatch, argv):
    monkeypatch.setattr(structure, "DEFAULT_BUDGET", 20)
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0
    assert payload["status"] == "partial"
    assert payload["result"]["details"]["stats"] == {"exhaustive": False}
    monkeypatch.undo()
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0
    assert payload["status"] == "pass"
    assert payload["result"]["details"]["stats"] == {"exhaustive": True}


def test_verify_es_chain_below_davenport_length(capsys):
    # D(C2xC4) = 5: no sequence of length >= D fits under the cap
    for max_len in ("0", "3", "4"):
        code, payload, _ = run_json(capsys, "verify", "es-chain", "C2xC4",
                                    "--max-len", max_len)
        assert code == 0 and payload["status"] == "pass"
        assert payload["result"]["details"]["pairs_checked"] == 0


def test_reports_byte_identical_without_timestamp(capsys):
    code1, out1, _ = run(capsys, "count", "C3", "1^2 2", "--json", "--no-timestamp")
    code2, out2, _ = run(capsys, "count", "C3", "1^2 2", "--json", "--no-timestamp")
    assert code1 == code2 == 0
    assert out1 == out2


def test_human_output_mentions_status(capsys):
    code, out, _ = run(capsys, "group", "info", "C2xC4", "--no-timestamp")
    assert code == 0
    assert "status: pass" in out
    assert "canonical: C2xC4" in out


@pytest.mark.parametrize("argv", [
    ("extremal", "C3", "--max-len", "5", "--budget", "-1"),
    ("extremal", "C3", "--max-len", "-1"),
    ("extremal", "C3", "--max-len", "5", "--random", "--trials", "-3"),
    ("verify", "transform", "C6", "--max-len", "-1"),
    ("verify", "transform", "C6", "--trials", "-3"),
    ("verify", "equivalences", "C2xC4", "--family-k", "-1"),
    ("conjecture", "2", "C5", "--max-len", "-7"),
    ("conjecture", "1", "C3xC3", "--budget", "-1"),
    ("construct", "C5", "--g", "2", "--m", "-1"),
])
def test_negative_counts_exit_2(capsys, argv):
    assert "must be >= 0" in exits_2(capsys, *argv)


@pytest.mark.parametrize("argv", [
    ("count", "C3", "1^9"),
    ("extremal", "C3", "--max-len", "9"),
    ("verify", "transform", "C3", "--max-len", "9"),
    ("construct", "C3", "--g", "1", "--m", "9"),
])
def test_lengths_above_the_cap_exit_2_before_any_limb_table(monkeypatch, capsys, argv):
    def refuse(*args):
        raise AssertionError("a limb table was built")

    monkeypatch.setattr(counting, "MAX_LENGTH", 8)
    monkeypatch.setattr(counting, "_limbs", refuse)
    monkeypatch.setattr(counting, "_limb_adders", refuse)
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert re.search(r"(must be <=|exceeds the cap) 8\b", capsys.readouterr().err)


# Every command that needs D, on C2xC2xC6: it has no settled closed form,
# so D comes from the exact search.
NEEDS_DAVENPORT = {
    "lower-bound": ("verify", "lower-bound", "C2xC2xC6", "--max-len", "3"),
    "one-and-all": ("verify", "one-and-all", "C2xC2xC6", "--max-len", "3"),
    "es-chain": ("verify", "es-chain", "C2xC2xC6", "--max-len", "3"),
    "subgroup-es": ("verify", "subgroup-es", "C2xC2xC6", "--max-len", "3"),
    "odd-structure": ("verify", "odd-structure", "C2xC2xC6", "--max-len", "3"),
    "corollary": ("verify", "corollary", "C2xC2xC6", "--max-len", "3"),
    "equivalences": ("verify", "equivalences", "C2xC2xC6", "--max-len", "3",
                     "--family-k", "2"),
    "extremal": ("extremal", "C2xC2xC6", "--max-len", "3"),
    "extremal-random": ("extremal", "C2xC2xC6", "--max-len", "8", "--random",
                        "--trials", "20"),
    "construct": ("construct", "C2xC2xC6", "--g", "(1,1,5)", "--m", "8"),
    "conjecture-1": ("conjecture", "1", "C2xC2xC6", "--max-len", "3"),
    "conjecture-2": ("conjecture", "2", "C2xC2xC6", "--budget", "100"),
    "count": ("count", "C2xC2xC6", "(0,0,1)^7"),  # |S| = d*: the extremal set may exist
}


@pytest.fixture
def exact_search_caps(monkeypatch):
    """The caps passed to every exact Davenport search, from an empty memo."""
    import importlib

    dav = importlib.import_module("zerosum.davenport")
    real = dav.davenport_exact
    caps = []

    def recording(G, cap=dav.DAVENPORT_CAP):
        caps.append(cap)
        return real(G, cap=cap)

    monkeypatch.setattr(dav, "davenport_exact", recording)
    dav.davenport.cache_clear()
    yield caps
    dav.davenport.cache_clear()


@pytest.mark.parametrize("argv", NEEDS_DAVENPORT.values(), ids=NEEDS_DAVENPORT)
def test_verify_searches_davenport_once_with_the_given_cap(capsys, exact_search_caps,
                                                           argv):
    code, _, _ = run_json(capsys, *argv, "--davenport-cap", "30")
    assert code == 0
    assert exact_search_caps == [30]


@pytest.mark.parametrize("argv", NEEDS_DAVENPORT.values(), ids=NEEDS_DAVENPORT)
def test_davenport_cap_below_the_order_exits_2(capsys, exact_search_caps, argv):
    code, _, err = run(capsys, *argv, "--davenport-cap", "20")
    assert code == 2 and "exceeds cap 20" in err
    assert exact_search_caps == [20]


def test_verify_transform_searches_davenport_only_for_its_default_length(
        capsys, exact_search_caps):
    # The transform sweep never reads D: with --max-len a group above the
    # search cap runs, and without it D + 3 needs the one search.
    code, payload, _ = run_json(capsys, "verify", "transform", "C2xC2xC10",
                                "--max-len", "5", "--trials", "3")
    assert code == 0 and payload["status"] == "pass"
    assert exact_search_caps == []
    code, payload, _ = run_json(capsys, "verify", "transform", "C2xC2xC6",
                                "--trials", "3", "--davenport-cap", "30")
    assert code == 0 and payload["parameters"]["max_len"] == 11
    assert exact_search_caps == [30]


def test_commands_that_walk_no_catalog_never_load_symmetry():
    # `zerosum.symmetry` is loaded on first use: in a fresh interpreter,
    # the exact Davenport search, a census sweep and a count leave it
    # unloaded, and a catalog loads it.
    script = """
import contextlib, io, sys
from zerosum.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        if main(list(argv) + ["--json", "--no-timestamp"]) != 0:
            sys.exit(f"{argv} failed")

run("davenport", "C3xC12", "--method", "exact")
run("verify", "lower-bound", "C4xC4", "--max-len", "8")
run("count", "C4xC4", "(1,0)^3 (0,1)^2 (1,1)")
print("zerosum.symmetry" in sys.modules)
run("extremal", "C3xC3", "--max-len", "5")
print("zerosum.symmetry" in sys.modules)
"""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


def test_main_leaves_the_cli_module_unchanged():
    # The parser is built at import, so a `main` call in a fresh
    # interpreter sets, rebinds and deletes no attribute of `zerosum.cli`.
    script = """
import contextlib, io, sys
import zerosum.cli as cli

before = dict(vars(cli))
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(["extremal", "C3xC3", "--max-len", "5", "--json", "--no-timestamp"])
after = vars(cli)
print(status, sorted(name for name in before.keys() | after.keys()
                     if before.get(name, before) is not after.get(name, before)))
"""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "[]"]
