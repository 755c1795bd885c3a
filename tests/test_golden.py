"""Golden CLI outputs: the `--json --no-timestamp` report of a fixed set of
short commands must stay byte-identical across refactors.

The commands reach every reader of the count vectors (`count`, the
extremal catalog, the random catalog, every `verify` sweep, both
conjecture harnesses), the construction, the exact Davenport search and
`group info` on both sides of the subgroup-lattice cap (orders 64 and 68).
The catalogs also run past the order where Aut(G) cuts their walk (C65)
and below D - 1, and the construction enumerates zero-sum-free
sequences at order 128.
Re-record with

    PYTHONPATH=src python tests/test_golden.py --record

only when a report is meant to change, and say why in the commit.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from zerosum import cli

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# (file stem, argv)
COMMANDS = (
    ("count-c4xc4", ["count", "C4xC4", "(1,0)^3 (0,1)^2 (1,1)"]),
    ("count-c2xc4", ["count", "C2xC4", "(1,1)^3 (0,2)"]),
    ("count-c5-g", ["count", "C5", "1^4 2", "--g", "0"]),
    ("extremal-c2xc4", ["extremal", "C2xC4", "--max-len", "7"]),
    ("verify-lower-bound-c2xc4", ["verify", "lower-bound", "C2xC4", "--max-len", "7"]),
    ("verify-one-and-all-c3xc3", ["verify", "one-and-all", "C3xC3", "--max-len", "6"]),
    ("verify-transform-c6", ["verify", "transform", "C6", "--max-len", "14",
                             "--trials", "60", "--seed", "3"]),
    ("verify-es-chain-c2xc4", ["verify", "es-chain", "C2xC4", "--max-len", "8"]),
    ("verify-subgroup-es-c2xc4", ["verify", "subgroup-es", "C2xC4", "--max-len", "7"]),
    ("verify-cn-7", ["verify", "cn", "--n", "7", "--max-len", "9"]),
    ("conjecture-2-c5", ["conjecture", "2", "C5", "--max-len", "7"]),
    ("davenport-c2xc2xc2", ["davenport", "C2xC2xC2", "--method", "exact"]),
    ("davenport-c3xc6", ["davenport", "C3xC6", "--method", "exact"]),
    ("verify-odd-structure-c3xc3", ["verify", "odd-structure", "C3xC3", "--max-len", "8"]),
    ("verify-corollary-c3xc3", ["verify", "corollary", "C3xC3", "--max-len", "8"]),
    ("verify-equivalences-c3xc3", ["verify", "equivalences", "C3xC3", "--max-len", "8"]),
    ("verify-equivalences-c2xc4", ["verify", "equivalences", "C2xC4", "--max-len", "8",
                                   "--family-k", "3"]),
    ("conjecture-1-c3xc3", ["conjecture", "1", "C3xC3", "--max-len", "8"]),
    ("construct-c5xc5", ["construct", "C5xC5", "--g", "(1,3)", "--m", "10"]),
    ("extremal-random-c4xc4", ["extremal", "C4xC4", "--max-len", "8", "--random",
                               "--trials", "500", "--seed", "1"]),
    ("verify-equivalences-c2xc6", ["verify", "equivalences", "C2xC6", "--max-len", "3",
                                   "--family-k", "12"]),
    ("verify-equivalences-c2xc2xc6", ["verify", "equivalences", "C2xC2xC6",
                                      "--max-len", "3", "--family-k", "3"]),
    ("davenport-c3xc12", ["davenport", "C3xC12", "--method", "exact"]),
    ("davenport-c2xc2xc10", ["davenport", "C2xC2xC10", "--method", "exact",
                             "--davenport-cap", "40"]),
    ("verify-subgroup-es-c2xc2xc2", ["verify", "subgroup-es", "C2xC2xC2", "--max-len", "7"]),
    ("group-info-c2xc32", ["group", "info", "C2xC32"]),
    ("group-info-c2xc34", ["group", "info", "C2xC34"]),
    ("verify-es-chain-c3xc3", ["verify", "es-chain", "C3xC3", "--max-len", "7"]),
    ("verify-corollary-c2xc4", ["verify", "corollary", "C2xC4", "--max-len", "7"]),
    ("construct-c2xc2xc6", ["construct", "C2xC2xC6", "--g", "(1,1,5)", "--m", "8"]),
    ("group-info-c2xc2xc2xc2xc4", ["group", "info", "C2xC2xC2xC2xC4"]),
    ("verify-subgroup-es-c2xc2xc2xc2", ["verify", "subgroup-es", "C2xC2xC2xC2",
                                        "--max-len", "6"]),
    ("conjecture-2-c2xc2xc2", ["conjecture", "2", "C2xC2xC2"]),
    ("verify-es-chain-c5xc5", ["verify", "es-chain", "C5xC5", "--max-len", "8"]),
    ("verify-es-chain-c4xc4", ["verify", "es-chain", "C4xC4", "--max-len", "8"]),
    ("verify-lower-bound-c2xc2xc2xc2", ["verify", "lower-bound", "C2xC2xC2xC2",
                                        "--max-len", "6"]),
    ("verify-one-and-all-c2xc2xc2xc2", ["verify", "one-and-all", "C2xC2xC2xC2",
                                        "--max-len", "6"]),
    ("verify-transform-c8xc8", ["verify", "transform", "C8xC8", "--max-len", "30",
                                "--trials", "60", "--seed", "3"]),
    ("davenport-c2xc4xc4", ["davenport", "C2xC4xC4", "--method", "both"]),
    ("davenport-c2xc2xc2xc4", ["davenport", "C2xC2xC2xC4", "--method", "both"]),
    ("davenport-c2xc2xc6", ["davenport", "C2xC2xC6", "--method", "exact"]),
    ("davenport-c2xc2xc2xc2xc2", ["davenport", "C2xC2xC2xC2xC2", "--method", "exact"]),
    ("davenport-c2xc2xc2xc6", ["davenport", "C2xC2xC2xC6", "--method", "exact",
                               "--davenport-cap", "48"]),
    ("davenport-c256", ["davenport", "C256", "--method", "exact",
                        "--davenport-cap", "256"]),
    ("verify-lower-bound-c4xc4", ["verify", "lower-bound", "C4xC4", "--max-len", "8"]),
    ("verify-one-and-all-c4xc4", ["verify", "one-and-all", "C4xC4", "--max-len", "8"]),
    ("verify-lower-bound-c13", ["verify", "lower-bound", "C13", "--max-len", "10"]),
    ("verify-lower-bound-c6", ["verify", "lower-bound", "C6", "--max-len", "14"]),
    ("verify-one-and-all-c6", ["verify", "one-and-all", "C6", "--max-len", "15"]),
    ("extremal-c3xc3-budget", ["extremal", "C3xC3", "--max-len", "6", "--budget", "50"]),
    ("conjecture-2-c5-budget", ["conjecture", "2", "C5", "--budget", "200"]),
    ("davenport-c2xc2xc2xc2xc6", ["davenport", "C2xC2xC2xC2xC6", "--method", "exact",
                                  "--davenport-cap", "96"]),
    ("verify-lower-bound-c9", ["verify", "lower-bound", "C9", "--max-len", "12"]),
    ("verify-one-and-all-c4xc4-len10", ["verify", "one-and-all", "C4xC4",
                                        "--max-len", "10"]),
    ("verify-one-and-all-c2xc2xc2xc2xc2", ["verify", "one-and-all", "C2xC2xC2xC2xC2",
                                           "--max-len", "8"]),
    ("extremal-random-c3xc3", ["extremal", "C3xC3", "--max-len", "5", "--random",
                               "--trials", "300", "--seed", "1"]),
    ("extremal-random-c4xc4-20000", ["extremal", "C4xC4", "--max-len", "8", "--random",
                                     "--trials", "20000", "--seed", "3"]),
    ("verify-transform-c256", ["verify", "transform", "C256", "--max-len", "70",
                               "--trials", "40", "--seed", "1"]),
    ("verify-transform-c2xc2xc4", ["verify", "transform", "C2xC2xC4", "--max-len", "100",
                                   "--trials", "60", "--seed", "7"]),
    ("verify-transform-c2xc2xc4-len1000", ["verify", "transform", "C2xC2xC4",
                                           "--max-len", "1000", "--trials", "40",
                                           "--seed", "7"]),
    ("verify-lower-bound-c1000", ["verify", "lower-bound", "C1000", "--max-len", "100"]),
    ("verify-subgroup-es-c1000", ["verify", "subgroup-es", "C1000", "--max-len", "60"]),
    ("conjecture-1-c4xc4", ["conjecture", "1", "C4xC4", "--max-len", "9"]),
    ("extremal-c65-budget", ["extremal", "C65", "--max-len", "66", "--budget", "3000"]),
    ("construct-c2xc2xc2xc2xc2xc2xc2", ["construct", "C2xC2xC2xC2xC2xC2xC2",
                                        "--g", "(1,0,0,0,0,0,1)", "--m", "9"]),
    ("extremal-c2xc2xc2xc2xc2xc2-len3", ["extremal", "C2xC2xC2xC2xC2xC2",
                                         "--max-len", "3"]),
    ("conjecture-1-c5xc5", ["conjecture", "1", "C5xC5", "--max-len", "9"]),
    ("verify-odd-structure-c5xc5", ["verify", "odd-structure", "C5xC5", "--max-len", "9"]),
    ("verify-corollary-c5xc5", ["verify", "corollary", "C5xC5", "--max-len", "9"]),
)


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv) + ["--json", "--no-timestamp"])
    assert rc == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("stem,argv", COMMANDS, ids=[stem for stem, _ in COMMANDS])
def test_cli_output_matches_golden(stem, argv):
    expected = (GOLDEN_DIR / f"{stem}.json").read_text()
    assert _run(argv) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stem, argv in COMMANDS:
        (GOLDEN_DIR / f"{stem}.json").write_text(_run(argv))
        print(f"recorded {stem}")
