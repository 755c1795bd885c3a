import doctest
import pathlib
import re
import shlex

import zerosum.groups
import zerosum.sequences
from zerosum import cli


def test_groups_doctests():
    failures, _ = doctest.testmod(zerosum.groups)
    assert failures == 0


def test_sequences_doctests():
    failures, _ = doctest.testmod(zerosum.sequences)
    assert failures == 0


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[str]:
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("zerosum ")]


def _exit_code(line: str) -> int:
    try:
        return cli.main(shlex.split(line, comments=True)[1:] + ["--no-timestamp"])
    except SystemExit as exc:  # argparse rejects the flags
        return exc.code


def test_readme_commands_exit_0(capsys):
    commands = _readme_commands()
    failed = [line for line in commands if _exit_code(line) != 0]
    capsys.readouterr()
    assert commands and not failed
