"""The README's examples run as written: every ``mslab`` line of its Examples
block exits 0 through :func:`mslab.cli.main`, and its Library-use block
executes."""

import re
import shlex
from pathlib import Path

import pytest

from mslab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """Body of the first ``lang`` code block after the given heading line."""
    match = re.search(
        rf"^{re.escape(heading)}\n.*?^```{lang}\n(.*?)^```", README, re.M | re.S
    )
    assert match, f"no {lang} block under {heading!r}"
    return match.group(1)


_COMMANDS = [
    line for line in _block("### Examples", "sh").splitlines() if line.startswith("mslab ")
]


def test_examples_block_is_found():
    assert len(_COMMANDS) >= 5


@pytest.mark.parametrize("line", _COMMANDS)
def test_example_command_exits_zero(capsys, line):
    argv = shlex.split(line)[1:]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out


def test_library_use_block_runs(capsys):
    exec(compile(_block("## Library use", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out
