"""The README's examples run as written: the library snippet prints what its
comment says, and every command of the "Command line" block exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from qcenters.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(language: str, after: str) -> str:
    """The first fenced block in `language` after the heading `after`."""
    section = README.split(after, 1)[1]
    return re.search(rf"^```{language}\n(.*?)^```", section, re.M | re.S).group(1)


def test_library_example_prints_the_fiber_dimension(capsys):
    code = _block("python", "## Library use")
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "19683\n"


@pytest.mark.parametrize("command", _block("sh", "## Command line").splitlines())
def test_command_line_example_exits_zero(command, capsys):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out
