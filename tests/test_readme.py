"""README runs as written.

The "Library tour" Python block runs as one script, and every ``twohom``
line of the command block runs through ``cli.main`` from the repository
root, where the commands find ``catalog.json``; each must exit 0.  No
name the library no longer has may appear in the README.
"""

import re
import shlex
from pathlib import Path

import pytest

from twohom import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")

# names of calls that only renamed another, now gone from the library
RETIRED = ["free_cover", "Complex2.strict", "ChainMor.strict",
           "Matrix.column", "catalog.free_module", "catalog.cyclic"]


def _blocks(text):
    """(info string, body) of each fenced block of text."""
    return re.findall(r"^```(\w*)\n(.*?)^```$", text, re.M | re.S)


TOUR = next(body for info, body in
            _blocks(README[README.index("## Library tour"):])
            if info == "python")
COMMANDS = [line for _, body in _blocks(README) for line in body.splitlines()
            if line.startswith("twohom ")]


def test_the_readme_has_a_tour_and_commands():
    assert "resolve(" in TOUR
    assert len(COMMANDS) >= 16


def test_library_tour_runs():
    exec(compile(TOUR, "README.md (Library tour)", "exec"), {})


@pytest.mark.parametrize("line", COMMANDS)
def test_command_exits_0(line, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = cli.main(shlex.split(line)[1:])
    assert code == 0, capsys.readouterr().err


def test_no_retired_name_in_the_readme():
    assert [n for n in RETIRED if n in README] == []
    # the module function homology(c, n); the method homology(n) stays
    assert not re.search(r"(?<![\w.])homology\(\w+, ", README)
