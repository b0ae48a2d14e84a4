"""The README's `$ nfmatch ... eval` examples, run through the CLI, and its
list of the package's exports."""

import re
import shlex
from pathlib import Path

import pytest

import nfmatch
from helpers import cli

README = Path(__file__).resolve().parent.parent / "README.md"

# a fenced block whose first line is an nfmatch command; the rest is its output
_BLOCK = re.compile(r"^```\n\$ nfmatch (.*)\n((?:(?!```).*\n)*)```$", re.MULTILINE)


def _args(command: str) -> list:
    # the shell reads \` inside double quotes as a backquote
    return shlex.split(command.replace("\\`", "`"))


# the bench example is left out: its timings vary from run to run
EXAMPLES = [(_args(command), out)
            for command, out in _BLOCK.findall(README.read_text(encoding="utf-8"))
            if "eval" in _args(command)]


def test_the_readme_has_its_eval_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("args, out", EXAMPLES, ids=[f"example{i}" for i in range(len(EXAMPLES))])
def test_a_readme_example_prints_what_the_readme_shows(args, out):
    assert cli(args) == (0, out, "")


def test_every_export_is_named_in_the_readme():
    # each name nfmatch exports, those its lazy modules hold too, appears in
    # the README in backquotes
    exports = nfmatch.__all__
    text = README.read_text(encoding="utf-8")
    assert len(exports) > 80
    assert [name for name in exports if f"`{name}`" not in text] == []
