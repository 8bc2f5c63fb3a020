"""The README's console examples: each `$ upsilonkit ...` line, run through
`main`, prints exactly the lines that follow it in the block."""

import re
import shlex
from pathlib import Path

import pytest

from upsilonkit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[str, str]]:
    examples = []
    for block in re.findall(r"^```console\n(.*?)^```", README.read_text(), re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            examples.append((command, output.rstrip("\n") + "\n"))
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, expected):
    program, *argv = shlex.split(command)
    assert program == "upsilonkit"
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
