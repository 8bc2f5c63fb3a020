"""Golden outputs: every command of a fixed corpus answers as recorded.

The corpus is the commands of the bench's `cli` rounds for seeds 0-5 (each
run in a directory holding that round's files), the top-level `--help`, no
arguments, an unknown command, every command's `--help`, one malformed
option per command and some errors past the parser.  `golden/cli.json`
records argv, exit code, stdout and stderr of each; a declared output change
regenerates it with `python tests/golden/regen.py`.
"""

import contextlib
import functools
import importlib.util
import io
import json
from pathlib import Path

import pytest

from upsilonkit import cli
from test_cli import MALFORMED

HERE = Path(__file__).parent
GOLDEN = HERE / "golden" / "cli.json"
WORKLOADS = HERE.parent / "perfbench" / "workloads.py"
SEEDS = range(6)
# Errors past the parser: a missing or doubled knot source, an unreadable
# file, a bad knot before bad regions and then the regions in the order
# --cplus, --cminus, --region, and out-of-range values.
ERRORS = (
    ["upsilon-at", "--t", "1"],
    ["eta", "T(3,2)", "--complex-file", "a.json", "--region", "H(1)"],
    ["region-upsilon", "file(missing.json)", "--region", "("],
    ["secondary", "T(2,2)", "--cplus", "(", "--cminus", "H(1) |", "--region", "Z(1)"],
    ["secondary", "T(3,2)", "--cplus", "(", "--cminus", "H(1) |", "--region", "Z(1)"],
    ["secondary", "T(3,2)", "--cplus", "H(1)", "--cminus", "H(1) |", "--region", "Z(1)"],
    ["secondary", "T(3,2)", "--cplus", "H(1)", "--cminus", "H(1/3)", "--region", "Z(1)"],
    ["upsilon", "T(3,2)", "--samples", "0"],
    ["kl", "T(3,2)", "--t", "3", "--s", "1"],
    ["dinv", "T(3,2)", "--q", "0", "--m", "0"],
)
# argparse wraps help to the terminal width, which it reads from COLUMNS.
COLUMNS = "80"


@functools.cache
def _workloads():
    spec = importlib.util.spec_from_file_location("_golden_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def cli_round(seed: int):
    """The argv lists and files of the bench's cli round `seed`."""
    cmds, files = _workloads().cli_round(seed)
    return [cmd["argv"] for cmd in cmds], files


def corpus() -> list[tuple[int | None, list[str]]]:
    """(seed of the round whose files the command reads or None, argv) of
    every entry, in the order of the golden file."""
    entries = [(seed, argv) for seed in SEEDS for argv in cli_round(seed)[0]]
    entries += [(None, argv) for argv in (["--help"], [], ["bogus"])]
    entries += [(None, [name, "--help"]) for name, *_ in cli._COMMANDS]
    entries += [(None, [name, *flags]) for name, flags in MALFORMED.items()]
    entries += [(None, argv) for argv in ERRORS]
    return entries


def write_files(seed: int, directory: Path) -> None:
    """The files of cli round `seed`, written as the bench writes them."""
    for name, data in cli_round(seed)[1].items():
        with open(directory / name, "w") as fh:
            json.dump(data, fh)


def outcome(argv: list[str]) -> dict:
    """argv, exit code, stdout and stderr of `cli.main(argv)`, in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


# Empty before the first regeneration, which the corpus test then reports.
RECORDED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_the_golden_file_holds_the_corpus():
    assert [entry["argv"] for entry in RECORDED] == [argv for _, argv in corpus()]


@pytest.mark.parametrize("index", range(len(RECORDED)),
                         ids=[f"{i}:{' '.join(e['argv']) or 'no-arguments'}"
                              for i, e in enumerate(RECORDED)])
def test_the_command_answers_as_recorded(tmp_path, monkeypatch, index):
    seed, argv = corpus()[index]
    if seed is not None:
        write_files(seed, tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    got = outcome(argv)
    for field in ("argv", "code", "stdout", "stderr"):  # one at a time, for a string diff
        assert got[field] == RECORDED[index][field], field
