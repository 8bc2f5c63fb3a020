"""Golden outputs: every command of a fixed corpus answers as recorded, and
so does every value of the bench's worker rounds.

The corpus is the commands of the bench's `cli` rounds for seeds 0-5 (each
run in a directory holding that round's files), the top-level `--help`, no
arguments, an unknown command, every command's `--help`, one malformed
option per command and some errors past the parser.  `golden/cli.json`
records argv, exit code, stdout and stderr of each.  `golden/sums.txt` and
`golden/session.txt` record the `repr` of each value of the `sums` and
`session` rounds of seeds 1-20, one line per value, as the bench's worker
shows it; the tests recompute the first two seeds.  `golden/parse.txt`
records what each DSL's parser makes of a fixed set of texts: the value's
`repr`, or the error's class, message and position.  A declared output
change regenerates all four files with `python tests/golden/regen.py`.
"""

import contextlib
import functools
import importlib.util
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from upsilonkit import cli, complexes, invariants, regions, zoo
from test_cli import MALFORMED, PARSE_ERRORS, ROUND_TRIP_EXPRESSIONS
from test_regions import REGION_PARSE_ERRORS

from corpus import run_main

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


def cli_corpus() -> list[tuple[int | None, list[str]]]:
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


def main_outcome(argv: list[str]) -> dict:
    """argv, exit code, stdout and stderr of `cli.main(argv)`, in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_main(argv)
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


# Empty before the first regeneration, which the corpus test then reports.
RECORDED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_the_golden_file_holds_the_corpus():
    assert [entry["argv"] for entry in RECORDED] == [argv for _, argv in cli_corpus()]


@pytest.mark.parametrize("index", range(len(RECORDED)),
                         ids=[f"{i}:{' '.join(e['argv']) or 'no-arguments'}"
                              for i, e in enumerate(RECORDED)])
def test_the_command_answers_as_recorded(tmp_path, monkeypatch, index):
    seed, argv = cli_corpus()[index]
    if seed is not None:
        write_files(seed, tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    got = main_outcome(argv)
    for field in ("argv", "code", "stdout", "stderr"):  # one at a time, for a string diff
        assert got[field] == RECORDED[index][field], field


# ---------------------------------------------------------------------------
# The values of the bench's worker rounds
# ---------------------------------------------------------------------------

WORKER_SEEDS = range(1, 21)
CHECKED_SEEDS = (1, 2)  # all 20 seeds take about 0.6 s; `regen.py` runs them all


def worker_file(workload: str) -> Path:
    return HERE / "golden" / f"{workload}.txt"


def _sum_value(op) -> str:
    """One `sums` operation of `perfbench/worker.py`: the torus summands
    folded by `tensor`, then the curve and its breaking points, or
    Kim-Livingston at t* = s = t."""
    k = None
    for sign, p, q in op["parts"]:
        part = zoo.torus_knot(p, q) if sign > 0 else complexes.mirror(zoo.torus_knot(p, q))
        k = part if k is None else complexes.tensor(k, part)
    if op["kind"] == "curve":
        return repr((invariants.upsilon_function(k).points, invariants.breaking_points(k)))
    t = Fraction(op["t"])
    return repr(invariants.kim_livingston(k, t, t))


@functools.cache
def _warmed_headline():
    """The `session` worker's complex, warmed as it warms it."""
    k = _workloads().build_torus_sum(_workloads().HEADLINE)
    invariants.h0_surjective(k, regions.upsilon_halfplane(0), 0)
    return k


def _session_value(q) -> str:
    """One `session` query of `perfbench/worker.py`."""
    k = _warmed_headline()
    if q["kind"] == "region":
        value = invariants.upsilon_region(k, _workloads().region_from_spec(q["region"]))
    elif q["kind"] == "vk":
        value = invariants.vk(k, q["s"])
    elif q["kind"] == "eta":
        value = invariants.eta(k, _workloads().region_from_spec(q["region"]))
    else:
        delta = Fraction(q["delta"])
        value = invariants.secondary(k, regions.upsilon_halfplane(1 + delta),
                                     regions.upsilon_halfplane(1 - delta),
                                     regions.upsilon_halfplane(Fraction(q["s"])))
    return repr(value)


def worker_lines(workload: str, seed: int) -> list[str]:
    """"seed<TAB>index<TAB>repr" of each value of the round, in order."""
    if workload == "sums":
        values = map(_sum_value, _workloads().sums_round(seed))
    else:
        values = map(_session_value, _workloads().session_round(seed))
    return [f"{seed}\t{i}\t{value}" for i, value in enumerate(values)]


def _recorded_lines(workload: str) -> list[str]:
    path = worker_file(workload)
    return path.read_text().splitlines() if path.exists() else []


@pytest.mark.parametrize("workload", ("sums", "session"))
def test_the_worker_files_hold_every_round(workload):
    rounds = {"sums": _workloads().sums_round, "session": _workloads().session_round}[workload]
    expected = [(seed, i) for seed in WORKER_SEEDS for i in range(len(rounds(seed)))]
    assert [tuple(map(int, line.split("\t")[:2])) for line in _recorded_lines(workload)] \
        == expected


@pytest.mark.parametrize("workload", ("sums", "session"))
@pytest.mark.parametrize("seed", CHECKED_SEEDS)
def test_the_worker_values_are_as_recorded(workload, seed):
    recorded = [line for line in _recorded_lines(workload) if line.startswith(f"{seed}\t")]
    assert worker_lines(workload, seed) == recorded


# ---------------------------------------------------------------------------
# The parse outcomes of the knot and region DSLs
# ---------------------------------------------------------------------------

PARSE_FILE = HERE / "golden" / "parse.txt"
PARSERS = {"knot": cli.parse_knot_expr, "region": regions.parse_region}
REGION_TEXTS = ["H(2/3)", "Q(2)", "hp(1/4, 3/4, 1)", "trunc(H(1), 3)", " ( H( 1 ) ) ",
                "Q(2) | hp(1/4,3/4,1) & H(1)", "trunc(H(2/3) | Q(0), 5) & H(1)", "Q(-3)",
                "hp(0, 0, 1)", "trunc(H(1), 1/0)", "H(+1/2)", "trunc(H(1); 3)"]
MUTATIONS = 400  # per DSL
# What a mutation inserts: the characters of both grammars, and a few that
# pass `isdigit`, `isalpha` or `isspace` but not `int` or `Fraction`.
ALPHABET = "0123456789+-/,;#|&() TPHQalgthinsrupcfe²é\t"


def _nested(dsl: str, levels: int) -> list[str]:
    """Texts nested `levels` deep by each rule that descends."""
    if dsl == "knot":
        return ["(" * levels + "T(3,2)" + ")" * levels, "-" * levels + "thin(0)",
                " # ".join(["thin(0)"] * (levels + 1)), "-" * levels + "(T(3,2)"]
    return ["(" * levels + "H(1)" + ")" * levels,
            "trunc(" * levels + "H(1)" + ", 3)" * levels,
            "trunc (" * levels + "Q(0)" + ",1)" * levels]


def _mutant(rng: random.Random, text: str) -> str:
    """`text` after one to three random edits: a character inserted, deleted
    or replaced, a slice of the text repeated, a space inserted or a digit
    changed (the last two often keep the text well-formed)."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        kind = rng.randrange(6)
        if kind == 0:
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif kind == 1:
            text = text[:i] + text[i + 1:]
        elif kind == 2:
            text = text[:i] + rng.choice(ALPHABET) + text[i + 1:]
        elif kind == 3:
            j = rng.randint(i, len(text))
            text = text[:j] + text[i:j] + text[j:]
        elif kind == 4:
            text = text[:i] + " " + text[i:]
        elif digits := [j for j, ch in enumerate(text) if ch in "0123456789"]:
            j = rng.choice(digits)
            text = text[:j] + str(rng.randrange(10)) + text[j + 1:]
    return text


def parse_texts(dsl: str) -> list[str]:
    """The parser tests' texts of the DSL, texts at and past the nesting cap,
    and `MUTATIONS` seeded mutants of them."""
    if dsl == "knot":
        base = ROUND_TRIP_EXPRESSIONS + PARSE_ERRORS + ["file(a.json) # -file( b c )"]
    else:
        base = REGION_TEXTS + [text for text, _ in REGION_PARSE_ERRORS]
    base += _nested(dsl, regions.MAX_NESTING) + _nested(dsl, regions.MAX_NESTING + 1)
    rng = random.Random(len(dsl))
    return base + [_mutant(rng, rng.choice(base)) for _ in range(MUTATIONS)]


def parse_outcome(dsl: str, text: str) -> str:
    """The value's `repr`, or the error's class, message and position."""
    try:
        return repr(PARSERS[dsl](text))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc} @ {getattr(exc, 'position', None)}"


def parse_lines() -> list[str]:
    """"dsl<TAB>repr of the text<TAB>outcome" of every text, in order."""
    return [f"{dsl}\t{text!r}\t{parse_outcome(dsl, text)}"
            for dsl in PARSERS for text in parse_texts(dsl)]


def test_the_parsers_answer_as_recorded():
    recorded = PARSE_FILE.read_text(encoding="utf-8").splitlines() if PARSE_FILE.exists() else []
    assert parse_lines() == recorded
