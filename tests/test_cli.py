"""Command-line interface: grammar, payloads, exit codes, report pipelines."""

import inspect
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import upsilonkit
from upsilonkit import complexes, invariants, zoo
from upsilonkit.cli import (
    KnotParseError,
    build_complex,
    knot_expr_to_text,
    main,
    parse_knot_expr,
)
from upsilonkit.complexes import (
    BaseGenerator,
    KnotComplex,
    save_complex,
    to_json_dict,
    validate_complex,
)
from upsilonkit.regions import upsilon_halfplane


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# knot expression grammar
# ---------------------------------------------------------------------------

ROUND_TRIP_EXPRESSIONS = [
    "T(2,3)",
    "T(8,5)",
    "T(3, 10)",
    "-T(4,3)",
    "--T(2,3)",
    "(T(2,3))",
    "-(-(T(2,5)))",
    "T(2,3) # T(2,5)",
    "T(2,3)#T(2,5)#T(2,7)",
    "T(8,5) # -T(6,5) # -T(4,3)",
    "-(T(2,3) # T(2,5))",
    "-(-T(2,3) # thin(1))",
    "P(-2,3,7)",
    "P(-2, 3, 9)",
    "-P(-2,3,11)",
    "alg(2; 3)",
    "alg(3;5)",
    "alg(4; 6, 7)",
    "alg(4; 6, 7) # -T(4,3)",
    "thin(0)",
    "thin(-3)",
    "thin(4) # -thin(4)",
    "stair(1,1)",
    "stair(1,2,2,1)",
    "stair(1, 4, 2, 3, 3, 2, 4, 1)",
    "stair(1,4,1,2,1,1,1,2,1,1,2,1,1,1,2,1,4,1)",
    "-stair(1,1) # P(-2,3,7)",
    "T(5,4) # (T(2,3) # -T(2,3))",
    "-(thin(2)) # alg(2; 5)",
    "T(7,2) # -alg(2; 7)",
]


@pytest.mark.parametrize("text", ROUND_TRIP_EXPRESSIONS)
def test_parse_print_round_trip(text):
    ast = parse_knot_expr(text)
    assert parse_knot_expr(knot_expr_to_text(ast)) == ast


def test_printer_parenthesizes_mirrored_sums():
    ast = parse_knot_expr("-(T(2,3) # T(2,5))")
    text = knot_expr_to_text(ast)
    assert text.startswith("-(") and parse_knot_expr(text) == ast


PARSE_ERRORS = [
    "",
    "T(4,6)",          # not coprime
    "T(1,5)",
    "T(2,3",
    "T(2,3) #",
    "# T(2,3)",
    "foo(3)",
    "thin(1/2)",
    "thin()",
    "P(-2,3,8)",       # even third parameter
    "P(-1,3,7)",       # not the (-2, 3, q) family
    "alg(4; 6)",       # gcd 2
    "alg(4; 6, 8)",
    "stair(2,1)",      # unbalanced
    "stair(1)",
    "T(2,3) extra",
    "T(2,3) T(2,5)",
]


@pytest.mark.parametrize("text", PARSE_ERRORS)
def test_parse_errors(text):
    with pytest.raises(KnotParseError) as exc_info:
        parse_knot_expr(text)
    assert exc_info.value.position >= 0


def test_parse_error_position_points_at_atom():
    with pytest.raises(KnotParseError) as exc_info:
        parse_knot_expr("T(2,3) # T(4,6)")
    assert exc_info.value.position == 9


def test_parse_validates_torus_without_building(monkeypatch):
    def no_build(p, q):
        raise AssertionError("parsing built a torus complex")

    monkeypatch.setattr(zoo, "torus_knot", no_build)
    assert knot_expr_to_text(parse_knot_expr("T(8,5) # -T(6,5)")) == "T(8,5) # -T(6,5)"
    with pytest.raises(KnotParseError, match=r"coprime, got \(4, 6\) \(at position 9\)"):
        parse_knot_expr("T(2,3) # T(4,6)")


def test_parse_rejects_nesting_past_the_cap(capsys):
    # one parse error line and exit 1, not a RecursionError traceback
    for argv in (["upsilon", "(" * 400 + "T(3,2)" + ")" * 400],
                 ["upsilon", "--", "-" * 990 + "T(3,2)"],
                 ["upsilon", " # ".join(["thin(0)"] * 1100)],
                 ["region-upsilon", "T(3,2)", "--region", "trunc(" * 400 + "H(1)" + ", 3)" * 400]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("parse error: nesting deeper than 100 levels") and err.count("\n") == 1
    # The deepest trees the cap admits still print and build.  Sums count for
    # the rest of the input, so a tree is at most twice as deep as the cap.
    deepest = parse_knot_expr("-" * 100 + "thin(0)" + " # thin(0)" * 100)
    assert parse_knot_expr(knot_expr_to_text(deepest)) == deepest
    assert build_complex(parse_knot_expr("-" * 100 + "T(3,2)")) == build_complex(
        parse_knot_expr("T(3,2)"))


def test_long_sum_runs_in_linear_name_length(capsys):
    # 101 summands, the most the nesting cap admits: each factor name is
    # escaped once, so the product is built and evaluated at once.
    start = time.perf_counter()
    code, out, err = run(capsys, "upsilon", " # ".join(["thin(0)"] * 101))
    assert (code, out, err) == (0, "(0, 0)  (2, 0)\n", "")
    assert time.perf_counter() - start < 1.0


def test_sum_names_grow_linearly():
    summands = ["T(3,2)"] + ["thin(0)", "-thin(0)"] * 6
    for n in (2, 3, len(summands)):
        k = build_complex(parse_knot_expr(" # ".join(summands[:n])))
        assert len(k.generators) == 3 and validate_complex(k).ok
        # n two-character names ("x0", "x1", "y0"; thin(0)'s "x0") and n - 1 stars
        assert {len(g.name) for g in k.generators} == {3 * n - 1}


def test_build_complex_shapes():
    k = build_complex(parse_knot_expr("T(2,3) # -T(2,3)"))
    assert len(k.generators) == 9
    assert validate_complex(k).ok
    assert len(build_complex(parse_knot_expr("thin(2)")).generators) == 5


# ---------------------------------------------------------------------------
# payloads
# ---------------------------------------------------------------------------


def test_upsilon_json_payload(capsys):
    payload = run_json(capsys, "upsilon", "T(2,3)")
    assert payload["command"] == "upsilon"
    assert payload["knot"] == "T(2,3)"
    assert payload["value"] == {"breakpoints": [["0", "0"], ["1", "-1"], ["2", "0"]]}
    assert "upsilon_function" in payload["provenance"]


def test_upsilon_text_output(capsys):
    code, out, _ = run(capsys, "upsilon", "T(2,3)")
    assert code == 0
    assert out.strip() == "(0, 0)  (1, -1)  (2, 0)"


def test_upsilon_csv_output(capsys):
    code, out, _ = run(capsys, "upsilon", "T(2,3)", "--format", "csv", "--samples", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#") and "display-only" in lines[0]
    assert lines[1] == "t,value"
    assert len(lines) == 2 + 5
    assert lines[4] == "1.000000000000,-1.000000000000"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_upsilon_csv_rejects_non_positive_samples(capsys, samples):
    code, out, err = run(capsys, "upsilon", "T(2,3)", "--format", "csv", "--samples", samples)
    assert code == 1 and "--samples" in err
    assert out == ""


def test_upsilon_at_with_oracle(capsys):
    payload = run_json(capsys, "upsilon-at", "T(5,3)", "--t", "2/3", "--check-oracle")
    assert payload["value"] == {"num": -8, "den": 3}
    assert "brute_force_upsilon" in payload["provenance"]


def test_region_upsilon_dsl(capsys):
    payload = run_json(capsys, "region-upsilon", "T(8,5)", "--region", "H(2/3)",
                       "--check-oracle")
    assert payload["value"] == {"num": 4, "den": 1}
    assert payload["region"] == "H(2/3)"
    # union with itself changes nothing; value for the trefoil at t = 1 is 1/2
    payload = run_json(capsys, "region-upsilon", "T(2,3)", "--region", "H(1) | H(1)")
    assert payload["value"] == {"num": 1, "den": 2}


def test_vk_text_mentions_convention(capsys):
    code, out, _ = run(capsys, "vk", "T(2,3)", "--s", "0")
    assert code == 0
    assert "-2-scaled convention" in out
    assert out.strip().splitlines()[-1] == "-2"


def test_nu_plus(capsys):
    assert run_json(capsys, "nu-plus", "T(8,5)")["value"] == {"num": 14, "den": 1}


def test_dinv(capsys):
    assert run_json(capsys, "dinv", "T(2,3)", "--q", "1", "--m", "0")["value"] == \
        {"num": -2, "den": 1}
    assert run_json(capsys, "dinv", "T(2,3)", "--q", "7", "--m", "0")["value"] == \
        {"num": -1, "den": 2}
    assert run_json(capsys, "dinv", "thin(0)", "--q", "3", "--m", "1")["value"] == \
        {"num": -1, "den": 6}


def test_dinv_rejects_floats_and_bools(capsys):
    for flags in (("--q", "7.0", "--m", "0"), ("--q", "7", "--m", "0.5"),
                  ("--q", "True", "--m", "0"), ("--q", "7", "--m", "False")):
        code, out, err = run(capsys, "dinv", "T(3,2)", *flags)
        assert code == 1 and out == "" and "invalid int value" in err


def test_eta(capsys):
    payload = run_json(capsys, "eta", "P(-2,3,9)", "--region", "H(2/3)")
    assert payload["value"] == {"num": 2, "den": 1}


def test_breaking_points(capsys):
    payload = run_json(capsys, "breaking-points", "thin(3)")
    assert payload["value"] == {
        "breaking_points": [{"t": "1", "jump": "6", "i_minus": None, "i_plus": None}]
    }
    code, out, _ = run(capsys, "breaking-points", "thin(0)")
    assert code == 0 and out.strip() == "no breaking points"


def test_kl_frozen_value(capsys):
    payload = run_json(capsys, "kl", "T(4,3)", "--t", "2/3", "--s", "2/3",
                       "--check-oracle")
    assert payload["value"] == {"num": -4, "den": 3}
    assert "kim_livingston_oracle" in payload["provenance"]


def test_kl_no_obstruction_at_smooth_point(capsys):
    payload = run_json(capsys, "kl", "T(2,3)", "--t", "1/2", "--s", "1/2")
    assert payload["value"] == "no-obstruction"
    code, out, _ = run(capsys, "kl", "T(2,3)", "--t", "1/2", "--s", "1/2")
    assert code == 0 and out.strip() == "no obstruction"


def test_secondary_command(capsys):
    payload = run_json(capsys, "secondary", "T(4,3)", "--cplus", "H(1)",
                       "--cminus", "H(1/3)", "--region", "H(2/3)", "--check-oracle")
    assert payload["value"] == {"num": 5, "den": 3}
    assert "brute_force_secondary" in payload["provenance"]


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_leading_mirror_follows_double_dash(capsys):
    code, out, _ = run(capsys, "upsilon", "--", "-T(3,2)")
    assert code == 0 and out == "(0, 0)  (1, 1)  (2, 0)\n"
    code, _, err = run(capsys, "upsilon", "-T(3,2)")
    assert code == 1 and "unrecognized arguments" in err


def test_exit_1_on_parse_error(capsys):
    code, _, err = run(capsys, "upsilon-at", "T(4,6)", "--t", "1")
    assert code == 1 and "parse error" in err


def test_exit_1_on_usage_errors(capsys):
    code, _, err = run(capsys, "upsilon")  # neither expression nor --complex-file
    assert code == 1 and "usage error" in err
    code, _, err = run(capsys, "vk", "T(2,3)")  # missing --s
    assert code == 1
    code, _, err = run(capsys, "no-such-command")
    assert code == 1
    code, _, err = run(capsys, "upsilon-at", "T(2,3)", "--t", "1", "--format", "csv")
    assert code == 1  # csv only exists for the full function


@pytest.mark.parametrize("argv", [("upsilon-at", "T(3,2)", "--t", "abc"),
                                  ("upsilon-at", "T(3,2)", "--t", "1/0"),
                                  ("kl", "T(3,2)", "--t", "1", "--s", "x")])
def test_malformed_rational_flag_names_its_value(capsys, argv):
    flag, text = argv[-2:]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"usage error: argument {flag}: malformed rational {text!r}\n"


def test_exit_2_on_domain_error(capsys):
    code, _, err = run(capsys, "upsilon-at", "T(2,3)", "--t", "5/2")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "kl", "T(4,3)", "--t", "0", "--s", "1")
    assert code == 2


def test_exit_3_on_guard(capsys):
    code, _, err = run(capsys, "upsilon-at", "thin(21)", "--t", "1", "--check-oracle")
    assert code == 3 and "guard exceeded" in err


def test_exit_4_on_internal_check_failure(capsys, monkeypatch):
    monkeypatch.setattr(invariants, "brute_force_upsilon", lambda k, r: 7)
    code, out, err = run(capsys, "region-upsilon", "T(3,2)", "--region", "H(1)",
                         "--check-oracle")
    assert code == 4 and out == ""
    assert err == "internal check failed: oracle check: engine 1/2 != brute-force oracle 7\n"


@pytest.mark.parametrize(
    "oracle, argv, err",
    [
        ("brute_force_upsilon", ("upsilon-at", "T(4,3)", "--t", "2/3"),
         "oracle check: engine -2 != brute-force oracle -14"),
        ("brute_force_upsilon", ("region-upsilon", "T(4,3)", "--region", "H(1/3)"),
         "oracle check: engine 1/2 != brute-force oracle 7"),
        ("kim_livingston_oracle", ("kl", "T(4,3)", "--t", "2/3", "--s", "2/3"),
         "oracle check: engine -4/3 != brute-force oracle 7"),
        ("brute_force_secondary", ("secondary", "T(4,3)", "--cplus", "H(1)", "--cminus",
                                   "H(1/3)", "--region", "H(2/3)"),
         "oracle check: engine 5/3 != brute-force oracle 7"),
    ],
    ids=["upsilon-at", "region-upsilon", "kl", "secondary"],
)
def test_oracle_mismatch_prints_values_as_text(capsys, monkeypatch, oracle, argv, err):
    monkeypatch.setattr(invariants, oracle, lambda *args: 7)
    code, out, printed = run(capsys, *argv, "--check-oracle")
    assert (code, out, printed) == (4, "", f"internal check failed: {err}\n")


def test_exit_2_on_a_tower_off_level_zero(tmp_path, capsys):
    path = tmp_path / "low.json"
    path.write_text(json.dumps({"generators": [{"id": "x", "A": -2, "j": -1, "M": 0}],
                                "arrows": []}))
    problem = "H_0 is generated at filtration level (A, j) = (-2, -1), expected (0, 0)"
    code, out, err = run(capsys, "upsilon", f"file({path})")
    assert (code, out, err) == (2, "", f"validation failure: {problem}\n")
    code, out, err = run(capsys, "validate", "--complex-file", str(path))
    assert (code, out, err) == (2, f"problem: {problem}\n", "")


def test_exit_4_when_the_curve_sweep_loses_continuity(capsys, monkeypatch):
    least_top = invariants._least_top
    calls = []

    def corrupt(eng, keys):  # the sweep's second event comes back one too high
        calls.append(keys)
        key = least_top(eng, keys)  # the value is the packed key's quotient by w = 2h + 1
        return key + 2 * invariants._slope_bound(eng) + 1 if len(calls) == 2 else key

    monkeypatch.setattr(invariants, "_least_top", corrupt)
    k = zoo.torus_knot(5, 3)
    with pytest.raises(AssertionError, match="^upsilon curve: the line leading after t = "):
        invariants.upsilon_function(k)
    assert complexes._Engine.of(k).curve is None  # nothing unchecked is kept
    calls.clear()
    code, out, err = run(capsys, "upsilon", "T(5,3)")
    assert code == 4 and out == ""
    assert err.startswith("internal check failed: upsilon curve: ") and err.count("\n") == 1


def _drop_a_sweep_event(capsys, monkeypatch, drop, message):
    sweep = invariants._kinetic_sweep

    def missed(eng):  # T(5,3)'s events are at t = 0, 2/3, 1 and 4/3
        lines = sweep(eng)
        assert [t for t, _ in lines] == [(0, 1), (2, 3), (1, 1), (4, 3)]
        return lines[:drop] + lines[drop + 1:]

    monkeypatch.setattr(invariants, "_kinetic_sweep", missed)
    k = zoo.torus_knot(5, 3)
    with pytest.raises(AssertionError, match=re.escape(message)):
        invariants.upsilon_function(k)
    assert complexes._Engine.of(k).curve is None  # nothing unchecked is kept
    code, out, err = run(capsys, "upsilon", "T(5,3)")
    assert (code, out, err) == (4, "", f"internal check failed: {message}\n")


def test_exit_4_when_the_sweep_misses_a_kink(capsys, monkeypatch):
    # the sweep loses its middle event, the kink at t = 1: the line leading
    # after 2/3 passes the midpoint check at 1 but does not meet the line
    # leading after 4/3
    _drop_a_sweep_event(capsys, monkeypatch, 2,
                        "upsilon curve: not linear on [2/3, 4/3]: a kink was missed")


def test_exit_4_when_the_sweep_misses_its_last_kink(capsys, monkeypatch):
    # the sweep loses the kink at t = 4/3, so the line leading after 1 runs on to 2
    _drop_a_sweep_event(capsys, monkeypatch, 3,
                        "upsilon curve: not linear on [1, 2]: a kink was missed")


def test_exit_4_when_the_generating_cycle_is_a_boundary(capsys, monkeypatch):
    build = complexes._Engine.__init__

    def boundary_cycle(self, k):
        build(self, k)
        self.z_ref = self.basis_cols[0]

    monkeypatch.setattr(complexes._Engine, "__init__", boundary_cycle)
    code, out, err = run(capsys, "upsilon", "T(5,3)")
    assert (code, out) == (4, "")
    assert err == "internal check failed: least-top reduction: the generating cycle is a boundary\n"


def test_exit_4_when_the_kl_sides_do_not_meet(capsys, monkeypatch):
    least_top = invariants._least_top
    calls = []

    def corrupt(eng, keys):  # the reduction just left of t* leads one too high
        calls.append(keys)
        key = least_top(eng, keys)  # the value is the packed key's quotient by w = 2h + 1
        return key + 2 * invariants._slope_bound(eng) + 1 if len(calls) == 2 else key

    monkeypatch.setattr(invariants, "_least_top", corrupt)
    with pytest.raises(AssertionError, match="^kim_livingston: the two sides of t = 2/3 do not meet"):
        invariants.kim_livingston(zoo.torus_knot(4, 3), Fraction(2, 3), Fraction(2, 3))
    calls.clear()
    code, out, err = run(capsys, "kl", "T(4,3)", "--t", "2/3", "--s", "2/3")
    assert code == 4 and out == ""
    assert err == "internal check failed: kim_livingston: the two sides of t = 2/3 do not meet there\n"


def test_exit_4_when_the_secondary_target_is_not_a_boundary(capsys, monkeypatch):
    below = invariants._below
    calls = []

    def corrupt(eng, keys, g):  # C+'s reduced cycle leaves the generating coset
        calls.append(keys)
        z, span = below(eng, keys, g)
        return (z ^ eng.z_ref if len(calls) == 1 else z), span

    monkeypatch.setattr(invariants, "_below", corrupt)
    regions = [upsilon_halfplane(Fraction(t)) for t in ("1", "1/3", "2/3")]
    with pytest.raises(AssertionError, match=r"^secondary: z\+ \+ z- is not a boundary$"):
        invariants.secondary(zoo.torus_knot(4, 3), *regions)
    calls.clear()
    code, out, err = run(capsys, "secondary", "T(4,3)", "--cplus", "H(1)", "--cminus", "H(1/3)",
                         "--region", "H(2/3)")
    assert code == 4 and out == ""
    assert err == "internal check failed: secondary: z+ + z- is not a boundary\n"


def test_exit_4_when_no_cycle_stays_below_the_least_top(capsys, monkeypatch):
    below = invariants._below
    # each side's coset is asked for one key below its least top
    monkeypatch.setattr(invariants, "_below", lambda eng, keys, g: below(eng, keys, g - 1))
    code, out, err = run(capsys, "secondary", "T(4,3)", "--cplus", "H(1)", "--cminus", "H(1/3)",
                         "--region", "H(2/3)")
    assert code == 4 and out == ""
    assert err == ("internal check failed: below reduction: no generating cycle stays on "
                   "the rows keyed at most the least top\n")


# ---------------------------------------------------------------------------
# provenance: the public routines of invariants that each command runs
# ---------------------------------------------------------------------------

PROVENANCE_COMMANDS = [  # (command, knot, flags)
    ("upsilon", "T(4,3)"),
    ("upsilon-at", "T(5,3)", "--t", "2/3"),
    ("region-upsilon", "T(5,3)", "--region", "H(2/3) | Q(1)"),
    ("vk", "T(5,3)", "--s", "1"),
    ("nu-plus", "T(5,3)"),
    ("dinv", "T(5,3)", "--q", "7", "--m", "1"),
    ("eta", "T(5,3)", "--region", "H(2/3)"),
    ("breaking-points", "T(5,3)"),
    ("kl", "T(4,3)", "--t", "2/3", "--s", "2/3"),
    ("secondary", "T(4,3)", "--cplus", "H(1)", "--cminus", "H(1/3)", "--region", "H(2/3)"),
]
ORACLE_COMMANDS = {"upsilon-at", "region-upsilon", "kl", "secondary"}
PROVENANCE_CASES = PROVENANCE_COMMANDS + [
    (*case, "--check-oracle") for case in PROVENANCE_COMMANDS if case[0] in ORACLE_COMMANDS
]


def _trace_routines(monkeypatch, modules) -> list:
    """The names of the public routines of these modules, one per call, in
    call order, traced wherever one of the modules looks them up."""
    called, owners = [], {module.__name__ for module in modules}

    def traced(name, f):
        def wrapper(*args, **kwargs):
            called.append(name)
            return f(*args, **kwargs)
        return wrapper

    for module in modules:
        for name, f in vars(module).copy().items():
            if inspect.isfunction(f) and f.__module__ in owners and not name.startswith("_"):
                monkeypatch.setattr(module, name, traced(name, f))
    return called


@pytest.mark.parametrize("case", PROVENANCE_CASES, ids=" ".join)
def test_provenance_names_the_routines_that_ran(tmp_path, capsys, monkeypatch, case):
    command, knot, *flags = case
    # The complex comes from a file: the zoo builders call invariants routines
    # (staircase corners) that are no part of the command's route.
    path = tmp_path / "knot.json"
    save_complex(build_complex(parse_knot_expr(knot)), path)
    called = _trace_routines(monkeypatch, (invariants,))
    payload = run_json(capsys, command, "--complex-file", str(path), *flags)
    assert sorted(payload["provenance"]) == sorted(set(called))


def test_pretzel_report_provenance_names_only_routines_that_ran(capsys, monkeypatch):
    # `pretzel_report` calls zoo builders and invariants through zoo's own
    # names, so both modules are traced; the report checks eta against
    # (q - 3)/3 inline, with no call to `eta_closed_form`
    called = _trace_routines(monkeypatch, (invariants, zoo))
    payload = run_json(capsys, "pretzel-report", "--q", "7")
    assert set(payload["provenance"]) <= set(called)


# ---------------------------------------------------------------------------
# complex files
# ---------------------------------------------------------------------------


def test_validate_and_file_expression(tmp_path, capsys):
    path = tmp_path / "trefoil.json"
    save_complex(build_complex(parse_knot_expr("T(2,3)")), path)

    code, out, _ = run(capsys, "validate", "--complex-file", str(path))
    assert code == 0 and "ok: knot-type complex with 3 generators" in out

    payload = run_json(capsys, "upsilon", f"file({path})")
    assert payload["value"]["breakpoints"] == [["0", "0"], ["1", "-1"], ["2", "0"]]


def test_expression_and_complex_file_together_are_a_usage_error(tmp_path, capsys):
    # the expression was once dropped: T(5,2)'s curve printed as file(...)
    path = tmp_path / "t52.json"
    save_complex(build_complex(parse_knot_expr("T(5,2)")), path)
    for argv in (("upsilon", "T(3,2)", "--complex-file", str(path), "--format", "json"),
                 ("validate", "T(3,2)", "--complex-file", str(path))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "usage error: give a knot expression or --complex-file, not both\n"


def test_validate_rejects_non_knot_complex(tmp_path, capsys):
    # two degree-0 towers: constructible, but H_0 has rank 2
    bad = KnotComplex(
        (BaseGenerator("x0", 0, 0, 0), BaseGenerator("x1", 0, 0, 0)), ()
    )
    path = tmp_path / "bad.json"
    save_complex(bad, path)

    code, out, _ = run(capsys, "validate", "--complex-file", str(path))
    assert code == 2 and "problem:" in out

    code, _, err = run(capsys, "upsilon", f"file({path})")
    assert code == 2 and "validation failure" in err


def test_deeply_nested_complex_json_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"generators": ' + "[" * 2000 + "]" * 2000 + "}")
    for argv in (("validate", "--complex-file", str(path)), ("upsilon", f"file({path})")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: complex JSON nests too deeply to decode\n"


def test_bad_complex_entries_are_short_error_lines(tmp_path, capsys):
    nested = tmp_path / "nested.json"
    nested.write_text('{"generators": [' + "[" * 900 + "]" * 900 + "]}")
    long_id = tmp_path / "long_id.json"
    long_id.write_text(json.dumps({"generators": [{"id": "x" * 5000, "A": 0.5, "j": 0, "M": 0}]}))
    for path, named in ((nested, "bad generator entry [[["), (long_id, "field 'A' must be an integer")):
        code, out, err = run(capsys, "validate", "--complex-file", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and named in err and err.count("\n") == 1 and len(err) < 200


def test_missing_complex_file(capsys):
    code, _, err = run(capsys, "validate", "--complex-file", "/nonexistent.json")
    assert code == 1 and "usage error" in err
    code, _, err = run(capsys, "upsilon", "file(/nonexistent.json)")
    assert code == 1


def test_file_with_non_integer_fields_is_rejected(tmp_path, capsys):
    for field, value in (("A", 0.9), ("j", False), ("M", "0")):
        entry = {"id": "x", "A": 0, "j": 0, "M": 0, field: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"generators": [entry], "arrows": []}))
        code, out, err = run(capsys, "upsilon", f"file({path})")
        assert code == 2 and f"field '{field}' must be an integer" in err
        assert out == ""


@pytest.mark.parametrize(
    "data, field",
    [
        ({"generators": [{"id": "x", "A": 0, "j": 0, "M": 0}], "arrows": None}, "arrows"),
        ({"generators": 5, "arrows": []}, "generators"),
        ({"generators": [{"id": ["x"], "A": 0, "j": 0, "M": 0}], "arrows": []}, "id"),
    ],
)
def test_file_with_wrong_shapes_is_rejected(tmp_path, capsys, data, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "upsilon", f"file({path})")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"field '{field}' must be a" in err
    assert len(err.splitlines()) == 1


def _renamed_trefoil(path, names):
    data = to_json_dict(build_complex(parse_knot_expr("T(2,3)")))
    rename = dict(zip(sorted(g["id"] for g in data["generators"]), names))
    for g in data["generators"]:
        g["id"] = rename[g["id"]]
    data["arrows"] = [[rename[a], rename[b], m] for a, b, m in data["arrows"]]
    path.write_text(json.dumps(data))


def test_sum_of_files_with_starred_names(tmp_path, capsys):
    # unescaped "g*h" naming would give both a*(b*c) and (a*b)*c the name a*b*c
    _renamed_trefoil(tmp_path / "a.json", ("a", "a*b", "a2"))
    _renamed_trefoil(tmp_path / "b.json", ("b*c", "c", "c2"))
    expr = f"file({tmp_path / 'a.json'}) # file({tmp_path / 'b.json'})"
    payload = run_json(capsys, "upsilon", expr)
    assert payload["value"]["breakpoints"] == [["0", "0"], ["1", "-2"], ["2", "0"]]


# ---------------------------------------------------------------------------
# report pipelines
# ---------------------------------------------------------------------------


def test_thin_check_headline_knot(capsys):
    payload = run_json(capsys, "thin-check", "T(8,5) # -T(6,5) # -T(4,3)")
    value = payload["value"]
    assert value["verdict"] == "obstructed"
    assert value["tau"] == "1"
    assert value["upsilon_shape_matches_thin"] is True
    by_t = {entry["t"]: entry for entry in value["comparisons"]}
    assert set(by_t) == {"2/5", "2/3", "4/5", "1", "6/5", "4/3", "8/5"}
    assert by_t["4/5"] == {
        "t": "4/5", "lhs": "-8/5", "rhs": "-12/5", "equal": False,
        "note": "summand-side comparison (thin part smooth here)",
    }
    assert by_t["6/5"]["equal"] is False
    assert by_t["2/3"]["equal"] is True
    assert by_t["1"]["equal"] is True and "closed form" in by_t["1"]["note"]


def test_thin_check_trefoil_not_obstructed(capsys):
    payload = run_json(capsys, "thin-check", "T(2,3)")
    value = payload["value"]
    assert value["verdict"] == "not obstructed (by these invariants)"
    assert value["tau"] == "1"
    assert [entry["equal"] for entry in value["comparisons"]] == [True]


def test_thin_check_skips_when_smoothness_fails(capsys):
    payload = run_json(capsys, "thin-check", "thin(2) # -thin(1)")
    value = payload["value"]
    assert value["verdict"] == "not obstructed (by these invariants)"
    (entry,) = value["comparisons"]
    assert entry["t"] == "1" and entry["equal"] is None
    assert "smoothness hypothesis fails" in entry["note"]


def test_thin_check_shape_mismatch(capsys):
    payload = run_json(capsys, "thin-check", "T(5,3)")
    value = payload["value"]
    assert value["upsilon_shape_matches_thin"] is False
    assert value["verdict"] == "obstructed"
    assert value["comparisons"] == []


def test_exit_2_when_the_input_is_too_large_for_memory(capsys, monkeypatch):
    # T(99999,99998) asks the semigroup for a membership table of about 10^10
    # entries; the allocation's failure is raised here without allocating
    def exhausted(self):
        raise MemoryError

    monkeypatch.setattr(zoo.Semigroup, "_table", property(exhausted))
    code, out, err = run(capsys, "upsilon", "T(99999,99998)")
    assert (code, out, err) == (2, "", "error: out of memory: the input is too large to evaluate\n")


def test_exit_2_when_a_connected_sum_is_over_the_generator_limit(capsys):
    # 117^3 = 1,601,613 generators: refused before the product is allocated
    code, out, err = run(capsys, "upsilon", "T(60,59) # T(60,59) # T(60,59)")
    assert (code, out) == (2, "")
    assert err == "error: the connected sum has 1601613 generators, over the limit of 100000\n"


def test_thin_check_reports_other_errors(capsys, monkeypatch):
    # only "not a breaking point" reads as an undefined value; any other
    # error of the secondary invariant is reported and fails the command
    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(invariants, "_secondary", boom)
    code, out, err = run(capsys, "thin-check", "T(3,2)")
    assert code == 2 and err == "error: boom\n"


@pytest.mark.parametrize(
    "text,positive,negative",
    [
        ("T(8,5) # -T(6,5) # -T(4,3)", [(8, 5)], [(6, 5), (4, 3)]),
        ("T(3,2) # -T(5,2)", [(3, 2)], [(5, 2)]),  # smoothness fails at t=1
        ("T(5,3)", [(5, 3)], []),  # upsilon shape is not thin
    ],
)
def test_thin_check_library_matches_cli(capsys, text, positive, negative):
    value = zoo.thin_check([zoo.torus_knot(*pq) for pq in positive],
                           [zoo.torus_knot(*pq) for pq in negative])
    assert value == run_json(capsys, "thin-check", text)["value"]


def test_thin_check_self_check_exits_4(capsys, monkeypatch):
    # the shape test forces equal breaking points away from t = 1
    real = zoo.breaking_points
    sides = []

    def skewed(k):
        sides.append(k)
        extra = [invariants.BreakingPoint(Fraction(1, 2), Fraction(1))] if len(sides) == 1 else []
        return real(k) + extra

    monkeypatch.setattr(zoo, "breaking_points", skewed)
    code, out, err = run(capsys, "thin-check", "T(2,3)")
    assert code == 4 and out == ""
    assert err.startswith("internal check failed: thin-check: ") and err.count("\n") == 1


def test_thin_check_text_output(capsys):
    code, out, _ = run(capsys, "thin-check", "T(2,3)")
    assert code == 0
    assert "upsilon shape matches a thin knot: True (tau = 1)" in out
    assert "verdict: not obstructed (by these invariants)" in out


def test_pretzel_report(capsys):
    payload = run_json(capsys, "pretzel-report", "--q", "7")
    value = payload["value"]
    assert value["tau"] == "5"
    assert value["genus"] == 5
    assert value["upsilon_singularities"] == ["2/3", "1", "4/3"]
    assert value["eta_H_2_3"] == {"engine": "4/3", "closed_form": "4/3"}
    constraints = value["decomposition_constraints"]
    assert constraints["required_n_sum_over_exponent_3_summands"] == "1"
    assert constraints["n_of_semigroup_3_p"]["(3,7)"] == 2
    assert constraints["forced_exponent_3_summand_one_of"] == ["(3,4)", "(3,5)"]

    code, out, _ = run(capsys, "pretzel-report", "--q", "7")
    assert code == 0
    assert "tau = 5, genus = 5" in out
    assert "one of (3,4), (3,5)" in out


def test_pretzel_report_q9(capsys):
    value = run_json(capsys, "pretzel-report", "--q", "9")["value"]
    assert value["tau"] == "6"
    assert value["eta_H_2_3"]["engine"] == "2"


# ---------------------------------------------------------------------------
# entry point wiring
# ---------------------------------------------------------------------------


def test_module_entry_point():
    # the child imports the same package as this test, installed or not
    src = os.path.dirname(os.path.dirname(upsilonkit.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "upsilonkit", "upsilon-at", "T(2,3)", "--t", "1",
         "--format", "json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == {"num": -1, "den": 1}


def test_closed_pipe_exits_1_quietly():
    # `upsilonkit ... | head -c 200`: the reader closes after its first read,
    # while the command still has far more than a pipe buffer to write
    src = os.path.dirname(os.path.dirname(upsilonkit.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "upsilonkit", "upsilon", "T(3,2)", "--format", "csv",
         "--samples", "10000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
    )
    first = os.read(proc.stdout.fileno(), 200)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert first.startswith(b"# display-only decimal samples")
    assert (proc.wait(), err) == (1, b"")
