"""Command-line front end: it parses knot expressions, wires the arguments and
formats the output.  Every value, the thin-check and pretzel-report reports
included, comes from the library.

Knots are given as expressions over a small grammar:

    expr  := term ('#' term)*          connected sum (tensor product)
    term  := '-' term | atom           mirror
    atom  := T(p,q)                    positive torus knot
           | P(-2,3,q)                 pretzel family member (q >= 7 odd)
           | alg(a; q1, q2, ...)       algebraic knot from Puiseux data
           | thin(n)                   thin knot with tau = n
           | stair(a1, ..., a2k)       explicit staircase jumps
           | file(path)                complex from JSON (validated on load)
           | '(' expr ')'

An expression that starts with '-' must follow '--'.  Nesting deeper than 100
levels is a parse error.

Regions use the DSL of the regions module: H(t), Q(s), hp(a,b,c), trunc(R,x),
R & R, R | R.  All numeric output is exact; JSON carries rationals as
{"num", "den"} pairs or canonical "p/q" strings, CSV is display-only decimal.

Exit codes: 0 success; 1 parse/usage error; 2 validation or precondition
failure, or an input too large for memory; 3 brute-force oracle guard
exceeded; 4 internal check failed (an oracle mismatch or a self-check).
"""

# The docstring above is the description that `upsilonkit --help` prints.
# The nine commands that print one engine value (upsilon-at, region-upsilon,
# vk, nu-plus, dinv, eta, breaking-points, kl, secondary) share one handler,
# `_cmd_value`, which the table `_VALUES` drives; the other four keep
# handlers of their own.
# Each `_COMMANDS` row ends with the command's arguments as data, (flag,
# argparse keywords) pairs that `_build_parser` adds in one loop.

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import complexes, invariants, regions, zoo
from .exact import rational_to_text
from .invariants import GuardExceeded, NoObstructionType
from .regions import _ParseError, _Scanner


# ---------------------------------------------------------------------------
# Knot expressions
# ---------------------------------------------------------------------------
#
# An expression is a tuple headed by its term: ("#", left, right) for a sum,
# ("-", inner) for a mirror, or an atom such as ("T", 8, 5), ("alg", 4, (6, 7))
# or ("file", path).


class KnotParseError(_ParseError):
    """A parse error in a knot expression."""


class CliUsageError(Exception):
    pass


class ValidationFailure(Exception):
    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


def _read_complex(path: str) -> complexes.KnotComplex:
    """Load a complex file; an unreadable file is a usage error."""
    try:
        return complexes.load_complex(path)
    except OSError as exc:
        raise CliUsageError(f"cannot read complex file: {exc}") from None


def _file_complex(path: str) -> complexes.KnotComplex:
    """The file(path) atom: a complex file that must pass validation."""
    k = _read_complex(path)
    report = complexes.validate_complex(k)
    if not report.ok:
        raise ValidationFailure(report.problems)
    return k


def _list_text(values) -> str:
    return ", ".join(map(str, values))


# Atom name -> (parse-time check or None, printer, builder), each called with
# the atom's arguments.  The zoo functions are looked up at call time, so a
# replaced one (a test's monkeypatch, a tracing wrapper) is the one called.
_ATOMS = {
    "T": (lambda p, q: zoo.check_torus_parameters(p, q),
          lambda p, q: f"T({p},{q})",
          lambda p, q: zoo.torus_knot(p, q)),
    "P": (lambda q: zoo.check_pretzel_parameter(q),
          lambda q: f"P(-2,3,{q})",
          lambda q: zoo.pretzel(q)),
    "alg": (lambda a, qs: zoo.PuiseuxData(a, qs),
            lambda a, qs: f"alg({a}; {_list_text(qs)})",
            lambda a, qs: zoo.staircase_from_jumps(
                zoo.jumps_from_semigroup(zoo.semigroup_from_puiseux(zoo.PuiseuxData(a, qs))))),
    "thin": (None,
             lambda tau: f"thin({tau})",
             lambda tau: zoo.thin_model(tau)),
    "stair": (lambda jumps: invariants.check_jumps(jumps),
              lambda jumps: f"stair({_list_text(jumps)})",
              lambda jumps: zoo.staircase_from_jumps(jumps)),
    "file": (None,
             lambda path: f"file({path})",
             _file_complex),
}


class _KnotParser(_Scanner):
    """Recursive descent over the knot expression grammar above."""

    error = KnotParseError

    def integer(self) -> int:
        self.skip_ws()
        start = self.digits(signed=True)
        token = self.text[start:self.pos]
        try:
            return int(token)
        except ValueError:
            raise KnotParseError(f"expected an integer, found {token!r}", start) from None

    def integers(self) -> tuple[int, ...]:
        """One or more comma-separated integers."""
        values = [self.integer()]
        while self.peek() == ",":
            self.pos += 1
            values.append(self.integer())
        return tuple(values)

    def expr(self):
        expr = self.term()
        while self.peek() == "#":
            # A sum sinks the summands before it one level deeper, so its level
            # is kept to the end of the input: the cap then also bounds the
            # tree that the printer and the builder recurse on.
            self.descend()
            self.pos += 1
            expr = ("#", expr, self.term())
        return expr

    def term(self):
        if self.peek() == "-":
            self.descend()
            self.pos += 1
            expr = ("-", self.term())
            self.depth -= 1
            return expr
        return self.atom()

    def atom(self):
        if self.peek() == "(":
            return self.group()
        start, name = self.term_name("knot")
        if name not in _ATOMS:
            raise KnotParseError(f"unknown knot term {name!r}", start)
        self.expect("(")
        if name == "file":
            end = self.text.find(")", self.pos)
            if end < 0:
                raise KnotParseError("unterminated file(...) path", self.pos)
            path = self.text[self.pos:end].strip()
            if not path:
                raise KnotParseError("empty file(...) path", self.pos)
            self.pos = end + 1
            return ("file", path)
        if name == "T":
            p = self.integer()
            self.expect(",")
            args = (p, self.integer())
        elif name == "P":
            first = self.integer()
            self.expect(",")
            second = self.integer()
            self.expect(",")
            args = (self.integer(),)
        elif name == "alg":
            a = self.integer()
            self.expect(";")
            args = (a, self.integers())
        elif name == "thin":
            args = (self.integer(),)
        else:  # stair
            args = (self.integers(),)
        self.expect(")")
        if name == "P" and (first, second) != (-2, 3):
            raise KnotParseError(
                f"only the P(-2,3,q) family is supported, got P({first},{second},{args[0]})",
                start,
            )
        check = _ATOMS[name][0]
        if check is not None:
            try:
                check(*args)
            except ValueError as exc:
                raise KnotParseError(str(exc), start) from None
        return (name, *args)


def parse_knot_expr(text: str) -> tuple:
    """Parse a knot expression; raises KnotParseError with a position."""
    return _KnotParser(text).parse()


def knot_expr_to_text(expr: tuple) -> str:
    """Canonical printer; parse(print(e)) == e."""
    head = expr[0]
    if head == "#":
        right = knot_expr_to_text(expr[2])
        if expr[2][0] == "#":  # '#' parses left-associated
            right = f"({right})"
        return f"{knot_expr_to_text(expr[1])} # {right}"
    if head == "-":
        inner = knot_expr_to_text(expr[1])
        return f"-({inner})" if expr[1][0] == "#" else f"-{inner}"
    return _ATOMS[head][1](*expr[1:])


def build_complex(expr: tuple) -> complexes.KnotComplex:
    """Evaluate an expression to a complex: one tensor product of its summands,
    each mirrored under an odd number of '-' (a lone summand as built)."""
    parts = []
    for atom, sign in _flatten_sum(expr):
        k = _ATOMS[atom[0]][2](*atom[1:])
        parts.append(k if sign > 0 else complexes.mirror(k))
    return parts[0] if len(parts) == 1 else complexes.tensor(*parts)


def _flatten_sum(expr: tuple, sign: int = 1) -> list[tuple[tuple, int]]:
    """Each summand of expr with its sign (-1 under an odd number of mirrors)."""
    head = expr[0]
    if head == "#":
        return _flatten_sum(expr[1], sign) + _flatten_sum(expr[2], sign)
    if head == "-":
        return _flatten_sum(expr[1], -sign)
    return [(expr, sign)]


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _value_json(value):
    if isinstance(value, list):  # breaking points
        return {"breaking_points": [{"t": rational_to_text(bp.t),
                                     "jump": rational_to_text(bp.jump),
                                     "i_minus": bp.i_minus, "i_plus": bp.i_plus} for bp in value]}
    if isinstance(value, NoObstructionType):
        return "no-obstruction"
    if isinstance(value, regions.PLFunction):
        return {"breakpoints": [[rational_to_text(t), rational_to_text(v)]
                                for t, v in value.points]}
    if isinstance(value, (Fraction, int)):
        return {"num": value.numerator, "den": value.denominator}
    return value  # already-structured report payloads


def _value_text(value) -> str:
    if isinstance(value, list):  # breaking points
        return "\n".join(f"t = {rational_to_text(bp.t)}   jump = {rational_to_text(bp.jump)}"
                         for bp in value) or "no breaking points"
    if isinstance(value, regions.PLFunction):
        return "  ".join(f"({rational_to_text(t)}, {rational_to_text(v)})" for t, v in value.points)
    return str(value)  # a Fraction's str is its canonical text


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # do not sys.exit(2); route to exit code 1
        raise CliUsageError(message)


def _emit(args, value, provenance: list[str], *, knot: str | None = None,
          region: str | None = None):
    if args.format == "json":
        payload = {
            "command": args.command,
            "knot": knot,
            "region": region,
            "value": _value_json(value),
            "provenance": provenance,
        }
        print(json.dumps(payload, indent=1))
    else:
        print(_value_text(value))
    return 0


def _rational_flag(text: str) -> Fraction:
    """A --t or --s value.  argparse shows the message of an
    ArgumentTypeError, but replaces that of a ValueError with its own."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"malformed rational {text!r}") from None


def _source(args) -> tuple[str | None, str | None]:
    """The command's --complex-file and knot expression: exactly one is given."""
    path, text = getattr(args, "complex_file", None), getattr(args, "expr", None)
    if path and text:
        raise CliUsageError("give a knot expression or --complex-file, not both")
    if not (path or text):
        raise CliUsageError("provide a knot expression or --complex-file")
    return path, text


def _get_complex(args) -> tuple[complexes.KnotComplex, str]:
    path, text = _source(args)
    expr = ("file", path) if path else parse_knot_expr(text)
    return build_complex(expr), knot_expr_to_text(expr)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_upsilon(args):
    if args.samples < 1:
        raise CliUsageError(f"--samples must be a positive integer, got {args.samples}")
    k, name = _get_complex(args)
    f = invariants.upsilon_function(k)
    if args.format == "csv":
        print("# display-only decimal samples; exact values via --format json")
        print("t,value")
        ts = [Fraction(2 * i, args.samples) for i in range(args.samples + 1)]
        for t, value in zip(ts, regions._pl_at(f, ts)):
            print(f"{float(t):.12f},{float(value):.12f}")
        return 0
    return _emit(args, f, ["upsilon_function"], knot=name)


# Command -> (value routine, provenance, oracle check, text line) of each
# command that prints one engine value.  The value routine takes the complex,
# the arguments and the command's regions (--cplus, --cminus, --region, those
# it has); the oracle check, or None, is the name of the routine of `oracles`
# that recomputes the value and how to call it; the text line, or None, goes
# before the value in text output.  Routines are looked up at call time, so a
# replaced one (a test's monkeypatch, a tracing wrapper) is the one called.
_VALUES = {
    "upsilon-at": (lambda k, a: invariants.upsilon_at(k, a.t), ["upsilon_at", "upsilon_region"],
                   ("brute_force_upsilon",
                    lambda f, k, a: -2 * f(k, regions.upsilon_halfplane(a.t))), None),
    "region-upsilon": (lambda k, a, r: invariants.upsilon_region(k, r), ["upsilon_region"],
                       ("brute_force_upsilon", lambda f, k, a, r: f(k, r)), None),
    "vk": (lambda k, a: invariants.vk(k, a.s), ["vk"], None,
           lambda a: f"V({a.s}), -2-scaled convention (V(0) of the positive trefoil is -2):"),
    "nu-plus": (lambda k, a: invariants.nu_plus(k), ["nu_plus"], None, None),
    "dinv": (lambda k, a: invariants.d_invariant(k, a.q, a.m), ["d_invariant", "vk"], None, None),
    "eta": (lambda k, a, r: invariants.eta(k, r), ["eta"], None, None),
    "breaking-points": (lambda k, a: invariants.breaking_points(k),
                        ["breaking_points", "upsilon_function"], None, None),
    "kl": (lambda k, a: invariants.kim_livingston(k, a.t, a.s), ["kim_livingston"],
           ("kim_livingston_oracle", lambda f, k, a: f(k, a.t, a.s)), None),
    "secondary": (lambda k, a, *rs: invariants.secondary(k, *rs), ["secondary"],
                  ("brute_force_secondary", lambda f, k, a, *rs: f(k, *rs)), None),
}


def _cmd_value(args):
    """The value of a command of `_VALUES`.  Under --check-oracle the oracle
    recomputes it and its name joins the provenance; a mismatch raises
    AssertionError (exit 4).  Only that check loads `oracles`."""
    value_of, provenance, oracle, line = _VALUES[args.command]
    k, name = _get_complex(args)
    rs = [regions.parse_region(getattr(args, flag))
          for flag in ("cplus", "cminus", "region") if flag in args]
    value = value_of(k, args, *rs)
    if oracle and args.check_oracle:
        from . import oracles
        routine, call = oracle
        expected = call(getattr(oracles, routine), k, args, *rs)
        if value != expected:
            raise AssertionError(f"oracle check: engine {value} != brute-force oracle {expected}")
        provenance = [*provenance, routine]
    if line and args.format == "text":
        print(line(args))
    return _emit(args, value, provenance, knot=name, region=getattr(args, "region", None))


def _cmd_validate(args):
    path, text = _source(args)
    if path:
        k = _read_complex(path)
        name = f"file({path})"
    else:
        k = build_complex(parse_knot_expr(text))
        name = text
    report = complexes.validate_complex(k)
    value = {"ok": report.ok, "problems": list(report.problems),
             "generators": len(k.generators)}
    if args.format == "json":
        _emit(args, value, ["validate_complex"], knot=name)
    else:
        if report.ok:
            print(f"ok: knot-type complex with {len(k.generators)} generators")
        else:
            for problem in report.problems:
                print(f"problem: {problem}")
    return 0 if report.ok else 2


def _cmd_thin_check(args):
    """Test whether the expression could be concordant to a thin knot: the
    summands of K = A # -B are split by sign and `reports.thin_check`
    compares the two sides.  The provenance names what the report ran: the
    breaking points only when the curve has the thin shape, Kim-Livingston
    only for a comparison that was not skipped, and the thin closed form
    only for the one at t = 1."""
    from . import reports
    expr = parse_knot_expr(args.expr)
    name = knot_expr_to_text(expr)
    terms = _flatten_sum(expr)
    value = reports.thin_check([build_complex(e) for e, sign in terms if sign > 0],
                               [build_complex(e) for e, sign in terms if sign < 0])
    if args.format == "json":
        ran = [c["t"] for c in value["comparisons"] if c["equal"] is not None]
        prov = ["upsilon_function"]
        if value["upsilon_shape_matches_thin"]:
            prov.append("breaking_points")
        if ran:
            prov.append("kim_livingston")
        if "1" in ran:
            prov.append("thin_kl_closed")
        return _emit(args, value, prov, knot=name)
    print(f"upsilon shape matches a thin knot: {value['upsilon_shape_matches_thin']} "
          f"(tau = {value['tau']})")
    for c in value["comparisons"]:
        lhs = c.get("lhs", "-")
        rhs = c.get("rhs", "-")
        print(f"t = {c['t']}: lhs {lhs} vs rhs {rhs} -> {c.get('equal')} [{c['note']}]")
    print(f"verdict: {value['verdict']}")
    return 0


def _cmd_pretzel_report(args):
    """The `reports.pretzel_report` of P(-2,3,q)."""
    from . import reports
    value = reports.pretzel_report(args.q)
    name = f"P(-2,3,{args.q})"
    prov = ["pretzel", "upsilon_function", "eta", "n_of_semigroup"]
    if args.format == "json":
        return _emit(args, value, prov, knot=name)
    eta_h = value["eta_H_2_3"]
    constraints = value["decomposition_constraints"]
    print(f"{name}: tau = {value['tau']}, genus = {value['genus']}")
    print(f"upsilon singularities: {', '.join(value['upsilon_singularities'])}")
    print(f"eta over H(2/3): engine {eta_h['engine']}, closed form {eta_h['closed_form']}")
    print("required n(S) sum over exponent-3 summands: "
          f"{constraints['required_n_sum_over_exponent_3_summands']}")
    print("forced exponent-3 summand: one of "
          f"{', '.join(constraints['forced_exponent_3_summand_one_of'])}")
    print(constraints["note"])
    return 0


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


# The arguments of the commands: (flag, argparse keywords) pairs.
_KNOT = (("expr", {"nargs": "?", "help": "knot expression"}),
         ("--complex-file", {"help": "load the complex from JSON instead"}))
_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})
_SOURCE = (*_KNOT, _FORMAT)
_REGION = ("--region", {"required": True})
_CHECK = ("--check-oracle", {"action": "store_true"})

# (name, help, handler, arguments) of each subcommand, in help order; the
# arguments are added in their order.
_COMMANDS = (
    ("upsilon", "the full upsilon function", _cmd_upsilon,
     (*_KNOT, ("--format", {"choices": ("text", "json", "csv"), "default": "text"}),
      ("--samples", {"type": int, "default": 64,
                     "help": "sample count for CSV output (default 64)"}))),
    ("upsilon-at", "upsilon at one parameter", _cmd_value,
     (*_SOURCE, ("--t", {"type": _rational_flag, "required": True}),
      ("--check-oracle", {"action": "store_true",
                          "help": "cross-check against the brute-force oracle"}))),
    ("region-upsilon", "region invariant (unscaled)", _cmd_value, (*_SOURCE, _REGION, _CHECK)),
    ("vk", "V(s), -2-scaled convention", _cmd_value,
     (*_SOURCE, ("--s", {"type": int, "required": True}))),
    ("nu-plus", "least s with V(s) = 0", _cmd_value, _SOURCE),
    ("dinv", "surgery correction term", _cmd_value,
     (*_SOURCE, ("--q", {"type": int, "required": True, "help": "surgery coefficient"}),
      ("--m", {"type": int, "required": True, "help": "spin-c index"}))),
    ("eta", "Alexander-truncation invariant", _cmd_value, (*_SOURCE, _REGION)),
    ("breaking-points", "kinks with positive jump", _cmd_value, _SOURCE),
    ("kl", "secondary invariant at a breaking point", _cmd_value,
     (*_SOURCE, ("--t", {"type": _rational_flag, "required": True, "help": "breaking point"}),
      ("--s", {"type": _rational_flag, "required": True, "help": "evaluation parameter"}),
      _CHECK)),
    ("secondary", "raw secondary invariant for three regions", _cmd_value,
     (*_SOURCE, ("--cplus", {"required": True}), ("--cminus", {"required": True}), _REGION,
      _CHECK)),
    ("validate", "check the knot-type conditions", _cmd_validate, _SOURCE),
    ("thin-check", "obstruct concordance to a thin knot", _cmd_thin_check,
     (("expr", {"help": "knot expression"}), _FORMAT)),
    ("pretzel-report", "decomposition constraints for P(-2,3,q)", _cmd_pretzel_report,
     (("--q", {"type": int, "required": True}), _FORMAT)),
)


def _build_parser(argv) -> _Parser:
    """The parser for these arguments.  When the first names a subcommand,
    only that one is registered, since nothing else of the parser is read
    then; otherwise (help, no arguments, an unknown command) all are, for
    the listing and the error that name them."""
    parser = _Parser(prog="upsilonkit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)
    named = [c for c in _COMMANDS if argv and c[0] == argv[0]]
    for name, summary, func, arguments in named or _COMMANDS:
        sub = subs.add_parser(name, help=summary)
        for flag, options in arguments:
            sub.add_argument(flag, **options)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        code = args.func(args) or 0
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout (`upsilonkit ... | head`).  Point stdout at
        # devnull, as the Python docs advise, so that the flush at exit does
        # not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the input is too large to evaluate", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
