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

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import complexes, invariants, regions, zoo
from .exact import rational_to_text
from .invariants import GuardExceeded, NoObstructionType
from .regions import RegionParseError, _Scanner, upsilon_halfplane


# ---------------------------------------------------------------------------
# Knot expressions
# ---------------------------------------------------------------------------
#
# An expression is a tuple headed by its term: ("#", left, right) for a sum,
# ("-", inner) for a mirror, or an atom such as ("T", 8, 5), ("alg", 4, (6, 7))
# or ("file", path).


class KnotParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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
            self.descend()
            self.pos += 1
            expr = self.expr()
            self.expect(")")
            self.depth -= 1
            return expr
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
    if isinstance(value, NoObstructionType):
        return "no-obstruction"
    if isinstance(value, regions.PLFunction):
        return {"breakpoints": [[rational_to_text(t), rational_to_text(v)]
                                for t, v in value.points]}
    if isinstance(value, (Fraction, int)):
        return {"num": value.numerator, "den": value.denominator}
    return value  # already-structured report payloads


def _value_text(value) -> str:
    if isinstance(value, regions.PLFunction):
        return "  ".join(f"({rational_to_text(t)}, {rational_to_text(v)})" for t, v in value.points)
    return str(value)  # a Fraction's str is its canonical text


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # do not sys.exit(2); route to exit code 1
        raise CliUsageError(message)


def _emit(args, command: str, value, provenance: list[str], *, knot: str | None = None,
          region: str | None = None, extra_text: list[str] | None = None):
    if args.format == "json":
        payload = {
            "command": command,
            "knot": knot,
            "region": region,
            "value": _value_json(value),
            "provenance": provenance,
        }
        print(json.dumps(payload, indent=1))
    else:
        for line in extra_text or []:
            print(line)
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
    return _emit(args, "upsilon", f, ["upsilon_function"], knot=name)


def _checked(args, value, prov, name, oracle):
    """The provenance `prov`, with `name` appended once `oracle(f)` has
    matched the engine's value, with f the routine `name` of `oracles`,
    when --check-oracle asks for that check; a mismatch raises
    AssertionError (exit 4).  Only this check loads `oracles`."""
    if args.check_oracle:
        from . import oracles
        expected = oracle(getattr(oracles, name))
        if value != expected:
            raise AssertionError(f"oracle check: engine {value} != brute-force oracle {expected}")
        prov.append(name)
    return prov


def _cmd_upsilon_at(args):
    k, name = _get_complex(args)
    value = invariants.upsilon_at(k, args.t)
    prov = _checked(args, value, ["upsilon_at", "upsilon_region"], "brute_force_upsilon",
                    lambda f: -2 * f(k, upsilon_halfplane(args.t)))
    return _emit(args, "upsilon-at", value, prov, knot=name)


def _cmd_region_upsilon(args):
    k, name = _get_complex(args)
    r = regions.parse_region(args.region)
    value = invariants.upsilon_region(k, r)
    prov = _checked(args, value, ["upsilon_region"], "brute_force_upsilon",
                    lambda f: f(k, r))
    return _emit(args, "region-upsilon", value, prov, knot=name, region=args.region)


def _cmd_vk(args):
    k, name = _get_complex(args)
    value = invariants.vk(k, args.s)
    return _emit(
        args, "vk", value, ["vk"], knot=name,
        extra_text=[f"V({args.s}), -2-scaled convention (V(0) of the positive trefoil is -2):"],
    )


def _cmd_nu_plus(args):
    k, name = _get_complex(args)
    return _emit(args, "nu-plus", invariants.nu_plus(k), ["nu_plus"], knot=name)


def _cmd_dinv(args):
    k, name = _get_complex(args)
    value = invariants.d_invariant(k, args.q, args.m)
    return _emit(args, "dinv", value, ["d_invariant", "vk"], knot=name)


def _cmd_eta(args):
    k, name = _get_complex(args)
    r = regions.parse_region(args.region)
    value = invariants.eta(k, r)
    return _emit(args, "eta", value, ["eta"], knot=name, region=args.region)


def _cmd_breaking_points(args):
    k, name = _get_complex(args)
    bps = invariants.breaking_points(k)
    value = {
        "breaking_points": [
            {
                "t": rational_to_text(bp.t),
                "jump": rational_to_text(bp.jump),
                "i_minus": bp.i_minus,
                "i_plus": bp.i_plus,
            }
            for bp in bps
        ]
    }
    if args.format == "json":
        return _emit(args, "breaking-points", value,
                     ["breaking_points", "upsilon_function"], knot=name)
    for bp in bps:
        print(f"t = {rational_to_text(bp.t)}   jump = {rational_to_text(bp.jump)}")
    if not bps:
        print("no breaking points")
    return 0


def _cmd_kl(args):
    k, name = _get_complex(args)
    value = invariants.kim_livingston(k, args.t, args.s)
    prov = _checked(args, value, ["kim_livingston"], "kim_livingston_oracle",
                    lambda f: f(k, args.t, args.s))
    return _emit(args, "kl", value, prov, knot=name)


def _cmd_secondary(args):
    k, name = _get_complex(args)
    cplus = regions.parse_region(args.cplus)
    cminus = regions.parse_region(args.cminus)
    c = regions.parse_region(args.region)
    value = invariants.secondary(k, cplus, cminus, c)
    prov = _checked(args, value, ["secondary"], "brute_force_secondary",
                    lambda f: f(k, cplus, cminus, c))
    return _emit(args, "secondary", value, prov, knot=name, region=args.region)


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
        _emit(args, "validate", value, ["validate_complex"], knot=name)
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
        return _emit(args, "thin-check", value, prov, knot=name)
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
        return _emit(args, "pretzel-report", value, prov, knot=name)
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


def _knot_source(sub, formats=("text", "json")):
    """The arguments of a command that reads a knot expression or --complex-file."""
    sub.add_argument("expr", nargs="?", help="knot expression")
    sub.add_argument("--complex-file", help="load the complex from JSON instead")
    sub.add_argument("--format", choices=formats, default="text")


def _upsilon_args(sub):
    _knot_source(sub, formats=("text", "json", "csv"))
    sub.add_argument("--samples", type=int, default=64,
                     help="sample count for CSV output (default 64)")


def _upsilon_at_args(sub):
    _knot_source(sub)
    sub.add_argument("--t", type=_rational_flag, required=True)
    sub.add_argument("--check-oracle", action="store_true",
                     help="cross-check against the brute-force oracle")


def _region_upsilon_args(sub):
    _knot_source(sub)
    sub.add_argument("--region", required=True)
    sub.add_argument("--check-oracle", action="store_true")


def _vk_args(sub):
    _knot_source(sub)
    sub.add_argument("--s", type=int, required=True)


def _dinv_args(sub):
    _knot_source(sub)
    sub.add_argument("--q", type=int, required=True, help="surgery coefficient")
    sub.add_argument("--m", type=int, required=True, help="spin-c index")


def _eta_args(sub):
    _knot_source(sub)
    sub.add_argument("--region", required=True)


def _kl_args(sub):
    _knot_source(sub)
    sub.add_argument("--t", type=_rational_flag, required=True, help="breaking point")
    sub.add_argument("--s", type=_rational_flag, required=True, help="evaluation parameter")
    sub.add_argument("--check-oracle", action="store_true")


def _secondary_args(sub):
    _knot_source(sub)
    sub.add_argument("--cplus", required=True)
    sub.add_argument("--cminus", required=True)
    sub.add_argument("--region", required=True)
    sub.add_argument("--check-oracle", action="store_true")


def _thin_check_args(sub):
    sub.add_argument("expr", help="knot expression")
    sub.add_argument("--format", choices=("text", "json"), default="text")


def _pretzel_report_args(sub):
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--format", choices=("text", "json"), default="text")


# (name, help, handler, argument builder) of each subcommand, in help order.
_COMMANDS = (
    ("upsilon", "the full upsilon function", _cmd_upsilon, _upsilon_args),
    ("upsilon-at", "upsilon at one parameter", _cmd_upsilon_at, _upsilon_at_args),
    ("region-upsilon", "region invariant (unscaled)", _cmd_region_upsilon, _region_upsilon_args),
    ("vk", "V(s), -2-scaled convention", _cmd_vk, _vk_args),
    ("nu-plus", "least s with V(s) = 0", _cmd_nu_plus, _knot_source),
    ("dinv", "surgery correction term", _cmd_dinv, _dinv_args),
    ("eta", "Alexander-truncation invariant", _cmd_eta, _eta_args),
    ("breaking-points", "kinks with positive jump", _cmd_breaking_points, _knot_source),
    ("kl", "secondary invariant at a breaking point", _cmd_kl, _kl_args),
    ("secondary", "raw secondary invariant for three regions", _cmd_secondary, _secondary_args),
    ("validate", "check the knot-type conditions", _cmd_validate, _knot_source),
    ("thin-check", "obstruct concordance to a thin knot", _cmd_thin_check, _thin_check_args),
    ("pretzel-report", "decomposition constraints for P(-2,3,q)", _cmd_pretzel_report,
     _pretzel_report_args),
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
    for name, summary, func, add_arguments in named or _COMMANDS:
        sub = subs.add_parser(name, help=summary)
        add_arguments(sub)
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
    except (KnotParseError, RegionParseError) as exc:
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
