"""Command-line front end.

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

Regions use the DSL of the regions module: H(t), Q(s), hp(a,b,c), trunc(R,x),
R & R, R | R.  All numeric output is exact; JSON carries rationals as
{"num", "den"} pairs or canonical "p/q" strings, CSV is display-only decimal.

Exit codes: 0 success; 1 parse/usage error; 2 validation or precondition
failure; 3 brute-force oracle guard exceeded; 4 internal check failed (an
oracle mismatch or a self-check).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import complexes, invariants, regions, zoo
from .exact import rational_to_text
from .invariants import NO_OBSTRUCTION, GuardExceeded, NoObstructionType, NotABreakingPoint
from .regions import RegionParseError, _Scanner, upsilon_halfplane


# ---------------------------------------------------------------------------
# Knot expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusExpr:
    p: int
    q: int


@dataclass(frozen=True)
class PretzelExpr:
    q: int


@dataclass(frozen=True)
class AlgebraicExpr:
    a: int
    qs: tuple[int, ...]


@dataclass(frozen=True)
class ThinExpr:
    tau: int


@dataclass(frozen=True)
class StairExpr:
    jumps: tuple[int, ...]


@dataclass(frozen=True)
class FileExpr:
    path: str


@dataclass(frozen=True)
class MirrorExpr:
    inner: "KnotExpr"


@dataclass(frozen=True)
class SumExpr:
    left: "KnotExpr"
    right: "KnotExpr"


KnotExpr = (
    TorusExpr | PretzelExpr | AlgebraicExpr | ThinExpr | StairExpr | FileExpr
    | MirrorExpr | SumExpr
)


class KnotParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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

    def expr(self) -> KnotExpr:
        expr = self.term()
        while self.peek() == "#":
            self.pos += 1
            expr = SumExpr(expr, self.term())
        return expr

    def term(self) -> KnotExpr:
        if self.peek() == "-":
            self.pos += 1
            return MirrorExpr(self.term())
        return self.atom()

    def atom(self) -> KnotExpr:
        if self.peek() == "(":
            self.pos += 1
            expr = self.expr()
            self.expect(")")
            return expr
        start, name = self.term_name("knot")
        if name == "T":
            self.expect("(")
            p = self.integer()
            self.expect(",")
            q = self.integer()
            self.expect(")")
            self._validate(start, lambda: zoo.check_torus_parameters(p, q))
            return TorusExpr(p, q)
        if name == "P":
            self.expect("(")
            first = self.integer()
            self.expect(",")
            second = self.integer()
            self.expect(",")
            q = self.integer()
            self.expect(")")
            if (first, second) != (-2, 3):
                raise KnotParseError(
                    f"only the P(-2,3,q) family is supported, got P({first},{second},{q})",
                    start,
                )
            self._validate(start, lambda: zoo.alexander_pretzel(q) and None)
            return PretzelExpr(q)
        if name == "alg":
            self.expect("(")
            a = self.integer()
            self.expect(";")
            qs = [self.integer()]
            while self.peek() == ",":
                self.pos += 1
                qs.append(self.integer())
            self.expect(")")
            self._validate(start, lambda: zoo.PuiseuxData(a, tuple(qs)) and None)
            return AlgebraicExpr(a, tuple(qs))
        if name == "thin":
            self.expect("(")
            tau = self.integer()
            self.expect(")")
            return ThinExpr(tau)
        if name == "stair":
            self.expect("(")
            jumps = [self.integer()]
            while self.peek() == ",":
                self.pos += 1
                jumps.append(self.integer())
            self.expect(")")
            self._validate(start, lambda: invariants.check_jumps(tuple(jumps)) and None)
            return StairExpr(tuple(jumps))
        if name == "file":
            self.expect("(")
            end = self.text.find(")", self.pos)
            if end < 0:
                raise KnotParseError("unterminated file(...) path", self.pos)
            path = self.text[self.pos:end].strip()
            if not path:
                raise KnotParseError("empty file(...) path", self.pos)
            self.pos = end + 1
            return FileExpr(path)
        raise KnotParseError(f"unknown knot term {name!r}", start)

    def _validate(self, start: int, thunk):
        try:
            thunk()
        except ValueError as exc:
            raise KnotParseError(str(exc), start) from None


def parse_knot_expr(text: str) -> KnotExpr:
    """Parse a knot expression; raises KnotParseError with a position."""
    return _KnotParser(text).parse()


def knot_expr_to_text(expr: KnotExpr) -> str:
    """Canonical printer; parse(print(e)) == e."""
    if isinstance(expr, SumExpr):
        right = knot_expr_to_text(expr.right)
        if isinstance(expr.right, SumExpr):  # '#' parses left-associated
            right = f"({right})"
        return f"{knot_expr_to_text(expr.left)} # {right}"
    if isinstance(expr, MirrorExpr):
        inner = knot_expr_to_text(expr.inner)
        if isinstance(expr.inner, SumExpr):
            return f"-({inner})"
        return f"-{inner}"
    if isinstance(expr, TorusExpr):
        return f"T({expr.p},{expr.q})"
    if isinstance(expr, PretzelExpr):
        return f"P(-2,3,{expr.q})"
    if isinstance(expr, AlgebraicExpr):
        return f"alg({expr.a}; " + ", ".join(map(str, expr.qs)) + ")"
    if isinstance(expr, ThinExpr):
        return f"thin({expr.tau})"
    if isinstance(expr, StairExpr):
        return "stair(" + ", ".join(map(str, expr.jumps)) + ")"
    if isinstance(expr, FileExpr):
        return f"file({expr.path})"
    raise TypeError(f"not a knot expression: {expr!r}")


class ValidationFailure(Exception):
    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


def build_complex(expr: KnotExpr) -> complexes.KnotComplex:
    """Evaluate an expression to a complex (sum = tensor, '-' = mirror)."""
    if isinstance(expr, SumExpr):
        return complexes.tensor(build_complex(expr.left), build_complex(expr.right))
    if isinstance(expr, MirrorExpr):
        return complexes.mirror(build_complex(expr.inner))
    if isinstance(expr, TorusExpr):
        return zoo.torus_knot(expr.p, expr.q)
    if isinstance(expr, PretzelExpr):
        return zoo.pretzel(expr.q)
    if isinstance(expr, AlgebraicExpr):
        semigroup = zoo.semigroup_from_puiseux(zoo.PuiseuxData(expr.a, expr.qs))
        return zoo.staircase_from_jumps(zoo.jumps_from_semigroup(semigroup))
    if isinstance(expr, ThinExpr):
        return zoo.thin_model(expr.tau)
    if isinstance(expr, StairExpr):
        return zoo.staircase_from_jumps(expr.jumps)
    if isinstance(expr, FileExpr):
        try:
            k = complexes.load_complex(expr.path)
        except OSError as exc:
            raise CliUsageError(f"cannot read complex file: {exc}") from None
        report = complexes.validate_complex(k)
        if not report.ok:
            raise ValidationFailure(report.problems)
        return k
    raise TypeError(f"not a knot expression: {expr!r}")


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _rat_json(x: Fraction) -> dict:
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator}


def _pl_json(f: regions.PLFunction) -> dict:
    return {
        "breakpoints": [[rational_to_text(t), rational_to_text(v)] for t, v in f.points]
    }


def _value_json(value):
    if isinstance(value, NoObstructionType):
        return "no-obstruction"
    if isinstance(value, regions.PLFunction):
        return _pl_json(value)
    if isinstance(value, (Fraction, int)):
        return _rat_json(value)
    return value  # already-structured report payloads


def _value_text(value) -> str:
    if isinstance(value, NoObstructionType):
        return "no obstruction"
    if isinstance(value, regions.PLFunction):
        return "  ".join(f"({rational_to_text(t)}, {rational_to_text(v)})" for t, v in value.points)
    if isinstance(value, (Fraction, int)):
        return rational_to_text(Fraction(value))
    return str(value)


class CliUsageError(Exception):
    pass


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
    elif args.format == "csv":
        raise CliUsageError(f"command {command!r} has no CSV output")
    else:
        for line in extra_text or []:
            print(line)
        print(_value_text(value))
    return 0


def _rational_flag(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed rational {text!r}") from None


def _get_complex(args) -> tuple[complexes.KnotComplex, str]:
    if getattr(args, "complex_file", None):
        expr: KnotExpr = FileExpr(args.complex_file)
    elif getattr(args, "expr", None):
        expr = parse_knot_expr(args.expr)
    else:
        raise CliUsageError("provide a knot expression or --complex-file")
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
        for i in range(args.samples + 1):
            t = Fraction(2 * i, args.samples)
            print(f"{float(t):.12f},{float(regions.pl_eval(f, t)):.12f}")
        return 0
    return _emit(args, "upsilon", f, ["upsilon_function", "upsilon_region"], knot=name)


def _cmd_upsilon_at(args):
    k, name = _get_complex(args)
    value = invariants.upsilon_at(k, args.t)
    prov = ["upsilon_region"]
    if args.check_oracle:
        oracle = -2 * invariants.brute_force_upsilon(k, upsilon_halfplane(args.t))
        if oracle != value:
            raise AssertionError(f"engine {value} != brute-force oracle {oracle}")
        prov.append("brute_force_upsilon")
    return _emit(args, "upsilon-at", value, prov, knot=name)


def _cmd_region_upsilon(args):
    k, name = _get_complex(args)
    r = regions.parse_region(args.region)
    value = invariants.upsilon_region(k, r)
    prov = ["upsilon_region"]
    if args.check_oracle:
        oracle = invariants.brute_force_upsilon(k, r)
        if oracle != value:
            raise AssertionError(f"engine {value} != brute-force oracle {oracle}")
        prov.append("brute_force_upsilon")
    return _emit(args, "region-upsilon", value, prov, knot=name, region=args.region)


def _cmd_vk(args):
    k, name = _get_complex(args)
    value = invariants.vk(k, args.s)
    return _emit(
        args, "vk", value, ["vk", "upsilon_region"], knot=name,
        extra_text=[f"V({args.s}), -2-scaled convention (V(0) of the positive trefoil is -2):"],
    )


def _cmd_nu_plus(args):
    k, name = _get_complex(args)
    return _emit(args, "nu-plus", invariants.nu_plus(k), ["nu_plus", "vk"], knot=name)


def _cmd_dinv(args):
    k, name = _get_complex(args)
    value = invariants.d_invariant(k, args.q, args.m)
    return _emit(args, "dinv", value, ["d_invariant", "vk"], knot=name)


def _cmd_eta(args):
    k, name = _get_complex(args)
    r = regions.parse_region(args.region)
    value = invariants.eta(k, r)
    return _emit(args, "eta", value, ["eta", "upsilon_region"], knot=name, region=args.region)


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
    prov = ["kim_livingston", "secondary", "upsilon_region"]
    if args.check_oracle:
        oracle = invariants.kim_livingston_oracle(k, args.t, args.s)
        if value != oracle:
            raise AssertionError(f"engine {value!r} != brute-force oracle {oracle!r}")
        prov += ["kim_livingston_oracle", "brute_force_secondary"]
    return _emit(args, "kl", value, prov, knot=name)


def _cmd_secondary(args):
    k, name = _get_complex(args)
    cplus = regions.parse_region(args.cplus)
    cminus = regions.parse_region(args.cminus)
    c = regions.parse_region(args.region)
    value = invariants.secondary(k, cplus, cminus, c)
    prov = ["secondary", "upsilon_region"]
    if args.check_oracle:
        oracle = invariants.brute_force_secondary(k, cplus, cminus, c)
        if value != oracle:
            raise AssertionError(f"engine {value!r} != brute-force oracle {oracle!r}")
        prov.append("brute_force_secondary")
    return _emit(args, "secondary", value, prov, knot=name, region=args.region)


def _cmd_validate(args):
    if getattr(args, "complex_file", None):
        try:
            k = complexes.load_complex(args.complex_file)
        except OSError as exc:
            raise CliUsageError(f"cannot read complex file: {exc}") from None
        name = f"file({args.complex_file})"
    else:
        if not args.expr:
            raise CliUsageError("provide a knot expression or --complex-file")
        k = build_complex(parse_knot_expr(args.expr))
        name = args.expr
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


def _fold_tensor(parts: list[complexes.KnotComplex]) -> complexes.KnotComplex:
    if not parts:
        return zoo.unknot()
    out = parts[0]
    for part in parts[1:]:
        out = complexes.tensor(out, part)
    return out


def _flatten_sum(expr: KnotExpr, sign: int, acc: list[tuple[KnotExpr, int]]):
    if isinstance(expr, SumExpr):
        _flatten_sum(expr.left, sign, acc)
        _flatten_sum(expr.right, sign, acc)
    elif isinstance(expr, MirrorExpr):
        _flatten_sum(expr.inner, -sign, acc)
    else:
        acc.append((expr, sign))


def _cmd_thin_check(args):
    """Test whether the expression could be concordant to a thin knot.

    Writes K = A # -B with A, B sums of the positive/negated summands.  If K
    were concordant to a thin knot J, then (1) the upsilon function of K must
    be -tau (1 - |1 - t|), and (2) at every breaking point the secondary
    invariant of A must match that of B # J; away from t = 1 the thin J is
    smooth so the B # J value equals B's, and at t = 1 it equals J's closed
    form provided B is smooth there.  Any computed mismatch obstructs.
    """
    expr = parse_knot_expr(args.expr)
    name = knot_expr_to_text(expr)
    terms: list[tuple[KnotExpr, int]] = []
    _flatten_sum(expr, 1, terms)
    a_side = _fold_tensor([build_complex(e) for e, sign in terms if sign > 0])
    b_side = _fold_tensor([build_complex(e) for e, sign in terms if sign < 0])
    f_a = invariants.upsilon_function(a_side)
    f_b = invariants.upsilon_function(b_side)
    f_k = regions.pl_add(f_a, regions.pl_negate_scale(f_b, -1))

    tau = -regions.pl_eval(f_k, 1)
    shape_ok = tau.denominator == 1
    if shape_ok:
        expected = (
            regions.PLFunction(((Fraction(0), Fraction(0)), (Fraction(1), -tau),
                                (Fraction(2), Fraction(0))))
            if tau != 0
            else regions.pl_constant(0)
        )
        shape_ok = f_k == expected
    tau_int = int(tau) if tau.denominator == 1 else None

    comparisons = []
    obstructed = not shape_ok
    if shape_ok:
        sing_a = {t for t, _ in regions.pl_singular_points(f_a)}
        sing_b = {t for t, _ in regions.pl_singular_points(f_b)}
        br_a = {bp.t for bp in invariants.breaking_points(a_side)}
        br_b = {bp.t for bp in invariants.breaking_points(b_side)}
        cands = sorted(br_a | br_b | ({Fraction(1)} if tau_int != 0 else set()))
        for t_star in cands:
            entry = {"t": rational_to_text(t_star)}
            if t_star != 1:
                if t_star in br_a and t_star in br_b:
                    lhs = invariants.kim_livingston(a_side, t_star, t_star)
                    rhs = invariants.kim_livingston(b_side, t_star, t_star)
                    equal = lhs == rhs
                    entry.update(lhs=_value_text(lhs), rhs=_value_text(rhs), equal=equal,
                                 note="summand-side comparison (thin part smooth here)")
                    if not equal:
                        obstructed = True
                elif (t_star in sing_a) != (t_star in sing_b):
                    entry.update(equal=False,
                                 note="singular on one side only away from t=1")
                    obstructed = True
                else:
                    entry.update(equal=None,
                                 note="skipped: kink without positive jump on both sides")
            else:
                if t_star in sing_b:
                    entry.update(equal=None,
                                 note="skipped: negated side also singular at t=1; "
                                      "smoothness hypothesis fails")
                else:
                    rhs = zoo.thin_kl_closed(tau_int, 1)
                    try:
                        lhs = invariants.kim_livingston(a_side, Fraction(1), Fraction(1))
                        equal = lhs == rhs
                        entry.update(lhs=_value_text(lhs), rhs=_value_text(rhs), equal=equal,
                                     note="compared against the thin closed form at t=1")
                    except NotABreakingPoint:
                        equal = rhs == NO_OBSTRUCTION
                        entry.update(lhs="undefined (not a breaking point)",
                                     rhs=_value_text(rhs), equal=equal,
                                     note="t=1 is not a breaking point of the summand side")
                    if not equal:
                        obstructed = True
            comparisons.append(entry)

    value = {
        "verdict": "obstructed" if obstructed else "not obstructed (by these invariants)",
        "tau": rational_to_text(tau),
        "upsilon_shape_matches_thin": shape_ok,
        "comparisons": comparisons,
    }
    prov = ["upsilon_function", "breaking_points", "kim_livingston", "thin_kl_closed"]
    if args.format == "json":
        return _emit(args, "thin-check", value, prov, knot=name)
    print(f"upsilon shape matches a thin knot: {shape_ok} (tau = {rational_to_text(tau)})")
    for c in comparisons:
        lhs = c.get("lhs", "-")
        rhs = c.get("rhs", "-")
        print(f"t = {c['t']}: lhs {lhs} vs rhs {rhs} -> {c.get('equal')} [{c['note']}]")
    print(f"verdict: {value['verdict']}")
    return 0


def _cmd_pretzel_report(args):
    """tau, genus, singularities, eta, and the decomposition constraint table
    for P(-2,3,q): which algebraic summands a concordance could use."""
    q = args.q
    k = zoo.pretzel(q)
    name = f"P(-2,3,{q})"
    f = invariants.upsilon_function(k)
    genus = max(g.alexander for g in k.generators)
    (t0, v0), (t1, v1) = f.points[0], f.points[1]
    tau_engine = -(v1 - v0) / (t1 - t0)
    if tau_engine != Fraction(q + 3, 2) or genus != (q + 3) // 2:
        raise AssertionError("pretzel tau/genus mismatch with the closed form")
    singular = [rational_to_text(t) for t, _ in regions.pl_singular_points(f)]
    region = upsilon_halfplane(Fraction(2, 3))
    eta_engine = invariants.eta(k, region)
    eta_closed = Fraction(q - 3, 3)
    if eta_engine != eta_closed:
        raise AssertionError("pretzel eta mismatch with the closed form")

    # Budget: for a connected sum of algebraic knots with exponents a in {2,3},
    # eta over H(2/3) contributes (2/3) tau_i per summand minus 2 n(S_i) for
    # each exponent-3 summand, while tau is additive.  The deficit
    # (2/3) tau - eta therefore equals 2 * sum of n(S) over exponent-3 summands.
    deficit = Fraction(2, 3) * tau_engine - eta_engine
    n_sum = deficit / 2
    n_table = {}
    for p in range(4, 21):
        if p % 3 == 0:
            continue
        n_table[f"(3,{p})"] = zoo.n_of_semigroup(zoo.semigroup_from_generators((3, p)), 3)
    candidates = [label for label, n in n_table.items() if n == n_sum]

    value = {
        "tau": rational_to_text(tau_engine),
        "genus": genus,
        "upsilon_singularities": singular,
        "eta_H_2_3": {"engine": rational_to_text(eta_engine),
                      "closed_form": rational_to_text(eta_closed)},
        "decomposition_constraints": {
            "required_n_sum_over_exponent_3_summands": rational_to_text(n_sum),
            "n_of_semigroup_3_p": n_table,
            "forced_exponent_3_summand_one_of": candidates,
            "note": (
                "exponent-2 summands contribute (2/3)tau each and no n(S) deficit; "
                "the remaining step distinguishing the candidates (a signature "
                "comparison) is out of scope for this tool"
            ),
        },
    }
    prov = ["pretzel", "upsilon_function", "eta", "eta_closed_form", "n_of_semigroup"]
    if args.format == "json":
        return _emit(args, "pretzel-report", value, prov, knot=name)
    print(f"{name}: tau = {value['tau']}, genus = {genus}")
    print(f"upsilon singularities: {', '.join(singular)}")
    print(f"eta over H(2/3): engine {value['eta_H_2_3']['engine']}, "
          f"closed form {value['eta_H_2_3']['closed_form']}")
    print(f"required n(S) sum over exponent-3 summands: {rational_to_text(n_sum)}")
    print(f"forced exponent-3 summand: one of {', '.join(candidates)}")
    print(value["decomposition_constraints"]["note"])
    return 0


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def _add_common(sub, *, knot=True, formats=("text", "json")):
    if knot:
        sub.add_argument("expr", nargs="?", help="knot expression")
        sub.add_argument("--complex-file", help="load the complex from JSON instead")
    sub.add_argument("--format", choices=formats, default="text")


def _build_parser() -> _Parser:
    parser = _Parser(prog="upsilonkit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("upsilon", help="the full upsilon function")
    _add_common(sub, formats=("text", "json", "csv"))
    sub.add_argument("--samples", type=int, default=64,
                     help="sample count for CSV output (default 64)")
    sub.set_defaults(func=_cmd_upsilon)

    sub = subs.add_parser("upsilon-at", help="upsilon at one parameter")
    _add_common(sub)
    sub.add_argument("--t", type=_rational_flag, required=True)
    sub.add_argument("--check-oracle", action="store_true",
                     help="cross-check against the brute-force oracle")
    sub.set_defaults(func=_cmd_upsilon_at)

    sub = subs.add_parser("region-upsilon", help="region invariant (unscaled)")
    _add_common(sub)
    sub.add_argument("--region", required=True)
    sub.add_argument("--check-oracle", action="store_true")
    sub.set_defaults(func=_cmd_region_upsilon)

    sub = subs.add_parser("vk", help="V(s), -2-scaled convention")
    _add_common(sub)
    sub.add_argument("--s", type=int, required=True)
    sub.set_defaults(func=_cmd_vk)

    sub = subs.add_parser("nu-plus", help="least s with V(s) = 0")
    _add_common(sub)
    sub.set_defaults(func=_cmd_nu_plus)

    sub = subs.add_parser("dinv", help="surgery correction term")
    _add_common(sub)
    sub.add_argument("--q", type=int, required=True, help="surgery coefficient")
    sub.add_argument("--m", type=int, required=True, help="spin-c index")
    sub.set_defaults(func=_cmd_dinv)

    sub = subs.add_parser("eta", help="Alexander-truncation invariant")
    _add_common(sub)
    sub.add_argument("--region", required=True)
    sub.set_defaults(func=_cmd_eta)

    sub = subs.add_parser("breaking-points", help="kinks with positive jump")
    _add_common(sub)
    sub.set_defaults(func=_cmd_breaking_points)

    sub = subs.add_parser("kl", help="secondary invariant at a breaking point")
    _add_common(sub)
    sub.add_argument("--t", type=_rational_flag, required=True, help="breaking point")
    sub.add_argument("--s", type=_rational_flag, required=True, help="evaluation parameter")
    sub.add_argument("--check-oracle", action="store_true")
    sub.set_defaults(func=_cmd_kl)

    sub = subs.add_parser("secondary", help="raw secondary invariant for three regions")
    _add_common(sub)
    sub.add_argument("--cplus", required=True)
    sub.add_argument("--cminus", required=True)
    sub.add_argument("--region", required=True)
    sub.add_argument("--check-oracle", action="store_true")
    sub.set_defaults(func=_cmd_secondary)

    sub = subs.add_parser("validate", help="check the knot-type conditions")
    _add_common(sub)
    sub.set_defaults(func=_cmd_validate)

    sub = subs.add_parser("thin-check", help="obstruct concordance to a thin knot")
    sub.add_argument("expr", help="knot expression")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.set_defaults(func=_cmd_thin_check)

    sub = subs.add_parser("pretzel-report", help="decomposition constraints for P(-2,3,q)")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.set_defaults(func=_cmd_pretzel_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args) or 0
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
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
