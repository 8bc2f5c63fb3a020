"""The report pipelines of the command-line tool, and the thin-knot closed
forms they compare against.

`thin_check` asks whether a sum could be concordant to a thin knot, and
`pretzel_report` what the eta budget forces on a concordance of P(-2,3,q)
to a sum of algebraic knots.  Each returns plain data, the `value` of the
command-line tool's JSON output.  `thin_three_param` and `thin_kl_closed`
are the closed forms of a thin knot's region and secondary invariants.
Only the `thin-check` and `pretzel-report` commands load this module.
`pretzel_report` reads `zoo.pretzel` and `zoo.n_of_semigroup` when it runs,
so `thin-check` loads neither `alexander` nor `closedforms`.
"""

from __future__ import annotations

from fractions import Fraction

from . import zoo
from .complexes import KnotComplex, tensor
from .exact import rational_to_text
from .invariants import (NO_OBSTRUCTION, NotABreakingPoint, SecondaryValue, breaking_points, eta,
                         kim_livingston, upsilon_function)
from .regions import (PLFunction, _int, _rat, pl_add, pl_eval, pl_negate_scale,
                      pl_singular_points, upsilon_halfplane)
from .zoo import _TAU, semigroup_from_generators

# ---------------------------------------------------------------------------
# Thin-knot closed forms
# ---------------------------------------------------------------------------


def thin_three_param(tau: int, t, s, q) -> Fraction:
    """Region invariant of a thin complex over H_t ∪ {(s/2)A + (1-s/2)j <= q},
    for t, s in [0, 1]: min((t/2) tau, (s/2) tau - q).

    Both corner-value sequences of the thin staircase are monotone in the
    corner index for either sign of tau, so the extremum sits at corner 0 and
    the two half-plane entering times min there.
    """
    tau, t, s, q = _int(tau, _TAU), _rat(t), _rat(s), _rat(q)
    if not (0 <= t <= 1 and 0 <= s <= 1):
        raise ValueError("closed form requires t, s in [0, 1]")
    return min(t * tau / 2, s * tau / 2 - q)


def thin_kl_closed(tau: int, s) -> SecondaryValue:
    """Secondary invariant of a thin knot at its breaking point t = 1:
    (1 - tau) |1 - s| - 1 for tau > 0; NoObstruction otherwise."""
    tau, s = _int(tau, _TAU), _rat(s)
    if not 0 <= s <= 2:
        raise ValueError(f"s must lie in [0, 2], got {s}")
    if tau <= 0:
        return NO_OBSTRUCTION
    return (1 - tau) * abs(1 - s) - 1


# ---------------------------------------------------------------------------
# Report pipelines
# ---------------------------------------------------------------------------


def thin_check(positive: list[KnotComplex], negative: list[KnotComplex]) -> dict:
    """Could K = A # -B be concordant to a thin knot?  `positive` and
    `negative` are the summand complexes of A and of B.

    If K were concordant to a thin knot J, then (1) the upsilon function of K
    must be -tau (1 - |1 - t|), and (2) at every breaking point the secondary
    invariant of A must match that of B # J; away from t = 1 the thin J is
    smooth so the B # J value equals B's, and at t = 1 it equals J's closed
    form provided B is smooth there.  Any computed mismatch obstructs.

    Returns the verdict, tau, whether the shape matches and one comparison per
    candidate t (values as text; `equal` is None when the test is skipped).
    """
    a_side, b_side = tensor(*positive), tensor(*negative)
    f_a = upsilon_function(a_side)
    f_b = upsilon_function(b_side)
    f_k = pl_add(f_a, pl_negate_scale(f_b, -1))
    tau = -pl_eval(f_k, 1)
    shape_ok = tau.denominator == 1 and f_k == PLFunction(((0, 0), (1, -tau), (2, 0)))

    comparisons = []
    if shape_ok:
        br_a = {bp.t for bp in breaking_points(a_side)}
        br_b = {bp.t for bp in breaking_points(b_side)}
        # f_A - f_B kinks only at t = 1, so elsewhere the sides have the same
        # jumps and hence the same breaking points.
        if (br_a ^ br_b) - {1}:
            raise AssertionError(
                "thin-check: the two sides should have the same breaking points away from t=1"
            )
        sing_b = {t for t, _ in pl_singular_points(f_b)}
        for t_star in sorted(br_a | br_b | ({Fraction(1)} if tau else set())):
            entry = {"t": rational_to_text(t_star)}
            if t_star != 1:
                lhs = kim_livingston(a_side, t_star, t_star)
                rhs = kim_livingston(b_side, t_star, t_star)
                entry.update(lhs=str(lhs), rhs=str(rhs), equal=lhs == rhs,
                             note="summand-side comparison (thin part smooth here)")
            elif t_star in sing_b:
                entry.update(equal=None,
                             note="skipped: negated side also singular at t=1; "
                                  "smoothness hypothesis fails")
            else:
                rhs = thin_kl_closed(int(tau), 1)
                try:
                    lhs = kim_livingston(a_side, Fraction(1), Fraction(1))
                    entry.update(lhs=str(lhs), rhs=str(rhs), equal=lhs == rhs,
                                 note="compared against the thin closed form at t=1")
                except NotABreakingPoint:
                    entry.update(lhs="undefined (not a breaking point)", rhs=str(rhs),
                                 equal=rhs == NO_OBSTRUCTION,
                                 note="t=1 is not a breaking point of the summand side")
            comparisons.append(entry)

    obstructed = not shape_ok or any(c["equal"] is False for c in comparisons)
    return {
        "verdict": "obstructed" if obstructed else "not obstructed (by these invariants)",
        "tau": rational_to_text(tau),
        "upsilon_shape_matches_thin": shape_ok,
        "comparisons": comparisons,
    }


def pretzel_report(q: int) -> dict:
    """tau, genus, upsilon singularities, eta over H(2/3) and the decomposition
    constraint table for P(-2,3,q): which algebraic summands a concordance to
    a sum of algebraic knots could use.  tau, genus and eta are asserted
    against their closed forms."""
    k = zoo.pretzel(q)
    f = upsilon_function(k)
    genus = max(g.alexander for g in k.generators)
    (t0, v0), (t1, v1) = f.points[0], f.points[1]
    tau = -(v1 - v0) / (t1 - t0)
    if tau != Fraction(q + 3, 2) or genus != (q + 3) // 2:
        raise AssertionError("pretzel tau/genus mismatch with the closed form")
    singular = [rational_to_text(t) for t, _ in pl_singular_points(f)]
    eta_engine = eta(k, upsilon_halfplane(Fraction(2, 3)))
    eta_closed = Fraction(q - 3, 3)
    if eta_engine != eta_closed:
        raise AssertionError("pretzel eta mismatch with the closed form")

    # Budget: for a connected sum of algebraic knots with exponents a in {2,3},
    # eta over H(2/3) contributes (2/3) tau_i per summand minus 2 n(S_i) for
    # each exponent-3 summand, while tau is additive.  The deficit
    # (2/3) tau - eta therefore equals 2 * sum of n(S) over exponent-3 summands.
    n_sum = (Fraction(2, 3) * tau - eta_engine) / 2
    n_table = {f"(3,{p})": zoo.n_of_semigroup(semigroup_from_generators((3, p)), 3)
               for p in range(4, 21) if p % 3}
    return {
        "tau": rational_to_text(tau),
        "genus": genus,
        "upsilon_singularities": singular,
        "eta_H_2_3": {"engine": rational_to_text(eta_engine),
                      "closed_form": rational_to_text(eta_closed)},
        "decomposition_constraints": {
            "required_n_sum_over_exponent_3_summands": rational_to_text(n_sum),
            "n_of_semigroup_3_p": n_table,
            "forced_exponent_3_summand_one_of": [
                label for label, n in n_table.items() if n == n_sum],
            "note": (
                "exponent-2 summands contribute (2/3)tau each and no n(S) deficit; "
                "the remaining step distinguishing the candidates (a signature "
                "comparison) is out of scope for this tool"
            ),
        },
    }
