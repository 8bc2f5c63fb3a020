"""Builders for the knot families the invariants are tested on.

Positive torus and algebraic knots are L-space knots: their complexes are
*staircases*, determined by a numerical semigroup (the semigroup of a plane
curve singularity for algebraic knots, ⟨p,q⟩ for torus knots).  The staircase
jump sequence can be read off two independent ways — run lengths of the
member/gap coloring of {0,...,2g-1}, or exponent gaps of the Alexander
polynomial — and this module implements both so they can be checked against
each other.  Thin knots are modeled by the unit staircase of their tau (up to
acyclic summands, which no invariant here sees).  The pretzel P(-2,3,q) family
is built from its Alexander polynomial via a skein-relation computation in the
half-integer variable u = t^(1/2).

`fk_upsilon` implements the torus-knot recursion
Upsilon(p,q) = Upsilon(p-q,q) + Upsilon(q+1,q) as an oracle wholly independent
of the homology engine.

The two report pipelines close the module: `thin_check` (could a sum be
concordant to a thin knot?) and `pretzel_report` (what the eta budget forces on
a concordance of P(-2,3,q) to a sum of algebraic knots).  Each returns plain
data, the `value` of the command-line tool's JSON output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

from .complexes import BaseGenerator, KnotComplex, mirror, tensor, validate_complex
from .exact import rational_to_text
from .invariants import (
    NO_OBSTRUCTION,
    NotABreakingPoint,
    SecondaryValue,
    breaking_points,
    check_jumps,
    eta,
    kim_livingston,
    staircase_corners,
    staircase_upsilon,
    upsilon_function,
)
from .regions import (
    PLFunction,
    _int,
    _rat,
    pl_add,
    pl_constant,
    pl_eval,
    pl_negate_scale,
    pl_singular_points,
    upsilon_halfplane,
)


# ---------------------------------------------------------------------------
# Numerical semigroups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Semigroup:
    """The additive closure of a finite generating set with gcd 1."""

    generators: tuple[int, ...]

    def __post_init__(self):
        gens = tuple(sorted(set(self.generators)))
        if not gens or any(not isinstance(g, int) or g < 1 for g in gens):
            raise ValueError("semigroup generators must be positive integers")
        if reduce(math.gcd, gens) != 1:
            raise ValueError(f"semigroup generators must have gcd 1: {gens}")
        object.__setattr__(self, "generators", gens)

    @cached_property
    def _table(self) -> list[bool]:
        # Membership table to min*max + 1, past every Frobenius bound (Schur).
        bound = self.generators[0] * self.generators[-1] + 1
        table = [False] * bound
        table[0] = True
        for n in range(1, bound):
            table[n] = any(n >= g and table[n - g] for g in self.generators)
        return table

    @cached_property
    def frobenius(self) -> int:
        """The largest non-member (-1 when there are no gaps)."""
        for n in range(len(self._table) - 1, -1, -1):
            if not self._table[n]:
                return n
        return -1

    @cached_property
    def gaps(self) -> tuple[int, ...]:
        return tuple(n for n in range(self.frobenius + 1) if not self._table[n])

    @property
    def genus(self) -> int:
        return len(self.gaps)

    def contains(self, n: int) -> bool:
        if n < 0:
            return False
        if n > self.frobenius:
            return True
        return self._table[n]


def semigroup_from_generators(gens) -> Semigroup:
    return Semigroup(tuple(gens))


@dataclass(frozen=True)
class PuiseuxData:
    """Characteristic sequence (a; q_1 < ... < q_n) of a cuspidal singularity.

    The gcd chain D_0 = a, D_i = gcd(D_{i-1}, q_i) must strictly decrease to 1
    (equivalently: D_i never divides q_{i+1}, and the overall gcd is 1).
    """

    a: int
    qs: tuple[int, ...]

    def __post_init__(self):
        qs = tuple(self.qs)
        if not isinstance(self.a, int) or self.a < 2:
            raise ValueError("Puiseux exponent a must be an integer >= 2")
        if not qs or any(not isinstance(q, int) or q <= self.a for q in qs):
            raise ValueError("characteristic exponents must be integers > a")
        if any(q1 >= q2 for q1, q2 in zip(qs, qs[1:])):
            raise ValueError("characteristic exponents must be strictly increasing")
        ds = self.d_chain
        for i, q in enumerate(qs[1:], start=1):
            if q % ds[i] == 0:
                raise ValueError(
                    f"gcd(a, q_1..q_{i}) = {ds[i]} divides q_{i + 1} = {q}; "
                    "not a characteristic sequence"
                )
        if ds[-1] != 1:
            raise ValueError(f"gcd(a, q_1, ..., q_n) = {ds[-1]} != 1")
        object.__setattr__(self, "qs", qs)

    @cached_property
    def d_chain(self) -> tuple[int, ...]:
        """D_0 = a, D_i = gcd(a, q_1, ..., q_i)."""
        ds = [self.a]
        for q in self.qs:
            ds.append(math.gcd(ds[-1], q))
        return tuple(ds)

    @cached_property
    def s_values(self) -> tuple[int, ...]:
        """Semigroup generators beyond a:  s_1 = q_1,
        s_i = (a q_1 + sum_{l<i} D_l (q_{l+1} - q_l)) / D_{i-1}."""
        ds = self.d_chain
        out = [self.qs[0]]
        for i in range(2, len(self.qs) + 1):
            num = self.a * self.qs[0]
            for l in range(1, i):
                num += ds[l] * (self.qs[l] - self.qs[l - 1])
            den = ds[i - 1]
            if num % den:
                raise AssertionError(f"s_{i} = {num}/{den} is not an integer")
            out.append(num // den)
        return tuple(out)

    @property
    def cable_description(self) -> str:
        stages = ", ".join(
            f"stage {i}: winding s_{i} = {s}, gcd level D_{i} = {d}"
            for i, (s, d) in enumerate(zip(self.s_values, self.d_chain[1:]), start=1)
        )
        return (
            f"iterated cable from characteristic sequence ({self.a}; "
            + ", ".join(map(str, self.qs))
            + f"); {stages}"
        )


def semigroup_from_puiseux(p: PuiseuxData) -> Semigroup:
    """The singularity semigroup ⟨a, s_1, ..., s_n⟩ of a characteristic sequence."""
    return semigroup_from_generators((p.a, *p.s_values))


# ---------------------------------------------------------------------------
# Alexander polynomials (in the internal variable u = t^(1/2))
# ---------------------------------------------------------------------------


def _mul_u(d1: dict[int, int], d2: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in d1.items():
        for e2, c2 in d2.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def _add_u(d1: dict[int, int], d2: dict[int, int]) -> dict[int, int]:
    out = dict(d1)
    for e, c in d2.items():
        out[e] = out.get(e, 0) + c
    return out


@dataclass(frozen=True)
class AlexanderPolynomial:
    """A symmetric Laurent polynomial in u = t^(1/2) (integer exponents in u,
    so half-integer powers of t are representable mid-computation)."""

    terms: tuple[tuple[int, int], ...]  # (u-exponent, coefficient), sorted

    @classmethod
    def from_dict(cls, coeffs: dict[int, int]) -> "AlexanderPolynomial":
        return cls(tuple(sorted((e, c) for e, c in coeffs.items() if c)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    def mul(self, other: "AlexanderPolynomial") -> "AlexanderPolynomial":
        return AlexanderPolynomial.from_dict(_mul_u(self.as_dict(), other.as_dict()))

    def add(self, other: "AlexanderPolynomial") -> "AlexanderPolynomial":
        return AlexanderPolynomial.from_dict(_add_u(self.as_dict(), other.as_dict()))

    def evaluate_at_one(self) -> int:
        """The value at t = 1 (u = 1)."""
        return sum(c for _, c in self.terms)

    def is_symmetric(self) -> bool:
        d = self.as_dict()
        return all(d.get(-e) == c for e, c in d.items())

    def normalized_t_terms(self) -> list[tuple[int, int]]:
        """Terms as (t-exponent, coeff) with the lowest exponent shifted to 0.

        Requires all u-exponents to share a parity (a genuine polynomial in t
        after normalization).
        """
        if not self.terms:
            return []
        low = self.terms[0][0]
        if any((e - low) % 2 for e, _ in self.terms):
            raise ValueError("half-integer exponents survive; not a knot polynomial")
        return [((e - low) // 2, c) for e, c in self.terms]

    def to_t_string(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.normalized_t_terms():
            mag = "" if abs(c) == 1 else str(abs(c))
            if e == 0:
                term = str(abs(c))
            elif e == 1:
                term = f"{mag}t"
            else:
                term = f"{mag}t^{e}"
            parts.append(("- " if c < 0 else "+ ") + term)
        body = " ".join(parts)
        return body[2:] if body.startswith("+ ") else "-" + body[2:]


def alexander_from_semigroup(s: Semigroup) -> AlexanderPolynomial:
    """Delta = sum over members e <= Frobenius of (t^e - t^(e+1)), plus the
    telescoped tail t^(Frobenius+1); stored symmetrically in u."""
    coeffs: dict[int, int] = {}
    f = s.frobenius
    for e in range(f + 1):
        if s.contains(e):
            coeffs[e] = coeffs.get(e, 0) + 1
            coeffs[e + 1] = coeffs.get(e + 1, 0) - 1
    coeffs[f + 1] = coeffs.get(f + 1, 0) + 1
    shift = f + 1  # degree of the normalized polynomial; 2*genus when symmetric
    return AlexanderPolynomial.from_dict({2 * e - shift: c for e, c in coeffs.items()})


def jumps_from_alexander(ap: AlexanderPolynomial) -> tuple[int, ...]:
    """Exponent gaps of an L-space-form polynomial 1 - t^{alpha_1} + ... + t^{alpha_2k}.

    Coefficients must alternate +1/-1 starting and ending with +1; the jumps
    are the consecutive exponent differences.
    """
    t_terms = ap.normalized_t_terms()
    if not t_terms or len(t_terms) % 2 == 0:
        raise ValueError("polynomial does not have the alternating L-space form")
    for i, (_, c) in enumerate(t_terms):
        if c != (1 if i % 2 == 0 else -1):
            raise ValueError("coefficients do not alternate +1/-1 from a leading +1")
    exps = [e for e, _ in t_terms]
    return check_jumps(tuple(e2 - e1 for e1, e2 in zip(exps, exps[1:])))


def jumps_from_semigroup(s: Semigroup) -> tuple[int, ...]:
    """Run lengths of the member/gap coloring of {0, ..., 2*genus - 1}.

    Requires the semigroup to be symmetric (gap count below 2g splits evenly);
    equivalently the coloring ends on a gap run.  Non-symmetric semigroups
    have no staircase model and raise.
    """
    g = s.genus
    if g == 0:
        return ()
    colors = [s.contains(n) for n in range(2 * g)]
    runs: list[int] = []
    current = colors[0]
    count = 0
    for c in colors:
        if c == current:
            count += 1
        else:
            runs.append(count)
            current = c
            count = 1
    runs.append(count)
    if colors[-1] or len(runs) % 2:
        raise ValueError(f"semigroup {s.generators} is not symmetric; no staircase model")
    return check_jumps(tuple(runs))


# ---------------------------------------------------------------------------
# Staircase and thin complexes
# ---------------------------------------------------------------------------


def staircase_from_jumps(jumps) -> KnotComplex:
    """The staircase complex: x_i at (n_i, m_i) in grading 0, y_i at
    (n_i, m_{i+1}) in grading 1, with dy_i = x_i + x_{i+1}."""
    corners = staircase_corners(jumps)
    gens = [
        BaseGenerator(f"x{i}", n, m, 0) for i, (n, m) in enumerate(corners)
    ]
    arrows = []
    for i in range(len(corners) - 1):
        n_i = corners[i][0]
        m_next = corners[i + 1][1]
        gens.append(BaseGenerator(f"y{i}", n_i, m_next, 1))
        arrows.append((f"y{i}", f"x{i}", 0))
        arrows.append((f"y{i}", f"x{i + 1}", 0))
    kc = KnotComplex(tuple(gens), tuple(arrows))
    report = validate_complex(kc)
    if not report.ok:
        raise AssertionError(f"staircase failed validation: {report.problems}")
    return kc


def check_torus_parameters(p: int, q: int) -> None:
    """Raise ValueError unless (p, q) names a torus knot: coprime integers >= 2."""
    if not (isinstance(p, int) and isinstance(q, int)) or p < 2 or q < 2:
        raise ValueError(f"torus knot parameters must be integers >= 2, got ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise ValueError(f"torus knot parameters must be coprime, got ({p}, {q})")


def torus_knot(p: int, q: int) -> KnotComplex:
    """The staircase of the positive (p, q) torus knot, from ⟨p, q⟩."""
    check_torus_parameters(p, q)
    s = semigroup_from_generators((p, q))
    kc = staircase_from_jumps(jumps_from_semigroup(s))
    genus = (p - 1) * (q - 1) // 2
    if s.genus != genus or kc.generators[0].alexander != genus:
        raise AssertionError(f"torus knot genus mismatch for ({p}, {q})")
    return kc


_TAU = "tau must be an integer"  # the one check of thin_model, thin_three_param, thin_kl_closed


def thin_model(tau: int) -> KnotComplex:
    """The thin-knot model: the unit staircase of tau (mirrored when tau < 0),
    acyclic square summands omitted — no invariant here can see them."""
    if _int(tau, _TAU) < 0:
        return mirror(thin_model(-tau))
    return staircase_from_jumps((1,) * (2 * tau))


def unknot() -> KnotComplex:
    return thin_model(0)


# ---------------------------------------------------------------------------
# Pretzels P(-2, 3, q)
# ---------------------------------------------------------------------------


def _torus2_u(n: int) -> dict[int, int]:
    """Delta of the (2, n) torus knot or link in u: sum (-1)^i u^(n-1-2i)."""
    return {n - 1 - 2 * i: (1 if i % 2 == 0 else -1) for i in range(n)}


def alexander_pretzel(q: int) -> AlexanderPolynomial:
    """Alexander polynomial of P(-2, 3, q) by the skein relation:
    (t - 1 + t^-1) * Delta_{2,q} + (t^(1/2) - t^(-1/2)) * Delta_{2,q+3}."""
    if not isinstance(q, int) or q < 7 or q % 2 == 0:
        raise ValueError(f"pretzel parameter must be an odd integer >= 7, got {q}")
    first = _mul_u({2: 1, 0: -1, -2: 1}, _torus2_u(q))
    second = _mul_u({1: 1, -1: -1}, _torus2_u(q + 3))
    poly = AlexanderPolynomial.from_dict(_add_u(first, second))
    if poly.evaluate_at_one() != 1:
        raise AssertionError("pretzel polynomial not normalized: Delta(1) != 1")
    if not poly.is_symmetric():
        raise AssertionError("pretzel polynomial not symmetric")
    return poly


def pretzel(q: int) -> KnotComplex:
    """The staircase of P(-2, 3, q), q >= 7 odd.

    The jump sequence is derived from the skein-relation polynomial and
    asserted against the expected pattern (1, 2, 1, ..., 1, 2, 1) with q - 3
    middle ones; genus (q + 3) / 2.
    """
    jumps = jumps_from_alexander(alexander_pretzel(q))
    expected = (1, 2) + (1,) * (q - 3) + (2, 1)
    if jumps != expected:
        raise AssertionError(f"pretzel jump sequence {jumps} != expected {expected}")
    kc = staircase_from_jumps(jumps)
    if kc.generators[0].alexander != (q + 3) // 2:
        raise AssertionError("pretzel genus mismatch")
    return kc


# ---------------------------------------------------------------------------
# Recursion oracle and closed forms
# ---------------------------------------------------------------------------


def fk_upsilon(p: int, q: int) -> PLFunction:
    """Upsilon of the (p, q) torus knot by the recursion
    Upsilon(p,q) = Upsilon(p-q,q) + Upsilon(q+1,q), independent of the engine.

    Base cases: Upsilon(1,n) = 0; Upsilon(q+1,q) from the staircase min-max
    formula.  Symmetric in p and q.  The rule holds at p = q + 1 too, so the
    p // q subtractions of q add p // q copies of Upsilon(q+1,q) and leave
    Upsilon(q, p % q): the recursion runs as Euclid's loop, at any depth.
    """
    if not (isinstance(p, int) and isinstance(q, int)) or p < 1 or q < 1:
        raise ValueError(f"torus parameters must be positive integers, got ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise ValueError(f"torus parameters must be coprime, got ({p}, {q})")
    if p < q:
        p, q = q, p
    curve = pl_constant(0)
    while q > 1:
        step = staircase_upsilon(jumps_from_semigroup(semigroup_from_generators((q + 1, q))))
        curve = pl_add(curve, pl_negate_scale(step, p // q))
        p, q = q, p % q
    return curve


def n_of_semigroup(s: Semigroup, a: int) -> int:
    """The largest n >= 0 such that the members up to n*a are exactly
    {0, a, 2a, ..., na}."""
    if a not in s.generators:
        raise ValueError(f"{a} is not a generator of {s.generators}")
    if a == 1:
        raise ValueError("n(S) is unbounded for a = 1")
    n = 0
    while True:
        # check the window ((n)a, (n+1)a]: must contain exactly the member (n+1)a
        ok = all(
            s.contains(x) == (x == (n + 1) * a)
            for x in range(n * a + 1, (n + 1) * a + 1)
        )
        if not ok:
            return n
        n += 1
        if n * a > s.frobenius + a + 1:
            raise AssertionError("n(S) scan failed to terminate")


def eta_closed_form(s: Semigroup, a: int) -> Fraction:
    """(1 - 1/a) * genus - (a - 1) * n(S), for a the smallest generator.

    The matching region is {(1/a)A + (1 - 1/a)j <= 0}; the engine value is
    authoritative outside the algebraic-knot hypothesis.
    """
    if a != s.generators[0]:
        raise ValueError(f"closed form needs the smallest generator, got {a}")
    return (1 - Fraction(1, a)) * s.genus - (a - 1) * n_of_semigroup(s, a)


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
    k = pretzel(q)
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
    n_table = {f"(3,{p})": n_of_semigroup(semigroup_from_generators((3, p)), 3)
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
