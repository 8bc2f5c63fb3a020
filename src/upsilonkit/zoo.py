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

The report pipelines and the thin-knot closed forms they compare against
are in `reports`, which only the two report commands load.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, reduce

from .complexes import MAX_ATOM_SIZE, BaseGenerator, KnotComplex, mirror, validate_complex
from .exact import _set, _Value
from .invariants import check_jumps, staircase_corners, staircase_upsilon
from .regions import PLFunction, _int, pl_add, pl_constant, pl_negate_scale


# ---------------------------------------------------------------------------
# Numerical semigroups
# ---------------------------------------------------------------------------


class Semigroup(_Value):
    """The additive closure of a finite generating set with gcd 1."""

    _fields = ("generators",)

    def __init__(self, generators: tuple[int, ...]):
        _set(self, "generators", generators)
        self.__post_init__()

    def __post_init__(self):
        gens = tuple(sorted(set(self.generators)))
        if not gens or any(isinstance(g, bool) or not isinstance(g, int) or g < 1 for g in gens):
            raise ValueError("semigroup generators must be positive integers")
        if reduce(math.gcd, gens) != 1:
            raise ValueError(f"semigroup generators must have gcd 1: {gens}")
        _set(self, "generators", gens)

    @cached_property
    def _table(self) -> list[bool]:
        # Membership table to min*max + 1, past every Frobenius bound (Schur).
        bound = self.generators[0] * self.generators[-1] + 1
        if bound > MAX_ATOM_SIZE:
            raise ValueError(f"the semigroup {self.generators} needs a membership table of "
                             f"{bound} entries, over the limit of {MAX_ATOM_SIZE}")
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


class PuiseuxData(_Value):
    """Characteristic sequence (a; q_1 < ... < q_n) of a cuspidal singularity.

    The gcd chain D_0 = a, D_i = gcd(D_{i-1}, q_i) must strictly decrease to 1
    (equivalently: D_i never divides q_{i+1}, and the overall gcd is 1).
    """

    _fields = ("a", "qs")

    def __init__(self, a: int, qs: tuple[int, ...]):
        _set(self, "a", a)
        _set(self, "qs", qs)
        self.__post_init__()

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
        _set(self, "qs", qs)

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


class AlexanderPolynomial(_Value):
    """A symmetric Laurent polynomial in u = t^(1/2) (integer exponents in u,
    so half-integer powers of t are representable mid-computation)."""

    _fields = ("terms",)

    def __init__(self, terms: tuple[tuple[int, int], ...]):
        _set(self, "terms", terms)  # (u-exponent, coefficient), sorted

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


_TAU = "tau must be an integer"  # the one check of thin_model and the closed forms of `reports`


def thin_model(tau: int) -> KnotComplex:
    """The thin-knot model: the unit staircase of tau (mirrored when tau < 0),
    acyclic square summands omitted — no invariant here can see them."""
    if (size := 2 * abs(_int(tau, _TAU)) + 1) > MAX_ATOM_SIZE:
        raise ValueError(f"thin({tau}) has {size} generators, over the limit of {MAX_ATOM_SIZE}")
    if tau < 0:
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


def check_pretzel_parameter(q: int) -> None:
    """Raise ValueError unless q names a pretzel knot P(-2, 3, q): odd, >= 7."""
    if not isinstance(q, int) or q < 7 or q % 2 == 0:
        raise ValueError(f"pretzel parameter must be an odd integer >= 7, got {q}")


def alexander_pretzel(q: int) -> AlexanderPolynomial:
    """Alexander polynomial of P(-2, 3, q) by the skein relation:
    (t - 1 + t^-1) * Delta_{2,q} + (t^(1/2) - t^(-1/2)) * Delta_{2,q+3}."""
    check_pretzel_parameter(q)
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
    check_pretzel_parameter(q)
    if q + 2 > MAX_ATOM_SIZE:
        raise ValueError(f"P(-2,3,{q}) has {q + 2} generators, over the limit of {MAX_ATOM_SIZE}")
    jumps = jumps_from_alexander(alexander_pretzel(q))
    expected = (1, 2) + (1,) * (q - 3) + (2, 1)
    if jumps != expected:
        raise AssertionError(f"pretzel jump sequence {jumps} != expected {expected}")
    kc = staircase_from_jumps(jumps)
    if kc.generators[0].alexander != (q + 3) // 2:
        raise AssertionError("pretzel genus mismatch")
    return kc


# ---------------------------------------------------------------------------
# Recursion oracle and the eta closed form
# ---------------------------------------------------------------------------


def fk_upsilon(p: int, q: int) -> PLFunction:
    """Upsilon of the (p, q) torus knot by the recursion
    Upsilon(p,q) = Upsilon(p-q,q) + Upsilon(q+1,q), independent of the engine.

    Base cases: Upsilon(1,n) = 0; Upsilon(q+1,q) from the staircase min-max
    formula.  Symmetric in p and q.  The rule holds at p = q + 1 too, so the
    p // q subtractions of q add p // q copies of Upsilon(q+1,q) and leave
    Upsilon(q, p % q): the recursion runs as Euclid's loop, at any depth.
    """
    if any(isinstance(x, bool) or not isinstance(x, int) for x in (p, q)) or p < 1 or q < 1:
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
