"""Alexander polynomials, and the pretzel knots P(-2,3,q) built from them.

A polynomial is kept in the half-integer variable u = t^(1/2), so that the
skein relation can be run mid-computation.  `alexander_from_semigroup` and
`jumps_from_alexander` read a staircase's jumps off its polynomial, a second
route to `zoo.jumps_from_semigroup` that the tests hold it to.  The family
P(-2,3,q) is built from its skein-relation polynomial and checked against
the expected jump pattern.  Only the `P(-2,3,q)` atom and `pretzel-report`
load this module; `zoo` hands out its names on first use.
"""

from __future__ import annotations

from .complexes import MAX_ATOM_SIZE, KnotComplex
from .exact import _Value
from .invariants import check_jumps
from .zoo import Semigroup, staircase_from_jumps


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
    so half-integer powers of t are representable mid-computation).  Its
    `terms` are (u-exponent, coefficient) pairs, sorted."""

    _fields = ("terms",)

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
