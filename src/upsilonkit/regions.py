"""South-west regions of the (A, j) plane and exact piecewise-linear functions.

A *south-west region* is closed under decreasing either coordinate.  We work
with the finite-presentation fragment: unions of finite intersections of
half-planes {alpha*A + beta*j <= c} with alpha, beta >= 0 not both zero
(disjunctive normal form).  Half-planes are normalized so alpha + beta = 1,
which makes the diagonal translate C_t = C + t*(1,1) act by c -> c + t and
gives the *entering time* of a point p (least t with p in C_t) the closed
form alpha*A(p) + beta*j(p) - c.  Entering time of a union is the min over
atoms, of an intersection the max over half-planes.

`PLFunction` is an exact continuous piecewise-linear function on a rational
interval, stored by its breakpoints; invariant curves (upsilon as a function
of t) live here.  The arithmetic on them (`pl_eval`, `pl_add`,
`pl_negate_scale`, `pl_singular_points`) is in `plfunctions`, which only
`upsilon --format csv` and the two reports load, and the region DSL's
parser (`parse_region`) in `regiondsl`, which only the commands that take a
region load; this module hands out their names on first use.  What both
DSLs share stays here, since every command parses a knot: the lexing, the
bracket rule '(' expr ')' (`_Scanner.group`), the atom rule, which reads an
atom's '(' arguments ')' by the argument shape in its table row
(`_Scanner.arguments`), and the base of their positioned parse errors
(`_ParseError`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby

from . import _lazy
from .exact import Rational, _OrderedValue, _set, _Value

# the names split off into `plfunctions` and `regiondsl` (see the module docstring)
__getattr__ = _lazy(globals(), {
    "plfunctions": ("_pl_at", "pl_add", "pl_eval", "pl_negate_scale", "pl_singular_points"),
    "regiondsl": ("parse_region",),
})


def _int(x, message: str) -> int:
    if isinstance(x, int) and not isinstance(x, bool):  # isinstance counts a bool as an int
        return x
    raise ValueError(message)


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError(f"expected an exact rational, got {x!r}")


class HalfPlane(_OrderedValue):
    """{(A, j) : alpha*A + beta*j <= c}, normalized to alpha + beta = 1.

    The coefficients are exact rationals with alpha, beta >= 0; anything
    else raises ValueError, since the entering times assume it.
    `make_halfplane` normalizes any non-negative pair.
    """

    _fields = ("alpha", "beta", "c")

    def __post_init__(self):
        alpha, beta, c = _rat(self.alpha), _rat(self.beta), _rat(self.c)
        if alpha < 0 or beta < 0 or alpha + beta != 1:
            raise ValueError(f"half-plane needs alpha, beta >= 0 with alpha + beta = 1, "
                             f"got {alpha}, {beta}")
        _set(self, "alpha", alpha)
        _set(self, "beta", beta)
        _set(self, "c", c)

    def entering_time(self, p: tuple[Rational, Rational]) -> Fraction:
        return self.alpha * _rat(p[0]) + self.beta * _rat(p[1]) - self.c


def make_halfplane(alpha, beta, c) -> "SouthWestRegion":
    """The single-half-plane region {alpha*A + beta*j <= c}.

    Requires alpha, beta >= 0 and alpha + beta > 0 (otherwise the set is not
    a south-west region).
    """
    alpha, beta, c = _rat(alpha), _rat(beta), _rat(c)
    if alpha < 0 or beta < 0:
        raise ValueError(f"half-plane coefficients must be non-negative: {alpha}, {beta}")
    total = alpha + beta
    if total == 0:
        raise ValueError("half-plane coefficients must not both be zero")
    hp = HalfPlane(alpha / total, beta / total, c / total)
    return SouthWestRegion(((hp,),))


class SouthWestRegion(_Value):
    """A union of intersections of normalized half-planes (DNF atoms)."""

    _fields = ("atoms",)

    def __post_init__(self):
        for atom in self.atoms:
            for hp in atom:
                if not isinstance(hp, HalfPlane):
                    raise ValueError(f"region atom member must be a HalfPlane: {hp!r}")
        # sorted, equal atoms are adjacent: each half-plane is hashed once
        atoms = tuple(atom for atom, _ in groupby(sorted(
            tuple(sorted(set(atom))) for atom in self.atoms)))
        if not atoms or any(not atom for atom in atoms):
            raise ValueError("region needs at least one half-plane per atom")
        _set(self, "atoms", atoms)


def union(r1: SouthWestRegion, r2: SouthWestRegion) -> SouthWestRegion:
    return SouthWestRegion(r1.atoms + r2.atoms)


def intersect(r1: SouthWestRegion, r2: SouthWestRegion) -> SouthWestRegion:
    return SouthWestRegion(tuple(a1 + a2 for a1 in r1.atoms for a2 in r2.atoms))


def translate(r: SouthWestRegion, t) -> SouthWestRegion:
    """The diagonal translate C_t = C + t*(1, 1)."""
    t = _rat(t)
    return SouthWestRegion(
        tuple(
            tuple(HalfPlane(hp.alpha, hp.beta, hp.c + t) for hp in atom)
            for atom in r.atoms
        )
    )


def entering_time(r: SouthWestRegion, p: tuple[Rational, Rational]) -> Fraction:
    """Least t such that p lies in C_t (finite for every p: min of maxes)."""
    return min(max(hp.entering_time(p) for hp in atom) for atom in r.atoms)


def entering_numerators(r: SouthWestRegion, points) -> tuple[list[int], int]:
    """Entering times of integer points as integer numerators over one common
    denominator d, the lcm of the denominators of every alpha, beta and c in r:
    Fraction(n, d) == entering_time(r, p) for each point p and its n.

    Scaling by d > 0 keeps both the order and the ties, so the engine sorts
    and compares these ints and makes a Fraction only for its answer.  Each
    coefficient x scales as x.numerator * (d // x.denominator), with no
    Fraction arithmetic, and the half-planes of an atom (max) and the atoms
    (min) merge pairwise in comprehensions, with no call per position.
    """
    d = math.lcm(*(x.denominator for atom in r.atoms for hp in atom
                   for x in (hp.alpha, hp.beta, hp.c)))
    times = None
    for atom in r.atoms:
        entering = None
        for hp in atom:
            al, be, ce = hp.alpha, hp.beta, hp.c
            a, b = al.numerator * (d // al.denominator), be.numerator * (d // be.denominator)
            c = ce.numerator * (d // ce.denominator)
            keys = [a * x + b * y - c for x, y in points]
            entering = keys if entering is None else [u if u > v else v
                                                      for u, v in zip(entering, keys)]
        times = entering if times is None else [u if u < v else v for u, v in zip(times, entering)]
    return times, d


def contains(r: SouthWestRegion, p: tuple[Rational, Rational], t) -> bool:
    """Is p in the translate C_t?  Equivalent to entering_time(r, p) <= t."""
    return entering_time(r, p) <= _rat(t)


def truncate(r: SouthWestRegion, x) -> SouthWestRegion:
    """Cut the region at Alexander coordinate x: r intersected with {A <= x}."""
    return intersect(r, make_halfplane(1, 0, x))


def upsilon_halfplane(t) -> SouthWestRegion:
    """The half-plane {(t/2)A + (1 - t/2)j <= 0} underlying the knot-level
    upsilon function at parameter t in [0, 2]."""
    t = _rat(t)
    if not 0 <= t <= 2:
        raise ValueError(f"upsilon parameter must be in [0, 2], got {t}")
    return make_halfplane(t / 2, 1 - t / 2, 0)


def v_region(s) -> SouthWestRegion:
    """{A <= s} ∩ {j <= 0}: the hook region whose upsilon gives V(s)."""
    return intersect(make_halfplane(1, 0, s), make_halfplane(0, 1, 0))


# ---------------------------------------------------------------------------
# Exact piecewise-linear functions
# ---------------------------------------------------------------------------


class PLFunction(_Value):
    """Continuous piecewise-linear function given by breakpoints (t, value).

    Canonical form: t strictly increasing, no interior breakpoint where the
    slope does not change.  Equality of canonical forms is equality of
    functions.
    """

    _fields = ("points",)

    def __post_init__(self):
        pts = [(_rat(t), _rat(v)) for t, v in self.points]
        if len(pts) < 2:
            raise ValueError("a PL function needs at least two breakpoints")
        for (t1, _), (t2, _) in zip(pts, pts[1:]):
            if t1 >= t2:
                raise ValueError("breakpoint abscissae must be strictly increasing")
        canon = [pts[0]]
        for i in range(1, len(pts) - 1):
            (t0, v0), (t1, v1), (t2, v2) = canon[-1], pts[i], pts[i + 1]
            if (v1 - v0) * (t2 - t1) != (v2 - v1) * (t1 - t0):
                canon.append(pts[i])
        canon.append(pts[-1])
        _set(self, "points", tuple(canon))

    @classmethod
    def _canonical(cls, points: tuple) -> "PLFunction":
        """A PL function from breakpoints that are canonical by construction:
        Fraction pairs, t strictly increasing, and a slope change at every
        interior point.  Nothing is re-checked; other input goes through the
        constructor, which canonicalizes."""
        f = object.__new__(cls)
        _set(f, "points", points)
        return f

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return (self.points[0][0], self.points[-1][0])

    def __call__(self, t) -> Fraction:
        return __getattr__("pl_eval")(self, t)  # `plfunctions.pl_eval`, loaded on first use


def pl_constant(value, domain=(Fraction(0), Fraction(2))) -> PLFunction:
    return PLFunction(((_rat(domain[0]), _rat(value)), (_rat(domain[1]), _rat(value))))


# ---------------------------------------------------------------------------
# The lexing and errors of the region and knot DSLs (the region parser is
# `regiondsl`)
# ---------------------------------------------------------------------------


class _ParseError(ValueError):
    """A DSL's parse error at a position of its input: the base of
    `RegionParseError` and the knot DSL's `cli.KnotParseError`."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RegionParseError(_ParseError):
    """A parse error in the region DSL."""


# The deepest nesting either DSL accepts: the parsers recurse three frames a
# level, so they (and the knot printer and builder) stay far below Python's
# default limit of 1000 frames.
MAX_NESTING = 100


class _Scanner:
    """The lexing shared by the hand-rolled LL(1) parsers of the region and
    knot DSLs.  `error` is the exception class raised, called with a message
    and a position; `expr` is the subclass's top-level rule; `readers` maps
    each letter of the subclass's atom shapes to its reader of one argument
    (see `arguments`).  `depth` counts the levels entered by `descend` and
    not yet left (by decrementing it)."""

    error: type[_ParseError]

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def parse(self):
        result = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"unexpected trailing input {self.text[self.pos:]!r}", self.pos)
        return result

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            found = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            raise self.error(f"expected {ch!r}, found {found!r}", self.pos)
        self.pos += 1

    def descend(self):
        """Enter one nesting level; past MAX_NESTING the input is rejected."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", self.pos)

    def group(self):
        """'(' expr ')' at a '(': the subclass's `expr`, one level deeper."""
        self.descend()
        self.pos += 1
        result = self.expr()
        self.expect(")")
        self.depth -= 1
        return result

    def arguments(self, shape: str):
        """An atom's '(' arguments ')', read by the atom's shape: a ',' or ';'
        is that separator, and each other letter one argument, read by the
        subclass's reader of that letter.  An 'e' reads a nested expression:
        its level is entered before the '(', as `group` enters it."""
        nested = "e" in shape
        if nested:
            self.descend()
        self.expect("(")
        args = []
        for letter in shape:
            if letter in ",;":
                self.expect(letter)
            else:
                args.append(self.readers[letter](self))
        self.expect(")")
        self.depth -= nested
        return args

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def term_name(self, what: str) -> tuple[int, str]:
        """Scan an alphabetic term name; returns its start and the name."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            raise self.error(f"expected a {what} term", self.pos)
        return start, self.text[start:self.pos]

    def digits(self, signed: bool = False) -> int:
        """Scan a run of ASCII digits, after an optional sign if `signed`;
        returns its start."""
        start = self.pos
        if signed and self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        return start
