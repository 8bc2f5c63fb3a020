"""Builders for the knot families the invariants are tested on.

Positive torus and algebraic knots are L-space knots: their complexes are
*staircases*, determined by a numerical semigroup (the semigroup of a plane
curve singularity for algebraic knots, ⟨p,q⟩ for torus knots).  Here the
staircase jump sequence is read off as the run lengths of the member/gap
coloring of {0,...,2g-1}.  Thin knots are modeled by the unit staircase of
their tau (up to acyclic summands, which no invariant here sees).

The builders that few commands run live in modules of their own, and this
module hands out their names on first use (`__getattr__` below):
`alexander` reads the same jumps off the Alexander polynomial and builds
the pretzel family P(-2,3,q) from a skein-relation computation (the `P`
atom and `pretzel-report`); `puiseux` turns Puiseux data into a semigroup
(the `alg` atom); `closedforms` holds the torus recursion `fk_upsilon`
and the eta closed form, which no engine route reads (`pretzel-report`,
the tests and the bench).

The report pipelines and the thin-knot closed forms they compare against
are in `reports`, which only the two report commands load.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce

from .complexes import MAX_ATOM_SIZE, BaseGenerator, KnotComplex, mirror, validate_complex
from .exact import _lazy, _set, _Value
from .invariants import check_jumps, staircase_corners
from .regions import _int

# the names split off into `alexander`, `puiseux` and `closedforms` (see the module docstring)
__getattr__ = _lazy(globals(), {
    "alexander": ("AlexanderPolynomial", "alexander_from_semigroup", "alexander_pretzel",
                  "check_pretzel_parameter", "jumps_from_alexander", "pretzel"),
    "puiseux": ("PuiseuxData", "semigroup_from_puiseux"),
    "closedforms": ("eta_closed_form", "fk_upsilon", "n_of_semigroup"),
})


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
        # Each generator is checked before any comparison: sorting first would
        # raise a TypeError on a generator that does not compare with ints.
        gens = self.generators
        if not gens or any(isinstance(g, bool) or not isinstance(g, int) or g < 1 for g in gens):
            raise ValueError("semigroup generators must be positive integers")
        gens = tuple(sorted(set(gens)))
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
