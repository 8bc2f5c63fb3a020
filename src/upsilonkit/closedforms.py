"""Closed forms that no engine route reads: the second routes the tests and
the bench hold the engine to.

The staircase closed forms read Υ, V(s), the breaking points and the
secondary invariant of a staircase off its corners: `_corner_hull` takes
the lower envelope of the corner lines in one integer stack pass.
`fk_upsilon` is the torus-knot recursion
Upsilon(p,q) = Upsilon(p-q,q) + Upsilon(q+1,q), and `eta_closed_form` with
`n_of_semigroup` the eta of an algebraic knot from its semigroup.  This
module imports nothing of `complexes` and names nothing of the engine
(`tests/test_layering.py` holds it to that).  Of the commands, only
`pretzel-report` loads it (`n_of_semigroup`); `invariants` and `zoo` hand
out its names on first use.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .invariants import _V_PARAMETER, BreakingPoint, _kl_parameters, staircase_corners
from .plfunctions import pl_add, pl_negate_scale
from .regions import PLFunction, _int, pl_constant
from .zoo import Semigroup, jumps_from_semigroup, semigroup_from_generators

# ---------------------------------------------------------------------------
# Staircase closed forms
# ---------------------------------------------------------------------------


def _corner_hull(corners) -> list[tuple[Fraction, int]]:
    """(t, i) for each line L_i(t) = m_i + (t/2)(n_i - m_i) of the corners'
    lower envelope on [0, 2], in order, with the t where it takes over (0
    for the first).  The slopes fall strictly, so it is one stack pass in
    integers (the convex-hull trick).  A line that leads at most at a point
    is dropped, so the lines on either side of a kink are its first and
    last minimizing corners."""
    hull = [(0, 0, 1)]  # (i, num, den): line i leads from t = num/den
    for c, (n, m) in enumerate(corners[1:], 1):
        while True:  # stops at line 0 (m = 0) at the latest
            b, b_num, b_den = hull[-1]
            nb, mb = corners[b]
            num, den = 2 * (m - mb), (nb - mb) - (n - m)  # c takes over from b at num/den
            if num * b_den > b_num * den:
                break
            hull.pop()  # no later than b takes over: b leads at most at a point
        hull.append((c, num, den))
    return [(Fraction(num, den), i) for i, num, den in hull]


def staircase_upsilon(jumps) -> PLFunction:
    """Knot-level upsilon of a staircase, -2 min_i L_i(t) over its corner
    lines: the envelope's lines read at each takeover and at t = 2.  The
    takeovers rise strictly from 0 and stay below 2 (the last corner alone
    is least at 2), and the lines on either side of each differ in slope, so
    the points are canonical."""
    corners = staircase_corners(jumps)
    points = [(t, -2 * corners[i][1] - t * (corners[i][0] - corners[i][1]))
              for t, i in _corner_hull(corners)]
    return PLFunction._canonical((*points, (Fraction(2), Fraction(-2 * corners[-1][0]))))


def staircase_vk(jumps, s: int) -> Fraction:
    """V(s) of a staircase: -2 * min over corners of max(n_i - s, m_i)."""
    s = _int(s, _V_PARAMETER)
    corners = staircase_corners(jumps)
    return Fraction(-2 * min(max(n - s, m) for n, m in corners))


def staircase_breaking_points(jumps) -> list[BreakingPoint]:
    """Breaking points of a staircase: every kink of its envelope, with the
    first and last minimizing corners, the envelope's lines a and b on
    either side.  The knot-level jump there is the slope difference
    (n_a - m_a) - (n_b - m_b) > 0."""
    corners = staircase_corners(jumps)
    hull = _corner_hull(corners)
    slopes = [n - m for n, m in corners]
    return [BreakingPoint(t, Fraction(slopes[a] - slopes[b]), a, b)
            for (_, a), (t, b) in zip(hull, hull[1:])]


def staircase_kl(jumps, t_star, s) -> Fraction:
    """The secondary invariant of a staircase at a breaking point, closed form.

    With i_minus/i_plus the first and last corners realizing the envelope
    minimum at the kink t_star, the connecting degree-1 chain is
    y_{i_minus} + ... + y_{i_plus - 1} (y_j at (n_j, m_{j+1})), and the value is
    -2 * (max_{i_minus <= j < i_plus} [(s/2) n_j + (1 - s/2) m_{j+1}]
          - envelope minimum at t_star).
    """
    t_star, s = _kl_parameters(t_star, s)  # the engine's checks: both refuse the same inputs
    kinks = {b.t: b for b in staircase_breaking_points(jumps)}
    if t_star not in kinks:
        raise ValueError(f"t = {t_star} is not a breaking point of this staircase")
    corners, kink = staircase_corners(jumps), kinks[t_star]
    n, m = corners[kink.i_minus]
    twice_peak = max(2 * corners[j + 1][1] + s * (corners[j][0] - corners[j + 1][1])
                     for j in range(kink.i_minus, kink.i_plus))
    return 2 * m + t_star * (n - m) - twice_peak


# ---------------------------------------------------------------------------
# The torus recursion and the eta closed form
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


_GENERATOR = "the generator a must be an integer"


def n_of_semigroup(s: Semigroup, a: int) -> int:
    """The largest n >= 0 such that the members up to n*a are exactly
    {0, a, 2a, ..., na}."""
    a = _int(a, _GENERATOR)  # 2.0 == 2 would pass the membership check
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
    a = _int(a, _GENERATOR)
    if a != s.generators[0]:
        raise ValueError(f"closed form needs the smallest generator, got {a}")
    return (1 - Fraction(1, a)) * s.genus - (a - 1) * n_of_semigroup(s, a)
