"""Arithmetic on exact piecewise-linear functions (`regions.PLFunction`).

`pl_eval` reads a function at one point (`PLFunction.__call__`), `_pl_at`
at increasing points in one walk; `pl_add`, `pl_negate_scale` and
`pl_singular_points` serve the torus recursion (`closedforms.fk_upsilon`),
the report pipelines, the tests and the bench.  The engine builds its
curves from their points alone, so of the commands only `upsilon --format
csv` and the two reports load this module; `regions` hands out its names
on first use.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

from .regions import PLFunction, _rat


def pl_eval(f: PLFunction, t) -> Fraction:
    t = _rat(t)
    lo, hi = f.domain
    if not lo <= t <= hi:
        raise ValueError(f"argument {t} outside the domain [{lo}, {hi}]")
    ts = [p[0] for p in f.points]
    i = bisect.bisect_right(ts, t) - 1
    if i == len(ts) - 1:
        return f.points[-1][1]
    (t0, v0), (t1, v1) = f.points[i], f.points[i + 1]
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def _pl_at(f: PLFunction, ts) -> list[Fraction]:
    """f at each of these abscissae, increasing and inside f's domain, from
    one walk over its points: the values `pl_eval` gives, with no list of
    abscissae rebuilt and no bisection per point."""
    points = f.points
    last = len(points) - 1
    values = []
    i = 0
    for t in ts:
        while i < last and points[i + 1][0] <= t:
            i += 1
        t0, v0 = points[i]
        if t == t0:  # at the last point too, which only the domain's end reaches
            values.append(v0)
        else:
            t1, v1 = points[i + 1]
            values.append(v0 + (v1 - v0) * (t - t0) / (t1 - t0))
    return values


def pl_add(f: PLFunction, g: PLFunction) -> PLFunction:
    """f + g, from both functions at the sorted union of their breakpoints,
    each read in one walk (`_pl_at`)."""
    if f.domain != g.domain:
        raise ValueError("cannot add PL functions on different domains")
    ts = sorted({p[0] for p in f.points} | {p[0] for p in g.points})
    return PLFunction(tuple([(t, u + v) for t, u, v in zip(ts, _pl_at(f, ts), _pl_at(g, ts))]))


def pl_negate_scale(f: PLFunction, c) -> PLFunction:
    """The function c * f (use c = -1 for negation).  A nonzero scale keeps
    f's abscissae and multiplies every slope change by c, so the points of
    c * f are canonical as f's are."""
    c = _rat(c)
    if c == 0:
        return PLFunction(((f.points[0][0], Fraction(0)), (f.points[-1][0], Fraction(0))))
    return PLFunction._canonical(tuple([(t, c * v) for t, v in f.points]))


def pl_singular_points(f: PLFunction) -> list[tuple[Fraction, Fraction]]:
    """Interior breakpoints with their derivative jumps (right minus left slope).

    Canonical form guarantees every listed jump is nonzero.
    """
    out = []
    for (t0, v0), (t1, v1), (t2, v2) in zip(f.points, f.points[1:], f.points[2:]):
        jump = (v2 - v1) / (t2 - t1) - (v1 - v0) / (t1 - t0)
        out.append((t1, jump))
    return out
