"""Invariant engines over knot-type complexes.

The central quantity is the region invariant: for a south-west region C and a
knot-type complex, the least diagonal translation t such that some degree-0
cycle representing the generator of H_0 is supported on lattice generators
inside C_t.  Everything else is built from it:

* the knot-level upsilon function Upsilon(t) = -2 * (region invariant of the
  half-plane {(t/2)A + (1-t/2)j <= 0}), an exact piecewise-linear function;
* V(s) = -2 * (region invariant of {A <= s} & {j <= 0}), the surgery
  correction-term input, plus nu+ and the d-invariant formula;
* secondary invariants: at a breaking point (a kink of Upsilon with positive
  derivative jump) the perturbed regions C+ and C- each carry a distinguished
  set of "exceptional" generating cycles, and the secondary invariant is the
  least extra translation of a third region C needed to make an exceptional
  cycle of C+ homologous to one of C-; scaling by -2 relative to the kink
  value gives the Kim-Livingston invariant;
* eta: the least Alexander-direction truncation width at which the region
  invariant is already achieved.

Each of these least-t questions is answered by one filtered F2 reduction.
Each asks for the least, over all generating cycles, of the greatest key on
a support, where each degree-0 lattice generator has a key such as its
entering time, and every route takes it from `_least_top`, the
persistent-cohomology reduction.  It echelonizes the generators' rows of a
basis of the boundaries im d1 by decreasing key, each with its bit of a
reference generating cycle as companion; the first row that reduces to zero
with companion 1 gives the answer, and the rest are never read.
`_secondary` also needs, on each side, a cycle that attains that key and
the boundaries supported on the rows keyed at most it.  `_below` finds both
once the key is known, by eliminating only the rows keyed above it, in
coordinates over the engine's basis of im d1 (`eng.coords`): the basis
columns' parts there are echelonized with their coordinate bits as
companions, so the columns that vanish there (units) and the companions
that reduce to zero (relations) span those boundaries, and the reference
cycle reduced the same way gives the coordinates of a boundary that moves
it onto the rows keyed at most the key.  `_secondary` projects out the
units of both sides with one mask, echelonizes the relations, stores the
reduced target as a pivot with a flag bit and echelonizes the projected
coordinates of the degree-1 columns that can still matter in key order;
the first that reduces to zero with the flag set names the least key
whose columns span the target.  Every key depends on a generator only
through its (A, j) position, so each query keys the engine's distinct
positions of a slice (`at0`, `at1`), not its generators, and the
reductions expand them to rows.  Keys are exact integers (entering times
as numerators over the region's common denominator, Alexander gradings,
and pairs of them packed in one int), so every value is exact, and only
the returned value is made a Fraction.  The engine and both kernels live
in `complexes` (`_Engine`, `_least_top`, `_below`), where validation reads
them too.  One echelonization of the d1
columns at build fixes the basis of im d1 (the columns independent of the
earlier ones; which columns are dependent does not depend on any key, so no
reduction needs the others: the clearing idea of persistent homology) and,
from the same pivots, the reference cycle by clearing.

The upsilon curve is a kinetic sweep over these reductions rather than one
per crossing of any two generator lines.  A reduction at t keyed by each
line's value and then its right slope, packed in one int per position,
returns the key of the line that is the curve just right of t; only where
another line crosses that one can the curve bend, so the sweep reduces next
at the nearest such crossing, and ends at 2.  It returns the leading lines
as integers, each with the event where it takes over, and records one only
where the leading line changes, so the events are already the curve's
kinks.  It asserts continuity at every event (the new leading line meets
the old one), and the curve asserts that every segment's line meets the
next recorded line at the segment's end and that the engine value lies on
it at the segment's midpoint.  The curve's points and its
breaking points are read off the lines in integers, and only the returned
values are made Fractions.  Kim-Livingston reads the same packed keys at
t*, with the right and with the left slope: the limits of H_{t*+eps} and
H_{t*-eps}, with no width to choose.

The brute-force oracles that recompute these values by enumeration live in
`oracles`, which no command loads unless asked for an oracle check;
`GuardExceeded`, which they raise, stays here so that callers can catch it
without loading them.  The staircase closed forms (`staircase_upsilon`,
`staircase_vk`, `staircase_breaking_points`, `staircase_kl`), which read
none of the engine, live in `closedforms`, which of the commands only
`pretzel-report` loads; this module hands out their names on first use.
The jumps and corners they read (`check_jumps`, `staircase_corners`) stay
here, since every staircase atom is built from them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .complexes import KnotComplex, _below, _Engine, _least_top
from . import _lazy
from .exact import _echelonize, _Value
from .regions import PLFunction, SouthWestRegion, _int, _rat, entering_numerators, upsilon_halfplane

# the names split off into `closedforms` (see the module docstring)
__getattr__ = _lazy(globals(), {
    "closedforms": ("staircase_breaking_points", "staircase_kl", "staircase_upsilon",
                    "staircase_vk"),
})


class GuardExceeded(Exception):
    """A brute-force oracle refused to enumerate: dimension guard exceeded."""


class NoObstructionType:
    """Secondary invariants return this when the exceptional cycle sets
    already intersect (no extra translation is needed, hence no obstruction)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NoObstruction"

    def __str__(self) -> str:
        return "no obstruction"


NO_OBSTRUCTION = NoObstructionType()


class NotABreakingPoint(ValueError):
    """kim_livingston found a finite secondary value at a parameter that is
    not a breaking point, where the invariant is undefined."""


SecondaryValue = Fraction | NoObstructionType


class BreakingPoint(_Value):
    """A kink of the knot-level upsilon function with positive derivative jump.

    i_minus/i_plus are filled for staircases: the first and last corner
    realizing the envelope minimum at t (`staircase_breaking_points`).
    """

    _fields = ("t", "jump", "i_minus", "i_plus")
    _defaults = (None, None)


# ---------------------------------------------------------------------------
# Region invariants and the upsilon curve: reductions on the complex's engine
# ---------------------------------------------------------------------------


def _slope_bound(eng: _Engine) -> int:
    """h for `_line_keys`: the largest |A - j| over the positions of slices
    0 and 1, so one width packs the keys of both."""
    return max((abs(a - j) for a, j in eng.at0 + eng.at1), default=0)


def _line_keys(positions, n: int, d: int, sign: int, h: int) -> list[int]:
    """The line L(t) = j + (t/2)(A - j) of each position (A, j), keyed at
    t = n/d by its value and then its slope, (2d·L(n/d), sign·(A - j)),
    packed in one int: (2d·L(n/d))·w + sign·(A - j) + h with w = 2h + 1.
    With h at least every |A - j| the last two terms lie in [0, 2h], so the
    ints order and tie as the pairs do, and divmod(key, w) gives back
    (2d·L(n/d), sign·(A - j) + h).  With sign 1 the keys order the lines
    as their values just right of n/d do, with sign -1 as just left of it.
    Sign 0 and h 0 (w = 1) drop the slope: each key is 2d·L(n/d) =
    n·A + (2d - n)·j, the position's entering time into the half-plane
    H(n/d) as a numerator over 2d, with no region built."""
    w = 2 * h + 1
    ca = n * w + sign  # the key is ca·A + cj·j + h
    cj = 2 * d * w - ca
    return [ca * a + cj * j + h for a, j in positions]


def h0_surjective(k: KnotComplex, r: SouthWestRegion, t) -> bool:
    """True iff a degree-0 generating cycle lives inside the translate C_t."""
    return upsilon_region(k, r) <= _rat(t)


def upsilon_region(k: KnotComplex, r: SouthWestRegion) -> Fraction:
    """The least t at which C_t supports a generating cycle.

    The minimum over cycles of the max entering time of their support is
    the key of one `_least_top` reduction keyed by entering time.
    """
    eng = _Engine.of(k)
    nums, d = entering_numerators(r, eng.at0)
    return Fraction(_least_top(eng, nums), d)


def upsilon_at(k: KnotComplex, t) -> Fraction:
    """The knot-level upsilon value at one parameter: -2 * region invariant."""
    return -2 * upsilon_region(k, upsilon_halfplane(t))


def upsilon_function(k: KnotComplex) -> PLFunction:
    """The exact knot-level upsilon function on [0, 2], computed once per complex.

    A kinetic sweep.  Each generator at (A, j) has the line
    L(t) = j + (t/2)(A - j), or (s, j) with slope s = A - j; the engine value
    at t is the least, over generating cycles, of the top line on a support.
    One reduction at t = n/d keyed by (2d·L(t), s), the value and then the
    right slope packed in one int (`_line_keys`), returns the key of a line
    that is the value on [t, t + eps].  Until another line crosses it every
    line stays on its side of it, so the value is that line up to the
    nearest crossing after t; the sweep reduces there next, and ends at 2
    when nothing crosses before it.  The sweep returns the leading lines,
    and the curve is read off them in integers: the value at an event n/d
    is -(2d·j + n·s)/d and at 2 it is -2(j + s).  Two checks guard it: at
    every event the new leading line must meet the old one (continuity),
    and every segment's line must meet the next recorded line at its end
    and carry the engine value at its midpoint (`_check_chords`).  The
    engine keeps the curve with its
    lines, for `breaking_points`, only once both checks have passed.
    """
    eng = _Engine.of(k)
    if eng.curve is None:
        lines = _kinetic_sweep(eng)
        _check_chords(eng, lines)
        points = [(Fraction(n, d), Fraction(-2 * d * j - n * s, d)) for (n, d), (s, j) in lines]
        s, j = lines[-1][1]
        points.append((Fraction(2), Fraction(-2 * (j + s))))
        # two different lines that meet at an event differ in slope, so
        # every interior point is a kink and the points are canonical
        eng.curve = PLFunction._canonical(tuple(points)), lines
    return eng.curve[0]


def _kinetic_sweep(eng: _Engine) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """((n, d), (s, j)) at t = 0 and at each event t = n/d where the leading
    line changes: the event, in lowest terms, and the line
    L(t) = j + (t/2)s leading after it.  Every event reduces, decodes the
    packed key it returns into the line's value and slope, and is checked
    for continuity, but one where the same line leads on is not recorded:
    two different lines that meet at an event differ in slope, so every
    recorded interior event is a kink.  Each next event must come strictly
    after the last (the progress guard): a sweep that stalled would never
    end, so it raises AssertionError instead."""
    h = _slope_bound(eng)
    w = 2 * h + 1
    lines = {(a - j, j) for a, j in eng.at0}  # (s, j): L(t) = j + (t/2)s
    events = []
    lead = None  # the line (s, j) leading after the last event
    n, d = 0, 1  # the event t = n/d
    while True:
        v, s = divmod(_least_top(eng, _line_keys(eng.at0, n, d, 1, h)), w)
        s -= h
        if lead is not None and v != 2 * d * lead[1] + n * lead[0]:
            raise AssertionError(
                f"upsilon curve: the line leading after t = {Fraction(n, d)} "
                "does not meet the line leading before it"
            )
        line = s, (v - n * s) // (2 * d)
        if line != lead:
            events.append(((n, d), line))
            lead = line
        bn, bd = 2, 1  # the nearest crossing of lead after n/d, as bn/bd
        for s2, j2 in lines:
            if s2 != s:
                num, den = 2 * (j2 - lead[1]), s - s2
                if den < 0:
                    num, den = -num, -den
                if num * d > n * den and num * bd < bn * den:
                    bn, bd = num, den
        if (bn, bd) == (2, 1):  # nothing crosses lead before 2
            return events
        if bn * d <= n * bd:  # the progress guard: a sweep that stalls would never end
            raise AssertionError(f"upsilon sweep: the event after t = {Fraction(n, d)} "
                                 "does not come after it")
        g = gcd(bn, bd)
        n, d = bn // g, bd // g


def _check_chords(eng: _Engine, lines) -> None:
    """Assert that each segment of the swept curve is one line of the
    engine value.  At the segment's end n1/d1 its line (s, j) must meet the
    next recorded line (s', j'): 2d1·j + n1·s == 2d1·j' + n1·s', in
    integers.  At its midpoint N/D one `_least_top`, keyed by the entering
    times into the half-plane there as numerators over 2D (`_line_keys`
    with sign 0 and h 0: the value alone, no slope), must return the
    line's value 2D·j + N·s.  The segment's start lies on its line by the
    sweep's own reduction there, so with both checks this is the chord
    test, in integers, with no region built."""
    ends = lines[1:] + [((2, 1), None)]
    for ((n0, d0), (s, j)), ((n1, d1), after) in zip(lines, ends):
        num, den = n0 * d1 + n1 * d0, 2 * d0 * d1
        g = gcd(num, den)
        n, d = num // g, den // g
        if (after is not None and 2 * d1 * j + n1 * s != 2 * d1 * after[1] + n1 * after[0]
                or _least_top(eng, _line_keys(eng.at0, n, d, 0, 0)) != 2 * d * j + n * s):
            raise AssertionError(f"upsilon curve: not linear on [{Fraction(n0, d0)}, "
                                 f"{Fraction(n1, d1)}]: a kink was missed")


def breaking_points(k: KnotComplex) -> list[BreakingPoint]:
    """Kinks of the knot-level upsilon function with positive derivative jump.

    The knot-level curve is -2L on the leading line L of each segment, so
    its slope there is -s, and the jump at the event where (s0, j0) hands
    over to (s1, j1) is the integer s0 - s1.  (The engine-level envelope is
    a min of lines, so its kinks have negative jumps; the -2 scaling makes
    the knot-level jumps positive exactly there.)
    """
    upsilon_function(k)  # sweeps and checks the curve once, keeping its lines
    lines = _Engine.of(k).curve[1]
    return [BreakingPoint(Fraction(n, d), Fraction(s0 - s1))
            for (_, (s0, _)), ((n, d), (s1, _)) in zip(lines, lines[1:]) if s0 > s1]


# ---------------------------------------------------------------------------
# Staircase jumps and corners (the closed forms on them are in `closedforms`)
# ---------------------------------------------------------------------------


def check_jumps(jumps) -> tuple[int, ...]:
    """Validate a staircase jump sequence (a_1, ..., a_2k).

    Entries are positive integers; the odd-indexed and even-indexed entries
    must have equal sums (the staircase starts at (g, 0) and ends at (0, g),
    so the total is 2g).  The empty sequence is the unknot.
    """
    jumps = tuple(jumps)
    if len(jumps) % 2:
        raise ValueError("jump sequence must have even length")
    if any(isinstance(a, bool) or not isinstance(a, int) or a < 1 for a in jumps):
        raise ValueError("jumps must be positive integers")
    if sum(jumps[0::2]) != sum(jumps[1::2]):
        raise ValueError("jump sequence must balance: sum of odd-indexed entries "
                         "must equal sum of even-indexed entries")
    return jumps


def staircase_corners(jumps) -> tuple[tuple[int, int], ...]:
    """The degree-0 corner positions (n_i, m_i), i = 0..k.

    n_i = g - (a_2 + a_4 + ... + a_2i) with n_0 = g = sum of even-indexed
    jumps, and m_i = a_1 + a_3 + ... + a_{2i-1} with m_0 = 0.
    """
    jumps = check_jumps(jumps)
    g = sum(jumps[1::2])
    corners = [(g, 0)]
    n, m = g, 0
    for i in range(0, len(jumps), 2):
        m += jumps[i]
        n -= jumps[i + 1]
        corners.append((n, m))
    return tuple(corners)


_V_PARAMETER = "V takes an integer parameter"  # the one check of vk and staircase_vk


# ---------------------------------------------------------------------------
# V, nu+, d-invariants
# ---------------------------------------------------------------------------


def vk(k: KnotComplex, s: int) -> Fraction:
    """V(s) = -2 * region invariant of {A <= s} & {j <= 0}.

    A generator at (A, j) enters that region at t = max(A - s, j), so one
    `_least_top` reduction keyed by these integers gives the region
    invariant, with no region built (and no call of `max` per position).
    Note the sign convention: V(0) of the positive trefoil is -2 here, i.e.
    -2 times the non-negative local h/V invariants common elsewhere.
    """
    s = _int(s, _V_PARAMETER)
    eng = _Engine.of(k)
    return Fraction(-2 * _least_top(eng, [a - s if a - s > j else j for a, j in eng.at0]))


def nu_plus(k: KnotComplex) -> int:
    """The least s >= 0 with V(s) = 0, i.e. with a generating cycle in
    {A <= s} & {j <= 0}: one reduction keyed by (j > 0, A), packed in one int
    per position as in `eta` (`_flagged_alexander`).  Below A = 0 (no knot's
    case) the cycle may sit below j = 0 too; V(0) decides."""
    eng = _Engine.of(k)
    keys, w, low = _flagged_alexander(eng, [j > 0 for _, j in eng.at0])
    outside, a = divmod(_least_top(eng, keys), w)
    a += low
    if outside or a < 0 and vk(k, 0) != 0:
        raise ValueError("V(s) did not vanish up to the Alexander range; not knot-type?")
    return max(0, a)


def _flagged_alexander(eng: _Engine, flags) -> tuple[list[int], int, int]:
    """The key (flag, A) of each slice-0 position (`eng.at0`), one flag per
    position, packed in one int: flag·w + A - low, with low the least A and
    w the width of the A range.  A - low lies in [0, w), so the ints order
    and tie as the pairs do, and divmod(key, w) gives back (flag, A - low).
    Returns the keys, w and low."""
    alexander = [a for a, _ in eng.at0]
    low = min(alexander, default=0)
    w = max(alexander, default=0) - low + 1
    return [w * f + a - low for f, a in zip(flags, alexander)], w, low


_D_PARAMETERS = "d takes an integer surgery coefficient q and an integer spin-c index m"


def d_invariant(k: KnotComplex, q: int, m: int) -> Fraction:
    """Correction term of q-surgery in the spin-c structure indexed by m:
    ((q - 2m)^2 - q) / (4q) + V(m), valid for large surgeries.
    """
    q, m = (_int(x, _D_PARAMETERS) for x in (q, m))
    if q < 1:
        raise ValueError(f"surgery coefficient must be a positive integer, got {q}")
    g = max(0, max((a for a, _ in _Engine.of(k).at0), default=0))
    if q < 2 * g - 1:
        raise ValueError(f"need q >= 2g - 1 = {2 * g - 1} (large surgery), got {q}")
    if not -q <= 2 * m < q:
        raise ValueError(f"spin-c index must satisfy -q/2 <= m < q/2, got m={m}")
    return Fraction((q - 2 * m) ** 2 - q, 4 * q) + vk(k, m)


# ---------------------------------------------------------------------------
# Secondary invariants
# ---------------------------------------------------------------------------


def secondary(
    k: KnotComplex,
    cplus: SouthWestRegion,
    cminus: SouthWestRegion,
    c: SouthWestRegion,
) -> SecondaryValue:
    """Least t making an exceptional cycle of C+ homologous to one of C-.

    With gamma± the region invariants of C±, the exceptional cycles of C± are
    the generating cycles supported in C±_{gamma±} — an affine coset
    z0± + V± where V± is the space of boundaries supported there; per region,
    one `_least_top` reduction yields gamma± and one `_below` elimination
    z0± and vectors spanning V±, in coordinates over the engine's basis of
    im d1.  If z0+ + z0- reduces to zero against V+ + V-, the cosets
    intersect: no obstruction.  Otherwise the least t with z0+ + z0- a
    boundary of a chain in C+_{gamma+} ∪ C-_{gamma-} ∪ C_t comes from one
    scan of the degree-1 columns outside the first two, by entering time
    into C, which stops at the first column that closes the target.  Needs
    the filtration condition (ValueError otherwise; `validate_complex`
    checks it).
    """
    eng = _Engine.of(k)
    sides = ([entering_numerators(r, p)[0] for p in (eng.at0, eng.at1)] for r in (cplus, cminus))
    return _secondary(eng, *sides, entering_numerators(c, eng.at1))[2]


def _secondary(eng: _Engine, plus, minus, c: tuple[list, int]) -> tuple:
    """`secondary` with each side C± given as (slice-0 keys, slice-1 keys),
    one key per position of the slice (`eng.at0`, `eng.at1`), ordered as
    the positions enter C±, and C as (slice-1 keys, d): the entering times
    of the slice-1 positions into C as integer numerators over d, so no
    region is read here.  Returns gamma+, gamma- and the value.

    gamma± comes from `_least_top`, and from `_below` at gamma± the
    cycle z± = z_ref + d1·c± and V± = span(unit±) + span(relations±), all
    in coordinates over the engine's basis of im d1 (`eng.coords`).  The
    target z+ + z- is then the boundary of c+ + c-, and every vector here
    lies in im d1, where coordinates are exact, so the question is asked
    of coordinate vectors.  The unit vectors of either side (U) are
    projected out: a vector lies in span(U) + W exactly when its projection
    (AND NOT U, the mask `keep`) lies in the projection of W.  So only the
    relations are echelonized, a few per side.  A degree-1 generator x that
    is not late (keyed at most gamma+ on the plus side, or at most gamma- on
    the minus side) has d1·x supported on rows keyed at most its own key,
    by the filtration condition, so d1·x already lies in V+ + V- and its
    column is skipped.  The projected target goes through `_echelonize`
    with one flag bit as companion: reduced to zero, it is no obstruction;
    otherwise it stays as a pivot with that flag.  The late columns'
    projected coordinates follow, one position at a time by entering time
    into C (the columns of a position share their time): the first
    position with a column that reduces to zero with the flag set closes a
    sum of columns, all entered by its time, that is the target plus a
    vector of V+ + V-, so its entering time is the value.
    Raises ValueError on a complex with an arrow that increases the
    filtration, where neither the skip nor the sub-complexes C±_{gamma±}
    and C_t mean anything.
    """
    if eng.unfiltered is not None:
        src, dst, m = eng.unfiltered
        raise ValueError(f"the secondary invariant needs the filtration condition: "
                         f"arrow {src} -> U^{m}·{dst} increases the filtration")
    (keys_p, keys1_p), (keys_m, keys1_m) = plus, minus
    gp, gm = _least_top(eng, keys_p), _least_top(eng, keys_m)
    cp, unit_p, relations_p = _below(eng, keys_p, gp)
    cm, unit_m, relations_m = _below(eng, keys_m, gm)
    keep = ~(unit_p | unit_m)
    pivots: dict[int, tuple[int, int]] = {}
    _echelonize(pivots, ((v & keep, 0) for v in relations_p + relations_m))
    if _echelonize(pivots, (((cp ^ cm) & keep, 1),)):  # else the reduced target is stored, flagged
        return gp, gm, NO_OBSTRUCTION

    times_c, d = c
    late = [p for p, (kp, km) in enumerate(zip(keys1_p, keys1_m)) if kp > gp and km > gm]
    coords = eng.coords
    for p in sorted(late, key=times_c.__getitem__):
        if any(_echelonize(pivots, [(coords[i] & keep, 0) for i in eng.gens1[p]])):
            return gp, gm, Fraction(times_c[p], d)
    raise AssertionError("secondary: z+ + z- is not a boundary")


def _kl_parameters(t_star, s) -> tuple[Fraction, Fraction]:
    """t_star and s as exact rationals, checked to lie in (0, 2) and [0, 2]."""
    t_star, s = _rat(t_star), _rat(s)
    if not 0 < t_star < 2:
        raise ValueError(f"t_star must lie in (0, 2), got {t_star}")
    if not 0 <= s <= 2:
        raise ValueError(f"s must lie in [0, 2], got {s}")
    return t_star, s


def kim_livingston(k: KnotComplex, t_star, s) -> SecondaryValue:
    """The secondary invariant at a breaking point t_star, evaluated against
    the half-plane family at parameter s:
    -2 * (secondary(H_{t_star+eps}, H_{t_star-eps}, H_s) - kink value) for
    every small enough eps > 0.

    The limit is exact: keyed by (value at t_star, ±slope), the generator
    lines of slices 0 and 1 sort as they enter H_{t_star±eps}, so the two
    `_least_top` reductions of `_secondary` leave leading the lines that the
    engine value follows just right and just left of t_star.  They must meet
    at t_star (asserted), where they give the kink value; t_star is a
    breaking point iff the right slope is less than the left.  Elsewhere a
    finite value raises NotABreakingPoint (NoObstruction is still returned).
    H_s is keyed by its entering times over the slice-1 positions as
    numerators over 2D for s = N/D (`_line_keys` with sign 0 and h 0: the
    value alone, no slope), with no region built.  The side keys are
    packed in one int per position with one width for both slices
    (`_line_keys`, `_slope_bound`), and the two keys `_secondary` returns
    decode to the leading lines' values and slopes.
    """
    t_star, s = _kl_parameters(t_star, s)
    eng = _Engine.of(k)
    n, d = t_star.numerator, t_star.denominator
    h = _slope_bound(eng)
    sides = ([_line_keys(pos, n, d, sign, h) for pos in (eng.at0, eng.at1)] for sign in (1, -1))
    c = _line_keys(eng.at1, s.numerator, s.denominator, 0, 0), 2 * s.denominator
    g_right, g_left, value = _secondary(eng, *sides, c)
    (v, right), (v_left, left) = divmod(g_right, 2 * h + 1), divmod(g_left, 2 * h + 1)
    right, left = right - h, h - left  # the slopes, keyed as s on the right and -s on the left
    if v != v_left:
        raise AssertionError(f"kim_livingston: the two sides of t = {t_star} do not meet there")
    if value is NO_OBSTRUCTION:
        return NO_OBSTRUCTION
    if right >= left:
        raise NotABreakingPoint(f"t = {t_star} is not a breaking point")
    return -2 * (value - Fraction(v, 2 * d))


# ---------------------------------------------------------------------------
# eta: Alexander-direction truncation
# ---------------------------------------------------------------------------


def eta(k: KnotComplex, c: SouthWestRegion) -> Fraction:
    """Least x such that truncating C at Alexander coordinate x does not
    change its region invariant.

    Truncation composes with translation, so the question at width x is:
    does C_gamma ∩ {A <= x + gamma} still support a generating cycle?  One
    filtered reduction keyed by (outside C_gamma, A) answers it for every x
    at once: the least key over the generating cycles is (False, eta + gamma).
    The pairs are packed in one int per position (`_flagged_alexander`), so
    the reduction sorts ints, and one divmod decodes its answer.
    """
    eng = _Engine.of(k)
    nums, d = entering_numerators(c, eng.at0)
    gamma = _least_top(eng, nums)
    keys, w, low = _flagged_alexander(eng, [n > gamma for n in nums])
    outside, a = divmod(_least_top(eng, keys), w)
    if outside:
        raise AssertionError("eta: no generating cycle below the largest truncation")
    return a + low - Fraction(gamma, d)
