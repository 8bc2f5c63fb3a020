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
once the key is known, by eliminating only the rows keyed above it: the
basis columns' parts there are echelonized with the whole columns as
companions, so the columns that vanish there and the companions that reduce
to zero span those boundaries, and the reference cycle reduced the same way
attains the key.  `_secondary` then stores the reduced target boundary as a
pivot with a flag bit and echelonizes the degree-1 columns that can still
matter in key order; the first that reduces to zero with the flag set names
the least key whose columns span the target.  Every key depends on a
generator only through its (A, j) position, so each query keys the engine's
distinct positions of a slice (`at0`, `at1`), not its generators, and the
reductions expand them to rows.  Keys are exact integers (entering times as
numerators over the region's common denominator, Alexander gradings), so
every value is exact, and only the returned value is made a Fraction.  The
engine and both kernels live in `complexes` (`_Engine`, `_least_top`,
`_below`), where validation reads them too.  One echelonization of the d1
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

`brute_force_upsilon` and `brute_force_secondary` recompute the same
quantities by enumerating entire cycle cosets, as independent oracles in the
tests.  They share the echelon kernel with the engine and nothing of its
build: their d1 columns come from `boundary_matrix`, which recomputes the
differential by name from the lattice generators and the arrows, and their
positions (`maslov_slice`) and generating cycle (a nullspace) are their own.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from .complexes import (KnotComplex, _below, _Engine, _least_top, boundary_matrix,
                        maslov_slice, representative_cycle)
from .exact import F2Space, _bits, _columns, _echelonize, _mask, _set, _Value
from .regions import (
    PLFunction,
    SouthWestRegion,
    _int,
    _rat,
    entering_numerators,
    entering_time,
    upsilon_halfplane,
)


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

    def __init__(self, t: Fraction, jump: Fraction, i_minus: int | None = None,
                 i_plus: int | None = None):
        _set(self, "t", t)
        _set(self, "jump", jump)
        _set(self, "i_minus", i_minus)
        _set(self, "i_plus", i_plus)

    def _key(self) -> tuple:
        return (self.t, self.jump, self.i_minus, self.i_plus)


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
    as their values just right of n/d do, with sign -1 as just left of it."""
    w = 2 * h + 1
    ca = n * w + sign  # the key is ca·A + cj·j + h
    cj = 2 * d * w - ca
    return [ca * a + cj * j + h for a, j in positions]


def _halfplane_keys(positions, n: int, d: int) -> list[int]:
    """The entering times of these positions into the half-plane H(n/d) as
    integer numerators over 2d: a generator at (A, j) enters at
    L(n/d) = (2d·j + n(A - j)) / 2d, with no region built."""
    cj = 2 * d - n
    return [n * a + cj * j for a, j in positions]


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
    recorded interior event is a kink."""
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
        g = gcd(bn, bd)
        n, d = bn // g, bd // g


def _check_chords(eng: _Engine, lines) -> None:
    """Assert that each segment of the swept curve is one line of the
    engine value.  At the segment's end n1/d1 its line (s, j) must meet the
    next recorded line (s', j'): 2d1·j + n1·s == 2d1·j' + n1·s', in
    integers.  At its midpoint N/D one `_least_top`, keyed by the entering
    times into the half-plane there as numerators over 2D
    (`_halfplane_keys`), must return the line's value 2D·j + N·s.  The
    segment's start lies on its line by the sweep's own reduction there,
    so with both checks this is the chord test, in integers, with no
    region built."""
    ends = lines[1:] + [((2, 1), None)]
    for ((n0, d0), (s, j)), ((n1, d1), after) in zip(lines, ends):
        num, den = n0 * d1 + n1 * d0, 2 * d0 * d1
        g = gcd(num, den)
        n, d = num // g, den // g
        if (after is not None and 2 * d1 * j + n1 * s != 2 * d1 * after[1] + n1 * after[0]
                or _least_top(eng, _halfplane_keys(eng.at0, n, d)) != 2 * d * j + n * s):
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
# Staircase closed forms (independent of the homology engine)
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
    if any(not isinstance(a, int) or a < 1 for a in jumps):
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
    lines: the envelope's lines read at each takeover and at t = 2."""
    corners = staircase_corners(jumps)
    points = [(t, -2 * corners[i][1] - t * (corners[i][0] - corners[i][1]))
              for t, i in _corner_hull(corners)]
    return PLFunction((*points, (Fraction(2), Fraction(-2 * corners[-1][0]))))


_V_PARAMETER = "V takes an integer parameter"  # the one check of vk and staircase_vk


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
    t_star, s = _rat(t_star), _rat(s)
    kinks = {b.t: b for b in staircase_breaking_points(jumps)}
    if t_star not in kinks:
        raise ValueError(f"t = {t_star} is not a breaking point of this staircase")
    corners, kink = staircase_corners(jumps), kinks[t_star]
    n, m = corners[kink.i_minus]
    twice_peak = max(2 * corners[j + 1][1] + s * (corners[j][0] - corners[j + 1][1])
                     for j in range(kink.i_minus, kink.i_plus))
    return 2 * m + t_star * (n - m) - twice_peak


# ---------------------------------------------------------------------------
# V, nu+, d-invariants
# ---------------------------------------------------------------------------


def vk(k: KnotComplex, s: int) -> Fraction:
    """V(s) = -2 * region invariant of {A <= s} & {j <= 0}.

    A generator at (A, j) enters that region at t = max(A - s, j), so one
    `_least_top` reduction keyed by these integers gives the region
    invariant, with no region built.  Note the sign convention: V(0) of the
    positive trefoil is -2 here, i.e. -2 times the non-negative local h/V
    invariants common elsewhere.
    """
    s = _int(s, _V_PARAMETER)
    eng = _Engine.of(k)
    return Fraction(-2 * _least_top(eng, [max(a - s, j) for a, j in eng.at0]))


def nu_plus(k: KnotComplex) -> int:
    """The least s >= 0 with V(s) = 0, i.e. with a generating cycle in
    {A <= s} & {j <= 0}: one reduction keyed by (j > 0, A), as in `eta`.  Below
    A = 0 (no knot's case) the cycle may sit below j = 0 too; V(0) decides."""
    eng = _Engine.of(k)
    outside, a = _least_top(eng, [(j > 0, a) for a, j in eng.at0])
    if outside or a < 0 and vk(k, 0) != 0:
        raise ValueError("V(s) did not vanish up to the Alexander range; not knot-type?")
    return max(0, a)


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
    z0± and vectors spanning V±.  If z0+ + z0- reduces to zero against
    V+ + V-, the cosets intersect: no obstruction.  Otherwise the least t
    with z0+ + z0- a boundary of a chain in C+_{gamma+} ∪ C-_{gamma-} ∪ C_t
    comes from one scan of the degree-1 columns outside the first two, by
    entering time into C, which stops at the first column that closes the
    target.  Needs the filtration condition (ValueError otherwise;
    `validate_complex` checks it).
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

    gamma± comes from `_least_top`, and z± and the spanning vectors of V±
    from `_below` at gamma±; a basis column on the rows keyed at most gamma±
    on both sides is in both lists and is echelonized once.  A degree-1
    generator x that is not late (keyed at most gamma+ on the plus side, or
    at most gamma- on the minus side) has d1·x supported on rows keyed at
    most its own key, by the filtration condition, so d1·x already lies in
    V+ + V- and its column is skipped.  The target z+ + z- goes through
    `_echelonize` with one flag bit as companion: reduced to zero, it is no
    obstruction; otherwise it stays as a pivot with that flag.  The late
    columns follow, one position at a time by entering time into C (the
    columns of a position share their time): the first position with a
    column that reduces to zero with the flag set closes a sum of columns,
    all entered by its time, that is the target plus a vector of V+ + V-,
    so its entering time is the value.
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
    zp, span_p = _below(eng, keys_p, gp)
    zm, span_m = _below(eng, keys_m, gm)
    pivots: dict[int, tuple[int, int]] = {}
    _echelonize(pivots, ((v, 0) for v in dict.fromkeys(span_p + span_m)))  # shared columns once
    if _echelonize(pivots, ((zp ^ zm, 1),)):  # else the reduced target is stored, flagged
        return gp, gm, NO_OBSTRUCTION

    times_c, d = c
    late = [p for p, (kp, km) in enumerate(zip(keys1_p, keys1_m)) if kp > gp and km > gm]
    cols = eng.d1_cols
    for p in sorted(late, key=times_c.__getitem__):
        if any(_echelonize(pivots, [(cols[i], 0) for i in eng.gens1[p]])):
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
    H_s is keyed by its entering times over the slice-1 positions
    (`_halfplane_keys`), with no region built.  The side keys are packed in
    one int per position with one width for both slices (`_line_keys`,
    `_slope_bound`), and the two keys `_secondary` returns decode to the
    leading lines' values and slopes.
    """
    t_star, s = _kl_parameters(t_star, s)
    eng = _Engine.of(k)
    n, d = t_star.numerator, t_star.denominator
    h = _slope_bound(eng)
    sides = ([_line_keys(pos, n, d, sign, h) for pos in (eng.at0, eng.at1)] for sign in (1, -1))
    c = _halfplane_keys(eng.at1, s.numerator, s.denominator), 2 * s.denominator
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


def kim_livingston_oracle(k: KnotComplex, t_star, s, guard: int = 20) -> SecondaryValue:
    """Brute-force route to kim_livingston: the perturbed half-planes at an
    explicit width, from the oracle's own generator positions, and both the
    secondary invariant and the kink value from the enumerating oracles;
    nothing reads or builds the engine.  No breaking-point check (single-shot
    oracle)."""
    t_star, s = _kl_parameters(t_star, s)
    orc = _Oracle(k, guard, "brute_force_secondary")  # the guard names the enumeration
    delta = _kl_delta(_candidate_ts(orc.pos0), t_star)
    res = _brute_secondary(
        orc,
        upsilon_halfplane(t_star + delta),
        upsilon_halfplane(t_star - delta),
        upsilon_halfplane(s),
        guard,
    )
    if isinstance(res, NoObstructionType):
        return NO_OBSTRUCTION
    return -2 * (res - orc.upsilon(upsilon_halfplane(t_star)))


def _candidate_ts(positions) -> tuple[Fraction, ...]:
    """Candidate kink locations of t -> upsilon for generators at these (A, j)
    positions: every t in (0,2) where two generator lines (t/2)A + (1-t/2)j
    cross, plus the endpoints."""
    lines = {(a - j, j) for a, j in positions}  # L(t) = j + (t/2)(A - j)
    crossings = set()  # t = num / den in lowest terms, den > 0
    for (d1, j1), (d2, j2) in combinations(lines, 2):
        num, den = 2 * (j2 - j1), d1 - d2
        if den < 0:
            num, den = -num, -den
        if 0 < num < 2 * den:
            g = gcd(num, den)
            crossings.add((num // g, den // g))
    cands = {Fraction(0), Fraction(2)} | {Fraction(n, d) for n, d in crossings}
    return tuple(sorted(cands))


def _kl_delta(candidate_ts, t_star: Fraction) -> Fraction:
    """Perturbation width at t_star: half the gap to the nearest other
    candidate kink or interval endpoint (so no kink sits strictly between
    t_star - delta and t_star + delta)."""
    return min(abs(t_star - c) for c in candidate_ts if c != t_star) / 2


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
    """
    eng = _Engine.of(k)
    nums, d = entering_numerators(c, eng.at0)
    gamma = _least_top(eng, nums)
    keys = [(n > gamma, p[0]) for n, p in zip(nums, eng.at0)]
    outside, a = _least_top(eng, keys)
    if outside:
        raise AssertionError("eta: no generating cycle below the largest truncation")
    return a - Fraction(gamma, d)


# ---------------------------------------------------------------------------
# Brute-force oracles (independent enumeration; no engine data shared)
# ---------------------------------------------------------------------------


class _Oracle:
    """What the oracles read of a complex, built from the exported routes
    (`maslov_slice`, `boundary_matrix` and the nullspace route of
    `representative_cycle`): slice positions, the d1 columns, a generating
    cycle and a basis of the boundaries (at most `guard` vectors).  The d1
    columns are recomputed by name from the lattice generators and the
    arrows (`boundary_matrix`), and the positions and the cycle do not come
    from the engine either, so a fault in the engine's build (`_graded`) or
    its clearing cannot reach them."""

    def __init__(self, k: KnotComplex, guard: int, what: str):
        slice0 = maslov_slice(k, 0)
        index0 = {lg: i for i, lg in enumerate(slice0)}
        self.pos0 = [lg.pos for lg in slice0]
        self.pos1 = [lg.pos for lg in maslov_slice(k, 1)]
        self.d1_cols = _columns(boundary_matrix(k, 1))
        self.z_ref = _mask(index0[lg] for lg in representative_cycle(k))
        space = F2Space()
        self.basis = [col for col in self.d1_cols if space.add(col)]  # True if it grew
        if len(self.basis) > guard:
            raise GuardExceeded(
                f"{what}: boundary space dimension {len(self.basis)} exceeds guard {guard}; "
                "use the main engine"
            )

    def cycles(self):
        """Every generating cycle: z_ref + each element of span(basis)."""
        return _gray_sums(self.basis, self.z_ref)

    def upsilon(self, r: SouthWestRegion) -> Fraction:
        times = [entering_time(r, p) for p in self.pos0]
        return min(max(times[i] for i in _bits(z)) for z in self.cycles())


def _gray_sums(vectors, start: int = 0):
    """start plus each subset sum of vectors, in Gray-code order: step i
    flips the vector at the lowest set bit of i, so each sum is one XOR."""
    yield start
    for i in range(1, 1 << len(vectors)):
        start ^= vectors[(i & -i).bit_length() - 1]
        yield start


def brute_force_upsilon(k: KnotComplex, r: SouthWestRegion, guard: int = 20) -> Fraction:
    """Region invariant by enumerating every generating cycle.

    Minimum over the coset z_ref + B_0 of the maximal entering time over the
    support.  Exponential in dim B_0 (guarded); exact; shares no data and no
    code path with the engine beyond the echelon kernel.
    """
    return _Oracle(k, guard, "brute_force_upsilon").upsilon(r)


def brute_force_secondary(
    k: KnotComplex,
    cplus: SouthWestRegion,
    cminus: SouthWestRegion,
    c: SouthWestRegion,
    guard: int = 20,
) -> SecondaryValue:
    """Secondary invariant by enumerating cycle pairs and degree-1 subsets.

    Lists the exceptional cycles of C+ and C- by filtering the full generating
    coset; reports NoObstruction on overlap; otherwise scans the candidate
    translates in increasing order and, at each, enumerates every subset of
    the allowed degree-1 generators, comparing boundaries against all pair
    sums.  Exact and exponential (guarded).
    """
    return _brute_secondary(_Oracle(k, guard, "brute_force_secondary"), cplus, cminus, c, guard)


def _brute_secondary(orc: _Oracle, cplus, cminus, c, guard: int) -> SecondaryValue:
    gp = orc.upsilon(cplus)
    gm = orc.upsilon(cminus)
    mask_p = _mask(i for i, p in enumerate(orc.pos0) if entering_time(cplus, p) <= gp)
    mask_m = _mask(i for i, p in enumerate(orc.pos0) if entering_time(cminus, p) <= gm)
    zplus = []
    zminus = []
    for z in orc.cycles():
        if z & ~mask_p == 0:
            zplus.append(z)
        if z & ~mask_m == 0:
            zminus.append(z)
    if set(zplus) & set(zminus):
        return NO_OBSTRUCTION
    targets = {a ^ b for a in zplus for b in zminus}

    base = [entering_time(cplus, p) <= gp or entering_time(cminus, p) <= gm for p in orc.pos1]
    times_c = [entering_time(c, p) for p in orc.pos1]
    for t in sorted(set(times_c)):
        allowed = [j for j, (b, tc) in enumerate(zip(base, times_c)) if b or tc <= t]
        if len(allowed) > guard:
            raise GuardExceeded(
                f"brute_force_secondary: {len(allowed)} allowed degree-1 generators "
                f"exceed guard {guard}; use the main engine"
            )
        for bound in _gray_sums([orc.d1_cols[j] for j in allowed]):
            if bound in targets:  # not the empty sum 0: the cycle sets do not overlap
                return t
    raise AssertionError("brute_force_secondary: no candidate translate worked")
