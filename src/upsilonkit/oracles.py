"""Brute-force oracles: the region and secondary invariants by enumeration.

`brute_force_upsilon` and `brute_force_secondary` recompute the quantities
of `invariants` by enumerating entire cycle cosets, as independent oracles in
the tests and under the command-line tool's `--check-oracle`.
`kim_livingston_oracle` reads both at an explicit perturbation width.  They
share the echelon kernel with the engine and nothing of its build: their d1
columns come from `boundary_matrix`, which recomputes the differential by
name from the lattice generators and the arrows, and their positions
(`maslov_slice`) and generating cycle (a nullspace, `representative_cycle`)
are their own.

Those routes by name, and the F2 matrices and spans they are read through
(`F2Matrix`, `F2Space`), live here too, since only the oracles and the tests
read them.  No command loads this module unless it is asked for an oracle
check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from .complexes import KnotComplex
from .exact import _bits, _echelonize, _mask, _OrderedValue, _transpose, _Value
from .invariants import (NO_OBSTRUCTION, GuardExceeded, NoObstructionType, SecondaryValue,
                         _kl_parameters)
from .regions import SouthWestRegion, entering_time, upsilon_halfplane

# ---------------------------------------------------------------------------
# F2 matrices and spans
# ---------------------------------------------------------------------------


def _parity(x: int) -> int:
    return x.bit_count() & 1


class F2Matrix:
    """A matrix over F2 with bit-packed rows.

    `rows[i]` is an int whose bit j is the (i, j) entry.  Vectors over the
    column space (solutions) and over the row space (right-hand sides) are
    likewise ints.
    """

    def __init__(self, nrows: int, ncols: int, rows: list[int] | tuple[int, ...]):
        if len(rows) != nrows:
            raise ValueError(f"expected {nrows} rows, got {len(rows)}")
        mask = (1 << ncols) - 1
        for r in rows:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside the column range")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = list(rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(format(r, f"0{self.ncols}b")[::-1] for r in self.rows)
        return f"F2Matrix({self.nrows}x{self.ncols}: {body})"

    def mat_vec(self, x: int) -> int:
        """Matrix-vector product: bit i of the result is <row_i, x>."""
        out = 0
        for i, row in enumerate(self.rows):
            if _parity(row & x):
                out |= 1 << i
        return out

    def rank(self) -> int:
        pivots: dict = {}
        _echelonize(pivots, ((row, 0) for row in self.rows))
        return len(pivots)

    def solve(self, b: int) -> int | None:
        """Solve A·x = b; return one solution as a column bitmask, or None.

        The right-hand side `b` is a bitmask over rows.  The solution is the
        one supported on the independent columns (each column not in the
        span of the earlier ones); it is re-multiplied through the matrix and
        checked before returning.
        """
        pivots: dict = {}
        _echelonize(pivots, ((col, 1 << j) for j, col in enumerate(_columns(self))))
        rest, x = _reduce_pair(pivots, b, 0)
        if rest:
            return None
        if self.mat_vec(x) != b:  # re-multiplication check
            raise AssertionError("F2 solve produced a non-solution")
        return x

    def nullspace(self) -> list[int]:
        """Basis of {x : A·x = 0}, as column bitmasks.

        One vector per column j in the span of the earlier columns: bit j
        plus the independent columns that sum to column j (the reduced
        echelon basis), in column order.
        """
        basis = _echelonize({}, ((col, 1 << j) for j, col in enumerate(_columns(self))))
        for v in basis:
            if self.mat_vec(v) != 0:
                raise AssertionError("F2 nullspace vector fails A·v = 0")
        return basis


def _reduce_pair(pivots: dict, v: int, c: int) -> tuple[int, int]:
    """Reduce v against `pivots` (leading bit -> (vector, companion)) until
    its leading bit has no pivot, XORing the companion c along with it: the
    one-vector step of `exact._echelonize`, for the kernels of this module."""
    while v and (pivot := pivots.get(v.bit_length() - 1)) is not None:
        v ^= pivot[0]
        c ^= pivot[1]
    return v, c


def _columns(m: F2Matrix) -> list[int]:
    """The columns of m as row masks."""
    return _transpose(m.rows, m.ncols)


class F2Space:
    """An incrementally built subspace of F2^n, for membership tests.

    Maintains an echelon basis keyed by leading bit.  `add` returns True if
    the vector enlarged the space.
    """

    def __init__(self, vectors: "tuple[int, ...] | list[int]" = ()):
        self._pivots: dict[int, tuple[int, int]] = {}
        _echelonize(self._pivots, ((v, 0) for v in vectors))

    def reduce(self, v: int) -> int:
        return _reduce_pair(self._pivots, v, 0)[0]

    def add(self, v: int) -> bool:
        return not _echelonize(self._pivots, ((v, 0),))

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def dim(self) -> int:
        return len(self._pivots)


# ---------------------------------------------------------------------------
# Lattice generators, slices and the differential, by name
# ---------------------------------------------------------------------------


class LatticeGenerator(_OrderedValue):
    """U^upower times a base generator: one F2 basis element of a graded piece."""

    _fields = ("base", "upower")

    @property
    def alexander(self) -> int:
        return self.base.alexander - self.upower

    @property
    def algebraic(self) -> int:
        return self.base.algebraic - self.upower

    @property
    def maslov(self) -> int:
        return self.base.maslov - 2 * self.upower

    @property
    def pos(self) -> tuple[int, int]:
        return (self.alexander, self.algebraic)

    def __str__(self) -> str:
        if self.upower == 0:
            return self.base.name
        return f"U^{self.upower}·{self.base.name}"


class Chain(_Value):
    """A formal F2 sum of lattice generators; + is symmetric difference."""

    _fields = ("gens",)

    def __add__(self, other: "Chain") -> "Chain":
        return Chain(self.gens ^ other.gens)

    def __iter__(self):
        return iter(sorted(self.gens))

    def __len__(self) -> int:
        return len(self.gens)

    def __bool__(self) -> bool:
        return bool(self.gens)


def maslov_slice(k: KnotComplex, d: int) -> tuple[LatticeGenerator, ...]:
    """All lattice generators of Maslov grading d, in generator order.

    Each base generator of matching Maslov parity contributes exactly one:
    U^((M-d)/2) of it.  Slices repeat with period two up to a U shift.
    """
    out = []
    for g in k.generators:
        if (g.maslov - d) % 2 == 0:
            out.append(LatticeGenerator(g, (g.maslov - d) // 2))
    return tuple(out)


def boundary_matrix(k: KnotComplex, d: int) -> F2Matrix:
    """The differential from the grading-d slice to the grading-(d-1) slice.

    Rows are indexed by the (d-1)-slice, columns by the d-slice; the matrix
    depends only on d % 2.  Requires every arrow to drop Maslov grading by
    exactly one (raise otherwise; run `validate_complex` first on untrusted
    input).

    Recomputed by name, from the lattice generators of both slices
    (`maslov_slice`) and the arrows: an arrow x -> U^m y takes U^u x to
    U^(u+m) y.  It reads no engine layout, so the oracles, which read it,
    check the engine's build.
    """
    by_name = k.by_name
    sources = {lg.base.name: (c, lg.upower) for c, lg in enumerate(maslov_slice(k, d))}
    targets = {lg: r for r, lg in enumerate(maslov_slice(k, d - 1))}
    rows = [0] * len(targets)
    for src, dst, m in k.arrows:
        x, y = by_name[src], by_name[dst]
        if y.maslov - 2 * m != x.maslov - 1:
            raise ValueError(f"arrow {src} -> U^{m}·{dst} does not drop Maslov grading by 1")
        if src in sources:
            c, u = sources[src]
            rows[targets[LatticeGenerator(y, u + m)]] ^= 1 << c
    return F2Matrix(len(rows), len(sources), rows)


def representative_cycle(k: KnotComplex) -> Chain:
    """A degree-0 cycle generating H_0 (any representative of the U-tower top).

    Found by taking a nullspace basis of the degree-0 differential and picking
    a member that is not a boundary; one exists whenever the complex is
    knot-type.
    """
    slice0 = maslov_slice(k, 0)
    d0 = boundary_matrix(k, 0)
    d1 = boundary_matrix(k, 1)
    boundaries = F2Space(_columns(d1))
    for z in d0.nullspace():
        if not boundaries.contains(z):
            return Chain(frozenset(slice0[i] for i in _bits(z)))
    raise ValueError("complex has no degree-0 homology generator (not knot-type)")


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
    crossings = {(0, 1), (2, 1)}  # t = num / den in lowest terms, den > 0
    for (d1, j1), (d2, j2) in combinations(lines, 2):
        num, den = 2 * (j2 - j1), d1 - d2
        if den < 0:
            num, den = -num, -den
        if 0 < num < 2 * den:
            g = gcd(num, den)
            crossings.add((num // g, den // g))
    if max(den for _, den in crossings) < 1 << 26:
        # two of these fractions in [0, 2] differ by more than 2^-52, the
        # spacing of floats in [1, 2), so their float quotients sort as they do
        return tuple([Fraction(n, d) for n, d in sorted(crossings, key=lambda c: c[0] / c[1])])
    return tuple(sorted(Fraction(n, d) for n, d in crossings))


def _kl_delta(candidate_ts, t_star: Fraction) -> Fraction:
    """Perturbation width at t_star: half the gap to the nearest other
    candidate kink or interval endpoint (so no kink sits strictly between
    t_star - delta and t_star + delta)."""
    return min(abs(t_star - c) for c in candidate_ts if c != t_star) / 2
