"""Bifiltered chain complexes over F2[U, U^-1] of the kind knots produce.

A complex is presented combinatorially: finitely many base generators, each
carrying an integer bifiltration position (A, j) and an integer homological
(Maslov) grading M, together with differential arrows x -> U^m y.  The U
action shifts (A, j) by (-1, -1) and M by -2, so the full module is the free
F2[U, U^-1]-module on the base generators and every homologically graded
piece is a finite F2 vector space (one lattice generator per base generator
of matching Maslov parity).

"Knot-type" means the total homology is a single U-tower: H_0 = F2 (and hence
H_d = F2 for all even d by U-periodicity) and H_1 = 0.  That is the shape the
invariants in this package evaluate on.

Each complex gets one engine (`_Engine`, kept with it) from the graded layout
(`_graded`) and one clearing echelonization; `validate_complex` and every
invariant query read it.  The engine groups each slice's generators by
their (A, j) position, and both keyed reductions on it take one key per
slice-0 position: every key a query builds depends on a generator only
through its position, and the headline sum's 428 slice-0 generators sit at
150 positions.  `_least_top` answers every least-key question (the
tower's level here; Υ^C, the Υ sweep, V, ν⁺, η and both sides of the
secondary invariant in `invariants`) from the rows, position by position,
and stops at the answer.  Each row it reads is one int, the generator's
basis row shifted up a bit with its z_ref bit in bit 0, and its pivots sit
in a list by bit length, so an elimination step is one list read and one
XOR; the wide-companion eliminations (the engine build, `_below` and the
secondary invariant's column scan) stay on `_echelonize`'s pairs.
`_below` gives the secondary invariant, once that key is known, a
generating cycle on the rows keyed at most it and the boundaries there, by
eliminating only the rows keyed above it.  It answers in coordinates over
the engine's basis of im d1: for each d1 column, the basis columns that
sum to it (`coords`), read off the companions of the build's one
echelonization, so a boundary is a mask of column indices and the
secondary invariant never echelonizes a slice-0 vector.  The oracles
read none of the engine: `oracles` takes its positions, cycle and
differential from its own routes by name (`maslov_slice`,
`representative_cycle`, `boundary_matrix`).

Every named complex has one arrow layout, made once when the complex is
made: `_arranged` cancels and sorts the arrows and gives them by name (the
`arrows` field) and by generator index (`_index_arrows`, kept in the
instance dict).  The public `KnotComplex` constructor checks what it is
given and then arranges its arrows; it makes every complex but a
product, `mirror`'s included.  A product from `tensor` is the one other
kind: it keeps only the named leaves of its factor tree, as one flat
tuple; its names, generators and arranged arrows, those of the flat
product, wait for the first read of a field (`_named`, which lifts the leaves' arrows).
`_graded`, the engine's one build, lays out the slices of a complex from
those leaves, walking only the leaves' arrows, so a connected sum whose
invariants are computed is never named, no product arrow is lifted, and a
sum folded one summand at a time is read at any depth.  `_arrow_faults` is
the one check of the arrows' grading and filtration: `validate_complex`
reports every fault it yields, and only when some leaf has one does
`_graded` name the product, to raise at its first ill-graded arrow or
record its first unfiltered one.

JSON persistence (`to_json_dict`, `from_json_dict`, `save_complex`,
`load_complex`) and `add_box` live in `complexfiles`, which only the
commands that read a complex file (`file(...)`, `--complex-file`) load;
this module hands out their names on first use.
"""

from __future__ import annotations

from functools import cached_property
from math import prod

from . import _lazy
from .exact import _bits, _echelonize, _mask, _OrderedValue, _set, _transpose, _Value

# the names split off into `complexfiles` (see the module docstring)
__getattr__ = _lazy(globals(), {
    "complexfiles": ("add_box", "from_json_dict", "load_complex", "save_complex", "to_json_dict"),
})


class BaseGenerator(_OrderedValue):
    """A named generator at bifiltration (alexander, algebraic), grading maslov."""

    _fields = ("name", "alexander", "algebraic", "maslov")

    @property
    def pos(self) -> tuple[int, int]:
        return (self.alexander, self.algebraic)


class KnotComplex(_Value):
    """A combinatorial presentation: base generators plus arrows x -> U^m y.

    Arrows are stored as (source name, target name, upower) with multiplicity
    reduced mod 2.  Construction enforces structural sanity (unique string
    names, integer gradings, arrows are triples whose endpoints exist, integer
    U-powers); the homological conditions are checked by `validate_complex`,
    so that files describing broken complexes can still be loaded and
    reported on.

    The same arrows by generator index, in arrow order, stay in the instance
    dict (`_index_arrows`; equality, hash and repr read only the fields):
    `_arranged` makes both once, here.  This constructor makes every
    complex but a product, `mirror`'s and the builders' included.  A
    product made by `tensor` starts with neither field, only its flat
    tuple of named leaves (`_leaves`): the first read of `generators`, `arrows` or
    `_index_arrows` (through `__getattr__`, which Python calls only for an
    attribute the instance lacks) builds all three with `_named`.  The
    leaves stay, so a product of it is the same read or not.  Everything
    that reads a field, equality, hash and repr included, sees the same
    complex as the eager product of the leaves.
    """

    _fields = ("generators", "arrows")

    def __post_init__(self):
        gens = tuple(self.generators)
        for g in gens:
            if not isinstance(g, BaseGenerator):
                raise ValueError(f"generator must be a BaseGenerator: {_excerpt(g)}")
            if not isinstance(g.name, str):
                raise ValueError(f"generator name must be a string: {_excerpt(g._key())}")
            for x in (g.alexander, g.algebraic, g.maslov):
                if isinstance(x, bool) or not isinstance(x, int):
                    raise ValueError(f"generator gradings must be integers: {_excerpt(g._key())}")
        names = [g.name for g in gens]
        index = {name: i for i, name in enumerate(names)}
        if len(index) != len(names):
            raise ValueError("duplicate generator names")
        arrows = []
        for arrow in self.arrows:
            if not isinstance(arrow, (tuple, list)) or len(arrow) != 3:
                raise ValueError(
                    f"arrow must be a (source, target, U-power) triple: {_excerpt(arrow)}")
            src, dst, m = arrow
            if (s := index.get(src)) is None or (t := index.get(dst)) is None:
                raise ValueError(f"arrow endpoint not a generator: {_excerpt(arrow)}")
            if isinstance(m, bool) or not isinstance(m, int):
                raise ValueError(f"arrow U-power must be an integer: {_excerpt(arrow)}")
            arrows.append((s, t, m))
        arrows, index_arrows = _arranged(names, arrows)
        _set(self, "generators", gens)
        _set(self, "arrows", arrows)
        vars(self)["_index_arrows"] = index_arrows

    def __getattr__(self, name: str):
        lazy = vars(self)
        if name not in ("generators", "arrows", "_index_arrows") or "_leaves" not in lazy:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        generators, arrows, index_arrows = _named(lazy["_leaves"])
        _set(self, "generators", generators)
        _set(self, "arrows", arrows)
        lazy["_index_arrows"] = index_arrows
        return lazy[name]

    @property
    def by_name(self) -> dict[str, BaseGenerator]:
        return {g.name: g for g in self.generators}

    def arrows_from(self, name: str) -> list[tuple[str, int]]:
        return [(dst, m) for src, dst, m in self.arrows if src == name]


class ValidationReport(_Value):
    _fields = ("problems",)
    _defaults = ((),)

    @property
    def ok(self) -> bool:
        return not self.problems


def _graded(k: KnotComplex) -> tuple[tuple, tuple, tuple | None]:
    """The slices of Maslov grading 0 and 1 and the differential out of
    each: the engine's one build.

    positions[p] lists, in generator order, the (A - u, j - u) of U^u times
    each base generator of grading parity p, u = M // 2; columns[p] lists
    the differential of each of them, as a mask of slice 1 - p.  These are
    all the graded pieces: slice d is U^(-(d // 2)) times slice d % 2, and
    an arrow x -> U^m y drops the grading by one from every slice exactly
    when M(y) - 2m = M(x) - 1, so the grading-d differential is that of
    d % 2 and dim H_d is dim H_(d % 2).  The third value is the first arrow
    (src, dst, m), in arrow order, that increases the filtration (U^m y not
    coordinatewise at most x), or None.  Raises ValueError on the first
    arrow that breaks the grading.

    Built from the named leaves of k's factor tree, as `tensor` recorded
    them (any other complex is its own one leaf), folding from the last
    leaf: each step makes K ⊗ F from a leaf K and the product F of the
    leaves after it, as slices (the unit, one generator at 0, before the
    first step).  Generator (c, i) lies in slice p = (M_c + M_i) % 2 at
    index base_p[c] + rank(i): rank(i) is i's index in F's slice, and
    base_p[c] counts the slice-p generators of the blocks before c.  As d(c ⊗ i) = dc ⊗ i + c ⊗ di, its column is
    (Kb_{1-p}(c) << rank(i)) ^ (Fcol(i) << base_{1-p}[c]), with Fcol(i)
    F's column of i and Kb_q(c) one bit at base_q[t] per arrow c -> t of
    K.  So no product arrow is lifted or walked.  A lifted arrow keeps the
    grading and the filtration exactly when its leaf arrow does, so when
    every leaf passes `_arrow_faults` the product does.  Otherwise the
    product is named and walked through `_arrow_faults`, and its own layout
    is folded as one leaf: the layout never depends on the filtration, but
    ill-graded self-loops of two leaves can cancel in the product.
    """
    graded = [_graded_leaf(leaf) for leaf in vars(k).get("_leaves", (k,))]
    unfiltered = None
    if not all(sound for *_, sound in graded):
        for x, y, m, well_graded, _ in _arrow_faults(k):
            if not well_graded:
                raise ValueError(f"arrow {x.name} -> U^{m}·{y.name} does not drop Maslov grading by 1")
            if unfiltered is None:
                unfiltered = (x.name, y.name, m)
        graded = [_graded_leaf(k)]
    positions: tuple[list, list] = ([(0, 0)], [])
    columns: tuple[list, list] = ([0], [])
    for par, pos, arrows, _ in reversed(graded):
        base = ([], [])
        b0 = b1 = 0
        for e in par:  # block c holds F's slice q in slice q ^ M_c % 2
            base[0].append(b0)
            base[1].append(b1)
            b0 += len(positions[e])
            b1 += len(positions[1 - e])
        kb = ([0] * len(par), [0] * len(par))
        for s, t in arrows:
            kb[0][s] |= 1 << base[0][t]
            kb[1][s] |= 1 << base[1][t]
        product, product_columns = ([], []), ([], [])
        for c, ((a, j), e) in enumerate(zip(pos, par)):
            for p in (0, 1):
                q = p ^ e
                a_c, j_c = a - (e & q), j - (e & q)  # (M_c + M_i) // 2 carries when both are odd
                up, low = kb[1 - p][c], base[1 - p][c]
                product[p].extend([(a_c + b, j_c + k) for b, k in positions[q]])
                product_columns[p].extend([(up << r) ^ (col << low)
                                           for r, col in enumerate(columns[q])])
        positions, columns = product, product_columns
    return tuple(map(tuple, positions)), tuple(map(tuple, columns)), unfiltered


def _graded_leaf(k: KnotComplex) -> tuple:
    """A named leaf as `_graded` folds it: per generator its grading parity
    and its slice position (A - u, j - u), u = M // 2, its arrows as
    (source, target) index pairs, and whether no arrow breaks the grading
    or raises the filtration (`_arrow_faults` yields nothing)."""
    gens = k.generators
    return ([g.maslov % 2 for g in gens],
            [(g.alexander - g.maslov // 2, g.algebraic - g.maslov // 2) for g in gens],
            [(s, t) for s, t, _ in k._index_arrows],
            next(_arrow_faults(k), None) is None)


def _arrow_faults(k: KnotComplex):
    """Each arrow x -> U^m y of k, in arrow order, that breaks the grading
    (M(y) - 2m != M(x) - 1) or raises the filtration (U^m y not
    coordinatewise at most x), as (x, y, m, graded, filtered)."""
    gens = k.generators
    for s, t, m in k._index_arrows:
        x, y = gens[s], gens[t]
        graded = y.maslov - 2 * m == x.maslov - 1
        filtered = y.alexander - m <= x.alexander and y.algebraic - m <= x.algebraic
        if not (graded and filtered):
            yield x, y, m, graded, filtered


def _by_position(positions) -> tuple[tuple, tuple]:
    """The distinct positions, in order of first appearance, and for each
    the indices of the generators there, in generator order."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(positions):
        groups.setdefault(p, []).append(i)
    return tuple(groups), tuple(map(tuple, groups.values()))


class _Engine:
    """Since every key a query builds depends on a generator only through
    its position, the distinct positions of slices 0 and 1 (`at0`, `at1`)
    with the generators at each (`gens0`, `gens1`): queries key positions,
    not generators.  The degree-1 differential by columns (slice-0 masks,
    as `_graded` gives them), a basis of im d1 (`basis_cols`, as masks,
    with the bit of each one's column index in `basis_bits`), the
    companions of the other d1 columns at build (`dependent`) and the
    coordinates of every d1 column over the basis (`coords`), dim H_0 and
    dim H_1 (`h0`, `h1`, from clearing), the reference generating cycle
    z_ref (the first cycle that clearing leaves, or 0), the packed rows
    that `_least_top` reads (basis row and z_ref bit in one
    int), grouped by slice-0 position (`groups0`), the mask of each
    slice-0 position's generators (`masks0`), the first arrow that
    increases the filtration, or None (`unfiltered`), and the upsilon curve
    with its leading lines.  `of` builds it once per complex,
    for validation and queries alike, and keeps it in the complex's
    instance dict, so it lives exactly as long as the complex (KnotComplex
    equality, hash and repr read only fields).
    """

    def __init__(self, k: KnotComplex):
        (pos0, pos1), (d0_cols, self.d1_cols), self.unfiltered = _graded(k)
        self.at0, self.gens0 = _by_position(pos0)
        self.at1, self.gens1 = _by_position(pos1)
        # The d1 columns that stay independent in column order are a basis of
        # im d1.  Each stored pivot's companion is its own column's bit plus
        # bits of earlier basis columns, so its top bit names the column it
        # came from.  The other columns reduce to zero with such companions
        # (`dependent`), which give their coordinates (`coords`); a basis
        # column's coordinates are its own bit (`basis_bits`).
        tops: dict[int, tuple[int, int]] = {}
        self.dependent = _echelonize(tops, ((col, 1 << i) for i, col in enumerate(self.d1_cols)))
        kept = sorted(c.bit_length() - 1 for _, c in tops.values())
        self.basis_cols = tuple(self.d1_cols[i] for i in kept)
        self.basis_bits = tuple(map((1).__lshift__, kept))
        # Clearing: a d0 column at the leading row of a boundary tops a cycle,
        # so it is skipped, and the other columns still reach rank d0.  The
        # set of leading rows of im d1 does not depend on the basis, so each
        # column that reduces to zero tops a cycle that no sum of boundaries
        # and the other such cycles tops: the cycles are a basis of H_0.
        pivots: dict[int, tuple[int, int]] = {}
        cycles = _echelonize(
            pivots, ((col, 1 << j) for j, col in enumerate(d0_cols) if j not in tops)
        )
        self.h0, self.h1 = len(cycles), len(pos1) - len(self.basis_cols) - len(pivots)
        self.z_ref = cycles[0] if cycles else 0
        boundary = 0
        for j in _bits(self.z_ref):
            boundary ^= d0_cols[j]
        if boundary:
            raise AssertionError("engine build: the cleared generating cycle fails d0·z = 0")
        self.curve = None  # the upsilon curve and its lines, set by invariants.upsilon_function

    @cached_property
    def groups0(self) -> tuple:
        """Per slice-0 position, one packed row per generator there: its
        basis row (the mask of the basis columns through it, one transpose
        of `basis_cols`) shifted up one bit, with its z_ref bit in bit 0.
        These are the rows `_least_top` reads, built on first use."""
        rows, z_ref = _transpose(self.basis_cols, sum(map(len, self.gens0))), self.z_ref
        return tuple(tuple(rows[i] << 1 | (z_ref >> i & 1) for i in gens) for gens in self.gens0)

    @cached_property
    def coords(self) -> tuple:
        """Per d1 column, its coordinates over the basis of im d1: the mask
        of the indices of the basis columns that sum to it.  A basis
        column's is its own bit; a dependent column's is its `dependent`
        companion without its top bit, its own index.  Built on first use:
        only the secondary invariant reads them."""
        coords = list(map((1).__lshift__, range(len(self.d1_cols))))
        for c in self.dependent:
            top = c.bit_length() - 1
            coords[top] ^= c
        return tuple(coords)

    @cached_property
    def masks0(self) -> tuple:
        """Per slice-0 position, the mask of its generators: the rows that
        `_below` drops together, built on first use."""
        return tuple(map(_mask, self.gens0))

    @staticmethod
    def of(k: KnotComplex) -> "_Engine":
        eng = vars(k).get("_engine")
        if eng is None:
            eng = vars(k)["_engine"] = _Engine(k)
        return eng


def _least_top(eng: _Engine, keys: list):
    """The least, over all generating cycles, of the greatest key on a
    support, found from the rows, with one key per slice-0 position
    (`eng.at0`).

    Every generating cycle meets a row set S an odd number of times exactly
    when the sum of the basis rows of S is zero (it kills every boundary)
    and S meets z_ref oddly.  So the rows are echelonized by decreasing key,
    each with its z_ref bit as companion, and the first row to reduce to
    zero with companion 1 closes such an S whose least key is its own: every
    generating cycle reaches that key, and one stays at or below it, since
    no such S exists among the rows of greater key.  The rows after it are
    never read.  The positions go by decreasing key and the rows of each in
    turn (`eng.groups0`); rows of one position share its key, so their order
    cannot change the answer.

    The companion is one bit, so each row is packed with it in bit 0 and a
    pivot is one int: a packed row above 1 has a nonzero basis row whose
    leading bit is the packed row's, and 1 is a zero row with companion 1.
    The pivots sit in a list indexed by bit length (0 for none), so each
    elimination step is one list read and one XOR.  `_echelonize` keeps its
    (vector, companion) pairs in a dict: its companions are wide (column
    indices, coordinate masks), and packing them above the vector was slower.
    """
    if not eng.z_ref:
        raise ValueError("complex has no degree-0 homology generator (not knot-type)")
    groups = eng.groups0
    pivots = [0] * (len(eng.basis_cols) + 2)
    for p in sorted(range(len(keys)), key=keys.__getitem__, reverse=True):
        for v in groups[p]:  # `_echelonize` inlined: it stops at the answer
            while v > 1 and (pivot := pivots[v.bit_length()]):
                v ^= pivot
            if v > 1:
                pivots[v.bit_length()] = v
            elif v:
                return keys[p]
    raise AssertionError("least-top reduction: the generating cycle is a boundary")


def _below(eng: _Engine, keys: list, g) -> tuple[int, int, list[int]]:
    """A generating cycle supported on the rows keyed at most g, and the
    boundaries supported there, in coordinates over the engine's basis of
    im d1 (`eng.coords`: bit i stands for the d1 column i), with one key per
    slice-0 position (`eng.at0`); g is `_least_top`'s answer for these keys,
    or more.  Returns (c, unit, relations): the cycle is
    z_ref + Σ_{i∈c} d1_cols[i], and those boundaries are the span of the
    unit vectors in `unit` and of the coordinate vectors in `relations`.

    A sum of basis columns lies on those rows exactly when its part on the
    rows keyed above g (`high`) is zero.  So the basis columns with no high
    part are units (`unit`, a mask of their bits), and the other columns'
    high parts are echelonized, each with its coordinate bit as companion:
    the companions of those that reduce to zero are the relations (the basis
    columns are independent, so units and relations span the kernel of the
    restriction to the high rows).  Reducing z_ref's high part the same way,
    with a flag bit above every column index as companion (so that it is
    never empty), reduces it to zero and leaves the flag plus c.  No order
    of the rows is needed, so none is sorted and nothing is permuted.
    """
    high = 0
    for key, mask in zip(keys, eng.masks0):
        if key > g:
            high |= mask
    unit, pairs = 0, []
    for col, bit in zip(eng.basis_cols, eng.basis_bits):
        if col & high:
            pairs.append((col & high, bit))
        else:
            unit |= bit
    pivots: dict[int, tuple[int, int]] = {}
    relations = _echelonize(pivots, pairs)
    flag = 1 << len(eng.d1_cols)
    z = _echelonize(pivots, ((eng.z_ref & high, flag),))
    if not z:
        raise AssertionError("below reduction: no generating cycle stays on the rows keyed "
                             "at most the least top")
    return z[0] ^ flag, unit, relations


def validate_complex(k: KnotComplex) -> ValidationReport:
    """Check the knot-type conditions and report every violation found.

    Checks, in order: arrow grading and filtration legality (an arrow
    x -> U^m y must have M(y) - 2m = M(x) - 1 and position of U^m y
    coordinatewise <= position of x); d^2 = 0 over the ring; homology a
    single U-tower (dim H_0 = 1 and dim H_1 = 0, which by the periodicity of
    `_graded` pins every grading); and that tower generated at level 0 in
    each filtration, as every knot's is: over all generating cycles, the
    least greatest j and the least greatest A are both 0, which is
    Upsilon(0) = Upsilon(2) = 0.

    The arrow checks report every fault of `_arrow_faults`, which names
    generators only for the arrows it yields; d^2 terms are listed by
    (name, U-power).  The homology checks read the engine that later
    queries reuse: its clearing gives the ranks, and `_least_top` keyed by
    A and by j the level.
    """
    problems: list[str] = []
    for x, y, m, graded, filtered in _arrow_faults(k):
        if not graded:
            problems.append(f"arrow {x.name} -> U^{m}·{y.name} violates the Maslov convention")
        if not filtered:
            problems.append(f"arrow {x.name} -> U^{m}·{y.name} increases the filtration")
    gens = k.generators
    out: list[list[tuple[int, int]]] = [[] for _ in gens]  # (target, upower) per source
    for s, t, m in k._index_arrows:
        out[s].append((t, m))

    # d^2 = 0, tracked per (final target, total U-power): exact over the ring.
    for g, arrows in zip(gens, out):
        acc: set[tuple[int, int]] = set()
        for mid, m1 in arrows:
            for t, m2 in out[mid]:
                acc ^= {(t, m1 + m2)}
        if acc:
            terms = ", ".join(f"U^{m}·{name}" for name, m in sorted(
                (gens[t].name, m) for t, m in acc))
            problems.append(f"d^2({g.name}) = {terms} != 0")

    if problems:
        return ValidationReport(tuple(problems))

    eng = _Engine.of(k)
    if eng.h0 != 1:
        problems.append(f"dim H_0 = {eng.h0}, expected 1 (not a single U-tower)")
    if eng.h1 != 0:
        problems.append(f"dim H_1 = {eng.h1}, expected 0")
    if problems:
        return ValidationReport(tuple(problems))

    a, j = (_least_top(eng, [p[c] for p in eng.at0]) for c in (0, 1))
    if (a, j) != (0, 0):
        problems.append(f"H_0 is generated at filtration level (A, j) = ({a}, {j}), "
                        "expected (0, 0)")
    return ValidationReport(tuple(problems))


# The most generators `tensor` makes, or a complex file may hold.  Engine
# memory grows faster than the generator count: the 99,937 generators of
# T(20,19) # T(20,19) # T(38,37) took 21 s and 633 MB for the upsilon curve
# on a 2-core machine, and T(60,59) # T(60,59) # T(60,59) would ask for
# 1,601,613.
MAX_PRODUCT_GENERATORS = 100_000

# The most that one summand built by `zoo` may need: generators of a thin or
# pretzel staircase, and entries of the semigroup membership table that a
# torus or algebraic knot fills, one Python loop step each, before its
# staircase is known (T(1001,1000) fills 1,002,001 in about 1 s and 53 MB).
# Both are refused before anything is allocated.
MAX_ATOM_SIZE = 100_000


def tensor(*factors: KnotComplex) -> KnotComplex:
    """Tensor product over F2[U, U^-1] of any number of factors; models the
    connected sum.

    A generator picks one generator of each factor (in lexicographic order)
    and is named by their names, each escaped once (a backslash before any
    "\\" or "*") and joined by "*": "a*b" for two factors.  So names are
    injective and grow linearly with the number of factors.  Positions and
    gradings add, and the differential obeys the Leibniz rule.  A product
    factor counts as its own factors, so `tensor(tensor(a, b), c)` equals
    `tensor(a, b, c)`, names included; no factors give the unknot, as one
    generator named "".

    The product records only the named leaves of its factor tree (the
    factors' leaves, in order, as one flat tuple), naming none: the
    engine's build (`_graded`) and the size check read the leaves, so the
    invariants of a sum folded one summand at a time read its flat leaves
    and never name it.  The names, generators and arranged arrows are built
    on first read (`KnotComplex.__getattr__`, `_named`).  It is correct by
    construction (escaped names are injective), so nothing is checked then,
    and it equals the complex the public constructor makes from the same
    generators and arrows.  A product of more than `MAX_PRODUCT_GENERATORS`
    generators raises ValueError before anything is allocated.
    """
    leaves = tuple(leaf for k in factors for leaf in vars(k).get("_leaves", (k,)))
    size = prod(len(leaf.generators) for leaf in leaves)
    if size > MAX_PRODUCT_GENERATORS:
        raise ValueError(f"the connected sum has {size} generators, over the limit of "
                         f"{MAX_PRODUCT_GENERATORS}")
    product = object.__new__(KnotComplex)
    vars(product)["_leaves"] = leaves
    return product


def _named(factors: tuple) -> tuple[tuple, tuple, tuple]:
    """The generators, name arrows and index arrows of the product of these
    named factors, lifted one factor at a time by index arithmetic.  With n
    generators in the next factor, generator c and its generator i make
    c·n + i, named by `tensor`'s rule, whose (A, j, M) are the sums; an
    arrow s -> t lifts to s·n + i -> t·n + i, and a factor arrow a -> b to
    c·n + a -> c·n + b.  `_arranged` then sorts the arrows and cancels
    equal ones in pairs."""
    names, alexander, algebraic, maslov = [""], [0], [0], [0]
    arrows: list[tuple[int, int, int]] = []
    for f, k in enumerate(factors):
        gens = k.generators
        n = len(gens)
        escaped = [g.name.replace("\\", "\\\\").replace("*", "\\*") for g in gens]
        names = [prefix + "*" + e for prefix in names for e in escaped] if f else escaped
        arrows = [(s * n + i, t * n + i, u) for s, t, u in arrows for i in range(n)]
        arrows += [(c * n + x, c * n + y, u)
                   for c in range(len(alexander)) for x, y, u in k._index_arrows]
        alexander = [x + g.alexander for x in alexander for g in gens]
        algebraic = [x + g.algebraic for x in algebraic for g in gens]
        maslov = [x + g.maslov for x in maslov for g in gens]
    return (tuple(map(BaseGenerator, names, alexander, algebraic, maslov)),
            *_arranged(names, arrows))


def _arranged(names: list[str], arrows) -> tuple[tuple, tuple]:
    """Index arrows between generators with these (distinct) names, as
    every `KnotComplex` keeps them: sorted by (source name, target name,
    upower), with equal arrows cancelled in pairs.  Returns the name arrows
    and the index arrows, in the same order.  It is the one cancel-and-sort
    of arrows: the constructor (and so `mirror`) and a product's first
    read (`_named`) arrange theirs here.

    One sort ranks the names; the arrows then sort as integer triples
    (rank of source, rank of target, upower), which is their name order, and
    equal arrows end up adjacent."""
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    kept: list[tuple[int, int, int]] = []
    for arrow in sorted([(rank[s], rank[t], m) for s, t, m in arrows]):
        if kept and kept[-1] == arrow:  # F2 coefficients: equal arrows cancel
            kept.pop()
        else:
            kept.append(arrow)
    index_arrows = tuple([(order[s], order[t], m) for s, t, m in kept])
    return tuple([(names[s], names[t], m) for s, t, m in index_arrows]), index_arrows


def mirror(k: KnotComplex) -> KnotComplex:
    """The dual complex (mirror knot): negate (A, j, M), reverse all arrows.

    Reversing an arrow keeps its U-power; the grading and filtration
    conventions are preserved by the sign flips.  The result is made by the
    public constructor, which checks it and arranges its arrows.  The mirror
    of a product from `tensor` is the product of its mirrored leaves, which
    equals the mirror of the named product and names nothing.
    """
    if "_leaves" in vars(k):
        return tensor(*map(mirror, vars(k)["_leaves"]))
    gens = tuple(
        BaseGenerator(g.name, -g.alexander, -g.algebraic, -g.maslov) for g in k.generators
    )
    return KnotComplex(gens, tuple((dst, src, m) for src, dst, m in k.arrows))


def _excerpt(value) -> str:
    """repr(value), cut to at most 60 characters, so that an error message
    about untrusted input stays one short line."""
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."
