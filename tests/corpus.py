"""The shared test corpus: the input builders of the test modules, seeded
random knots, regions and complexes among them, `examples`, the seeded draws
of the property tests, `profile`, every engine query on one complex, and
`run_main`, the command line run in-process.

pytest does not collect this module; the test modules import it.  Each
builder makes fresh complexes on every call, since several tests count
`_graded` or kernel calls and an engine cached on a shared complex would
leak between them.  A random builder draws from the rng it is given, always
in the same order, so a test's seed fixes its inputs.
"""

import random
from fractions import Fraction as F
from math import ceil, floor, gcd, prod

from upsilonkit import cli, complexes
from upsilonkit.complexes import BaseGenerator, KnotComplex, add_box, mirror, tensor
from upsilonkit.invariants import (
    breaking_points,
    d_invariant,
    eta,
    kim_livingston,
    nu_plus,
    secondary,
    upsilon_function,
    upsilon_region,
    vk,
)
from upsilonkit.oracles import maslov_slice
from upsilonkit.regions import (
    intersect,
    make_halfplane,
    translate,
    truncate,
    union,
    upsilon_halfplane,
    v_region,
)
from upsilonkit.zoo import jumps_from_semigroup, semigroup_from_generators, torus_knot

# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------


def examples(seed, *makers, n=100):
    """n draws from `random.Random(seed)`, each a tuple of one value of each
    maker, a function of the rng, made in order."""
    rng = random.Random(seed)
    for _ in range(n):
        yield tuple(make(rng) for make in makers)


def fraction(rng, lo, hi, max_den):
    """A rational in [lo, hi] with denominator at most max_den, any of them
    drawable, the bounds included."""
    d = rng.randint(1, max_den)
    return F(rng.randint(ceil(lo * d), floor(hi * d)), d)


# ---------------------------------------------------------------------------
# fixed knots and complexes
# ---------------------------------------------------------------------------


def trefoil_by_hand():
    """T(3,2) written out: x0 at (1, 0) and x1 at (0, 1), both hit by y0."""
    return KnotComplex(
        (
            BaseGenerator("x0", 1, 0, 0),
            BaseGenerator("x1", 0, 1, 0),
            BaseGenerator("y0", 1, 1, 1),
        ),
        (("y0", "x0", 0), ("y0", "x1", 0)),
    )


def starry_trefoil():
    """`trefoil_by_hand` with names that hold "*" and "\\", as a product's do."""
    return renamed(trefoil_by_hand(), {"x0": "a*", "x1": "b\\", "y0": "\\*c*\\"}.__getitem__)


def boxed_knots():
    """Three small knots with one or two acyclic squares added."""
    return [add_box(torus_knot(4, 3), (1, -2), -1), add_box(mirror(torus_knot(5, 2)), (-3, 0), 1),
            add_box(add_box(torus_knot(3, 2), (0, 0), -3), (2, 2), 2)]


def torus_pairs(n):
    """The (p, q) of the torus knots with 2 <= q < p < n, by p and then q."""
    return [(p, q) for p in range(3, n) for q in range(2, p) if gcd(p, q) == 1]


def torus_jumps(p, q):
    """The staircase jumps of T(p, q)."""
    return jumps_from_semigroup(semigroup_from_generators((p, q)))


def headline():
    """The headline sum T(8,5) # -T(6,5) # -T(4,3): 855 generators."""
    return tensor(torus_knot(8, 5), mirror(torus_knot(6, 5)), mirror(torus_knot(4, 3)))


def shifted(k, da, dj, dm=0):
    """k with every generator moved by (da, dj) in (A, j) and by dm in the
    Maslov grading."""
    return KnotComplex(tuple(BaseGenerator(g.name, g.alexander + da, g.algebraic + dj,
                                           g.maslov + dm) for g in k.generators), k.arrows)


def renamed(k, rename):
    """k with each generator name n replaced by rename(n)."""
    return KnotComplex(
        tuple(BaseGenerator(rename(g.name), g.alexander, g.algebraic, g.maslov)
              for g in k.generators),
        tuple((rename(src), rename(dst), m) for src, dst, m in k.arrows),
    )


# Names that sort below "*", prefixes of each other, "*", "\\" and the empty name.
AWKWARD_NAMES = ["", " ", "!", ")", "a", "a!", "ab", "*", "\\", "a*", "\\*", "b )"]


def awkwardly_named(k):
    """k with its generators renamed, in order, to `AWKWARD_NAMES` and then
    to those names followed by 1, 2, ...: distinct, since no awkward name
    holds a digit."""
    n = len(AWKWARD_NAMES)
    names = {g.name: AWKWARD_NAMES[i % n] + (str(i // n) if i >= n else "")
             for i, g in enumerate(k.generators)}
    return renamed(k, names.__getitem__)


def basis_change(k, rng, moves):
    """k after `moves` seeded changes of basis x -> x + U^m·y, with
    M(y) - 2m = M(x) and U^m·y at or below x in both filtrations, and the
    differential rewritten in the new basis.  Each is a bifiltered, graded
    isomorphism, so no invariant may change; unlike `add_box`, it scrambles
    the arrows of the generators already there."""
    gens = k.generators
    d = {g.name: set() for g in gens}  # name -> {(target, U-power)}
    for src, dst, m in k.arrows:
        d[src] ^= {(dst, m)}
    legal = [(x.name, y.name, m) for x in gens for y in gens if x is not y
             for m, odd in [divmod(y.maslov - x.maslov, 2)]
             if not odd and y.alexander - m <= x.alexander and y.algebraic - m <= x.algebraic]
    for x, y, m in (rng.choice(legal) for _ in range(moves)):
        # d(x + U^m·y) = dx + U^m·dy, and a term U^i·x elsewhere is now
        # U^i·(x + U^m·y) + U^(i+m)·y; neither dx nor dy has an x term.
        d[x] ^= {(t, i + m) for t, i in d[y]}
        for targets in d.values():
            for i in [i for t, i in targets if t == x]:
                targets ^= {(y, i + m)}
    return KnotComplex(gens, tuple((src, dst, i) for src, targets in d.items() for dst, i in targets))


# ---------------------------------------------------------------------------
# seeded random knots and complexes
# ---------------------------------------------------------------------------


def random_sum(rng):
    """A sum of 1-3 small torus knots or mirrors, with 0-2 acyclic squares,
    small enough that the oracles stay under their guard."""
    parts = [(3, 2), (5, 2), (4, 3)]
    while True:
        chosen = [rng.choice(parts) for _ in range(rng.randint(1, 3))]
        size = 1
        for p, q in chosen:
            size *= p if q == 2 else 5
        if size <= 27:
            break
    k = None
    for p, q in chosen:
        part = torus_knot(p, q) if rng.random() < 0.5 else mirror(torus_knot(p, q))
        k = part if k is None else tensor(k, part)
    return _with_boxes(k, rng)


_TORUS_PARTS = [(3, 2), (5, 2), (7, 2), (4, 3), (5, 3), (7, 3), (5, 4)]


def random_torus_sum(rng):
    """A sum of 1-3 torus knots or mirrors (at most 250 generators), with 0-2
    acyclic squares."""
    while True:
        summands = [torus_knot(*rng.choice(_TORUS_PARTS)) for _ in range(rng.randint(1, 3))]
        k = tensor(*(c if rng.random() < 0.5 else mirror(c) for c in summands))
        if len(k.generators) <= 250:
            return _with_boxes(k, rng)


def torus_sum_of_two_or_three(rng):
    """A sum of 2-3 torus knots or mirrors, of at most 250 generators."""
    while True:
        summands = [torus_knot(*rng.choice(_TORUS_PARTS)) for _ in range(rng.randint(2, 3))]
        if prod(len(c.generators) for c in summands) <= 250:
            return tensor(*(c if rng.random() < 0.5 else mirror(c) for c in summands))


def _with_boxes(k, rng):
    """k with 0-2 random acyclic squares added near the origin."""
    for _ in range(rng.randint(0, 2)):
        k = add_box(k, (rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-2, 2))
    return k


def two_summand_sum(rng):
    """A sum of two torus knots or mirrors with p <= 7: at most 49 generators."""
    parts = [(3, 2), (5, 2), (4, 3), (5, 3), (7, 2)]
    summands = [torus_knot(*rng.choice(parts)) for _ in range(2)]
    return tensor(*(c if rng.random() < 0.5 else mirror(c) for c in summands))


def metamorphic_knots(rng):
    """Six seeded two-summand torus sums and the mirrors of the first two."""
    knots = [two_summand_sum(rng) for _ in range(6)]
    return knots + [mirror(k) for k in knots[:2]]


def random_complex(rng):
    """1-7 generators at A, j, M in {0, 1} and random arrows, nearly all of
    them legal in grading and filtration, so that the complexes fail every
    check that `validate_complex` makes, and some pass them all."""
    n = rng.randint(1, 7)
    gens = [BaseGenerator(f"g{i}", *(rng.randint(0, 1) for _ in range(3))) for i in range(n)]
    arrows = []
    for _ in range(rng.randint(n // 2, 2 * n)):
        x, y = rng.choice(gens), rng.choice(gens)
        m = (y.maslov - x.maslov + 1) // 2  # drops the grading by one if the parities differ
        legal = ((y.maslov - x.maslov) % 2 and y.alexander - m <= x.alexander
                 and y.algebraic - m <= x.algebraic)
        if legal or rng.random() < 0.1:
            arrows.append((x.name, y.name, m))
    return KnotComplex(tuple(gens), tuple(arrows))


def random_small_complex(rng):
    """1-4 generators named from `AWKWARD_NAMES` at random positions and
    gradings, with random arrows: self-loops, ill-graded and
    filtration-increasing ones included."""
    names = rng.sample(AWKWARD_NAMES, rng.randint(1, 4))
    gens = tuple(BaseGenerator(n, rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2))
                 for n in names)
    arrows = []
    for _ in range(rng.randint(0, 3)):
        x = rng.choice(gens)
        graded = [g for g in gens if (g.maslov - x.maslov) % 2]  # some U-power grades x -> g
        if graded and rng.random() < 0.85:
            y = rng.choice(graded)
            m = (y.maslov - x.maslov + 1) // 2
        else:
            y, m = rng.choice(gens), rng.randint(-1, 1)
        arrows.append((x.name, y.name, m))
    return KnotComplex(gens, tuple(arrows))


# ---------------------------------------------------------------------------
# seeded random regions
# ---------------------------------------------------------------------------


def random_region(rng):
    """H(t) for t in sixths, Q(s), an integer half-plane, H(t) ∪ Q(s) or a
    truncated H(t), with small integer parameters."""
    kind = rng.choice(("H", "Q", "hp", "union", "trunc"))
    if kind == "H":
        return upsilon_halfplane(F(rng.randint(0, 12), 6))
    if kind == "Q":
        return v_region(rng.randint(-2, 2))
    if kind == "hp":
        return make_halfplane(rng.randint(0, 3), rng.randint(1, 3), rng.randint(-2, 2))
    if kind == "union":
        return union(upsilon_halfplane(F(rng.randint(0, 8), 4)), v_region(rng.randint(-2, 2)))
    return truncate(upsilon_halfplane(F(rng.randint(0, 8), 4)), rng.randint(-1, 3))


def any_region(rng):
    """A region of `random_region`'s kinds, or an intersection or a
    translate of them."""
    kind = rng.randrange(3)
    if kind == 0:
        return random_region(rng)
    if kind == 1:
        return intersect(random_region(rng), random_region(rng))
    return translate(random_region(rng), F(rng.randint(-6, 6), 4))


def random_nested_region(rng, depth=2):
    """H, Q and hp atoms with rational coefficients and signed c, combined by
    union, intersect, translate and truncate, nested up to `depth` deep."""
    def rat():
        return F(rng.randint(-12, 12), rng.randint(1, 6))

    kind = rng.choice(("H", "Q", "hp") + ("union", "intersect", "translate", "trunc") * (depth > 0))
    if kind == "H":
        return upsilon_halfplane(F(rng.randint(0, 12), 6))
    if kind == "Q":
        return v_region(rat())
    if kind == "hp":
        return make_halfplane(F(rng.randint(0, 5), rng.randint(1, 4)),
                              F(rng.randint(1, 5), rng.randint(1, 4)), rat())
    r = random_nested_region(rng, depth - 1)
    if kind == "union":
        return union(r, random_nested_region(rng, depth - 1))
    if kind == "intersect":
        return intersect(r, random_nested_region(rng, depth - 1))
    if kind == "translate":
        return translate(r, rat())
    return truncate(r, rat())


# ---------------------------------------------------------------------------
# reference routes and outcomes
# ---------------------------------------------------------------------------


def slice_columns(k, d):
    """The grading-d differential by columns, read off the lattice generators
    of slices d and d - 1 and the arrows alone."""
    rows = {(lg.base.name, lg.upower): i for i, lg in enumerate(maslov_slice(k, d - 1))}
    return [sum(1 << rows[dst, lg.upower + m] for src, dst, m in k.arrows if src == lg.base.name)
            for lg in maslov_slice(k, d)]


def refuse(patch, owner, names, message):
    """Patch each of the space-separated `names` of `owner`, a module or a
    class, to raise AssertionError(message) when it is called."""
    def refused(*args, **kwargs):
        raise AssertionError(message)

    for name in names.split():
        patch.setattr(owner, name, refused)


def run_main(argv):
    """The exit code of `cli.main(argv)`, run in-process; `--help` exits
    through SystemExit, whose code it gives."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code


def outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return type(e), str(e)


# ---------------------------------------------------------------------------
# every engine query on one complex
# ---------------------------------------------------------------------------


def least_q(*knots):
    """The least surgery coefficient q >= 3 that `d_invariant` accepts on
    every one of the knots: q >= 2g - 1, with g the largest Alexander grading
    of slice 0, as `d_invariant` reads it."""
    g = max(a for k in knots for a, _ in complexes._Engine.of(k).at0)
    return max(3, 2 * g - 1)


def profile(k, regions, triples, q):
    """Every engine query type on k, by name: the Upsilon curve and its
    breaking points; V(s) for s in -2..4, nu+ and d(q, m) for each m in
    -2..4 with -q <= 2m < q; Upsilon^C and eta on each region; `secondary`
    on each triple; and Kim-Livingston at every breaking point t*, for s in
    {0, t*, 1, 2}.  It draws nothing, and it lets every exception through."""
    curve, points = upsilon_function(k), breaking_points(k)
    return {
        "curve": curve,
        "breaking points": points,
        "V": [vk(k, s) for s in range(-2, 5)],
        "nu+": nu_plus(k),
        "d": [d_invariant(k, q, m) for m in range(-2, 5) if -q <= 2 * m < q],
        "Upsilon^C and eta": [(upsilon_region(k, r), eta(k, r)) for r in regions],
        "secondary": [secondary(k, *triple) for triple in triples],
        "Kim-Livingston": [kim_livingston(k, bp.t, s) for bp in points
                           for s in sorted({F(0), bp.t, F(1), F(2)})],
    }
