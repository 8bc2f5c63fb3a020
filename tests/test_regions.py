"""South-west regions, entering times, PL functions, and the region DSL."""

import random
from fractions import Fraction as F
from math import ceil, floor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from upsilonkit.regions import (
    MAX_NESTING,
    HalfPlane,
    PLFunction,
    RegionParseError,
    SouthWestRegion,
    _pl_at,
    contains,
    entering_numerators,
    entering_time,
    intersect,
    make_halfplane,
    parse_region,
    pl_add,
    pl_constant,
    pl_eval,
    pl_negate_scale,
    pl_singular_points,
    translate,
    truncate,
    union,
    upsilon_halfplane,
    v_region,
)


@st.composite
def fractions(draw, lo, hi, max_den):
    """The rationals in [lo, hi] with denominator at most max_den, the value
    set of `st.fractions(lo, hi, max_den)`, from two integer draws: those are
    several times cheaper to generate."""
    d = draw(st.integers(1, max_den))
    return F(draw(st.integers(ceil(lo * d), floor(hi * d))), d)


rationals = fractions(-50, 50, 8)
points = st.tuples(rationals, rationals)


@st.composite
def halfplanes(draw):
    alpha = draw(fractions(0, 1, 6))
    return make_halfplane(alpha, 1 - alpha, draw(rationals))


@st.composite
def regions(draw):
    r = draw(halfplanes())
    for _ in range(draw(st.integers(0, 3))):
        other = draw(halfplanes())
        r = union(r, other) if draw(st.booleans()) else intersect(r, other)
    return r


# ---------------------------------------------------------------------------
# construction and frozen entering times
# ---------------------------------------------------------------------------


def test_halfplane_normalization():
    r = make_halfplane(1, 1, 4)  # scales to alpha + beta = 1
    hp = r.atoms[0][0]
    assert (hp.alpha, hp.beta, hp.c) == (F(1, 2), F(1, 2), F(2))


def test_halfplane_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        make_halfplane(-1, 1, 0)
    with pytest.raises(ValueError):
        make_halfplane(0, 0, 1)


_HP = make_halfplane(1, 0, 0).atoms[0][0]
_NORMALIZED = "half-plane needs alpha, beta >= 0 with alpha + beta = 1"


@pytest.mark.parametrize("build, message", [
    # not normalized: the set of make_halfplane(2, 0, 2), but its translates
    # moved at half speed, so upsilon_region of T(3,2) gave -2 against -1
    (lambda: HalfPlane(F(2), F(0), F(2)), f"{_NORMALIZED}, got 2, 0"),
    (lambda: HalfPlane(F(1, 2), F(1, 3), F(0)), f"{_NORMALIZED}, got 1/2, 1/3"),
    # a negative coefficient: a set that is not south-west
    (lambda: HalfPlane(F(-1), F(2), F(0)), f"{_NORMALIZED}, got -1, 2"),
    (lambda: HalfPlane(F(1), F(0), 0.5), "expected an exact rational, got 0.5"),
    # a member that is not a HalfPlane failed later with AttributeError
    (lambda: SouthWestRegion(((_HP, (F(1), F(0), F(0))),)),
     "region atom member must be a HalfPlane: (Fraction(1, 1), Fraction(0, 1), Fraction(0, 1))"),
    (lambda: SouthWestRegion(((1,),)), "region atom member must be a HalfPlane: 1"),
])
def test_region_constructors_refuse_what_they_would_miscompute(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_upsilon_halfplane_domain():
    for t in (F(-1, 2), F(5, 2), 3):
        with pytest.raises(ValueError):
            upsilon_halfplane(t)
    assert upsilon_halfplane(0) == make_halfplane(0, 1, 0)
    assert upsilon_halfplane(2) == make_halfplane(1, 0, 0)


def test_frozen_entering_times():
    assert entering_time(upsilon_halfplane(F(2, 3)), (5, 0)) == F(5, 3)
    assert entering_time(upsilon_halfplane(1), (3, 1)) == 2
    assert entering_time(v_region(2), (5, 1)) == 3
    assert entering_time(truncate(upsilon_halfplane(F(2, 3)), 2), (5, 0)) == 3
    assert entering_time(union(v_region(0), v_region(3)), (5, 1)) == 2


def test_contains_matches_entering_time():
    r = v_region(1)
    assert contains(r, (1, 0), 0)
    assert not contains(r, (2, 0), 0)
    assert contains(r, (2, 0), 1)


def _random_region(rng, depth=2):
    """H, Q and hp atoms with rational coefficients and signed c, combined by
    union, intersect, translate and truncate."""
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
    r = _random_region(rng, depth - 1)
    if kind == "union":
        return union(r, _random_region(rng, depth - 1))
    if kind == "intersect":
        return intersect(r, _random_region(rng, depth - 1))
    if kind == "translate":
        return translate(r, rat())
    return truncate(r, rat())


def test_entering_numerators_match_entering_time():
    rng = random.Random(11)
    for _ in range(200):
        r = _random_region(rng)
        pts = [(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(rng.randint(0, 12))]
        nums, d = entering_numerators(r, pts)
        assert isinstance(d, int) and d > 0
        assert len(nums) == len(pts)
        for n, p in zip(nums, pts):
            assert isinstance(n, int)
            assert F(n, d) == entering_time(r, p)


# ---------------------------------------------------------------------------
# region algebra laws
# ---------------------------------------------------------------------------


@given(regions(), regions(), points)
def test_union_is_min(r1, r2, p):
    assert entering_time(union(r1, r2), p) == min(entering_time(r1, p), entering_time(r2, p))


@given(regions(), regions(), points)
def test_intersect_is_max(r1, r2, p):
    assert entering_time(intersect(r1, r2), p) == max(
        entering_time(r1, p), entering_time(r2, p)
    )


@given(regions(), rationals, points)
def test_translate_shifts(r, t, p):
    assert entering_time(translate(r, t), p) == entering_time(r, p) - t


@given(regions(), rationals, points)
def test_truncate_is_alexander_cap(r, x, p):
    assert entering_time(truncate(r, x), p) == max(entering_time(r, p), p[0] - x)


@given(regions(), regions())
def test_union_commutes(r1, r2):
    assert union(r1, r2) == union(r2, r1)
    assert intersect(r1, r2) == intersect(r2, r1)


# ---------------------------------------------------------------------------
# PL functions
# ---------------------------------------------------------------------------


def test_pl_canonicalization_merges_collinear():
    f = PLFunction(((F(0), F(0)), (F(1), F(1)), (F(2), F(2))))
    assert f.points == ((F(0), F(0)), (F(2), F(2)))


def test_pl_requires_increasing_breakpoints():
    with pytest.raises(ValueError):
        PLFunction(((F(1), F(0)), (F(0), F(0))))
    with pytest.raises(ValueError):
        PLFunction(((F(0), F(0)),))


def test_pl_eval_and_domain():
    hat = PLFunction(((F(0), F(0)), (F(1), F(-1)), (F(2), F(0))))
    assert pl_eval(hat, F(1, 2)) == F(-1, 2)
    assert pl_eval(hat, 1) == -1
    assert pl_eval(hat, 2) == 0
    with pytest.raises(ValueError):
        pl_eval(hat, F(5, 2))
    with pytest.raises(ValueError):
        pl_eval(hat, -1)


def test_pl_add_and_scale():
    hat = PLFunction(((F(0), F(0)), (F(1), F(-1)), (F(2), F(0))))
    zero = pl_add(hat, pl_negate_scale(hat, -1))
    assert zero == pl_constant(0)
    doubled = pl_add(hat, hat)
    assert pl_eval(doubled, 1) == -2


def test_pl_singular_points_of_hat():
    hat = PLFunction(((F(0), F(0)), (F(1), F(-1)), (F(2), F(0))))
    assert pl_singular_points(hat) == [(F(1), F(2))]
    assert pl_singular_points(pl_constant(5)) == []


@st.composite
def pl_functions(draw):
    n = draw(st.integers(0, 4))
    ts = sorted(set(draw(st.lists(fractions(F(1, 8), F(15, 8), 8), max_size=n))))
    xs = [F(0), *ts, F(2)]
    ys = [draw(rationals) for _ in xs]
    return PLFunction(tuple(zip(xs, ys)))


@given(pl_functions(), pl_functions(), fractions(0, 2, 16))
def test_pl_add_is_pointwise(f, g, t):
    assert pl_eval(pl_add(f, g), t) == pl_eval(f, t) + pl_eval(g, t)


def test_pl_walk_matches_pl_eval():
    # `_pl_at` reads a function at increasing abscissae in one walk: at its
    # breakpoints, between them and at both ends of the domain, it gives
    # the value on a segment through each, interpolated here (`pl_eval`
    # reads the walk too); and `pl_add` equals the sum read off `pl_eval`
    # at every breakpoint of either function
    rng = random.Random(2718)

    def on_segment(f, t):
        (t0, v0), (t1, v1) = next((p, q) for p, q in zip(f.points, f.points[1:])
                                  if p[0] <= t <= q[0])
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def draw():
        inner = {F(rng.randint(1, 47), 24) for _ in range(rng.randint(0, 6))}
        xs = [F(0), *sorted(inner), F(2)]
        return PLFunction(tuple((x, F(rng.randint(-9, 9), rng.randint(1, 4))) for x in xs))

    for _ in range(60):
        f, g = draw(), draw()
        ts = sorted({t for t, _ in f.points} | {F(rng.randint(0, 60), 30) for _ in range(5)})
        assert _pl_at(f, ts) == [on_segment(f, t) for t in ts] == [pl_eval(f, t) for t in ts]
        knots = sorted({t for t, _ in f.points} | {t for t, _ in g.points})
        assert pl_add(f, g) == PLFunction(tuple((t, pl_eval(f, t) + pl_eval(g, t)) for t in knots))


@given(pl_functions(), rationals, fractions(0, 2, 16))
def test_pl_negate_scale_is_pointwise(f, c, t):
    assert pl_eval(pl_negate_scale(f, c), t) == c * pl_eval(f, t)


# ---------------------------------------------------------------------------
# the DSL
# ---------------------------------------------------------------------------


def test_parse_atoms():
    assert parse_region("H(2/3)") == upsilon_halfplane(F(2, 3))
    assert parse_region("Q(2)") == v_region(2)
    assert parse_region("hp(1/4, 3/4, 1)") == make_halfplane(F(1, 4), F(3, 4), 1)
    assert parse_region("trunc(H(1), 3)") == truncate(upsilon_halfplane(1), 3)
    assert parse_region(" ( H( 1 ) ) ") == upsilon_halfplane(1)


def test_parse_precedence_intersection_binds_tighter():
    got = parse_region("Q(2) | hp(1/4,3/4,1) & H(1)")
    expected = union(v_region(2), intersect(make_halfplane(F(1, 4), F(3, 4), 1),
                                            upsilon_halfplane(1)))
    assert got == expected


def test_parse_nested():
    got = parse_region("trunc(H(2/3) | Q(0), 5) & H(1)")
    expected = intersect(
        truncate(union(upsilon_halfplane(F(2, 3)), v_region(0)), 5),
        upsilon_halfplane(1),
    )
    assert got == expected


REGION_PARSE_ERRORS = [  # (text, least position of its error)
    ("", 0),
    ("H", 1),
    ("H(3)", 0),  # domain error attributed to the atom
    ("hp(-1,1,0)", 0),
    ("H(1/0)", 2),
    ("H(2/3) Q(1)", 7),
    ("H(2/3) |", 8),
    ("frob(1)", 0),
    ("Q(1))", 4),
]


@pytest.mark.parametrize("text,pos_ge", REGION_PARSE_ERRORS)
def test_parse_errors_carry_positions(text, pos_ge):
    with pytest.raises(RegionParseError) as exc:
        parse_region(text)
    assert exc.value.position >= pos_ge
    assert "position" in str(exc.value)


@pytest.mark.parametrize("dsl, text, position", [
    ("knot", "T(٣,2)", 2), ("knot", "T(3,2)#T(٥,2)", 9), ("region", "H(١/٢)", 2)])
def test_only_ascii_digits_are_digits(dsl, text, position):
    # both DSLs scan a number as a run of 0-9: other Unicode digits, which
    # `int` and `Fraction` would read, are a parse error at the number
    from upsilonkit.cli import KnotParseError, parse_knot_expr
    parse, error = {"knot": (parse_knot_expr, KnotParseError),
                    "region": (parse_region, RegionParseError)}[dsl]
    with pytest.raises(error) as exc:
        parse(text)
    assert exc.value.position == position


def test_parse_rejects_nesting_past_the_cap():
    # a parse error, not a RecursionError
    for wrap in (lambda r: f"({r})", lambda r: f"trunc({r}, 3)"):
        text = "H(1)"
        for _ in range(MAX_NESTING):
            text = wrap(text)
        assert parse_region(text) == parse_region(wrap("H(1)"))
        with pytest.raises(RegionParseError, match="nesting deeper than 100 levels"):
            parse_region(wrap(text))


@given(regions())
def test_union_intersect_idempotent(r):
    p = (F(1), F(0))
    assert entering_time(union(r, r), p) == entering_time(r, p)
    assert entering_time(intersect(r, r), p) == entering_time(r, p)
