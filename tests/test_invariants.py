"""Invariant engines: frozen values, closed-form agreement, oracle agreement.

Values marked "desk" below were derived by hand from the staircase corner
formulas before the engines existed, and are frozen here as oracles.
"""

import gc
import random
import weakref
from fractions import Fraction as F
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upsilonkit import complexes, invariants, oracles, regions
from upsilonkit.complexes import (
    BaseGenerator,
    KnotComplex,
    add_box,
    mirror,
    tensor,
    validate_complex,
)
from upsilonkit.exact import _bits, _echelonize, _mask, _transpose
from upsilonkit.invariants import (
    NO_OBSTRUCTION,
    BreakingPoint,
    GuardExceeded,
    NoObstructionType,
    NotABreakingPoint,
    breaking_points,
    check_jumps,
    d_invariant,
    eta,
    h0_surjective,
    kim_livingston,
    nu_plus,
    secondary,
    staircase_breaking_points,
    staircase_corners,
    staircase_kl,
    staircase_upsilon,
    staircase_vk,
    upsilon_at,
    upsilon_function,
    upsilon_region,
    vk,
)
from upsilonkit.oracles import (
    F2Space,
    _columns,
    _reduce_pair,
    boundary_matrix,
    brute_force_secondary,
    brute_force_upsilon,
    kim_livingston_oracle,
    maslov_slice,
    representative_cycle,
)
from upsilonkit.regions import (
    PLFunction,
    entering_time,
    intersect,
    make_halfplane,
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
from upsilonkit.zoo import (
    Semigroup,
    eta_closed_form,
    fk_upsilon,
    jumps_from_semigroup,
    n_of_semigroup,
    pretzel,
    semigroup_from_generators,
    staircase_from_jumps,
    thin_model,
    torus_knot,
    unknot,
)
from upsilonkit.reports import thin_kl_closed, thin_three_param


def torus_jumps(p, q):
    return jumps_from_semigroup(semigroup_from_generators((q, p)))


SMALL_ZOO = [
    unknot(),
    torus_knot(3, 2),
    torus_knot(5, 2),
    torus_knot(4, 3),
    torus_knot(5, 3),
    thin_model(2),
    thin_model(-2),
    tensor(torus_knot(3, 2), mirror(torus_knot(3, 2))),
]


# ---------------------------------------------------------------------------
# the region invariant
# ---------------------------------------------------------------------------


def test_upsilon_region_frozen_values():
    # desk: trefoil corners (1,0),(0,1); at t=1 both enter at 1/2
    assert upsilon_region(torus_knot(3, 2), upsilon_halfplane(1)) == F(1, 2)
    # desk: T_{5,3} corners (4,0),(2,1),(1,2),(0,4) at t=1/2: min over
    # (1/4)n + (3/4)m of 1, 5/4, 7/4, 3 -> 1
    assert upsilon_region(torus_knot(5, 3), upsilon_halfplane(F(1, 2))) == 1
    # desk: T_{8,5} at t=2/3 (corners via the <5,8> staircase): 4
    assert upsilon_region(torus_knot(8, 5), upsilon_halfplane(F(2, 3))) == 4


def test_h0_surjective_threshold():
    k = torus_knot(3, 2)
    h1 = upsilon_halfplane(1)
    assert h0_surjective(k, h1, F(1, 2))
    assert h0_surjective(k, h1, 7)
    assert not h0_surjective(k, h1, F(49, 100))


def test_h0_surjective_rejects_inexact_parameters():
    k, h1 = torus_knot(3, 2), upsilon_halfplane(1)
    for t in (0.5, "1/2"):
        with pytest.raises(ValueError, match="expected an exact rational"):
            h0_surjective(k, h1, t)


def test_upsilon_region_equal_complexes_agree():
    k = torus_knot(3, 2)
    assert upsilon_region(k, upsilon_halfplane(1)) == upsilon_region(
        torus_knot(3, 2), upsilon_halfplane(1)
    )


def test_upsilon_at_scaling():
    assert upsilon_at(torus_knot(3, 2), 1) == -1
    assert upsilon_at(torus_knot(5, 3), F(2, 3)) == F(-8, 3)  # desk value
    assert upsilon_at(unknot(), F(7, 5)) == 0


def test_upsilon_function_trefoil_and_endpoints():
    f = upsilon_function(torus_knot(3, 2))
    assert f.points == ((F(0), F(0)), (F(1), F(-1)), (F(2), F(0)))
    for k in SMALL_ZOO:
        fk = upsilon_function(k)
        assert pl_eval(fk, 0) == 0
        assert pl_eval(fk, 2) == 0


def test_upsilon_symmetry_for_staircases():
    for gens in [(2, 3), (2, 7), (3, 4), (3, 5), (5, 8)]:
        f = upsilon_function(staircase_from_jumps(jumps_from_semigroup(
            semigroup_from_generators(gens))))
        for t, _ in f.points:
            assert pl_eval(f, t) == pl_eval(f, 2 - t)


def test_upsilon_additivity_and_mirror():
    k1, k2 = torus_knot(4, 3), torus_knot(5, 2)
    assert upsilon_function(tensor(k1, k2)) == pl_add(
        upsilon_function(k1), upsilon_function(k2)
    )
    assert upsilon_function(mirror(k1)) == pl_negate_scale(upsilon_function(k1), -1)


def test_swept_curve_is_canonicalized(monkeypatch):
    # the sweep records only kinks: T(3,2) # -T(3,2) has an event at t = 1
    # where the same line leads on, and no line is recorded there, so the
    # points read off the swept lines are the canonical curve as they stand
    k = tensor(torus_knot(3, 2), mirror(torus_knot(3, 2)))
    f = upsilon_function(k)
    assert f == pl_add(fk_upsilon(3, 2), pl_negate_scale(fk_upsilon(3, 2), -1))
    events = []
    least_top = invariants._least_top

    def counted(eng, keys):
        events.append(keys)
        return least_top(eng, keys)

    monkeypatch.setattr(invariants, "_least_top", counted)
    lines = invariants._kinetic_sweep(complexes._Engine.of(k))
    assert len(events) == 2  # reductions at t = 0 and t = 1; one line, from t = 0 to 2
    assert lines == [((0, 1), (0, 0))] and list(f.points) == [(0, 0), (2, 0)]
    monkeypatch.undo()
    rng = random.Random(2121)
    parts = [(3, 2), (5, 2), (7, 2), (4, 3), (5, 3), (7, 3), (5, 4)]
    sums = 0
    while sums < 20:
        summands = [torus_knot(*rng.choice(parts)) for _ in range(rng.randint(2, 3))]
        if prod(len(c.generators) for c in summands) > 250:
            continue
        k = tensor(*(c if rng.random() < 0.5 else mirror(c) for c in summands))
        lines = invariants._kinetic_sweep(complexes._Engine.of(k))
        f = upsilon_function(k)
        # a point at 0 and at each recorded event, and one at 2; on each
        # segment the curve is -2 times the line leading there, of slope -s
        assert [F(n, d) for (n, d), _ in lines] + [2] == [t for t, _ in f.points]
        for ((n, d), (s, j)), (t1, v1) in zip(lines, f.points[1:]):
            assert pl_eval(f, F(n, d)) == -2 * (j + F(n, d) * s / 2) and gcd(n, d) == 1
            assert v1 == -2 * (j + t1 * s / 2)
        assert f == PLFunction(f.points)  # re-canonicalizing changes nothing
        sums += 1


def test_region_monotonicity():
    rng = random.Random(11)
    k = torus_knot(5, 3)
    for _ in range(20):
        alpha = F(rng.randint(0, 4), 4)
        r1 = make_halfplane(alpha, 1 - alpha, F(rng.randint(-4, 4)))
        r2 = union(r1, v_region(rng.randint(-2, 2)))
        # r2 is larger, so it is entered no later
        assert upsilon_region(k, r2) <= upsilon_region(k, r1)


def test_engine_matches_brute_oracle_on_small_zoo():
    for k in SMALL_ZOO:
        assert len(k.generators) <= 12
        for t in (F(1, 2), F(2, 3), F(1), F(7, 5), F(2)):
            r = upsilon_halfplane(t)
            assert upsilon_region(k, r) == brute_force_upsilon(k, r)
        for s in (-1, 0, 1):
            assert upsilon_region(k, v_region(s)) == brute_force_upsilon(k, v_region(s))


def test_brute_force_guard():
    with pytest.raises(GuardExceeded, match="dimension 21"):
        brute_force_upsilon(thin_model(21), upsilon_halfplane(1))
    with pytest.raises(GuardExceeded):
        brute_force_secondary(
            thin_model(21),
            upsilon_halfplane(F(9, 10)),
            upsilon_halfplane(F(11, 10)),
            upsilon_halfplane(1),
        )


# ---------------------------------------------------------------------------
# staircase closed forms vs the engine
# ---------------------------------------------------------------------------


def test_check_jumps_validation():
    assert check_jumps(()) == ()
    assert check_jumps([1, 2, 2, 1]) == (1, 2, 2, 1)
    with pytest.raises(ValueError, match="even length"):
        check_jumps((1, 2, 1))
    with pytest.raises(ValueError, match="positive integers"):
        check_jumps((1, 0))
    with pytest.raises(ValueError, match="balance"):
        check_jumps((1, 2))


def test_staircase_corners_trefoil_and_t43():
    assert staircase_corners((1, 1)) == ((1, 0), (0, 1))
    assert staircase_corners((1, 2, 2, 1)) == ((3, 0), (1, 1), (0, 3))


def test_staircase_formulas_match_engine():
    for gens in [(2, 3), (2, 5), (3, 4), (3, 5), (5, 6), (5, 8)]:
        jumps = torus_jumps(*sorted(gens, reverse=True))
        k = staircase_from_jumps(jumps)
        assert staircase_upsilon(jumps) == upsilon_function(k)
        g = sum(jumps) // 2
        for s in range(-1, g + 2):
            assert staircase_vk(jumps, s) == vk(k, s)
        engine_bps = breaking_points(k)
        closed_bps = staircase_breaking_points(jumps)
        assert [(b.t, b.jump) for b in engine_bps] == [
            (b.t, b.jump) for b in closed_bps
        ]


@st.composite
def balanced_jumps(draw):
    """A staircase jump sequence: k odd-indexed jumps and a composition of
    their sum into k even-indexed ones."""
    k = draw(st.integers(0, 3))
    odd = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    total = sum(odd)
    cuts = sorted(draw(st.sets(st.integers(1, max(total - 1, 1)),
                               min_size=max(k - 1, 0), max_size=max(k - 1, 0))))
    even = [b - a for a, b in zip([0] + cuts, cuts + [total])] if k else []
    return tuple(x for pair in zip(odd, even) for x in pair)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(balanced_jumps())
def test_engine_matches_staircase_closed_forms(jumps):
    k = staircase_from_jumps(jumps)
    assert upsilon_function(k) == staircase_upsilon(jumps)
    g = sum(jumps) // 2
    for s in range(-g - 1, g + 2):
        assert vk(k, s) == staircase_vk(jumps, s)
    bps = staircase_breaking_points(jumps)
    assert [(b.t, b.jump) for b in breaking_points(k)] == [(b.t, b.jump) for b in bps]
    for b in bps:
        for s in {b.t, F(0), F(1, 2), F(1), F(2)}:
            assert kim_livingston(k, b.t, s) == staircase_kl(jumps, b.t, s)


def test_staircase_breaking_point_indices_t85():
    bps = {b.t: b for b in staircase_breaking_points(torus_jumps(8, 5))}
    assert (bps[F(2, 3)].i_minus, bps[F(2, 3)].i_plus) == (1, 2)
    assert (bps[F(4, 5)].i_minus, bps[F(4, 5)].i_plus) == (2, 4)
    assert (bps[F(1)].i_minus, bps[F(1)].i_plus) == (4, 5)


def _hull_cases():
    """T(59, 58), every torus knot with p < 22, thin models and seeded
    random stairs, the last of 300 corners.  Its jumps of at most 2 tie
    many lines at each crossing and keep it to about 5,000 candidates."""
    yield torus_jumps(59, 58)
    for p in range(3, 22):
        for q in range(2, p):
            if gcd(p, q) == 1:
                yield torus_jumps(p, q)
    for tau in range(1, 7):
        yield (1,) * (2 * tau)
    rng = random.Random(2741)
    for k, top in [(rng.randint(1, 12), 4) for _ in range(30)] + [(299, 2)]:
        odd = [rng.randint(1, top) for _ in range(k)]
        cuts = sorted(rng.sample(range(1, sum(odd)), k - 1))
        even = [b - a for a, b in zip([0, *cuts], [*cuts, sum(odd)])]
        yield tuple(x for pair in zip(odd, even) for x in pair)


def test_staircase_hull_matches_the_direct_minimum():
    # the closed forms read one convex hull of the corner lines; here every
    # line L(t) = m + (t/2)(n - m) of a corner (n, m) is evaluated at every
    # pairwise crossing (the oracle's candidate parameters), in integers as
    # 2d·L(t) = d·2m + t'·(n - m) at t = t'/d.  The slopes n - m differ, so
    # the direct minimum bends exactly where two or more lines tie: the
    # curve takes the direct value at every candidate exactly when its
    # points are the ends and the ties, with the direct values there
    for jumps in _hull_cases():
        corners = staircase_corners(jumps)
        coefficients = [(2 * m, n - m) for n, m in corners]
        lowest, ties = {}, {}  # ties: t: the first and last of two or more minimizing corners
        for t in oracles._candidate_ts(corners):
            n, d = t.numerator, t.denominator
            lines = [d * c + n * s for c, s in coefficients]
            lowest[t] = low = min(lines)
            if lines.count(low) > 1:
                ties[t] = lines.index(low), len(lines) - 1 - lines[::-1].index(low)
        bends = [F(0), *sorted(ties), F(2)]
        assert staircase_upsilon(jumps).points == tuple((t, F(-lowest[t], t.denominator))
                                                        for t in bends)
        kinks = staircase_breaking_points(jumps)
        assert {b.t: (b.i_minus, b.i_plus) for b in kinks} == ties


def test_the_canonical_curves_are_those_of_the_checked_constructor():
    # `staircase_upsilon` and a nonzero `pl_negate_scale` make their curves
    # with `PLFunction._canonical`, which checks nothing: their points must
    # be the Fraction pairs that the canonicalizing constructor makes of them
    def checked(f):
        assert all(type(x) is F for point in f.points for x in point)
        assert PLFunction(f.points).points == f.points
        return f

    for p in range(3, 22):
        for q in range(2, p):
            if gcd(p, q) == 1:
                curve = checked(staircase_upsilon(torus_jumps(p, q)))
                for c in (-1, F(3, 2), F(-7, 3)):
                    checked(pl_negate_scale(curve, c))


def test_staircase_kl_rejects_non_breaking():
    with pytest.raises(ValueError, match="not a breaking point"):
        staircase_kl((1, 1, 1, 1), F(2, 3), F(2, 3))
    with pytest.raises(ValueError, match="not a breaking point"):
        staircase_kl((1, 1), F(1, 2), F(1, 2))


# ---------------------------------------------------------------------------
# V, nu+, d
# ---------------------------------------------------------------------------


def test_vk_frozen_values():
    k = torus_knot(3, 2)
    assert vk(k, 0) == -2
    assert vk(k, 1) == 0
    assert vk(k, 5) == 0
    assert vk(mirror(k), 0) == 0
    assert vk(unknot(), 0) == 0
    assert vk(torus_knot(8, 5), 0) == staircase_vk(torus_jumps(8, 5), 0)


def test_vk_requires_integer():
    with pytest.raises(ValueError, match="integer"):
        vk(torus_knot(3, 2), F(1, 2))
    for s in (True, False):  # a bool is an int to isinstance, not a parameter
        with pytest.raises(ValueError, match="integer"):
            vk(torus_knot(3, 2), s)


def test_nu_plus_values():
    assert nu_plus(unknot()) == 0
    assert nu_plus(torus_knot(3, 2)) == 1
    assert nu_plus(mirror(torus_knot(3, 2))) == 0
    assert nu_plus(torus_knot(8, 5)) == 14  # the genus: V only vanishes there


def test_d_invariant_values():
    k = torus_knot(3, 2)
    assert d_invariant(k, 1, 0) == -2
    assert d_invariant(k, 7, 0) == F(-1, 2)
    assert d_invariant(unknot(), 3, 1) == F(-1, 6)
    # mirror trefoil: all V vanish, pure lens-space term
    assert d_invariant(mirror(k), 1, 0) == 0


def test_d_invariant_preconditions():
    k = torus_knot(8, 5)  # genus 14
    with pytest.raises(ValueError, match="positive"):
        d_invariant(k, 0, 0)
    with pytest.raises(ValueError, match="large surgery"):
        d_invariant(k, 5, 0)
    with pytest.raises(ValueError, match="spin-c"):
        d_invariant(torus_knot(3, 2), 4, 2)
    with pytest.raises(ValueError, match="spin-c"):
        d_invariant(torus_knot(3, 2), 4, -3)


# ---------------------------------------------------------------------------
# secondary invariants
# ---------------------------------------------------------------------------


def test_no_obstruction_singleton():
    assert NoObstructionType() is NO_OBSTRUCTION
    assert repr(NO_OBSTRUCTION) == "NoObstruction"


def test_secondary_raw_value_t43():
    # desk: perturbing around t*=2/3, the connecting chain is y0 at (3,1);
    # its entering time into H_{2/3} is 5/3
    d = F(1, 100)
    raw = secondary(
        torus_knot(4, 3),
        upsilon_halfplane(F(2, 3) + d),
        upsilon_halfplane(F(2, 3) - d),
        upsilon_halfplane(F(2, 3)),
    )
    assert raw == F(5, 3)


def test_secondary_no_obstruction_when_cosets_meet():
    k = torus_knot(3, 2)
    out = secondary(
        k,
        upsilon_halfplane(F(1, 4)),
        upsilon_halfplane(F(3, 4)),
        upsilon_halfplane(1),
    )
    assert out is NO_OBSTRUCTION


def test_secondary_matches_brute_oracle():
    d = F(1, 100)
    for k in (torus_knot(4, 3), torus_knot(5, 3), thin_model(2)):
        for t_star in (F(2, 3), F(1)):
            args = (
                upsilon_halfplane(t_star + d),
                upsilon_halfplane(t_star - d),
                upsilon_halfplane(t_star),
            )
            engine = secondary(k, *args)
            oracle = brute_force_secondary(k, *args)
            if isinstance(engine, NoObstructionType):
                assert isinstance(oracle, NoObstructionType)
            else:
                assert engine == oracle


def test_kim_livingston_three_routes_t43():
    value = kim_livingston(torus_knot(4, 3), F(2, 3), F(2, 3))
    assert value == F(-4, 3)
    assert staircase_kl((1, 2, 2, 1), F(2, 3), F(2, 3)) == F(-4, 3)
    assert kim_livingston_oracle(torus_knot(4, 3), F(2, 3), F(2, 3)) == F(-4, 3)


def test_kim_livingston_three_routes_t85():
    k = torus_knot(8, 5)
    jumps = torus_jumps(8, 5)
    value = kim_livingston(k, F(2, 3), F(2, 3))
    assert value == F(-4, 3)
    assert staircase_kl(jumps, F(2, 3), F(2, 3)) == F(-4, 3)
    assert kim_livingston_oracle(k, F(2, 3), F(2, 3)) == F(-4, 3)
    # the mirrored breaking point carries the same value by symmetry
    assert kim_livingston(k, F(4, 3), F(4, 3)) == F(-4, 3)


def test_kim_livingston_cross_evaluations_t85():
    # evaluating the t*=2/3 breaking point against H_s at the mirrored s:
    k = torus_knot(8, 5)
    assert kim_livingston(k, F(2, 3), F(4, 3)) == F(-20, 3)
    assert staircase_kl(torus_jumps(8, 5), F(2, 3), F(4, 3)) == F(-20, 3)
    assert kim_livingston(k, F(4, 3), F(2, 3)) == F(-20, 3)


def test_kim_livingston_matches_staircase_on_s_grid():
    for gens, t_star in [((3, 4), F(2, 3)), ((5, 6), F(4, 5)), ((5, 8), F(1))]:
        jumps = torus_jumps(*sorted(gens, reverse=True))
        k = staircase_from_jumps(jumps)
        for s in (F(0), F(1, 2), F(2, 3), F(1), F(3, 2), F(2)):
            assert kim_livingston(k, t_star, s) == staircase_kl(jumps, t_star, s)


def test_kim_livingston_thin_family():
    assert kim_livingston(thin_model(1), 1, 1) == -1
    assert kim_livingston(thin_model(2), 1, 1) == thin_kl_closed(2, 1)
    assert kim_livingston(thin_model(2), 1, F(1, 2)) == thin_kl_closed(2, F(1, 2)) == F(-3, 2)
    assert kim_livingston(thin_model(-2), 1, 1) is NO_OBSTRUCTION
    assert thin_kl_closed(-2, 1) is NO_OBSTRUCTION
    assert kim_livingston(thin_model(0), 1, 1) is NO_OBSTRUCTION


def test_kim_livingston_no_obstruction_at_smooth_points():
    # smooth parameter of a staircase
    assert kim_livingston(torus_knot(3, 2), F(1, 2), F(1, 2)) is NO_OBSTRUCTION
    # negative-jump kink of a mirrored staircase: not a breaking point
    assert kim_livingston(mirror(torus_knot(4, 3)), F(2, 3), F(2, 3)) is NO_OBSTRUCTION


def test_kim_livingston_domain_errors():
    # the staircase closed form reads its parameters as the engine does, so
    # both refuse a t_star outside (0, 2) or an s outside [0, 2] alike
    k, jumps = torus_knot(4, 3), torus_jumps(4, 3)
    for t_star, s, message in ((0, 1, "t_star"), (2, 1, "t_star"), (-2, 1, "t_star"),
                               (F(2, 3), F(5, 2), "s must"), (F(2, 3), 5, "s must"),
                               (F(2, 3), -1, "s must")):
        for route in (lambda: kim_livingston(k, t_star, s),
                      lambda: staircase_kl(jumps, t_star, s)):
            with pytest.raises(ValueError, match=message):
                route()


def test_kim_livingston_rejects_inexact_parameters():
    # coerced, 0.9999999 is a binary fraction within 1e-7 of the breaking
    # point 1, where the answer would be "no obstruction"
    k = torus_knot(5, 3)
    for route in (kim_livingston, kim_livingston_oracle):
        for t_star, s in ((0.9999999, 1), (1, 0.5), ("x", 1), (1, "1")):
            with pytest.raises(ValueError, match="expected an exact rational"):
                route(k, t_star, s)
    with pytest.raises(ValueError, match="expected an exact rational"):
        staircase_kl(torus_jumps(5, 3), 1.0, 1)


_K53, _H1, _J53 = torus_knot(5, 3), upsilon_halfplane(1), torus_jumps(5, 3)
_RATIONAL = "expected an exact rational"
_D_PARAMETERS = "d takes an integer surgery coefficient q and an integer spin-c index m"
_EXACT_PARAMETERS = [  # (name, a call with x in the checked slot, message)
    ("upsilon_at", lambda x: upsilon_at(_K53, x), _RATIONAL),
    ("h0_surjective", lambda x: h0_surjective(_K53, _H1, x), _RATIONAL),
    ("kim_livingston(t_star)", lambda x: kim_livingston(_K53, x, 1), _RATIONAL),
    ("kim_livingston(s)", lambda x: kim_livingston(_K53, 1, x), _RATIONAL),
    ("kim_livingston_oracle(t_star)", lambda x: kim_livingston_oracle(_K53, x, 1), _RATIONAL),
    ("kim_livingston_oracle(s)", lambda x: kim_livingston_oracle(_K53, 1, x), _RATIONAL),
    ("staircase_kl(t_star)", lambda x: staircase_kl(_J53, x, 1), _RATIONAL),
    ("staircase_kl(s)", lambda x: staircase_kl(_J53, 1, x), _RATIONAL),
    ("thin_kl_closed(s)", lambda x: thin_kl_closed(2, x), _RATIONAL),
    ("thin_three_param(t)", lambda x: thin_three_param(2, x, 0, 0), _RATIONAL),
    ("thin_three_param(s)", lambda x: thin_three_param(2, 0, x, 0), _RATIONAL),
    ("thin_three_param(q)", lambda x: thin_three_param(2, 0, 0, x), _RATIONAL),
    ("upsilon_halfplane", upsilon_halfplane, _RATIONAL),
    ("make_halfplane(alpha)", lambda x: make_halfplane(x, 1, 0), _RATIONAL),
    ("make_halfplane(beta)", lambda x: make_halfplane(1, x, 0), _RATIONAL),
    ("make_halfplane(c)", lambda x: make_halfplane(1, 1, x), _RATIONAL),
    ("translate", lambda x: translate(_H1, x), _RATIONAL),
    ("HalfPlane(alpha)", lambda x: regions.HalfPlane(x, F(1), F(0)), _RATIONAL),
    ("HalfPlane(beta)", lambda x: regions.HalfPlane(F(1), x, F(0)), _RATIONAL),
    ("HalfPlane(c)", lambda x: regions.HalfPlane(F(1), F(0), x), _RATIONAL),
    ("vk", lambda x: vk(_K53, x), "V takes an integer parameter"),
    ("staircase_vk", lambda x: staircase_vk(_J53, x), "V takes an integer parameter"),
    ("d_invariant(q)", lambda x: d_invariant(_K53, x, 0), _D_PARAMETERS),
    ("d_invariant(m)", lambda x: d_invariant(_K53, 9, x), _D_PARAMETERS),
    ("thin_model(tau)", thin_model, "tau must be an integer"),
    ("thin_three_param(tau)", lambda x: thin_three_param(x, 0, 0, 0), "tau must be an integer"),
    ("thin_kl_closed(tau)", lambda x: thin_kl_closed(x, 1), "tau must be an integer"),
    ("check_jumps", lambda x: check_jumps((x, x)), "jumps must be positive integers"),
    ("fk_upsilon(p)", lambda x: fk_upsilon(x, 2), "torus parameters must be positive integers"),
    ("fk_upsilon(q)", lambda x: fk_upsilon(3, x), "torus parameters must be positive integers"),
    ("Semigroup", lambda x: Semigroup((x, 2)), "semigroup generators must be positive integers"),
    ("n_of_semigroup", lambda x: n_of_semigroup(Semigroup((2, 3)), x),
     "the generator a must be an integer"),
    ("eta_closed_form", lambda x: eta_closed_form(Semigroup((2, 3)), x),
     "the generator a must be an integer"),
]


@pytest.mark.parametrize(
    "call,message", [pytest.param(call, message, id=name) for name, call, message in _EXACT_PARAMETERS]
)
def test_exact_parameters_reject_floats_and_bools(call, message):
    # a bool is an int to isinstance, and a float is never exact (2.0 == 2
    # passed the eta closed form's membership check, to a TypeError)
    for x in (0.5, 1.0, 2.0, True, False):
        with pytest.raises(ValueError, match=message):
            call(x)


def test_breaking_points_thin():
    bps = breaking_points(thin_model(3))
    assert [(b.t, b.jump) for b in bps] == [(F(1), F(6))]
    assert breaking_points(thin_model(-2)) == []
    assert breaking_points(unknot()) == []


# ---------------------------------------------------------------------------
# eta
# ---------------------------------------------------------------------------


def test_eta_frozen_values():
    h23 = upsilon_halfplane(F(2, 3))
    assert eta(torus_knot(5, 2), h23) == F(4, 3)
    assert eta(torus_knot(5, 3), h23) == F(2, 3)
    assert eta(pretzel(7), h23) == F(4, 3)
    assert eta(unknot(), h23) == 0


def test_eta_torus2_family():
    h23 = upsilon_halfplane(F(2, 3))
    for kk in range(1, 6):
        assert eta(torus_knot(2 * kk + 1, 2), h23) == F(2 * kk, 3)


def test_eta_closed_form_agreement():
    h23 = upsilon_halfplane(F(2, 3))
    for p in (4, 5, 7, 8):
        sg = semigroup_from_generators((3, p))
        k = staircase_from_jumps(jumps_from_semigroup(sg))
        assert eta(k, h23) == eta_closed_form(sg, 3)


def test_eta_additive_on_connected_sum():
    h23 = upsilon_halfplane(F(2, 3))
    k = tensor(torus_knot(5, 2), torus_knot(5, 3))
    assert eta(k, h23) == F(4, 3) + F(2, 3)


def test_eta_at_h1():
    # desk: eta over H(1) of T_{2,5} is -1 = eta_closed_form(<2,5>, 2)
    assert eta(torus_knot(5, 2), upsilon_halfplane(1)) == -1
    assert eta_closed_form(semigroup_from_generators((2, 5)), 2) == -1


# ---------------------------------------------------------------------------
# stable-equivalence invariance (box moves)
# ---------------------------------------------------------------------------


def test_box_insertion_preserves_everything():
    rng = random.Random(3)
    k0 = torus_knot(4, 3)
    h23 = upsilon_halfplane(F(2, 3))
    baseline = (
        upsilon_function(k0),
        vk(k0, 1),
        nu_plus(k0),
        eta(k0, h23),
        kim_livingston(k0, F(2, 3), F(2, 3)),
        d_invariant(k0, 7, 1),
    )
    k = k0
    for _ in range(5):
        k = add_box(k, (rng.randint(-4, 4), rng.randint(-4, 4)), rng.randint(-3, 3))
    assert validate_complex(k).ok
    assert (
        upsilon_function(k),
        vk(k, 1),
        nu_plus(k),
        eta(k, h23),
        kim_livingston(k, F(2, 3), F(2, 3)),
        d_invariant(k, 7, 1),
    ) == baseline


# ---------------------------------------------------------------------------
# the filtered reduction against the oracles on random boxed sums
# ---------------------------------------------------------------------------


def _random_sum(rng):
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
    for _ in range(rng.randint(0, 2)):
        k = add_box(k, (rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-2, 2))
    return k


def _random_region(rng):
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


def test_filtered_reduction_matches_oracles_on_random_sums():
    rng = random.Random(2024)
    finite = 0
    for _ in range(12):
        k = _random_sum(rng)
        assert validate_complex(k).ok
        for _ in range(3):
            r = _random_region(rng)
            gamma = upsilon_region(k, r)
            assert gamma == brute_force_upsilon(k, r)
            x = eta(k, r)
            assert brute_force_upsilon(k, truncate(r, x)) == gamma
            assert brute_force_upsilon(k, truncate(r, x - F(1, 1000))) > gamma
        t, d = F(rng.randint(2, 10), 6), F(1, 100)
        for regions in (
            (upsilon_halfplane(t + d), upsilon_halfplane(t - d), _random_region(rng)),
            (_random_region(rng), _random_region(rng), _random_region(rng)),
        ):
            value = secondary(k, *regions)
            assert value == brute_force_secondary(k, *regions)
            finite += value != NO_OBSTRUCTION
    assert finite > 0


def test_oracles_do_not_read_the_engine_build(monkeypatch):
    # A wrong engine cycle must show up as an oracle mismatch.
    build = complexes._Engine.__init__

    def broken(self, k):
        build(self, k)
        self.z_ref = 1

    monkeypatch.setattr(complexes._Engine, "__init__", broken)
    k = tensor(torus_knot(3, 2), mirror(torus_knot(5, 2)))
    r = upsilon_halfplane(F(3, 2))
    assert upsilon_region(k, r) != brute_force_upsilon(k, r)


def test_kim_livingston_oracle_leaves_no_engine():
    # its perturbation width comes from the oracle's own positions
    for k, bp in [(k, bp) for k in SMALL_ZOO for bp in breaking_points(k)]:
        for s in (F(0), bp.t, F(1), F(2)):
            fresh = KnotComplex(k.generators, k.arrows)  # equal to k, never queried
            value = kim_livingston_oracle(fresh, bp.t, s)
            assert "_engine" not in vars(fresh)
            assert value == kim_livingston(k, bp.t, s)


def test_oracles_read_no_engine_build(monkeypatch):
    # the oracles' d1 columns come from `boundary_matrix`, which recomputes
    # them by name; the engine's come from its one build, `_graded`
    a, b = torus_knot(3, 2), mirror(torus_knot(5, 2))  # the staircase build runs the engine

    def two_summands():
        return tensor(a, b)

    r, t = upsilon_halfplane(F(3, 2)), F(2, 3)
    plus, minus, c = upsilon_halfplane(t + F(1, 50)), upsilon_halfplane(t - F(1, 50)), r
    expected = (upsilon_region(two_summands(), r), kim_livingston(two_summands(), t, t),
                secondary(two_summands(), plus, minus, c))

    def refuse(k):
        raise AssertionError("the engine build ran")

    monkeypatch.setattr(complexes, "_graded", refuse)
    with pytest.raises(AssertionError, match="the engine build ran"):
        upsilon_region(two_summands(), r)
    assert (brute_force_upsilon(two_summands(), r), kim_livingston_oracle(two_summands(), t, t),
            brute_force_secondary(two_summands(), plus, minus, c)) == expected


# ---------------------------------------------------------------------------
# the engine's generating cycle, found by clearing
# ---------------------------------------------------------------------------


def test_clearing_cycle_is_in_the_coset_of_the_nullspace_route():
    rng = random.Random(77)
    for k in SMALL_ZOO + [_random_sum(rng) for _ in range(12)]:
        eng = complexes._Engine.of(k)
        assert boundary_matrix(k, 0).mat_vec(eng.z_ref) == 0
        index0 = {lg: i for i, lg in enumerate(maslov_slice(k, 0))}
        rep = sum(1 << index0[lg] for lg in representative_cycle(k))
        boundaries = F2Space(eng.d1_cols)
        assert boundaries.contains(eng.z_ref ^ rep)
        assert not boundaries.contains(eng.z_ref)


# ---------------------------------------------------------------------------
# the graded build
# ---------------------------------------------------------------------------


def _graded_cases():
    rng = random.Random(5)
    boxed = [add_box(torus_knot(4, 3), (1, -2), -1), add_box(mirror(torus_knot(5, 2)), (-3, 0), 1),
             add_box(add_box(torus_knot(3, 2), (0, 0), -3), (2, 2), 2)]
    return SMALL_ZOO + [mirror(k) for k in SMALL_ZOO] + boxed + [_random_sum(rng) for _ in range(12)]


def _slice_columns(k, d):
    """The grading-d differential by columns, read off the lattice generators
    of slices d and d - 1 and the arrows alone."""
    rows = {(lg.base.name, lg.upower): i for i, lg in enumerate(maslov_slice(k, d - 1))}
    return [sum(1 << rows[dst, lg.upower + m] for src, dst, m in k.arrows if src == lg.base.name)
            for lg in maslov_slice(k, d)]


def test_graded_build_matches_the_slices():
    for k in _graded_cases():
        positions, columns, unfiltered = complexes._graded(k)
        assert unfiltered is None
        for d in range(-1, 3):
            shift = d // 2
            assert [lg.pos for lg in maslov_slice(k, d)] == [
                (a + shift, j + shift) for a, j in positions[d % 2]]
            cols = list(columns[d % 2])
            assert cols == _columns(boundary_matrix(k, d)) == _slice_columns(k, d)


def test_boundary_matrix_has_period_two():
    for k in _graded_cases()[:8]:
        for d in range(-1, 2):
            m, m2 = boundary_matrix(k, d), boundary_matrix(k, d + 2)
            assert (m.nrows, m.ncols, m.rows) == (m2.nrows, m2.ncols, m2.rows)


def test_engine_and_validation_build_no_slices(monkeypatch):
    def big():
        return tensor(tensor(torus_knot(8, 5), mirror(torus_knot(6, 5))), mirror(torus_knot(4, 3)))

    t, d = F(1), F(1, 100)
    regions = (upsilon_halfplane(t + d), upsilon_halfplane(t - d), upsilon_halfplane(F(2, 3)))

    def values(k):
        return ([vk(k, s) for s in range(3)], eta(k, upsilon_halfplane(F(2, 3))),
                secondary(k, *regions), kim_livingston(k, 1, F(1, 2)), validate_complex(k))

    expected = values(big())

    def refuse(*args):
        raise AssertionError("a slice was built")

    monkeypatch.setattr(oracles, "maslov_slice", refuse)
    monkeypatch.setattr(oracles, "boundary_matrix", refuse)
    k = big()
    assert upsilon_function(k) == upsilon_function(torus_knot(3, 2))
    assert values(k) == expected
    assert expected[-1].ok


def _shifted(k, da, dj):
    return KnotComplex(tuple(BaseGenerator(g.name, g.alexander + da, g.algebraic + dj, g.maslov)
                             for g in k.generators), k.arrows)


def test_validation_finds_the_tower_level_the_engine_finds():
    """The level that `validate_complex` reports is (-Upsilon(2)/2, -Upsilon(0)/2)
    from the engine: the least greatest A and j over all generating cycles.
    Within the oracle guard, enumerating every generating cycle finds it too."""
    rng = random.Random(53)
    hand = [
        KnotComplex((BaseGenerator("x", 0, 0, 0),), ()),
        KnotComplex((BaseGenerator("x0", 1, 0, 0), BaseGenerator("x1", 0, 1, 0),
                     BaseGenerator("y0", 1, 1, 1)), (("y0", "x0", 0), ("y0", "x1", 0))),
        add_box(mirror(torus_knot(4, 3)), (4, 4), 0),
    ]
    knots = SMALL_ZOO + [mirror(k) for k in SMALL_ZOO] + hand + [_random_sum(rng) for _ in range(12)]
    checked = 0
    for k in knots:
        for da, dj in [(0, 0), (1, 0), (0, -2), (-1, 3), (rng.randint(-4, 4), rng.randint(-4, 4))]:
            moved = _shifted(k, da, dj)
            a, j = -upsilon_at(moved, 2) / 2, -upsilon_at(moved, 0) / 2
            assert (a, j) == (da, dj)
            expected = () if (a, j) == (0, 0) else (
                f"H_0 is generated at filtration level (A, j) = ({a}, {j}), expected (0, 0)",)
            assert validate_complex(moved).problems == expected
            try:
                level = tuple(brute_force_upsilon(moved, upsilon_halfplane(t)) for t in (2, 0))
            except GuardExceeded:
                continue
            assert level == (a, j)
            checked += 1
    assert checked > len(knots)


# ---------------------------------------------------------------------------
# validation reads the engine: the route it replaced, as a reference
# ---------------------------------------------------------------------------


def _validate_by_separate_echelonizations(k):
    """`validate_complex` as it was before it read the engine: its own
    echelonizations of d1 and d0 for the ranks, a cycle that is not a
    boundary, and a keyed reduction of that cycle against every d1 column."""
    problems = []
    by_name = k.by_name
    for src, dst, m in k.arrows:
        x, y = by_name[src], by_name[dst]
        if y.maslov - 2 * m != x.maslov - 1:
            problems.append(f"arrow {src} -> U^{m}·{dst} violates the Maslov convention")
        if y.alexander - m > x.alexander or y.algebraic - m > x.algebraic:
            problems.append(f"arrow {src} -> U^{m}·{dst} increases the filtration")
    for g in k.generators:
        acc = set()
        for mid, m1 in k.arrows_from(g.name):
            for dst, m2 in k.arrows_from(mid):
                acc ^= {(dst, m1 + m2)}
        if acc:
            terms = ", ".join(f"U^{m}·{dst}" for dst, m in sorted(acc))
            problems.append(f"d^2({g.name}) = {terms} != 0")
    if problems:
        return tuple(problems)

    (pos0, pos1), (d0, d1), _ = complexes._graded(k)
    boundaries = {}
    r1 = len(d1) - len(_echelonize(boundaries, ((col, 0) for col in d1)))
    cycles = _echelonize({}, ((col, 1 << j) for j, col in enumerate(d0)))
    r0 = len(d0) - len(cycles)
    h0, h1 = len(pos0) - r0 - r1, len(pos1) - r1 - r0
    if h0 != 1:
        problems.append(f"dim H_0 = {h0}, expected 1 (not a single U-tower)")
    if h1 != 0:
        problems.append(f"dim H_1 = {h1}, expected 0")
    if problems:
        return tuple(problems)

    z = next(z for z in cycles if _reduce_pair(boundaries, z, 0)[0])
    a, j = (_least_max(z, [p[c] for p in pos0], d1) for c in (0, 1))
    if (a, j) != (0, 0):
        problems.append(f"H_0 is generated at filtration level (A, j) = ({a}, {j}), "
                        "expected (0, 0)")
    return tuple(problems)


def _least_max(z, keys, d1_cols):
    """The least, over the cycles z + im d1, of the greatest key on a support:
    reduce z against every d1 column, rows ordered by key."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    bit = [0] * len(order)
    for r, i in enumerate(order):
        bit[i] = 1 << r
    pivots = {}
    _echelonize(pivots, ((sum(map(bit.__getitem__, _bits(col))), 0) for col in d1_cols))
    z = _reduce_pair(pivots, sum(map(bit.__getitem__, _bits(z))), 0)[0]
    return keys[order[z.bit_length() - 1]]


def _random_complex(rng):
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


def test_validation_matches_the_separate_echelonization_route():
    rng = random.Random(2024)
    zoo = SMALL_ZOO + [mirror(k) for k in SMALL_ZOO]
    cases = ([_random_complex(rng) for _ in range(1500)] + zoo
             + [_shifted(k, rng.randint(-3, 3), rng.randint(-3, 3)) for k in zoo]
             + [add_box(k, (rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-2, 2))
                for k in zoo])
    seen = set()
    for k in cases:
        problems = validate_complex(k).problems
        assert problems == _validate_by_separate_echelonizations(k), k
        seen.update(key for p in problems for key in ("Maslov", "filtration", "d^2", "dim H_0",
                                                      "dim H_1", "filtration level") if key in p)
        seen.add("ok" if not problems else "problem")
    assert seen == {"Maslov", "filtration", "d^2", "dim H_0", "dim H_1", "filtration level",
                    "ok", "problem"}


def test_one_engine_build_serves_validation_and_every_query(monkeypatch):
    graded = complexes._graded
    calls = []

    def count(k):
        calls.append(k)
        return graded(k)

    monkeypatch.setattr(complexes, "_graded", count)
    built = torus_knot(8, 5)  # the staircase build validates it
    assert len(calls) == 1 and "_engine" in vars(built)
    fresh = KnotComplex(built.generators, built.arrows)
    assert validate_complex(fresh).ok
    for k in (built, fresh):
        upsilon_function(k)
        vk(k, 1)
        eta(k, upsilon_halfplane(F(2, 3)))
        bp = breaking_points(k)[0]
        kim_livingston(k, bp.t, F(1))
        assert validate_complex(k).ok
    assert len(calls) == 2  # one build for each complex


def test_ill_graded_arrow_of_either_parity_raises():
    gens = (BaseGenerator("x", 0, 0, 0), BaseGenerator("y", 0, 0, 1), BaseGenerator("z", 0, 0, 1))
    k = KnotComplex(gens, (("y", "z", 0),))  # odd source, target one grading too high
    message = "arrow y -> U\\^0·z does not drop Maslov grading by 1"
    for call in (lambda: upsilon_region(k, upsilon_halfplane(1)),
                 lambda: boundary_matrix(k, 0), lambda: boundary_matrix(k, 1)):
        with pytest.raises(ValueError, match=message):
            call()
    assert "arrow y -> U^0·z violates the Maslov convention" in validate_complex(k).problems


def test_chord_checks_evaluate_in_order(monkeypatch):
    calls = []
    least_top = invariants._least_top

    def record(eng, keys):
        calls.append(keys)
        return least_top(eng, keys)

    def no_region(*args):
        raise AssertionError("the curve or kim_livingston built or keyed a region")

    monkeypatch.setattr(invariants, "_least_top", record)
    for name in ("upsilon_region", "upsilon_halfplane", "entering_numerators"):
        monkeypatch.setattr(invariants, name, no_region)
    k = torus_knot(5, 3)
    kinks = [t for t, _ in upsilon_function(k).points]
    eng = complexes._Engine.of(k)
    at0, h = eng.at0, invariants._slope_bound(eng)
    # the sweep's events reduce first, keyed by (value, slope) packed in one
    # int; then one chord check at the midpoint n/d of each segment of the
    # output curve, in order, keyed by 2d·j + n(A - j): the entering times
    # into H(n/d) over 2d
    mids = [(t0 + t1) / 2 for t0, t1 in zip(kinks, kinks[1:])]
    expected = [[2 * t.denominator * j + t.numerator * (a - j) for a, j in at0] for t in mids]
    for t, keys in zip(mids, expected):
        r = upsilon_halfplane(t)
        assert [F(n, 2 * t.denominator) for n in keys] == [entering_time(r, p) for p in at0]
    assert len(calls) > len(mids) == 4 and calls[len(calls) - len(mids):] == expected

    def slopes(keys):  # the slope part of each packed key, decoded
        return [divmod(key, 2 * h + 1)[1] - h for key in keys]

    assert all(slopes(keys) == [a - j for a, j in at0] for keys in calls[:len(calls) - len(mids)])
    # kim_livingston reads both sides of t* from its own two reductions
    calls.clear()
    t = breaking_points(k)[0].t
    kim_livingston(k, t, t)
    assert len(calls) == 2 and [slopes(keys) for keys in calls] == [
        [sign * (a - j) for a, j in at0] for sign in (1, -1)]


def _every_crossing_curve(k):
    """The curve by the route the kinetic sweep replaced: the engine value at
    every crossing of any two generator lines."""
    ts = oracles._candidate_ts(complexes._Engine.of(k).at0)
    return PLFunction(tuple((t, -2 * upsilon_region(k, upsilon_halfplane(t))) for t in ts))


def _random_torus_sum(rng):
    """A sum of 1-3 torus knots or mirrors (at most 250 generators), with 0-2
    acyclic squares."""
    parts = [(3, 2), (5, 2), (7, 2), (4, 3), (5, 3), (7, 3), (5, 4)]
    while True:
        summands = [torus_knot(*rng.choice(parts)) for _ in range(rng.randint(1, 3))]
        k = tensor(*(c if rng.random() < 0.5 else mirror(c) for c in summands))
        if len(k.generators) <= 250:
            break
    for _ in range(rng.randint(0, 2)):
        k = add_box(k, (rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-2, 2))
    return k


def test_kinetic_curve_matches_every_crossing_route():
    rng = random.Random(909)
    torus = [torus_knot(p, q) for p in range(3, 11) for q in range(2, p) if gcd(p, q) == 1]
    knots = (
        SMALL_ZOO + torus + [mirror(k) for k in torus]
        + [pretzel(q) for q in range(7, 12, 2)] + [thin_model(n) for n in range(-3, 4)]
        + [_random_torus_sum(rng) for _ in range(40)]
    )
    for k in knots:
        f = _every_crossing_curve(k)
        assert upsilon_function(k) == f
        assert breaking_points(k) == [BreakingPoint(t, j) for t, j in pl_singular_points(f) if j > 0]


def test_headline_curve_reduces_only_at_events(monkeypatch):
    # the every-crossing route ran 481 reductions on this curve
    calls = []
    least_top = invariants._least_top

    def count(*args):
        calls.append(args)
        return least_top(*args)

    monkeypatch.setattr(invariants, "_least_top", count)
    chords = invariants._check_chords
    swept = []  # the reductions made before the chord checks began
    monkeypatch.setattr(invariants, "_check_chords",
                        lambda *args: (swept.append(len(calls)), chords(*args))[1])
    k = tensor(torus_knot(8, 5), mirror(torus_knot(6, 5)), mirror(torus_knot(4, 3)))
    f = upsilon_function(k)
    # pinned: 58 sweep events and one chord check for each of the 2 segments
    assert (len(calls), swept, len(f.points) - 1) == (60, [58], 2)
    kernels = _record_kernel_calls(monkeypatch)
    assert kim_livingston(k, 1, 1) == -1
    assert kernels == ["_least_top", "_least_top", "_below", "_below"]
    minus = [pl_negate_scale(staircase_upsilon(torus_jumps(p, q)), -1) for p, q in ((6, 5), (4, 3))]
    assert f == pl_add(pl_add(staircase_upsilon(torus_jumps(8, 5)), minus[0]), minus[1])


def test_kl_parameter_ranges_have_one_message():
    k = torus_knot(3, 2)
    for t_star, s, message in ((0, 1, "t_star must lie in"), (1, 3, "s must lie in")):
        for route in (kim_livingston, kim_livingston_oracle):
            with pytest.raises(ValueError, match=message):
                route(k, t_star, s)


def test_lone_acyclic_box_is_not_knot_type():
    # no degree-0 homology: every engine query says so, on an empty leaf too
    t, half = F(1), upsilon_halfplane(F(2, 3))
    queries = [lambda k: upsilon_region(k, upsilon_halfplane(1)), lambda k: upsilon_at(k, t),
               upsilon_function, breaking_points, lambda k: h0_surjective(k, half, 0),
               lambda k: vk(k, 0), nu_plus, lambda k: d_invariant(k, 1, 0),
               lambda k: eta(k, half),
               lambda k: secondary(k, upsilon_halfplane(F(3, 2)), half, upsilon_halfplane(1)),
               lambda k: kim_livingston(k, t, t)]
    empty = KnotComplex((), ())
    for build in (lambda: empty, lambda: add_box(empty, (0, 0), 0),
                  lambda: tensor(torus_knot(3, 2), empty)):
        for query in queries:
            with pytest.raises(ValueError, match="not knot-type"):
                query(build())


def test_upsilon_function_is_canonical_pl():
    # returned functions are PLFunction instances with exact endpoints 0 and 2
    f = upsilon_function(torus_knot(8, 5))
    assert isinstance(f, PLFunction)
    assert f.points[0][0] == 0 and f.points[-1][0] == 2
    assert pl_singular_points(pl_add(f, pl_negate_scale(f, -1))) == []
    assert pl_add(f, pl_negate_scale(f, -1)) == pl_constant(0)


def _tuple_line_keys(positions, n, d, sign):
    """The line keys as (value, slope) pairs, as the sweep and kim_livingston
    read them before they were packed in one int: the reference for
    `_line_keys`."""
    return [(2 * d * j + n * (a - j), sign * (a - j)) for a, j in positions]


def _kl_by_tuple_keys(k, t_star, s):
    """kim_livingston on the pair keys: `_secondary` on (value, ±slope)
    pairs, and the leading lines read from the pairs it returns."""
    eng = complexes._Engine.of(k)
    n, d = t_star.numerator, t_star.denominator
    sides = ([_tuple_line_keys(pos, n, d, sign) for pos in (eng.at0, eng.at1)] for sign in (1, -1))
    c = [s.numerator * a + (2 * s.denominator - s.numerator) * j for a, j in eng.at1], 2 * s.denominator
    (v, right), (v_left, neg_left), value = invariants._secondary(eng, *sides, c)
    assert v == v_left
    if value is NO_OBSTRUCTION:
        return NO_OBSTRUCTION
    if right >= -neg_left:
        raise NotABreakingPoint(f"t = {t_star} is not a breaking point")
    return -2 * (value - F(v, 2 * d))


def _wide_in_slice_1():
    """T(3,2) plus an acyclic pair y -> z: y, in slice 1, has slope
    A - j = 10, above every |A - j| of slice 0 (at most 2, at z), so a
    width taken from slice 0 alone cannot pack the slice-1 keys."""
    k = torus_knot(3, 2)
    return KnotComplex(k.generators + (BaseGenerator("y", 5, -5, 1), BaseGenerator("z", -3, -5, 0)),
                       k.arrows + (("y", "z", 0),))


def _packed_key_knots():
    """The headline, the slice-1-wide complex and 20 seeded two- and
    three-summand torus sums of at most 250 generators."""
    rng = random.Random(2222)
    parts = [(3, 2), (5, 2), (7, 2), (4, 3), (5, 3), (7, 3), (5, 4)]
    knots = [_headline(), _wide_in_slice_1()]
    while len(knots) < 22:
        summands = [torus_knot(*rng.choice(parts)) for _ in range(rng.randint(2, 3))]
        if prod(len(c.generators) for c in summands) <= 250:
            knots.append(tensor(*(c if rng.random() < 0.5 else mirror(c) for c in summands)))
    return knots


def test_packed_line_keys_order_as_the_pairs_do():
    rng = random.Random(2223)
    wide = _wide_in_slice_1()
    assert validate_complex(wide).ok
    eng = complexes._Engine.of(wide)
    assert max(abs(a - j) for a, j in eng.at0) < 10 == invariants._slope_bound(eng)
    kl_values = []
    for k in _packed_key_knots():
        eng = complexes._Engine.of(k)
        h = invariants._slope_bound(eng)
        w = 2 * h + 1
        bps = [bp.t for bp in breaking_points(k)]
        for t in bps + [F(rng.randint(0, 24), rng.randint(1, 12)) for _ in range(4)]:
            t = min(t, F(2))
            n, d = t.numerator, t.denominator
            for sign in (1, -1):
                for pos in (eng.at0, eng.at1):
                    packed = invariants._line_keys(pos, n, d, sign, h)
                    pairs = _tuple_line_keys(pos, n, d, sign)
                    # decoding is one-to-one, so equal ints are equal pairs: ties included
                    assert [divmod(key, w) for key in packed] == [(v, s + h) for v, s in pairs]
                    by = sorted(range(len(pos)), key=packed.__getitem__)
                    assert by == sorted(range(len(pos)), key=pairs.__getitem__)
                v, r = divmod(complexes._least_top(eng, invariants._line_keys(eng.at0, n, d, sign, h)), w)
                assert (v, r - h) == complexes._least_top(eng, _tuple_line_keys(eng.at0, n, d, sign))
            if 0 < t < 2:
                for s in sorted({F(0), t, F(1), F(2)}):
                    value = _outcome(kim_livingston, k, t, s)
                    assert value == _outcome(_kl_by_tuple_keys, k, t, s)
                    kl_values.append(value)
    assert {type(v) for v in kl_values} >= {F, NoObstructionType}


def test_breaking_points_and_curve_match_the_public_routes():
    for k in _packed_key_knots():
        f = upsilon_function(k)
        assert f == PLFunction(f.points)
        assert all(type(t) is F and type(v) is F for t, v in f.points)
        bps = breaking_points(k)
        assert bps == [BreakingPoint(t, j) for t, j in pl_singular_points(f) if j > 0]
        assert all(type(bp.t) is F and type(bp.jump) is F for bp in bps)


# ---------------------------------------------------------------------------
# one engine per complex
# ---------------------------------------------------------------------------


def test_complex_is_freed_after_queries():
    # nothing at module level keeps a queried complex (or its engine) alive;
    # the box makes k unequal to every complex other tests query
    k = add_box(torus_knot(4, 3), (40, 41), 0)
    t, d = F(2, 3), F(1, 100)
    upsilon_function(k)
    vk(k, 0)
    eta(k, upsilon_halfplane(1))
    secondary(k, upsilon_halfplane(t + d), upsilon_halfplane(t - d), upsilon_halfplane(1))
    assert kim_livingston(k, t, t) == F(-4, 3)
    ref = weakref.ref(k)
    del k
    gc.collect()
    assert ref() is None


def test_upsilon_curve_is_computed_once_per_complex(monkeypatch):
    k = torus_knot(5, 3)
    f = upsilon_function(k)
    other = upsilon_function(torus_knot(5, 3))  # an equal complex has its own engine
    assert other == f and other is not f

    def region(*args):
        raise AssertionError("the curve was evaluated again")

    monkeypatch.setattr(invariants, "_least_top", region)
    assert upsilon_function(k) is f
    assert [(bp.t, bp.jump) for bp in breaking_points(k)] == [
        (t, jump) for t, jump in pl_singular_points(f) if jump > 0
    ] != []


def _record_kernel_calls(monkeypatch) -> list:
    """A list to which each call of `invariants._least_top` or `_below`
    appends the kernel's name."""
    calls = []

    def counted(name):
        kernel = getattr(invariants, name)

        def count(*args):
            calls.append(name)
            return kernel(*args)

        return count

    for name in ("_least_top", "_below"):
        monkeypatch.setattr(invariants, name, counted(name))
    return calls


def test_kim_livingston_reduces_twice(monkeypatch):
    # the two one-sided reductions at t* answer everything: the kink value,
    # the breaking-point test and both exceptional cosets; each side is one
    # `_least_top` for its key and one `_below` for its coset
    calls = _record_kernel_calls(monkeypatch)

    def region(*args):
        raise AssertionError("kim_livingston built, keyed or queried a region")

    for name in ("upsilon_region", "upsilon_halfplane", "entering_numerators"):
        monkeypatch.setattr(invariants, name, region)
    for t, s, expected in ((F(2, 3), F(2, 3), F(-4, 3)), (F(1), F(1), NO_OBSTRUCTION)):
        calls.clear()
        assert kim_livingston(torus_knot(4, 3), t, s) == expected
        assert calls == ["_least_top", "_least_top", "_below", "_below"]


def test_kim_livingston_decides_breaking_points_locally(monkeypatch):
    # With the secondary value forced finite, kim_livingston must reach its
    # breaking-point test; its local decision must agree with the whole curve.
    secondary_body = invariants._secondary

    def finite(eng, plus, minus, c):
        times_c, d = c  # H(1): entering times of the slice-1 positions over d
        assert [F(n, d) for n in times_c] == [entering_time(upsilon_halfplane(1), p)
                                              for p in eng.at1]
        return secondary_body(eng, plus, minus, c)[:2] + (F(0),)

    for k in SMALL_ZOO + [mirror(torus_knot(4, 3)), torus_knot(8, 5)]:
        f = upsilon_function(k)
        bps = {bp.t for bp in breaking_points(k)}
        kinks = [t for t, _ in f.points[1:-1]]
        smooth = [(t0 + t1) / 2 for (t0, _), (t1, _) in zip(f.points, f.points[1:])]
        with monkeypatch.context() as m:
            m.setattr(invariants, "_secondary", finite)
            for t in kinks + smooth:
                if t in bps:
                    assert kim_livingston(k, t, 1) == 2 * upsilon_region(k, upsilon_halfplane(t))
                else:
                    with pytest.raises(NotABreakingPoint, match="not a breaking point"):
                        kim_livingston(k, t, 1)


def _perturbation_route(k, candidates, t):
    """kim_livingston at t by the route the one-sided reductions replaced, as
    a function of s: the perturbed half-planes at half the gap from t to the
    nearest crossing of any two generator lines (the candidates), and the
    breaking-point test by the values there.  An error comes back as its
    message."""
    delta = oracles._kl_delta(candidates, t)
    minus, plus = upsilon_halfplane(t - delta), upsilon_halfplane(t + delta)
    lo, kink, hi = (upsilon_region(k, r) for r in (minus, upsilon_halfplane(t), plus))

    def at(s):
        value = secondary(k, plus, minus, upsilon_halfplane(s))
        if value is NO_OBSTRUCTION:
            return NO_OBSTRUCTION
        if lo + hi - 2 * kink >= 0:
            return f"t = {t} is not a breaking point"
        return -2 * (value - kink)

    return at


def test_kim_livingston_matches_perturbation_route():
    # every kink and segment midpoint of the curve of each knot, at several s
    rng = random.Random(1010)
    torus = [torus_knot(p, q) for p in range(3, 11) for q in range(2, p) if gcd(p, q) == 1]
    knots = (
        SMALL_ZOO + torus + [mirror(k) for k in torus]
        + [pretzel(q) for q in range(7, 12, 2)] + [thin_model(n) for n in range(-3, 4)]
        + [_random_torus_sum(rng) for _ in range(40)]
    )
    errors = 0
    for k in knots:
        candidates = oracles._candidate_ts(complexes._Engine.of(k).at0)
        points = [t for t, _ in upsilon_function(k).points]
        for t in points[1:-1] + [(t0 + t1) / 2 for t0, t1 in zip(points, points[1:])]:
            old = _perturbation_route(k, candidates, t)
            for s in {F(0), t, F(1), F(7, 5)}:
                try:
                    new = kim_livingston(k, t, s)
                except NotABreakingPoint as e:
                    new = str(e)
                    errors += 1
                assert new == old(s), (k, t, s)
    assert errors > 0  # the breaking-point test was reached off the breaking points


# ---------------------------------------------------------------------------
# the engine's basis of im d1, fixed at build
# ---------------------------------------------------------------------------


def _headline():
    return tensor(torus_knot(8, 5), mirror(torus_knot(6, 5)), mirror(torus_knot(4, 3)))


def test_engine_basis_spans_the_boundaries():
    rng = random.Random(31)
    boxed = [add_box(torus_knot(4, 3), (1, -2), -1), add_box(mirror(torus_knot(5, 2)), (-3, 0), 1),
             add_box(add_box(torus_knot(3, 2), (0, 0), -3), (2, 2), 2)]
    for k in SMALL_ZOO + boxed + [_random_torus_sum(rng) for _ in range(12)] + [_headline()]:
        eng = complexes._Engine.of(k)
        kept = set(eng.basis_cols)
        assert len(eng.basis_cols) == boundary_matrix(k, 1).rank() == F2Space(eng.basis_cols).dim
        assert [list(_bits(col)) for col in eng.basis_cols] == [
            [i for i, row in enumerate(_basis_rows(eng)) if row >> b & 1]
            for b in range(len(eng.basis_cols))]
        assert kept <= set(eng.d1_cols)
        span = F2Space(eng.basis_cols)
        assert all(span.contains(col) for col in eng.d1_cols if col not in kept)
    assert (len(eng.basis_cols), len(eng.d1_cols)) == (215, 427)  # the headline


def _per_generator(groups, keys):
    """Keys of the positions expanded to one key per generator, by the
    generators at each position (`eng.gens0` or `eng.gens1`)."""
    per = [None] * sum(map(len, groups))
    for gens, key in zip(groups, keys):
        for i in gens:
            per[i] = key
    return per


def _expand(eng, coords):
    """The slice-0 vector with these coordinates over the engine's basis of
    im d1: the sum of the d1 columns they name."""
    v = 0
    for i in _bits(coords):
        v ^= eng.d1_cols[i]
    return v


def _coordinates(eng, boundaries):
    """The coordinates of these boundaries over the engine's basis of im d1,
    from reductions against the basis columns with their bits as
    companions."""
    pivots = {}
    _echelonize(pivots, zip(eng.basis_cols, eng.basis_bits))
    reduced = [_reduce_pair(pivots, v, 0) for v in boundaries]
    assert not any(v for v, _ in reduced)
    return [c for _, c in reduced]


def _basis_rows(eng):
    """Per slice-0 generator, the mask of the engine's basis columns through
    it: the rows that `eng.groups0` packs."""
    return _transpose(eng.basis_cols, sum(map(len, eng.gens0)))


def _reduce(eng, keys):
    """The filtered reduction by columns, with one key per slice-0 position:
    the route `_secondary` took before `_below`, and the reference for
    `_least_top` and `_below`.  The rows are ordered by key and the engine's
    basis of im d1 echelonized by its latest row, each vector carrying the
    same chain in original row order; z_ref reduced against it leaves the
    coset member whose latest row is earliest.  Returns that row's key (the
    least top), the reduced cycle and the echelon basis as (leading key,
    mask) pairs: those with leading key <= x span the boundaries on rows
    keyed at most x."""
    bit = [0] * sum(map(len, eng.gens0))
    row_keys = []  # the key of each row, in key order
    for p in sorted(range(len(keys)), key=keys.__getitem__):
        for i in eng.gens0[p]:
            bit[i] = 1 << len(row_keys)
            row_keys.append(keys[p])

    def permute(rows):
        return sum(bit[i] for i in rows)  # distinct bits: the sum is their union

    pivots = {}
    _echelonize(pivots, ((permute(_bits(col)), col) for col in eng.basis_cols))
    z, w = _reduce_pair(pivots, permute(_bits(eng.z_ref)), eng.z_ref)
    assert permute(_bits(w)) == z
    basis = [(row_keys[lead], col) for lead, (_, col) in pivots.items()]
    return row_keys[z.bit_length() - 1], w, basis


def _full_column_reduce(eng, keys):
    """The filtered reduction over every d1 column, dependent ones included,
    with one key per slice-0 generator: the route before the engine fixed a
    basis of im d1 and keyed positions."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r

    def permute(mask):
        return sum(1 << rank[i] for i in _bits(mask))

    pivots = {}
    _echelonize(pivots, ((permute(col), col) for col in eng.d1_cols))
    z, w = _reduce_pair(pivots, permute(eng.z_ref), eng.z_ref)
    assert z and permute(w) == z
    basis = [(keys[order[lead]], col) for lead, (_, col) in pivots.items()]
    return keys[order[z.bit_length() - 1]], w, basis


def _engine_values(k, rng):
    """Every engine value on k, on a fresh equal complex (so nothing cached
    is read): the curve, its kinks' Kim-Livingston values and a sample of
    region, V, eta and secondary queries drawn from rng."""
    k = KnotComplex(k.generators, k.arrows)
    f = upsilon_function(k)
    regions = [_random_region(rng) for _ in range(4)]
    t, d = F(rng.randint(2, 10), 6), F(1, 100)
    triples = [(upsilon_halfplane(t + d), upsilon_halfplane(t - d), regions[0]),
               tuple(regions[1:])]
    return (
        f,
        [kim_livingston(k, bp.t, s) for bp in breaking_points(k) for s in (F(0), bp.t, F(1))],
        [upsilon_region(k, r) for r in regions],
        [vk(k, s) for s in range(-2, 3)],
        [eta(k, r) for r in regions],
        [secondary(k, *triple) for triple in triples],
    )


def test_basis_reduction_matches_the_full_column_route(monkeypatch):
    rng = random.Random(4242)
    knots = [_random_sum(rng) for _ in range(6)] + [_random_torus_sum(rng) for _ in range(6)]
    knots.append(_headline())  # past the oracles' guard
    seeds = [rng.random() for _ in knots]
    fast = [_engine_values(k, random.Random(seed)) for k, seed in zip(knots, seeds)]

    def full(eng, keys):
        return _full_column_reduce(eng, _per_generator(eng.gens0, keys))

    def below(eng, keys, g):  # in coordinates, as `_below` returns them, with no units
        _, w, basis = full(eng, keys)
        c, *relations = _coordinates(eng, [w ^ eng.z_ref] + [v for key, v in basis if key <= g])
        return c, 0, relations

    monkeypatch.setattr(invariants, "_least_top", lambda eng, keys: full(eng, keys)[0])
    monkeypatch.setattr(invariants, "_below", below)
    full = [_engine_values(k, random.Random(seed)) for k, seed in zip(knots, seeds)]
    assert fast == full
    assert any(kl for _, kl, *_ in fast)  # some kink was evaluated


class _CountedGroups(tuple):
    """A tuple that records the indices read from it."""

    def __getitem__(self, p):
        self.read.append(p)
        return tuple.__getitem__(self, p)


def test_region_query_stops_before_the_last_row(monkeypatch):
    # the key-only kernel reads the rows from the latest key down, position
    # by position, and stops at the answer; it echelonizes no columns
    k = _headline()
    eng = complexes._Engine.of(k)  # the build echelonizes every column, once
    r = upsilon_halfplane(F(2, 3))
    nums, d = invariants.entering_numerators(r, eng.at0)
    expected = F(_reduce(eng, nums)[0], d)
    groups = eng.groups0
    eng.groups0 = _CountedGroups(groups)
    eng.groups0.read = []

    def no_columns(pivots, pairs):
        raise AssertionError("a region query echelonized columns")

    monkeypatch.setattr(complexes, "_echelonize", no_columns)
    assert upsilon_region(k, r) == expected
    read = eng.groups0.read
    rows = [(i, row) for p in read for i, row in zip(eng.gens0[p], groups[p])]  # every row read
    assert 0 < len(read) < len(eng.at0) == 150
    basis_rows = _basis_rows(eng)
    assert 0 < len(rows) < len(basis_rows) == 428
    assert all(row >> 1 == basis_rows[i] and row & 1 == eng.z_ref >> i & 1 for i, row in rows)


def _key_draws(rng, n):
    """Keys for n rows of each kind the engine queries with: integers with
    many ties, (value, slope) tuples and (outside, A) pairs."""
    return ([rng.randint(0, 3) for _ in range(n)],
            [(rng.randint(-4, 4), rng.randint(-2, 2)) for _ in range(n)],
            [(rng.random() < 0.3, rng.randint(-3, 3)) for _ in range(n)])


def test_least_top_matches_the_column_reduction():
    rng = random.Random(1515)
    # the unknot and the mirrored thin knot have no basis columns, so their
    # packed rows are 0 or 1 and no pivot is stored; the box adds one column
    small = [unknot(), add_box(unknot(), (0, 0), 1), mirror(thin_model(2))]
    knots = [_random_torus_sum(rng) for _ in range(20)] + [_headline()] + small
    cases = 0
    for k in knots:
        eng = complexes._Engine.of(k)
        for _ in range(5):
            for keys in _key_draws(rng, len(eng.at0)):  # one key per position
                expected = _least_top_by_generator(eng, _per_generator(eng.gens0, keys))
                assert complexes._least_top(eng, keys) == _reduce(eng, keys)[0] == expected
                cases += 1
        for t in (F(0), F(1, 3), F(1), F(2)):  # the engine's own keys
            keys = invariants.entering_numerators(upsilon_halfplane(t), eng.at0)[0]
            assert complexes._least_top(eng, keys) == _reduce(eng, keys)[0]
    assert cases == 24 * 15


def test_least_top_asserts_when_the_cycle_is_a_boundary():
    k = torus_knot(5, 3)
    eng = complexes._Engine.of(KnotComplex(k.generators, k.arrows))
    keys = [a for a, _ in eng.at0]
    assert complexes._least_top(eng, keys) == 0
    eng = complexes._Engine(k)  # its rows are grouped with z_ref's bits on first use
    eng.z_ref = eng.basis_cols[0]
    with pytest.raises(AssertionError, match="^least-top reduction: the generating cycle is a boundary$"):
        complexes._least_top(eng, keys)


def test_below_matches_the_column_reduction():
    # on the draws of the least-top test and on entering times, with the
    # coordinates expanded to columns: z is z_ref plus a boundary on the rows
    # keyed at most gamma, and the units and relations span what the column
    # route's basis vectors led at most gamma span
    rng = random.Random(1717)
    knots = [_random_torus_sum(rng) for _ in range(20)] + [_headline()]
    cases = 0
    for k in knots:
        eng = complexes._Engine.of(k)
        boundaries = F2Space(eng.basis_cols)
        draws = [keys for _ in range(2) for keys in _key_draws(rng, len(eng.at0))]
        draws += [invariants.entering_numerators(upsilon_halfplane(t), eng.at0)[0]
                  for t in (F(0), F(1, 3), F(1), F(2))]
        for keys in draws:
            gamma = complexes._least_top(eng, keys)
            c, unit, relations = complexes._below(eng, keys, gamma)
            assert all(v & ~sum(eng.basis_bits) == 0 for v in (c, unit, *relations))
            z = eng.z_ref ^ _expand(eng, c)
            span = [eng.d1_cols[i] for i in _bits(unit)] + [_expand(eng, v) for v in relations]
            key, _, basis = _reduce(eng, keys)
            low = _mask(i for p, gens in enumerate(eng.gens0) if keys[p] <= gamma for i in gens)
            assert key == gamma
            assert z & ~low == 0 and boundaries.contains(z ^ eng.z_ref)
            assert all(v & ~low == 0 for v in span)
            led = [v for lead, v in basis if lead <= gamma]
            assert F2Space(span).dim == F2Space(led).dim == F2Space(span + led).dim
            cases += 1
    assert cases == 21 * 10


def test_below_asserts_below_the_least_top():
    k = torus_knot(5, 3)
    eng = complexes._Engine.of(k)
    keys = [a for a, _ in eng.at0]
    assert complexes._least_top(eng, keys) == 0
    z = eng.z_ref ^ _expand(eng, complexes._below(eng, keys, 0)[0])
    assert z & ~_mask(i for p, gens in enumerate(eng.gens0) if keys[p] <= 0 for i in gens) == 0
    message = "^below reduction: no generating cycle stays on the rows keyed at most the least top$"
    with pytest.raises(AssertionError, match=message):
        complexes._below(eng, keys, -1)


def test_coordinates_name_the_columns():
    # every d1 column is the sum of the basis columns its coordinates name,
    # and `_below`'s coordinates, expanded, lie on the rows keyed at most
    # the least top: the cycle, each unit column and each relation
    rng = random.Random(2929)
    knots = [_headline()]
    while len(knots) < 13:
        k = _random_torus_sum(rng)
        if len(vars(k).get("_leaves", ())) >= 2:
            knots.append(k)
    cases = related = 0
    for k in knots:
        eng = complexes._Engine.of(k)
        assert len(eng.coords) == len(eng.d1_cols)
        basis = sum(eng.basis_bits)
        assert all(c & ~basis == 0 and _expand(eng, c) == col
                   for c, col in zip(eng.coords, eng.d1_cols))
        index = [b.bit_length() - 1 for b in eng.basis_bits]  # aligned with `basis_cols`
        assert [eng.d1_cols[i] for i in index] == list(eng.basis_cols)
        assert [eng.coords[i] for i in index] == list(eng.basis_bits)
        regions = [upsilon_halfplane(F(rng.randint(0, 24), 12)) for _ in range(3)]
        regions += [_random_region(rng) for _ in range(3)]
        for r in regions:
            keys = invariants.entering_numerators(r, eng.at0)[0]
            gamma = complexes._least_top(eng, keys)
            c, unit, relations = complexes._below(eng, keys, gamma)
            high = _mask(i for p, gens in enumerate(eng.gens0) if keys[p] > gamma for i in gens)
            assert (eng.z_ref ^ _expand(eng, c)) & high == 0
            assert all(eng.d1_cols[i] & high == 0 for i in _bits(unit))
            assert all(v and _expand(eng, v) & high == 0 for v in relations)
            cases += 1
            related += len(relations)
    assert cases == 13 * 6 and related > 0


def test_headline_secondary_echelonizes_only_the_relations(monkeypatch):
    # pinned: before the late scan, `_secondary` echelonizes the relations
    # of both sides and the target, 7 vectors; the slice-0 route took the
    # 170 distinct spanning vectors of V+ + V- and the target
    k = _headline()
    t, d = F(1), F(1, 8000)
    regions = (upsilon_halfplane(t + d), upsilon_halfplane(t - d), upsilon_halfplane(F(1, 4)))
    secondary(k, *regions)  # builds the engine and its rows
    counts = []

    def count(pivots, pairs):
        pairs = list(pairs)
        counts.append(len(pairs))
        return _echelonize(pivots, pairs)

    monkeypatch.setattr(invariants, "_echelonize", count)
    assert secondary(k, *regions) == 1
    assert counts[:2] == [6, 1]  # the relations, then the target


# ---------------------------------------------------------------------------
# nu+ and the secondary invariant, each one reduction
# ---------------------------------------------------------------------------


def _nu_plus_by_v_scan(k):
    """nu+ by the route one keyed reduction replaced: V(s) for s = 0, 1, ...
    up to one past the largest Alexander grading."""
    bound = max(0, max(a for a, _ in complexes._Engine.of(k).at0)) + 1
    for s in range(bound + 1):
        if vk(k, s) == 0:
            return s
    raise ValueError("V(s) did not vanish up to the Alexander range; not knot-type?")


def _secondary_by_growing_span(eng, plus, minus, c):
    """`invariants._secondary` by the route one column reduction replaced: an
    F2Space grown one entering time into C at a time, with a membership test
    after each.  It adds the columns of C±_{gamma±}, which `_secondary` skips,
    and reads the slice-1 keys, C's (numerators over d) included, per
    generator."""
    (keys_p, keys1_p), (keys_m, keys1_m) = plus, minus
    keys1_p, keys1_m = (_per_generator(eng.gens1, keys) for keys in (keys1_p, keys1_m))
    gp, zp, basis_p = _reduce(eng, keys_p)
    gm, zm, basis_m = _reduce(eng, keys_m)
    space = F2Space([v for key, v in basis_p if key <= gp] + [v for key, v in basis_m if key <= gm])
    target = zp ^ zm
    if space.contains(target):
        return gp, gm, NO_OBSTRUCTION
    times_c, d = _per_generator(eng.gens1, c[0]), c[1]
    by_time = {}
    for col, kp, km, tc in zip(eng.d1_cols, keys1_p, keys1_m, times_c):
        if kp <= gp or km <= gm:
            space.add(col)
        by_time.setdefault(tc, []).append(col)
    for t in sorted(by_time):
        for col in by_time[t]:
            space.add(col)
        if space.contains(target):
            return gp, gm, F(t, d)
    raise AssertionError("secondary invariant: homologous at no candidate translate")


def _outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return type(e), str(e)


def test_vk_keys_positions_without_a_region(monkeypatch):
    rng = random.Random(79)
    knots = [_headline()] + [_random_torus_sum(rng) for _ in range(6)]
    expected = [[upsilon_region(k, v_region(s)) for s in range(-6, 33)] for k in knots]
    assert {-2 * v for vs in expected for v in vs} > {F(0), F(-2)}

    def no_region(*args):
        raise AssertionError("vk built or keyed a region")

    for module, name in ((invariants, "entering_numerators"), (invariants, "upsilon_region"),
                         (regions, "v_region"), (regions, "entering_numerators")):
        monkeypatch.setattr(module, name, no_region)
    assert [[-vk(k, s) / 2 for s in range(-6, 33)] for k in knots] == expected


def test_nu_plus_matches_the_v_scan():
    rng = random.Random(77)
    # Lone generators, each a single U-tower but no knot's: no cycle in {j <= 0},
    # and a cycle below A = 0 at j = 0 and at j < 0 (V(0) = 0, and V(0) = 2).
    lone = [KnotComplex((BaseGenerator("x", a, j, 0),), ()) for a, j in ((0, 1), (-2, 0), (-2, -1))]
    knots = (SMALL_ZOO + [mirror(k) for k in SMALL_ZOO] + [_random_sum(rng) for _ in range(6)]
             + [_random_torus_sum(rng) for _ in range(6)] + [_headline()] + lone)
    new = [_outcome(nu_plus, k) for k in knots]
    assert new == [_outcome(_nu_plus_by_v_scan, k) for k in knots]
    error = (ValueError, "V(s) did not vanish up to the Alexander range; not knot-type?")
    assert new[-3:] == [error, 0, error]
    assert len(set(new)) > 3


def test_secondary_matches_the_growing_span(monkeypatch):
    rng = random.Random(78)
    knots = SMALL_ZOO[1:] + [_random_sum(rng) for _ in range(4)] + [_headline()]
    triples = [(k, tuple(_random_region(rng) for _ in range(3))) for k in knots for _ in range(6)]
    sides = [(k, bp.t, s) for k in knots for bp in breaking_points(k)
             for s in {F(0), F(1, 2), bp.t, F(1), F(7, 5), F(2)}]

    def values():
        return ([secondary(k, *triple) for k, triple in triples],
                [kim_livingston(*side) for side in sides])

    new = values()
    monkeypatch.setattr(invariants, "_secondary", _secondary_by_growing_span)
    assert new == values()
    finite = [v for v in new[0] + new[1] if v is not NO_OBSTRUCTION]
    assert len(finite) >= 10 and len(finite) < len(triples) + len(sides)


def _headline_values(k):
    """Every engine query type on the headline sum, each at one argument."""
    t, d = F(1), F(1, 8000)
    return (upsilon_function(k), vk(k, 1), nu_plus(k), d_invariant(k, 27, 3),
            eta(k, upsilon_halfplane(F(2, 3))),
            secondary(k, upsilon_halfplane(t + d), upsilon_halfplane(t - d), upsilon_halfplane(F(1, 4))),
            kim_livingston(k, t, t))


def test_nu_plus_and_secondary_reduce_once_per_question(monkeypatch):
    expected = _headline_values(_headline())
    k = _headline()
    calls = _record_kernel_calls(monkeypatch)

    def no_space(self, vectors=()):
        raise AssertionError("an engine route built an F2Space")

    monkeypatch.setattr(F2Space, "__init__", no_space)
    assert nu_plus(k) == 1 and calls == ["_least_top"]
    t, d = F(2, 5), F(1, 8000)
    for tc, value in ((F(1), 1), (t, NO_OBSTRUCTION)):  # finite, and the early exit
        calls.clear()
        plus, minus = upsilon_halfplane(tc + d), upsilon_halfplane(tc - d)
        assert secondary(k, plus, minus, upsilon_halfplane(F(1, 4))) == value
        assert calls == ["_least_top", "_least_top", "_below", "_below"]
    assert _headline_values(k) == expected


# ---------------------------------------------------------------------------
# queries keyed per distinct (A, j) position
# ---------------------------------------------------------------------------


def test_headline_engine_groups_its_generators_by_position():
    k = _headline()
    eng, (pos0, pos1) = complexes._Engine.of(k), complexes._graded(k)[0]
    assert (len(pos0), len(pos1)) == (428, 427)
    assert (len(eng.at0), len(eng.at1)) == (150, 147)
    for at, gens, pos in ((eng.at0, eng.gens0, pos0), (eng.at1, eng.gens1, pos1)):
        assert sorted(i for group in gens for i in group) == list(range(len(pos)))
        assert all(pos[i] == p for p, group in zip(at, gens) for i in group)
    rows = _basis_rows(eng)
    assert [[row >> 1 for row in group] for group in eng.groups0] == [
        [rows[i] for i in group] for group in eng.gens0]
    assert sum((row & 1) << i for group, rows in zip(eng.gens0, eng.groups0)
               for i, row in zip(group, rows)) == eng.z_ref


def _least_top_by_generator(eng, keys):
    """`complexes._least_top` with one key per slice-0 generator: the rows
    one at a time by decreasing key, as before the engine grouped them."""
    pivots, rows = {}, _basis_rows(eng)
    for i in sorted(range(len(keys)), key=keys.__getitem__, reverse=True):
        v, c = _reduce_pair(pivots, rows[i], eng.z_ref >> i & 1)
        if v:
            pivots[v.bit_length() - 1] = (v, c)
        elif c:
            return keys[i]
    raise AssertionError("least-top reduction: the generating cycle is a boundary")


def _any_region(rng):
    """A region of `_random_region`'s kinds, or an intersection or a
    translate of them."""
    kind = rng.randrange(3)
    if kind == 0:
        return _random_region(rng)
    if kind == 1:
        return intersect(_random_region(rng), _random_region(rng))
    return translate(_random_region(rng), F(rng.randint(-6, 6), 4))


def test_grouped_keys_equal_per_generator_keys(monkeypatch):
    rng = random.Random(1616)
    knots = [_random_torus_sum(rng) for _ in range(8)] + [_headline()]
    cases = 0
    for k in knots:
        eng, pos0 = complexes._Engine.of(k), complexes._graded(k)[0][0]
        draws = []
        for _ in range(6):
            r = _any_region(rng)
            (at, d), (per, d_per) = (invariants.entering_numerators(r, p) for p in (eng.at0, pos0))
            assert d == d_per
            draws.append((at, per))
            gamma = _least_top_by_generator(eng, per)
            draws.append(([(n > gamma, a) for n, (a, _) in zip(at, eng.at0)],
                          [(n > gamma, a) for n, (a, _) in zip(per, pos0)]))  # eta's keys
        t = F(rng.randint(1, 11), 6)
        h = invariants._slope_bound(eng)
        for sign in (1, -1):
            draws.append(tuple(invariants._line_keys(p, t.numerator, t.denominator, sign, h)
                               for p in (eng.at0, pos0)))
        for at, per in draws:
            assert _per_generator(eng.gens0, at) == per
            expected = _least_top_by_generator(eng, per)
            assert complexes._least_top(eng, at) == expected
            assert _reduce(eng, at)[0] == expected == _full_column_reduce(eng, per)[0]
            cases += 1
    assert cases == len(knots) * 14

    # the sweep, its chord checks and its continuity check, by generator
    fast = [upsilon_function(KnotComplex(k.generators, k.arrows)) for k in knots]
    monkeypatch.setattr(invariants, "_least_top", lambda eng, keys: _least_top_by_generator(
        eng, _per_generator(eng.gens0, keys)))
    assert [upsilon_function(KnotComplex(k.generators, k.arrows)) for k in knots] == fast


def test_secondary_refuses_a_complex_that_breaks_the_filtration():
    # One U-tower at x, and y -> w cancelling in homology, but the arrow
    # climbs from (0, 0) to (1, 1): skipping the columns of C±_{gamma±}
    # rests on the filtration condition, and so do C±_{gamma±} and C_t.
    k = KnotComplex((BaseGenerator("x", 0, 0, 0), BaseGenerator("y", 0, 0, 1),
                     BaseGenerator("w", 1, 1, 0)), (("y", "w", 0),))
    assert validate_complex(k).problems == ("arrow y -> U^0·w increases the filtration",)
    eng = complexes._Engine.of(k)
    assert eng.h0 == 1 and eng.unfiltered == ("y", "w", 0)
    assert upsilon_region(k, upsilon_halfplane(1)) == 0  # key-only queries still answer
    message = ("^the secondary invariant needs the filtration condition: "
               "arrow y -> U\\^0·w increases the filtration$")
    with pytest.raises(ValueError, match=message):
        secondary(k, upsilon_halfplane(F(3, 2)), upsilon_halfplane(F(1, 2)), upsilon_halfplane(1))
    with pytest.raises(ValueError, match=message):
        kim_livingston(k, F(1), F(1))
    # the engine names the first arrow that validation reports as climbing
    rng = random.Random(616)
    climbing = 0
    for k in [_random_complex(rng) for _ in range(300)]:
        problems = validate_complex(k).problems
        if any("Maslov" in p for p in problems):
            continue
        first = next((p for p in problems if "increases the filtration" in p), None)
        unfiltered = complexes._Engine.of(k).unfiltered
        assert first == (None if unfiltered is None else
                         "arrow {} -> U^{}·{} increases the filtration".format(*unfiltered[::2], unfiltered[1]))
        climbing += first is not None
    assert climbing > 0


# ---------------------------------------------------------------------------
# metamorphic: a change of basis changes no invariant
# ---------------------------------------------------------------------------


def _basis_change(k, rng, moves):
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


def _invariants_at_breaking_points(k):
    f = upsilon_function(k)
    return (f, breaking_points(k), [vk(k, s) for s in range(-2, 5)], nu_plus(k),
            eta(k, upsilon_halfplane(F(2, 3))),
            [kim_livingston(k, bp.t, s) for bp in breaking_points(k)
             for s in sorted({F(0), bp.t, F(1), F(2)})])


def _metamorphic_knots(rng):
    """Six seeded two-summand torus sums and the mirrors of the first two."""
    parts = [(3, 2), (5, 2), (4, 3), (5, 3), (7, 2)]
    knots = []
    for _ in range(6):
        summands = [torus_knot(*rng.choice(parts)) for _ in range(2)]
        knots.append(tensor(*(c if rng.random() < 0.5 else mirror(c) for c in summands)))
    return knots + [mirror(k) for k in knots[:2]]


def test_a_change_of_basis_changes_no_invariant():
    rng = random.Random(66)
    scrambled = 0
    for k in _metamorphic_knots(rng):
        moved = _basis_change(k, rng, rng.randint(1, 8))
        scrambled += moved.arrows != k.arrows
        assert validate_complex(moved).ok
        assert _invariants_at_breaking_points(moved) == _invariants_at_breaking_points(k)
    assert scrambled >= 6


def test_a_concordance_changes_no_invariant():
    # K # J # -J is concordant to K (J # -J is slice), and every value here
    # is a concordance invariant; the headline takes only a trefoil as J,
    # which keeps its sum to 7,695 generators
    rng = random.Random(68)
    parts = [torus_knot(3, 2), torus_knot(5, 2), torus_knot(4, 3)]
    parts += [mirror(j) for j in parts]
    trefoils = [parts[0], parts[3]]
    knots = [(k, parts) for k in _metamorphic_knots(random.Random(66))]
    knots += [(add_box(torus_knot(5, 3), (1, -2), -1), parts), (_headline(), trefoils)]
    for k, js in knots:
        j = rng.choice(js)
        summed = tensor(k, j, mirror(j))
        # q >= 2g - 1 of both complexes, g read as `d_invariant` reads it
        g = max(a for knot in (k, summed) for a, _ in complexes._Engine.of(knot).at0)
        q = max(3, 2 * g - 1)
        chosen = [_random_region(rng) for _ in range(3)]
        values = [(_invariants_at_breaking_points(knot), d_invariant(knot, q, 1),
                   [(upsilon_region(knot, r), eta(knot, r)) for r in chosen[:2]],
                   secondary(knot, upsilon_halfplane(1 + F(1, 100)),
                             upsilon_halfplane(1 - F(1, 100)), chosen[2]))
                  for knot in (k, summed)]
        assert values[0] == values[1]


def test_a_permutation_of_the_generators_changes_no_invariant():
    # listing the generators in another order reorders the engine's
    # positions, the ties among their keys and the rows of every reduction
    rng = random.Random(67)
    knots = [_headline()] + _metamorphic_knots(random.Random(66))
    reordered = 0
    for k in knots:
        gens = list(k.generators)
        rng.shuffle(gens)
        permuted = KnotComplex(tuple(gens), k.arrows)
        reordered += complexes._Engine.of(permuted).at0 != complexes._Engine.of(k).at0
        assert _invariants_at_breaking_points(permuted) == _invariants_at_breaking_points(k)
    assert reordered == len(knots)
