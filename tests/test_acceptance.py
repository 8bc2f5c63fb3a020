"""End-to-end acceptance checklist: eight numbered criteria, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the checklist lines.
Every comparison is exact rational arithmetic; each criterion enforces its
own wall-clock budget.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from upsilonkit.complexes import add_box, mirror, tensor
from upsilonkit.invariants import (
    breaking_points,
    d_invariant,
    eta,
    kim_livingston,
    nu_plus,
    secondary,
    staircase_kl,
    staircase_vk,
    upsilon_at,
    upsilon_function,
    upsilon_region,
    vk,
)
from upsilonkit.oracles import brute_force_upsilon, kim_livingston_oracle
from upsilonkit.regions import (
    PLFunction,
    make_halfplane,
    parse_region,
    pl_eval,
    pl_singular_points,
    union,
    upsilon_halfplane,
)
from upsilonkit.zoo import (
    alexander_pretzel,
    eta_closed_form,
    fk_upsilon,
    jumps_from_alexander,
    jumps_from_semigroup,
    pretzel,
    semigroup_from_generators,
    staircase_from_jumps,
    thin_model,
    torus_knot,
)
from upsilonkit.reports import thin_three_param

from corpus import torus_jumps


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL — {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its budget: {elapsed:.2f}s >= {budget_seconds}s"
    )
    print(f"criterion {number}: PASS — {label} ({elapsed:.2f}s, budget {budget_seconds:g}s)")


def singular_set(k) -> set:
    return {t for t, _ in pl_singular_points(upsilon_function(k))}


def test_criterion_1_thin_closed_form():
    with criterion(1, "thin models have upsilon -tau*(1-|1-t|)", 1.0):
        for tau in (-3, -1, 1, 2, 4):
            expected = PLFunction(((F(0), F(0)), (F(1), F(-tau)), (F(2), F(0))))
            assert upsilon_function(thin_model(tau)) == expected


def test_criterion_2_singularity_sets():
    with criterion(2, "torus/pretzel upsilon singularity sets", 1.0):
        assert singular_set(torus_knot(6, 5)) == {F(2, 5), F(4, 5), F(6, 5), F(8, 5)}
        assert F(2, 3) in singular_set(torus_knot(4, 3))
        assert F(2, 3) in singular_set(torus_knot(8, 5))
        for q in (7, 9, 11):
            assert singular_set(pretzel(q)) <= {F(2, 3), F(1), F(4, 3)}


def test_criterion_3_secondary_three_routes():
    label = (
        "secondary invariant at (2/3, 2/3): T(4,3) gives -4/3 on all three routes; "
        "T(8,5) gives -4/3 on all three routes, and -20/3 is its cross-evaluation "
        "at s = 4/3 (see the kl command's --s flag)"
    )
    with criterion(3, label, 5.0):
        t43 = torus_knot(4, 3)
        routes_43 = (
            kim_livingston(t43, F(2, 3), F(2, 3)),
            staircase_kl(torus_jumps(4, 3), F(2, 3), F(2, 3)),
            kim_livingston_oracle(t43, F(2, 3), F(2, 3)),
        )
        assert routes_43 == (F(-4, 3),) * 3

        t85 = torus_knot(8, 5)
        routes_85 = (
            kim_livingston(t85, F(2, 3), F(2, 3)),
            staircase_kl(torus_jumps(8, 5), F(2, 3), F(2, 3)),
            kim_livingston_oracle(t85, F(2, 3), F(2, 3)),
        )
        assert len(set(routes_85)) == 1
        assert routes_85[0] == F(-4, 3)
        # the often-quoted -20/3 for this knot is the evaluation parameter
        # s = 4/3 rather than s = t* = 2/3; all three routes agree there too
        cross_85 = (
            kim_livingston(t85, F(2, 3), F(4, 3)),
            staircase_kl(torus_jumps(8, 5), F(2, 3), F(4, 3)),
            kim_livingston_oracle(t85, F(2, 3), F(4, 3)),
        )
        assert cross_85 == (F(-20, 3),) * 3


def test_criterion_4_sum_with_smooth_summand():
    with criterion(4, "secondary invariant of a sum with a smooth summand", 10.0):
        t43, t65 = torus_knot(4, 3), torus_knot(6, 5)
        assert F(2, 3) not in singular_set(t65)  # the smoothness hypothesis
        value = kim_livingston(tensor(t43, t65), F(2, 3), F(2, 3))
        assert value == staircase_kl(torus_jumps(4, 3), F(2, 3), F(2, 3)) == F(-4, 3)


def test_criterion_5_pretzel_and_eta_ingredients():
    with criterion(5, "pretzel tau/eta, torus eta values, eta closed form", 2.0):
        h23 = upsilon_halfplane(F(2, 3))
        for q in (7, 9, 11, 13):
            k = pretzel(q)
            f = upsilon_function(k)
            (t0, v0), (t1, v1) = f.points[0], f.points[1]
            assert -(v1 - v0) / (t1 - t0) == F(q + 3, 2)  # tau from the initial slope
            assert eta(k, h23) == F(q - 3, 3)
        for k_idx in range(1, 6):
            assert eta(torus_knot(2, 2 * k_idx + 1), h23) == F(2 * k_idx, 3)
        for p in (4, 5, 7, 8):
            s = semigroup_from_generators((3, p))
            k = staircase_from_jumps(jumps_from_semigroup(s))
            assert eta(k, h23) == eta_closed_form(s, 3)


def test_criterion_6_torus_recursion_and_headline_sum():
    label = (
        "torus upsilon recursion matches the engine on all coprime 2<=q<p<=10, "
        "and T(8,5) # -T(6,5) # -T(4,3) has the upsilon function of the trefoil"
    )
    with criterion(6, label, 30.0):
        for p in range(3, 11):
            for q in range(2, p):
                if math.gcd(p, q) == 1:
                    assert fk_upsilon(p, q) == upsilon_function(torus_knot(p, q))
        big = tensor(torus_knot(8, 5),
                     tensor(mirror(torus_knot(6, 5)), mirror(torus_knot(4, 3))))
        assert upsilon_function(big) == upsilon_function(torus_knot(2, 3))


def _boxed_copy(k, boxes: int, seed: int):
    rng = random.Random(seed)
    for _ in range(boxes):
        k = add_box(k, (rng.randint(-5, 5), rng.randint(-5, 5)), rng.randint(-4, 4))
    return k


def test_criterion_7_property_suites():
    with criterion(7, "stability, oracle agreement, and structural properties", 120.0):
        # (a) twenty random acyclic-square insertions change no invariant
        base = torus_knot(4, 3)
        boxed = _boxed_copy(base, boxes=20, seed=7)
        h23 = upsilon_halfplane(F(2, 3))
        q1 = parse_region("Q(1)")
        mixed = parse_region("H(1) | trunc(H(2/3), 2)")
        for region in (h23, q1, mixed):
            assert upsilon_region(boxed, region) == upsilon_region(base, region)
        assert upsilon_function(boxed) == upsilon_function(base)
        assert breaking_points(boxed) == breaking_points(base)
        for s in range(4):
            assert vk(boxed, s) == vk(base, s)
        assert nu_plus(boxed) == nu_plus(base)
        # q = 13 satisfies the large-surgery precondition for both presentations
        # (boxes widen the Alexander range the guard is computed from)
        for m in (0, 3):
            assert d_invariant(boxed, 13, m) == d_invariant(base, 13, m)
        assert eta(boxed, h23) == eta(base, h23)
        assert kim_livingston(boxed, F(2, 3), F(2, 3)) == \
            kim_livingston(base, F(2, 3), F(2, 3)) == F(-4, 3)
        assert secondary(boxed, upsilon_halfplane(F(1)), upsilon_halfplane(F(1, 3)), h23) == \
            secondary(base, upsilon_halfplane(F(1)), upsilon_halfplane(F(1, 3)), h23)

        # (b) engine == brute-force oracle on every small zoo knot
        small_zoo = [
            torus_knot(p, q)
            for p, q in [(2, 3), (2, 5), (2, 7), (2, 9), (2, 11),
                         (3, 4), (3, 5), (3, 7), (4, 5)]
        ]
        small_zoo += [thin_model(tau) for tau in (-2, -1, 0, 1, 2)]
        small_zoo.append(pretzel(7))
        oracle_regions = [upsilon_halfplane(t) for t in (F(1, 3), F(2, 3), F(1), F(8, 5))]
        oracle_regions += [q1, mixed]
        for k in small_zoo:
            assert len(k.generators) <= 12
            for region in oracle_regions:
                assert upsilon_region(k, region) == brute_force_upsilon(k, region)

        # (c) additivity and mirror negation of the upsilon function
        t43, t65 = torus_knot(4, 3), torus_knot(6, 5)
        both = tensor(t43, t65)
        grid = [F(i, 4) for i in range(9)]
        t85, t85_mirror = torus_knot(8, 5), mirror(torus_knot(8, 5))
        for t in grid:
            assert upsilon_at(both, t) == upsilon_at(t43, t) + upsilon_at(t65, t)
            assert upsilon_at(t85_mirror, t) == -upsilon_at(t85, t)

        # (d) upsilon vanishes at t = 0
        for k in (torus_knot(2, 3), torus_knot(8, 5), pretzel(7), thin_model(-3), both):
            assert upsilon_function(k).points[0] == (F(0), F(0))

        # (e) symmetry t <-> 2 - t for semigroup staircases
        for gens in [(2, 7), (3, 5), (4, 5), (5, 6)]:
            f = upsilon_function(
                staircase_from_jumps(jumps_from_semigroup(semigroup_from_generators(gens)))
            )
            for t in grid:
                assert pl_eval(f, t) == pl_eval(f, 2 - t)

        # (f) enlarging a region can only lower the region invariant
        rng = random.Random(43)
        for k in (t43, t65):
            for _ in range(10):
                alpha = F(rng.randint(0, 8), 8)
                r1 = make_halfplane(alpha, 1 - alpha, F(rng.randint(-6, 6), rng.randint(1, 3)))
                beta = F(rng.randint(0, 8), 8)
                r2 = make_halfplane(beta, 1 - beta, F(rng.randint(-6, 6), rng.randint(1, 3)))
                merged = upsilon_region(k, union(r1, r2))
                assert merged <= min(upsilon_region(k, r1), upsilon_region(k, r2))

        # (g) slice-genus bound for positive torus knots on [0, 1]
        for p, q in [(3, 2), (5, 3), (7, 4), (8, 5)]:
            genus = (p - 1) * (q - 1) // 2
            f = upsilon_function(torus_knot(p, q))
            for i in range(9):
                t = F(i, 8)
                assert -t * genus <= pl_eval(f, t) <= 0

        # (h) +1-surgery correction term of the trefoil
        assert d_invariant(torus_knot(2, 3), 1, 0) == -2

        # (i) three-parameter thin closed form on a 50-triple grid
        taus = (-2, -1, 1, 2, 3)
        ts = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
        sq_pairs = ((F(1, 2), F(-1)), (F(3, 4), F(2)))
        count = 0
        for tau in taus:
            k = thin_model(tau)
            for t in ts:
                for s, q_shift in sq_pairs:
                    region = union(upsilon_halfplane(t),
                                   make_halfplane(s / 2, 1 - s / 2, q_shift))
                    assert thin_three_param(tau, t, s, q_shift) == upsilon_region(k, region)
                    count += 1
        assert count == 50


def test_criterion_8_vk_minmax_consistency():
    with criterion(8, "V(s) region engine equals the staircase min-max formula", 1.0):
        all_jumps = [
            torus_jumps(p, q)
            for p, q in [(2, 3), (2, 5), (2, 7), (2, 9), (2, 11), (2, 13), (2, 15),
                         (2, 17), (2, 19), (2, 21), (2, 23), (2, 25), (2, 27), (2, 29),
                         (3, 4), (3, 5), (3, 7), (3, 8), (3, 10), (3, 11), (3, 13),
                         (3, 14), (4, 5), (4, 7), (4, 9), (5, 6), (5, 7), (5, 8)]
        ]
        all_jumps += [
            jumps_from_alexander(alexander_pretzel(q)) for q in range(7, 26, 2)
        ]
        for jumps in all_jumps:
            genus = sum(jumps) // 2
            assert genus <= 14
            k = staircase_from_jumps(jumps)
            for s in range(genus + 2):
                assert vk(k, s) == staircase_vk(jumps, s)
        assert vk(torus_knot(2, 3), 0) == -2
