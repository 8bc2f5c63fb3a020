"""Builders: semigroups, Puiseux data, Alexander polynomials, knot families."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from upsilonkit import complexes, zoo
from upsilonkit.complexes import validate_complex
from upsilonkit.invariants import (
    staircase_corners,
    staircase_upsilon,
    upsilon_function,
    upsilon_region,
)
from upsilonkit.regions import (
    PLFunction,
    pl_add,
    pl_constant,
    pl_eval,
    pl_singular_points,
    upsilon_halfplane,
)
from upsilonkit.zoo import (
    AlexanderPolynomial,
    PuiseuxData,
    Semigroup,
    alexander_from_semigroup,
    alexander_pretzel,
    eta_closed_form,
    fk_upsilon,
    jumps_from_alexander,
    jumps_from_semigroup,
    n_of_semigroup,
    pretzel,
    semigroup_from_generators,
    semigroup_from_puiseux,
    staircase_from_jumps,
    thin_model,
    torus_knot,
    unknot,
)
from upsilonkit.reports import pretzel_report, thin_kl_closed, thin_three_param


# ---------------------------------------------------------------------------
# semigroups
# ---------------------------------------------------------------------------


def test_semigroup_frozen_examples():
    s35 = semigroup_from_generators((3, 5))
    assert s35.gaps == (1, 2, 4, 7)
    assert s35.genus == 4
    assert s35.frobenius == 7
    s23 = semigroup_from_generators((2, 3))
    assert s23.gaps == (1,)
    assert s23.frobenius == 1
    s58 = semigroup_from_generators((5, 8))
    assert s58.genus == 14
    assert s58.frobenius == 27


def test_semigroup_membership_is_total():
    s = semigroup_from_generators((3, 5))
    assert s.contains(0) and s.contains(3) and s.contains(5) and s.contains(8)
    assert not s.contains(1) and not s.contains(4) and not s.contains(7)
    assert s.contains(10**9)  # far beyond the table: every n > frobenius
    assert not s.contains(-3)


def test_semigroup_trivial():
    s = semigroup_from_generators((1,))
    assert s.genus == 0
    assert s.frobenius == -1
    assert s.contains(0) and s.contains(1)


def test_semigroup_validation():
    with pytest.raises(ValueError, match="gcd"):
        semigroup_from_generators((4, 6))
    with pytest.raises(ValueError, match="positive"):
        semigroup_from_generators((0, 3))
    with pytest.raises(ValueError):
        semigroup_from_generators(())
    # each generator is checked before they are sorted: one that does not
    # compare with an int is a ValueError, not a TypeError from the sort
    for bad in ("a", None):
        with pytest.raises(ValueError, match="positive integers"):
            Semigroup((bad, 2))


def test_semigroup_torus_genus_formula():
    for p, q in [(3, 2), (5, 2), (5, 3), (7, 4), (8, 5)]:
        s = semigroup_from_generators((q, p))
        assert s.genus == (p - 1) * (q - 1) // 2


# ---------------------------------------------------------------------------
# Puiseux data
# ---------------------------------------------------------------------------


def test_puiseux_frozen_example():
    pd = PuiseuxData(4, (6, 7))
    assert semigroup_from_puiseux(pd).generators == (4, 6, 13)
    assert "s_2 = 13" in pd.cable_description or "13" in pd.cable_description


def test_puiseux_two_generator_case():
    assert semigroup_from_puiseux(PuiseuxData(3, (5,))).generators == (3, 5)
    assert semigroup_from_puiseux(PuiseuxData(2, (3,))).generators == (2, 3)


def test_puiseux_validation():
    with pytest.raises(ValueError, match="gcd"):
        PuiseuxData(4, (6,))
    with pytest.raises(ValueError):
        PuiseuxData(4, (6, 8))  # D_1 = 2 divides q_2: not a characteristic sequence
    with pytest.raises(ValueError):
        PuiseuxData(1, (5,))
    with pytest.raises(ValueError):
        PuiseuxData(4, (7, 6))  # not increasing


def test_puiseux_staircase_is_knot_type():
    for pd in (PuiseuxData(4, (6, 7)), PuiseuxData(2, (3,)), PuiseuxData(3, (7,))):
        jumps = jumps_from_semigroup(semigroup_from_puiseux(pd))
        assert validate_complex(staircase_from_jumps(jumps)).ok


# ---------------------------------------------------------------------------
# Alexander polynomials
# ---------------------------------------------------------------------------


def test_alexander_from_semigroup_frozen():
    ap = alexander_from_semigroup(semigroup_from_generators((2, 3)))
    assert ap.to_t_string() == "1 - t + t^2"
    ap35 = alexander_from_semigroup(semigroup_from_generators((3, 5)))
    assert ap35.to_t_string() == "1 - t + t^3 - t^4 + t^5 - t^7 + t^8"


def test_alexander_text_of_zero_and_a_constant():
    assert AlexanderPolynomial.from_dict({}).to_t_string() == "0"
    assert AlexanderPolynomial.from_dict({0: 0}).to_t_string() == "0"  # zero terms drop
    assert AlexanderPolynomial.from_dict({0: -3}).to_t_string() == "-3"


def test_alexander_symmetry_and_determinant():
    for gens in [(2, 3), (2, 7), (3, 5), (5, 8)]:
        ap = alexander_from_semigroup(semigroup_from_generators(gens))
        assert ap.is_symmetric()
        assert ap.evaluate_at_one() == 1


def test_jumps_from_alexander_agrees_with_coloring():
    for gens in [(2, 3), (2, 9), (3, 4), (3, 5), (4, 7), (5, 6), (5, 8)]:
        s = semigroup_from_generators(gens)
        assert jumps_from_alexander(alexander_from_semigroup(s)) == jumps_from_semigroup(s)


def test_jumps_from_alexander_rejects_non_alternating():
    bad = AlexanderPolynomial.from_dict({0: 1, 2: 1, 4: 1})  # in u = t^(1/2): t - ...
    with pytest.raises(ValueError):
        jumps_from_alexander(bad)


def test_jumps_from_semigroup_requires_symmetry():
    with pytest.raises(ValueError, match="not symmetric"):
        jumps_from_semigroup(semigroup_from_generators((3, 5, 7)))


def test_trivial_semigroup_gives_unknot():
    assert jumps_from_semigroup(semigroup_from_generators((1,))) == ()
    k = staircase_from_jumps(())
    assert len(k.generators) == 1
    assert validate_complex(k).ok


# ---------------------------------------------------------------------------
# staircase and family builders
# ---------------------------------------------------------------------------


def test_torus_knot_structure():
    k = torus_knot(4, 3)
    xs = sorted(g.pos for g in k.generators if g.maslov == 0)
    assert xs == [(0, 3), (1, 1), (3, 0)]
    ys = sorted(g.pos for g in k.generators if g.maslov == 1)
    assert ys == [(1, 3), (3, 1)]
    assert validate_complex(k).ok


def test_torus_knot_validation():
    with pytest.raises(ValueError, match="coprime"):
        torus_knot(4, 6)
    with pytest.raises(ValueError):
        torus_knot(3, 1)


def test_torus_knot_symmetric_in_p_q():
    assert torus_knot(3, 2).generators == torus_knot(2, 3).generators


def test_staircase_from_jumps_validation():
    with pytest.raises(ValueError, match="balance"):
        staircase_from_jumps((2, 1))
    with pytest.raises(ValueError, match="even length"):
        staircase_from_jumps((1,))


def test_thin_model_shapes():
    for tau in (-3, -1, 0, 1, 2, 4):
        k = thin_model(tau)
        assert validate_complex(k).ok
        f = upsilon_function(k)
        assert pl_eval(f, 1) == -tau
        assert len(k.generators) == (1 if tau == 0 else 2 * abs(tau) + 1)
    with pytest.raises(ValueError):
        thin_model(F(1, 2))


def test_unknot_is_trivial():
    k = unknot()
    assert len(k.generators) == 1
    assert upsilon_function(k).points == ((F(0), F(0)), (F(2), F(0)))


def test_atoms_over_the_size_limit_are_refused_before_building(monkeypatch):
    assert zoo.MAX_ATOM_SIZE is complexes.MAX_ATOM_SIZE == 100_000
    # at 9: the <2, 3> table has 7 entries, thin(4) and P(-2,3,7) 9 generators
    monkeypatch.setattr(zoo, "MAX_ATOM_SIZE", 9)
    assert len(torus_knot(3, 2).generators) == 3
    assert len(staircase_from_jumps(jumps_from_semigroup(
        semigroup_from_puiseux(PuiseuxData(2, (3,))))).generators) == 3
    assert len(thin_model(-4).generators) == len(pretzel(7).generators) == 9
    for build, message in [
        (lambda: torus_knot(4, 3), r"the semigroup \(3, 4\) needs a membership table of 13 entries"),
        (lambda: semigroup_from_puiseux(PuiseuxData(2, (5,))).genus,
         r"the semigroup \(2, 5\) needs a membership table of 11 entries"),
        (lambda: thin_model(-5), r"thin\(-5\) has 11 generators"),
        (lambda: pretzel(9), r"P\(-2,3,9\) has 11 generators"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}, over the limit of 9$"):
            build()


# ---------------------------------------------------------------------------
# pretzels
# ---------------------------------------------------------------------------


def test_alexander_pretzel_frozen_q7():
    ap = alexander_pretzel(7)
    assert sorted(e for e, c in ap.normalized_t_terms() if c == 1) == [0, 3, 5, 7, 10]
    assert ap.to_t_string() == "1 - t + t^3 - t^4 + t^5 - t^6 + t^7 - t^9 + t^10"
    assert ap.evaluate_at_one() == 1
    assert ap.is_symmetric()
    # the skein relation (t - 1 + t^-1)·Δ(T(2,7)) + (t^(1/2) - t^(-1/2))·Δ(T(2,10)),
    # built with the public methods, in u = t^(1/2); Δ(T(2,n)) = sum (-1)^i u^(n-1-2i)
    def torus2(n):
        return AlexanderPolynomial.from_dict({n - 1 - 2 * i: (-1) ** i for i in range(n)})

    skein = AlexanderPolynomial.from_dict({2: 1, 0: -1, -2: 1}).mul(torus2(7)).add(
        AlexanderPolynomial.from_dict({1: 1, -1: -1}).mul(torus2(10)))
    assert skein == ap


def test_alexander_pretzel_validation():
    for bad in (5, 8, 6):
        with pytest.raises(ValueError):
            alexander_pretzel(bad)


def test_pretzel_family_structure():
    for q in (7, 9, 11, 13):
        k = pretzel(q)
        assert validate_complex(k).ok
        genus = max(g.alexander for g in k.generators)
        assert genus == (q + 3) // 2
        jumps = jumps_from_alexander(alexander_pretzel(q))
        assert jumps == (1, 2) + (1,) * (q - 3) + (2, 1)
        singular = {t for t, _ in pl_singular_points(upsilon_function(k))}
        assert singular <= {F(2, 3), F(1), F(4, 3)}


# ---------------------------------------------------------------------------
# the torus-knot upsilon recursion
# ---------------------------------------------------------------------------


def test_fk_upsilon_frozen_values():
    assert pl_eval(fk_upsilon(8, 5), F(2, 3)) == -8
    assert fk_upsilon(3, 2).points == ((F(0), F(0)), (F(1), F(-1)), (F(2), F(0)))
    assert fk_upsilon(2, 1) == upsilon_function(unknot())


def test_fk_upsilon_matches_engine_small():
    for p, q in [(3, 2), (5, 2), (4, 3), (5, 3), (5, 4), (8, 5)]:
        assert fk_upsilon(p, q) == upsilon_function(torus_knot(p, q))


def _fk_recursive(p, q):
    """The torus recursion as stated, one call per subtraction of q."""
    if p < q:
        p, q = q, p
    if q == 1:
        return pl_constant(0)
    if p == q + 1:
        return staircase_upsilon(jumps_from_semigroup(semigroup_from_generators((p, q))))
    return pl_add(_fk_recursive(p - q, q), _fk_recursive(q + 1, q))


def test_fk_upsilon_loop_matches_the_recursion():
    pairs = [(p, q) for p in range(1, 12) for q in range(1, 12) if math.gcd(p, q) == 1]
    assert all(fk_upsilon(p, q) == _fk_recursive(p, q) for p, q in pairs)


def test_fk_upsilon_runs_past_the_recursion_limit():
    # 998 subtractions of 2: one call each would exceed Python's recursion limit
    assert fk_upsilon(1999, 2) == PLFunction(((0, 0), (1, -999), (2, 0)))


def test_fk_upsilon_validation():
    with pytest.raises(ValueError):
        fk_upsilon(4, 6)
    with pytest.raises(ValueError):
        fk_upsilon(0, 1)


# ---------------------------------------------------------------------------
# closed forms: n(S), eta, thin families
# ---------------------------------------------------------------------------


def test_n_of_semigroup_frozen():
    assert n_of_semigroup(semigroup_from_generators((3, 5)), 3) == 1
    assert n_of_semigroup(semigroup_from_generators((3, 4)), 3) == 1
    assert n_of_semigroup(semigroup_from_generators((2, 5)), 2) == 2
    assert n_of_semigroup(semigroup_from_generators((3, 7)), 3) == 2
    with pytest.raises(ValueError, match="not a generator"):
        n_of_semigroup(semigroup_from_generators((3, 5)), 4)
    with pytest.raises(ValueError, match="unbounded"):
        n_of_semigroup(semigroup_from_generators((1,)), 1)


def test_eta_closed_form_frozen():
    assert eta_closed_form(semigroup_from_generators((3, 4)), 3) == 0
    assert eta_closed_form(semigroup_from_generators((2, 5)), 2) == -1
    with pytest.raises(ValueError):
        eta_closed_form(semigroup_from_generators((3, 5)), 5)


def test_thin_three_param_frozen():
    assert thin_three_param(3, F(1, 2), F(1, 2), 0) == F(3, 4)
    assert thin_three_param(-1, F(1, 2), F(1, 2), 0) == F(-1, 4)
    assert thin_three_param(-2, F(1, 2), F(1, 2), 0) == F(-1, 2)
    assert thin_three_param(2, 1, F(1, 4), -3) == min(F(1), F(1, 4) - (-3))
    with pytest.raises(ValueError):
        thin_three_param(2, F(3, 2), F(1, 2), 0)  # t outside [0, 1]
    with pytest.raises(ValueError):
        thin_three_param(F(1, 2), F(1, 2), F(1, 2), 0)


@given(
    st.integers(-3, 3).filter(bool),
    st.fractions(min_value=0, max_value=1, max_denominator=6),
    st.fractions(min_value=0, max_value=1, max_denominator=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)
def test_thin_three_param_matches_engine(tau, t, s, q):
    from upsilonkit.regions import make_halfplane, union

    region = union(upsilon_halfplane(t), make_halfplane(s / 2, 1 - s / 2, q))
    assert thin_three_param(tau, t, s, q) == upsilon_region(thin_model(tau), region)


def test_thin_kl_closed_values():
    assert thin_kl_closed(2, 1) == -1
    assert thin_kl_closed(2, F(1, 2)) == F(-3, 2)
    assert thin_kl_closed(1, F(3, 2)) == -1  # (1-tau) = 0 kills the slope
    assert thin_kl_closed(3, 0) == -3
    from upsilonkit.invariants import NO_OBSTRUCTION

    assert thin_kl_closed(0, 1) is NO_OBSTRUCTION
    assert thin_kl_closed(-4, F(1, 2)) is NO_OBSTRUCTION
    with pytest.raises(ValueError):
        thin_kl_closed(2, F(5, 2))


# ---------------------------------------------------------------------------
# semigroup staircases: first singularity property
# ---------------------------------------------------------------------------


@given(st.integers(2, 5), st.integers(3, 17))
def test_first_singularity_at_2_over_multiplicity(a, b):
    if math.gcd(a, b) != 1 or b <= a:
        return
    f = staircase_upsilon(jumps_from_semigroup(semigroup_from_generators((a, b))))
    kinks = [t for t, _ in pl_singular_points(f)]
    assert kinks[0] == F(2, a)
    # slope on [0, 2/a] is minus the genus
    g = (a - 1) * (b - 1) // 2
    assert pl_eval(f, F(1, a)) == -F(1, a) * g


def test_staircase_corners_consistency_with_builders():
    for gens in [(2, 3), (3, 5), (5, 8)]:
        jumps = jumps_from_semigroup(semigroup_from_generators(gens))
        corners = staircase_corners(jumps)
        k = staircase_from_jumps(jumps)
        assert sorted(g.pos for g in k.generators if g.maslov == 0) == sorted(corners)


@pytest.mark.parametrize("q", [7, 9])
def test_pretzel_report_matches_closed_forms(q):
    report = pretzel_report(q)
    jumps = (1, 2) + (1,) * (q - 3) + (2, 1)
    assert report["tau"] == str(F(q + 3, 2)) and report["genus"] == (q + 3) // 2
    assert report["upsilon_singularities"] == [
        str(t) for t, _ in pl_singular_points(staircase_upsilon(jumps))
    ]
    assert report["eta_H_2_3"] == {"engine": str(F(q - 3, 3)), "closed_form": str(F(q - 3, 3))}
    # The eta deficit (2/3) tau - eta = 2 needs n(S) = 1 from the exponent-3
    # summands.  <3,p> has n = (p - 1) // 3 (p is its first member off 3Z), so
    # p = 4 and p = 5 are the candidates.
    constraints = report["decomposition_constraints"]
    assert constraints["required_n_sum_over_exponent_3_summands"] == "1"
    assert constraints["n_of_semigroup_3_p"] == {
        f"(3,{p})": (p - 1) // 3 for p in range(4, 21) if p % 3
    }
    assert constraints["forced_exponent_3_summand_one_of"] == ["(3,4)", "(3,5)"]
