"""Complex construction, validation, slices, and the structural operations."""

import json
import os
import random
import re
from itertools import combinations_with_replacement, product
from math import prod

import pytest

from upsilonkit import complexes, complexfiles
from upsilonkit.complexes import (
    BaseGenerator,
    KnotComplex,
    _graded,
    add_box,
    from_json_dict,
    load_complex,
    mirror,
    save_complex,
    tensor,
    to_json_dict,
    validate_complex,
)
from upsilonkit.invariants import breaking_points, kim_livingston, upsilon_function
from upsilonkit.oracles import (LatticeGenerator, _columns, boundary_matrix, maslov_slice,
                                representative_cycle)
from upsilonkit.zoo import staircase_from_jumps, thin_model, torus_knot, unknot

from corpus import (
    AWKWARD_NAMES,
    outcome,
    random_small_complex,
    refuse,
    renamed,
    shifted,
    slice_columns,
    starry_trefoil,
    trefoil_by_hand,
)


# ---------------------------------------------------------------------------
# lattice generators and slices
# ---------------------------------------------------------------------------


def test_lattice_generator_shifts():
    g = BaseGenerator("x", 3, 1, 2)
    lg = LatticeGenerator(g, 2)
    assert lg.alexander == 1 and lg.algebraic == -1 and lg.maslov == -2
    assert lg.pos == (1, -1)
    assert str(lg) == "U^2·x"
    assert str(LatticeGenerator(g, 0)) == "x"


def test_maslov_slice_parity():
    k = trefoil_by_hand()
    s0 = maslov_slice(k, 0)
    s1 = maslov_slice(k, 1)
    assert [str(lg) for lg in s0] == ["x0", "x1"]
    assert [str(lg) for lg in s1] == ["y0"]
    # the grading-2 slice is the U^-1 shift of the grading-0 slice
    s2 = maslov_slice(k, 2)
    assert [(lg.base.name, lg.upower) for lg in s2] == [("x0", -1), ("x1", -1)]


def test_boundary_matrix_trefoil():
    k = trefoil_by_hand()
    d1 = boundary_matrix(k, 1)
    assert (d1.nrows, d1.ncols) == (2, 1)
    assert d1.rows == [1, 1]
    d0 = boundary_matrix(k, 0)
    assert (d0.nrows, d0.ncols) == (1, 2)
    assert d0.rows == [0]


def test_boundary_matrix_rejects_bad_grading():
    k = KnotComplex(
        (BaseGenerator("a", 0, 0, 0), BaseGenerator("b", 0, 0, 0)),
        (("a", "b", 0),),
    )
    with pytest.raises(ValueError, match="does not drop Maslov grading"):
        boundary_matrix(k, 0)


# ---------------------------------------------------------------------------
# construction sanity
# ---------------------------------------------------------------------------


def test_duplicate_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        KnotComplex(
            (BaseGenerator("x", 0, 0, 0), BaseGenerator("x", 1, 1, 0)), ()
        )


def test_unknown_arrow_endpoint_rejected():
    with pytest.raises(ValueError, match="endpoint"):
        KnotComplex((BaseGenerator("x", 0, 0, 0),), (("x", "ghost", 0),))


XY = (BaseGenerator("x", 1, 0, 0), BaseGenerator("y", 1, 1, 1))


def test_double_arrows_cancel():
    k = KnotComplex(
        (BaseGenerator("x", 1, 0, 0), BaseGenerator("y", 1, 1, 1)),
        (("y", "x", 0), ("y", "x", 0)),
    )
    assert k.arrows == ()
    assert KnotComplex(XY, (("y", "x", 0),) * 3).arrows == (("y", "x", 0),)
    assert KnotComplex(XY, (["y", "x", 0], ("y", "x", 0))).arrows == ()
    assert KnotComplex(XY, (("y", "x", 0), ("y", "x", 1)) * 3).arrows == (
        ("y", "x", 0), ("y", "x", 1))


def test_list_arrow_is_stored_as_a_sorted_tuple():
    k = KnotComplex(XY, [["y", "x", 1], ("x", "y", 0)])
    assert k.arrows == (("x", "y", 0), ("y", "x", 1))
    assert all(type(arrow) is tuple for arrow in k.arrows)
    assert k == KnotComplex(XY, (("y", "x", 1), ("x", "y", 0)))


@pytest.mark.parametrize(
    "gens, arrows, message",
    [
        (XY + (BaseGenerator("x", 0, 0, 0),), (), "duplicate generator names"),
        (XY, (("y", "ghost", 0),), "arrow endpoint not a generator: ('y', 'ghost', 0)"),
        (XY, (["ghost", "x", 0],), "arrow endpoint not a generator: ['ghost', 'x', 0]"),
        (XY, (("y", "x", 0.0),), "arrow U-power must be an integer: ('y', 'x', 0.0)"),
        (XY, (("y", "x", "0"),), "arrow U-power must be an integer: ('y', 'x', '0')"),
        (XY, (("y", "x", False),), "arrow U-power must be an integer: ('y', 'x', False)"),
        (XY, (("y", "x", 0), ("y", "x", True)),
         "arrow U-power must be an integer: ('y', 'x', True)"),
        # a name that is not a string broke the naming of products, a float
        # grading broke validation and upsilon, and a bool read as 0 or 1
        (XY + (BaseGenerator(3, 0, 0, 0),), (), "generator name must be a string: (3, 0, 0, 0)"),
        ((BaseGenerator("x", 0, 0, 0.0),), (),
         "generator gradings must be integers: ('x', 0, 0, 0.0)"),
        ((BaseGenerator("x", 0.5, 0, 0),), (),
         "generator gradings must be integers: ('x', 0.5, 0, 0)"),
        ((BaseGenerator("x", True, 0, 0),), (),
         "generator gradings must be integers: ('x', True, 0, 0)"),
        ((BaseGenerator("x", 0, False, 0),), (),
         "generator gradings must be integers: ('x', 0, False, 0)"),
        # a tuple for a generator raised AttributeError, and an arrow that is
        # not a triple a bare unpacking error
        ((("x", 0, 0, 0),), (), "generator must be a BaseGenerator: ('x', 0, 0, 0)"),
        (XY, (("x", "x"),), "arrow must be a (source, target, U-power) triple: ('x', 'x')"),
        (XY, (("y", "x", 0, 0),),
         "arrow must be a (source, target, U-power) triple: ('y', 'x', 0, 0)"),
        (XY, ("yx0",), "arrow must be a (source, target, U-power) triple: 'yx0'"),
    ],
)
def test_construction_errors_keep_their_messages(gens, arrows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        KnotComplex(gens, arrows)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_good_complexes():
    for k in (trefoil_by_hand(), unknot(), torus_knot(8, 5), thin_model(-3)):
        report = validate_complex(k)
        assert report.ok, report.problems


def test_validate_reports_maslov_violation():
    k = KnotComplex(
        (BaseGenerator("x", 1, 0, 0), BaseGenerator("y", 1, 1, 2)),
        (("y", "x", 0),),
    )
    report = validate_complex(k)
    assert not report.ok
    assert any("Maslov convention" in p for p in report.problems)


def test_validate_reports_filtration_violation():
    k = KnotComplex(
        (BaseGenerator("x", 5, 5, 0), BaseGenerator("y", 1, 1, 1)),
        (("y", "x", 0),),
    )
    report = validate_complex(k)
    assert any("increases the filtration" in p for p in report.problems)


def test_validate_reports_d_squared():
    # chain a -> b -> c with no cancelling partner
    k = KnotComplex(
        (
            BaseGenerator("a", 2, 2, 2),
            BaseGenerator("b", 1, 1, 1),
            BaseGenerator("c", 0, 0, 0),
        ),
        (("a", "b", 0), ("b", "c", 0)),
    )
    report = validate_complex(k)
    assert any(p.startswith("d^2(a)") for p in report.problems)


def test_validate_reports_a_tower_off_level_zero():
    low = KnotComplex((BaseGenerator("x", -2, -1, 0),), ())
    assert validate_complex(low).problems == (
        "H_0 is generated at filtration level (A, j) = (-2, -1), expected (0, 0)",)
    for da, dj in [(1, 0), (0, -1), (3, 2), (-1, -1)]:
        for k in (trefoil_by_hand(), torus_knot(5, 3), mirror(torus_knot(4, 3))):
            assert validate_complex(shifted(k, da, dj)).problems == (
                f"H_0 is generated at filtration level (A, j) = ({da}, {dj}), expected (0, 0)",)
    # x0 sits at j = 0 and x1 at A = 0: each level needs the other cycle, x0 + d(y0) = x1
    assert validate_complex(trefoil_by_hand()).ok
    # a boxed square far from the origin moves nothing
    assert validate_complex(add_box(trefoil_by_hand(), (5, -4), 0)).ok


def test_validate_reports_wrong_homology():
    # two disconnected towers: dim H_0 = 2
    k = KnotComplex(
        (BaseGenerator("x", 0, 0, 0), BaseGenerator("z", 3, 3, 0)), ()
    )
    report = validate_complex(k)
    assert any("dim H_0 = 2" in p for p in report.problems)
    # a single odd generator: H_0 = 0, H_1 = 1
    k2 = KnotComplex((BaseGenerator("y", 0, 0, 1),), ())
    report2 = validate_complex(k2)
    assert any("dim H_0 = 0" in p for p in report2.problems)
    assert any("dim H_1 = 1" in p for p in report2.problems)


def test_representative_cycle_is_generating():
    for k in (trefoil_by_hand(), torus_knot(5, 3), thin_model(2)):
        z = representative_cycle(k)
        assert len(z) >= 1
        assert all(lg.maslov == 0 for lg in z)
        # it is a cycle: check via the degree-0 boundary matrix
        slice0 = maslov_slice(k, 0)
        index = {lg: i for i, lg in enumerate(slice0)}
        mask = 0
        for lg in z:
            mask |= 1 << index[lg]
        assert boundary_matrix(k, 0).mat_vec(mask) == 0


def test_representative_cycle_fails_on_acyclic():
    # a single box summand alone is acyclic: H_0 = 0
    k = KnotComplex(
        (
            BaseGenerator("a", 0, 0, 0),
            BaseGenerator("b", -1, 0, -1),
            BaseGenerator("c", 0, -1, -1),
            BaseGenerator("d", -1, -1, -2),
        ),
        (("a", "b", 0), ("a", "c", 0), ("b", "d", 0), ("c", "d", 0)),
    )
    with pytest.raises(ValueError, match="not knot-type"):
        representative_cycle(k)


# ---------------------------------------------------------------------------
# tensor / mirror / box
# ---------------------------------------------------------------------------


def test_tensor_generator_count_and_validity():
    k = tensor(torus_knot(4, 3), torus_knot(6, 5))
    assert len(k.generators) == 5 * 9
    assert validate_complex(k).ok


def test_tensor_refuses_a_product_over_the_generator_limit(monkeypatch):
    assert complexes.MAX_PRODUCT_GENERATORS == 100_000
    monkeypatch.setattr(complexes, "MAX_PRODUCT_GENERATORS", 15)  # T(3,2) has 3, T(4,3) 5
    assert len(tensor(torus_knot(3, 2), torus_knot(4, 3)).generators) == 15  # at the limit
    with pytest.raises(ValueError, match="^the connected sum has 45 generators, over the limit of 15$"):
        tensor(torus_knot(3, 2), torus_knot(4, 3), torus_knot(3, 2))


def test_tensor_gradings_add():
    k = tensor(trefoil_by_hand(), trefoil_by_hand())
    by_name = k.by_name
    assert by_name["x0*x1"].pos == (1, 1)
    assert by_name["y0*y0"].maslov == 2
    assert by_name["y0*y0"].pos == (2, 2)


def _at_origin(*names):
    """Generators of these names at (0, 0) in grading 0, with no arrows."""
    return KnotComplex(tuple(BaseGenerator(n, 0, 0, 0) for n in names), ())


def test_tensor_names_are_injective():
    k = tensor(_at_origin("a", "a*b", "c\\"), _at_origin("b*c", "c", "\\*d"))
    names = [g.name for g in k.generators]
    assert len(set(names)) == 9
    assert "a*b\\*c" in names and "a\\*b*c" in names


def _same_up_to_names(k1, k2) -> bool:
    """Equal after renaming k1's generators to k2's, in order."""
    rename = {g1.name: g2.name for g1, g2 in zip(k1.generators, k2.generators)}
    return (
        len(k1.generators) == len(k2.generators)
        and all((g1.pos, g1.maslov) == (g2.pos, g2.maslov)
                for g1, g2 in zip(k1.generators, k2.generators))
        and {(rename[s], rename[d], m) for s, d, m in k1.arrows} == set(k2.arrows)
    )


def test_tensor_of_three_factors():
    a, b = _at_origin("a", "a*b", "c\\"), _at_origin("b*c", "c", "\\*d")
    k = tensor(a, b, a)
    assert len({g.name for g in k.generators}) == 27
    assert "a\\*b*c*c\\\\" in {g.name for g in k.generators}  # each factor escaped once
    assert tensor(tensor(a, b), a) == k  # a fold is named as the flat product
    t, m = trefoil_by_hand(), mirror(torus_knot(5, 2))
    k = tensor(t, m, t)
    assert validate_complex(k).ok and _same_up_to_names(k, tensor(tensor(t, m), t))
    assert not _same_up_to_names(k, tensor(tensor(t, t), m))  # the order of factors is kept


def test_tensor_of_no_factors_is_the_unknot():
    assert tensor() == KnotComplex((BaseGenerator("", 0, 0, 0),), ())
    assert validate_complex(tensor()).ok


def test_deep_folds_evaluate_from_their_flat_leaves():
    # every `tensor` call records its product's leaves as one flat tuple, so
    # folding a sum one summand at a time reaches no recursion limit, and
    # the invariants, which read the leaves, never name the folded product
    trefoil = torus_knot(3, 2)
    k = trefoil
    for _ in range(1200):
        k = tensor(k, unknot())
    assert len(vars(k)["_leaves"]) == 1201
    assert upsilon_function(k) == upsilon_function(trefoil)
    assert breaking_points(k) == breaking_points(trefoil)
    assert kim_livingston(k, 1, 1) == kim_livingston(trefoil, 1, 1)
    assert "_index_arrows" not in vars(k)  # still unnamed
    # its fields are named from the flat leaves too, with no recursion
    assert validate_complex(k).ok
    assert from_json_dict(to_json_dict(k)) == k == tensor(trefoil, *[unknot()] * 1200)
    # naming an inner product keeps its leaves, so a later product of it
    # has the same leaves, layout and names as one made before the naming
    inner = tensor(trefoil, mirror(torus_knot(5, 2)))
    outer = tensor(inner, trefoil)
    layout = _graded(outer)
    assert inner.generators and len(vars(inner)["_leaves"]) == 2
    later = tensor(inner, trefoil)
    assert vars(later)["_leaves"] == vars(outer)["_leaves"]
    assert _graded(later) == layout and later == outer


def test_arrow_index_is_invisible():
    k, twin = torus_knot(5, 3), torus_knot(5, 3)
    before = (hash(k), repr(k))
    for g in k.generators:
        out = k.arrows_from(g.name)
        assert out == [(dst, m) for src, dst, m in k.arrows if src == g.name]
        out.append(("junk", 0))  # a fresh list each call: the index is untouched
        assert ("junk", 0) not in k.arrows_from(g.name)
    assert (hash(k), repr(k)) == before and k == twin
    assert tensor(k, trefoil_by_hand()) == tensor(twin, trefoil_by_hand())


def _toggled_arrows(gens, arrows):
    """The arrows `KnotComplex(gens, arrows)` keeps, or the ValueError
    message it raises, by the route of name tuples: the constructor's checks
    in its order, then each arrow toggled in a set (F2 coefficients: equal
    arrows cancel) and the set sorted.  The reference for `_arranged`, which
    ranks the names and sorts integer triples."""
    names = [g.name for g in gens]
    if len(set(names)) != len(names):
        return "duplicate generator names"
    known, seen = set(names), set()
    for arrow in arrows:
        if not isinstance(arrow, (tuple, list)) or len(arrow) != 3:
            return f"arrow must be a (source, target, U-power) triple: {complexes._excerpt(arrow)}"
        src, dst, m = arrow
        if src not in known or dst not in known:
            return f"arrow endpoint not a generator: {complexes._excerpt(arrow)}"
        if isinstance(m, bool) or not isinstance(m, int):
            return f"arrow U-power must be an integer: {complexes._excerpt(arrow)}"
        seen ^= {(src, dst, m)}
    return tuple(sorted(seen))


def _index_arrows_by_name(k):
    """k's arrows as (source index, target index, upower), found by name."""
    index = {g.name: i for i, g in enumerate(k.generators)}
    return tuple((index[src], index[dst], m) for src, dst, m in k.arrows)


def _product_tensor(*factors):
    """The tensor product by the route of itertools.product over generator
    tuples, joining the names of every arrow's ends: the reference the
    index-arithmetic `tensor` must match exactly."""
    escaped = [{g.name: g.name.replace("\\", "\\\\").replace("*", "\\*") for g in k.generators}
               for k in factors]
    by_src = []
    for k in factors:
        index = {}
        for src, dst, m in k.arrows:
            index.setdefault(src, []).append((dst, m))
        by_src.append(index)
    gens, arrows = [], []
    for combo in product(*(k.generators for k in factors)):
        parts = [esc[g.name] for esc, g in zip(escaped, combo)]
        src = "*".join(parts)
        gens.append(BaseGenerator(src, sum(g.alexander for g in combo),
                                  sum(g.algebraic for g in combo), sum(g.maslov for g in combo)))
        for i, g in enumerate(combo):
            for dst, m in by_src[i].get(g.name, ()):
                arrows.append((src, "*".join([*parts[:i], escaped[i][dst], *parts[i + 1:]]), m))
    ref = KnotComplex(tuple(gens), tuple(arrows))
    assert ref.arrows == _toggled_arrows(gens, arrows)  # its arrangement, by the other route
    return ref


def _self_looped():
    """p with a self-loop, and q -> U·p."""
    return KnotComplex((BaseGenerator("p", 0, 0, 0), BaseGenerator("q", 0, 0, 1)),
                       (("p", "p", 0), ("q", "p", 1)))


def _tensor_cases():
    zoo = [unknot(), torus_knot(3, 2), torus_knot(5, 2), torus_knot(4, 3), torus_knot(5, 3),
           thin_model(2), thin_model(-2)]
    for a, b in combinations_with_replacement(zoo, 2):
        yield a, b
        yield mirror(a), b
        yield a, mirror(b)
    t, m = trefoil_by_hand(), mirror(torus_knot(5, 2))
    yield t, m, t
    yield torus_knot(4, 3), mirror(torus_knot(3, 2)), thin_model(-1)
    yield t, t, t, t
    boxed = add_box(add_box(torus_knot(4, 3), (1, -2), -1), (0, 0), 2)
    yield boxed, mirror(boxed)
    yield t, add_box(mirror(t), (-3, 0), 1), boxed
    starry = starry_trefoil()
    yield starry, t
    yield starry, starry, mirror(starry)
    yield renamed(m, lambda n: "*" + n + "\\"), starry
    # self-loops are legal arrows: the product has two copies of one, which cancel
    loop = _self_looped()
    yield loop, loop
    yield loop, loop, loop
    yield ()
    yield (t,)
    yield (starry,)


@pytest.mark.parametrize("factors", list(_tensor_cases()))
def test_tensor_matches_the_product_route(factors):
    k, ref = tensor(*factors), _product_tensor(*factors)
    assert k.generators == ref.generators  # the order of generators included
    assert k.arrows == ref.arrows
    assert json.dumps(to_json_dict(k)) == json.dumps(to_json_dict(ref))


def _random_factor_sets():
    rng = random.Random(1818)
    return [tuple(random_small_complex(rng) for _ in range(rng.randint(2, 3)))
            for _ in range(30)]


def _first_bad_arrow(k):
    """By names, in arrow order: the ValueError `_graded` raises at the first
    arrow that breaks the grading, else the first arrow that increases the
    filtration, or None."""
    by_name = k.by_name
    for src, dst, m in k.arrows:
        if by_name[dst].maslov - 2 * m != by_name[src].maslov - 1:
            return ValueError, f"arrow {src} -> U^{m}·{dst} does not drop Maslov grading by 1"
    for src, dst, m in k.arrows:
        x, y = by_name[src], by_name[dst]
        if y.alexander - m > x.alexander or y.algebraic - m > x.algebraic:
            return src, dst, m
    return None


def _checked_twin(k):
    """k through the public constructor, which checks and canonicalizes."""
    return KnotComplex(k.generators, k.arrows)


def _refuse_naming(patch, leaves: bool = True):
    """Make every naming of a product (`_named`, which lifts its arrows)
    raise and, if `leaves`, every BaseGenerator construction and every
    `_arranged` call too, so that a test sees whether a product was named.
    Without `leaves` a test may still build leaves, as `mirror` does."""
    if leaves:
        refuse(patch, BaseGenerator, "__init__", "a product was named")
        refuse(patch, complexes, "_arranged", "a product was named")
    refuse(patch, complexes, "_named", "a product was named")


@pytest.mark.parametrize("factors", list(_tensor_cases()) + _random_factor_sets())
def test_built_tensor_matches_the_checked_constructor(factors, monkeypatch):
    with monkeypatch.context() as patch:  # tensor leaves only the layout; names wait
        _refuse_naming(patch)
        k = tensor(*factors)
    assert k == _product_tensor(*factors)
    twin = _checked_twin(k)
    assert (k == twin, repr(k), hash(k)) == (True, repr(twin), hash(twin))
    assert k._index_arrows == twin._index_arrows == _index_arrows_by_name(twin)
    graded = outcome(_graded, k)
    assert graded == outcome(_graded, twin)
    assert (graded if graded[0] is ValueError else graded[2]) == _first_bad_arrow(twin)
    assert outcome(_graded, tensor(*factors)) == graded

    refuse(monkeypatch, KnotComplex, "__post_init__", "the product was re-checked")
    assert tensor(*factors) == k
    with pytest.raises(AssertionError, match="re-checked"):
        _checked_twin(k)


def test_built_products_reach_every_graded_outcome():
    # the random and self-loop factors give ill-graded products (the same
    # ValueError by both routes) and unfiltered ones (the same first arrow)
    loop = _self_looped()
    outcomes = [outcome(_graded, tensor(*factors)) for factors in _random_factor_sets()]
    assert outcome(_graded, tensor(loop, loop)) == (
        ValueError, "arrow p*q -> U^1·p*p does not drop Maslov grading by 1")
    assert any(o[0] is ValueError for o in outcomes)
    assert any(o[0] is not ValueError and o[2] is not None for o in outcomes)
    assert any(o[0] is not ValueError and o[2] is None for o in outcomes)
    # when every leaf generator carries a self-loop of U-power 0 and there is
    # an even number of leaves, the lifted loops cancel in pairs: the product
    # has no arrow, and its layout is the named product's, not the fold of
    # the ill-graded leaves
    loops = KnotComplex((BaseGenerator("a", 0, 0, 0), BaseGenerator("b", 1, 0, 1)),
                        (("a", "a", 0), ("b", "b", 0)))
    lone = KnotComplex((BaseGenerator("p", 0, 0, 0),), (("p", "p", 0),))
    for factors in ((lone, loops), (loops, loops), (lone, loops, lone, loops)):
        twin = _checked_twin(tensor(*factors))
        positions, columns, unfiltered = outcome(_graded, tensor(*factors))
        assert twin.arrows == () and (positions, columns, unfiltered) == outcome(_graded, twin)
        assert unfiltered is None and not any(columns[0] + columns[1])
        assert [list(positions[p]) for p in (0, 1)] == [
            [lg.pos for lg in maslov_slice(twin, p)] for p in (0, 1)]


def _factor_build_cases():
    """A fixed seeded list of factor trees: 1-4 leaves drawn from torus
    knots, mirrors, thin models, boxed complexes, awkward names and odd
    Maslov offsets, now and then an empty, an ill-graded or an unfiltered
    leaf, each tree flat, folded or split at random, with now and then a
    named product as a leaf.  Each case is a function that builds the tree
    afresh."""
    t = trefoil_by_hand()
    starry = starry_trefoil()
    sound = [torus_knot(3, 2), torus_knot(5, 2), torus_knot(4, 3), mirror(torus_knot(5, 3)),
             thin_model(2), thin_model(-1), unknot(), add_box(torus_knot(4, 3), (1, -2), -1),
             add_box(mirror(t), (-3, 0), 1), starry, shifted(torus_knot(3, 2), 0, 0, 1),
             shifted(mirror(starry), 0, 0, 1), renamed(mirror(torus_knot(5, 2)), lambda n: n + "*")]
    empty = KnotComplex((), ())
    ill = KnotComplex((BaseGenerator("x", 0, 0, 0), BaseGenerator("y", 0, 0, 0)),
                      (("x", "y", 0),))
    unfiltered = KnotComplex((BaseGenerator("x", 0, 0, 0), BaseGenerator("y", 1, 0, -1)),
                             (("x", "y", 0),))
    rng = random.Random(2323)

    def tree(leaves, shape):
        if shape == "flat" or len(leaves) == 1:
            return tensor(*leaves)
        if shape == "folded":
            k = leaves[0]
            for leaf in leaves[1:]:
                k = tensor(k, leaf)
            return k
        cut = rng.randint(1, len(leaves) - 1)
        head, tail = tree(leaves[:cut], "split"), tree(leaves[cut:], "split")
        if rng.random() < 0.2:
            head.generators  # a named product is a leaf
        return tensor(head, tail)

    cases = []
    while len(cases) < 60:
        leaves = [rng.choice(sound) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.25:
            leaves[rng.randrange(len(leaves))] = rng.choice((empty, ill, unfiltered))
        if prod(len(leaf.generators) for leaf in leaves) > 600:
            continue
        shape = rng.choice(("flat", "folded", "split"))
        state = rng.getstate()

        def build(leaves=leaves, shape=shape, state=state):
            rng.setstate(state)  # the same split, and the same leaves named, on every build
            return leaves, tree(leaves, shape)

        cases.append(build)
    return cases


@pytest.mark.parametrize("build", _factor_build_cases())
def test_factor_build_matches_the_arranged_walk(build, monkeypatch):
    # `_graded`'s fold over a fresh tree's leaves against the checked twin's
    # arranged arrows walked by name: the slices, `boundary_matrix`, the
    # arrows alone and the first bad arrow
    leaves, k = build()
    sound = all(_first_bad_arrow(leaf) is None for leaf in leaves)
    with monkeypatch.context() as patch:
        if sound:  # the fold names nothing and lifts no product arrow
            _refuse_naming(patch)
        graded = outcome(_graded, k)
    twin = _checked_twin(k)  # named afterwards
    assert graded == outcome(_graded, twin) == outcome(_graded, build()[1])
    bad = _first_bad_arrow(twin)
    if graded[0] is ValueError:
        assert graded == bad
        for p in (0, 1):
            with pytest.raises(ValueError, match=re.escape(graded[1])):
                boundary_matrix(twin, p)
        return
    positions, columns, unfiltered = graded
    assert unfiltered == bad
    assert (unfiltered is None) == (sound or not twin.generators)  # or an empty leaf
    for p in (0, 1):
        assert list(positions[p]) == [lg.pos for lg in maslov_slice(twin, p)]
        assert list(columns[p]) == _columns(boundary_matrix(twin, p)) == slice_columns(twin, p)


def test_factor_build_cases_reach_every_outcome():
    outcomes = [outcome(_graded, build()[1]) for build in _factor_build_cases()]
    assert any(o[0] is ValueError for o in outcomes)
    assert any(o[0] is not ValueError and o[2] is not None for o in outcomes)
    assert any(o[0] is not ValueError and o[2] is None and o[0] != ((), ()) for o in outcomes)
    assert any(o == (((), ()), ((), ()), None) for o in outcomes)  # an empty leaf


def _random_raw_input(rng):
    """Untrusted constructor input: 1-4 generators named from
    `AWKWARD_NAMES` (now and then a duplicate name) and 0-6 arrows, given
    as tuples or lists, with repeats (odd and even multiplicities),
    self-loops, and now and then a ghost endpoint, a U-power that is not an
    integer or an arrow of the wrong length."""
    names = rng.sample(AWKWARD_NAMES, rng.randint(1, 4))
    if rng.random() < 0.05:
        names.append(rng.choice(names))
    gens = tuple(BaseGenerator(n, rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2))
                 for n in names)
    arrows = []
    for _ in range(rng.randint(0, 6)):
        if arrows and rng.random() < 0.3:
            arrows.append(rng.choice(arrows))
            continue
        src, dst = rng.choice(names), rng.choice(names)
        m = rng.randint(-1, 2)
        roll = rng.random()
        if roll < 0.03:
            dst = "ghost"
        elif roll < 0.05:
            m = rng.choice((True, 0.0, "1"))
        elif roll < 0.06:
            arrows.append((src, dst))
            continue
        arrows.append([src, dst, m] if rng.random() < 0.2 else (src, dst, m))
    return gens, arrows


def test_constructor_arranges_arrows_as_the_name_route_does():
    rng = random.Random(1919)
    outcomes = {"arrows": 0, "error": 0}
    for _ in range(2400):
        gens, arrows = _random_raw_input(rng)
        expected = _toggled_arrows(gens, arrows)
        try:
            k = KnotComplex(gens, tuple(arrows))
        except ValueError as e:
            assert str(e) == expected
            outcomes["error"] += 1
            continue
        assert "_index_arrows" in vars(k)  # made with the arrows, not on first use
        assert (k.arrows, vars(k)["_index_arrows"]) == (expected, _index_arrows_by_name(k))
        outcomes["arrows"] += 1
    assert min(outcomes.values()) > 200


def test_every_complex_keeps_its_index_arrows(monkeypatch):
    # each route is checked straight after it makes its complex, before
    # anything else reads it
    t = trefoil_by_hand()
    for build in (lambda: t, lambda: add_box(t, (2, 1), 1),
                  lambda: from_json_dict(to_json_dict(torus_knot(5, 3))),
                  lambda: mirror(t)):
        k = build()
        assert "_index_arrows" in vars(k)
        assert vars(k)["_index_arrows"] == _index_arrows_by_name(k)
    # a product makes them, with its names, on first read
    _assert_named_on_first_read(lambda: tensor(t, t), _product_tensor(t, t), monkeypatch)


_LAZY_SUMS = [
    (torus_knot(3, 2), torus_knot(3, 2)),
    (torus_knot(5, 2), mirror(torus_knot(3, 2))),
    (torus_knot(4, 3), mirror(torus_knot(3, 2)), torus_knot(5, 2)),
    (starry_trefoil(),
     mirror(torus_knot(3, 2)), torus_knot(4, 3)),
]


def _assert_named_on_first_read(build, ref, monkeypatch):
    """A fresh product from `build` gives its upsilon curve, its breaking
    points and, on another fresh product, its Kim-Livingston values, all
    without naming anything; read afterwards, it is the eager reference."""
    with monkeypatch.context() as patch:
        _refuse_naming(patch)
        k = build()
        curve, points = upsilon_function(k), breaking_points(k)
        fresh = build()
        values = [kim_livingston(fresh, p.t, s) for p in points for s in (p.t, 1)]
    assert "_index_arrows" not in vars(k)
    assert (curve, points) == (upsilon_function(ref), breaking_points(ref))
    assert values == [kim_livingston(ref, p.t, s) for p in points for s in (p.t, 1)]
    for k in (k, fresh):
        assert (k == ref, repr(k), hash(k)) == (True, repr(ref), hash(ref))
        assert to_json_dict(k) == to_json_dict(ref)
        assert validate_complex(k).problems == validate_complex(ref).problems
        assert k._index_arrows == ref._index_arrows == _index_arrows_by_name(k)


@pytest.mark.parametrize("folded", [False, True], ids=["flat", "folded"])
@pytest.mark.parametrize("summands", _LAZY_SUMS)
def test_products_are_named_only_when_read(summands, folded, monkeypatch):
    # folded as the benchmark's worker builds sums: tensor(tensor(a, b), c),
    # which is named as the flat product
    head, last = summands[:-1], summands[-1]
    build = (lambda: tensor(tensor(*head), last)) if folded else (lambda: tensor(*summands))
    _assert_named_on_first_read(build, _product_tensor(*summands), monkeypatch)


@pytest.mark.parametrize("summands", _LAZY_SUMS)
def test_mirror_of_a_product_mirrors_its_leaves(summands, monkeypatch):
    # the mirror of the named product, by the checked constructor
    named = tensor(*summands)
    expected = mirror(KnotComplex(named.generators, named.arrows))
    with monkeypatch.context() as patch:
        _refuse_naming(patch, leaves=False)
        k = mirror(tensor(*summands))
        assert vars(k)["_leaves"] == tuple(map(mirror, summands))
    assert "_index_arrows" not in vars(k)
    assert (k == expected, repr(k), hash(k)) == (True, repr(expected), hash(expected))
    assert mirror(k) == named


def test_mirror_is_involution():
    rng = random.Random(1819)
    knots = [trefoil_by_hand(), torus_knot(5, 3), thin_model(-2)]
    for k in knots + [random_small_complex(rng) for _ in range(20)]:
        m = mirror(k)
        twin = _checked_twin(m)
        assert (m == twin, repr(m), hash(m)) == (True, repr(twin), hash(twin))
        assert m.arrows == _toggled_arrows(m.generators, [(t, s, u) for s, t, u in k.arrows])
        assert m._index_arrows == twin._index_arrows == _index_arrows_by_name(m)
        graded = outcome(_graded, m)
        assert graded == outcome(_graded, twin)
        assert (graded if graded[0] is ValueError else graded[2]) == _first_bad_arrow(twin)
        assert mirror(m) == k
    for k in knots:
        assert validate_complex(mirror(k)).ok


def test_mirror_negates_positions():
    m = mirror(trefoil_by_hand())
    assert m.by_name["x0"].pos == (-1, 0)
    assert m.by_name["y0"].maslov == -1
    assert ("x0", "y0", 0) in m.arrows


def test_add_box_keeps_validity_and_names_fresh():
    k = trefoil_by_hand()
    k = add_box(k, (2, 1), 1)
    k = add_box(k, (2, 1), 1)  # same corner twice: names must not collide
    assert validate_complex(k).ok
    names = {g.name for g in k.generators}
    assert {"box0a", "box0d", "box1a", "box1d"} <= names
    assert len(k.generators) == 3 + 8


def test_random_staircase_tensors_validate():
    for seed in range(100):
        rng = random.Random(seed)
        jumps = []
        for _ in range(rng.randint(1, 3)):
            jumps.extend((rng.randint(1, 3), rng.randint(1, 3)))
        # balance the sums by construction: mirror the pairs
        odd, even = sum(jumps[0::2]), sum(jumps[1::2])
        if odd != even:
            jumps.extend((even, odd))
        k = staircase_from_jumps(tuple(jumps))
        if rng.random() < 0.5:
            k = mirror(k)
        k = add_box(k, (rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-2, 2))
        assert validate_complex(k).ok


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def test_json_round_trip(tmp_path):
    k = torus_knot(5, 3)
    path = tmp_path / "k.json"
    save_complex(k, str(path))
    assert load_complex(str(path)) == k
    # the on-disk schema is the documented one
    data = json.loads(path.read_text())
    assert set(data) == {"generators", "arrows"}
    assert all(set(g) == {"id", "A", "j", "M"} for g in data["generators"])


def test_a_complex_file_path_is_never_a_file_descriptor(tmp_path):
    # `open` takes an int as a file descriptor and closes it when done: an
    # int path (a bool too) is refused before anything is opened, and the
    # descriptors stay open.  A pathlib path still works.
    k = torus_knot(3, 2)
    r, w = os.pipe()
    try:
        for call in (lambda: save_complex(k, w), lambda: load_complex(r),
                     lambda: save_complex(k, True), lambda: load_complex(False)):
            with pytest.raises(ValueError, match="str or os.PathLike, not (int|bool)"):
                call()
        os.fstat(r)
        os.fstat(w)
    finally:
        os.close(r)
        os.close(w)
    save_complex(k, tmp_path / "k.json")
    assert load_complex(tmp_path / "k.json") == k


def test_from_json_dict_round_trip_in_memory():
    k = tensor(trefoil_by_hand(), mirror(trefoil_by_hand()))
    assert from_json_dict(to_json_dict(k)) == k


def test_a_complex_json_over_the_generator_limit_is_refused(monkeypatch):
    # refused by its length, before any entry is read or built, as `tensor`
    # refuses a product
    monkeypatch.setattr(complexfiles, "MAX_PRODUCT_GENERATORS", 5)  # T(4,3) has 5
    assert from_json_dict(to_json_dict(torus_knot(4, 3))) == torus_knot(4, 3)  # at the limit
    with pytest.raises(ValueError, match="^the complex has 6 generators, over the limit of 5$"):
        from_json_dict({"generators": [{}] * 6})


@pytest.mark.parametrize(
    "data",
    [
        [],
        {},
        {"generators": [{"id": "x", "A": 0, "j": 0}]},  # missing M
        {"generators": [], "arrows": [["a", "b"]]},  # short arrow
        {"generators": [{"id": "x", "A": "no", "j": 0, "M": 0}]},
    ],
)
def test_from_json_dict_rejects_malformed(data):
    with pytest.raises(ValueError):
        from_json_dict(data)


@pytest.mark.parametrize(
    "data, field",
    [
        ({"generators": [{"id": "x", "A": 0.9, "j": 0, "M": 0}]}, "A"),
        ({"generators": [{"id": "x", "A": 0, "j": False, "M": 0}]}, "j"),
        ({"generators": [{"id": "x", "A": 0, "j": 0, "M": 1.0}]}, "M"),
        ({"generators": [{"id": "x", "A": 0, "j": 0, "M": 0}],
          "arrows": [["x", "x", True]]}, "upower"),
    ],
)
def test_from_json_dict_rejects_non_integer_fields(data, field):
    with pytest.raises(ValueError, match=f"field '{field}' must be an integer"):
        from_json_dict(data)


X = {"id": "x", "A": 0, "j": 0, "M": 0}


@pytest.mark.parametrize(
    "data, message",
    [
        ({"generators": [X], "arrows": None}, "field 'arrows' must be a list"),
        ({"generators": 5}, "field 'generators' must be a list"),
        ({"generators": {"id": "x"}}, "field 'generators' must be a list"),
        ({"generators": [dict(X, id=["x"])]}, "field 'id' must be a string"),
        ({"generators": [dict(X, id=7)]}, "field 'id' must be a string"),
        ({"generators": [X], "arrows": [[["x"], "x", 0]]}, "field 'src' must be a string"),
        ({"generators": [X], "arrows": [["x", None, 0]]}, "field 'dst' must be a string"),
    ],
)
def test_from_json_dict_rejects_wrong_shapes_without_coercing(data, message):
    with pytest.raises(ValueError, match=message):
        from_json_dict(data)


NESTED = [[]]
for _ in range(900):
    NESTED = [NESTED]


@pytest.mark.parametrize(
    "data, named",
    [
        ({"generators": [NESTED]}, "bad generator entry [[[["),
        ({"generators": [dict(X, id="x" * 5000, A=0.5)]}, "field 'A' must be an integer, got 0.5"),
        ({"generators": [X], "arrows": [["x", "x", "u" * 5000]]}, "field 'upower' must be an integer"),
        ({"generators": [X], "arrows": [["x", "y" * 5000, 0]]}, "arrow endpoint not a generator"),
    ],
)
def test_bad_entry_errors_stay_short(data, named):
    # the repr of a bad entry or value is cut, whatever its size
    with pytest.raises(ValueError) as info:
        from_json_dict(data)
    message = str(info.value)
    assert named in message and len(message) < 200
