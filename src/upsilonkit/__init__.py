"""Exact upsilon-type concordance invariants of knot-type filtered complexes.

The package is organized bottom-up:

* ``exact``      — F2 linear algebra on bit-packed rows, exact rationals, and
                   the frozen value-class base that stands in for the
                   standard library's dataclass (whose import is the largest
                   start-up cost a command would pay);
* ``complexes``  — filtered chain complexes over F2[U, U^-1], validation,
                   tensor/mirror/box operations, JSON persistence;
* ``regions``    — south-west regions of the (A, j) plane, entering times,
                   exact piecewise-linear functions, the region DSL;
* ``invariants`` — the region invariant and everything derived from it
                   (upsilon, V/nu+/d, secondary and Kim-Livingston-type
                   invariants, eta), plus brute-force oracle counterparts;
* ``zoo``        — complex builders: semigroups, Puiseux data, Alexander
                   polynomials, staircases, torus/thin/pretzel families,
                   and their closed-form invariants;
* ``cli``        — the ``upsilonkit`` command-line tool.
"""

from .complexes import (
    BaseGenerator,
    Chain,
    KnotComplex,
    LatticeGenerator,
    ValidationReport,
    add_box,
    boundary_matrix,
    from_json_dict,
    load_complex,
    maslov_slice,
    mirror,
    representative_cycle,
    save_complex,
    tensor,
    to_json_dict,
    validate_complex,
)
from .exact import F2Matrix, F2Space, Rational, rational_from_text, rational_to_text
from .invariants import (
    NO_OBSTRUCTION,
    BreakingPoint,
    GuardExceeded,
    NoObstructionType,
    NotABreakingPoint,
    SecondaryValue,
    breaking_points,
    brute_force_secondary,
    brute_force_upsilon,
    check_jumps,
    d_invariant,
    eta,
    h0_surjective,
    kim_livingston,
    kim_livingston_oracle,
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
from .regions import (
    HalfPlane,
    PLFunction,
    RegionParseError,
    SouthWestRegion,
    contains,
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
from .zoo import (
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
    thin_kl_closed,
    thin_model,
    thin_three_param,
    torus_knot,
    unknot,
)

__version__ = "0.1.0"

__all__ = [
    "AlexanderPolynomial", "BaseGenerator", "BreakingPoint", "Chain", "F2Matrix",
    "F2Space", "GuardExceeded", "HalfPlane", "KnotComplex", "LatticeGenerator",
    "NO_OBSTRUCTION", "NoObstructionType", "NotABreakingPoint", "PLFunction",
    "PuiseuxData", "Rational", "RegionParseError", "SecondaryValue", "Semigroup",
    "SouthWestRegion",
    "ValidationReport", "add_box", "alexander_from_semigroup", "alexander_pretzel",
    "boundary_matrix", "breaking_points", "brute_force_secondary",
    "brute_force_upsilon", "check_jumps", "contains", "d_invariant", "eta",
    "entering_time", "eta_closed_form", "fk_upsilon", "from_json_dict", "h0_surjective",
    "intersect", "jumps_from_alexander", "jumps_from_semigroup", "kim_livingston",
    "kim_livingston_oracle", "load_complex", "make_halfplane", "maslov_slice",
    "mirror", "n_of_semigroup", "nu_plus", "parse_region", "pl_add", "pl_constant",
    "pl_eval", "pl_negate_scale", "pl_singular_points", "pretzel",
    "rational_from_text", "rational_to_text", "representative_cycle",
    "save_complex", "secondary", "semigroup_from_generators",
    "semigroup_from_puiseux", "staircase_breaking_points", "staircase_corners",
    "staircase_from_jumps", "staircase_kl", "staircase_upsilon", "staircase_vk",
    "tensor", "thin_kl_closed", "thin_model", "thin_three_param", "to_json_dict",
    "torus_knot", "translate", "truncate", "union", "unknot", "upsilon_at",
    "upsilon_function", "upsilon_halfplane", "upsilon_region", "v_region",
    "validate_complex", "vk",
]
