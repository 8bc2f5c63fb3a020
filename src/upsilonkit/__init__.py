"""Exact upsilon-type concordance invariants of knot-type filtered complexes.

The package is organized bottom-up:

* ``exact``      — F2 elimination on bit-packed vectors, exact rationals, and
                   the frozen value-class base that stands in for the
                   standard library's dataclass (whose import is the largest
                   start-up cost a command would pay);
* ``complexes``  — filtered chain complexes over F2[U, U^-1], validation,
                   tensor/mirror/box operations, JSON persistence;
* ``regions``    — south-west regions of the (A, j) plane, entering times,
                   exact piecewise-linear functions, the region DSL;
* ``invariants`` — the region invariant and everything derived from it
                   (upsilon, V/nu+/d, secondary and Kim-Livingston-type
                   invariants, eta), and the staircase closed forms;
* ``oracles``    — the brute-force oracles, with the slices, the
                   differential and the F2 matrices they read by name;
* ``zoo``        — complex builders: semigroups, Puiseux data, Alexander
                   polynomials, staircases, torus/thin/pretzel families,
                   the torus recursion and the eta closed form;
* ``reports``    — the thin-check and pretzel-report pipelines and the
                   thin-knot closed forms;
* ``cli``        — the ``upsilonkit`` command-line tool.

Importing the package loads none of them: each exported name loads its
module on first use (a module ``__getattr__``), so a command starts with
only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "exact": ("Rational", "rational_from_text", "rational_to_text"),
    "complexes": (
        "BaseGenerator", "KnotComplex", "ValidationReport", "add_box", "from_json_dict",
        "load_complex", "mirror", "save_complex", "tensor", "to_json_dict", "validate_complex",
    ),
    "regions": (
        "HalfPlane", "PLFunction", "RegionParseError", "SouthWestRegion", "contains",
        "entering_time", "intersect", "make_halfplane", "parse_region", "pl_add", "pl_constant",
        "pl_eval", "pl_negate_scale", "pl_singular_points", "translate", "truncate", "union",
        "upsilon_halfplane", "v_region",
    ),
    "invariants": (
        "NO_OBSTRUCTION", "BreakingPoint", "GuardExceeded", "NoObstructionType",
        "NotABreakingPoint", "SecondaryValue", "breaking_points", "check_jumps", "d_invariant",
        "eta", "h0_surjective", "kim_livingston", "nu_plus", "secondary",
        "staircase_breaking_points", "staircase_corners", "staircase_kl", "staircase_upsilon",
        "staircase_vk", "upsilon_at", "upsilon_function", "upsilon_region", "vk",
    ),
    "oracles": (
        "Chain", "F2Matrix", "F2Space", "LatticeGenerator", "boundary_matrix",
        "brute_force_secondary", "brute_force_upsilon", "kim_livingston_oracle", "maslov_slice",
        "representative_cycle",
    ),
    "zoo": (
        "AlexanderPolynomial", "PuiseuxData", "Semigroup", "alexander_from_semigroup",
        "alexander_pretzel", "eta_closed_form", "fk_upsilon", "jumps_from_alexander",
        "jumps_from_semigroup", "n_of_semigroup", "pretzel", "semigroup_from_generators",
        "semigroup_from_puiseux", "staircase_from_jumps", "thin_model", "torus_knot", "unknot",
    ),
    "reports": ("thin_kl_closed", "thin_three_param"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
