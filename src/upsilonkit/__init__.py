"""Exact upsilon-type concordance invariants of knot-type filtered complexes.

The package is organized bottom-up:

* ``exact``        — F2 elimination on bit-packed vectors, exact rationals,
                     the frozen value-class base that stands in for the
                     standard library's dataclass (whose import is the
                     largest start-up cost a command would pay), and
                     ``_lazy``, which hands out a module's split-off names;
* ``complexes``    — filtered chain complexes over F2[U, U^-1], validation,
                     tensor/mirror, the engine;
* ``complexfiles`` — JSON persistence and ``add_box`` (the commands that read
                     a complex file);
* ``regions``      — south-west regions of the (A, j) plane, entering times,
                     exact piecewise-linear functions, the DSLs' lexing;
* ``plfunctions``  — PL arithmetic: evaluation, sums, scaling, kinks
                     (``upsilon --format csv`` and the reports);
* ``regiondsl``    — the region DSL's parser (the commands that take a
                     region);
* ``invariants``   — the region invariant and everything derived from it
                     (upsilon, V/nu+/d, secondary and Kim-Livingston-type
                     invariants, eta), and the staircase jumps and corners;
* ``oracles``      — the brute-force oracles, with the slices, the
                     differential and the F2 matrices they read by name;
* ``zoo``          — complex builders: semigroups, staircases, torus and thin
                     knots;
* ``alexander``    — Alexander polynomials and the pretzels P(-2,3,q) (the
                     ``P`` atom and ``pretzel-report``);
* ``puiseux``      — Puiseux data and their semigroups (the ``alg`` atom);
* ``closedforms``  — the staircase closed forms, the torus recursion and the
                     eta closed form (``pretzel-report``, the tests, the bench);
* ``reports``      — the thin-check and pretzel-report pipelines and the
                     thin-knot closed forms;
* ``cli``          — the ``upsilonkit`` command-line tool.

Importing the package loads none of them: each exported name loads its
module on first use (a module ``__getattr__``), so a command starts with
only the modules it runs.  ``complexfiles``, ``plfunctions``, ``regiondsl``,
``alexander``, ``puiseux`` and ``closedforms`` hold code that few commands
run (those in parentheses above load them).  They were split off from
``complexes``, ``regions``, ``invariants`` and ``zoo``, which hand out
their names on first use too, so every name still resolves there.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "exact": ("Rational", "rational_from_text", "rational_to_text"),
    "complexes": (
        "BaseGenerator", "KnotComplex", "ValidationReport", "mirror", "tensor", "validate_complex",
    ),
    "complexfiles": ("add_box", "from_json_dict", "load_complex", "save_complex", "to_json_dict"),
    "regions": (
        "HalfPlane", "PLFunction", "RegionParseError", "SouthWestRegion", "contains",
        "entering_time", "intersect", "make_halfplane", "pl_constant", "translate", "truncate",
        "union", "upsilon_halfplane", "v_region",
    ),
    "plfunctions": ("pl_add", "pl_eval", "pl_negate_scale", "pl_singular_points"),
    "regiondsl": ("parse_region",),
    "invariants": (
        "NO_OBSTRUCTION", "BreakingPoint", "GuardExceeded", "NoObstructionType",
        "NotABreakingPoint", "SecondaryValue", "breaking_points", "check_jumps", "d_invariant",
        "eta", "h0_surjective", "kim_livingston", "nu_plus", "secondary", "staircase_corners",
        "upsilon_at", "upsilon_function", "upsilon_region", "vk",
    ),
    "oracles": (
        "Chain", "F2Matrix", "F2Space", "LatticeGenerator", "boundary_matrix",
        "brute_force_secondary", "brute_force_upsilon", "kim_livingston_oracle", "maslov_slice",
        "representative_cycle",
    ),
    "zoo": (
        "Semigroup", "jumps_from_semigroup", "semigroup_from_generators", "staircase_from_jumps",
        "thin_model", "torus_knot", "unknot",
    ),
    "alexander": (
        "AlexanderPolynomial", "alexander_from_semigroup", "alexander_pretzel",
        "jumps_from_alexander", "pretzel",
    ),
    "puiseux": ("PuiseuxData", "semigroup_from_puiseux"),
    "closedforms": (
        "eta_closed_form", "fk_upsilon", "n_of_semigroup", "staircase_breaking_points",
        "staircase_kl", "staircase_upsilon", "staircase_vk",
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
