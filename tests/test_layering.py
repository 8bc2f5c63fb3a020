"""The module map's layering: each module imports only the ones above it."""

import ast
import importlib
import re
import sys
from fractions import Fraction
from pathlib import Path

import upsilonkit

ORDER = ["exact", "complexes", "complexfiles", "regions", "plfunctions", "regiondsl", "invariants",
         "oracles", "zoo", "alexander", "puiseux", "closedforms", "reports", "cli"]
# (module, module split off from it): the only pairs where a module's lazy
# lookup (the package's `_lazy`) names a module, which may lie below it
SPLIT = {("complexes", "complexfiles"), ("regions", "plfunctions"), ("regions", "regiondsl"),
         ("invariants", "closedforms"), ("zoo", "alexander"), ("zoo", "puiseux"),
         ("zoo", "closedforms")}
EXEMPT = {"__init__", "__main__"}
PACKAGE = Path(upsilonkit.__file__).parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"


def _package_imports(path: Path, at_load: bool = False) -> set[str]:
    """The package modules that a module imports, at any nesting depth, or
    only where they run when it is loaded (outside every function).  The
    package's lazy-lookup helper (`from . import _lazy`) is no module."""
    tree = ast.parse(path.read_text())
    found = set()
    for node in _at_load(tree) if at_load else ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import a, b
                found.update(alias.name for alias in node.names if alias.name != "_lazy")
            else:
                found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("upsilonkit."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("upsilonkit."):
                    found.add(alias.name.split(".")[1])
    return found


def _at_load(tree: ast.Module):
    """The nodes of a module that run when it is loaded: all but those inside
    a function or lambda."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - EXEMPT
    assert modules == set(ORDER)


def test_all_names_every_public_binding():
    # the exports load on first use: each name of `__all__` resolves to its
    # module's binding, `dir` lists it, and `from upsilonkit import *` gives
    # exactly these names
    for home, names in upsilonkit._EXPORTS.items():
        module = importlib.import_module(f"upsilonkit.{home}")
        for name in names:
            assert getattr(upsilonkit, name) is vars(module)[name]
    assert sorted(name for names in upsilonkit._EXPORTS.values() for name in names) == \
        upsilonkit.__all__
    assert set(upsilonkit.__all__) <= set(dir(upsilonkit))
    star: dict = {}
    exec("from upsilonkit import *", star)
    assert set(star) - {"__builtins__"} == set(upsilonkit.__all__)


def test_the_package_and_the_cli_load_on_demand():
    # importing the package loads no submodule, and a command loads the
    # oracles only for an oracle check and the reports only for a report
    assert _package_imports(PACKAGE / "__init__.py", at_load=True) == set()
    at_load = _package_imports(PACKAGE / "cli.py", at_load=True)
    assert {"invariants", "zoo"} <= at_load and not at_load & {"oracles", "reports"}
    assert {"oracles", "reports"} <= _package_imports(PACKAGE / "cli.py")


def test_no_module_imports_dataclasses():
    # the value classes derive from `exact._Value`: importing `dataclasses`
    # pulls in `inspect`, `ast` and `tokenize` at every command's start-up
    assert [path.stem for path in PACKAGE.glob("*.py")
            if re.search(r"^\s*(import|from)\s+dataclasses\b", path.read_text(), re.M)] == []


def test_each_layer_imports_only_layers_above_it():
    for name in ORDER:
        imported = _package_imports(PACKAGE / f"{name}.py")
        below = {m for m in imported if ORDER.index(m) >= ORDER.index(name)}
        assert not below, f"{name} imports {sorted(below)}, which are not above it"


def _lazy_table(path: Path, module) -> dict | None:
    """The table of a module's `__getattr__ = _lazy(globals(), table)`, or
    None; any other module-level `__getattr__` fails.  A table given by name
    is read off the loaded module."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__":
            raise AssertionError(f"{path.stem} writes its own __getattr__")
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__getattr__"]:
            call = node.value
            assert ast.unparse(call.func) == "_lazy" and ast.unparse(call.args[0]) == "globals()"
            table = call.args[1]
            return vars(module)[table.id] if isinstance(table, ast.Name) else \
                ast.literal_eval(table)
    return None


def test_only_a_split_module_loads_on_a_lazy_lookup():
    # the package and each module hand out the names they do not hold
    # through one shared helper, the package's `_lazy`; the package's table
    # is its exports, and each module's names only the modules split off
    # from it; every name resolves to the same object in its home
    pairs = set()
    for name in ["__init__", *ORDER]:
        module = upsilonkit if name == "__init__" else importlib.import_module(f"upsilonkit.{name}")
        table = _lazy_table(PACKAGE / f"{name}.py", module)
        if table is None:
            continue
        if name == "__init__":
            assert table is upsilonkit._EXPORTS
        else:
            pairs.update((name, home) for home in table)
        for home, names in table.items():
            held = vars(importlib.import_module(f"upsilonkit.{home}"))
            for attr in names:
                assert attr in held, f"{home} holds no {attr}"
                assert getattr(module, attr) is held[attr], f"{name}.{attr}"
    assert pairs == SPLIT


def _names(path: Path) -> set[str]:
    """The names, attributes and imported names that a module's code uses."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_only_complexes_reads_the_graded_layout():
    # The engine and validation read `_graded` inside `complexes`; every
    # other module goes through them, so the graded layout stays behind one module.
    for path in PACKAGE.glob("*.py"):
        if path.stem != "complexes":
            assert "_graded" not in _names(path), f"{path.stem} references _graded"


def test_only_complexes_names_the_factor_build_or_the_lifting():
    # A product's graded layout comes from its leaves inside `complexes`, and
    # its arrows are lifted only when it is named; no other module reaches
    # past `_graded`, `boundary_matrix` or the fields to either.
    helpers = {"_graded_leaf", "_named", "_arrow_faults"}
    for path in PACKAGE.glob("*.py"):
        if path.stem != "complexes":
            named = sorted(helpers & _names(path))
            assert not named, f"{path.stem} references {named}"


def test_the_oracle_routes_read_no_engine_build():
    # `boundary_matrix`, `maslov_slice` and `representative_cycle` recompute
    # the slices, the differential and a generating cycle by name, so that
    # the oracles, which read them, check the engine's build
    engine = {"_Engine", "_least_top", "_below", "_graded"} & _names(PACKAGE / "oracles.py")
    assert not engine, f"oracles reads the engine: {sorted(engine)}"


def test_the_staircase_closed_forms_read_no_engine():
    # the closed forms take the corner lines' hull in `_corner_hull`, so that
    # the tests, which hold the engine to them, check it by a second route;
    # they live in `closedforms`, and the corners they read in `invariants`
    engine = {"_Engine", "_least_top", "_line_keys", "_kinetic_sweep"}
    bodies = {}
    for module in ("closedforms", "invariants"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        bodies.update({f"{module}.{node.name}": node for node in tree.body
                       if isinstance(node, ast.FunctionDef)
                       and (node.name == "_corner_hull" or node.name.startswith("staircase_"))})
    assert sorted(bodies) == [
        "closedforms._corner_hull", "closedforms.staircase_breaking_points",
        "closedforms.staircase_kl", "closedforms.staircase_upsilon", "closedforms.staircase_vk",
        "invariants.staircase_corners"]
    for name, body in bodies.items():
        used = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
        assert not used & engine, f"{name} reads the engine: {sorted(used & engine)}"
    # nor does any other closed form there (the torus recursion, eta's)
    assert not _names(PACKAGE / "closedforms.py") & engine
    assert "complexes" not in _package_imports(PACKAGE / "closedforms.py")


def test_engine_eliminations_run_on_the_one_kernel():
    # `_reduce_pair`, the one-vector step of `_echelonize`, serves only the
    # F2 matrices and spans of `oracles`; every engine elimination calls
    # `_echelonize`.
    assert [path.stem for path in PACKAGE.glob("*.py")
            if "_reduce_pair" in _names(path)] == ["oracles"]


def test_no_module_runs_the_column_reduction():
    # Every least key comes from `_least_top`, which stops at the answer, and
    # the secondary invariant's cosets from `_below`, which eliminates only
    # the rows keyed above it; `_reduce`, the column route that sorts and
    # permutes every row, is a reference in the tests only.
    assert [path.stem for path in PACKAGE.glob("*.py")
            if re.search(r"\b_reduce\b", path.read_text())] == []


def test_the_secondary_invariant_reads_coordinates_only():
    # `_secondary` works in coordinates over the engine's basis of im d1
    # (`eng.coords`); no slice-0 column route stays beside it
    tree = ast.parse((PACKAGE / "invariants.py").read_text())
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_secondary")
    read = {node.attr for node in ast.walk(body)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "eng"}
    assert "coords" in read and "d1_cols" not in read


def test_the_bench_reads_only_names_the_modules_bind():
    # the bench's workloads and worker read the package through these four
    # modules; a name moved out of one would make their output checks raise
    modules = {name: importlib.import_module(f"upsilonkit.{name}")
               for name in ("complexes", "invariants", "regions", "zoo")}
    read = set()
    for path in (PERFBENCH / "workloads.py", PERFBENCH / "worker.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                read.add((node.value.id, node.attr))
    assert len(read) > 20
    missing = sorted(f"{module}.{attr}" for module, attr in read
                     if not hasattr(modules[module], attr))
    assert not missing, f"the bench reads names that are gone: {missing}"


def test_the_timed_bench_routines_load_no_split_module():
    # the `sums` and `session` workers import these four modules before their
    # timed operations, which must then load nothing more: a module loaded
    # inside one would be compiled inside it, in every fresh-process round.
    # So a fresh import of the package runs every routine those operations
    # reach on a small sum, and no split-off module may load.
    def loaded() -> set[str]:
        return {name for name in sys.modules if name.partition(".")[0] == "upsilonkit"}

    saved = {name: sys.modules.pop(name) for name in loaded()}
    try:
        complexes, invariants, regions, zoo = (importlib.import_module(f"upsilonkit.{name}")
                                               for name in ("complexes", "invariants", "regions",
                                                            "zoo"))
        h = regions.upsilon_halfplane
        k = complexes.tensor(zoo.torus_knot(5, 3), complexes.mirror(zoo.torus_knot(3, 2)))
        assert invariants.h0_surjective(k, h(0), 0)
        curve, kinks = invariants.upsilon_function(k), invariants.breaking_points(k)
        t = kinks[0].t
        values = [curve.points, kinks, invariants.kim_livingston(k, t, t),
                  invariants.upsilon_region(k, regions.union(h(Fraction(2, 3)),
                                                             regions.v_region(1))),
                  invariants.vk(k, 1), invariants.nu_plus(k), invariants.eta(k, h(1)),
                  invariants.secondary(k, h(t + Fraction(1, 99)), h(t - Fraction(1, 99)), h(1))]
        assert all(map(repr, values))
        modules = loaded()
    finally:
        for name in loaded():
            del sys.modules[name]
        sys.modules.update(saved)
    assert modules == {"upsilonkit", *(f"upsilonkit.{name}" for name in
                                       ("complexes", "exact", "invariants", "regions", "zoo"))}


def test_each_value_states_its_fields_once():
    # a value class names its fields in `_fields` only: `_Value.__init__`
    # binds them and `_Value._key` reads them in that order, and
    # `_OrderedValue` writes `__lt__` alone (`total_ordering` derives the
    # rest), so no class repeats the tuple
    methods = {f"{path.stem}.{node.name}": {f.name for f in node.body
                                             if isinstance(f, ast.FunctionDef)}
               for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)}
    assert [name for name, defs in methods.items() if "_key" in defs] == ["exact._Value"]
    assert methods["exact._OrderedValue"] & {"__lt__", "__le__", "__gt__", "__ge__"} == {"__lt__"}
    # and no value class of the package writes its own constructor
    for name in ORDER:
        importlib.import_module(f"upsilonkit.{name}")
    values = [upsilonkit.exact._Value]
    for cls in values:  # every subclass, at any depth
        values += cls.__subclasses__()
    ours = [cls for cls in values if cls.__module__.startswith("upsilonkit.")]
    assert len(ours) == 14
    assert [cls.__qualname__ for cls in ours if "__init__" in vars(cls)] == ["_Value"]


def test_only_tensor_makes_a_complex_past_the_constructor():
    # every complex but a product goes through the checked `KnotComplex`
    # constructor; `tensor`'s lazy product is the one other way
    tree = ast.parse((PACKAGE / "complexes.py").read_text())
    makers = {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
              for node in ast.walk(func)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "__new__" and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "object"}
    assert makers == {"tensor"}


def test_each_command_is_stated_once():
    # the commands that print one engine value share `_cmd_value`, driven by
    # `_VALUES`, and every command's arguments are data in its `_COMMANDS`
    # row, (flag, argparse keywords) pairs: `_fast_args` parses well-formed
    # command lines straight from them, and `_build_parser` alone adds them
    # to argparse, which loads only for help and for the lines the fast path
    # declines
    from upsilonkit import cli
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    adds = lambda node: [call for call in ast.walk(node) if isinstance(call, ast.Call)
                         and isinstance(call.func, ast.Attribute)
                         and call.func.attr == "add_argument"]
    build = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_build_parser")
    assert adds(build) and set(adds(tree)) == set(adds(build))
    for name, _, func, arguments in cli._COMMANDS:
        assert isinstance(arguments, tuple) and arguments, name
        assert all(isinstance(pair, tuple) and len(pair) == 2 and isinstance(pair[0], str)
                   and isinstance(pair[1], dict) for pair in arguments), name
        assert (func is cli._cmd_value) == (name in cli._VALUES), name
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not {f"_cmd_{name.replace('-', '_')}" for name in cli._VALUES} & defined


def test_each_dsl_states_its_atoms_once():
    # each atom's argument grammar is the shape in its table row, read by
    # `_Scanner.arguments`: no `atom` method tests the atom name (bound from
    # `term_name`) against a string literal, and every row has a shape that
    # the DSL's readers read
    from upsilonkit import cli, regiondsl
    for module, parser in ((cli, cli._KnotParser), (regiondsl, regiondsl._RegionParser)):
        tree = ast.parse(Path(module.__file__).read_text())
        atom = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                    and node.name == "atom")
        named = {node.targets[0].elts[1].id for node in ast.walk(atom)
                 if isinstance(node, ast.Assign) and "term_name" in ast.unparse(node.value)}
        assert named, parser.__name__
        for node in ast.walk(atom):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                literal = any(isinstance(c, ast.Constant) and isinstance(c.value, str)
                              for operand in operands for c in ast.walk(operand))
                assert not (literal and named & {n.id for n in operands
                                                 if isinstance(n, ast.Name)}), ast.unparse(node)
        assert module._ATOMS, parser.__name__
        for name, (shape, *_) in module._ATOMS.items():
            assert isinstance(shape, str) and shape, name
            assert set(shape) - set(",;") <= set(parser.readers), name
