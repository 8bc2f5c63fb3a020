"""The module map's layering: each module imports only the ones above it."""

import ast
import importlib
import re
from pathlib import Path

import upsilonkit

ORDER = ["exact", "complexes", "regions", "invariants", "oracles", "zoo", "reports", "cli"]
EXEMPT = {"__init__", "__main__"}
PACKAGE = Path(upsilonkit.__file__).parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"


def _package_imports(path: Path, at_load: bool = False) -> set[str]:
    """The package modules that a module imports, at any nesting depth, or
    only where they run when it is loaded (outside every function)."""
    tree = ast.parse(path.read_text())
    found = set()
    for node in _at_load(tree) if at_load else ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import a, b
                found.update(alias.name for alias in node.names)
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
    for name in upsilonkit.__all__:
        module = importlib.import_module(f"upsilonkit.{upsilonkit._MODULE_OF[name]}")
        assert getattr(upsilonkit, name) is vars(module)[name]
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
    # the tests, which hold the engine to them, check it by a second route
    tree = ast.parse((PACKAGE / "invariants.py").read_text())
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
              and (node.name == "_corner_hull" or node.name.startswith("staircase_"))}
    assert len(bodies) == 6
    for name, body in bodies.items():
        used = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
        engine = used & {"_Engine", "_least_top", "_line_keys", "_kinetic_sweep"}
        assert not engine, f"{name} reads the engine: {sorted(engine)}"


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


def test_each_value_states_its_fields_once():
    # a value class names its fields in `_fields` only: `_Value._key` reads
    # them in that order, and `_OrderedValue` writes `__lt__` alone
    # (`total_ordering` derives the rest), so no class repeats the tuple
    methods = {f"{path.stem}.{node.name}": {f.name for f in node.body
                                             if isinstance(f, ast.FunctionDef)}
               for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)}
    assert [name for name, defs in methods.items() if "_key" in defs] == ["exact._Value"]
    assert methods["exact._OrderedValue"] & {"__lt__", "__le__", "__gt__", "__ge__"} == {"__lt__"}


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
    # row, (flag, argparse keywords) pairs that `_build_parser` alone adds
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
