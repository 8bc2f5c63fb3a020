"""The module map's layering: each module imports only the ones above it."""

import ast
import re
from pathlib import Path
from types import ModuleType

import upsilonkit

ORDER = ["exact", "complexes", "regions", "invariants", "zoo", "cli"]
EXEMPT = {"__init__", "__main__"}
PACKAGE = Path(upsilonkit.__file__).parent


def _package_imports(path: Path) -> set[str]:
    """The package modules that a module imports, at any nesting depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
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


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - EXEMPT
    assert modules == set(ORDER)


def test_all_names_every_public_binding():
    # `from upsilonkit import *` gives exactly what the package imports for
    # its users: every public name it binds, except the submodules
    bound = {name for name, value in vars(upsilonkit).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert set(upsilonkit.__all__) == bound


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
    tree = ast.parse((PACKAGE / "complexes.py").read_text())
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("boundary_matrix", "maslov_slice", "representative_cycle"):
        used = {node.id for node in ast.walk(bodies[name]) if isinstance(node, ast.Name)}
        assert not used & {"_graded", "_Engine"}, f"{name} reads the engine's build"


def test_engine_eliminations_run_on_the_one_kernel():
    # `_reduce_pair`, the one-vector step of `_echelonize`, serves only the
    # kernels of `exact`; every engine elimination calls `_echelonize`.
    assert [path.stem for path in PACKAGE.glob("*.py")
            if "_reduce_pair" in _names(path)] == ["exact"]


def test_no_module_runs_the_column_reduction():
    # Every least key comes from `_least_top`, which stops at the answer, and
    # the secondary invariant's cosets from `_below`, which eliminates only
    # the rows keyed above it; `_reduce`, the column route that sorts and
    # permutes every row, is a reference in the tests only.
    assert [path.stem for path in PACKAGE.glob("*.py")
            if re.search(r"\b_reduce\b", path.read_text())] == []
