"""The module map's layering: each module imports only the ones above it."""

import ast
from pathlib import Path

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


def test_each_layer_imports_only_layers_above_it():
    for name in ORDER:
        imported = _package_imports(PACKAGE / f"{name}.py")
        below = {m for m in imported if ORDER.index(m) >= ORDER.index(name)}
        assert not below, f"{name} imports {sorted(below)}, which are not above it"


def test_only_complexes_reads_the_graded_layout():
    # The engine and validation read `_graded` inside `complexes`; every
    # other module goes through them, so the graded layout stays behind one module.
    for path in PACKAGE.glob("*.py"):
        if path.stem == "complexes":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert "_graded" not in names, f"{path.stem} references _graded"


def _functions_naming(tree: ast.AST, name: str) -> set[str]:
    """The functions whose bodies name `name` ("<module>" for code outside
    any function); imports and definitions do not count."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif (isinstance(node, ast.Name) and node.id == name
              or isinstance(node, ast.Attribute) and node.attr == name):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_only_secondary_runs_the_column_reduction():
    # `_reduce` returns the reduced cycle and the boundary basis as well as
    # the key, and only `_secondary` needs them; every key-only query takes
    # `_least_top`, which stops at the answer.
    users = {(path.stem, function) for path in PACKAGE.glob("*.py")
             for function in _functions_naming(ast.parse(path.read_text()), "_reduce")}
    assert users == {("invariants", "_secondary")}
