"""The package and its tests, test oracles included, must parse as Python 3.10, the oldest
version pyproject.toml allows; the package must import nothing outside the standard library,
export only names it binds and define nothing that only tests name."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "edgeideals").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def test_sources_are_found():
    assert any(p.name == "resolutions.py" for p in SOURCES)
    assert any(p.name == "minimalize_reference.py" for p in TESTS)


# file names are unique across the package and tests/, so the ids are too
@pytest.mark.parametrize("path", SOURCES + TESTS, ids=[p.name for p in SOURCES + TESTS])
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_imports_only_the_standard_library(path):
    # the standard library is the only runtime dependency
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names or top == "edgeideals", (path.name, name)


def test_every_exported_name_resolves():
    import edgeideals

    assert [name for name in edgeideals.__all__ if not hasattr(edgeideals, name)] == []


def _package_imports(path) -> set:
    """The package modules that the source at path imports, at any depth of its body."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("edgeideals."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.startswith("edgeideals"):
                module = module.partition(".")[2]
            elif node.level == 0:
                continue
            names.update([module] if module else (a.name for a in node.names))
    return names


def test_the_exponent_box_is_defined_once_and_imports_no_engine():
    # monomials and resolutions share one box module; resolutions imports monomials, so
    # monomials must not reach resolutions, through the box module or otherwise
    defined = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in ("_Box", "_strides"):
                defined.setdefault(node.name, []).append(path.name)
    assert defined == {"_Box": ["box.py"], "_strides": ["box.py"]}
    imports = {path.stem: _package_imports(path) for path in SOURCES}
    assert "box" in imports["monomials"] and "box" in imports["resolutions"]
    reached, todo = set(), ["monomials"]
    while todo:
        for module in imports.get(todo.pop(), ()):
            if module not in reached:
                reached.add(module)
                todo.append(module)
    assert "box" in reached and "resolutions" not in reached


def test_every_definition_is_named_elsewhere_in_the_package_or_exported():
    # a function, class, method or property that no code of the package names and __all__
    # does not list runs only from tests, which keep such helpers in tests/.  A member counts
    # as named by an attribute read, a function or class by its name or as an attribute of its
    # module.  Dunders are called by Python itself
    import edgeideals

    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    attrs = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    named = attrs | {node.id for node in nodes if isinstance(node, ast.Name)} | set(edgeideals.__all__)
    members = {id(item) for node in nodes if isinstance(node, ast.ClassDef) for item in node.body}
    unnamed = [
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in (attrs if id(node) in members else named)
    ]
    assert unnamed == []
