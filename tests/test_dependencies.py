"""Runtime dependencies stay numpy only: every import in the package is
from the standard library, numpy, or the package itself."""

import ast
import pathlib
import sys

import pytest

import creditcurves

PACKAGE_DIR = pathlib.Path(creditcurves.__file__).parent
ALLOWED_TOP_LEVEL = set(sys.stdlib_module_names) | {"numpy", "creditcurves"}


def _imported_modules(tree):
    """(line, top-level name) of each absolute import; relative ones are the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_the_package(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = [(line, name) for line, name in _imported_modules(tree)
               if name not in ALLOWED_TOP_LEVEL]
    assert foreign == [], f"{path.name} imports outside stdlib/numpy: {foreign}"


def test_package_modules_are_found():
    assert len(list(PACKAGE_DIR.glob("*.py"))) >= 12


# Import layers: a module may import only from modules in lower layers.
LAYERS = {
    "errors": 0,
    "curves": 1, "splines": 1, "rootfind": 1,
    "survival": 2, "conventional": 2,
    "pricing": 3,
    "calibration": 4, "measures": 4,
    "hedging": 5,
    "cli": 6,
}


def _package_imports(tree):
    """(line, module) of each import of a package module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                yield from ((node.lineno, alias.name) for alias in node.names)
            else:
                yield node.lineno, node.module.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("creditcurves."):
            yield node.lineno, node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[1]) for alias in node.names
                        if alias.name.startswith("creditcurves."))


def test_layer_table_covers_every_module():
    modules = {p.stem for p in PACKAGE_DIR.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_imports_only_lower_layers(module):
    path = PACKAGE_DIR / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    upward = [(line, name) for line, name in _package_imports(tree)
              if LAYERS[name] >= LAYERS[module]]
    assert upward == [], f"{module} (layer {LAYERS[module]}) imports its layer or above: {upward}"


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_references(tree):
    """(line, "module._name") of each reference to a package module's private name:
    ``module._name`` on a module bound by ``from . import module``, or
    ``from .module import _name``.  Methods on objects (``curve._exp_terms``) are not
    module references."""
    modules = {}  # local name -> package module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            yield node.lineno, f"{modules[node.value.id]}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            yield from ((node.lineno, f"{node.module}.{alias.name}") for alias in node.names
                        if _is_private(alias.name))


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_no_module_uses_another_modules_private_names(module):
    path = PACKAGE_DIR / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = list(_private_references(tree))
    assert found == [], f"{module} reaches into private names of other modules: {found}"


def test_private_reference_scan_finds_both_forms():
    tree = ast.parse("from . import pricing as p\nfrom .curves import _x\np._walk(1)\n"
                     "curve._exp_terms(0, 1)\n")
    assert sorted(_private_references(tree)) == [(2, "curves._x"), (3, "pricing._walk")]
