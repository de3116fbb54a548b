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
