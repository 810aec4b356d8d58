"""Source rules of the package that a grep would otherwise have to enforce:
no ``assert`` statement carries a check (``python -O`` strips them), and
nothing is imported from outside the standard library and the package
itself (the package declares no runtime dependency)."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "brauercell").glob("*.py"))
PACKAGE = "brauercell"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_sources_found():
    assert any(path.name == "cli.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statement(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_stdlib_and_package(path):
    outside = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != PACKAGE and top not in sys.stdlib_module_names:
                outside.append((node.lineno, name))
    assert outside == [], f"{path.name}: imports from outside the standard library {outside}"
