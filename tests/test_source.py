"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "heckej"
SOURCES = sorted(SRC.glob("*.py"))


def nodes(path):
    return ast.walk(ast.parse(path.read_text(), filename=str(path)))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Invariants raise HeckejError: `python -O` strips assert statements."""
    lines = [node.lineno for node in nodes(path) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {path.name} at lines {lines}"


def imported_packages(node):
    """The top-level packages an import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name.partition(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [(node.module or "").partition(".")[0]]
    return []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_sympy_import(path):
    """The package has no runtime dependency."""
    lines = [node.lineno for node in nodes(path) if "sympy" in imported_packages(node)]
    assert lines == [], f"sympy imported in {path.name} at lines {lines}"


TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
TEST_IMPORTS = {"pytest", "heckej", "conftest"}


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_tests_import_no_optional_package(path):
    """The tests need pytest and the standard library alone, so an
    optional oracle such as sympy cannot come back unseen."""
    allowed = TEST_IMPORTS | set(sys.stdlib_module_names)
    lines = [node.lineno for node in nodes(path) if not allowed.issuperset(imported_packages(node))]
    assert lines == [], f"{path.name} imports beyond {sorted(TEST_IMPORTS)} and the standard library at lines {lines}"
