"""Checks on the package source itself."""

import ast
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


def imports_sympy(node):
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] == "sympy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "sympy"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_sympy_import(path):
    """The package has no runtime dependency; sympy is only a test oracle."""
    lines = [node.lineno for node in nodes(path) if imports_sympy(node)]
    assert lines == [], f"sympy imported in {path.name} at lines {lines}"
