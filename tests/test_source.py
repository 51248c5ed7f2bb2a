"""The package source parses under the oldest Python that pyproject.toml admits,
and every module reads each name it imports."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "arakelov").glob("*.py"))


def python_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_the_floor_is_three_ten():
    assert python_floor() == (3, 10)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_at_the_floor(path):
    # syntax only (no 3.11 except*, no 3.12 type statements); the standard
    # library names a module uses are not checked
    ast.parse(path.read_text(), filename=str(path), feature_version=python_floor())


def _unread_imports(tree: ast.Module) -> list[str]:
    """The names an import binds that no expression of the module reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(set(bound) - read)


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_read(path):
    # the imports of __init__.py are the package's re-exports
    assert _unread_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_an_unread_import_is_flagged():
    source = "from __future__ import annotations\nimport os, sys\nfrom x import a as b\nsys.exit(b)\n"
    tree = ast.parse(source)
    assert _unread_imports(tree) == ["os"]
