"""The package source parses under the oldest Python that pyproject.toml admits."""

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
