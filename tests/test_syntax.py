"""The package must parse as Python 3.10, the oldest version pyproject.toml allows."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "edgeideals").glob("*.py"))


def test_sources_are_found():
    assert any(p.name == "resolutions.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
