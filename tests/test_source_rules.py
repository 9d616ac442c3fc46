"""Rules the package sources keep, checked on their syntax trees."""

import ast
from pathlib import Path

import altkit

SOURCES = sorted(Path(altkit.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "span_solver.py"}


def test_no_assert_statements():
    # python -O strips assert, so a check that rests on one vanishes;
    # checks raise an AltkitError subclass instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
