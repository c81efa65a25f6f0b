"""Checks on the library's source text."""

import ast
from pathlib import Path

import skewrank

SRC = Path(skewrank.__file__).parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so an invariant the paper's
    # claims rest on must be an explicit raise
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the library: {found}"
