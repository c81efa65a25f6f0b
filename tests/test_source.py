"""Checks on the library's source text."""

import ast
from pathlib import Path

import skewrank

SRC = Path(skewrank.__file__).parent


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so an invariant the paper's
    # claims rest on must be an explicit raise, and of ArithmeticError
    # rather than a hand-raised AssertionError
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
            or isinstance(node, ast.Raise) and _raises_assertion_error(node)
        ]
    assert not found, f"asserts in the library: {found}"


def test_library_has_no_function_local_imports():
    # every dependency of a module is visible at its top
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
    assert not found, f"imports inside functions: {found}"
