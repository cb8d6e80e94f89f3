"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "torusorbits"


def test_no_assert_statements_in_the_package():
    """Invariants are explicit checks that raise InvariantViolation; an
    assert statement vanishes under python -O."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_function_local_imports_only_break_cycles():
    """Imports sit at module level; a function may import only from a
    package module that would otherwise form an import cycle."""
    allowed = {"decomp"}
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for func in ast.walk(ast.parse(path.read_text()))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and not (isinstance(node, ast.ImportFrom) and node.level == 1
                      and node.module in allowed)]
    assert found == []
