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
