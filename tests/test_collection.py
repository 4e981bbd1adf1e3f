"""Every test function in tests/ is one that pytest collects."""

import ast
from pathlib import Path

import pytest


def misplaced_tests(source: str) -> list[str]:
    """Names of ``test*`` functions that are neither at module level nor
    directly in a module-level ``Test*`` class; pytest silently skips them."""
    tree = ast.parse(source)
    collected = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            collected.update(node.body)
        else:
            collected.add(node)
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("test")
        and node not in collected
    ]


@pytest.mark.parametrize(
    "path", sorted(Path(__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_no_test_is_nested(path):
    assert misplaced_tests(path.read_text()) == []


def test_nested_test_is_found():
    source = "def test_outer():\n    def test_inner():\n        pass\n"
    assert misplaced_tests(source) == ["test_inner"]
