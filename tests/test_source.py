"""Source-level rules for the library package."""

import ast
from pathlib import Path

import cuspatlas

SOURCES = sorted(Path(cuspatlas.__file__).parent.glob("*.py"))


def test_no_check_that_optimisation_strips():
    # `python -O` removes assert statements, so every invariant the
    # library guards must raise explicitly; internal faults raise
    # RuntimeError, which the command line reports with exit status 3
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
