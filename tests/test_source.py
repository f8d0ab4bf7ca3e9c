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


def test_no_memo_that_outlives_a_request():
    # a process-lifetime cache would make a repeated request measure
    # cache hits, so src/ names neither functools.cache nor lru_cache,
    # whether as a decorator, a call or an import.  This is a narrow
    # lint: a hand-rolled module-level dict passes it.  Memos that go
    # with their object (functools.cached_property) are allowed.
    banned = {"cache", "lru_cache"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {a.name for a in node.names}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            if banned & names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_each_cusp_literal_is_written_once():
    # a cusp spelled out twice, as the sporadic family members once were,
    # is a fact with two owners that can drift apart
    seen: dict = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "CuspType"
                and len(node.args) == 2
                and all(
                    isinstance(a, ast.Constant) and type(a.value) is int
                    for a in node.args
                )
            ):
                pq = tuple(a.value for a in node.args)
                seen.setdefault(pq, []).append(f"{path.name}:{node.lineno}")
    assert seen
    assert {pq: where for pq, where in seen.items() if len(where) > 1} == {}
