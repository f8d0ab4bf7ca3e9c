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


def test_no_module_imports_anothers_private_name():
    # a _-prefixed name belongs to its module: a second module that needs
    # it needs the fact moved behind its owner or a public name.  Dunders
    # such as __version__ are public
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "cuspatlas"
            ):
                found += [
                    f"{path.name}:{node.lineno} {a.name}"
                    for a in node.names
                    if a.name.startswith("_") and not a.name.startswith("__")
                ]
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


def _names_by_function(tree):
    """(innermost enclosing function or None, name, line) for each name
    or attribute a module reads."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                out.append((owner, child.id, child.lineno))
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                out.append((owner, child.attr, child.lineno))
            visit(child, owner)

    visit(tree, None)
    return out


def test_one_function_runs_the_cap_stages():
    # obstruct.run_cap chains search, blow-down and catalog for every
    # command, so no command can run one stage without the others or
    # in another order, and each residual form has one owner, a CapRun
    # property that reads it under cap_faults.  A stage may call itself
    # (catalog_lookup recurses after peeling a line).
    owners = {
        "enumerate_embeddings": "run_cap",
        "blow_down_trace": "run_cap",
        "catalog_lookup": "run_cap",
        "ambient": "ambients",
        "complement_form": "complements",
    }
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for owner, name, line in _names_by_function(tree):
            if name not in owners or owner == name:
                continue
            if (path.stem, owner) != ("obstruct", owners[name]):
                found.append(f"{path.name}:{line} {owner}: {name}")
    assert found == []


# a method that argparse calls; the tests' own oracles live in
# tests/oracles.py, not in src/
ORACLES = {"_Parser.error"}


def test_src_functions_have_src_callers():
    # a helper that only the tests call is library surface nobody runs.
    # Names are matched, not bindings: a method counts as referenced by
    # any attribute load of its name, any other function by a name or
    # attribute load, an import or an __all__ entry, so a method that
    # shares its name with some attribute passes.  Dunders are exempt.
    defined = []
    attrs, names = set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        functions = (ast.FunctionDef, ast.AsyncFunctionDef)
        method_of = {
            fn: cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, functions)
        }
        for node in ast.walk(tree):
            if isinstance(node, functions):
                defined.append((path.name, method_of.get(node), node.name))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names.update(ast.literal_eval(node.value))
    assert defined
    unused = []
    for module, owner, name in defined:
        qualname = f"{owner}.{name}" if owner else name
        if (name.startswith("__") and name.endswith("__")) or qualname in ORACLES:
            continue
        if name not in attrs and (owner or name not in names):
            unused.append(f"{module}:{qualname}")
    assert unused == []
    # an oracle that is gone leaves no stale exemption behind
    assert ORACLES <= {f"{o}.{n}" if o else n for _, o, n in defined}
