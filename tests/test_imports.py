"""Each command loads only the stage modules it runs.

Every check runs in a fresh interpreter, so that no other test has
loaded a stage before it.  The snippet prints the `cuspatlas` modules
it has loaded, as JSON, on its last line of stdout.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import cuspatlas

SRC = Path(cuspatlas.__file__).parents[1]

PRELUDE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "cuspatlas")

def run(*argv):
    from cuspatlas.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))
"""


def _loaded(snippet: str):
    """The last line of stdout of PRELUDE + snippet, read as JSON."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(snippet)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return json.loads(proc.stdout.splitlines()[-1])


def _stages(*names: str) -> list[str]:
    return sorted(["cuspatlas", *(f"cuspatlas.{n}" for n in names)])


def test_importing_the_package_or_the_cli_loads_no_stage():
    got = _loaded("""
        import cuspatlas
        package = loaded()
        import cuspatlas.cli
        print(json.dumps([package, loaded()]))
    """)
    assert got == [_stages(), _stages("cli")]


def test_lens_loads_only_lens_and_cf():
    got = _loaded("""
        code = run("lens", "25", "4", "--json")
        print(json.dumps([code, loaded()]))
    """)
    assert got == [0, _stages("cli", "lens", "cf")]


def test_invariants_loads_the_cusp_stage_and_nothing_heavier():
    got = _loaded("""
        code = run("invariants", "2", "3")
        print(json.dumps([code, loaded()]))
    """)
    assert got == [0, _stages("cli", "cusp", "cf")]


def test_a_second_cap_command_imports_nothing_new():
    got = _loaded("""
        first = run("blowdown", "A", "3")
        before = loaded()
        second = run("embed", "E6")
        print(json.dumps([first, second, sorted(set(loaded()) - set(before))]))
    """)
    assert got == [0, 0, []]


def test_each_exported_name_is_its_owners_object():
    # resolved lazily in a fresh interpreter; __module__ names the
    # module whose body defined the object
    got = _loaded("""
        import cuspatlas
        wrong = []
        for name in cuspatlas.__all__:
            if name == "__version__":
                continue
            obj = getattr(cuspatlas, name)
            owner = sys.modules.get(obj.__module__)
            if not obj.__module__.startswith("cuspatlas.") or getattr(owner, name) is not obj:
                wrong.append(name)
        print(json.dumps(wrong))
    """)
    assert got == []


def test_the_readme_import_line_runs_and_unknown_names_raise():
    got = _loaded("""
        from cuspatlas import CuspCombo, CuspType, classify_degree, run_pipeline
        import cuspatlas
        import cuspatlas.obstruct
        try:
            cuspatlas.no_such_name
            raised = False
        except AttributeError:
            raised = True
        same = classify_degree is cuspatlas.obstruct.classify_degree
        print(json.dumps([raised, same, CuspType(2, 3).delta, cuspatlas.__version__]))
    """)
    assert got == [True, True, 1, cuspatlas.__version__]
