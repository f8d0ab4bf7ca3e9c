"""The --json writer: the exact text of json.dumps(report, indent=2)."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspatlas import cli
from cuspatlas.cli import _json_text, main

TEXT = st.text() | st.sampled_from(
    ["", '"', "\\", "\n\t\r\x00\x1f\x7f", "é ü", " ", "\U0001f600", 'a"b\\c']
)
INTS = st.integers() | st.sampled_from([0, -1, 2**64, -(10**40), 7**90])
LEAVES = st.none() | st.booleans() | INTS | TEXT | st.lists(INTS) | st.lists(INTS).map(tuple)
TREES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(TEXT, kids, max_size=4),
    max_leaves=40,
)


@given(TREES)
@settings(max_examples=400, deadline=None)
@example([])
@example({})
@example({"a": [], "b": {}, "c": [[], {}, ()], "d": {"e": {"f": []}}})
@example([1, True, 2])
@example((3, -4, 10**30))
@example({"strings": [{"string": [2, 1, 2], "excess": 1}], "wahl": None})
@example({"é": "\x00", "": [False, None, "\\"]})
def test_writer_matches_json_dumps(tree):
    assert _json_text(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize(
    "value",
    [1.5, {"x": 0.0}, [1, 2, 3.0], {1, 2}, {"a": frozenset()}, {1: "a"}, {(1, 2): 0}, b"x"],
)
def test_non_json_values_are_internal_errors(value):
    with pytest.raises(RuntimeError):
        _json_text(value)


def test_the_error_names_the_type():
    with pytest.raises(RuntimeError, match="float"):
        _json_text({"results": [1, 2.5]})
    with pytest.raises(RuntimeError, match="set"):
        _json_text({"results": {3}})
    with pytest.raises(RuntimeError, match="int"):
        _json_text({"results": {4: "x"}})


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ("invariants", "2", "7"),
        ("invariants", "--seq", "3,2,2"),
        ("resolve", "2,3+2,5", "--dot"),
        ("cap", "E6"),
        ("cap", "2,3+2,5"),
        ("embed", "E3"),
        ("blowdown", "2,3+2,5"),
        ("classify", "--degree", "5"),
        ("lens", "25", "4"),
        ("lens", "341", "274"),
        ("unicuspidal", "--degree", "5"),
        ("unicuspidal", "--family", "B3"),
    ],
)
def test_every_subcommand_prints_the_indent_2_text(argv):
    code, out, err = run(*argv, "--json")
    assert code in (0, 2) and err == ""
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert out.isascii()


def test_a_float_in_a_report_exits_3(monkeypatch):
    def cmd_lens(args):
        return cli._report("lens", {}, {"ratio": 0.5}), ["text"], None, 0

    monkeypatch.setattr(cli, "cmd_lens", cmd_lens)
    code, out, err = run("lens", "7", "3", "--json")
    assert (code, out) == (3, "")
    assert err.startswith("atlas: internal error:") and "float" in err
    # the text output does not go through the writer
    assert run("lens", "7", "3")[0] == 0
