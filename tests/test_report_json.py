"""The --json writer: the exact text of json.dumps(report, indent=2)."""

import contextlib
import io
import json
from functools import partial

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


class Lazy(list):
    """A list that `built` turns into a map object: a lazy list."""


def built(tree, lazy: bool):
    """tree with each Lazy made a map object if lazy, else a plain list."""
    if type(tree) is Lazy:
        items = map(partial(built, lazy=lazy), tree)
        return items if lazy else list(items)
    if type(tree) in (list, tuple):
        return type(tree)(built(x, lazy) for x in tree)
    if type(tree) is dict:
        return {k: built(v, lazy) for k, v in tree.items()}
    return tree


LAZY_TREES = st.recursive(
    LEAVES | st.lists(INTS).map(Lazy),
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(Lazy)
    | st.dictionaries(TEXT, kids, max_size=4),
    max_leaves=40,
)


@given(LAZY_TREES)
@settings(max_examples=400, deadline=None)
@example(Lazy())
@example(Lazy([Lazy(), Lazy([1, 2]), [Lazy([{}])]]))
@example({"count": 2, "records": Lazy([{"a": [1]}, {"b": Lazy()}]), "tail": Lazy([None])})
@example([Lazy([3, True]), (Lazy(),), {"": Lazy(["x"])}])
def test_lazy_lists_are_written_as_their_lists(tree):
    assert _json_text(built(tree, lazy=True)) == json.dumps(built(tree, lazy=False), indent=2)


def test_a_non_json_value_in_a_lazy_item_names_its_type():
    with pytest.raises(RuntimeError, match="float"):
        _json_text({"records": map(dict, [{"a": 1}, {"x": [0.5]}])})
    with pytest.raises(RuntimeError, match="set"):
        _json_text(map(list, [[1], [{2}]]))


def test_a_lazy_list_is_drawn_once():
    drawn = []

    def item(i):
        drawn.append(i)
        return {"i": i}

    records = map(item, range(3))
    assert _json_text({"records": records}) == json.dumps(
        {"records": [{"i": 0}, {"i": 1}, {"i": 2}]}, indent=2
    )
    assert drawn == [0, 1, 2]
    assert next(records, None) is None


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
