"""Exit codes, report shapes and text output of the atlas binary."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

from cuspatlas import cli, cusp, lattice, obstruct
from cuspatlas.cli import main
from cuspatlas.cusp import gated_combos, semigroup_condition
from cuspatlas.lattice import HClass, enumerate_embeddings
from cuspatlas.obstruct import run_pipeline
from cuspatlas.plumbing import build_cap, cap_for_combo, family_cap


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, _ = run(*argv, "--json")
    return code, json.loads(out)


def test_invariants_from_pair():
    code, out, _ = run("invariants", "2", "7")
    assert code == 0
    assert "[2, 2, 2]" in out and "delta 3" in out and "milnor 6" in out
    code, out, _ = run("invariants", "2", "3")
    assert code == 0 and "delta 1" in out


def test_invariants_lists_at_most_2_20_multiplicities(monkeypatch):
    # mult_seq(2, q) holds q // 2 entries: 2^20 at q = 2^21 + 1 is listed,
    # longer ones are counted, never built, as lens counts its strings
    real = cusp.mult_seq

    def bounded(p, q):
        if q > 2**21 + 1:
            raise RuntimeError(f"mult_seq({p}, {q}) built")
        return real(p, q)

    monkeypatch.setattr(cusp, "mult_seq", bounded)
    code, out, _ = run("invariants", "2", str(2**21 + 1))
    assert code == 0 and out.count("2, ") == 2**20 - 1
    for q, n in ((2**21 + 3, 2**20 + 1), (1000000001, 500000000)):
        code, rep = run_json("invariants", "2", str(q))
        r = rep["results"]
        assert code == 0 and r["mult_seq"] is None
        assert r["mult_seq_note"] == f"listing skipped: {n} entries"
        assert r["delta"] == (q - 1) // 2
        code, out, _ = run("invariants", "2", str(q))
        assert code == 0 and f"multiplicity sequence of {n} entries" in out


def test_invariants_recognizes_sequence():
    code, rep = run_json("invariants", "--seq", "3,3,2")
    assert code == 0
    r = rep["results"]
    assert (r["p"], r["q"], r["status"]) == (3, 8, "Realizable")


def test_invariants_not_realizable_exits_2():
    code, out, _ = run("invariants", "--seq", "3,2,2")
    assert code == 2 and "NotRealizable" in out


def test_invariants_usage_errors():
    assert run("invariants", "2")[0] == 1
    assert run("invariants", "2", "7", "--seq", "2,2")[0] == 1
    assert run("invariants", "--seq", "2,x")[0] == 1


def test_resolve_central_weight_default_and_shift():
    code, rep = run_json("resolve", "2,3+2,5", "--s", "16")
    assert code == 0 and rep["results"]["central_weight"] == 0
    _, rep2 = run_json("resolve", "2,3+2,5")
    assert rep2["results"] == rep["results"]
    _, rep = run_json("resolve", "4,5", "--s", "25")
    assert rep["results"]["central_weight"] == 5
    _, rep = run_json("resolve", "4,5", "--s", "26")
    assert rep["results"]["central_weight"] == 6


def test_cap_and_resolve_report_the_lattice_determinant():
    # (-1)^(n-1) * s: A200 has 402 vertices on its degree-201 curve
    code, rep = run_json("cap", "A", "200")
    assert code == 0 and rep["results"]["graph"]["det"] == -(201**2)
    code, out, _ = run("resolve", "2,3+2,5", "--s", "16")
    assert code == 0 and "8 curves, central weight 0, det -16" in out


def test_resolve_mode_count_checked():
    assert run("resolve", "2,3+2,5", "--modes", "nc")[0] == 1


@pytest.mark.parametrize(
    "mode", ["min+x", "min+", "min+0", "min+-1", "min+1_0", "min+ 1", "min+\u0663"]
)
def test_resolve_rejects_malformed_spare_modes(mode):
    # only ASCII decimal digits, at least 1, follow "min+"
    code, out, err = run("resolve", "2,3", "--modes", mode)
    assert (code, out) == (1, "")
    assert err == f"atlas: error: bad resolution mode {mode!r}\n"


def test_resolve_rejects_a_spare_count_too_long_to_read():
    # more digits than int() converts by default is a malformed mode too
    mode = "min+" + "1" * 5000
    code, out, err = run("resolve", "2,3", "--modes", mode)
    assert (code, out) == (1, "")
    assert err == f"atlas: error: bad resolution mode {mode!r}\n"


def test_resolve_reads_spare_modes_as_decimal():
    _, one = run_json("resolve", "2,3", "--modes", "min+1")
    code, padded = run_json("resolve", "2,3", "--modes", "min+01")
    assert code == 0 and padded["results"] == one["results"]


@pytest.mark.parametrize(
    "argv, count",
    [
        (("cap", "B", "99999999999999999999"), 2 * 10**20),
        (("embed", "B", "99999999999999999999"), 2 * 10**20),
        (("unicuspidal", "--family", "B99999999999999999999"), 2 * 10**20),
        (("blowdown", "A", "99999999999"), 2 * 10**11 - 1),
        (("resolve", "2,3", "--modes", "min+999999999"), 10**9),
    ],
)
def test_oversized_resolutions_end_at_once(argv, count):
    # the blow-ups are counted from the cusp data and the modes, and a
    # count past 2^16 is a usage error, before the cap stages run
    code, out, err = run(*argv)
    assert (code, out) == (1, "")
    assert err.startswith("atlas: error: modes ['min+")
    assert err.endswith(f"in up to {count} blow-ups, more than the bound 65536\n")


def test_the_largest_ci_builds_stay_within_the_blowup_bound():
    for argv in (("cap", "A", "3000"), ("resolve", "3000,3001", "--modes", "min+6000")):
        code, out, err = run(*argv)
        assert (code, err) == (0, "") and "6002 curves" in out


def test_resolve_rejects_impossible_genus():
    code, _, err = run("resolve", "2,5")
    assert code == 1 and "genus" in err


def test_cap_dot_output():
    code, out, _ = run("cap", "A", "3", "--dot")
    assert code == 0
    assert out.startswith("graph plumbing {")
    assert 'label="C (+1)"' in out


def test_cap_accepts_combo_spec():
    code, rep = run_json("cap", "2,3+2,3+2,3")
    assert code == 0
    graph = rep["results"]["graph"]
    assert graph["eulers"][graph["root"]] == 1


@pytest.mark.parametrize(
    "spec, combo",
    [
        (("A", "3"), "3,4"),
        (("B", "2"), "2,7"),
        (("E6",), "6,43"),
        (("2,3+2,5",), "2,3+2,5"),
        (("3,4+3,4",), "3,4+3,4"),
    ],
)
def test_cap_modes_rebuild_the_cap_through_resolve(spec, combo):
    _, cap = run_json("cap", *spec)  # exit 2 for (3,4)+(3,4): a gate fails
    modes = cap["results"]["cap"]["modes"]
    code, res = run_json("resolve", combo, "--modes", ",".join(modes))
    assert code == 0
    assert res["inputs"]["combo"] == cap["results"]["cap"]["combo"]
    assert res["results"]["central_weight"] == 1
    assert res["results"]["graph"] == cap["results"]["graph"]


def test_embed_counts_and_dets():
    code, rep = run_json("embed", "B", "2")
    assert code == 0 and rep["results"]["count"] == 3
    code, rep = run_json("embed", "E6")
    assert rep["results"]["count"] == 6
    dets = [
        e["complement"]["det"]
        for e in rep["results"]["embeddings"]
        if e["ambient"] == "CP2#6"
    ]
    assert sorted(dets) == [64, 256]


def test_embedding_counts_read_in_the_singular_for_one():
    for cmd in ("embed", "blowdown"):
        assert run(cmd, "A", "2")[1].startswith("cap A_p: 1 embedding\n")
        assert run(cmd, "B", "2")[1].startswith("cap B_p: 3 embeddings\n")
        assert run(cmd, "3,7")[1].startswith("cap QuinticMin: 0 embeddings\n")


def test_embed_without_solutions_exits_2():
    code, rep = run_json("embed", "3,7")
    assert code == 2 and rep["results"]["count"] == 0


def test_blowdown_tricuspidal_quartic():
    code, rep = run_json("blowdown", "2,3+2,3+2,3")
    assert code == 0
    statuses = [e["catalog"]["status"] for e in rep["results"]["entries"]]
    assert sorted(statuses) == ["Obstructed", "Obstructed", "UniqueIsotopy"]
    assert "catalog:fano-plane" in rep["provenance"]


def test_blowdown_dead_cap_exits_2():
    assert run("blowdown", "3,7")[0] == 2


def test_blowdown_exit_status_is_the_pipeline_verdict():
    # atlas blowdown and run_pipeline read one verdict on a cap's fate
    codes = Counter()
    for degree in (3, 4, 5):
        for combo, _ in gated_combos(degree):
            if cap_for_combo(combo) is None:
                continue
            spec = "+".join(f"{c.p},{c.q}" for c in combo.cusps)
            record = run_pipeline(combo, semigroup_condition(combo))
            code, rep = run_json("blowdown", spec)
            assert code == (2 if any(v.failed for v in record.verdicts) else 0), spec
            codes[code] += 1
            # and the same blown-down images and classes as the record's
            want = record.to_dict()
            images = [
                {key: e[key] for key in ("summary", "image", "catalog")}
                for e in rep["results"]["entries"]
            ]
            assert images == want["fingerprints"], spec
            _, rep = run_json("embed", spec)
            classes = [e["classes"] for e in rep["results"]["embeddings"]]
            assert classes == [e["classes"] for e in want["embeddings"]], spec
    assert codes == {0: 15, 2: 9}  # the nine Obstructed quintics


def test_classify_tallies_and_exit_codes():
    code, rep = run_json("classify", "--degree", "5")
    assert code == 2
    assert rep["results"]["tally"] == {
        "Obstructed": 9,
        "UniqueInBlowup(4)": 2,
        "UniqueInPlane": 8,
    }
    code, rep = run_json("classify", "--degree", "4")
    assert code == 0 and rep["results"]["tally"] == {"UniqueInPlane": 4}


DEGREE_5_TEXT = """\
(2,3)+(2,3)+(2,3)+(2,3)+(2,3)+(2,3) deg 5: Obstructed
(2,3)+(2,3)+(2,3)+(2,3)+(2,5) deg 5: Obstructed
(2,3)+(2,3)+(2,3)+(2,7) deg 5: UniqueInPlane
(2,3)+(2,3)+(2,3)+(3,4) deg 5: Obstructed
(2,3)+(2,3)+(2,5)+(2,5) deg 5: Obstructed
(2,3)+(2,3)+(2,9) deg 5: Obstructed
(2,3)+(2,3)+(3,5) deg 5: Obstructed
(2,3)+(2,5)+(2,7) deg 5: Obstructed
(2,3)+(2,5)+(3,4) deg 5: UniqueInPlane
(2,3)+(2,11) deg 5: UniqueInBlowup(4)
(2,5)+(2,5)+(2,5) deg 5: UniqueInPlane
(2,5)+(2,9) deg 5: UniqueInPlane
(2,5)+(3,5) deg 5: UniqueInPlane
(2,7)+(2,7) deg 5: UniqueInBlowup(4)
(2,7)+(3,4) deg 5: UniqueInPlane
(2,13) deg 5: UniqueInPlane
(3,4)+(3,4) deg 5: Obstructed
(3,7) deg 5: Obstructed
(4,5) deg 5: UniqueInPlane
degree 5: 19 combinations (9 Obstructed, 2 UniqueInBlowup(4), 8 UniqueInPlane)
"""


def test_classify_text_builds_no_record_dict(monkeypatch):
    def refused(record):
        raise AssertionError("text mode built a record dict")

    monkeypatch.setattr(obstruct.ClassificationRecord, "to_dict", refused)
    assert run("classify", "--degree", "5") == (2, DEGREE_5_TEXT, "")


def test_classify_json_builds_each_record_dict_once(monkeypatch):
    real = obstruct.ClassificationRecord.to_dict
    built = Counter()

    def counted(record):
        built[str(record.combo)] += 1
        return real(record)

    monkeypatch.setattr(obstruct.ClassificationRecord, "to_dict", counted)
    code, rep = run_json("classify", "--degree", "5")
    assert code == 2
    combos = [r["combo"] for r in rep["results"]["records"]]
    assert len(combos) == rep["results"]["count"] == 19
    assert built == Counter(combos) and set(built.values()) == {1}


def test_classify_checks_each_residual_form_in_both_modes(monkeypatch):
    # the complements are computed, and so checked, whether or not the
    # records are written out
    def broken(emb):
        raise ValueError("no residual form")

    monkeypatch.setattr(obstruct, "complement_form", broken)
    for argv in (("classify", "--degree", "4"), ("classify", "--degree", "4", "--json")):
        code, out, err = run(*argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("atlas: internal error: cap ") and "no residual form" in err


def test_classify_json_holds_one_record_at_a_time():
    # the degree-7 report is 0.8 MB of text; holding every record's dict
    # and every piece of the text at once peaked at 4.8 MB
    run("classify", "--degree", "7", "--json")
    tracemalloc.start()
    try:
        code = run("classify", "--degree", "7", "--json")[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak <= 2.5e6, peak


def test_classify_rejects_small_degrees_before_enumerating():
    # a negative degree has the genus of a large positive one
    code, out, err = run("classify", "--degree", "-9")
    assert code == 1 and out == ""
    assert err == "atlas: error: degree >= 3, got -9\n"


def test_combo_specs_go_through_the_arithmetic_gates():
    spec = "2,3+2,3+2,3+2,3+2,3+2,3"
    for command in ("cap", "embed", "blowdown"):
        code, rep = run_json(command, spec)
        assert code == 2
        failed = rep["results"]["failed_rules"]
        assert [f["rule"] for f in failed] == ["RiemannHurwitz"]
        assert failed[0]["witness"] == {"base": 0, "lhs": 6, "rhs": 7}
    code, out, _ = run("embed", spec)
    assert code == 2 and "RiemannHurwitz fails" in out
    code, rep = run_json("embed", "2,3+2,3+2,3")
    assert code == 0 and rep["results"]["failed_rules"] == []
    code, rep = run_json("embed", "E3")
    assert code == 0 and "failed_rules" not in rep["results"]


def test_lens_report():
    code, rep = run_json("lens", "25", "4")
    assert code == 0
    assert rep["results"]["wahl"] == [5, 1]
    assert rep["results"]["rational_ball"] == [2, 2, 2, 2, 1, 5]
    assert run("lens", "4", "2")[0] == 1


def test_unicuspidal_degree_five():
    code, rep = run_json("unicuspidal", "--degree", "5")
    assert code == 0
    by_cusp = {tuple(e["cusp"]): e for e in rep["results"]["families"]}
    assert by_cusp[(4, 5)]["family"] == "A4"
    assert by_cusp[(4, 5)]["count"] == 1
    fib5 = by_cusp[(2, 13)]["fibonacci"]
    assert fib5["j"] == 5
    assert fib5["boundary"] == "L(25,4)"
    assert fib5["wahl"] == [5, 1]


def test_unicuspidal_family_b3_blowdown_note():
    code, rep = run_json("unicuspidal", "--family", "B_3")
    assert code == 0
    (entry,) = rep["results"]["families"]
    assert entry["count"] == 2
    assert "even" in entry["complement_parities"]
    note = entry["rational_blowdown"]
    assert note["square"] == -4 and note["k"] == 1


def full_sphere_scan(emb):
    # every quadruple of exceptional indices in every filling, k = 0 too
    for quad in combinations(range(emb.n_used), 4):
        for pos in quad:
            cls = HClass.make(0, {i: 1 if i == pos else -1 for i in quad})
            if all(cls.pairing(c) == 0 for c in emb.classes):
                return cls
    return None


@pytest.mark.parametrize(
    "family, kind, p",
    [(f"B{p}", "B_p", p) for p in range(2, 13)]
    + [("E3", "E3", None), ("E6", "E6", None)],
)
def test_rational_blowdown_is_the_full_scans_first_hit(family, kind, p):
    # unicuspidal skips the fillings whose complement has rank 0
    want = None
    for e in enumerate_embeddings(build_cap(family_cap(kind, p))):
        cls = full_sphere_scan(e)
        if cls is not None:
            want = {"k": e.k, "class": str(cls), "square": cls.square}
            break
    _, rep = run_json("unicuspidal", "--family", family)
    (entry,) = rep["results"]["families"]
    assert entry.get("rational_blowdown") == want
    assert (want is None) == (kind != "B_p")


def test_unicuspidal_no_recipe_still_reports():
    code, rep = run_json("unicuspidal", "--degree", "13")
    assert code == 0
    by_cusp = {tuple(e["cusp"]): e for e in rep["results"]["families"]}
    assert by_cusp[(5, 34)]["family"] is None
    assert by_cusp[(5, 34)]["fibonacci"]["boundary"] == "L(169,25)"


def test_unicuspidal_usage():
    assert run("unicuspidal")[0] == 1
    assert run("unicuspidal", "--degree", "5", "--family", "E3")[0] == 1
    assert run("unicuspidal", "--family", "Z9")[0] == 1


@pytest.mark.parametrize("degree", ["2", "0", "-5"])
def test_unicuspidal_degree_below_three_is_a_usage_error(degree):
    assert run("unicuspidal", "--degree", degree) == (
        1, "", f"atlas: error: degree >= 3, got {degree}\n"
    )


def test_usage_errors_exit_1():
    assert run()[0] == 1
    assert run("cap", "Z", "1")[0] == 1
    assert run("cap", "A")[0] == 1
    assert run("resolve", "2,4")[0] == 1
    assert run("embed", "2,3", "extra")[0] == 1
    # argparse's own errors keep the contract: exit 1, nothing on stdout
    for argv in (
        ["classify"],
        ["classify", "--degree", "x"],
        ["lens", "5"],
        ["nosuch"],
        ["lens", "25", "4", "--bogus"],
    ):
        code, out, err = run(*argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("atlas: error: "), argv


def test_internal_error_exits_3(monkeypatch):
    def broken(degree):
        raise RuntimeError("an engine invariant failed")

    monkeypatch.setattr(obstruct, "classify_degree", broken)
    code, out, err = run("classify", "--degree", "4")
    assert code == 3
    assert out == ""
    assert err == "atlas: internal error: an engine invariant failed\n"


def test_any_exception_after_parsing_exits_3(monkeypatch):
    # an exception of a type the engine does not raise on purpose is still
    # an internal error: exit 3, empty stdout and the exception's type
    def broken(emb):
        raise KeyError("x")

    monkeypatch.setattr(obstruct, "blow_down_trace", broken)
    code, out, err = run("blowdown", "A", "3")
    assert (code, out) == (3, "")
    assert err == "atlas: internal error: KeyError: 'x'\n"


def test_a_stage_failing_its_own_check_exits_3(monkeypatch):
    # a leaf or an image that refuses itself is the engine's fault, not
    # the caller's: exit 3 with the cap named, not the usage error's 1
    real_classes, real_trace = lattice._canonical_classes, obstruct.blow_down_trace

    def swapped(*args):
        classes = list(real_classes(*args))
        classes[1], classes[2] = classes[2], classes[1]
        return tuple(classes)

    def bumped(emb):
        image = real_trace(emb)
        return replace(image, degrees=(image.degrees[0] + 1, *image.degrees[1:]))

    for module, name, fault, argv, why in (
        (lattice, "_canonical_classes", swapped, ("embed", "A", "3"), "adjunction"),
        (obstruct, "blow_down_trace", bumped, ("blowdown", "A", "3"), "meet"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, fault)
            code, out, err = run(*argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("atlas: internal error: cap A_p for "), argv
        assert why in err, argv


@pytest.mark.parametrize(
    "argv",
    [
        ("embed", "B", "2"),
        ("blowdown", "B", "2", "--json"),
        ("classify", "--degree", "5"),
        ("unicuspidal", "--degree", "5"),
    ],
)
def test_a_cap_with_no_residual_form_exits_3(monkeypatch, argv):
    # a cap's Gram matrix has det +-d^2, so its classes are independent
    # and a kernel short of vectors is the engine's fault: exit 3 with
    # the cap named, not the usage error's 1
    monkeypatch.setattr(lattice, "int_kernel_basis", lambda rows, n: [])
    code, out, err = run(*argv)
    assert (code, out) == (3, "")
    assert err.startswith("atlas: internal error: cap ")
    assert "rationally dependent" in err


def _python(*args):
    """(exit status, stdout, stderr) of a fresh interpreter run on args."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_docstrings_stripped_by_python_OO_leave_the_commands_working():
    # each command loads only its own stages, so lens alone would not
    # load the cap engine under -OO
    for argv in (("lens", "25", "4"), ("blowdown", "A", "3"), ("classify", "--degree", "4")):
        code, out, err = _python("-OO", "-m", "cuspatlas.cli", *argv, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["command"] == argv[0]


# a usage error first, so that the parser is reused after it has failed
REPEATED = [
    ("blowdown", "A", "1"),
    ("resolve", "2,3", "--dot"),
    ("cap", "A", "3", "--json"),
    ("lens", "25", "4", "--json"),
]


def test_one_parser_serves_repeated_calls(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    got = [run(*argv) for argv in REPEATED]
    assert built == []
    fresh = [_python("-m", "cuspatlas.cli", *argv) for argv in REPEATED]
    assert [out[:2] for out in got] == [out[:2] for out in fresh]
    assert [code for code, _, _ in got] == [1, 0, 0, 0]


BUILDS_PER_IMPORT = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
from cuspatlas import blowdown, cli, lattice, obstruct
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(list(argv))
print(built.count("atlas"))
"""


def test_the_parser_is_built_once_per_import():
    script = BUILDS_PER_IMPORT.format(argvs=REPEATED)
    assert _python("-c", script) == (0, "1\n", "")


def test_closed_stdout_keeps_the_exit_status_and_a_clean_stderr():
    # the reading end is closed before the report is written, so every
    # write meets a broken pipe
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cuspatlas.cli", "embed", "3,7", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ("invariants", "6", "43"),
        ("resolve", "2,5+3,5"),
        ("cap", "E3"),
        ("embed", "A", "5"),
        ("blowdown", "B", "2"),
        ("classify", "--degree", "4"),
        ("lens", "9", "5"),
        ("unicuspidal", "--family", "B4"),
    ],
)
def test_reports_round_trip_json(argv):
    _, rep = run_json(*argv)
    assert json.loads(json.dumps(rep)) == rep
    assert rep["command"] == argv[0]
    assert set(rep) == {"command", "inputs", "results", "provenance", "version"}
