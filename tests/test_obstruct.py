"""Verdict rules and the end-to-end classification pipeline."""

import json
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuspatlas.blowdown import OBSTRUCTED, UNIQUE, UNKNOWN
from cuspatlas.cusp import CuspCombo, CuspType, gated_combos, semigroup_condition
from cuspatlas.obstruct import (
    _final_status,
    classify_degree,
    is_simple_cusp,
    rh_instances,
    riemann_hurwitz_verdict,
    run_cap,
    run_pipeline,
    semigroup_verdict,
    sextic_simple_verdict,
)
from cuspatlas.plumbing import family_cap


def combo(degree, *pqs):
    return CuspCombo(degree, tuple(CuspType(p, q) for p, q in pqs))


def pipeline(c):
    """run_pipeline on the combo's own semigroup gate, as the single-combo
    commands run it."""
    return run_pipeline(c, semigroup_condition(c))


def sig(rec):
    return tuple((c.p, c.q) for c in rec.combo.cusps)


def failed(rec, rule):
    return any(v.rule == rule and v.failed for v in rec.verdicts)


@pytest.fixture(scope="module")
def quintic():
    return classify_degree(5)


# ------------------------------------------------------ single rules


def test_semigroup_witness_names_the_argument():
    c = combo(5, (3, 7))
    v = semigroup_verdict(c, semigroup_condition(c))
    assert v.failed
    assert v.witness == {"j": 1, "argument": 6, "value": 2, "required": 3}
    c = combo(5, (4, 5))
    assert semigroup_verdict(c, semigroup_condition(c)).outcome == "Pass"


def test_riemann_hurwitz_witnesses():
    v = riemann_hurwitz_verdict(combo(5, *([(2, 3)] * 6)))
    assert v.failed
    assert v.witness == {"base": 0, "lhs": 6, "rhs": 7}
    w = riemann_hurwitz_verdict(combo(5, (2, 3), (2, 3), (3, 5)))
    assert w.failed
    assert w.witness == {"base": 2, "lhs": 4, "rhs": 5}
    assert riemann_hurwitz_verdict(combo(5, (2, 5), (2, 5), (2, 5))).outcome == "Pass"


MULT_SEQS = st.lists(
    st.integers(min_value=1, max_value=9), min_size=1, max_size=4
).map(lambda xs: sorted(xs, reverse=True))


@given(
    st.integers(min_value=3, max_value=9),
    st.lists(MULT_SEQS, min_size=1, max_size=4),
    MULT_SEQS,
)
def test_rh_bounds_monotone_under_extra_cusps(degree, seqs, extra):
    # a new cusp only raises the required branching on every old base,
    # so a Fail can never become a Pass
    before = rh_instances(degree, seqs)
    after = rh_instances(degree, seqs + [extra])
    for (b0, lhs0, rhs0), (b1, lhs1, rhs1) in zip(before, after):
        assert (b0, lhs0) == (b1, lhs1)
        assert rhs1 >= rhs0


def rh_instances_oracle(degree, mult_seqs):
    """The inequalities summed over the other cusps afresh for each base."""
    firsts = [ms[0] for ms in mult_seqs]
    out = [("off-curve", 2 * degree - 2, sum(m - 1 for m in firsts))]
    for i, ms in enumerate(mult_seqs):
        second = ms[1] if len(ms) > 1 else 1
        rhs = 2 + sum(m - 1 for j, m in enumerate(firsts) if j != i) + (second - 1)
        out.append((i, 2 * degree - 2 * ms[0], rhs))
    return out


@given(st.integers(min_value=3, max_value=9), st.lists(MULT_SEQS, min_size=1, max_size=8))
def test_rh_instances_match_the_per_cusp_sums(degree, seqs):
    assert rh_instances(degree, seqs) == rh_instances_oracle(degree, seqs)


def test_rh_instances_match_the_per_cusp_sums_through_degree_7():
    for d in range(3, 8):
        for c, _ in gated_combos(d):
            seqs = [x.mult_seq() for x in c.cusps]
            assert rh_instances(d, seqs) == rh_instances_oracle(d, seqs), c


def test_sextic_rule_gates_exactly_the_simple_combos():
    combos = [c for c, _ in gated_combos(6)]
    assert len(combos) == 102
    fails = 0
    for c in combos:
        v = sextic_simple_verdict(c)
        assert v.failed == all(is_simple_cusp(x) for x in c.cusps)
        if v.failed:
            fails += 1
            assert c.total_milnor == 20
            assert v.witness == {"total_milnor": 20, "bound": 19}
        else:
            assert "inapplicable" in v.details
    assert fails == 80


def test_sextic_rule_example_splitting():
    v = sextic_simple_verdict(combo(6, (3, 5), *([(2, 3)] * 6)))
    assert v.failed and v.witness["total_milnor"] == 20
    assert sextic_simple_verdict(combo(5, (2, 13))).details == "inapplicable: degree != 6"


# ------------------------------------------------------ the pipeline

QUINTIC_STATUS = {
    ((2, 3),) * 6: "Obstructed",
    ((2, 3),) * 4 + ((2, 5),): "Obstructed",
    ((2, 3),) * 3 + ((2, 7),): "UniqueInPlane",
    ((2, 3),) * 3 + ((3, 4),): "Obstructed",
    ((2, 3), (2, 3), (2, 5), (2, 5)): "Obstructed",
    ((2, 3), (2, 3), (2, 9)): "Obstructed",
    ((2, 3), (2, 3), (3, 5)): "Obstructed",
    ((2, 3), (2, 5), (2, 7)): "Obstructed",
    ((2, 3), (2, 5), (3, 4)): "UniqueInPlane",
    ((2, 3), (2, 11)): "UniqueInBlowup(4)",
    ((2, 5), (2, 5), (2, 5)): "UniqueInPlane",
    ((2, 5), (2, 9)): "UniqueInPlane",
    ((2, 5), (3, 5)): "UniqueInPlane",
    ((2, 7), (2, 7)): "UniqueInBlowup(4)",
    ((2, 7), (3, 4)): "UniqueInPlane",
    ((2, 13),): "UniqueInPlane",
    ((3, 4), (3, 4)): "Obstructed",
    ((3, 7),): "Obstructed",
    ((4, 5),): "UniqueInPlane",
}


def test_quintic_statuses(quintic):
    assert {sig(r): r.final_status for r in quintic} == QUINTIC_STATUS
    counts = Counter(r.final_status for r in quintic)
    assert counts == {
        "Obstructed": 9,
        "UniqueInPlane": 8,
        "UniqueInBlowup(4)": 2,
    }


def test_semigroup_gate_bites_twice(quintic):
    assert {sig(r) for r in quintic if failed(r, "Semigroup")} == {
        ((3, 4), (3, 4)),
        ((3, 7),),
    }


def test_riemann_hurwitz_gate_bites_four_times(quintic):
    assert {sig(r) for r in quintic if failed(r, "RiemannHurwitz")} == {
        ((2, 3),) * 6,
        ((2, 3),) * 4 + ((2, 5),),
        ((2, 3),) * 3 + ((3, 4),),
        ((2, 3), (2, 3), (3, 5)),
    }


def test_no_embedding_gate_bites_twice(quintic):
    assert {sig(r) for r in quintic if failed(r, "NoAdjunctiveEmbedding")} == {
        ((3, 4), (3, 4)),
        ((3, 7),),
    }


def test_a_cap_is_dead_exactly_when_no_embedding_is_viable():
    # the final status reads a dead cap off its failed verdict alone
    cap_rules = ["NoAdjunctiveEmbedding", "BlowdownCatalog"]
    dead_caps = 0
    for degree in (3, 4, 5, 6):
        for rec in classify_degree(degree):
            if rec.cap is None:
                continue
            viable = any(ent.status != OBSTRUCTED for ent in rec.cap.entries)
            dead = any(failed(rec, rule) for rule in cap_rules)
            assert dead == (not viable), rec.combo
            rules = [v.rule for v in rec.verdicts[3:]]
            assert rules == cap_rules[: 1 + bool(rec.cap.entries)]
            dead_caps += dead
    assert dead_caps > 0


def test_rules_keep_running_after_a_failure(quintic):
    (rec,) = [r for r in quintic if sig(r) == ((2, 3),) * 3 + ((3, 4),)]
    assert [(v.rule, v.outcome) for v in rec.verdicts] == [
        ("Semigroup", "Pass"),
        ("RiemannHurwitz", "Fail"),
        ("SexticSimple", "Pass"),
        ("NoAdjunctiveEmbedding", "Pass"),
        ("BlowdownCatalog", "Fail"),
    ]


def test_blowup_only_records_have_no_plane_embedding(quintic):
    for key in (((2, 3), (2, 11)), ((2, 7), (2, 7))):
        (rec,) = [r for r in quintic if sig(r) == key]
        d = rec.to_dict()
        assert d["ambients"] == ["CP2", "CP2#4"]
        plane_entry = rec.cap.entries[0]
        assert plane_entry.status == "Obstructed"


def test_quartic_statuses():
    recs = classify_degree(4)
    assert [r.final_status for r in recs] == ["UniqueInPlane"] * 4
    tri = recs[0]
    assert sig(tri) == ((2, 3), (2, 3), (2, 3))
    assert len(tri.cap.embeddings) == 3
    assert [e.pattern for e in tri.cap.entries] == [
        "line-arrangement",
        "fano-plane",
        "fano-plane",
    ]


def test_cubic_status():
    (rec,) = classify_degree(3)
    assert rec.final_status == "UniqueInPlane"


def test_degree_six_torus_cusps_classify():
    assert pipeline(combo(6, (5, 6))).final_status == "UniqueInPlane"
    rec = pipeline(combo(6, (3, 11)))
    assert rec.final_status == "UniqueInPlane"
    assert rec.to_dict()["ambients"] == ["CP2", "S2xS2"]


def test_an_unmatched_plane_image_leaves_the_status_unknown():
    # E6's one k = 0 image matches no catalog pattern, so the plane is
    # unsettled although every gate passes
    rec = pipeline(combo(16, (6, 43)))
    assert not any(v.failed for v in rec.verdicts)
    plane = [ent for e, ent in zip(rec.cap.embeddings, rec.cap.entries) if e.k == 0]
    assert [(ent.status, ent.pattern) for ent in plane] == [(UNKNOWN, "unmatched")]
    assert rec.final_status == "Unknown"


def test_two_unique_images_at_the_least_k_leave_the_status_unknown():
    cap = run_cap(family_cap("B_p", 2))
    assert [e.k for e in cap.embeddings] == [0, 1, 1]
    assert _final_status(cap.verdicts, cap) == "UniqueInPlane"
    # without its plane embedding the cap has two unique images at k = 1,
    # and two isotopy classes there are not a unique one
    kept = [i for i, e in enumerate(cap.embeddings) if e.k]
    blowups = replace(
        cap,
        embeddings=[cap.embeddings[i] for i in kept],
        ambients=[cap.ambients[i] for i in kept],
        fingerprints=[cap.fingerprints[i] for i in kept],
        entries=[cap.entries[i] for i in kept],
    )
    assert [ent.status for ent in blowups.entries] == [UNIQUE, UNIQUE]
    assert _final_status(cap.verdicts, blowups) == "Unknown"


def test_no_recipe_reported_not_fatal():
    rec = pipeline(combo(6, (4, 7), (2, 3)))
    assert rec.cap is None
    d = rec.to_dict()
    assert d["cap_error"] == "no stock cap recipe for this combination"
    assert d["embeddings"] == []


def test_record_is_json_and_deterministic(quintic):
    for rec in quintic:
        d = rec.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert {"combo", "verdicts", "embeddings", "ambients", "fingerprints",
                "final_status"} <= set(d)
    a = pipeline(combo(5, (2, 5), (2, 9))).to_dict()
    b = pipeline(combo(5, (2, 5), (2, 9))).to_dict()
    assert a == b


def test_a_repeated_census_gives_the_same_records():
    # the gate's gap tables live with each call's combos, so a second
    # call in the same process builds them again and must agree with the
    # first, and both with combos gated one at a time
    first = [r.to_dict() for r in classify_degree(6)]
    assert [r.to_dict() for r in classify_degree(6)] == first
    assert [pipeline(c).to_dict() for c, _ in gated_combos(6)] == first
