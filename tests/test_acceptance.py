"""Acceptance gate: one test per shipped criterion, run with -v for the
one-line pass/fail report.  Expected values are frozen; time limits are
asserted where the criterion states one.
"""

import time
from fractions import Fraction
from math import gcd

from area_lp import area_feasible
from oracles import cf_dual, continuant

from cuspatlas.blowdown import blow_down_trace, catalog_lookup
from cuspatlas.cf import cf_expand, fib
from cuspatlas.cusp import CuspCombo, CuspType, gated_combos, ms_recognize
from cuspatlas.lattice import (
    HClass,
    ambient_form,
    complement_form,
    enumerate_embeddings,
)
from cuspatlas.lens import (
    LensSpace,
    _excess_one,
    bounds,
    fibonacci_boundary,
    wahl_family,
)
from cuspatlas.obstruct import classify_degree, is_simple_cusp
from cuspatlas.plumbing import build_cap, cap_for_combo, family_cap


def cap_graph(kind, p=None):
    return build_cap(family_cap(kind, p))


def combo_cap(degree, *pqs):
    combo = CuspCombo(degree, tuple(CuspType(p, q) for p, q in pqs))
    return build_cap(cap_for_combo(combo))


def sig(record):
    return tuple((c.p, c.q) for c in record.combo.cusps)


def rule_failures(records, rule):
    return {
        sig(r)
        for r in records
        if any(v.rule == rule and v.failed for v in r.verdicts)
    }


def test_c1_degree_five_census():
    start = time.monotonic()
    records = classify_degree(5)
    elapsed = time.monotonic() - start
    assert len(records) == 19
    tally = {}
    for r in records:
        tally[r.final_status] = tally.get(r.final_status, 0) + 1
    assert tally == {"Obstructed": 9, "UniqueInPlane": 8, "UniqueInBlowup(4)": 2}
    assert elapsed < 60.0


def test_c2_degree_four_embeddings_and_forms():
    records = classify_degree(4)
    assert len(records) == 4

    tri = next(r for r in records if sig(r) == ((2, 3), (2, 3), (2, 3)))
    assert len(tri.cap.embeddings) == 3
    fano = [e for e in tri.cap.entries if e.pattern == "fano-plane"]
    assert len(fano) == 2 and all(e.status == "Obstructed" for e in fano)
    survivors = [e for e in tri.cap.entries if e.status != "Obstructed"]
    assert len(survivors) == 1
    assert tri.final_status == "UniqueInPlane"

    embs = enumerate_embeddings(combo_cap(4, (2, 3), (2, 5)))
    assert len(embs) == 3
    forms = set()
    for e in embs:
        if e.k == 0:
            assert complement_form(e).rank == 0
            forms.add("rank0")
        else:
            # rank-2 indefinite unimodular: the parity decides the
            # isomorphism type (hyperbolic when even, diag(1,-1) when odd)
            af = ambient_form(e)
            assert (af.rank, af.det) == (2, -1)
            forms.add(af.parity)
    assert forms == {"rank0", "even", "odd"}


def test_c3_unicuspidal_cap_counts_and_dets():
    expected = [("A_p", p, 1) for p in range(2, 7)]
    expected += [("B_p", 2, 3), ("B_p", 3, 2), ("B_p", 4, 2), ("B_p", 5, 2)]
    expected += [("E3", None, 3), ("E6", None, 6)]
    for kind, p, count in expected:
        start = time.monotonic()
        embs = enumerate_embeddings(cap_graph(kind, p))
        elapsed = time.monotonic() - start
        assert len(embs) == count, (kind, p, len(embs))
        assert elapsed < 10.0, (kind, p, elapsed)
        if kind == "E6":
            dets = sorted(
                complement_form(e).det for e in embs if e.k == 6
            )
            assert dets == [64, 256]


def test_c4_obstruction_gates_exact():
    records = classify_degree(5)
    assert rule_failures(records, "Semigroup") == {((3, 4), (3, 4)), ((3, 7),)}
    assert rule_failures(records, "RiemannHurwitz") == {
        ((2, 3),) * 6,
        ((2, 3),) * 4 + ((2, 5),),
        ((2, 3), (2, 3), (2, 3), (3, 4)),
        ((2, 3), (2, 3), (3, 5)),
    }
    empty = {sig(r) for r in records if r.cap is not None and not r.cap.embeddings}
    assert empty == {((3, 7),), ((3, 4), (3, 4))}


def test_c5_lens_ball_strings_exact():
    start = time.monotonic()
    for m in range(2, 13):
        for k in range(1, m):
            if gcd(m, k) != 1:
                continue
            L = LensSpace(m * m, m * k - 1)
            assert len(_excess_one(bounds(L))) == 1, (m, k)
            assert wahl_family(L) == (m, k)
    non_wahl = 0
    for p in range(2, 61):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            L = LensSpace(p, q)
            if wahl_family(L) is None:
                non_wahl += 1
                assert _excess_one(bounds(L)) == [], (p, q)
    elapsed = time.monotonic() - start
    assert non_wahl > 100
    assert elapsed < 30.0


def test_c6_sextic_simple_combos_obstructed():
    records = classify_degree(6)
    simple = [r for r in records if all(is_simple_cusp(c) for c in r.combo.cusps)]
    assert len(simple) == 80
    for r in simple:
        assert r.combo.total_milnor == 20
        v = next(v for v in r.verdicts if v.rule == "SexticSimple")
        assert v.failed and v.witness == {"total_milnor": 20, "bound": 19}
        assert r.final_status == "Obstructed"


def test_c7_property_suites():
    # expansion round-trip and duality-sum law
    for p in range(2, 201):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            seq = cf_expand(p, q)
            assert Fraction(continuant(seq), continuant(seq[1:])) == Fraction(p, q)
            dual = cf_dual(seq)
            assert continuant(dual) == p
            assert sum(m - 1 for m in seq) == sum(m - 1 for m in dual)
            assert cf_dual(dual) == seq

    # multiplicity sequence round-trip
    for q in range(3, 201):
        for p in range(2, q):
            if gcd(p, q) != 1:
                continue
            cusp = CuspType(p, q)
            assert ms_recognize(cusp.mult_seq()) == cusp

    # image components meet in deg*deg counted with multiplicity
    caps = [cap_graph("A_p", p) for p in range(2, 7)]
    caps += [cap_graph("B_p", p) for p in range(2, 6)]
    caps += [cap_graph("E3"), cap_graph("E6")]
    for degree in (3, 4, 5):
        caps += [
            build_cap(cap_for_combo(combo)) for combo, _ in gated_combos(degree)
        ]
    for g in caps:
        for f in map(blow_down_trace, enumerate_embeddings(g)):
            for u in range(len(f.degrees)):
                for v in range(u + 1, len(f.degrees)):
                    got = sum(
                        p.mults.get(u, 0) * p.mults.get(v, 0) for p in f.points()
                    )
                    assert got == f.degrees[u] * f.degrees[v]

    # the opposed witness pair admits no common positive area
    a = HClass.make(0, {0: 1, 1: -1, 2: -1})
    b = HClass.make(0, {1: 1, 0: -1, 2: -1})
    assert area_feasible([a]) and area_feasible([b])
    assert area_feasible([a, b]) is False

    # enumeration is reproducible run to run
    for g in (cap_graph("E3"), combo_cap(5, (2, 3), (2, 3), (2, 3), (3, 4))):
        one = enumerate_embeddings(g)
        assert enumerate_embeddings(g) == one


def test_c8_fibonacci_family_boundaries():
    for j in range(5, 16, 2):
        assert fib(j) ** 2 == fib(j - 2) * fib(j + 2) - 1
        L = fibonacci_boundary(j)
        assert (L.p, L.q) == (fib(j) ** 2, fib(j - 2) ** 2)
        wahl = wahl_family(L)
        assert wahl is not None
        assert wahl == (fib(j), fib(j - 4))
        assert len(_excess_one(bounds(L))) == 1
