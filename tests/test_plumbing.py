from argparse import Namespace
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import continuant, nc_resolution

from cuspatlas import cli
from cuspatlas.cf import cf_expand
from cuspatlas.cusp import CuspCombo, CuspType, enumerate_combos
from cuspatlas.linalg import int_det
from cuspatlas.plumbing import (
    CapRecipe,
    PlumbingGraph,
    build_cap,
    cap_for_combo,
    curve_resolution,
    family_cap,
)

cusp_pairs = st.integers(2, 9).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.integers(p + 1, 40).filter(lambda q: gcd(p, q) == 1),
    )
)


def neighbors(g, v):
    """The vertices that share an edge with v, in increasing order."""
    return sorted({b if a == v else a for a, b, _ in g.edges if v in (a, b)})


def star_legs(g, center):
    """Chains hanging off a central vertex, as euler tuples, sorted."""
    legs = []
    for nb in neighbors(g, center):
        chain, prev = [nb], center
        while True:
            nxt = [x for x in neighbors(g, chain[-1]) if x != prev]
            if not nxt:
                break
            assert len(nxt) == 1, "not a star"
            prev, chain = chain[-1], chain + nxt
        legs.append(tuple(g.eulers[v] for v in chain))
    return sorted(legs)


def the_center(g):
    centers = [v for v in range(g.n) if len(neighbors(g, v)) == 3]
    assert len(centers) == 1
    return centers[0]


def chain_graph(weights):
    n = len(weights)
    return PlumbingGraph(
        eulers=tuple(weights),
        labels=tuple(f"E{i + 1}" for i in range(n)),
        edges=tuple((i, i + 1, 1) for i in range(n - 1)),
    )


def test_a2_frozen():
    g = build_cap(family_cap("A_p", 2))
    assert g.n == 6
    assert g.eulers == (1, -3, -2, -2, -2, -1)
    assert g.edges == ((0, 5, 1), (1, 3, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1))
    assert g.corners == ()
    assert g.root == 0


def test_a3_star_shape():
    g = build_cap(family_cap("A_p", 3))
    c = the_center(g)
    assert g.eulers[c] == -2
    assert star_legs(g, c) == [(-4,), (-2, -2), (-2, -2, -1, 1)]


@pytest.mark.parametrize("p", range(2, 7))
def test_ap_family(p):
    g = build_cap(family_cap("A_p", p))
    assert g.n == 2 * p + 2
    assert g.eulers[g.root] == 1
    c = the_center(g)
    assert g.eulers[c] == -2
    assert star_legs(g, c) == sorted(
        [(-(p + 1),), (-2,) * (p - 1), (-2,) * (p - 1) + (-1, 1)]
    )


@pytest.mark.parametrize("p", range(2, 6))
def test_bp_family(p):
    g = build_cap(family_cap("B_p", p))
    assert g.n == 2 * p + 3
    assert g.eulers[g.root] == 1
    c = the_center(g)
    assert g.eulers[c] == -2
    assert star_legs(g, c) == sorted(
        [(-p,), (-2,) * (p - 2) + (-3, -2, -2), (-2,) * (p - 2) + (-1, 1)]
    )


def test_e3_frozen():
    g = build_cap(family_cap("E3"))
    assert g.n == 8
    assert g.eulers == (1, -2, -2, -2, -2, -2, -2, -1)
    # order three contact between the curve and the last exceptional
    assert (0, 7, 3) in g.edges
    assert g.corners == ()


def test_e6_frozen():
    g = build_cap(family_cap("E6"))
    assert g.n == 11
    assert g.eulers == (1, -2, -2, -2, -2, -2, -2, -4, -2, -2, -1)
    assert (0, 7, 3) in g.edges
    assert g.corners == ((0, 7, 10),)
    # the -1 vertex sits on both the curve and the -4 vertex
    assert set(neighbors(g, 10)) == {0, 7, 9}
    assert g.eulers[9] == -2 and g.eulers[8] == -2


def quintic(*cs):
    return CuspCombo(5, tuple(CuspType(p, q) for p, q in cs))


def test_quintic_cap_3525_frozen():
    g = build_cap(cap_for_combo(quintic((2, 5), (3, 5))))
    assert g.eulers == (1, -2, -2, -1, -3, -3, -2, -1)
    assert g.corners == ((0, 2, 3),)
    assert g.edges == (
        (0, 2, 1), (0, 3, 1), (0, 7, 1), (1, 2, 1),
        (2, 3, 1), (4, 6, 1), (5, 7, 1), (6, 7, 1),
    )


def test_quintic_cap_3427_frozen():
    g = build_cap(cap_for_combo(quintic((2, 7), (3, 4))))
    assert g.eulers == (1, -2, -2, -2, -1, -3, -2, -1)
    assert g.corners == ((0, 3, 4), (0, 5, 7))


def test_quintic_cap_tangent_conic_shape():
    g = build_cap(cap_for_combo(quintic((2, 5), (2, 5), (2, 5))))
    assert g.eulers == (1, -2, -1, -2, -1, -2, -1)
    assert g.edges == (
        (0, 2, 2), (0, 4, 2), (0, 6, 2), (1, 2, 1), (3, 4, 1), (5, 6, 1),
    )
    assert g.corners == ()


def test_quintic_cap_32_2_2_frozen():
    g = build_cap(cap_for_combo(quintic((2, 3), (2, 3), (3, 5))))
    assert g.eulers == (1, -2, -1, -2, -1, -3, -2, -1)
    assert g.corners == ((0, 1, 2), (0, 3, 4), (0, 6, 7))


def test_quintic_cap_34_2_2_2_frozen():
    g = build_cap(cap_for_combo(quintic((2, 3), (2, 3), (2, 3), (3, 4))))
    assert g.eulers == (1, -2, -1, -2, -1, -2, -1, -1)
    assert (0, 7, 3) in g.edges
    assert g.corners == ((0, 1, 2), (0, 3, 4), (0, 5, 6))


def test_all_low_degree_caps_close_at_plus_one():
    for d in (3, 4, 5):
        for combo in enumerate_combos(d):
            recipe = cap_for_combo(combo)
            assert recipe is not None
            g = build_cap(recipe)
            assert g.root == 0
            assert g.eulers[0] == 1
            assert len(set(g.labels)) == g.n


@given(cusp_pairs)
@settings(max_examples=60)
def test_nc_star_matches_continued_fractions(pq):
    p, q = pq
    g = nc_resolution(CuspType(p, q))
    center = g.n - 1
    assert g.eulers[center] == -1
    assert g.corners == ()
    assert all(order == 1 for _, _, order in g.edges)
    legs = [tuple(-e for e in leg) for leg in star_legs(g, center)]
    want = sorted(
        [cf_expand(p, p - pow(q, -1, p)), cf_expand(q, q - pow(p, -1, q))]
    )
    assert sorted(legs) == want


@given(cusp_pairs)
@settings(max_examples=60)
def test_chain_determinant_is_continuant(pq):
    p, q = pq
    seq = cf_expand(q, p)
    g = chain_graph([-a for a in seq])
    assert int_det(g.intersection_matrix()) == (-1) ** len(seq) * continuant(seq)
    assert continuant(seq) == q


def test_curve_resolution_tracks_self_intersection():
    for d, cs in ((4, ((2, 3), (2, 5))), (5, ((2, 3), (2, 3), (3, 5)))):
        combo = CuspCombo(d, tuple(CuspType(p, q) for p, q in cs))
        g = curve_resolution(combo, ("min",) * len(cs))
        drop = sum(m * m for c in combo.cusps for m in c.mult_seq())
        assert g.eulers[0] == d * d - drop


def test_dot_output_frozen_and_deterministic():
    g = build_cap(family_cap("A_p", 2))
    again = build_cap(family_cap("A_p", 2))
    assert g.to_dot() == again.to_dot()
    assert g.to_dot() == (
        "graph plumbing {\n"
        '  v0 [label="C (+1)"];\n'
        '  v1 [label="E1 (-3)"];\n'
        '  v2 [label="E2 (-2)"];\n'
        '  v3 [label="E3 (-2)"];\n'
        '  v4 [label="E4 (-2)"];\n'
        '  v5 [label="E5 (-1)"];\n'
        "  v0 -- v5;\n"
        "  v1 -- v3;\n"
        "  v2 -- v3;\n"
        "  v3 -- v4;\n"
        "  v4 -- v5;\n"
        "}\n"
    )


def test_dot_marks_tangency_and_corner():
    g = build_cap(family_cap("E6"))
    dot = g.to_dot()
    assert "v0 -- v7 [label=3];" in dot
    assert "// corner v0 v7 v10" in dot


def test_recipe_validation():
    with pytest.raises(ValueError):
        family_cap("A_p")
    with pytest.raises(ValueError):
        family_cap("A_p", 1)
    with pytest.raises(ValueError):
        family_cap("E3", 2)
    with pytest.raises(ValueError):
        family_cap("Nope")
    # no stock cap: several cusps off degrees 4 and 5, or an unnamed cusp
    assert cap_for_combo(CuspCombo(6, (CuspType(2, 3), CuspType(3, 10)))) is None
    assert cap_for_combo(CuspCombo(7, (CuspType(2, 31),))) is None


def test_recipe_that_strands_a_tangency():
    # stopping at the smooth branch leaves the curve tangent at +7
    combo = CuspCombo(4, (CuspType(3, 4),))
    with pytest.raises(ValueError, match=r"at \+7, not \+1"):
        build_cap(CapRecipe("QuarticMin", combo, ("min",)))


def test_recipe_that_overshoots():
    combo = CuspCombo(4, (CuspType(2, 3), CuspType(2, 5)))
    with pytest.raises(ValueError, match=r"at \+0, not \+1"):
        build_cap(CapRecipe("QuarticMin", combo, ("nc", "nc")))


def test_every_cap_is_its_own_curve_resolution():
    recipes = (
        [family_cap("A_p", p) for p in range(2, 31)]
        + [family_cap("B_p", p) for p in range(2, 11)]
        + [family_cap("E3"), family_cap("E6")]
        + [cap_for_combo(c) for d in range(3, 8) for c in enumerate_combos(d)]
    )
    recipes = [r for r in recipes if r is not None]
    assert len(recipes) == 67
    for r in recipes:
        g = build_cap(r)
        assert g == curve_resolution(r.combo, r.modes)
        assert g.eulers[g.root] == 1


def spec_of(combo):
    return "+".join(f"{c.p},{c.q}" for c in combo.cusps)


def assert_reported_det_is_int_det(report):
    # the det that cap and resolve report, against elimination on the
    # graph they report
    graph = report["results"]["graph"]
    g = PlumbingGraph(
        tuple(graph["eulers"]),
        tuple(graph["labels"]),
        tuple(map(tuple, graph["edges"])),
        tuple(map(tuple, graph["corners"])),
        graph["root"],
    )
    assert graph["det"] == int_det(g.intersection_matrix())


def test_reported_determinant_is_the_lattice_identity():
    # det = (-1)^(n-1) * s for a curve resolution whose root starts at s
    specs = (
        [["A", str(p)] for p in range(2, 31)]
        + [["B", str(p)] for p in range(2, 11)]
        + [["E3"], ["E6"]]
        + [
            [spec_of(c)]
            for d in range(3, 8)
            for c in enumerate_combos(d)
            if cap_for_combo(c) is not None
        ]
    )
    assert len(specs) == 67
    for spec in specs:
        assert_reported_det_is_int_det(cli.cmd_cap(Namespace(spec=spec))[0])
    modes = ("min", "nc", "min+1", "min+2", "min+3")
    combos = [c for d in range(3, 7) for c in enumerate_combos(d) if len(c.cusps) <= 3]
    runs = 0
    for combo in combos:
        d, k = combo.degree, len(combo.cusps)
        for mode in product(modes, repeat=k):
            args = Namespace(combo=spec_of(combo), modes=",".join(mode), s=None)
            assert_reported_det_is_int_det(cli.cmd_resolve(args)[0])
            runs += 1
        for mode, s in product(("min", "nc"), (-7, 0, 1, d * d + 3)):
            args = Namespace(combo=spec_of(combo), modes=",".join([mode] * k), s=s)
            assert_reported_det_is_int_det(cli.cmd_resolve(args)[0])
    assert runs == 4470


def test_single_cusp_caps_spend_every_spare_blowup_at_the_end():
    assert family_cap("A_p", 3).modes == ("min+6",)
    assert family_cap("B_p", 2).modes == ("min+3",)
    assert family_cap("E3").modes == ("min",)
    assert family_cap("E6").modes == ("min+3",)
    assert cap_for_combo(quintic((2, 13))).modes == ("min",)
    assert cap_for_combo(quintic((2, 5), (2, 5), (2, 5))).modes == ("min",) * 3


def test_graph_validation():
    with pytest.raises(ValueError):
        PlumbingGraph((0, 0), ("a", "b"), ((1, 0, 1),))
    with pytest.raises(ValueError):
        PlumbingGraph((0, 0), ("a", "b"), ((0, 1, 1), (0, 1, 2)))
    with pytest.raises(ValueError):
        PlumbingGraph((0, 0, 0), ("a", "b", "c"), ((0, 1, 1),), corners=((0, 1, 2),))
