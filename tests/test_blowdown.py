"""Blow-down traces and the plane-configuration catalog.

The corpus goldens freeze, for every embedding of every small-degree
cap, the catalog verdict of its plane image.  These were produced by
the trace itself and cross-checked by hand against the incidence
counts (Bezout closure pins most of them down uniquely).
"""

import random
import sys

import oracles
import pytest
from caps import plus_one_caps
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspatlas.blowdown import (
    OBSTRUCTED,
    UNIQUE,
    UNKNOWN,
    ConfigFingerprint,
    PointNode,
    _prune,
    blow_down_trace,
    catalog_lookup,
)
from cuspatlas.cusp import CuspCombo, CuspType, enumerate_combos
from cuspatlas.lattice import Embedding, HClass, enumerate_embeddings
from cuspatlas.obstruct import run_cap
from cuspatlas.plumbing import PlumbingGraph, build_cap, cap_for_combo, family_cap


def nest(nodes):
    """The clusters of a (parent, mults) table in which every parent
    precedes its children; children keep their table order."""
    built = {}
    for i in reversed(range(len(nodes))):
        kids = tuple(built.pop(j) for j in sorted(built) if nodes[j][0] == i)
        built[i] = PointNode(dict(nodes[i][1]), kids)
    assert all(nodes[i][0] is None for i in built)
    return tuple(built[i] for i in sorted(built))


def fp(degrees, nodes, labels=None):
    labels = labels or tuple(f"X{i}" for i in range(len(degrees)))
    return ConfigFingerprint(tuple(degrees), tuple(labels), nest(nodes))


def trace_combo(degree, *pqs):
    combo = CuspCombo(degree, tuple(CuspType(p, q) for p, q in pqs))
    graph = build_cap(cap_for_combo(combo))
    return [blow_down_trace(e) for e in enumerate_embeddings(graph)]


def family_traces(kind, p=None):
    graph = build_cap(family_cap(kind, p))
    return [blow_down_trace(e) for e in enumerate_embeddings(graph)]


def ordered(nodes):
    """The clusters as nested tuples, in the order the catalog reads them."""
    return tuple((tuple(p.mults.items()), ordered(p.children)) for p in nodes)


def shape(f):
    triples = sum(1 for r in f.clusters if len(r.curves()) == 3)
    doubles = sum(1 for r in f.clusters if len(r.curves()) == 2)
    return sorted(f.degrees), triples, doubles


# ------------------------------------------------- fingerprint checks


def test_fingerprint_rejects_wrong_meeting_count():
    with pytest.raises(ValueError, match="meet 2 times, want 1"):
        fp([1, 1], [(None, {0: 1, 1: 1}), (None, {0: 1, 1: 1})])


def test_fingerprint_rejects_child_off_parent():
    with pytest.raises(ValueError, match="pass the parent"):
        fp([1, 2], [(None, {0: 1}), (0, {0: 1, 1: 1}), (None, {0: 1, 1: 1})])


def test_fingerprint_rejects_malformed_nodes():
    with pytest.raises(ValueError, match="multiplicities"):
        fp([1], [(None, {0: 0})])
    with pytest.raises(ValueError, match="degrees"):
        fp([0], [])
    shared = PointNode({0: 1, 1: 1})
    with pytest.raises(ValueError, match="one place"):
        ConfigFingerprint((1, 1), ("L", "M"), (shared, shared))


def conic_and_tangents(concurrent):
    # conic 3 with lines 0,1,2 simply tangent to it; the lines run
    # through one common point (concurrent) or form a triangle
    nodes = []
    for L in range(3):
        nodes.append((None, {L: 1, 3: 1}))
        nodes.append((len(nodes) - 1, {L: 1, 3: 1}))
    if concurrent:
        nodes.append((None, {0: 1, 1: 1, 2: 1}))
    else:
        nodes += [(None, {0: 1, 1: 1}), (None, {0: 1, 2: 1}), (None, {1: 1, 2: 1})]
    return fp([1, 1, 1, 2], nodes, labels=("L0", "L1", "L2", "Q"))


def test_pairing_helpers():
    f = conic_and_tangents(concurrent=True)
    assert f.pair_pattern(0, 3) == (2,)
    assert f.pair_pattern(0, 1) == (1,)
    assert f.simple_tangency(0, 3)
    assert not f.simple_tangency(0, 1)
    assert f.components_of_degree(2) == [3]
    assert f.singular_points(3) == []


def test_restrict_prunes_and_renumbers():
    f = conic_and_tangents(concurrent=True)
    g = f.restrict([0, 3])
    assert g.degrees == (1, 2)
    assert g.labels == ("L0", "Q")
    # only the tangency chain survives; the concurrency point is now a
    # plain point of one line and is forgotten
    (top,) = g.clusters
    (below,) = top.children
    assert top.mults == below.mults == {0: 1, 1: 1}
    assert below.children == ()
    h = f.remove_component(3)
    assert h.degrees == (1, 1, 1)
    (point,) = h.clusters
    assert point.mults == {0: 1, 1: 1, 2: 1}
    assert point.children == ()


def prune_table_oracle(parents, mults):
    """The pruning of the parent-table forest: keep the nodes with at
    least two curves, one curve of multiplicity >= 2, or a kept
    descendant; renumber them in preorder and lift each parent to its
    nearest kept ancestor.  Returns the kept (parent, mults) table."""
    kids = [[] for _ in parents]
    for i, p in enumerate(parents):
        if p is not None:
            kids[p].append(i)

    def visit(i):
        below = [k for j in kids[i] for k in visit(j)]
        own = len(mults[i]) >= 2 or any(m >= 2 for m in mults[i].values())
        return [i] + below if below or own else []

    order = [k for i, p in enumerate(parents) if p is None for k in visit(i)]
    newid = {old: i for i, old in enumerate(order)}

    def lifted(old):
        p = parents[old]
        while p is not None and p not in newid:
            p = parents[p]
        return None if p is None else newid[p]

    return [(lifted(old), mults[old]) for old in order]


@st.composite
def point_tables(draw):
    """A valid (degrees, parent/mults table) pair: a random forest whose
    children pass through a subset of their parent's curves, closed up
    by one root per pair of curves that makes every Bezout total come
    out as the product of the degrees."""
    n = draw(st.integers(1, 4))
    table = []
    for i in range(draw(st.integers(0, 8))):
        parent = draw(st.one_of(st.none(), st.integers(0, i - 1))) if i else None
        room = sorted(table[parent][1]) if parent is not None else list(range(n))
        curves = draw(st.lists(st.sampled_from(room), min_size=1, unique=True))
        table.append((parent, {c: draw(st.integers(1, 2)) for c in curves}))

    def total(u, v):
        return sum(m.get(u, 0) * m.get(v, 0) for _, m in table)

    degrees = [max([1] + [total(u, v) for v in range(n) if v != u]) for u in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            short = degrees[u] * degrees[v] - total(u, v)
            if short:
                table.append((None, {u: short, v: 1}))
    return degrees, table


@given(point_tables(), st.data())
@settings(max_examples=200)
def test_restrict_prunes_as_the_parent_table_oracle(case, data):
    degrees, table = case
    keep = data.draw(st.lists(st.sampled_from(range(len(degrees))), unique=True))
    f = fp(degrees, table)
    got = f.restrict(keep)
    kept = sorted(keep)
    remap = {c: i for i, c in enumerate(kept)}
    pruned = prune_table_oracle(
        [p for p, _ in table],
        [{remap[c]: m for c, m in mults.items() if c in remap} for _, mults in table],
    )
    want = fp([degrees[c] for c in kept], pruned, [f.labels[c] for c in kept])
    assert got.to_dict() == want.to_dict()
    assert got.summary() == want.summary()


# ------------------------------------------------- catalog, by hand

FANO_TRIPLES = (
    (0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5),
)


def test_fano_plane_obstructed():
    f = fp([1] * 7, [(None, {a: 1, b: 1, c: 1}) for a, b, c in FANO_TRIPLES])
    entry = catalog_lookup(f)
    assert (entry.pattern, entry.status) == ("fano-plane", OBSTRUCTED)


def test_concurrent_tangent_lines_obstructed():
    entry = catalog_lookup(conic_and_tangents(concurrent=True))
    assert entry.pattern == "conic-three-concurrent-tangents"
    assert entry.status == OBSTRUCTED


def test_tangent_triangle_peels_to_tangent_conic():
    # each triangle side is simply tangent at one plain point and its
    # other meets stay smooth without it, so the sides peel off one at
    # a time down to a conic with a single maximal tangent line
    entry = catalog_lookup(conic_and_tangents(concurrent=False))
    assert entry.pattern == "curve-with-maximal-tangent-line"
    assert entry.status == UNIQUE


def test_small_unique_patterns():
    assert catalog_lookup(fp([2], [])).pattern == "smooth-conic"
    two = fp([2, 2], [(None, {0: 1, 1: 1}) for _ in range(4)])
    entry = catalog_lookup(two)
    assert (entry.pattern, entry.status) == ("two-conics", UNIQUE)
    assert entry.reason == "contact pattern (1, 1, 1, 1)"
    assert entry.provenance == "catalog:two-conics"


# ------------------------------------------------- corpus goldens

U, O, UK = UNIQUE, OBSTRUCTED, UNKNOWN
PENCIL = "conic-pencil-common-tangent"

# per combo, one (pattern, status) per embedding, in enumeration order
CORPUS = {
    (3, ((2, 3),)): [("line-arrangement", U)],
    (4, ((2, 3), (2, 3), (2, 3))): [
        ("line-arrangement", U), ("fano-plane", O), ("fano-plane", O),
    ],
    (4, ((2, 3), (2, 5))): [("line-arrangement", U)] * 3,
    (4, ((2, 7),)): [("line-arrangement", U)] * 3,
    (4, ((3, 4),)): [("line-arrangement", U)],
    (5, ((2, 3),) * 6): [("unmatched", UK), (PENCIL, O)],
    (5, ((2, 3),) * 4 + ((2, 5),)): [("unmatched", UK), (PENCIL, O)],
    (5, ((2, 3),) * 3 + ((2, 7),)): [("four-conics-triple-flex", U), (PENCIL, O)],
    (5, ((2, 3),) * 3 + ((3, 4),)): [("fano-plane", O)],
    (5, ((2, 3), (2, 3), (2, 5), (2, 5))): [
        ("two-conics-double-tangency-common-tangent", O), (PENCIL, O),
    ],
    (5, ((2, 3), (2, 3), (2, 9))): [
        ("two-conics-order4-contact-common-tangent", O), (PENCIL, O),
    ],
    (5, ((2, 3), (2, 3), (3, 5))): [("fano-plane", O)],
    (5, ((2, 3), (2, 5), (2, 7))): [
        ("two-conics-double-tangency-common-tangent", O), (PENCIL, O),
    ],
    (5, ((2, 3), (2, 5), (3, 4))): [("curve-with-maximal-tangent-line", U)],
    (5, ((2, 3), (2, 11))): [
        ("two-conics-order4-contact-common-tangent", O),
        ("two-conics-common-tangent", U),
    ],
    (5, ((2, 5), (2, 5), (2, 5))): [
        ("three-conics-tangent-triangle", U), (PENCIL, O),
    ],
    (5, ((2, 5), (2, 9))): [
        ("two-conics-common-tangent", U), ("two-conics-common-tangent", U),
    ],
    (5, ((2, 5), (3, 5))): [("line-arrangement", U)],
    (5, ((2, 7), (2, 7))): [
        ("two-conics-double-tangency-common-tangent", O),
        ("two-conics-common-tangent", U),
    ],
    (5, ((2, 7), (3, 4))): [("line-arrangement", U)],
    (5, ((2, 13),)): [("curve-with-maximal-tangent-line", U)] * 2,
    (5, ((3, 4), (3, 4))): [],
    (5, ((3, 7),)): [],
    (5, ((4, 5),)): [("line-arrangement", U)],
}


def corpus_traces():
    for degree in (3, 4, 5):
        for combo in enumerate_combos(degree):
            sig = tuple((c.p, c.q) for c in combo.cusps)
            embs = enumerate_embeddings(build_cap(cap_for_combo(combo)))
            yield degree, sig, embs, [blow_down_trace(e) for e in embs]


def test_corpus_catalog_verdicts():
    seen = set()
    for degree, sig, _, traces in corpus_traces():
        entries = [catalog_lookup(f) for f in traces]
        got = [(e.pattern, e.status) for e in entries]
        assert got == CORPUS[(degree, sig)], (degree, sig, got)
        seen.add((degree, sig))
    assert seen == set(CORPUS)


def test_every_trace_accounts_for_all_intersections():
    # construction re-checks this, but state it as the property it is:
    # images of distinct components meet in deg*deg counted with the
    # cluster multiplicities
    for _, _, _, traces in corpus_traces():
        for f in traces:
            for u in range(len(f.degrees)):
                for v in range(u + 1, len(f.degrees)):
                    got = sum(
                        p.mults.get(u, 0) * p.mults.get(v, 0) for p in f.points()
                    )
                    assert got == f.degrees[u] * f.degrees[v]


def test_tricuspidal_quartic_images():
    first, second, third = trace_combo(4, (2, 3), (2, 3), (2, 3))
    # the plane model: seven lines, six triple points, three doubles
    assert shape(first) == ([1] * 7, 6, 3)
    assert first.summary() == (
        "degrees(1,1,1,1,1,1,1) points [C+E1+E2]x1 [C+E3+E4]x1 [C+E5+E6]x1 "
        "[E1+E3]x1 [E1+E4+E6]x1 [E1+E5]x1 [E2+E3+E6]x1 [E2+E4+E5]x1 [E3+E5]x1"
    )
    # the other two embeddings produce full Fano incidences
    assert shape(second) == ([1] * 7, 7, 0)
    assert shape(third) == ([1] * 7, 7, 0)
    for f in (first, second, third):
        assert all(r.children == () for r in f.clusters)


def test_four_line_images():
    for f in trace_combo(4, (2, 3), (2, 5)):
        assert shape(f) == ([1] * 4, 1, 3)
    (g,) = trace_combo(5, (2, 5), (3, 5))
    assert shape(g) == ([1] * 4, 1, 3)


def test_fano_subarrangement_with_cubic():
    (f,) = trace_combo(5, (2, 3), (2, 3), (2, 3), (3, 4))
    assert sorted(f.degrees) == [1] * 7 + [3]
    assert catalog_lookup(f).pattern == "fano-plane"


def test_conic_pair_contact_patterns():
    k0, k4 = trace_combo(5, (2, 5), (2, 9))
    assert catalog_lookup(k0).reason == "contact pattern (3, 1)"
    assert catalog_lookup(k4).reason == "contact pattern (1, 1, 1, 1)"
    _, other = trace_combo(5, (2, 7), (2, 7))
    assert catalog_lookup(other).reason == "contact pattern (1, 1, 1, 1)"


def test_maximal_tangent_images():
    for f in trace_combo(5, (2, 13)):
        assert catalog_lookup(f).reason == "degree 2"


def test_trace_is_deterministic():
    one = [f.to_dict() for f in trace_combo(4, (2, 3), (2, 3), (2, 3))]
    two = [f.to_dict() for f in trace_combo(4, (2, 3), (2, 3), (2, 3))]
    assert one == two


def relabelled(emb, rng):
    """The same embedding with its exceptional indices permuted."""
    perm = list(range(emb.n_used))
    rng.shuffle(perm)
    classes = tuple(
        HClass.make(c.a0, {perm[i]: x for i, x in c.coeffs}) for c in emb.classes
    )
    return Embedding(emb.graph, classes, emb.n_used)


def test_index_labels_do_not_change_summaries_or_verdicts():
    recipes = (
        [family_cap("A_p", p) for p in range(2, 11)]
        + [family_cap("B_p", p) for p in range(2, 7)]
        + [family_cap("E3"), family_cap("E6")]
        + [cap_for_combo(c) for d in (3, 4, 5) for c in enumerate_combos(d)]
    )
    rng = random.Random(5)
    seen = 0
    for recipe in recipes:
        for emb in enumerate_embeddings(build_cap(recipe)):
            base = blow_down_trace(emb)
            entry = catalog_lookup(base)
            for _ in range(8):
                other = blow_down_trace(relabelled(emb, rng))
                again = catalog_lookup(other)
                assert other.summary() == base.summary(), recipe
                assert other.to_dict() == base.to_dict(), recipe
                assert (again.pattern, again.status) == (entry.pattern, entry.status)
                seen += 1
    assert seen == 8 * 68


# ------------------------------------------------- one-cusp families


def test_the_trace_matches_the_rescan_oracle():
    # one walk of the dominance order against the step-by-step rescan
    # it replaced: the same image, shape and catalog verdict
    graphs = [build_cap(family_cap("A_p", p)) for p in range(2, 41)]
    graphs += [build_cap(family_cap("B_p", p)) for p in range(2, 19)]
    graphs += [build_cap(family_cap(kind, None)) for kind in ("E3", "E6")]
    graphs += [g for d in range(3, 7) for g in plus_one_caps(d)]
    embs = [e for g in graphs for e in enumerate_embeddings(g)]
    assert (len(graphs), len(embs)) == (303, 408)
    for e in embs:
        got, want = blow_down_trace(e), oracles.blow_down_trace(e)
        assert got.to_dict() == want.to_dict(), e.to_dict()
        assert got.summary() == want.summary(), e.to_dict()
        a, b = catalog_lookup(got), catalog_lookup(want)
        assert (a.pattern, a.status) == (b.pattern, b.status), e.to_dict()
        # every point the trace keeps witnesses geometry: pruned again
        # under its own names, no point or order changes
        identity = {c: c for c in range(len(got.degrees))}
        assert ordered(_prune(got.clusters, identity)) == ordered(got.clusters)


def test_the_trace_makes_each_point_once_and_prunes_none():
    # the trace names and prunes each point as it makes it, so over the
    # 16 caps the benchmark blows down no _prune call runs under
    # blow_down_trace.  Calls are seen by code object, whatever name the
    # caller holds
    prune, trace = _prune.__code__, blow_down_trace.__code__
    traces = pruned = 0

    def profile(frame, event, arg):
        nonlocal traces, pruned
        if event != "call":
            return
        traces += frame.f_code is trace
        caller = frame.f_back if frame.f_code is prune else None
        while caller is not None and caller.f_code is not trace:
            caller = caller.f_back
        pruned += caller is not None

    recipes = [family_cap("A_p", p) for p in range(2, 11)]
    recipes += [family_cap("B_p", p) for p in range(2, 7)]
    recipes += [family_cap("E3"), family_cap("E6")]
    sys.setprofile(profile)
    try:
        runs = [run_cap(r) for r in recipes]
    finally:
        sys.setprofile(None)
    assert traces == sum(len(r.embeddings) for r in runs) > 0
    assert pruned == 0


def test_a_cyclic_embedding_does_not_trace():
    # the search keeps only embeddings with a contraction walk, so only
    # a hand-built one reaches the trace without: X = e0 - e1 - e2 and
    # Y = -e0 + e1 - e3 head each other's tails, a dominance cycle
    g = PlumbingGraph((1, -3, -3), ("C", "X", "Y"), ((1, 2, 2),), root=0)
    x, y = HClass.make(0, {0: 1, 1: -1, 2: -1}), HClass.make(0, {0: -1, 1: 1, 3: -1})
    emb = Embedding(g, (HClass(1), x, y), 4)
    assert emb.contraction is None
    with pytest.raises(ValueError, match="close a dominance cycle"):
        blow_down_trace(emb)


def test_torus_family_caps_blow_down_to_two_lines():
    for kind, p, count in (
        ("A_p", 3, 1), ("A_p", 4, 1), ("B_p", 2, 3), ("B_p", 3, 2), ("B_p", 4, 2),
    ):
        traces = family_traces(kind, p)
        assert len(traces) == count, (kind, p)
        for f in traces:
            assert f.degrees == (1, 1)
            assert catalog_lookup(f).pattern == "line-arrangement"


def test_two_line_image_dict():
    (f,) = family_traces("A_p", 3)
    assert f.summary() == "degrees(1,1) points [C+E7]x1"
    assert f.to_dict() == {
        "components": [
            {"label": "C", "degree": 1},
            {"label": "E7", "degree": 1},
        ],
        "clusters": [{"mults": {"C": 1, "E7": 1}, "children": []}],
    }


def test_cubic_family_caps_blow_down_to_tangent_cubic():
    traces = family_traces("E3")
    assert len(traces) == 3
    for f in traces:
        assert sorted(f.degrees) == [1, 3]
        entry = catalog_lookup(f)
        assert entry.pattern == "curve-with-maximal-tangent-line"
        assert entry.reason == "degree 3"


def test_deep_cubic_family_cap_statuses():
    # the catalog settles the three embeddings whose extra line peels;
    # the others stay open here (their images carry a tangency plus a
    # deeper cluster on the same line)
    got = [catalog_lookup(f).status for f in family_traces("E6")]
    assert got == [UNKNOWN, UNKNOWN, UNIQUE, UNKNOWN, UNIQUE, UNIQUE]
