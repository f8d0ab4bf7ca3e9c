"""Class assignments for cap plumbings: profiles, the search, residual forms."""

import random
import sys
import tracemalloc

import pytest
from area_lp import area_feasible
from caps import plus_one_caps
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import checked_dfs, negative_definite, orbits, pairings, partition

from cuspatlas import cli, lattice
from cuspatlas.blowdown import blow_down_trace, catalog_lookup
from cuspatlas.cusp import (
    CuspCombo,
    CuspType,
    gated_combos,
    semigroup_condition,
)
from cuspatlas.lattice import (
    Embedding,
    HClass,
    adjunction_profiles,
    ambient,
    ambient_form,
    complement_form,
    enumerate_embeddings,
)
from cuspatlas.linalg import int_det
from cuspatlas.obstruct import riemann_hurwitz_verdict, run_cap
from cuspatlas.plumbing import PlumbingGraph, build_cap, cap_for_combo, family_cap


def cap(kind, p=None):
    return build_cap(family_cap(kind, p))


def combo_cap(degree, *pqs):
    combo = CuspCombo(degree, tuple(CuspType(p, q) for p, q in pqs))
    return build_cap(cap_for_combo(combo))


# ---------------------------------------------------------------- classes


def test_pairing_signature():
    h = HClass(1)
    e0 = HClass.make(0, {0: -1})
    assert h.pairing(h) == 1
    assert e0.pairing(e0) == -1
    assert h.pairing(e0) == 0
    line = HClass.make(1, {0: -1, 1: -1})
    assert line.square == -1
    assert line.pairing(h) == 1


def test_class_str():
    assert str(HClass(1)) == "h"
    assert str(HClass(-1)) == "-h"
    assert str(HClass.make(2, {0: -1, 1: -1})) == "2h-e0-e1"
    assert str(HClass.make(0, {1: 1, 2: -1})) == "e1-e2"
    assert str(HClass.make(0, {0: -1, 1: -1, 2: -1, 4: 1})) == "-e0-e1-e2+e4"
    assert str(HClass.make(0, {0: 1, 9: 1, 6: -1, 7: -2})) == "e0-e6-2e7+e9"
    assert str(HClass(0)) == "0"


def test_class_validation():
    with pytest.raises(ValueError):
        HClass(1, ((2, 1), (1, -1)))
    with pytest.raises(ValueError):
        HClass(1, ((1, 0),))


# ---------------------------------------------------------------- profiles


def test_profiles_frozen_shapes():
    assert adjunction_profiles(3, -1) == [(-1, -1, -1, -1, -1, -1, -2)]
    assert adjunction_profiles(1, -1) == [(-1, -1)]
    assert adjunction_profiles(0, -2) == [(1, -1)]
    assert adjunction_profiles(0, -1) == [(1,)]
    assert adjunction_profiles(1, 1) == [()]
    assert adjunction_profiles(2, 0) == [(-1, -1, -1, -1)]
    assert adjunction_profiles(0, 0) == []
    assert adjunction_profiles(0, 1) == []
    assert adjunction_profiles(1, 2) == []
    with pytest.raises(ValueError):
        adjunction_profiles(-1, -1)


@given(a0=st.integers(0, 3), s=st.integers(-12, 1))
@settings(max_examples=200)
def test_profiles_satisfy_adjunction(a0, s):
    for prof in adjunction_profiles(a0, s):
        assert sum(c * c for c in prof) == a0 * a0 - s
        assert sum(prof) == 2 - 3 * a0 + s
        if a0 == 0:
            assert prof.count(1) == 1 and all(c in (1, -1) for c in prof)
        else:
            assert all(c < 0 for c in prof)
        assert tuple(sorted(prof, reverse=True)) == prof


# ---------------------------------------------------------------- area form


def test_area_rejects_opposed_witness_pair():
    a = HClass.make(0, {0: 1, 1: -1, 2: -1})
    b = HClass.make(0, {1: 1, 0: -1, 2: -1})
    assert area_feasible([a]) is True
    assert area_feasible([a, b]) is False


def test_area_easy_cases():
    assert area_feasible([]) is True
    assert area_feasible([HClass.make(1, {0: -1, 1: -1})]) is True
    e01, e12 = HClass.make(0, {0: 1, 1: -1}), HClass.make(0, {1: 1, 2: -1})
    assert area_feasible([e01, e12]) is True
    # a class that can never have positive area against positive e-weights
    assert area_feasible([HClass.make(0, {0: -1, 1: -1})]) is False


degree_zero_rows = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.lists(st.integers(0, 5), max_size=3, unique=True),
    ).filter(lambda row: row[0] not in row[1]),
    max_size=6,
)


def walk_of(rows):
    """_dominance_order on one degree-zero class per row, over the
    indices up to the largest one the rows name."""
    n = 1 + max((i for r in rows for i in r), default=-1)
    return lattice._dominance_order([HClass.make(0, r) for r in rows], n)


@given(rows=degree_zero_rows)
@settings(max_examples=300)
def test_dominance_cycle_agrees_with_the_area_lp(rows):
    # whole row sets, as a leaf hands them over; heads may repeat here
    rows = [{a: 1, **{b: -1 for b in rest}} for a, rest in rows]
    want = area_feasible([HClass.make(0, r) for r in rows])
    walk = walk_of(rows)
    assert (walk is not None) == want
    if walk is not None:
        # each index once, those no row names first, every tail before
        # its head, and each head paired with a row it heads
        order = [i for i, _ in walk]
        named = {i for r in rows for i in r}
        assert sorted(order) == list(range(len(order)))
        assert all(i not in named for i in order[: len(order) - len(named)])
        at = {i: n for n, i in enumerate(order)}
        for r in rows:
            (head,) = [i for i, c in r.items() if c == 1]
            assert all(at[i] < at[head] for i, c in r.items() if c == -1)
        for i, v in walk:
            assert (v is not None) == any(r.get(i) == 1 for r in rows)
            assert v is None or rows[v][i] == 1


def test_dominance_cycle_shapes():
    def ordered(rows):
        return walk_of(rows) is not None

    assert ordered([])
    assert ordered([{0: 1}, {1: 1, 0: -1}])
    assert not ordered([{0: 1, 1: -1, 2: -1}, {1: 1, 0: -1, 2: -1}])
    # 2 -> 0 -> 1 and a row 1 -> 2 close a cycle; a row 3 -> 2 closes none
    chain = [{2: 1, 0: -1}, {0: 1, 1: -1}]
    assert not ordered([*chain, {1: 1, 2: -1}])
    assert ordered([*chain, {3: 1, 2: -1}])
    # a repeated head keeps the edges of both its rows
    assert not ordered([{0: 1, 1: -1}, {0: 1, 2: -1}, {2: 1, 0: -1}])
    with pytest.raises(ValueError):
        walk_of([{0: 1, 1: 1}])
    with pytest.raises(ValueError):
        walk_of([{0: 2, 1: -1}])
    # the root's class names nothing; the unnamed index 1 goes first,
    # then 3, 0, 2, each tail before its head, and each head with the
    # position of its class
    assert lattice._dominance_order(
        [HClass(1), HClass.make(0, {2: 1, 0: -1}), HClass.make(0, {0: 1, 3: -1})], 4
    ) == ((1, None), (3, None), (0, 2), (2, 1))


def test_the_search_cuts_what_the_cycle_check_reports(monkeypatch):
    # every embedding of A3 places degree-zero classes, so a check that
    # always reports a cycle must leave nothing
    assert enumerate_embeddings(cap("A_p", p=3))
    monkeypatch.setattr(lattice, "_dominance_order", lambda classes, n_used: None)
    assert enumerate_embeddings(cap("A_p", p=3)) == ()


def test_the_check_sees_each_leafs_degree_zero_classes(monkeypatch):
    real = lattice._dominance_order
    calls = []

    def wrapper(classes, n_used):
        calls.append(sorted(list(c.coeffs) for c in classes if c.a0 == 0))
        return real(classes, n_used)

    monkeypatch.setattr(lattice, "_dominance_order", wrapper)
    for kind, p in (("A_p", 5), ("B_p", 3), ("E6", None)):
        start = len(calls)
        embs = enumerate_embeddings(cap(kind, p))
        assert embs
        # one call per leaf, in output order: no cycle cuts these caps
        want = [sorted(list(c.coeffs) for c in e.classes if c.a0 == 0) for e in embs]
        assert calls[start:] == want
    assert max(map(len, calls)) >= 3


def test_each_leaf_is_peeled_once_and_the_trace_peels_none():
    # the search's area test and the blow-down read one walk per
    # embedding: over the 16 caps the benchmark blows down,
    # _dominance_order runs once per search leaf (each leaf makes one
    # _canonical_classes call) and never under blow_down_trace.  Calls
    # are seen by code object, whatever name the caller holds
    peel, leaf, trace = (
        f.__code__
        for f in (lattice._dominance_order, lattice._canonical_classes, blow_down_trace)
    )
    calls = {peel: 0, leaf: 0, trace: 0}
    traced_peels = 0

    def profile(frame, event, arg):
        nonlocal traced_peels
        if event != "call" or frame.f_code not in calls:
            return
        calls[frame.f_code] += 1
        caller = frame.f_back
        while frame.f_code is peel and caller is not None:
            traced_peels += caller.f_code is trace
            caller = caller.f_back

    recipes = [family_cap("A_p", p) for p in range(2, 11)]
    recipes += [family_cap("B_p", p) for p in range(2, 7)]
    recipes += [family_cap("E3"), family_cap("E6")]
    sys.setprofile(profile)
    try:
        runs = [run_cap(r) for r in recipes]
    finally:
        sys.setprofile(None)
    embeddings = sum(len(r.embeddings) for r in runs)
    assert calls[trace] == embeddings > 0
    assert calls[peel] == calls[leaf] >= embeddings
    assert traced_peels == 0


def test_a_repeated_embedding_is_an_internal_error(monkeypatch, capsys):
    real = lattice._distributions

    def twice(*args):
        for item in real(*args):
            yield item
            yield item

    monkeypatch.setattr(lattice, "_distributions", twice)
    with pytest.raises(RuntimeError, match="twice"):
        enumerate_embeddings(cap("A_p", p=3))
    assert cli.main(["embed", "A", "3", "--json"]) == 3
    assert "atlas: internal error:" in capsys.readouterr().err


# ---------------------------------------------------------------- search


def _splits(n, rooms):
    # every way to put at most n units into orbits with these free slots
    if not rooms:
        yield ()
        return
    for t in range(min(n, rooms[0]) + 1):
        for rest in _splits(n - t, rooms[1:]):
            yield (t,) + rest


def _unpruned(groups, orbits, taken, fresh_at):
    """Every placement of the profile values, pairings ignored."""
    if not groups:
        yield [], fresh_at
        return
    (val, cnt), later = groups[0], groups[1:]
    for split in _splits(cnt, [len(o) - k for o, k in zip(orbits, taken)]):
        items = [
            (orbits[o][taken[o] + j], val) for o, t in enumerate(split) for j in range(t)
        ]
        rest = cnt - sum(split)
        items += [(fresh_at + j, val) for j in range(rest)]
        now = [k + t for k, t in zip(taken, split)]
        for tail, end in _unpruned(later, orbits, now, fresh_at + rest):
            yield items + tail, end


def _rows(cols):
    # dense columns as the sparse rows the search reads
    return [tuple((u, c) for u, c in enumerate(col) if c) for col in cols]


def _cols(rows, nu):
    cols = []
    for row in rows:
        col = [0] * nu
        for u, c in row:
            col[u] = c
        cols.append(tuple(col))
    return cols


def _pairs_as_required(items, orbits, cols, targets):
    col_of = {i: col for members, col in zip(orbits, cols) for i in members}
    return all(
        sum(val * col_of.get(i, (0,) * len(targets))[u] for i, val in items) == want
        for u, want in enumerate(targets)
    )


def _partition(members, rows, n_classes):
    # the orbits the search carries, for these orbits (runs of
    # consecutive indices that tile 0..n-1, in order) and their rows
    assert [m[0] for m in members] == sorted(m[0] for m in members)
    return lattice._Orbits(*partition(members, rows, n_classes))


def _read(part):
    # the orbits and their rows, read off a carried partition
    starts = [s for s, e in enumerate(part.ends) if e]
    return [list(range(s, part.ends[s])) for s in starts], [part.rows[s] for s in starts]


def _checked_distributions(seen):
    real = lattice._distributions

    def wrapper(groups, units, part, owed):
        orbits, rows = _read(part)
        fresh_start = len(part.ends)
        targets = [owed.get(u, 0) for u in range(len(part.by_class))]
        cols = _cols(rows, len(targets))
        got = []
        for items, end in real(groups, units, part, owed):
            indices = [i for i, _ in items]
            assert len(set(indices)) == len(indices)
            assert sorted(v for _, v in items) == sorted(
                v for v, c in groups for _ in range(c)
            )
            fresh = sorted(i for i in indices if i >= fresh_start)
            assert fresh == list(range(fresh_start, end))
            assert _pairs_as_required(items, orbits, cols, targets)
            got.append((tuple(sorted(items)), end))
            yield items, end
        seen.append(len(got))
        want = [
            (tuple(sorted(items)), end)
            for items, end in _unpruned(groups, orbits, [0] * len(orbits), fresh_start)
            if _pairs_as_required(items, orbits, cols, targets)
        ]
        assert sorted(got) == sorted(want)

    return wrapper


BENCH_CAPS = (
    [("A_p", p) for p in range(2, 11)]
    + [("B_p", p) for p in range(2, 7)]
    + [("E3", None), ("E6", None)]
)


def _combo_caps(degrees):
    return [
        build_cap(cap_for_combo(combo))
        for d in degrees
        for combo, _ in gated_combos(d)
    ]


def test_distributions_yield_exactly_the_required_pairings(monkeypatch):
    # every item pairs as required, and nothing that would is pruned:
    # the unpruned placements filtered by the pairing check agree
    seen = []
    monkeypatch.setattr(lattice, "_distributions", _checked_distributions(seen))
    graphs = [cap(kind, p) for kind, p in BENCH_CAPS] + _combo_caps((3, 4, 5))
    for g in graphs + [g for d in range(3, 7) for g in plus_one_caps(d)]:
        enumerate_embeddings(g)
    assert sum(seen) > 0


def test_pairing_mismatch_from_the_generator_is_an_internal_error(monkeypatch):
    def broken(groups, units, part, owed):
        # every value on fresh indices, whatever the pairings require
        values = [v for v, c in groups for _ in range(c)]
        fresh_start = len(part.ends)
        yield [(fresh_start + j, v) for j, v in enumerate(values)], fresh_start + len(values)

    monkeypatch.setattr(lattice, "_distributions", broken)
    with pytest.raises(RuntimeError, match="pairs to"):
        enumerate_embeddings(cap("A_p", p=2))


def test_a_unit_on_an_index_a_distant_class_carries_is_an_internal_error(monkeypatch):
    # the candidate still pays its neighbour, but one more unit lands on
    # an index that only classes it must not meet carry
    g = cap("A_p", p=4)
    order, req = lattice._bfs_order(g), pairings(g)
    real = lattice._distributions
    strays = []

    def stray(groups, units, part, owed):
        v = order[len(part.by_class)]
        for items, end in real(groups, units, part, owed):
            taken = {i for i, _ in items}
            for members, row in zip(*_read(part)):
                far = [order[u] for u, _ in row if req[order[u]][v] == 0]
                free = [i for i in members if i not in taken]
                if not strays and row and len(far) == len(row) and free:
                    strays.append((v, far[0]))
                    items = [*items, (free[0], 1)]
            yield items, end

    monkeypatch.setattr(lattice, "_distributions", stray)
    with pytest.raises(RuntimeError, match="pairs to") as err:
        enumerate_embeddings(g)
    ((v, w),) = strays
    assert req[v][w] == 0
    assert f"for vertex {v} pairs to 1 with vertex {w}, not 0" in str(err.value)


def test_the_search_hands_back_its_initial_partition():
    # each branch swaps in its child's partition and the node takes its
    # own back, so a finished search stands where it started
    search = lattice._Search(cap("E6"))
    initial, leaves = search.orbits, []
    search.dfs(1, leaves)
    assert len(leaves) >= 6
    assert search.orbits is initial == lattice._Orbits([], [], [[]], {})


def test_the_search_set_up_holds_no_dense_table():
    # the owed pairings come from the edges, so a chain of about 4,000
    # vertices sets up in linear space; a dense table of its pairings
    # would take 245 MB
    g = cap("A_p", 2000)
    tracemalloc.start()
    try:
        lattice._Search(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_a_class_off_an_orbit_prefix_is_an_internal_error():
    # e_0 and e_1 carry one column, so their orbit is cut only from e_0
    part = lattice._Orbits([], [], [[]], {}).placed([(0, -1), (1, -1)], 2)
    assert (part.ends, part.at) == ([2, 0], {((1, -1),): 0})
    with pytest.raises(RuntimeError, match="index 1 but not its orbit's prefix"):
        part.placed([(1, 1)], 2)
    child = part.placed([(0, 1)], 2)
    assert (child.ends, child.by_class) == ([1, 2], [[], [(0, -1), (1, -1)], [(0, 1)]])
    assert (part.ends, part.by_class) == ([2, 0], [[], [(0, -1)]])


def test_the_carried_orbits_are_the_orbits_of_the_columns(monkeypatch):
    # at every node the orbits carried down the branch equal the orbits
    # regrouped from the columns from scratch, the branches below leave
    # them unchanged, and a finished search holds its initial partition
    checked = checked_dfs(lattice._Search.dfs)
    searches, nodes = [], []

    def counted(self, pos, leaves):
        if pos == 1:
            searches.append((self, self.orbits))
        nodes.append(len(self.orbits.at))
        checked(self, pos, leaves)

    monkeypatch.setattr(lattice._Search, "dfs", counted)
    graphs = [cap(kind, p) for kind, p in BENCH_CAPS]
    graphs += [g for d in range(3, 7) for g in plus_one_caps(d)]
    for g in graphs:
        enumerate_embeddings(g)
    assert len(searches) > 200 and max(nodes) >= 20
    for search, initial in searches:
        assert search.orbits is initial == lattice._Orbits([], [], [[]], {})


# per cap: _Search.dfs calls, _distributions items, _Search.candidates
# items and embeddings, as the search read before it carried its orbits
# (the census caps are named by degree and cusps)
SEARCH_COUNTERS = {
    "A2": (8, 7, 7, 1),
    "A3": (10, 9, 9, 1),
    "A4": (12, 11, 11, 1),
    "A5": (14, 13, 13, 1),
    "A6": (16, 15, 15, 1),
    "A7": (18, 17, 17, 1),
    "A8": (20, 19, 19, 1),
    "A9": (22, 21, 21, 1),
    "A10": (24, 23, 23, 1),
    "B2": (12, 11, 11, 3),
    "B3": (12, 11, 11, 2),
    "B4": (14, 13, 13, 2),
    "B5": (16, 15, 15, 2),
    "B6": (18, 17, 17, 2),
    "E3": (19, 18, 18, 3),
    "E6": (53, 52, 52, 6),
    "4:(2,3)+(2,3)+(2,3)": (11, 10, 10, 3),
    "4:(2,3)+(2,5)": (11, 10, 10, 3),
    "4:(2,7)": (12, 11, 11, 3),
    "4:(3,4)": (10, 9, 9, 1),
    "5:(2,3)+(2,3)+(2,3)+(2,3)+(2,3)+(2,3)": (11, 10, 10, 2),
    "5:(2,3)+(2,3)+(2,3)+(2,3)+(2,5)": (11, 10, 10, 2),
    "5:(2,3)+(2,3)+(2,3)+(2,7)": (11, 10, 10, 2),
    "5:(2,3)+(2,3)+(2,3)+(3,4)": (12, 11, 11, 1),
    "5:(2,3)+(2,3)+(2,5)+(2,5)": (11, 10, 10, 2),
    "5:(2,3)+(2,3)+(2,9)": (11, 10, 10, 2),
    "5:(2,3)+(2,3)+(3,5)": (12, 11, 11, 1),
    "5:(2,3)+(2,5)+(2,7)": (11, 10, 10, 2),
    "5:(2,3)+(2,5)+(3,4)": (11, 10, 10, 1),
    "5:(2,3)+(2,11)": (11, 10, 10, 2),
    "5:(2,5)+(2,5)+(2,5)": (11, 10, 10, 2),
    "5:(2,5)+(2,9)": (11, 10, 10, 2),
    "5:(2,5)+(3,5)": (12, 11, 11, 1),
    "5:(2,7)+(2,7)": (11, 10, 10, 2),
    "5:(2,7)+(3,4)": (9, 8, 8, 1),
    "5:(2,13)": (11, 10, 10, 2),
    "5:(3,4)+(3,4)": (8, 7, 7, 0),
    "5:(3,7)": (9, 8, 8, 0),
    "5:(4,5)": (12, 11, 11, 1),
}


def _cap_name(recipe):
    if recipe.kind in ("QuarticMin", "QuinticMin"):
        cusps = "+".join(f"({c.p},{c.q})" for c in recipe.combo.cusps)
        return f"{recipe.combo.degree}:{cusps}"
    return f"{recipe.kind.removesuffix('_p')}{recipe.p or ''}"


def test_each_caps_search_counters_are_frozen(monkeypatch):
    count = [0, 0, 0]
    real_dfs, real_candidates = lattice._Search.dfs, lattice._Search.candidates
    real_distributions = lattice._distributions

    def dfs(self, pos, leaves):
        count[0] += 1
        real_dfs(self, pos, leaves)

    def counted(real, k):
        def wrapper(*args):
            for item in real(*args):
                count[k] += 1
                yield item

        return wrapper

    monkeypatch.setattr(lattice._Search, "dfs", dfs)
    monkeypatch.setattr(lattice, "_distributions", counted(real_distributions, 1))
    monkeypatch.setattr(lattice._Search, "candidates", counted(real_candidates, 2))
    recipes = [family_cap(kind, p) for kind, p in BENCH_CAPS] + [
        recipe
        for d in (4, 5)
        for combo, _ in gated_combos(d)
        for recipe in [cap_for_combo(combo)]
        if recipe is not None
    ]
    got = {}
    for recipe in recipes:
        count[:] = 0, 0, 0
        found = len(enumerate_embeddings(build_cap(recipe)))
        got[_cap_name(recipe)] = (*count, found)
    assert got == SEARCH_COUNTERS


def _numbered(sizes):
    # orbits of these sizes, their members numbered in order from 0
    starts = [sum(sizes[:o]) for o in range(len(sizes))]
    return [list(range(s, s + n)) for s, n in zip(starts, sizes)]


@st.composite
def distribution_instances(draw):
    # the caps only reach coefficients +-1; values and columns up to 2 in
    # size put the range cut, the early orbit exit, the scan of a lone
    # last unit and the exact join of the last two units to the test
    values = draw(st.lists(st.sampled_from((2, 1, -1, -2)), unique=True, max_size=4))
    groups = [(v, draw(st.integers(1, 3))) for v in sorted(values, reverse=True)]
    nu = draw(st.integers(0, 4))
    # orbits have distinct nonzero columns, as the search's do
    column = st.tuples(*[st.integers(-2, 2)] * nu).filter(any)
    cols = draw(st.lists(column, unique=True, max_size=4 if nu else 0))
    sizes = [draw(st.integers(1, 3)) for _ in cols]
    orbits = _numbered(sizes)
    fresh_start = sum(sizes)
    placements = list(_unpruned(groups, orbits, [0] * len(orbits), fresh_start))
    if draw(st.booleans()):
        targets = draw(st.lists(st.integers(-8, 8), min_size=nu, max_size=nu))
    else:
        # the pairings of one placement, so that something is yielded
        items, _ = draw(st.sampled_from(placements))
        col_of = {i: col for members, col in zip(orbits, cols) for i in members}
        targets = [sum(val * col_of[i][u] for i, val in items if i in col_of)
                   for u in range(nu)]
    return groups, sizes, cols, targets


def _filtered_placements(groups, sizes, cols, targets):
    # what _distributions yields and what the unpruned placements that
    # pair as required are, on orbits of these sizes
    orbits = _numbered(sizes)
    fresh_start = sum(sizes)
    part = _partition(orbits, _rows(cols), len(targets))
    owed = {u: r for u, r in enumerate(targets) if r}
    got = sorted(
        (tuple(sorted(items)), end)
        for items, end in lattice._distributions(
            groups, lattice._suffix_units(groups), part, owed
        )
    )
    want = sorted(
        (tuple(sorted(items)), end)
        for items, end in _unpruned(groups, orbits, [0] * len(orbits), fresh_start)
        if _pairs_as_required(items, orbits, cols, targets)
    )
    return got, want


@given(instance=distribution_instances())
@settings(max_examples=150, deadline=None)
def test_distributions_match_the_filtered_placements(instance):
    got, want = _filtered_placements(*instance)
    assert got == want


@pytest.mark.parametrize(
    "groups, sizes, cols, targets, found",
    [
        # two units of one value in one orbit: two free members, then one
        ([(-1, 2)], [2], [(1,)], [-2], 1),
        ([(-1, 2)], [1], [(1,)], [-2], 0),
        # o1 < o2 among rows that pay class 0 alike, and o1 >= oi once
        # the scan has placed the first of three units
        ([(-1, 3)], [1, 1, 1], [(1, 0), (1, 1), (1, -1)], [-2, 0], 1),
        # the same with the first unit of the next-to-last value, whose
        # partner may lie in an orbit below oi (class 0, orbit 2 only)
        ([(-1, 2), (-2, 1)], [2, 1, 1], [(0, 1), (0, 2), (1, 0)], [-2, -2], 2),
        # the unit of the last value in o1's own orbit, owed and not
        ([(-1, 1), (-2, 1)], [2], [(1,)], [-3], 1),
        ([(-1, 1), (-2, 1)], [1], [(1,)], [-3], 0),
        ([(1, 1), (-1, 1)], [2], [(1,)], [0], 2),
        # a fresh partner, for the first unit and for the second
        ([(1, 1), (-1, 1)], [1], [(1,)], [1], 1),
        ([(1, 1), (-1, 1)], [1], [(-1,)], [1], 1),
        # within one value, a first unit that pays nothing to the owed
        # class with the fewest orbits (class 0, orbit 1 only)
        ([(-1, 2)], [1, 1], [(0, 1), (1, 1)], [-1, -2], 1),
        # both fresh, across two values and within one
        ([(1, 1), (-1, 1)], [], [], [], 1),
        ([(-1, 2)], [1], [(1,)], [0], 1),
        # nothing owed: opposite rows cancel
        ([(-1, 2)], [1, 1], [(1,), (-1,)], [0], 2),
        # an owed class that no orbit carries
        ([(1, 1), (-1, 1)], [1], [(1, 0)], [0, 1], 0),
        # a lone last unit, scanned: into the orbit whose row is need / val
        ([(-2, 1)], [1, 1], [(1, 0), (1, 1)], [-2, -2], 1),
        # a value that does not divide the need
        ([(-2, 1)], [1], [(1,)], [-3], 0),
        # nothing owed: it goes fresh
        ([(-1, 1)], [1], [(1,)], [0], 1),
        # after two units in orbit 1, the orbit that pays the rest lies
        # below oi, and the placement was already found from orbit 0
        ([(-1, 3)], [1, 2], [(1,), (2,)], [-5], 1),
    ],
)
def test_the_last_two_units_join_as_the_unpruned_placements(
    groups, sizes, cols, targets, found
):
    got, want = _filtered_placements(groups, sizes, cols, targets)
    assert got == want
    assert len(got) == found


def _dense_orbits(cos, n_used):
    # the dense reading: one full column per index, grouped by value
    groups = {}
    for i in range(n_used):
        col = tuple(c.get(i, 0) for c in cos)
        groups.setdefault(col, []).append(i)
    ordered = sorted(groups.items(), key=lambda item: item[1][0])
    return [members for _, members in ordered], [col for col, _ in ordered]


@st.composite
def sparse_classes(draw):
    # explicit zeros too, which a dense column cannot tell from absence
    n_used = draw(st.integers(0, 8))
    coeff = st.integers(-2, 2)
    row = st.dictionaries(st.integers(0, n_used - 1), coeff) if n_used else st.just({})
    return draw(st.lists(row, max_size=5)), n_used


@given(instance=sparse_classes())
@settings(max_examples=300, deadline=None)
def test_orbits_match_the_dense_columns(instance):
    cos, n_used = instance
    # each index's column, as the search carries it: the (class, nonzero
    # coefficient) pairs in class order
    cols = [[(u, c[i]) for u, c in enumerate(cos) if c.get(i)] for i in range(n_used)]
    members, rows = orbits(cols)
    assert (members, _cols(rows, len(cos))) == _dense_orbits(cos, n_used)


# ---------------------------------------------------------------- embeddings


def test_a_family_unique_plane_embedding():
    for p in range(2, 7):
        g = cap("A_p", p=p)
        embs = enumerate_embeddings(g)
        assert len(embs) == 1
        (e,) = embs
        assert e.k == 0 and ambient(e) == "CP2"
        arm = next(v for v in range(g.n) if g.eulers[v] == -(p + 1))
        arm_class = "e0" + "".join(f"-e{i}" for i in range(1, p + 1))
        assert str(e.classes[arm]) == arm_class
        form = complement_form(e)
        assert form.rank == 0 and form.det == 1


def test_a2_exact_class_list():
    g = cap("A_p", p=2)
    (e,) = enumerate_embeddings(g)
    assert [str(c) for c in e.classes] == [
        "h", "e0-e1-e2", "e3-e4", "e2-e3", "e1-e2", "h-e0-e1",
    ]


def test_b_family_two_embeddings_plane_and_sphere_product():
    for p in (3, 4, 5):
        g = cap("B_p", p=p)
        embs = enumerate_embeddings(g)
        assert len(embs) == 2
        assert [e.k for e in embs] == [0, 1]
        assert ambient(embs[0]) == "CP2"
        assert ambient(embs[1]) == "S2xS2"
        af = ambient_form(embs[1])
        assert (af.rank, af.det, af.parity) == (2, -1, "even")
        comp = complement_form(embs[1])
        assert (comp.rank, comp.det) == (1, -4)
        (q,) = comp.basis
        assert q.square == -4
        assert sorted(c for _, c in q.coeffs) == [-1, 1, 1, 1]


def test_b2_has_the_extra_odd_embedding():
    embs = enumerate_embeddings(cap("B_p", p=2))
    assert len(embs) == 3
    assert [e.k for e in embs] == [0, 1, 1]
    names = sorted(ambient(e) for e in embs)
    assert names == ["CP2", "CP2#1", "S2xS2"]


def test_e3_three_embeddings():
    embs = enumerate_embeddings(cap("E3"))
    assert [e.k for e in embs] == [0, 1, 6]
    assert [ambient(e) for e in embs] == ["CP2", "CP2#1", "CP2#6"]
    assert [complement_form(e).det for e in embs] == [1, -16, 64]


def test_e6_six_embeddings_and_the_split_pair():
    embs = enumerate_embeddings(cap("E6"))
    assert [e.k for e in embs] == [0, 1, 4, 6, 6, 9]
    assert [ambient(e) for e in embs] == [
        "CP2", "CP2#1", "CP2#4", "CP2#6", "CP2#6", "CP2#9",
    ]
    dets = sorted(complement_form(e).det for e in embs if e.k == 6)
    assert dets == [64, 256]
    for e in embs:
        form = complement_form(e)
        assert form.rank == e.k
        assert negative_definite(form)


def test_quartic_tricuspidal_three_embeddings():
    embs = enumerate_embeddings(combo_cap(4, (2, 3), (2, 3), (2, 3)))
    assert len(embs) == 3
    assert [e.k for e in embs] == [0, 1, 1]


def test_quartic_bicuspidal_residual_forms():
    embs = enumerate_embeddings(combo_cap(4, (2, 3), (2, 5)))
    assert len(embs) == 3
    fingerprints = set()
    for e in embs:
        if e.k == 0:
            assert complement_form(e).rank == 0
            fingerprints.add("ball")
        else:
            af = ambient_form(e)
            assert (af.rank, af.det) == (2, -1)
            fingerprints.add(af.parity)
    assert fingerprints == {"ball", "even", "odd"}


QUINTIC_EXPECTED = {
    ((2, 3), (2, 3), (2, 3), (2, 7)): (0, 4),
    ((2, 3), (2, 3), (2, 5), (2, 5)): (0, 4),
    ((2, 3), (2, 3), (2, 9)): (0, 4),
    ((2, 3), (2, 5), (2, 7)): (0, 4),
    ((2, 3), (2, 5), (3, 4)): (0,),
    ((2, 3), (2, 11)): (0, 4),
    ((2, 5), (2, 5), (2, 5)): (0, 4),
    ((2, 5), (2, 9)): (0, 4),
    ((2, 5), (3, 5)): (0,),
    ((2, 7), (2, 7)): (0, 4),
    ((2, 7), (3, 4)): (0,),
    ((2, 13),): (0, 4),
    ((4, 5),): (0,),
}


def test_quintic_cap_embedding_census():
    ran = {}
    for combo, _ in gated_combos(5):
        if semigroup_condition(combo) is not None:
            continue
        if riemann_hurwitz_verdict(combo).failed:
            continue
        g = build_cap(cap_for_combo(combo))
        embs = enumerate_embeddings(g)
        ran[tuple((c.p, c.q) for c in combo.cusps)] = tuple(e.k for e in embs)
    assert ran == QUINTIC_EXPECTED


def test_obstructed_quintic_caps_have_no_embeddings():
    # both combos already fail the counting gate; their caps are also
    # homologically impossible, independently
    for pqs in (((3, 7),), ((3, 4), (3, 4))):
        combo = CuspCombo(5, tuple(CuspType(p, q) for p, q in pqs))
        g = build_cap(cap_for_combo(combo))
        assert enumerate_embeddings(g) == ()


# embedding lists of longer chains: A11..A14 and B7..B10 as the unpruned
# search gives them, A20, A40 and B18 as the orbit-by-orbit walk did
SCALING_KS = {
    **{("A_p", p): [0] for p in (*range(11, 15), 20, 40)},
    **{("B_p", p): [0, 1] for p in (*range(7, 11), 18)},
}


def test_scaling_census_frozen():
    for (kind, p), ks in SCALING_KS.items():
        assert [e.k for e in enumerate_embeddings(cap(kind, p))] == ks


def test_a30_has_one_plane_embedding():
    # a guard for the pruning: the unpruned search grew about 3x per +2 in p
    (e,) = enumerate_embeddings(cap("A_p", p=30))
    assert e.k == 0 and ambient(e) == "CP2"


# ---------------------------------------------------------------- invariants


STOCK = [
    ("A_p", 2), ("A_p", 5), ("B_p", 2), ("B_p", 3), ("E3", None), ("E6", None),
]


def test_complement_rank_matches_spare_index_count():
    for kind, p in STOCK:
        for e in enumerate_embeddings(cap(kind, p)):
            assert complement_form(e).rank == e.k


def test_span_and_complement_determinants_pair_to_a_square():
    for kind, p in STOCK:
        g = cap(kind, p)
        for e in enumerate_embeddings(g):
            prod = abs(int_det(pairings(g)) * complement_form(e).det)
            assert prod == _isqrt_exact(prod) ** 2


def _isqrt_exact(n):
    from math import isqrt

    return isqrt(n)


def test_neutral_chain_vertices_carry_difference_classes():
    for kind, p in STOCK:
        g = cap(kind, p)
        to_root = pairings(g)[g.root]
        for e in enumerate_embeddings(g):
            for v in range(g.n):
                if g.eulers[v] == -2 and to_root[v] == 0:
                    values = sorted(c for _, c in e.classes[v].coeffs)
                    assert values == [-1, 1]


def test_enumeration_is_deterministic():
    for kind, p in (("B_p", 2), ("E3", None)):
        g = cap(kind, p)
        assert enumerate_embeddings(g) == enumerate_embeddings(g)


def _permuted(g, perm):
    """The same configuration with vertex v renamed perm[v]."""
    old = sorted(range(g.n), key=perm.__getitem__)
    edges = [(*sorted((perm[u], perm[v])), o) for u, v, o in g.edges]
    corners = [tuple(sorted(perm[x] for x in tri)) for tri in g.corners]
    return PlumbingGraph(
        tuple(g.eulers[v] for v in old),
        tuple(g.labels[v] for v in old),
        tuple(sorted(edges)),
        tuple(sorted(corners)),
        perm[g.root],
    )


def _embedding_invariants(g):
    out = []
    for e in enumerate_embeddings(g):
        form = complement_form(e)
        image = blow_down_trace(e)
        status = catalog_lookup(image).status
        out.append((e.k, form.det, form.parity, status, tuple(sorted(image.degrees))))
    return sorted(out)


def _invariants_survive_shuffles(g, rng, shuffles):
    want = _embedding_invariants(g)
    for _ in range(shuffles):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert _embedding_invariants(_permuted(g, perm)) == want
    return want


def test_vertex_order_does_not_change_embeddings_or_verdicts():
    rng = random.Random(1907)
    graphs = (
        cap("E3"),
        cap("B_p", 2),
        combo_cap(5, (2, 3), (2, 5), (3, 4)),
        combo_cap(5, (2, 7), (3, 4)),
    )
    for g in graphs:
        assert _invariants_survive_shuffles(g, rng, 4)
    # and every +1 cap of degree at most 6, with embeddings or without
    for d in range(3, 7):
        for g in plus_one_caps(d):
            _invariants_survive_shuffles(g, rng, 3)


def _automorphisms(g):
    """The vertex permutations other than the identity that fix the root
    and keep every weight, edge order and corner, as lists v -> image."""
    m, corners = pairings(g), set(g.corners)
    rest = [v for v in range(g.n) if v != g.root]
    img = {g.root: g.root}
    out = []

    def extend(k):
        if k == len(rest):
            moved = {tuple(sorted(img[x] for x in tri)) for tri in corners}
            if moved == corners and any(img[v] != v for v in rest):
                out.append([img[v] for v in range(g.n)])
            return
        v = rest[k]
        for w in set(range(g.n)) - set(img.values()):
            if m[w][w] == m[v][v] and all(m[v][u] == m[w][x] for u, x in img.items()):
                img[v] = w
                extend(k + 1)
                del img[v]

    extend(0)
    return out


def _up_to_index_labels(classes):
    # an assignment with its exceptional indices forgotten: the degrees,
    # and each index's column of coefficients over the vertices, sorted
    cols = {}
    for v, c in enumerate(classes):
        for i, x in c.coeffs:
            cols.setdefault(i, [0] * len(classes))[v] = x
    return tuple(c.a0 for c in classes), tuple(sorted(map(tuple, cols.values())))


def test_automorphic_images_of_embeddings_are_already_listed():
    # a root-fixing automorphism of the cap carries each embedding to
    # another assignment of the same cap, which the search must list
    # once, up to the labels of the exceptional indices
    caps, found = [], 0
    for d in (4, 5, 6):
        symmetric = [(g, autos) for g in plus_one_caps(d) if (autos := _automorphisms(g))]
        caps.append(len(symmetric))
        for g, autos in symmetric:
            embs = enumerate_embeddings(g)
            listed = {_up_to_index_labels(e.classes) for e in embs}
            assert len(listed) == len(embs)
            for e in embs:
                for img in autos:
                    moved = [None] * g.n
                    for v, c in enumerate(e.classes):
                        moved[img[v]] = c
                    Embedding(g, tuple(moved), e.n_used)
                    assert _up_to_index_labels(moved) in listed
            found += len(embs)
    assert (caps, found) == ([2, 16, 51], 114)


def test_canonical_labels_do_not_depend_on_the_index_labels():
    # relabel the exceptional indices of each embedding, which shuffles
    # its columns: the canonical relabelling undoes it
    rng = random.Random(1907)
    graphs = [cap(kind, p) for kind, p in BENCH_CAPS] + _combo_caps((3, 4, 5))
    checked = 0
    for g in graphs:
        for e in enumerate_embeddings(g):
            a0s = [c.a0 for c in e.classes]
            for _ in range(5):
                perm = list(range(e.n_used))
                rng.shuffle(perm)
                cols = [[0] * g.n for _ in perm]
                for v, c in enumerate(e.classes):
                    for i, x in c.coeffs:
                        cols[perm[i]][v] = x
                assert lattice._canonical_classes(a0s, cols) == e.classes
                checked += 1
    assert checked == 340


def test_embedding_validation_catches_broken_assignments():
    g = cap("A_p", p=2)
    (e,) = enumerate_embeddings(g)
    broken = list(e.classes)
    broken[1], broken[2] = broken[2], broken[1]
    with pytest.raises(ValueError, match="vertex 1 violates adjunction"):
        Embedding(g, tuple(broken), e.n_used)
    with pytest.raises(ValueError, match="root must carry h"):
        Embedding(g, (HClass(2),) + e.classes[1:], e.n_used)
    # two fibres through the root, which meet nothing else
    g = PlumbingGraph(
        (1, 0, 0), ("C", "F1", "F2"), ((0, 1, 1), (0, 2, 1)), (), root=0
    )
    Embedding(g, (HClass(1), HClass.make(1, {0: -1}), HClass.make(1, {0: -1})), 1)
    # fibres on distinct indices: adjunction holds, but they meet once
    with pytest.raises(ValueError, match="classes at 1,2 miss the graph pairing"):
        Embedding(g, (HClass(1), HClass.make(1, {0: -1}), HClass.make(1, {1: -1})), 2)
    # K.F = -2 still, but F.F = -2 where the graph wants 0
    skew = HClass.make(1, {0: -1, 1: -1, 2: 1})
    with pytest.raises(ValueError, match="classes at 1,1 miss the graph pairing"):
        Embedding(g, (HClass(1), skew, HClass.make(1, {0: -1})), 3)
    # two disjoint (-2)-spheres beside the root: degree-zero classes keep
    # adjunction, but two that share their +1 pair to -1, not 0
    g = PlumbingGraph((1, -2, -2), ("C", "Z1", "Z2"), (), (), root=0)
    z1 = HClass.make(0, {0: 1, 1: -1})
    Embedding(g, (HClass(1), z1, HClass.make(0, {2: 1, 3: -1})), 4)
    with pytest.raises(ValueError, match="classes at 1,2 miss the graph pairing"):
        Embedding(g, (HClass(1), z1, HClass.make(0, {0: 1, 2: -1})), 3)


def test_dependent_classes_raise_rank_error():
    g = PlumbingGraph(
        (1, 0, 0), ("C", "F1", "F2"), ((0, 1, 1), (0, 2, 1)), (), root=0
    )
    fiber = HClass.make(1, {0: -1})
    e = Embedding(g, (HClass(1), fiber, fiber), 1)
    with pytest.raises(ValueError):
        complement_form(e)


def test_ambient_rejects_more_blowups_than_indices():
    (e,) = enumerate_embeddings(cap("A_p", p=2))
    assert ambient(e) == "CP2"
    # two fibres on one exceptional index: k = 1 - 2 < 0
    g = PlumbingGraph(
        (1, 0, 0), ("C", "F1", "F2"), ((0, 1, 1), (0, 2, 1)), (), root=0
    )
    fiber = HClass.make(1, {0: -1})
    with pytest.raises(ValueError):
        ambient(Embedding(g, (HClass(1), fiber, fiber), 1))


def test_embeddings_search_needs_a_connected_graph():
    # a +1 root and a -1 sphere that meets nothing
    g = PlumbingGraph((1, -1), ("C", "E"), (), (), root=0)
    with pytest.raises(ValueError, match="connected"):
        enumerate_embeddings(g)


def test_embeddings_search_needs_a_rooted_plus_one():
    g = cap("A_p", p=2)
    unrooted = PlumbingGraph(g.eulers, g.labels, g.edges, g.corners, root=None)
    with pytest.raises(ValueError):
        enumerate_embeddings(unrooted)
    rerooted = PlumbingGraph(g.eulers, g.labels, g.edges, g.corners, root=1)
    with pytest.raises(ValueError):
        enumerate_embeddings(rerooted)
