from collections import Counter
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cuspatlas.cusp as cusp_module
from cuspatlas.cusp import (
    CuspCombo,
    CuspType,
    _counting,
    _gap_table,
    _lanes,
    _shifts,
    cusp_types_with_delta,
    family_combo,
    family_of,
    fibonacci_index,
    gated_combos,
    mult_seq,
    mult_seq_length,
    ms_recognize,
    semigroup_condition,
    unicuspidal_families,
)
from cuspatlas.cf import fib
from cuspatlas.obstruct import riemann_hurwitz_verdict, semigroup_verdict
from oracles import counting_function, gap_table

cusp_pairs = st.integers(2, 12).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.integers(p + 1, 60).filter(lambda q: gcd(p, q) == 1),
    )
)


def semigroup_oracle(p, q, upto):
    """Independent semigroup membership: direct double loop."""
    members = set()
    for a in range(0, upto // p + 1):
        for b in range(0, upto // q + 1):
            if a * p + b * q < upto:
                members.add(a * p + b * q)
    return members


def semigroup_R(c, n):
    """R(n) = n - G(min(n, conductor)), read off the cusp's gap table."""
    return n - c.gap_counts()[min(n, c.conductor)]


def semigroup_counts_oracle(c, upto):
    """R(n) for n = 0 .. upto, from semigroup membership."""
    member = [False] * max(upto, 1)
    for a in range(0, max(upto, 1), c.p):
        for b in range(a, max(upto, 1), c.q):
            member[b] = True
    counts = [0]
    for n in range(upto):
        counts.append(counts[-1] + (1 if member[n] else 0))
    return counts[: upto + 1]


def min_convolution_oracle(cusps, n):
    """(R1 <> R2 <> ...)(n), the min-convolution rebuilt from scratch:
    min_k R1(k) + R2(n-k) over k in [0, n], 0 for n <= 0."""
    if n <= 0:
        return 0
    tables = [semigroup_counts_oracle(c, n) for c in cusps]
    acc = tables[0]
    for table in tables[1:]:
        acc = [
            min(acc[k] + table[m - k] for k in range(m + 1)) for m in range(n + 1)
        ]
    return acc[n]


def semigroup_witness_oracle(combo):
    """The first failing j of the Borodzik-Livingston gate with its
    witness, or None, from the min-convolution oracle."""
    d = combo.degree
    for j in range(-1, d - 1):
        got = min_convolution_oracle(combo.cusps, j * d + 1)
        want = (j + 1) * (j + 2) // 2
        if got != want:
            return {"j": j, "argument": j * d + 1, "value": got, "required": want}
    return None


def test_mult_seq_frozen():
    assert mult_seq(3, 11) == (3, 3, 3, 2)
    assert mult_seq(2, 5) == (2, 2)
    assert mult_seq(2, 3) == (2,)
    assert mult_seq(4, 5) == (4,)
    assert mult_seq(3, 5) == (3, 2)
    assert mult_seq(3, 22) == (3,) * 7
    assert mult_seq(6, 43) == (6,) * 7
    assert mult_seq(2, 13) == (2,) * 6


def test_mult_seq_opens_with_p_then_the_least_of_p_and_q_minus_p():
    # the two multiplicities the Riemann-Hurwitz gate reads, without the
    # whole sequence; a second of 1 stands for none
    types = [c for k in range(1, 46) for c in cusp_types_with_delta(k)]
    assert len(types) > 100
    for c in types:
        seq = mult_seq(c.p, c.q) + (1,)
        assert seq[:2] == (c.p, min(c.p, c.q - c.p)), c


@given(cusp_pairs)
def test_mult_seq_absorbs_delta(pq):
    p, q = pq
    seq = mult_seq(p, q)
    # sum of m(m-1)/2 over the sequence equals delta = (p-1)(q-1)/2
    assert sum(m * (m - 1) for m in seq) == (p - 1) * (q - 1)
    assert seq[0] == p
    assert all(a >= b for a, b in zip(seq, seq[1:]))


@given(cusp_pairs)
def test_ms_recognize_roundtrip(pq):
    p, q = pq
    assert ms_recognize(mult_seq(p, q)) == CuspType(p, q)


def test_ms_recognize_frozen():
    assert ms_recognize((3, 2, 2)) is None
    assert ms_recognize((4,)) == CuspType(4, 5)
    assert ms_recognize((2, 2)) == CuspType(2, 5)
    assert ms_recognize((3, 2, 2, 2)) is None
    assert ms_recognize((1, 1)) is None
    assert ms_recognize(()) is None
    assert ms_recognize((2, 3)) is None


def test_ms_recognize_agrees_with_a_table_of_every_sequence():
    # every sequence of length <= 5 with entries 1..9 that some cusp has
    # comes from p = its first entry <= 9 and q <= 5 * 9 + 9, so the
    # table of mult_seq(p, q) over p <= 9, q <= 100 holds all of them
    table = {
        mult_seq(p, q): CuspType(p, q)
        for p in range(2, 10)
        for q in range(p + 1, 101)
        if gcd(p, q) == 1
    }
    seen = 0
    for n in range(6):
        for seq in product(range(1, 10), repeat=n):
            assert ms_recognize(seq) == table.get(seq), seq
            seen += seq in table
    assert seen > 0
    # ms_recognize is given lists too
    assert ms_recognize([3, 2]) == CuspType(3, 5)


def test_mult_seq_length_counts_the_table_without_building_it():
    # the length ms_recognize and the invariants command count first
    pairs = [(p, q) for p in range(2, 10) for q in range(p + 1, 101) if gcd(p, q) == 1]
    for p, q in pairs:
        assert mult_seq_length(p, q) == len(mult_seq(p, q)), (p, q)
    assert mult_seq_length(2, 10**18 + 1) == 5 * 10**17


def test_ms_recognize_work_stays_within_the_input_length(monkeypatch):
    # the only candidate for (p, 2) is (p, p + 2), whose sequence holds
    # (p - 1) / 2 twos: it is rejected by its length, never built
    assert ms_recognize((10**12,)) == CuspType(10**12, 10**12 + 1)

    def build(p, q):
        assert len(str(q)) < 9, f"mult_seq({p}, {q}) built"
        return mult_seq(p, q)

    monkeypatch.setattr(cusp_module, "mult_seq", build)
    assert ms_recognize((10**12 + 1, 2)) is None
    assert ms_recognize((10**12 + 1, 2, 2)) is None
    assert ms_recognize((10**12 + 1, 10**12 + 1, 2)) is None
    assert ms_recognize((5, 2, 2)) == CuspType(5, 7)


def test_cusp_type_validation():
    with pytest.raises(ValueError):
        CuspType(2, 4)
    with pytest.raises(ValueError):
        CuspType(5, 3)
    with pytest.raises(ValueError):
        CuspType(1, 3)


def test_delta_milnor():
    assert CuspType(2, 3).delta == 1
    assert CuspType(4, 5).delta == 6
    assert CuspType(2, 13).delta == 6
    assert CuspType(3, 22).delta == 21
    assert CuspType(2, 3).milnor == 2


def test_semigroup_R_frozen():
    assert semigroup_R(CuspType(4, 5), 6) == 3  # {0, 4, 5}
    assert semigroup_R(CuspType(3, 7), 6) == 2  # {0, 3}
    assert semigroup_R(CuspType(2, 3), 1) == 1
    assert semigroup_R(CuspType(2, 3), 0) == 0
    # the min-convolution is zero on nonpositive arguments
    lanes = _lanes(3)
    assert _counting(0, _shifts(CuspType(2, 3), lanes), -3, lanes) == 0


@given(cusp_pairs, st.integers(0, 120))
def test_semigroup_R_against_oracle(pq, n):
    p, q = pq
    assert semigroup_R(CuspType(p, q), n) == len(semigroup_oracle(p, q, n))


@given(cusp_pairs)
def test_semigroup_R_stabilizes_past_conductor(pq):
    p, q = pq
    c = CuspType(p, q)
    # beyond the conductor 2*delta every integer is in the semigroup
    assert c.conductor == 2 * c.delta
    assert len(c.gap_counts()) == c.conductor + 1
    for n in (2 * c.delta, 2 * c.delta + 1, 2 * c.delta + 17):
        assert semigroup_R(c, n) == n - c.delta


def test_combo_validation():
    CuspCombo(5, (CuspType(4, 5),))
    with pytest.raises(ValueError):
        CuspCombo(5, (CuspType(2, 3),))
    with pytest.raises(ValueError):
        CuspCombo(5, ())


def test_combo_R_single_matches_semigroup_R():
    # one cusp after the empty prefix, whose packed gap table is 0; the
    # reader's last field at degree 5 is n = 16
    lanes = _lanes(5)
    shifts = _shifts(CuspType(4, 5), lanes)
    for n in range(0, 17):
        assert _counting(0, shifts, n, lanes) == semigroup_R(CuspType(4, 5), n)


@st.composite
def random_combos(draw):
    """A genus-balanced cusp multiset at a random degree 3..7, cusp by
    cusp from every type whose delta still fits."""
    degree = draw(st.integers(3, 7))
    remaining = (degree - 1) * (degree - 2) // 2
    cusps = []
    while remaining:
        fits = [c for k in range(1, remaining + 1) for c in cusp_types_with_delta(k)]
        cusps.append(draw(st.sampled_from(fits)))
        remaining -= cusps[-1].delta
    return CuspCombo(degree, tuple(cusps))


@settings(max_examples=60, deadline=None)
@given(random_combos())
# (2,7) read last after (3,4) needs the k = 0 term at n = 3
@example(CuspCombo(5, (CuspType(2, 7), CuspType(3, 4))))
def test_gap_table_matches_the_min_convolution(combo):
    # the list fold of the test oracles, the reference of the packed
    # fold above degree 7
    total = sum(c.conductor for c in combo.cusps)
    assert total == (combo.degree - 1) * (combo.degree - 2)
    assert len(gap_table(combo.cusps)) == total + 1
    want = {n: min_convolution_oracle(combo.cusps, n) for n in range(-5, total + 6)}
    # past the end of the table, R(n) = n - genus
    assert want[total + 5] == total + 5 - total // 2
    # the table of the other cusps, read with one last cusp; the
    # convolution commutes, so each cusp is read last in turn (the gate
    # reads the largest last, where the k = 0 term never wins)
    for i, last in enumerate(combo.cusps):
        head = gap_table(combo.cusps[:i] + combo.cusps[i + 1 :])
        for n in range(-5, total + 6):
            assert counting_function(head, last.gap_rises(), n) == want[n], (i, n)


def cusp_types_up_to(genus):
    """Every one-Puiseux-pair type with delta <= genus."""
    return [
        CuspType(p, q)
        for p in range(2, 2 * genus + 2)
        for q in range(p + 1, 2 * genus // (p - 1) + 2)
        if gcd(p, q) == 1
    ]


@st.composite
def balanced_combos(draw):
    """A genus-balanced cusp multiset at a random degree 3..40, cusp by
    cusp from every type whose delta still fits."""
    degree = draw(st.integers(3, 40))
    remaining = (degree - 1) * (degree - 2) // 2
    types = cusp_types_up_to(remaining)
    cusps = []
    while remaining:
        cusps.append(draw(st.sampled_from([c for c in types if c.delta <= remaining])))
        remaining -= cusps[-1].delta
    return CuspCombo(degree, tuple(cusps))


def unpacked(table, lanes):
    """Every field of a packed gap table, n = 0 .. (d-1)^2, guard bit
    included."""
    field = (1 << lanes.width) - 1
    return [
        table >> lanes.top - n * lanes.width & field
        for n in range(lanes.top // lanes.width + 1)
    ]


def reference_table(cusps, degree):
    """H(n) for n = 0 .. (d-1)^2: from the min-convolution oracle through
    degree 7, and from the list fold held at its last value above."""
    last = (degree - 1) ** 2
    if not cusps:
        return [0] * (last + 1)
    if degree <= 7:
        return [n - min_convolution_oracle(cusps, n) for n in range(last + 1)]
    table = gap_table(cusps)
    return (table + [table[-1]] * last)[: last + 1]


def field_width_examples(test):
    """Where the field width grows or a field fills up: genus 15 fills
    four value bits, and d = 12 -> 13 and 17 -> 18 cross a power of two.
    Each degree gets its A_p curve and (2,3) read before (2, 2g - 1)."""
    for d in (7, 8, 12, 13, 17, 18):
        genus = (d - 1) * (d - 2) // 2
        test = example(CuspCombo(d, (CuspType(d - 1, d),)))(test)
        test = example(CuspCombo(d, (CuspType(2, 3), CuspType(2, 2 * genus - 1))))(test)
    return test


@settings(max_examples=40, deadline=None)
@given(balanced_combos())
@field_width_examples
def test_packed_fold_and_reader_are_exact_at_every_field_width(combo):
    d = combo.degree
    lanes = _lanes(d)
    *prefix, tail = combo.cusps
    whole = reference_table(combo.cusps, d)
    assert unpacked(_gap_table(combo.cusps, lanes), lanes) == whole
    head = _gap_table(prefix, lanes)
    assert unpacked(head, lanes) == reference_table(prefix, d)
    # the reader, with the combo's last cusp read over the others, as
    # at the gate
    shifts = _shifts(tail, lanes)
    for n in range(-3, (d - 1) ** 2 + 1):
        assert _counting(head, shifts, n, lanes) == max(n - whole[max(n, 0)], 0), n


def test_gate_and_witness_match_the_oracle_through_degree_7():
    combos = [c for d in range(4, 8) for c, _ in gated_combos(d)]
    want = [semigroup_witness_oracle(c) for c in combos]
    for combo, w in zip(combos, want):
        gate = semigroup_condition(combo)
        v = semigroup_verdict(combo, gate)
        assert v.witness == w, combo
        assert v.failed == (w is not None)
        assert gate == (None if w is None else (w["j"], w["value"]))
    assert sum(w is None for w in want) == 4 + 17 + 57 + 171


def test_enumerator_gate_matches_the_single_combo_gate():
    # the walk's outcome from shared prefix tables, against the gate of
    # a combo rebuilt from the same cusps (which the test above holds to
    # the oracle through degree 7)
    for degree in range(4, 9):
        for combo, gate in gated_combos(degree):
            assert gate == semigroup_condition(CuspCombo(degree, combo.cusps)), combo


def test_semigroup_pass_counts_frozen():
    # the degree-9 count was checked once against the min-convolution
    # oracle; each count maps the first failing j to its combos, None to
    # those that pass
    for degree, total, first in (
        (8, 4704, {1: 2411, 2: 1515, None: 778}),
        (9, 37135, {1: 26658, 2: 7209, 3: 1723, None: 1545}),
    ):
        gates = [gate for _, gate in gated_combos(degree)]
        assert len(gates) == total
        assert Counter(None if gate is None else gate[0] for gate in gates) == first


def test_semigroup_condition_frozen():
    # the first failing j with R(jd + 1), or None
    assert semigroup_condition(CuspCombo(5, (CuspType(4, 5),))) is None
    assert semigroup_condition(CuspCombo(5, (CuspType(3, 7),))) == (1, 2)
    assert semigroup_condition(CuspCombo(5, (CuspType(3, 4), CuspType(3, 4)))) == (1, 2)
    assert semigroup_condition(CuspCombo(5, (CuspType(2, 13),))) is None
    assert (
        semigroup_condition(CuspCombo(4, (CuspType(2, 5), CuspType(2, 3)))) is None
    )


def test_semigroup_condition_exact_failures_degree5():
    failing = {
        tuple(c.cusps)
        for c, _ in gated_combos(5)
        if semigroup_condition(c) is not None
    }
    assert failing == {
        (CuspType(3, 7),),
        (CuspType(3, 4), CuspType(3, 4)),
    }


def test_riemann_hurwitz_exact_failures_degree5():
    failing = {
        tuple(c.cusps)
        for c, _ in gated_combos(5)
        if riemann_hurwitz_verdict(c).failed
    }
    assert failing == {
        (CuspType(2, 3),) * 6,
        (CuspType(2, 3),) * 4 + (CuspType(2, 5),),
        (CuspType(2, 3),) * 3 + (CuspType(3, 4),),
        (CuspType(2, 3),) * 2 + (CuspType(3, 5),),
    }


def test_riemann_hurwitz_passes_low_degrees():
    for d in (3, 4):
        for combo, _ in gated_combos(d):
            assert not riemann_hurwitz_verdict(combo).failed


def test_enumerate_combos_counts():
    assert len(gated_combos(3)) == 1
    assert len(gated_combos(4)) == 4
    assert len(gated_combos(5)) == 19
    for degree in (2, 0, -9):
        with pytest.raises(ValueError, match="degree >= 3"):
            gated_combos(degree)


def test_enumerate_combos_contents_degree4():
    combos = [c.cusps for c, _ in gated_combos(4)]
    assert (CuspType(3, 4),) in combos
    assert (CuspType(2, 7),) in combos
    assert (CuspType(2, 3), CuspType(2, 5)) in combos
    assert (CuspType(2, 3),) * 3 in combos


def test_enumerate_combos_deterministic():
    assert [c for c, _ in gated_combos(5)] == [c for c, _ in gated_combos(5)]


def enumerate_combos_oracle(degree):
    """The enumeration by delta with a CuspType floor, then sorted."""
    genus = (degree - 1) * (degree - 2) // 2
    by_delta = {k: cusp_types_with_delta(k) for k in range(1, genus + 1)}
    results = []

    def extend(remaining, chosen, floor):
        if remaining == 0:
            results.append(tuple(chosen))
            return
        for k in range(1, remaining + 1):
            for c in by_delta[k]:
                if floor is not None and c < floor:
                    continue
                chosen.append(c)
                extend(remaining - k, chosen, c)
                chosen.pop()

    extend(genus, [], None)
    combos = [CuspCombo(degree, cs) for cs in results]
    combos.sort(key=lambda combo: combo.cusps)
    return combos


def test_enumerate_combos_match_the_oracle_through_degree_8():
    for degree in range(3, 9):
        got, want = [c for c, _ in gated_combos(degree)], enumerate_combos_oracle(degree)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a == b and a.cusps == b.cusps


def test_unicuspidal_families_frozen():
    assert unicuspidal_families(5) == [CuspType(2, 13), CuspType(4, 5)]
    assert unicuspidal_families(8) == [
        CuspType(3, 22),
        CuspType(4, 15),
        CuspType(7, 8),
    ]
    assert CuspType(6, 43) in unicuspidal_families(16)
    assert CuspType(5, 34) in unicuspidal_families(13)  # Fibonacci member
    assert [fibonacci_index(d) for d in (4, 5, 13, 34)] == [None, 5, 7, 9]


def unicuspidal_families_oracle(degree: int) -> list[CuspType]:
    """The family list as written out by hand, one formula per family."""
    found = set()
    if degree >= 3:
        found.add(CuspType(degree - 1, degree))
    if degree >= 4 and degree % 2 == 0:
        found.add(CuspType(degree // 2, 2 * degree - 1))
    if degree == 8:
        found.add(CuspType(3, 22))
    if degree == 16:
        found.add(CuspType(6, 43))
    j = fibonacci_index(degree)
    if j is not None:
        found.add(CuspType(fib(j - 2), fib(j + 2)))
    j = 3
    while fib(j) * fib(j + 2) <= degree:
        if fib(j) * fib(j + 2) == degree:
            found.add(CuspType(fib(j) ** 2, fib(j + 2) ** 2))
        j += 2
    return sorted(found)


def test_unicuspidal_families_match_the_oracle():
    for d in range(3, 401):
        assert unicuspidal_families(d) == unicuspidal_families_oracle(d), d


@pytest.mark.parametrize("degree", [2, 1, 0, -5])
def test_unicuspidal_families_reject_degrees_below_three(degree):
    # as gated_combos and CuspCombo do: there is no plane cuspidal curve
    # of degree below 3, and a negative degree is a typo, not an empty list
    with pytest.raises(ValueError, match=f"degree >= 3, got {degree}"):
        unicuspidal_families(degree)


NAMED = (
    [("A_p", p) for p in range(2, 61)]
    + [("B_p", p) for p in range(2, 31)]
    + [("E3", None), ("E6", None)]
)


def test_family_table_round_trip():
    for kind, p in NAMED:
        combo = family_combo(kind, p)
        assert len(combo.cusps) == 1
        assert family_of(combo.cusps[0], combo.degree) == (kind, p)
        assert combo.cusps[0] in unicuspidal_families(combo.degree)


def test_family_members_frozen():
    assert family_combo("A_p", 4) == CuspCombo(5, (CuspType(4, 5),))
    assert family_combo("B_p", 3) == CuspCombo(6, (CuspType(3, 11),))
    assert family_combo("E3") == CuspCombo(8, (CuspType(3, 22),))
    assert family_combo("E6") == CuspCombo(16, (CuspType(6, 43),))


def test_family_of_misses_off_family_curves():
    named = {(c.cusps[0], c.degree) for c in (family_combo(k, p) for k, p in NAMED)}
    for degree in range(3, 9):
        for combo, _ in gated_combos(degree):
            if len(combo.cusps) == 1 and (combo.cusps[0], degree) not in named:
                assert family_of(combo.cusps[0], degree) is None
    assert family_of(CuspType(3, 22), 9) is None
    assert family_of(CuspType(5, 34), 13) is None  # Fibonacci, not a cap family


def test_family_combo_rejects_bad_names_and_parameters():
    for kind, p in [("A_p", None), ("B_p", 1), ("E3", 2), ("F", None)]:
        with pytest.raises(ValueError):
            family_combo(kind, p)
