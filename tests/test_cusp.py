from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuspatlas.cusp import (
    CuspCombo,
    CuspType,
    combo_R,
    cusp_types_with_delta,
    enumerate_combos,
    fibonacci_index,
    mult_seq,
    ms_recognize,
    semigroup_condition,
    unicuspidal_families,
)
from cuspatlas.obstruct import riemann_hurwitz_verdict

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


def test_mult_seq_frozen():
    assert mult_seq(3, 11) == (3, 3, 3, 2)
    assert mult_seq(2, 5) == (2, 2)
    assert mult_seq(2, 3) == (2,)
    assert mult_seq(4, 5) == (4,)
    assert mult_seq(3, 5) == (3, 2)
    assert mult_seq(3, 22) == (3,) * 7
    assert mult_seq(6, 43) == (6,) * 7
    assert mult_seq(2, 13) == (2,) * 6


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
    assert CuspType(4, 5).semigroup_counts(6)[6] == 3  # {0, 4, 5}
    assert CuspType(3, 7).semigroup_counts(6)[6] == 2  # {0, 3}
    assert CuspType(2, 3).semigroup_counts(1)[1] == 1
    assert CuspType(2, 3).semigroup_counts(0)[0] == 0
    # the min-convolution is zero on nonpositive arguments
    assert combo_R(CuspCombo(3, (CuspType(2, 3),)), -3) == 0


@given(cusp_pairs, st.integers(0, 120))
def test_semigroup_R_against_oracle(pq, n):
    p, q = pq
    assert CuspType(p, q).semigroup_counts(n)[n] == len(semigroup_oracle(p, q, n))


@given(cusp_pairs)
def test_semigroup_R_stabilizes_past_conductor(pq):
    p, q = pq
    c = CuspType(p, q)
    # beyond the conductor 2*delta every integer is in the semigroup
    for n in (2 * c.delta, 2 * c.delta + 1, 2 * c.delta + 17):
        assert c.semigroup_counts(n)[n] == n - c.delta


def test_combo_validation():
    CuspCombo(5, (CuspType(4, 5),))
    with pytest.raises(ValueError):
        CuspCombo(5, (CuspType(2, 3),))
    with pytest.raises(ValueError):
        CuspCombo(5, ())


def test_combo_R_single_matches_semigroup_R():
    combo = CuspCombo(5, (CuspType(4, 5),))
    for n in range(0, 17):
        assert combo_R(combo, n) == CuspType(4, 5).semigroup_counts(n)[n]


def test_semigroup_condition_frozen():
    assert semigroup_condition(CuspCombo(5, (CuspType(4, 5),))) is None
    assert semigroup_condition(CuspCombo(5, (CuspType(3, 7),))) == 1
    assert semigroup_condition(CuspCombo(5, (CuspType(3, 4), CuspType(3, 4)))) == 1
    assert semigroup_condition(CuspCombo(5, (CuspType(2, 13),))) is None
    assert (
        semigroup_condition(CuspCombo(4, (CuspType(2, 5), CuspType(2, 3)))) is None
    )


def test_semigroup_condition_exact_failures_degree5():
    failing = {
        tuple(c.cusps)
        for c in enumerate_combos(5)
        if semigroup_condition(c) is not None
    }
    assert failing == {
        (CuspType(3, 7),),
        (CuspType(3, 4), CuspType(3, 4)),
    }


def test_riemann_hurwitz_exact_failures_degree5():
    failing = {
        tuple(c.cusps)
        for c in enumerate_combos(5)
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
        for combo in enumerate_combos(d):
            assert not riemann_hurwitz_verdict(combo).failed


def test_enumerate_combos_counts():
    assert len(enumerate_combos(3)) == 1
    assert len(enumerate_combos(4)) == 4
    assert len(enumerate_combos(5)) == 19
    for degree in (2, 0, -9):
        with pytest.raises(ValueError, match="degree >= 3"):
            enumerate_combos(degree)


def test_enumerate_combos_contents_degree4():
    combos = [c.cusps for c in enumerate_combos(4)]
    assert (CuspType(3, 4),) in combos
    assert (CuspType(2, 7),) in combos
    assert (CuspType(2, 3), CuspType(2, 5)) in combos
    assert (CuspType(2, 3),) * 3 in combos


def test_enumerate_combos_deterministic():
    assert enumerate_combos(5) == enumerate_combos(5)


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
