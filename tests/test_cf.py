from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import cf_dual, continuant, dfs_zero_strings

from cuspatlas.cf import _split, cf_expand, enumerate_zero_strings, excess, fib


def eval_oracle(seq):
    """Independent evaluator: right to left on Fractions, None = infinity."""
    value = None
    for m in reversed(seq):
        if value is None:
            value = Fraction(m)
        elif value == 0:
            value = None
        else:
            value = Fraction(m) - 1 / value
    return value


def continuant_value(seq):
    """The value as the continuant pair K(seq)/K(seq[1:]), None = infinity;
    the empty string is the identity matrix, first column (1, 0)."""
    den = continuant(seq[1:]) if seq else 0
    return None if den == 0 else Fraction(continuant(seq), den)


coprime_pairs = st.integers(2, 400).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.integers(1, p - 1).filter(lambda q: gcd(p, q) == 1),
    )
)


def test_expand_frozen():
    assert cf_expand(22, 7) == (4, 2, 2, 2, 2, 2, 2)
    assert cf_expand(43, 7) == (7, 2, 2, 2, 2, 2, 2)
    assert cf_expand(25, 21) == (2, 2, 2, 2, 2, 5)
    assert cf_expand(4, 1) == (4,)
    assert cf_expand(4, 3) == (2, 2, 2)
    assert cf_expand(7, 3) == (3, 2, 2)
    assert cf_expand(2, 1) == (2,)


def test_expand_rejects_bad_input():
    with pytest.raises(ValueError):
        cf_expand(4, 2)
    with pytest.raises(ValueError):
        cf_expand(3, 3)


def test_eval_frozen():
    for value in (eval_oracle, continuant_value):
        assert value((2, 2)) == Fraction(3, 2)
        assert value((2, 1, 2)) == 0
        assert value(()) is None
        assert value((4,)) == 4
        assert value((1, 1)) == 0  # the shortest zero string
        assert value((1, 1, 1)) is None  # [1,1] = 0, then 1 - 1/0


def test_eval_agrees_with_oracle_small():
    for length in range(5):
        for seq in product(range(1, 4), repeat=length):
            assert continuant_value(seq) == eval_oracle(seq)
            assert (continuant(seq) == 0) == (eval_oracle(seq) == 0)


@given(coprime_pairs)
def test_expand_eval_roundtrip(pq):
    p, q = pq
    seq = cf_expand(p, q)
    assert all(m >= 2 for m in seq)
    assert eval_oracle(seq) == Fraction(p, q)


@given(coprime_pairs)
def test_continuant_matches_eval(pq):
    p, q = pq
    seq = cf_expand(p, q)
    assert Fraction(continuant(seq), continuant(seq[1:])) == Fraction(p, q)


@given(coprime_pairs)
def test_riemenschneider_duality(pq):
    p, q = pq
    seq = cf_expand(p, q)
    dual = cf_dual(seq)
    assert eval_oracle(dual) == Fraction(p, p - q)
    # total weight is preserved: sum(a_i - 1) = sum(b_j - 1)
    assert sum(m - 1 for m in seq) == sum(m - 1 for m in dual)
    assert cf_dual(dual) == seq


def test_dual_frozen():
    assert cf_dual((2, 2, 2)) == (4,)
    assert cf_dual((4,)) == (2, 2, 2)


@given(coprime_pairs)
def test_reversal_inverts_q(pq):
    p, q = pq
    # [a_l, ..., a_1] expands p / (q^{-1} mod p)
    seq = cf_expand(p, q)
    assert tuple(reversed(seq)) == cf_expand(p, pow(q, -1, p))


def test_zero_strings_frozen_sets():
    assert enumerate_zero_strings((2, 2, 2)) == [(1, 2, 1), (2, 1, 2)]
    assert enumerate_zero_strings((2, 2, 2, 2, 2, 5)) == [
        (1, 1, 1, 1, 2, 1),
        (1, 1, 1, 2, 1, 2),
        (1, 1, 2, 1, 2, 1),
        (1, 1, 2, 2, 1, 2),
        (1, 2, 1, 1, 1, 1),
        (1, 2, 1, 2, 1, 1),
        (1, 2, 2, 2, 2, 1),
        (2, 1, 1, 1, 1, 2),
        (2, 1, 2, 1, 1, 1),
        (2, 1, 2, 2, 1, 1),
        (2, 2, 2, 2, 1, 5),
    ]
    # all-2 bounds, counts by length
    assert [len(enumerate_zero_strings((2,) * l)) for l in range(2, 7)] == [
        1, 2, 1, 3, 10,
    ]
    assert enumerate_zero_strings((4,)) == []
    assert enumerate_zero_strings(()) == []


def test_zero_strings_exhaustive_against_bruteforce():
    for bounds in [(2, 2, 2), (3, 2, 4), (2, 2, 2, 2), (4, 3, 2, 3), (2, 3, 2, 3, 2)]:
        below = product(*(range(1, b + 1) for b in bounds))
        expected = [m for m in below if eval_oracle(m) == 0]
        assert enumerate_zero_strings(bounds) == expected


@given(st.lists(st.integers(1, 4), min_size=1, max_size=6).map(tuple))
@settings(max_examples=200)
def test_zero_strings_lexicographic_and_valid(bounds):
    found = enumerate_zero_strings(bounds)
    assert found == sorted(found)
    for m in found:
        assert continuant(m) == 0
        assert all(1 <= mi <= ni for mi, ni in zip(m, bounds))


def test_zero_string_reversal_closure():
    # the continuant is palindromic-symmetric, so zero strings under
    # symmetric bounds are closed under reversal
    bounds = (3, 2, 3, 2, 3)
    found = set(enumerate_zero_strings(bounds))
    assert found
    for m in found:
        assert tuple(reversed(m)) in found


@given(st.lists(st.integers(1, 4), max_size=7).map(tuple))
@example((1,) * 7)
@example((4,) * 7)
@settings(max_examples=60, deadline=None)
def test_zero_strings_match_the_oracle_filter(bounds):
    # entries of 1 make prefixes pass through infinity, as in (1, 1, 1)
    below = product(*(range(1, b + 1) for b in bounds))
    expected = [m for m in below if eval_oracle(m) == 0]
    assert enumerate_zero_strings(bounds) == expected


# the oracle walks the whole product space, so its bounds stay below 2^16
@given(
    st.lists(st.integers(1, 4), max_size=12)
    .map(tuple)
    .filter(lambda n: prod(n) <= 1 << 16)
)
# the bounds of L(274,207), L(535,48) and L(453,364), shaped like the
# lens listing pool: a long run of 2s between larger entries
@example((5,) + (2,) * 10 + (7,))
@example((2,) * 10 + (8, 7))
@example((6,) + (2,) * 10 + (9,))
@settings(max_examples=150, deadline=None)
def test_zero_strings_match_the_plain_walk(bounds):
    # the same list in the same order as the depth-first walk
    assert enumerate_zero_strings(bounds) == dfs_zero_strings(bounds)


@pytest.mark.parametrize(
    "bounds, split",
    [
        # length 1 and all-1 bounds split at the first entry, so the
        # table is the whole space and the walk is one lookup
        ((7,), 0),
        ((1,), 0),
        ((1, 1), 0),
        ((1,) * 5, 0),
        ((1,) * 8, 0),
        ((2, 1), 1),  # a last bound of 1: the table holds only (1,)
        ((3, 2, 2, 1), 2),
        ((40, 2, 3), 1),  # the split right after the first entry
        ((2, 2, 2, 2, 2, 5), 4),
    ],
)
def test_zero_strings_at_the_split_edges(bounds, split):
    assert _split(bounds) == split
    assert enumerate_zero_strings(bounds) == dfs_zero_strings(bounds)
    below = product(*(range(1, b + 1) for b in bounds))
    assert enumerate_zero_strings(bounds) == [m for m in below if eval_oracle(m) == 0]


def test_excess():
    assert excess((2, 2, 2, 2, 2, 5), (2, 2, 2, 2, 1, 5)) == 1
    assert excess((2, 2, 2), (1, 2, 1)) == 2
    with pytest.raises(ValueError):
        excess((2, 2), (2,))


def test_fib():
    assert [fib(i) for i in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
