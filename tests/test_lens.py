"""Lens space filling strings, ball recognition, the Wahl family."""

import json
from math import gcd, prod

import pytest
from hypothesis import given, settings
from oracles import continuant
from test_cf import coprime_pairs, eval_oracle

from cuspatlas.cf import excess, fib
from cuspatlas.lens import (
    LensSpace,
    _excess_one,
    bounds,
    fibonacci_boundary,
    filling_strings,
    rational_ball_string,
    to_dict,
    wahl_family,
)


def test_lens_validation():
    for p, q in ((4, 2), (1, 1), (5, 5), (5, 0)):
        with pytest.raises(ValueError):
            LensSpace(p, q)


def test_inverse_and_str():
    L = LensSpace(25, 21)
    assert L.q_inv == 6
    assert str(L) == "L(25,21)"


def test_wahl_recognition():
    assert wahl_family(LensSpace(25, 4)) == (5, 1)
    assert wahl_family(LensSpace(9, 5)) == (3, 2)
    assert wahl_family(LensSpace(9, 2)) == (3, 1)
    assert wahl_family(LensSpace(4, 1)) == (2, 1)
    assert wahl_family(LensSpace(16, 3)) == (4, 1)
    assert wahl_family(LensSpace(7, 3)) is None
    assert wahl_family(LensSpace(4, 3)) is None
    assert wahl_family(LensSpace(16, 9)) is None


def test_bounds_convention():
    assert bounds(LensSpace(25, 4)) == (2, 2, 2, 2, 2, 5)
    assert bounds(LensSpace(25, 21)) == (7, 2, 2, 2)
    assert bounds(LensSpace(4, 1)) == (2, 2, 2)
    assert bounds(LensSpace(7, 6)) == (7,)


def test_the_excess_is_the_euler_characteristic_of_the_filling():
    # L(4,1) bounds the -4 disk bundle (b2 = 1) and a rational ball
    # (b2 = 0); each string's excess is its filling's b2 + 1
    L = LensSpace(4, 1)
    assert filling_strings(L) == [((1, 2, 1), 2), ((2, 1, 2), 1)]
    assert rational_ball_string(L) == (2, 1, 2)
    assert [excess(bounds(L), m) for m, _ in filling_strings(L)] == [2, 1]


def test_filling_strings_small():
    assert dict(filling_strings(LensSpace(4, 1))) == {(1, 2, 1): 2, (2, 1, 2): 1}
    assert filling_strings(LensSpace(7, 6)) == []
    ones = [m for m, chi in filling_strings(LensSpace(25, 4)) if chi == 1]
    assert ones == [(2, 2, 2, 2, 1, 5)]


def test_rational_ball_strings():
    assert rational_ball_string(LensSpace(25, 4)) == (2, 2, 2, 2, 1, 5)
    assert rational_ball_string(LensSpace(9, 5)) == (3, 1, 2, 2)
    assert rational_ball_string(LensSpace(9, 2)) == (2, 2, 1, 3)
    assert rational_ball_string(LensSpace(7, 3)) is None
    assert rational_ball_string(LensSpace(4, 3)) is None


def test_excess_one_iff_wahl_small_sweep():
    for p in range(2, 41):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            L = LensSpace(p, q)
            ones = _excess_one(bounds(L))
            if wahl_family(L) is None:
                assert ones == [], (p, q)
            else:
                assert len(ones) == 1, (p, q)


@given(coprime_pairs)
@settings(max_examples=40, deadline=None)
def test_excess_one_strings_match_the_oracle_filter(pq):
    L = LensSpace(*pq)
    n = bounds(L)
    lowered = [n[:j] + (n[j] - 1,) + n[j + 1 :] for j in range(len(n))]
    assert _excess_one(bounds(L)) == [m for m in lowered if eval_oracle(m) == 0]


def test_probes_scale_to_long_bounds():
    # 3,336 entries for L(10007, 3), 1,001 for L(10^6, 999)
    assert _excess_one(bounds(LensSpace(10007, 3))) == []
    m = 1000
    L = LensSpace(m * m, m - 1)
    n = bounds(L)
    s = rational_ball_string(L)
    diff = [j for j in range(len(n)) if n[j] != s[j]]
    assert len(diff) == 1 and (n[diff[0]], s[diff[0]]) == (2, 1)
    assert continuant(s) == 0


def test_wahl_members_have_their_ball_string():
    for m in range(2, 10):
        for k in range(1, m):
            if gcd(m, k) != 1:
                continue
            L = LensSpace(m * m, m * k - 1)
            s = rational_ball_string(L)
            assert s is not None
            assert excess(bounds(L), s) == 1


def test_string_set_reverses_under_inverse():
    for p, q in ((25, 4), (25, 21), (13, 5), (18, 5), (12, 7)):
        L = LensSpace(p, q)
        M = LensSpace(p, L.q_inv)
        a = filling_strings(L)
        b = filling_strings(M)
        assert len(a) == len(b)
        assert sorted(chi for _, chi in a) == sorted(chi for _, chi in b)
        assert sorted(m for m, _ in a) == sorted(
            tuple(reversed(m)) for m, _ in b
        )


def test_fibonacci_family():
    for j in (5, 7, 9, 11, 13, 15):
        assert fib(j) ** 2 == fib(j - 2) * fib(j + 2) - 1
        L = fibonacci_boundary(j)
        assert (L.p, L.q) == (fib(j) ** 2, fib(j - 2) ** 2)
        assert wahl_family(L) == (fib(j), fib(j - 4))
    assert fibonacci_boundary(5) == LensSpace(25, 4)
    for bad in (4, 3, 6):
        with pytest.raises(ValueError):
            fibonacci_boundary(bad)


def test_near_limit_listings_are_frozen():
    # each bounded product space is exactly 2^20, the largest listed
    for (p, q), count in {
        (1152, 127): 15246,
        (1139, 135): 35916,
        (1138, 113): 20460,
    }.items():
        d = to_dict(LensSpace(p, q))
        assert prod(d["bounds"]) == 1 << 20
        assert len(d["strings"]) == count


def test_report_dict():
    d = to_dict(LensSpace(4, 1))
    assert json.loads(json.dumps(d)) == d
    assert d["rational_ball"] == [2, 1, 2]
    assert d["wahl"] == [2, 1]
    assert {"string": [2, 1, 2], "excess": 1} in d["strings"]
    big = to_dict(LensSpace(fib(15) ** 2, fib(13) ** 2))
    assert big["strings"] is None and "strings_note" in big
    assert big["rational_ball"] is not None
