"""Fillings of lens spaces through bounded zero strings.

A filling of L(p,q) corresponds to a string m with 1 <= m_i <= n_i and
[m_1,...,m_l] = 0, where n is the expansion of p/(p-q); the excess
sum(n_i - m_i) is the filling's Euler characteristic, its second Betti
number plus one (cf.excess): the ball string has excess 1.  Under this
parameter convention the spaces L(m^2, mk-1) carry their rational
homology ball string directly: lowering one entry of n by 1 closes the
string exactly once, and only for them.

An excess-1 string differs from n at a single entry, so the ball
search probes len(n) candidates; sweeps must use it.  The full listing
meets in the middle (cf.enumerate_zero_strings): it costs about
sqrt(prod(n)) plus the strings it lists, and the number of strings can
itself grow exponentially in len(n), so reports list them only while
prod(n) <= 2^20.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, prod
from typing import List, Optional, Tuple

from .cf import (
    CFString,
    cf_expand,
    enumerate_zero_strings,
    excess,
    fib,
)


@dataclass(frozen=True)
class LensSpace:
    """L(p,q), oriented; q and its inverse mod p present the same space."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 2 or not 0 < self.q < self.p or gcd(self.p, self.q) != 1:
            raise ValueError(f"no lens space L({self.p},{self.q})")

    @property
    def q_inv(self) -> int:
        return pow(self.q, -1, self.p)

    def __str__(self) -> str:
        return f"L({self.p},{self.q})"


def wahl_family(L: LensSpace) -> Optional[Tuple[int, int]]:
    """(m, k) when p = m^2 and q or its inverse is mk-1 with m, k
    coprime; None otherwise."""
    m = isqrt(L.p)
    if m * m != L.p:
        return None
    for q2 in (L.q, L.q_inv):
        k, rem = divmod(q2 + 1, m)
        if rem == 0 and gcd(m, k) == 1:
            return m, k
    return None


def bounds(L: LensSpace) -> CFString:
    """The entry bounds for filling strings of L."""
    return cf_expand(L.p, L.p - L.q)


def filling_strings(L: LensSpace) -> List[Tuple[CFString, int]]:
    """Every filling string with its excess, in lexicographic order;
    meant for reports on individual spaces."""
    n = bounds(L)
    return [(m, excess(n, m)) for m in enumerate_zero_strings(n)]


def _excess_one(n: CFString) -> List[CFString]:
    """The excess-1 filling strings for the bounds n: the zero strings
    that lower one entry of n by 1, one probe per entry.

    K is linear in each entry, and the coefficient of n_j is
    K(n[:j]) K(n[j+1:]), so lowering n_j gives the continuant
    K(n) - K(n[:j]) K(n[j+1:]).  One prefix and one suffix pass of
    continuants settle every probe.
    """
    before = [0, 1]  # before[j + 1] = K(n[:j])
    for a in n:
        before.append(a * before[-1] - before[-2])
    out = []
    after, after2 = 1, 0  # K(n[j+1:]) and K(n[j+2:]), j walking down
    for j in range(len(n) - 1, -1, -1):
        if before[j + 1] * after == before[-1]:
            out.append(n[:j] + (n[j] - 1,) + n[j + 1 :])
        after, after2 = n[j] * after - after2, after
    out.reverse()
    return out


def rational_ball_string(L: LensSpace) -> Optional[CFString]:
    """The unique excess-1 filling string, present exactly on the Wahl
    family; the lowered entry always sits on a 2 in the bounds."""
    return _ball_string(bounds(L), wahl_family(L))


def _ball_string(n: CFString, wahl: Optional[Tuple[int, int]]) -> Optional[CFString]:
    """rational_ball_string for the bounds n and Wahl shape of a space."""
    ones = _excess_one(n)
    if not ones:
        if wahl is not None:
            raise RuntimeError("Wahl space missing its ball string")
        return None
    if wahl is None:
        raise RuntimeError("ball string off the Wahl family")
    if len(ones) != 1:
        raise RuntimeError("rational-ball string is not unique")
    (m,) = ones
    (j,) = [i for i in range(len(n)) if n[i] != m[i]]
    if n[j] != 2:
        raise RuntimeError("the lowered entry does not sit on a 2")
    return m


def fibonacci_boundary(j: int) -> LensSpace:
    """L(F_j^2, F_{j-2}^2): what the one-cusp degree-F_j curve
    complement has for boundary, odd j >= 5."""
    if j < 5 or j % 2 == 0:
        raise ValueError("odd j >= 5")
    return LensSpace(fib(j) ** 2, fib(j - 2) ** 2)


def to_dict(L: LensSpace) -> dict:
    """CLI-facing report: strings, excesses, ball data, Wahl shape.
    Skips the full string listing when the bounded product space
    exceeds 2^20 candidates."""
    n = bounds(L)
    wahl = wahl_family(L)
    ball = _ball_string(n, wahl)
    space = prod(n)
    out = {
        "p": L.p,
        "q": L.q,
        "q_inverse": L.q_inv,
        "bounds": list(n),
        "rational_ball": None if ball is None else list(ball),
        "wahl": None if wahl is None else list(wahl),
    }
    if space <= 1 << 20:
        out["strings"] = [
            {"string": list(m), "excess": chi} for m, chi in filling_strings(L)
        ]
    else:
        out["strings"] = None
        out["strings_note"] = f"listing skipped: {space} candidate strings"
    return out
