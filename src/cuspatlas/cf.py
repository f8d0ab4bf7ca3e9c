"""Negative continued fractions over the projective rationals.

Everything here is exact.  A continued fraction string [m_1, ..., m_l]
denotes m_1 - 1/(m_2 - 1/(... - 1/m_l)).  Values live in Q together with
a single point at infinity, represented by None.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional

Rational = Fraction
CFString = tuple[int, ...]

# None plays the role of the projective infinity throughout.
ProjValue = Optional[Fraction]

INF: ProjValue = None


def proj_inv(x: ProjValue) -> ProjValue:
    """1/x with 1/0 = infinity and 1/infinity = 0."""
    if x is None:
        return Fraction(0)
    if x == 0:
        return None
    return 1 / x


def proj_sub(m: int, x: ProjValue) -> ProjValue:
    """m - x; subtracting infinity gives infinity (projective line)."""
    if x is None:
        return None
    return Fraction(m) - x


def cf_step(m: int, x: ProjValue) -> ProjValue:
    """One right-to-left evaluation step: m - 1/x."""
    return proj_sub(m, proj_inv(x))


def cf_eval(seq: CFString) -> ProjValue:
    """Value of [m_1, ..., m_l]; the empty string evaluates to infinity."""
    x: ProjValue = INF
    for m in reversed(seq):
        x = cf_step(m, x)
    return x


def cf_expand(p: int, q: int) -> CFString:
    """Expansion of p/q with all entries >= 2, for p > q >= 1 coprime.

    The recursion is p/q = ceil(p/q) - (aq - p)/q inverted, i.e. the
    tail expands q/(aq - p).
    """
    if not (p > q >= 1):
        raise ValueError(f"need p > q >= 1, got {p}/{q}")
    if gcd(p, q) != 1:
        raise ValueError(f"need gcd(p, q) = 1, got {p}/{q}")
    out = []
    while q > 0:
        a = -((-p) // q)  # ceil division
        out.append(a)
        p, q = q, a * q - p
    return tuple(out)


def cf_dual(seq: CFString) -> CFString:
    """Riemenschneider dual: the expansion of p/(p-q) when seq expands p/q.

    Only defined for nonempty strings with all entries >= 2, whose value
    p/q is finite and exceeds 1, so p > p - q >= 1 as cf_expand needs.
    """
    if not seq or any(m < 2 for m in seq):
        raise ValueError("dual is defined for nonempty strings of entries >= 2")
    v = cf_eval(seq)
    p, q = v.numerator, v.denominator
    return cf_expand(p, p - q)


def zero_string_tails(m: CFString) -> list[ProjValue] | None:
    """Forced tail values t_i = [m_i, ..., m_l] for a zero string, or None.

    When the whole string evaluates to zero the tails are recovered
    front-to-back: t_1 = 0 and t_{i+1} = 1/(m_i - t_i).  Returns
    [t_1, ..., t_l] when the string closes (t_l finite and equal to
    m_l), else None.
    """
    tails: list[ProjValue] = []
    t: ProjValue = Fraction(0)
    for i, mi in enumerate(m):
        tails.append(t)
        if i + 1 < len(m):
            t = proj_inv(proj_sub(mi, t))
    if tails and tails[-1] is not None and tails[-1] == m[-1]:
        return tails
    return None


def is_zero_string(m: CFString) -> bool:
    return len(m) > 0 and cf_eval(m) == 0


def enumerate_zero_strings(n: CFString) -> list[CFString]:
    """All strings m with 1 <= m_i <= n_i and [m_1,...,m_l] = 0.

    Exhaustive depth-first search in lexicographic order.  The state
    after a prefix is the forced tail value t, with t_1 = 0 and
    t_{i+1} = 1/(m_i - t_i); the string closes iff the last entry
    equals its own (finite) forced tail.

    Warning: the number of results can grow exponentially in len(n)
    for bounds like [2,2,...,2]; callers doing scans should prefer
    the targeted searches in the lens module.
    """
    ell = len(n)
    out: list[CFString] = []
    if ell == 0:
        return out
    prefix: list[int] = []

    def walk(i: int, t: ProjValue) -> None:
        if i == ell - 1:
            # closing entry must equal the forced finite tail
            if t is not None and t.denominator == 1 and 1 <= t <= n[i]:
                prefix.append(int(t))
                out.append(tuple(prefix))
                prefix.pop()
            return
        for mi in range(1, n[i] + 1):
            prefix.append(mi)
            walk(i + 1, proj_inv(proj_sub(mi, t)))
            prefix.pop()

    walk(0, Fraction(0))
    return out


def excess(n: CFString, m: CFString) -> int:
    """sum(n_i - m_i); equals the Euler characteristic of the filling
    attached to the zero string m inside bounds n."""
    if len(n) != len(m):
        raise ValueError("length mismatch")
    return sum(n) - sum(m)


def continuant(seq: CFString) -> int:
    """Numerator of the value of seq as a polynomial in the entries.

    K() = 1, K(m_1) = m_1, K(m_1..m_i) = m_i K(..m_{i-1}) - K(..m_{i-2}).
    For all-entries >= 2 strings, cf_eval(seq) = K(seq)/K(seq[1:]).
    """
    km2, km1 = 0, 1
    for m in seq:
        km2, km1 = km1, m * km1 - km2
    return km1


def fib(n: int) -> int:
    """Fibonacci with F_0 = 0, F_1 = 1."""
    if n < 0:
        raise ValueError("n >= 0")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a
