"""Negative continued fractions through integer continuants.

Everything here is exact and integer.  A continued fraction string
[m_1, ..., m_l] denotes m_1 - 1/(m_2 - 1/(... - 1/m_l)), read on the
projective line, so a step may pass through the point at infinity.

The string is the product of the matrices ((m_i, -1), (1, 0)).  The
first column of that product is the pair of continuants
(K(m_1..m_l), K(m_2..m_l)), so the value is K(m)/K(m[1:]).  The product
has determinant 1, so the pair is primitive: the string is zero iff
K(m) = 0, and infinite iff K(m[1:]) = 0.

The zero-string search carries each forced tail value as a primitive
integer pair (a, b) meaning a/b, with b = 0 for infinity.
"""

from __future__ import annotations

from math import gcd

CFString = tuple[int, ...]


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
    p/q = K(seq)/K(seq[1:]) is finite, in lowest terms and exceeds 1, so
    p > p - q >= 1 as cf_expand needs.
    """
    if not seq or any(m < 2 for m in seq):
        raise ValueError("dual is defined for nonempty strings of entries >= 2")
    p, q = continuant(seq), continuant(seq[1:])
    return cf_expand(p, p - q)


def enumerate_zero_strings(n: CFString) -> list[CFString]:
    """All strings m with 1 <= m_i <= n_i and [m_1,...,m_l] = 0.

    Exhaustive depth-first search in lexicographic order.  The state
    after a prefix is the forced tail value t_i = [m_i, ..., m_l] as a
    primitive pair (a, b): t_1 = 0 is (0, 1), and t_{i+1} = 1/(m_i - t_i)
    is (b, m_i b - a).  The string closes iff the last tail is finite
    (b != 0) and an integer a/b with 1 <= a/b <= n_l, which is then the
    last entry.

    Warning: the number of results can grow exponentially in len(n)
    for bounds like [2,2,...,2]; callers doing scans should prefer
    the targeted searches in the lens module.
    """
    ell = len(n)
    out: list[CFString] = []
    if ell == 0:
        return out
    prefix: list[int] = []

    def walk(i: int, a: int, b: int) -> None:
        if i == ell - 1:
            if b != 0 and a % b == 0 and 1 <= a // b <= n[i]:
                out.append((*prefix, a // b))
            return
        for mi in range(1, n[i] + 1):
            prefix.append(mi)
            walk(i + 1, b, mi * b - a)
            prefix.pop()

    walk(0, 0, 1)
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
    The value of a nonempty seq is K(seq)/K(seq[1:]), infinite when the
    denominator is 0.  K reads the same on the reversed string.
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
