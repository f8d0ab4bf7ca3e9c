"""Negative continued fractions and bounded zero strings, exact and integer.

A continued fraction string [m_1, ..., m_l] denotes m_1 - 1/(m_2 - 1/(...
- 1/m_l)), read on the projective line, so a step may pass through the
point at infinity.

The string is the product of the matrices ((m_i, -1), (1, 0)).  The
first column of that product is the pair of continuants
(K(m_1..m_l), K(m_2..m_l)), so the value is K(m)/K(m[1:]).  The product
has determinant 1, so the pair is primitive: the string is zero iff
K(m) = 0, and infinite iff K(m[1:]) = 0.

Values are carried as primitive integer pairs (a, b) meaning a/b, with
b = 0 for infinity.  The zero-string listing tabulates the suffixes of
the bounded strings by value and walks only the prefixes.
"""

from __future__ import annotations

from math import gcd, prod

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


def _normalised(a: int, b: int) -> tuple[int, int]:
    """The primitive pair (a, b) with its sign fixed: b > 0, or (1, 0)."""
    return (-a, -b) if b < 0 or (b == 0 and a < 0) else (a, b)


def _split(n: CFString) -> int:
    """The first position h whose prefix space prod(n[:h]) is at least
    the suffix space prod(n[h:]), at most len(n) - 1 so that the suffix
    is never empty; nonempty n."""
    h, space, total = 0, 1, prod(n)
    while h < len(n) - 1 and space * space < total:
        space *= n[h]
        h += 1
    return h


def _suffixes_by_value(n: CFString) -> dict[tuple[int, int], list[CFString]]:
    """Every string m with 1 <= m_i <= n_i, nonempty n, grouped by its
    value as a normalised pair, each group in lexicographic order.

    One backward pass: [m] is (m, 1), and [m, s] = m - 1/[s] takes the
    value (c, d) of s to (m c - d, c).  For a fixed m that step is a
    Moebius map, so it sends distinct values to distinct values; adding
    the entries m in increasing order therefore appends to each group
    at most one sorted group per m, all starting with m, and keeps every
    group sorted.
    """
    table = {(m, 1): [(m,)] for m in range(1, n[-1] + 1)}
    for bound in reversed(n[:-1]):
        step: dict[tuple[int, int], list[CFString]] = {}
        for m in range(1, bound + 1):
            head = (m,)
            for (c, d), tails in table.items():
                group = step.setdefault(_normalised(m * c - d, c), [])
                group.extend([head + t for t in tails])
        table = step
    return table


def enumerate_zero_strings(n: CFString) -> list[CFString]:
    """All strings m with 1 <= m_i <= n_i and [m_1,...,m_l] = 0, in
    lexicographic order.

    Meet in the middle after the first h entries, where the prefix
    space prod(n[:h]) first reaches the suffix space prod(n[h:])
    (_split).  The suffixes m_{h+1}..m_l are tabulated by value
    (_suffixes_by_value).  A depth-first walk over the prefixes carries
    the forced tail value t_i = [m_i, ..., m_l] as a primitive pair
    (a, b): t_1 = 0 is (0, 1), and t_{i+1} = 1/(m_i - t_i) is
    (b, m_i b - a).  A prefix m_1..m_h closes with exactly the suffixes
    whose value is t_{h+1}.  The prefixes come in lexicographic order
    and so does each table group, so the list is sorted without sorting
    it.

    The cost is about sqrt(prod(n)) table entries and prefix frames,
    plus the output.  Warning: the number of results itself can grow
    exponentially in len(n), for bounds like [2,2,...,2]; callers doing
    scans should prefer the targeted searches in the lens module.
    """
    if not n:
        return []
    h = _split(n)
    table = _suffixes_by_value(n[h:])
    out: list[CFString] = []

    def walk(i: int, head: CFString, a: int, b: int) -> None:
        if i == h:
            out.extend([head + t for t in table.get(_normalised(a, b), ())])
            return
        for mi in range(1, n[i] + 1):
            walk(i + 1, head + (mi,), b, mi * b - a)

    walk(0, (), 0, 1)
    return out


def excess(n: CFString, m: CFString) -> int:
    """sum(n_i - m_i); equals the Euler characteristic of the filling
    attached to the zero string m inside bounds n."""
    if len(n) != len(m):
        raise ValueError("length mismatch")
    return sum(n) - sum(m)


def fib(n: int) -> int:
    """Fibonacci with F_0 = 0, F_1 = 1."""
    if n < 0:
        raise ValueError("n >= 0")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a
