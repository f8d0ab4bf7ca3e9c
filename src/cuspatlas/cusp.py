"""Cusp singularities with one Puiseux pair and their numerical invariants.

A cusp of type (p, q) (2 <= p < q, coprime) is the singularity of
x^p = y^q.  The classification machinery needs its multiplicity
sequence, delta invariant, semigroup counting function, and the
semigroup condition on collections of cusps sharing a plane curve of
given degree (the Riemann-Hurwitz gate lives in the obstruct module).

The counting function R(n) = #(<p,q> in [0, n)) is n - G(n), where the
gap count G(n) = #(gaps of <p,q> in [0, n)) is nondecreasing and equals
delta from the conductor c = (p-1)(q-1) on.  So the min-convolution of
the R's of a combo is n minus the max-plus convolution H of the G's: a
table that reaches the genus at sum(c) = (d-1)(d-2) at degree d and is
held there, so R(n) = n - genus past it.

The gate never builds H for a whole combo.  It folds the table of all
cusps but the last and reads the last cusp only at the d gate points:
H(n) = max_k H_prefix(n - k) + G_last(k).  H_prefix is nondecreasing,
so on a run of constant G_last the smallest k wins, and only k = 0 and
the rises of G_last (k = g + 1 for each gap g) need reading.  The
enumerator (gated_combos) walks the combos as a tree of prefixes: each
prefix folds its table from its parent's once, only when some cusp
still fits, and its leaves share it.  semigroup_condition is the same
fold and the same reading for one combo.

A table is one Python int with a guarded field per n up to (d-1)^2,
the last gate point (_lanes).  Folding in one rise of a gap count
(_max_plus, which says why no field overflows) is a few whole-table
integer operations, not a pass over a list.

The named unicuspidal families are written here once: the A_p, B_p, E3
and E6 curves in one table (family_combo, and family_of its inverse),
which plumbing.family_cap resolves into caps, and the Fibonacci cusps
(fibonacci_cusp).  unicuspidal_families lists their members by degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import gcd
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

from .cf import fib

MultSeq = tuple[int, ...]
# (k, G(k)) at each k where a gap count G rises, in increasing k
GapRises = list[tuple[int, int]]
# the first failing j of the semigroup gate with R(jd + 1), None on a pass
Gate = Optional[tuple[int, int]]


@dataclass(frozen=True, order=True)
class CuspType:
    p: int
    q: int

    def __post_init__(self) -> None:
        if not (2 <= self.p < self.q):
            raise ValueError(f"need 2 <= p < q, got ({self.p},{self.q})")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"need coprime, got ({self.p},{self.q})")

    @property
    def delta(self) -> int:
        # delta = number of semigroup gaps = (p-1)(q-1)/2
        return (self.p - 1) * (self.q - 1) // 2

    @property
    def milnor(self) -> int:
        return 2 * self.delta

    def mult_seq(self) -> MultSeq:
        return mult_seq(self.p, self.q)

    @property
    def conductor(self) -> int:
        return (self.p - 1) * (self.q - 1)

    def gap_counts(self) -> list[int]:
        """G(n) = #(gaps of <p,q> in [0, n)) for n = 0 .. conductor;
        G(n) = delta beyond, and R(n) = n - G(min(n, conductor))."""
        c = self.conductor
        member = [False] * c
        for a in range(0, c, self.p):
            for b in range(a, c, self.q):
                member[b] = True
        counts = [0]
        for n in range(c):
            counts.append(counts[-1] + (0 if member[n] else 1))
        return counts

    def gap_rises(self) -> GapRises:
        """(k, G(k)) at k = g + 1 for each gap g, the last at k = conductor."""
        g = self.gap_counts()
        return [(k, g[k]) for k in range(1, len(g)) if g[k] > g[k - 1]]

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


# the order of the generated CuspType.__lt__, without its Python-level calls
_PQ = attrgetter("p", "q")


def mult_seq(p: int, q: int) -> MultSeq:
    """Multiplicity sequence of the (p,q) cusp: the Euclidean quotient
    runs, with the trailing run of 1s dropped."""
    if gcd(p, q) != 1 or not (2 <= p < q):
        raise ValueError(f"bad cusp ({p},{q})")
    seq: list[int] = []
    a, b = q, p
    while b > 1:
        k, r = divmod(a, b)
        seq.extend([b] * k)
        a, b = b, r
    return tuple(seq)


def mult_seq_length(p: int, q: int) -> int:
    """len(mult_seq(p, q)), counted without building it: the sum of the
    Euclidean quotients of (q, p), in O(log q) steps."""
    n, a, b = 0, q, p
    while b > 1:
        n, a, b = n + a // b, b, a % b
    return n


def ms_recognize(seq: MultSeq) -> Optional[CuspType]:
    """Inverse of mult_seq: the (p,q) whose multiplicity sequence this
    is, or None when no one-Puiseux-pair cusp realizes it.

    mult_seq(p, q) opens with q // p copies of p, then the remainder
    q % p unless it is 1, so the first run and the value after it (1 if
    none) name the only candidate (p, q): the answer iff it is a cusp
    whose sequence is this one. Its length is counted first, so the
    recomputation never outgrows seq.
    """
    if not seq:
        return None
    p = seq[0]
    run = next((i for i, m in enumerate(seq) if m != p), len(seq))
    q = run * p + (seq[run] if run < len(seq) else 1)
    if not 2 <= p < q or gcd(p, q) != 1 or mult_seq_length(p, q) != len(seq):
        return None
    return CuspType(p, q) if mult_seq(p, q) == tuple(seq) else None


class _Lanes(NamedTuple):
    """How a degree packs its gap tables into one int: field n (n = 0 ..
    (d-1)^2, the last gate point) holds H(n) in width bits, the top one a
    guard bit, with field 0 highest, so moving a table k fields towards
    larger n is a right shift that drops what falls past the end."""

    width: int
    top: int  # the bit offset of field 0
    ones: int  # 1 in every field
    guards: int  # the guard bit of every field
    value: int  # the value bits of one field


def _lanes(degree: int) -> _Lanes:
    """The packing of this degree's tables: genus.bit_length() value bits
    and a guard bit per field (see _max_plus for why values fit)."""
    genus = (degree - 1) * (degree - 2) // 2
    width = genus.bit_length() + 1
    fields = (degree - 1) ** 2 + 1
    ones = ((1 << fields * width) - 1) // ((1 << width) - 1)
    value = (1 << width - 1) - 1
    return _Lanes(width, (fields - 1) * width, ones, ones << width - 1, value)


def _shifts(c: CuspType, lanes: _Lanes) -> list[int]:
    """k * width at each rise k of the gap count, whose i-th rise takes
    it to i."""
    return [k * lanes.width for k, _ in c.gap_rises()]


def _max_plus(head: int, shifts: list[int], lanes: _Lanes) -> int:
    """The packed table of max_k head(n - k) + G(k), where G is a gap
    count with these rise shifts, for a packed prefix table head.

    For fixed n the head term does not grow with k, so on each run of
    constant G only its first k counts: k = 0 and each rise.  The i-th
    rise adds i to every field of head, moves the result k fields on and
    takes the field-wise max with the guard-bit compare: (out | guards)
    - t keeps a field's guard bit exactly where out >= t there, and no
    field borrows from the next, since no value reaches its guard bit.
    No field overflows either: head's values never exceed its cusps' sum
    of delta, and every sum head(n - k) + i stays at or below the sum of
    delta with this cusp folded in, which never exceeds the genus.  The
    shift drops only fields past (d-1)^2, which no gate point reads, and
    every field is exact: a table reaches its sum of delta by its sum of
    conductors, at most (d-1)(d-2), and holds it from there on."""
    ones, guards = lanes.ones, lanes.guards
    low = lanes.width - 1
    out = plus = head
    for s in shifts:
        plus += ones
        t = plus >> s
        m = ((out | guards) - t) & guards
        out = t ^ ((out ^ t) & (m - (m >> low)))
    return out


def _gap_table(cusps: Sequence[CuspType], lanes: _Lanes) -> int:
    """The packed max-plus convolution of the cusps' gap counts; 0 (every
    field 0) for no cusps."""
    head = 0
    for c in cusps:
        head = _max_plus(head, _shifts(c, lanes), lanes)
    return head


def _counting(head: int, shifts: list[int], n: int, lanes: _Lanes) -> int:
    """R(n) of a prefix of cusps with packed gap table head, plus one last
    cusp with these rise shifts: n - H(n) for n <= (d-1)^2, 0 for n <= 0.

    H(n) = max_k head(n - k) + G(k).  As in _max_plus only k = 0 and the
    rises k <= n can win, so no table is built for the last cusp."""
    if n <= 0:
        return 0
    nw = n * lanes.width
    at = lanes.top - nw  # the bit offset of field n
    value = lanes.value
    h = head >> at & value
    for i, s in enumerate(shifts, 1):
        if s > nw:  # this rise and the later ones lie past n
            break
        v = (head >> at + s & value) + i
        if v > h:
            h = v
    return n - h


def _first_failure(degree: int, head: int, shifts: list[int], lanes: _Lanes) -> Gate:
    # j = -1 reads R(1 - d) = 0, which always holds
    for j in range(degree - 1):
        got = _counting(head, shifts, j * degree + 1, lanes)
        if got != (j + 1) * (j + 2) // 2:
            return j, got
    return None


@dataclass(frozen=True)
class CuspCombo:
    """A collection of cusps on a rational plane curve of degree d.

    The delta invariants must absorb the whole arithmetic genus:
    sum(delta) = (d-1)(d-2)/2.
    """

    degree: int
    cusps: tuple[CuspType, ...]

    def __post_init__(self) -> None:
        if self.degree < 3:
            raise ValueError("degree >= 3")
        if not self.cusps:
            raise ValueError("need at least one cusp")
        object.__setattr__(self, "cusps", tuple(sorted(self.cusps, key=_PQ)))
        genus = (self.degree - 1) * (self.degree - 2) // 2
        total = sum(c.delta for c in self.cusps)
        if total != genus:
            raise ValueError(
                f"delta sum {total} != arithmetic genus {genus} at degree {self.degree}"
            )

    @property
    def total_milnor(self) -> int:
        return sum(c.milnor for c in self.cusps)

    def __str__(self) -> str:
        return "+".join(str(c) for c in self.cusps) + f" deg {self.degree}"


def semigroup_condition(combo: CuspCombo) -> Gate:
    """Borodzik-Livingston gate: R(jd+1) = (j+1)(j+2)/2 for
    j = -1 .. d-2.  Returns the first failing j with R(jd+1), or None
    when the combo passes.

    The packed gap table of all cusps but the last is folded once, and
    the last cusp is read only at the gate points (_counting), as at the
    leaves of gated_combos.  Reading only k = 0 and the rises of the
    last cusp's gap count is exact: the prefix table does not fall, so
    on a run of constant gap count the smallest k wins."""
    lanes = _lanes(combo.degree)
    head = _gap_table(combo.cusps[:-1], lanes)
    last = _shifts(combo.cusps[-1], lanes)
    return _first_failure(combo.degree, head, last, lanes)


def cusp_types_with_delta(delta: int) -> list[CuspType]:
    """All one-Puiseux-pair types with (p-1)(q-1) = 2*delta, sorted."""
    out = []
    target = 2 * delta
    for a in range(1, target + 1):
        if target % a:
            continue
        p, q = a + 1, target // a + 1
        if 2 <= p < q and gcd(p, q) == 1:
            out.append(CuspType(p, q))
    return sorted(out)


def gated_combos(degree: int) -> list[tuple[CuspCombo, Gate]]:
    """Every genus-balanced multiset of cusps at the given degree, in
    deterministic order (sorted by the cusp tuple), each with its
    semigroup_condition outcome.

    The walk chooses cusps in nondecreasing position of the sorted
    types.  Each prefix folds its gap table from its parent's once, and
    only if some type from its last one on still fits under the
    remaining delta; a leaf builds no table and reads its last cusp at
    the gate points (_counting), stopping at the first failing j.
    Sibling leaves share the whole prefix, so one table serves them all.
    The packed tables and the types' rise shifts live for one call."""
    if degree < 3:
        # checked up front: degree d < 0 has the genus of degree 3 - d
        raise ValueError(f"degree >= 3, got {degree}")
    genus = (degree - 1) * (degree - 2) // 2
    types = sorted(c for k in range(1, genus + 1) for c in cusp_types_with_delta(k))
    deltas = [c.delta for c in types]
    lanes = _lanes(degree)
    shifts = [_shifts(c, lanes) for c in types]
    # least[i]: the smallest delta among types[i:]
    least = list(accumulate(reversed(deltas), min))[::-1]
    results: list[tuple[CuspCombo, Gate]] = []

    def extend(
        remaining: int, chosen: list[CuspType], floor: int, head: int
    ) -> None:
        for i in range(floor, len(types)):
            rest = remaining - deltas[i]
            if rest < 0:
                continue
            chosen.append(types[i])
            if rest == 0:
                gate = _first_failure(degree, head, shifts[i], lanes)
                results.append((CuspCombo(degree, tuple(chosen)), gate))
            elif least[i] <= rest:
                extend(rest, chosen, i, _max_plus(head, shifts[i], lanes))
            chosen.pop()

    extend(genus, [], 0, 0)
    return results


def enumerate_combos(degree: int) -> list[CuspCombo]:
    """Every genus-balanced multiset of cusps at the given degree,
    deterministic order (sorted by the cusp tuple): the combos of
    gated_combos, whose walk of prefix tables also runs the semigroup
    gate."""
    return [combo for combo, _ in gated_combos(degree)]


# The named unicuspidal families: kind -> member p as (cusp, degree).
# A_p and B_p take p >= 2, E3 and E6 no parameter.
_FAMILIES = {
    "A_p": lambda p: (CuspType(p, p + 1), p + 1),
    "B_p": lambda p: (CuspType(p, 4 * p - 1), 2 * p),
    "E3": lambda p: (CuspType(3, 22), 8),
    "E6": lambda p: (CuspType(6, 43), 16),
}


def family_combo(kind: str, p: Optional[int] = None) -> CuspCombo:
    """The one-cusp curve of a named family: A_p or B_p (p >= 2), E3 or
    E6."""
    if kind in ("A_p", "B_p"):
        if p is None or p < 2:
            raise ValueError(f"{kind} needs p >= 2")
    elif kind in ("E3", "E6"):
        if p is not None:
            raise ValueError(f"{kind} takes no parameter")
    else:
        raise ValueError(f"unknown cap family {kind!r}")
    cusp, degree = _FAMILIES[kind](p)
    return CuspCombo(degree, (cusp,))


def family_of(c: CuspType, degree: int) -> Optional[tuple[str, Optional[int]]]:
    """(kind, p) of the named family whose curve is the single cusp c at
    this degree, or None.  A_p and B_p members carry their p as c.p."""
    for kind, p in (("A_p", c.p), ("B_p", c.p), ("E3", None), ("E6", None)):
        if _FAMILIES[kind](p) == (c, degree):
            return kind, p
    return None


def fibonacci_index(degree: int) -> Optional[int]:
    """The odd j >= 5 with F_j = degree, whose Fibonacci cusp
    (see fibonacci_cusp) is unicuspidal at this degree; None if there is
    none."""
    j = 5
    while fib(j) < degree:
        j += 2
    return j if fib(j) == degree else None


def fibonacci_cusp(j: int) -> CuspType:
    """The cusp (F_{j-2}, F_{j+2}) of the unicuspidal curve of degree F_j,
    odd j >= 5."""
    return CuspType(fib(j - 2), fib(j + 2))


def unicuspidal_families(degree: int) -> list[CuspType]:
    """Members of the known unicuspidal families at this degree: those
    of the family table, the Fibonacci cusps at F_j, and (F_j^2,
    F_{j+2}^2) at F_j F_{j+2}, odd j."""
    if degree < 3:
        raise ValueError(f"degree >= 3, got {degree}")
    found = set()
    # the one p of A_p and of B_p whose curve can have this degree
    named = (("A_p", degree - 1), ("B_p", degree // 2), ("E3", None), ("E6", None))
    for kind, p in named:
        if p is None or p >= 2:
            cusp, at = _FAMILIES[kind](p)
            if at == degree:
                found.add(cusp)
    j = fibonacci_index(degree)
    if j is not None:
        found.add(fibonacci_cusp(j))
    j = 3
    while fib(j) * fib(j + 2) <= degree:
        if fib(j) * fib(j + 2) == degree:
            found.add(CuspType(fib(j) ** 2, fib(j + 2) ** 2))
        j += 2
    return sorted(found)
