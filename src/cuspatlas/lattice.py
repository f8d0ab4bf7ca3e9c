"""Sphere classes in blown-up planes and the exhaustive embedding search.

A rooted plumbing records a configuration of rational curves; this
module answers the homological question of how that configuration can
sit inside a blow-up of the plane.  Classes live in the odd unimodular
lattice <h, e_0, e_1, ...> with h.h = +1 and e_i.e_i = -1.  A sphere
of self-intersection s must satisfy the adjunction equality, which
leaves only finitely many coefficient multisets (profiles); the search
assigns classes vertex by vertex in breadth-first order from the root
(which is always sent to h) and breaks the permutation symmetry of
exceptional indices by orbit prefixes.  It generates only classes with
the required pairings against the classes already placed.  The
search records its assignment as each index's column, the (position,
coefficient) pairs the placed classes put on it, pushed as it places a
class and popped as it backs off.  Each node also holds the orbits of
its columns, the indices of equal column, each a run of consecutive
indices read as its sparse row: a child builds its own from its
parent's, cutting only the orbits its class takes a prefix of and
appending the fresh ones, and drops them when the search backs off,
so no node regroups the columns or undoes a cut.  A candidate's
pairings are rechecked from the columns of its own indices.  A class is built
one placement at a time (some units of one coefficient into a prefix
of one orbit), and a branch is cut when a pairing still owed lies
outside the range the coefficients left to place can add (each adds
between the extremes of the rows it may take).  The last unit is
looked up and the last two are joined on the orbits of one owed class,
as they must pay what is owed exactly.  The orbit prefixes generate
each assignment once, and a repeat is an internal error.  Complete
assignments that no positive area form supports are dropped: for the
degree-zero classes that is exactly a cycle in their dominance graph,
so no linear program runs.  The order is each embedding's contraction
walk, peeled once and kept: a leaf stays iff it has one, and the
blow-down walks it.  A leaf relabels its indices canonically from the
columns, and the results are sorted, so repeated runs agree bit for
bit.  Each result checks itself from its own classes, not from the
search's columns: adjunction per vertex, and a Gram matrix read index
by index against the graph's pairings.  The Gram check is also what refuses a +1 on one index in
two classes: only degree-zero classes carry a +1, two that share it
pair to at most -1, and a cap's graph asks 0 or more.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, groupby, repeat
from math import isqrt
from operator import floordiv, mod
from typing import Iterator, Literal, Mapping, Sequence

from .linalg import int_det, int_kernel_basis
from .plumbing import PlumbingGraph

ECoeffs = tuple[tuple[int, int], ...]
# an orbit's (class, nonzero coefficient) pairs, sorted by class
Row = tuple[tuple[int, int], ...]
Walk = tuple[tuple[int, int | None], ...]
Parity = Literal["even", "odd"]


@dataclass(frozen=True)
class HClass:
    """a0*h + sum(c_i * e_i), with the e-coefficients stored sparsely."""

    a0: int
    coeffs: ECoeffs = ()

    def __post_init__(self) -> None:
        prev = -1
        for i, c in self.coeffs:
            if i <= prev:
                raise ValueError("coefficients must be sorted by index")
            if c == 0:
                raise ValueError("zero coefficients must be dropped")
            prev = i

    @classmethod
    def make(cls, a0: int, coeffs: Mapping[int, int]) -> "HClass":
        # from an index -> coefficient mapping, zero coefficients dropped
        return cls(a0, tuple(sorted((i, c) for i, c in coeffs.items() if c)))

    def pairing(self, other: "HClass") -> int:
        val = self.a0 * other.a0
        mine = dict(self.coeffs)
        for i, c in other.coeffs:
            val -= mine.get(i, 0) * c
        return val

    @property
    def square(self) -> int:
        return self.pairing(self)

    def __str__(self) -> str:
        parts: list[str] = []
        if self.a0 == 1:
            parts.append("h")
        elif self.a0 == -1:
            parts.append("-h")
        elif self.a0 != 0:
            parts.append(f"{self.a0}h")
        for i, c in self.coeffs:
            sign = "+" if c > 0 else "-"
            mag = "" if abs(c) == 1 else str(abs(c))
            parts.append(f"{sign}{mag}e{i}")
        if not parts:
            return "0"
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out


def adjunction_profiles(a0: int, s: int) -> list[tuple[int, ...]]:
    """All coefficient multisets a rational a0-degree sphere of square s allows.

    Each profile is the multiset of nonzero e-coefficients, sorted in
    descending order, constrained by sum(c^2) = a0^2 - s and
    sum(c) = 2 - 3*a0 + s together with positivity of intersections
    against the exceptional spheres: a degree-zero class carries exactly
    one +1 and otherwise -1s, a positive-degree class only negatives.
    """
    if a0 < 0:
        raise ValueError("profiles are only defined for nonnegative degree")
    if a0 == 0:
        n_neg = -1 - s
        if n_neg < 0:
            return []
        return [(1,) + (-1,) * n_neg]
    sq = a0 * a0 - s
    sm = 3 * a0 - 2 - s
    if sq < 0 or sm < 0 or (sq == 0) != (sm == 0):
        return []
    if sq == 0:
        return [()]

    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], cap: int, rem_sum: int, rem_sq: int) -> None:
        if rem_sum == 0:
            if rem_sq == 0:
                out.append(tuple(-b for b in reversed(prefix)))
            return
        for b in range(min(cap, rem_sum, isqrt(rem_sq)), 0, -1):
            rs, rq = rem_sum - b, rem_sq - b * b
            # the remaining rs entries lie in [1, b], so rs <= rq <= b*rs
            if rs <= rq <= b * rs:
                prefix.append(b)
                rec(prefix, b, rs, rq)
                prefix.pop()

    rec([], sm, sm, sq)
    return sorted(out, reverse=True)


@dataclass(frozen=True)
class GramForm:
    """An integer bilinear form presented by a basis of lattice vectors."""

    basis: tuple[HClass, ...]
    matrix: tuple[tuple[int, ...], ...]
    det: int
    parity: Parity

    @property
    def rank(self) -> int:
        return len(self.basis)

    def to_dict(self) -> dict:
        return {
            "basis": [str(b) for b in self.basis],
            "matrix": [list(row) for row in self.matrix],
            "det": self.det,
            "parity": self.parity,
        }


def _gram_matrix(classes: Sequence[HClass]) -> list[list[int]]:
    # every pairing, read index by index: the (class, coefficient) pairs
    # on e_i subtract their products from the h-part, pair by pair
    out = [[x.a0 * y.a0 for y in classes] for x in classes]
    cols: dict[int, list[tuple[int, int]]] = {}
    for u, x in enumerate(classes):
        for i, c in x.coeffs:
            cols.setdefault(i, []).append((u, c))
    for col in cols.values():
        for u, c in col:
            row = out[u]
            for v, d in col:
                row[v] -= c * d
    return out


def _gram_of(basis: tuple[HClass, ...]) -> GramForm:
    matrix = tuple(map(tuple, _gram_matrix(basis)))
    det = int_det(matrix)
    parity: Parity = (
        "even" if all(matrix[i][i] % 2 == 0 for i in range(len(basis))) else "odd"
    )
    return GramForm(basis, matrix, det, parity)


@dataclass(frozen=True)
class Embedding:
    """A class assignment realizing a rooted plumbing inside <h, e_0..e_{N-1}>;
    it keeps its contraction walk, peeled once, for the search and the blow-down."""

    graph: PlumbingGraph
    classes: tuple[HClass, ...]
    n_used: int

    def __post_init__(self) -> None:
        g = self.graph
        if g.root is None:
            raise ValueError("an embedding needs a rooted graph")
        if len(self.classes) != g.n:
            raise ValueError("one class per vertex")
        if self.classes[g.root] != HClass(1):
            raise ValueError("the root must carry h")
        used = {i for c in self.classes for i, _ in c.coeffs}
        if used != set(range(self.n_used)):
            raise ValueError("exceptional indices must be 0..n_used-1")
        req = g.intersection_matrix()
        gram = _gram_matrix(self.classes)
        for u, cu in enumerate(self.classes):
            # K = -3h + e_0 + ... + e_{n-1} pairs with a sphere to -2 - s
            if -3 * cu.a0 - sum(c for _, c in cu.coeffs) != -2 - g.eulers[u]:
                raise ValueError(f"vertex {u} violates adjunction")
            if gram[u][u:] != [*req[u][u:]]:
                v = next(v for v in range(u, g.n) if gram[u][v] != req[u][v])
                raise ValueError(f"classes at {u},{v} miss the graph pairing")

    @property
    def k(self) -> int:
        """Extra exceptional directions beyond the graph's own blow-ups."""
        return self.n_used - (self.graph.n - 1)

    @cached_property
    def contraction(self) -> Walk | None:
        """The blow-down's walk, None on a dominance cycle: see _dominance_order."""
        return _dominance_order(self.classes, self.n_used)

    def to_dict(self) -> dict:
        return {
            "classes": [str(c) for c in self.classes],
            "n_used": self.n_used,
            "k": self.k,
        }


def _bfs_order(g: PlumbingGraph) -> list[int]:
    from collections import deque

    # each vertex's neighbours in increasing order, from one pass over
    # the sorted edges: a vertex meets its smaller neighbours first
    adjacent: list[list[int]] = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    order = [g.root]
    seen = {g.root}
    queue = deque(order)
    while queue:
        u = queue.popleft()
        for w in adjacent[u]:
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    if len(order) != g.n:
        raise ValueError("embedding search needs a connected graph")
    return order


@dataclass
class _Orbits:
    """The indices in use, grouped into orbits of equal columns.

    An orbit is a run of consecutive indices: fresh indices open in runs
    of one value, and a placed class takes a prefix of each orbit it
    touches, one run per value.  Placing a class therefore cuts the
    orbits it touches and appends the fresh ones.  An orbit is named by
    its first member, so the orbits in first-member order are the names
    in increasing order, and a cut renames no other orbit.
    - ends[s]: one past the last member of orbit s, 0 at an index that
      starts no orbit;
    - rows[s]: the row of orbit s, the column its members share (an
      index that starts no orbit holds a stale row);
    - by_class[u]: the (orbit, coefficient) pairs of the class at
      position u, in orbit order;
    - at[row]: the orbit with that row.  Rows are the distinct columns,
      and every index in use carries a class, so a row names one orbit
      and no orbit has the empty row.
    placed returns the partition once the class at the next position is
    placed and leaves its own unchanged, so a search node keeps its
    partition while its children hold theirs.
    """

    ends: list[int]
    rows: list[Row]
    by_class: list[list[tuple[int, int]]]
    at: dict[Row, int]

    def placed(self, items: Sequence[tuple[int, int]], new_used: int) -> _Orbits:
        # the class puts coefficient c on each index i of items, and the
        # indices from len(ends) to new_used are fresh: one orbit with the
        # empty row, all cut.  The lists are copies, and a class list that
        # gains pieces is replaced, not spliced into
        pos, n_used = len(self.by_class), len(self.ends)
        ends = self.ends + [0] * (new_used - n_used)
        rows = self.rows + [()] * (new_used - n_used)
        if new_used > n_used:
            ends[n_used] = new_used
        at, by_class = dict(self.at), [*self.by_class]
        mine: list[tuple[int, int]] = []
        # i is one past the run of value v that starts at p, in the orbit
        # [s, e) with this row; a sentinel closes the last orbit
        i = e = 0
        v = None
        order = sorted(items)
        order.append((-1, None))
        for j, val in order:
            if j == i < e and val == v:
                i += 1
                continue
            if v is not None:
                new = row + ((pos, v),)
                ends[p], rows[p], at[new] = i, new, p
                mine.append((p, v))
                pieces.append(p)
            if j == i < e:
                # the next run of the same orbit
                p, v, i = j, val, j + 1
                continue
            if v is not None:
                # the rest of the orbit keeps its row
                if i < e:
                    ends[i], rows[i], at[row] = e, row, i
                    pieces.append(i)
                elif row:
                    del at[row]
                if len(pieces) > 1:
                    for u, c in row:
                        carried = by_class[u]
                        k = bisect_left(carried, (s,)) + 1
                        added = [(q, c) for q in pieces[1:]]
                        by_class[u] = carried[:k] + added + carried[k:]
            if val is None:
                break
            s, e, row, pieces = j, ends[j], rows[j], []
            if e <= s:
                raise RuntimeError(f"a class takes index {s} but not its orbit's prefix")
            p, v, i = j, val, j + 1
        by_class.append(mine)
        return _Orbits(ends, rows, by_class, at)


def _suffix_units(groups: Sequence[tuple[int, int]]) -> list[int]:
    # per group gi: the units of group gi and the groups after it
    return [*accumulate((cnt for _, cnt in reversed(groups)), initial=0)][::-1]


def _distributions(
    groups: Sequence[tuple[int, int]],
    units: Sequence[int],
    orbits: _Orbits,
    owed: Mapping[int, int],
) -> Iterator[tuple[list[tuple[int, int]], int]]:
    """Assign each profile value a distinct index, up to index symmetry,
    so that the new class pairs as required with every earlier class.

    Values are placed into prefixes of the interchangeability orbits or
    onto consecutive fresh indices, the first of them len(orbits.ends);
    yields (index, value) lists together with the new fresh-index
    watermark.  units[gi] counts the units of group gi and the groups
    after it.  Every member of orbit o carries the coefficients of
    rows[o] (class, coefficient; 0 in the classes it omits) and fresh
    indices carry none, so the e-part of the pairing with class u is
    linear in the units of each value placed in each orbit and must
    reach owed[u] (owed holds only the nonzero entries).  `need` holds
    what is still owed, only its nonzero entries.

    The walk recurses once per placement, t > 0 units of one value into
    one orbit, with orbits taken in increasing order; the orbits that
    take nothing are a plain loop, and what is left of a value after the
    last orbit goes onto fresh indices.  The range cut compares, per
    owed class, the need left with what the units still to place can
    add: the rest of this value in orbit o or later, and the later
    values anywhere.  It is sound because each unit adds a coefficient
    that lies between the extremes of the rows it may take.  A need of
    0 always lies in the range (fresh indices add 0), so only owed
    classes are checked.  An orbit missing from a class's own (orbit,
    coefficient) list carries 0 there, as the fresh indices do, so
    extremes read from that list are those of the full column; they
    depend on the rows and groups only, so they are built once, when
    the class first owes something.  The range only narrows as o grows,
    so the loop stops at the first orbit that fails.
    The last one or two units are placed without a scan.  Nothing
    follows them, so they must pay the need exactly, and a unit of val
    in orbit o pays val * rows[o]; a fresh index pays nothing.
    - One unit goes to the orbit whose row is need / val if it lies
      from oi on and has a free member, nowhere if val does not divide
      the need, and onto a fresh index only when nothing is owed.
    - Two units, v1 then v2 (two of the last value, or one of each of
      the last two values), are a join: v1 * rows[o1] + v2 * rows[o2]
      = need.  With something owed, one owed class suffices: only its
      own orbits carry it (fresh indices and the other orbits carry 0),
      so every pair that pays it has a unit there.  The class with the
      fewest orbits is taken, each of its orbits is tried as o1 and as
      o2, and the partner is looked up by its exact row, as for one
      unit; when nothing is left for the partner it may also go fresh.
      The o2 direction skips partners that also carry the class, since
      the o1 direction finds those.  With nothing owed, every orbit from
      oi on and the fresh indices are tried as o1, in one direction.
      Both units keep the scan's order: o1 >= oi, and o2 >= o1 within
      one value, where o1 = o2 needs two free members; a unit of the
      last value may take any orbit, o1's own included, where it takes
      the member after o1's.  Each fresh unit moves the fresh watermark
      by one.
    Those are the leaves the scan would reach.  Every other leaf must
    hit every target.
    """
    ends, rows, by_class, at = orbits.ends, orbits.rows, orbits.by_class, orbits.at
    # orbits are named by their first members; no names the fresh indices
    no, last = len(ends), len(groups) - 1
    tables: dict[int, list[tuple[list[int], list[int], int, int]]] = {}

    def table(u: int) -> list[tuple[list[int], list[int], int, int]]:
        # per group gi: class u's least and greatest coefficient over the
        # orbits from o on and the fresh indices (swapped when val < 0),
        # then the least and the most the groups after gi can add
        col = [0] * no
        for o, c in by_class[u]:
            col[o] = c
        lo = [*accumulate(reversed(col), min, initial=0)][::-1]
        hi = [*accumulate(reversed(col), max, initial=0)][::-1]
        out, later_lo, later_hi = [], 0, 0
        for val, cnt in reversed(groups):
            small, large = (lo, hi) if val > 0 else (hi, lo)
            out.append((small, large, later_lo, later_hi))
            later_lo += cnt * val * small[0]
            later_hi += cnt * val * large[0]
        tables[u] = out[::-1]
        return tables[u]

    need = dict(owed)
    # free[o]: the first member of orbit o that no unit has taken
    free = [*range(no)]
    acc: list[tuple[int, int]] = []

    def paying(rem: dict[int, int], val: int) -> int | None:
        # the orbit where a unit of val pays rem exactly: no (the fresh
        # indices) when rem is empty, None when no orbit does
        if not rem:
            return no
        if val == 1:
            return at.get(tuple(sorted(rem.items())))
        if any(map(mod, rem.values(), repeat(val))):
            return None
        quotients = map(floordiv, rem.values(), repeat(val))
        return at.get(tuple(sorted(zip(rem, quotients))))

    def less(val: int, o: int) -> dict[int, int]:
        # the need once a unit of val sits in orbit o
        rem = dict(need)
        for u, c in rows[o] if o < no else ():
            s = rem.pop(u, 0) - val * c
            if s:
                rem[u] = s
        return rem

    def member(o: int, k: int, fresh_at: int) -> int | None:
        # the index k places past the first free one of orbit o (of the
        # fresh indices when o == no), None when the orbit runs out
        if o == no:
            return fresh_at + k
        j = free[o] + k
        return j if j < ends[o] else None

    def join(
        gi: int, oi: int, fresh_at: int
    ) -> list[tuple[list[tuple[int, int]], int]]:
        # the last two units: the exact join of the docstring
        v1, v2, same = groups[gi][0], groups[last][0], gi == last
        pairs: list[tuple[int, int]] = []
        if need:
            u = min(need, key=lambda u: len(by_class[u]))
            for o, c in by_class[u]:
                if o >= oi:
                    o2 = paying(less(v1, o), v2)
                    if o2 is not None:
                        pairs.append((o, o2))
                # o as o2 with a first unit that pays u nothing
                if v2 * c == need[u] and (o >= oi or not same):
                    o1 = paying(less(v2, o), v1)
                    if o1 is not None:
                        pairs.append((o1, o))
        else:
            # every orbit from oi on, then the fresh indices
            o1 = oi
            while True:
                o2 = paying(less(v1, o1), v2)
                if o2 is not None:
                    pairs.append((o1, o2))
                if o1 == no:
                    break
                o1 = ends[o1]
        out = []
        for o1, o2 in pairs:
            if o1 < oi or same and o2 < o1:
                continue
            i1, i2 = member(o1, 0, fresh_at), member(o2, o1 == o2, fresh_at)
            if i1 is not None and i2 is not None:
                end = fresh_at + (o1 == no) + (o2 == no)
                out.append(([*acc, (i1, v1), (i2, v2)], end))
        return out

    def place(
        gi: int, oi: int, left: int, fresh_at: int
    ) -> Iterator[tuple[list[tuple[int, int]], int]]:
        # the last `left` units of group gi go into orbits oi.. or onto
        # fresh indices
        if not left:
            gi, oi = gi + 1, 0
            if gi > last:
                if not need:
                    yield list(acc), fresh_at
                return
            left = groups[gi][1]
        val = groups[gi][0]
        rest = left + units[gi + 1]
        if rest == 2:
            yield from join(gi, oi, fresh_at)
            return
        if rest == 1:
            # the last unit: the exact close of the docstring
            o = paying(need, val)
            if o is not None and o >= oi:
                i = member(o, 0, fresh_at)
                if i is not None:
                    yield [*acc, (i, val)], fresh_at + (o == no)
            return
        live = [(r, (tables.get(u) or table(u))[gi]) for u, r in need.items()]
        n = left * val
        # the orbits from oi on, each one's end the next one's name, then
        # the fresh indices
        o = oi
        while True:
            for r, (small, large, flo, fhi) in live:
                if r < n * small[o] + flo or r > n * large[o] + fhi:
                    return
            if o == no:
                acc.extend((fresh_at + j, val) for j in range(left))
                yield from place(gi, no, 0, fresh_at + left)
                del acc[-left:]
                return
            end, row = ends[o], rows[o]
            base = free[o]
            for t in range(min(left, end - base), 0, -1):
                step = val * t
                for u, c in row:
                    s = need.pop(u, 0) - step * c
                    if s:
                        need[u] = s
                acc.extend((i, val) for i in range(base, base + t))
                free[o] = base + t
                yield from place(gi, end, left - t, fresh_at)
                free[o] = base
                del acc[-t:]
                for u, c in row:
                    s = need.pop(u, 0) + step * c
                    if s:
                        need[u] = s
            o = end

    # group -1 has no units left, so the walk opens on group 0
    yield from place(-1, 0, 0, no)


def _canonical_classes(
    a0s: Sequence[int], cols: Sequence[Sequence[int]]
) -> tuple[HClass, ...]:
    # cols[i][v] is e_i's coefficient in vertex v's class.  Indices are
    # relabelled by first use scanning vertices in order; inside one
    # class larger coefficients come first, and same-coefficient ties go
    # to the index whose later history (its column past this vertex)
    # compares smaller.  Indices that tie on all three carry equal
    # columns, so their order changes nothing
    def first_use(col: Sequence[int]) -> tuple:
        v = next(v for v, c in enumerate(col) if c)
        return v, -col[v], col[v + 1:]

    coeffs: list[list[tuple[int, int]]] = [[] for _ in a0s]
    for i, col in enumerate(sorted(cols, key=first_use)):
        for v, c in enumerate(col):
            if c:
                coeffs[v].append((i, c))
    return tuple(HClass(a0, tuple(co)) for a0, co in zip(a0s, coeffs))


def _dominance_order(classes: Sequence[HClass], n_used: int) -> Walk | None:
    """Indices 0..n_used-1, those the classes use, each once with the
    position of the degree-zero class it heads or None: first those no
    such class names, then every tail before its head.  None on a cycle.

    Each class is e_a - sum(e_b for b in S), of positive area iff
    w(e_a) > sum(w(e_b)), read as edges a -> b.  A cycle through a would
    force w(e_a) > w(e_a); without one, weights given along the order,
    each 1 more than the sum over its tails, satisfy every row, and
    anything with a0 > 0 is fed by a large enough w(h).  The blow-down
    contracts along the same order.  A Kahn peel: each index waits for
    the tails of the classes it heads.
    """
    waits: dict[int, set[int]] = {}
    held: dict[int, set[int]] = {}
    heads: dict[int, int] = {}
    for v, x in enumerate(classes):
        if x.a0:
            continue
        ones = [i for i, c in x.coeffs if c == 1]
        if len(ones) != 1 or any(c not in (1, -1) for _, c in x.coeffs):
            raise ValueError(f"not a degree-zero sphere class: {x}")
        heads[ones[0]] = v
        for b, _ in x.coeffs:
            waits.setdefault(b, set())
            if b != ones[0]:
                held.setdefault(b, set()).add(ones[0])
        waits[ones[0]].update(b for b, _ in x.coeffs if b != ones[0])
    order = [i for i in range(n_used) if i not in waits]
    order += [a for a, tails in waits.items() if not tails]
    # the list grows behind the loop as heads come free
    for b in order:
        for a in held.get(b, ()):
            waits[a].discard(b)
            if not waits[a]:
                order.append(a)
    return tuple((i, heads.get(i)) for i in order) if len(order) == n_used else None


class _Search:
    def __init__(self, g: PlumbingGraph):
        if g.root is None:
            raise ValueError("embedding search needs a rooted graph")
        if g.eulers[g.root] != 1:
            raise ValueError("the root must be a +1 sphere")
        self.g = g
        self.order = _bfs_order(g)
        req = g.intersection_matrix()
        # per position: a0, the h-degree (the pairing with the root, 1 at
        # the root itself), the targets, the e-part of the pairing with
        # each earlier position (a0 * ua0 minus what the graph wants), and
        # the owed dict of its nonzero targets; all are fixed per graph
        self.a0s = [req[v][g.root] for v in self.order]
        self.targets = [
            [ua0 * a0 - req[u][v] for u, ua0 in zip(self.order, self.a0s[:pos])]
            for pos, (v, a0) in enumerate(zip(self.order, self.a0s))
        ]
        self.owed = [{u: r for u, r in enumerate(t) if r} for t in self.targets]
        # each position's profiles, as (value, count) groups with their
        # unit suffix counts, built once per distinct (a0, square)
        shapes: dict[tuple[int, int], list] = {}
        for v, a0 in zip(self.order, self.a0s):
            if (a0, g.eulers[v]) not in shapes:
                runs = [
                    [(val, len([*run])) for val, run in groupby(p)]
                    for p in adjunction_profiles(a0, g.eulers[v])
                ]
                shapes[a0, g.eulers[v]] = [(gs, _suffix_units(gs)) for gs in runs]
        self.profiles = [shapes[a0, g.eulers[v]] for v, a0 in zip(self.order, self.a0s)]
        # the search's record of its assignment: cols[i] holds the
        # (position, coefficient) pairs the placed classes put on e_i, one
        # column per index in use (the root's h puts none); orbits groups
        # the indices by equal column, the root's h touching none
        self.cols: list[list[tuple[int, int]]] = []
        self.orbits = _Orbits([], [], [[]], {})

    def candidates(self, pos: int) -> Iterator[tuple[list[tuple[int, int]], int]]:
        v, a0, targets = self.order[pos], self.a0s[pos], self.targets[pos]
        cols = self.cols
        n_used = len(cols)
        for groups, units in self.profiles[pos]:
            for items, new_used in _distributions(groups, units, self.orbits, self.owed[pos]):
                # the e-part of the pairing with every earlier class, read
                # off the columns of the candidate's own indices (fresh
                # ones carry nothing), must be targets exactly
                got = [0] * pos
                for i, c in items:
                    for u, x in cols[i] if i < n_used else ():
                        got[u] += c * x
                if got != targets:
                    u = next(u for u in range(pos) if got[u] != targets[u])
                    ua0 = self.a0s[u] * a0
                    raise RuntimeError(
                        f"distribution for vertex {v} pairs to {ua0 - got[u]} with "
                        f"vertex {self.order[u]}, not {ua0 - targets[u]}"
                    )
                yield items, new_used

    def dfs(self, pos: int, leaves: list[Embedding]) -> None:
        cols = self.cols
        n_used = len(cols)
        if pos == self.g.n:
            # the leaf reads its classes off the columns, made dense and
            # indexed by vertex; a vertex's a0 is its pairing with the root
            order, dense = self.order, [[0] * pos for _ in cols]
            for col, out in zip(cols, dense):
                for p, c in col:
                    out[order[p]] = c
            a0s = self.g.intersection_matrix()[self.g.root]
            leaves.append(Embedding(self.g, _canonical_classes(a0s, dense), n_used))
            return
        # materialised so that no open generator holds its bound tables
        # while the search descends
        parent = self.orbits
        for items, new_used in list(self.candidates(pos)):
            cols.extend([] for _ in range(new_used - n_used))
            for i, c in items:
                cols[i].append((pos, c))
            self.orbits = parent.placed(items, new_used)
            self.dfs(pos + 1, leaves)
            for i, _ in items:
                cols[i].pop()
            del cols[n_used:]
        self.orbits = parent


def enumerate_embeddings(g: PlumbingGraph) -> tuple[Embedding, ...]:
    """All class assignments for the rooted graph, canonical and sorted.

    The root maps to h, which forces every other vertex's h-degree to be
    its pairing with the root; adjunction then leaves finitely many
    coefficient profiles per vertex.  A profile's coefficients are
    distributed over the exceptional indices under running bounds on
    the pairings with the classes already placed, so every candidate
    generated pairs as required.  Each complete assignment is generated
    once, so two equal leaves are an internal error (RuntimeError), and
    it is kept iff its degree-zero classes leave their dominance graph
    (e_a -> e_b for each class e_a - ... - e_b - ...) without a cycle,
    iff it has a contraction walk.  Runs agree on order and labelling.
    """
    search = _Search(g)
    if any(not p for p in search.profiles):
        return ()
    leaves: list[Embedding] = []
    search.dfs(1, leaves)
    leaves.sort(key=lambda e: (e.n_used, tuple((c.a0, c.coeffs) for c in e.classes)))
    for a, b in zip(leaves, leaves[1:]):
        if a == b:
            raise RuntimeError(f"the search yields one embedding twice: {a.to_dict()}")
    return tuple(e for e in leaves if e.contraction is not None)


def _orthogonal_form(emb: Embedding, drop_root: bool) -> GramForm:
    n = emb.n_used
    rows = []
    for v, c in enumerate(emb.classes):
        if drop_root and v == emb.graph.root:
            continue
        co = dict(c.coeffs)
        rows.append([c.a0] + [-co.get(i, 0) for i in range(n)])
    kernel = int_kernel_basis(rows, 1 + n)
    if len(kernel) != 1 + n - len(rows):
        raise ValueError("configuration classes are rationally dependent")
    for vec in kernel:
        lead = next((v for v in vec if v), 1)
        if lead < 0:
            vec[:] = [-v for v in vec]
    basis = tuple(
        HClass.make(vec[0], {i: vec[i + 1] for i in range(n)}) for vec in kernel
    )
    return _gram_of(basis)


def complement_form(emb: Embedding) -> GramForm:
    """Form of the orthogonal complement of all vertex classes (the filling)."""
    return _orthogonal_form(emb, drop_root=False)


def ambient_form(emb: Embedding) -> GramForm:
    """Form orthogonal to the non-root classes: where the root curve lands."""
    return _orthogonal_form(emb, drop_root=True)


def ambient(emb: Embedding) -> str:
    """Name the closed manifold carrying the root curve after blowing down.

    With the graph built by successive blow-ups, k = emb.k counts the
    exceptional directions the embedding does not consume: k = 0 is the
    plane; an even rank-two residual form is the sphere product;
    otherwise a k-fold blow-up of the plane.
    """
    k = emb.k
    if k < 0:
        raise ValueError("more blow-ups than exceptional indices in use")
    if k == 0:
        return "CP2"
    if ambient_form(emb).parity == "even":
        if k != 1:
            raise RuntimeError("even residual form with more than one spare index")
        return "S2xS2"
    return f"CP2#{k}"
