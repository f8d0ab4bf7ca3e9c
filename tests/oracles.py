"""Independent oracles that only the tests use.

Each one recomputes a fact the library reaches another way: the
continuant by its recurrence, the Riemenschneider dual through it,
the normal crossing star of a single cusp, definiteness by leading
minors, the bounded zero strings by a plain depth-first walk of the
whole product space, the semigroup gate's gap tables as lists, every
pairing of a graph as one dense matrix, the embedding search's orbits
regrouped from columns recorded beside it, with a check of the
partition the search carries against them at every node, and the
blow-down found step by step: at each step it rescans every class still
in play for a sphere reduced to a bare e_k, and failing one contracts
the lowest index that no such class still holds up.
"""

from functools import reduce

from cuspatlas.blowdown import ConfigFingerprint, PointNode, _prune
from cuspatlas.cf import cf_expand
from cuspatlas.lattice import Embedding, _Orbits
from cuspatlas.linalg import int_det
from cuspatlas.plumbing import PlumbingGraph, _apply_mode, _resolve_cusp, _Surface


def continuant(seq) -> int:
    """Numerator of the value of seq as a polynomial in the entries.

    K() = 1, K(m_1) = m_1, K(m_1..m_i) = m_i K(..m_{i-1}) - K(..m_{i-2}).
    The value of a nonempty seq is K(seq)/K(seq[1:]), infinite when the
    denominator is 0.  K reads the same on the reversed string.
    """
    km2, km1 = 0, 1
    for m in seq:
        km2, km1 = km1, m * km1 - km2
    return km1


def cf_dual(seq):
    """Riemenschneider dual: the expansion of p/(p-q) when seq expands p/q.

    Only defined for nonempty strings with all entries >= 2, whose value
    p/q = K(seq)/K(seq[1:]) is finite, in lowest terms and exceeds 1, so
    p > p - q >= 1 as cf_expand needs.
    """
    if not seq or any(m < 2 for m in seq):
        raise ValueError("dual is defined for nonempty strings of entries >= 2")
    p, q = continuant(seq), continuant(seq[1:])
    return cf_expand(p, p - q)


def dfs_zero_strings(n):
    """All strings m with 1 <= m_i <= n_i and [m_1,...,m_l] = 0.

    Exhaustive depth-first search in lexicographic order.  The state
    after a prefix is the forced tail value t_i = [m_i, ..., m_l] as a
    primitive pair (a, b): t_1 = 0 is (0, 1), and t_{i+1} = 1/(m_i - t_i)
    is (b, m_i b - a).  The string closes iff the last tail is finite
    (b != 0) and an integer a/b with 1 <= a/b <= n_l, which is then the
    last entry.
    """
    ell = len(n)
    out = []
    if ell == 0:
        return out
    prefix = []

    def walk(i, a, b):
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


def nc_resolution(cusp) -> PlumbingGraph:
    """Normal crossing star of a single cusp, exceptional curves only.

    The last vertex is the central -1 curve that meets the branch.
    """
    surf = _Surface()
    root = surf.add_curve(0, "C")
    _apply_mode(surf, root, _resolve_cusp(surf, root, cusp), "nc")
    g = surf.freeze(root=root)
    for tri in g.corners:
        if root in tri:
            raise RuntimeError("normal crossing star kept a corner at the root")
    edges = tuple(
        sorted((u - 1, v - 1, o) for u, v, o in g.edges if root not in (u, v))
    )
    corners = tuple(sorted(tuple(x - 1 for x in tri) for tri in g.corners))
    return PlumbingGraph(g.eulers[1:], g.labels[1:], edges, corners, root=None)


def negative_definite(form) -> bool:
    """Whether a GramForm's matrix is negative definite: its leading
    minors alternate in sign, starting negative."""
    for j in range(1, form.rank + 1):
        minor = int_det([list(row[:j]) for row in form.matrix[:j]])
        if minor * (-1) ** j <= 0:
            return False
    return True


def max_plus(head, rises):
    """max_k head(n - k) + G(k) for n = 0 .. len(head) - 1 + c, as a list,
    where G is a gap count with these rises (k, G(k)), the last at k = c,
    and head is held at its last value past its end.  For fixed n the
    head term does not grow with k, so on each run of constant G only its
    first k counts: k = 0 and each rise."""
    c = rises[-1][0]
    out = head + [head[-1]] * c
    for k, i in rises:
        shifted = [h + i for h in head] + [head[-1] + i] * (c - k)
        out[k:] = map(max, out[k:], shifted)
    return out


def gap_table(cusps):
    """H(0 .. sum c), the max-plus convolution of the cusps' gap counts,
    as a list; [0] for no cusps."""
    return reduce(max_plus, (c.gap_rises() for c in cusps), [0])


def counting_function(head, rises, n):
    """R(n) of a prefix of cusps with list gap table head, plus one last
    cusp with these gap rises: n - H(n), 0 for n <= 0, with head held at
    its last value past its end."""
    if n <= 0:
        return 0
    end = len(head) - 1
    h = head[min(n, end)]
    for k, i in rises:
        if k > n:
            break
        h = max(h, head[min(n - k, end)] + i)
    return n - h


def pairings(g):
    """The pairing of every two vertices of the graph as a dense matrix:
    the eulers on the diagonal, the edge orders off it, 0 elsewhere."""
    m = [[0] * g.n for _ in range(g.n)]
    for i, e in enumerate(g.eulers):
        m[i][i] = e
    for u, v, order in g.edges:
        m[u][v] = m[v][u] = order
    return m


def orbits(cols):
    """The indices with equal columns, and their rows, from scratch.

    cols[i] is the (class, nonzero coefficient) pairs the placed classes
    put on index i.  Indices with the same column are interchangeable.
    Returns the orbits in order of first member, and their rows (the
    shared column as a tuple) in the same order.
    """
    groups = {}
    for i, col in enumerate(cols):
        groups.setdefault(tuple(col), []).append(i)
    return list(groups.values()), list(groups)


def partition(members, rows, n_classes):
    """The (ends, rows, by_class, at) fields of the search's partition
    for these orbits, runs of consecutive indices that tile 0..n-1 in
    order, and their rows; an index that starts no orbit has end 0 and
    the empty row."""
    n = sum(map(len, members))
    ends, row_of, at = [0] * n, [()] * n, {}
    by_class = [[] for _ in range(n_classes)]
    for m, row in zip(members, rows):
        if m != list(range(m[0], m[0] + len(m))):
            raise AssertionError(f"orbit {m} is not a run of consecutive indices")
        ends[m[0]], row_of[m[0]], at[row] = m[0] + len(m), row, m[0]
        for u, c in row:
            by_class[u].append((m[0], c))
    return ends, row_of, by_class, at


def checked_dfs(dfs):
    """_Search.dfs with two checks at every node, each raising
    AssertionError: the partition the node holds is the one regrouped
    from its columns, with distinct nonempty rows, and the branches
    below it leave that partition as they found it, down to each
    class's list, and hand it back.

    The columns are the oracle's own record: while a search runs,
    _Orbits.placed also hangs on each child partition its columns, the
    parent's with the placed items appended (the partition the search
    starts from has none), and the real placed is restored afterwards.
    """
    real = _Orbits.placed

    def recorded(part, items, new_used):
        child = real(part, items, new_used)
        cols = [*getattr(part, "oracle_cols", ())]
        cols += [()] * (new_used - len(cols))
        for i, c in items:
            cols[i] += ((len(part.by_class), c),)
        child.oracle_cols = cols
        return child

    def fields(part):
        return [*part.ends], [*part.rows], [[*c] for c in part.by_class], {**part.at}

    def checked(search, pos, leaves):
        part = search.orbits
        members, rows = orbits(getattr(part, "oracle_cols", ()))
        ends, _, by_class, at = partition(members, rows, pos)
        starts = [part.rows[m[0]] for m in members]
        if () in rows or (part.ends, starts, part.by_class, part.at) != (
            ends, rows, by_class, at
        ):
            raise AssertionError(f"position {pos} holds orbits its columns do not give")
        before = fields(part)
        outer = _Orbits.placed is real
        _Orbits.placed = recorded
        try:
            dfs(search, pos, leaves)
        finally:
            if outer:
                _Orbits.placed = real
        if search.orbits is not part or fields(part) != before:
            raise AssertionError(f"the branches below position {pos} changed it")

    return checked


def blow_down_trace(emb: Embedding) -> ConfigFingerprint:
    """Contract all exceptional directions of the embedding and report
    the fingerprint of the resulting plane configuration.

    Pushing forward never changes a coefficient, it only deletes the
    contracted coordinate, so a curve passes through the point created
    at index k exactly when its class had a negative e_k coefficient,
    with multiplicity the negated coefficient.  Points previously
    created on a configuration sphere become infinitely near the point
    that sphere collapses to.  The pre-existing meets of the cap are
    seeded as contact chains so that every intersection of the final
    image curves is accounted for.
    """
    g = emb.graph
    coeff = [dict(c.coeffs) for c in emb.classes]
    a0 = [c.a0 for c in emb.classes]
    active = set(range(g.n))
    roots: list[PointNode] = []

    def chain(u: int, v: int, order: int) -> tuple[PointNode, ...]:
        # contact of this order: a chain of points on {u, v}, built
        # from its deepest point up
        below: tuple[PointNode, ...] = ()
        for _ in range(order):
            below = (PointNode({u: 1, v: 1}, below),)
        return below

    corner_pairs: set[tuple[int, int]] = set()
    req = pairings(g)
    for x, y, z in g.corners:
        orders = {(x, y): req[x][y], (x, z): req[x][z], (y, z): req[y][z]}
        deep = [(pair, r) for pair, r in orders.items() if r > 1]
        if len(deep) > 1:
            raise ValueError("a corner admits at most one tangent pair")
        near: tuple[PointNode, ...] = ()
        if deep:
            (u, v), r = deep[0]
            near = chain(u, v, r - 1)
        roots.append(PointNode({x: 1, y: 1, z: 1}, near))
        corner_pairs.update(orders)
    for u, v, order in g.edges:
        if (u, v) not in corner_pairs:
            roots.extend(chain(u, v, order))

    remaining = set(range(emb.n_used))
    steps = 0
    while remaining:
        shrink = None
        for v in sorted(active):
            if a0[v] == 0 and len(coeff[v]) == 1:
                ((k, c),) = coeff[v].items()
                if c == 1 and (shrink is None or k < shrink[0]):
                    shrink = (k, v)
        if shrink is not None:
            k, v = shrink
            m = {
                u: -coeff[u][k]
                for u in active
                if u != v and coeff[u].get(k, 0) < 0
            }
            near = tuple(r for r in roots if v in r.mults)
            roots = [r for r in roots if v not in r.mults]
            roots.append(PointNode(m, near))
            active.remove(v)
        else:
            free = (
                k
                for k in sorted(remaining)
                if all(coeff[u].get(k, 0) <= 0 for u in active)
            )
            k = next(free, None)
            if k is None:
                raise RuntimeError("blow-down deadlock: every index is held up")
            m = {u: -coeff[u][k] for u in active if coeff[u].get(k, 0) < 0}
            roots.append(PointNode(m))
        for u in active:
            coeff[u].pop(k, None)
        remaining.discard(k)
        steps += 1
    if steps != emb.n_used:
        raise RuntimeError("blow-down took the wrong number of steps")

    survivors = sorted(active)
    if not all(a0[v] > 0 and not coeff[v] for v in survivors):
        raise RuntimeError("blow-down left an exceptional class behind")
    return ConfigFingerprint(
        tuple(a0[v] for v in survivors),
        tuple(g.labels[v] for v in survivors),
        _prune(roots, {v: i for i, v in enumerate(survivors)}),
    )
