"""Independent oracles that only the tests use.

Each one recomputes a fact the library reaches another way: the
continuant by its recurrence, the Riemenschneider dual through it,
the normal crossing star of a single cusp, definiteness by leading
minors, and the bounded zero strings by a plain depth-first walk of the
whole product space.
"""

from cuspatlas.cf import cf_expand
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
