"""Resolution diagrams of cuspidal plane curves and their cap closures.

A configuration of smooth curves on a blown-up plane is tracked point by
point: every intersection point records its incident curves and the
contact order of the one pair that may be tangent there.  Blowing up a
point rewrites the configuration by the usual local rules, so tangencies
step down one order at a time and triples of curves through a common
point arise and disappear the way they do on the surface.

The frozen end product is a PlumbingGraph: self-intersection numbers,
pairwise contact orders, and the triples of vertices that share a single
point.  Cap builders resolve each cusp just far enough that the strict
transform of the curve lands on self-intersection +1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .cusp import CuspCombo, CuspType
from .linalg import int_det

Edge = tuple[int, int, int]
Corner = tuple[int, int, int]
Site = Union[int, tuple[int, int], tuple[int, int, int]]


@dataclass(frozen=True)
class PlumbingGraph:
    """Weighted curve configuration.

    eulers[i] is the self-intersection of vertex i, labels[i] its display
    name.  Edges are (u, v, contact order) with u < v and at most one
    edge per pair; corners list triples of vertices passing through one
    common point (their pairwise orders are carried by the edges).  The
    root, if any, marks the strict transform of the plane curve.
    """

    eulers: tuple[int, ...]
    labels: tuple[str, ...]
    edges: tuple[Edge, ...]
    corners: tuple[Corner, ...] = ()
    root: Optional[int] = None

    def __post_init__(self) -> None:
        n = len(self.eulers)
        if len(self.labels) != n:
            raise ValueError("labels and eulers disagree")
        if len(set(self.labels)) != n:
            raise ValueError("duplicate labels")
        pairs = set()
        for u, v, order in self.edges:
            if not (0 <= u < v < n):
                raise ValueError(f"bad edge ({u}, {v})")
            if order < 1:
                raise ValueError("contact order must be at least 1")
            if (u, v) in pairs:
                raise ValueError(f"two edges on pair ({u}, {v})")
            pairs.add((u, v))
        if self.edges != tuple(sorted(self.edges)):
            raise ValueError("edges must be sorted")
        for tri in self.corners:
            if tuple(sorted(tri)) != tri or len(set(tri)) != 3:
                raise ValueError(f"bad corner {tri}")
            for a, b in ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])):
                if (a, b) not in pairs:
                    raise ValueError(f"corner {tri} missing edge ({a}, {b})")
        if self.corners != tuple(sorted(self.corners)):
            raise ValueError("corners must be sorted")
        if self.root is not None and not (0 <= self.root < n):
            raise ValueError("root out of range")

    @property
    def n(self) -> int:
        return len(self.eulers)

    def pairing(self, u: int, v: int) -> int:
        if u == v:
            return self.eulers[u]
        key = (u, v) if u < v else (v, u)
        for a, b, order in self.edges:
            if (a, b) == key:
                return order
        return 0

    def neighbors(self, v: int) -> tuple[int, ...]:
        out = set()
        for a, b, _ in self.edges:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return tuple(sorted(out))

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def intersection_matrix(self) -> list[list[int]]:
        m = [[0] * self.n for _ in range(self.n)]
        for i, e in enumerate(self.eulers):
            m[i][i] = e
        for u, v, order in self.edges:
            m[u][v] = m[v][u] = order
        return m

    def det(self) -> int:
        return int_det(self.intersection_matrix())

    def to_dot(self) -> str:
        lines = ["graph plumbing {"]
        for i, (e, lab) in enumerate(zip(self.eulers, self.labels)):
            lines.append(f'  v{i} [label="{lab} ({e:+d})"];')
        for u, v, order in self.edges:
            if order == 1:
                lines.append(f"  v{u} -- v{v};")
            else:
                lines.append(f"  v{u} -- v{v} [label={order}];")
        for u, v, w in self.corners:
            lines.append(f"  // corner v{u} v{v} v{w}")
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass
class _Meet:
    # one intersection point: pair (a, b) meets with the given contact
    # order, `third` (if any) passes through transversally to both
    a: int
    b: int
    order: int = 1
    third: Optional[int] = None

    def curves(self) -> tuple[int, ...]:
        if self.third is None:
            return (self.a, self.b)
        return (self.a, self.b, self.third)


class _Surface:
    def __init__(self) -> None:
        self.eulers: list[int] = []
        self.labels: list[str] = []
        self.meets: list[_Meet] = []
        self._next_e = 1

    def add_curve(self, euler: int, label: Optional[str] = None) -> int:
        if label is None:
            label = f"E{self._next_e}"
            self._next_e += 1
        self.eulers.append(euler)
        self.labels.append(label)
        return len(self.eulers) - 1

    def add_meet(self, u: int, v: int, order: int = 1, third: Optional[int] = None) -> _Meet:
        if u == v:
            raise ValueError("a meet needs two distinct curves")
        m = _Meet(min(u, v), max(u, v), order, third)
        self.meets.append(m)
        return m

    def meet_with(self, curves: Sequence[int]) -> _Meet:
        wanted = set(curves)
        found = [m for m in self.meets if wanted <= set(m.curves())]
        if len(found) != 1:
            raise ValueError(f"no unique point through curves {sorted(wanted)}")
        return found[0]

    def blow_up_point(self, meet: _Meet) -> tuple[int, list[_Meet]]:
        self.meets = [m for m in self.meets if m is not meet]
        for c in meet.curves():
            self.eulers[c] -= 1
        e = self.add_curve(-1)
        created = []
        if meet.order >= 2:
            # tangent pair stays together on the new curve, any third
            # party separates onto its own transverse point
            created.append(self.add_meet(meet.a, meet.b, meet.order - 1, third=e))
            if meet.third is not None:
                created.append(self.add_meet(meet.third, e))
        else:
            for c in meet.curves():
                created.append(self.add_meet(c, e))
        return e, created

    def blow_up_free(self, v: int) -> tuple[int, list[_Meet]]:
        self.eulers[v] -= 1
        e = self.add_curve(-1)
        return e, [self.add_meet(v, e)]

    def freeze(self, root: Optional[int] = None) -> PlumbingGraph:
        edges: list[Edge] = []
        corners: list[Corner] = []
        for m in self.meets:
            if m.third is None:
                edges.append((m.a, m.b, m.order))
            else:
                t = m.third
                corners.append(tuple(sorted((m.a, m.b, t))))
                edges.append((m.a, m.b, m.order))
                edges.append((min(m.a, t), max(m.a, t), 1))
                edges.append((min(m.b, t), max(m.b, t), 1))
        edges.sort()
        corners.sort()
        return PlumbingGraph(
            tuple(self.eulers), tuple(self.labels), tuple(edges), tuple(corners), root
        )


def _thaw(g: PlumbingGraph) -> _Surface:
    surf = _Surface()
    for e, lab in zip(g.eulers, g.labels):
        surf.add_curve(e, lab)
    taken = [int(m.group(1)) for m in (re.fullmatch(r"E(\d+)", lab) for lab in g.labels) if m]
    surf._next_e = 1 + max(taken, default=0)
    order = {(u, v): o for u, v, o in g.edges}
    used = set()
    for u, v, w in g.corners:
        pairs = [(u, v), (u, w), (v, w)]
        tangent = [pq for pq in pairs if order[pq] >= 2]
        if len(tangent) > 1:
            raise ValueError(f"corner {(u, v, w)} has two tangent pairs")
        if tangent:
            a, b = tangent[0]
            t = ({u, v, w} - {a, b}).pop()
            surf.add_meet(a, b, order[(a, b)], third=t)
        else:
            surf.add_meet(u, v, 1, third=w)
        used.update(pairs)
    for u, v, o in g.edges:
        if (u, v) not in used:
            surf.add_meet(u, v, o)
    return surf


def blow_up(g: PlumbingGraph, site: Site) -> PlumbingGraph:
    """Blow up one point: a free point of vertex `site`, or the common
    point of the given pair or triple of vertices."""
    surf = _thaw(g)
    if isinstance(site, int):
        surf.blow_up_free(site)
    elif isinstance(site, tuple) and len(site) in (2, 3):
        surf.blow_up_point(surf.meet_with(site))
    else:
        raise ValueError(f"bad blow-up site {site!r}")
    return surf.freeze(root=g.root)


def _resolve_cusp(surf: _Surface, root: int, cusp: CuspType) -> _Meet:
    """Blow up the cusp until its branch is smooth.

    State machine on the local branch y^a = x^b together with the (at
    most two) exceptional curves currently through its center.  Returns
    the point where the smooth branch ends up tangent to the last
    exceptional curve.
    """
    a, b = cusp.p, cusp.q
    x_ax: Optional[int] = None
    y_ax: Optional[int] = None
    mults = []
    while a > 1 and b > 1:
        m = min(a, b)
        mults.append(m)
        surf.eulers[root] -= m * m
        for ax in (x_ax, y_ax):
            if ax is not None:
                surf.eulers[ax] -= 1
        e = surf.add_curve(-1)
        if b > a:
            # branch tangent to the y axis: the old x-axis curve leaves
            # the center and meets the new curve elsewhere
            if x_ax is not None:
                surf.add_meet(x_ax, e)
            x_ax, b = e, b - a
        else:
            if y_ax is not None:
                surf.add_meet(y_ax, e)
            y_ax, a = e, a - b
    if mults != list(cusp.mult_seq()):
        raise RuntimeError(f"resolution of {cusp} lost its multiplicity sequence")
    if b == 1:
        tangent, other, order = x_ax, y_ax, a
    else:
        tangent, other, order = y_ax, x_ax, b
    if tangent is None or order < 2:
        raise RuntimeError(f"resolution of {cusp} ended without a tangency")
    return surf.add_meet(root, tangent, order, third=other)


def _advance(surf: _Surface, root: int, meet: _Meet) -> _Meet:
    # blow up the distinguished point and follow the root to its new one
    _, created = surf.blow_up_point(meet)
    for m in created:
        if root in m.curves():
            return m
    raise RuntimeError("root lost its distinguished point")


def _apply_mode(surf: _Surface, root: int, c_meet: _Meet, mode: str) -> _Meet:
    if mode == "nc":
        while c_meet.order > 1 or c_meet.third is not None:
            c_meet = _advance(surf, root, c_meet)
        return c_meet
    if mode == "min":
        extra = 0
    elif mode.startswith("min+"):
        extra = int(mode[4:])
        if extra < 1:
            raise ValueError(f"bad resolution mode {mode!r}")
    else:
        raise ValueError(f"unknown resolution mode {mode!r}")
    for _ in range(extra):
        c_meet = _advance(surf, root, c_meet)
    return c_meet


def _build(combo: CuspCombo, modes: Sequence[str]) -> tuple[_Surface, list[_Meet]]:
    if len(modes) != len(combo.cusps):
        raise ValueError("one resolution mode per cusp")
    surf = _Surface()
    root = surf.add_curve(combo.degree**2, "C")
    handles = []
    for cusp, mode in zip(combo.cusps, modes):
        c_meet = _resolve_cusp(surf, root, cusp)
        handles.append(_apply_mode(surf, root, c_meet, mode))
    return surf, handles


def curve_resolution(combo: CuspCombo, modes: Sequence[str]) -> PlumbingGraph:
    """Resolve every cusp of the combination on the plane curve itself.

    Modes, one per cusp in combo order: "min" stops as soon as the branch
    is smooth, "min+t" blows up the surviving tangency t more times, "nc"
    continues to a normal crossing star.  The root keeps its honest
    self-intersection degree^2 - sum of squared multiplicities.
    """
    surf, _ = _build(combo, modes)
    return surf.freeze(root=0)


def nc_resolution(cusp: CuspType) -> PlumbingGraph:
    """Normal crossing star of a single cusp, exceptional curves only.

    The last vertex is the central -1 curve that meets the branch.
    """
    surf = _Surface()
    root = surf.add_curve(0, "C")
    c_meet = _resolve_cusp(surf, root, cusp)
    _apply_mode(surf, root, c_meet, "nc")
    g = surf.freeze(root=root)
    for tri in g.corners:
        if root in tri:
            raise RuntimeError("normal crossing star kept a corner at the root")
    edges = tuple(
        sorted((u - 1, v - 1, o) for u, v, o in g.edges if root not in (u, v))
    )
    corners = tuple(sorted(tuple(x - 1 for x in tri) for tri in g.corners))
    return PlumbingGraph(g.eulers[1:], g.labels[1:], edges, corners, root=None)


# stock per-cusp resolution modes closing the cap at +1, keyed by the
# sorted cusp tuple of the combination
_QUARTIC_MODES = {
    ((3, 4),): ("nc",),
    ((2, 7),): ("nc",),
    ((2, 3), (2, 5)): ("nc", "min+1"),
    ((2, 3), (2, 3), (2, 3)): ("min+1", "min+1", "min+1"),
}

_QUINTIC_MODES = {
    ((4, 5),): ("nc",),
    ((3, 7),): ("nc",),
    ((3, 4), (3, 4)): ("nc", "nc"),
    ((2, 5), (3, 5)): ("min+1", "nc"),
    ((2, 7), (3, 4)): ("min+1", "min+2"),
    ((2, 3), (2, 5), (3, 4)): ("min", "min+1", "min+2"),
    ((2, 3), (2, 3), (3, 5)): ("min+1", "min+1", "min+1"),
    ((2, 3), (2, 3), (2, 3), (3, 4)): ("min+1", "min+1", "min+1", "min"),
}


@dataclass(frozen=True)
class CapRecipe:
    """Named construction of a cap: which combination to resolve and how
    far to resolve each cusp so the curve closes at +1.

    Kinds: A_p is the (p, p+1) cusp on a degree p+1 curve, B_p the
    (p, 4p-1) cusp on degree 2p, E3 the (3, 22) cusp on degree 8, E6 the
    (6, 43) cusp on degree 16.  QuarticMin and QuinticMin pick stock
    modes for a degree 4 or 5 combination; Custom takes explicit modes.
    """

    kind: str
    p: Optional[int] = None
    combo: Optional[CuspCombo] = None
    modes: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.kind in ("A_p", "B_p"):
            if self.p is None or self.p < 2:
                raise ValueError(f"{self.kind} needs p >= 2")
        elif self.kind in ("E3", "E6"):
            if self.p is not None or self.combo is not None:
                raise ValueError(f"{self.kind} takes no parameters")
        elif self.kind in ("QuarticMin", "QuinticMin", "Custom"):
            if self.combo is None:
                raise ValueError(f"{self.kind} needs a cusp combination")
            want = {"QuarticMin": 4, "QuinticMin": 5}.get(self.kind)
            if want is not None and self.combo.degree != want:
                raise ValueError(f"{self.kind} wants degree {want}")
            if self.kind == "Custom" and self.modes is None:
                raise ValueError("Custom needs explicit modes")
        else:
            raise ValueError(f"unknown cap kind {self.kind!r}")

    def resolved_combo(self) -> CuspCombo:
        if self.kind == "A_p":
            return CuspCombo(self.p + 1, (CuspType(self.p, self.p + 1),))
        if self.kind == "B_p":
            return CuspCombo(2 * self.p, (CuspType(self.p, 4 * self.p - 1),))
        if self.kind == "E3":
            return CuspCombo(8, (CuspType(3, 22),))
        if self.kind == "E6":
            return CuspCombo(16, (CuspType(6, 43),))
        return self.combo

    def cusp_modes(self) -> tuple[str, ...]:
        if self.kind in ("A_p", "B_p"):
            return ("nc",)
        if self.kind == "E3":
            return ("min",)
        if self.kind == "E6":
            return ("min+3",)
        if self.kind == "Custom":
            return self.modes
        cusps = tuple((c.p, c.q) for c in self.combo.cusps)
        if self.kind == "QuinticMin" and all(p == 2 for p, _ in cusps):
            return ("min",) * len(cusps)
        table = _QUARTIC_MODES if self.kind == "QuarticMin" else _QUINTIC_MODES
        if cusps in table:
            return table[cusps]
        raise ValueError(f"no stock cap modes for {self.combo}")


def build_cap(recipe: CapRecipe) -> PlumbingGraph:
    """Build the recipe's plumbing graph with the root at +1."""
    combo = recipe.resolved_combo()
    surf, handles = _build(combo, recipe.cusp_modes())
    handle = handles[0]
    while surf.eulers[0] > 1:
        if handle.order != 1 or handle.third is not None:
            raise ValueError("cap recipe strands a tangency above +1")
        handle = _advance(surf, 0, handle)
    if surf.eulers[0] != 1:
        raise ValueError(f"cap recipe overshoots +1 (got {surf.eulers[0]})")
    return surf.freeze(root=0)


def cap_for_combo(combo: CuspCombo) -> Optional[CapRecipe]:
    """Stock recipe for a combination, or None if we do not know one."""
    d = combo.degree
    if d == 4:
        return CapRecipe("QuarticMin", combo=combo)
    if d == 5:
        return CapRecipe("QuinticMin", combo=combo)
    if len(combo.cusps) == 1:
        return named_cap(combo.cusps[0], d)
    return None


def named_cap(c: CuspType, degree: int) -> Optional[CapRecipe]:
    """The named family (A_p, B_p, E3, E6) whose cap resolves the single
    cusp c on a curve of this degree, or None."""
    if (c.p, c.q) == (degree - 1, degree):
        return CapRecipe("A_p", p=degree - 1)
    if degree == 2 * c.p and c.q == 4 * c.p - 1:
        return CapRecipe("B_p", p=c.p)
    if (degree, c.p, c.q) == (8, 3, 22):
        return CapRecipe("E3")
    if (degree, c.p, c.q) == (16, 6, 43):
        return CapRecipe("E6")
    return None
