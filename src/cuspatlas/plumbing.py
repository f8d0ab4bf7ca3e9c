"""Resolution diagrams of cuspidal plane curves and their cap closures.

A configuration of smooth curves on a blown-up plane is tracked point by
point: every intersection point records its incident curves and the
contact order of the one pair that may be tangent there.  Blowing up a
point rewrites the configuration by the usual local rules, so tangencies
step down one order at a time and triples of curves through a common
point arise and disappear the way they do on the surface.

The frozen end product is a PlumbingGraph: self-intersection numbers,
pairwise contact orders, and the triples of vertices that share a single
point.  A curve resolution with n vertices whose root starts at
self-intersection s has determinant (-1)^(n-1)*s (see cli._graph_dict).

A cap is one curve resolution: a mode per cusp under which the strict
transform of the curve lands on self-intersection +1, and build_cap
checks that it does.  After the minimal resolution the curve sits at
d^2 - sum m^2, leaving s = d^2 - sum m^2 - 1 blow-ups to spare.  A
single cusp spends them all on its last tangency ("min+s"), which
covers the named families (their curves are written once, in
cusp.family_combo); with none to spare every cusp stops at "min".
Only the eight quartic and quintic combinations of several cusps with
blow-ups to spare need a hand table of modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cusp import CuspCombo, CuspType, family_combo, family_of, mult_seq_length

Edge = tuple[int, int, int]
Corner = tuple[int, int, int]


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


@dataclass(eq=False)
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
        self.meets: dict[_Meet, None] = {}  # ordered set, by identity
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
        self.meets[m] = None
        return m

    def blow_up_point(self, meet: _Meet) -> list[_Meet]:
        del self.meets[meet]
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
        return created

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
    for m in surf.blow_up_point(meet):
        if root in m.curves():
            return m
    raise RuntimeError("root lost its distinguished point")


def _extra_blowups(mode: str) -> Optional[int]:
    # the blow-ups after the minimal resolution: 0 under "min", t under
    # "min+t", None under "nc" (the order of the tangency left, <= p)
    if mode in ("min", "nc"):
        return 0 if mode == "min" else None
    if not mode.startswith("min+"):
        raise ValueError(f"unknown resolution mode {mode!r}")
    digits = mode[4:]
    try:
        # int() also refuses more digits than it converts
        extra = int(digits) if digits.isascii() and digits.isdigit() else 0
    except ValueError:
        extra = 0
    if extra < 1:
        raise ValueError(f"bad resolution mode {mode!r}")
    return extra


def _apply_mode(surf: _Surface, root: int, c_meet: _Meet, mode: str) -> None:
    extra = _extra_blowups(mode)
    if extra is None:
        while c_meet.order > 1 or c_meet.third is not None:
            c_meet = _advance(surf, root, c_meet)
        return
    for _ in range(extra):
        c_meet = _advance(surf, root, c_meet)


def _blowups(combo: CuspCombo, modes: Sequence[str]) -> int:
    """The most blow-ups that resolving the combination under these modes
    makes, read off the cusp data alone: each multiplicity sequence, then
    t per "min+t" and at most p per "nc".  Past 2^16 it raises ValueError
    (the A30000 cap's 60,001 take well under a second)."""
    pairs = zip(combo.cusps, map(_extra_blowups, modes))
    n = sum(mult_seq_length(c.p, c.q) + (c.p if t is None else t) for c, t in pairs)
    if n > 1 << 16:
        raise ValueError(
            f"modes {list(modes)} resolve {combo} in up to {n} blow-ups, "
            f"more than the bound {1 << 16}"
        )
    return n


def curve_resolution(combo: CuspCombo, modes: Sequence[str]) -> PlumbingGraph:
    """Resolve every cusp of the combination on the plane curve itself.

    Modes, one per cusp in combo order: "min" stops as soon as the branch
    is smooth, "min+t" blows up the surviving tangency t more times, "nc"
    continues to a normal crossing star.  The root keeps its honest
    self-intersection degree^2 - sum of squared multiplicities.  Past
    2^16 blow-ups (_blowups) it raises ValueError before the first.
    """
    if len(modes) != len(combo.cusps):
        raise ValueError("one resolution mode per cusp")
    _blowups(combo, modes)
    surf = _Surface()
    root = surf.add_curve(combo.degree**2, "C")
    for cusp, mode in zip(combo.cusps, modes):
        _apply_mode(surf, root, _resolve_cusp(surf, root, cusp), mode)
    return surf.freeze(root=root)


# per-cusp modes of the degree 4 and 5 combinations whose curve has
# blow-ups to spare after the minimal resolution, keyed by the sorted
# cusp tuple; these choices fix the frozen quartic and quintic census
_SPARE_MODES = {
    ((2, 3), (2, 5)): ("nc", "min+1"),
    ((2, 3), (2, 3), (2, 3)): ("min+1", "min+1", "min+1"),
    ((3, 4), (3, 4)): ("nc", "nc"),
    ((2, 5), (3, 5)): ("min+1", "nc"),
    ((2, 7), (3, 4)): ("min+1", "min+2"),
    ((2, 3), (2, 5), (3, 4)): ("min", "min+1", "min+2"),
    ((2, 3), (2, 3), (3, 5)): ("min+1", "min+1", "min+1"),
    ((2, 3), (2, 3), (2, 3), (3, 4)): ("min+1", "min+1", "min+1", "min"),
}


@dataclass(frozen=True)
class CapRecipe:
    """A cap: the combination and one resolution mode per cusp (combo
    order) under which the curve lands at +1.

    kind and p label the construction in reports: A_p, B_p, E3 and E6
    are the named families of cusp.family_combo, QuarticMin and
    QuinticMin the stock caps of cap_for_combo on degrees 4 and 5.
    """

    kind: str
    combo: CuspCombo
    modes: tuple[str, ...]
    p: Optional[int] = None


def _stock_modes(combo: CuspCombo) -> Optional[tuple[str, ...]]:
    # blow-ups left once every cusp is minimally resolved, the curve then
    # sitting at d^2 - sum of squared multiplicities
    drop = sum(m * m for c in combo.cusps for m in c.mult_seq())
    spare = combo.degree**2 - drop - 1
    if spare == 0:
        return ("min",) * len(combo.cusps)
    if len(combo.cusps) == 1:
        return (f"min+{spare}",)
    return _SPARE_MODES.get(tuple((c.p, c.q) for c in combo.cusps))


def family_cap(kind: str, p: Optional[int] = None) -> CapRecipe:
    """The cap of a named family, A_p or B_p (p >= 2), E3 or E6: the
    family's one cusp on its curve (cusp.family_combo), resolved to +1;
    ValueError past 2^16 blow-ups, before anything is built."""
    combo = family_combo(kind, p)
    modes = _stock_modes(combo)
    _blowups(combo, modes)
    return CapRecipe(kind, combo, modes, p)


def named_cap(c: CuspType, degree: int) -> Optional[CapRecipe]:
    """The named family whose cap resolves the single cusp c on a curve
    of this degree, or None."""
    family = family_of(c, degree)
    return None if family is None else family_cap(*family)


def cap_for_combo(combo: CuspCombo) -> Optional[CapRecipe]:
    """Stock cap for a combination, or None if we know none: stock modes
    on degrees 4 and 5, a named family for a single cusp elsewhere."""
    kind = {4: "QuarticMin", 5: "QuinticMin"}.get(combo.degree)
    if kind is None:
        if len(combo.cusps) != 1:
            return None
        return named_cap(combo.cusps[0], combo.degree)
    modes = _stock_modes(combo)
    return None if modes is None else CapRecipe(kind, combo, modes)


def build_cap(recipe: CapRecipe) -> PlumbingGraph:
    """The curve resolution of the recipe; ValueError unless the curve
    lands at +1."""
    g = curve_resolution(recipe.combo, recipe.modes)
    if g.eulers[g.root] != 1:
        raise ValueError(
            f"modes {list(recipe.modes)} leave {recipe.combo} at "
            f"{g.eulers[g.root]:+d}, not +1"
        )
    return g
