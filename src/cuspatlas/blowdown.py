"""Blowing an embedded configuration back down to plane curves.

The classes of an embedding live in <h, e_0..e_{N-1}>.  Contracting the
exceptional directions one at a time pushes the configuration forward
to the plane.  A degree-zero sphere e_a - sum(e_b) is the exceptional
divisor at a once its tails e_b are contracted, and collapses to a
point of the image; any other index is a generic sphere.  So the trace
follows Embedding.contraction, every tail before its head, the walk the
search peeled once to give those classes positive area.  Recording which
curves pass through every collapsed point (with which multiplicity),
and hanging each point from the first sphere through it to collapse,
whose point it then lies infinitely near, determines the complete local
intersection data of the image curves.

The result is a ConfigFingerprint: component degrees plus clusters of
weighted base points, each point holding the points infinitely near
it.  catalog_lookup matches fingerprints against plane configurations
whose equisingular symplectic isotopy class is settled, either
obstructed (no symplectic realization at all) or unique up to
symplectic isotopy.  A fingerprint that is a known configuration
plus extra lines, each meeting the rest simply enough, reduces to the
known core one line at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Optional, Sequence

from .lattice import Embedding

OBSTRUCTED = "Obstructed"
UNIQUE = "UniqueIsotopy"
UNKNOWN = "Unknown"


@dataclass(frozen=True, eq=False)
class PointNode:
    """One base point of the image configuration together with the
    points infinitely near it (its children).  mults maps component
    index to the multiplicity of that component's image at the point.
    Points compare by identity: two points with equal data are still
    two places in the plane."""

    mults: Dict[int, int]
    children: tuple[PointNode, ...] = ()

    def tree(self) -> list[PointNode]:
        """This point and every point infinitely near it, in preorder."""
        out, stack = [], [self]
        while stack:
            p = stack.pop()
            out.append(p)
            stack.extend(reversed(p.children))
        return out

    def curves(self) -> set[int]:
        return {c for p in self.tree() for c in p.mults}

    def pairing(self, u: int, v: int) -> int:
        return sum(p.mults.get(u, 0) * p.mults.get(v, 0) for p in self.tree())


@dataclass(frozen=True)
class ConfigFingerprint:
    """Plane image of a blown-down embedding: component degrees plus
    the clusters of weighted base points, one root point per cluster.

    Every intersection between two components is accounted for by the
    clusters: summing mult_u * mult_v over all points recovers the
    product of the degrees (checked on construction).
    """

    degrees: tuple[int, ...]
    labels: tuple[str, ...]
    clusters: tuple[PointNode, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.degrees):
            raise ValueError("labels and degrees disagree")
        if any(d < 1 for d in self.degrees):
            raise ValueError("component degrees must be positive")
        points = self.points()
        if len(set(map(id, points))) != len(points):
            raise ValueError("a point must sit in one place of one cluster")
        for p in points:
            if any(not set(q.mults) <= set(p.mults) for q in p.children):
                raise ValueError("a child's curves must pass the parent")
            for c, m in p.mults.items():
                if not 0 <= c < len(self.degrees):
                    raise ValueError(f"a point names unknown component {c}")
                if m < 1:
                    raise ValueError("multiplicities must be positive")
        meets: Dict[tuple[int, int], int] = {}
        for p in points:
            for (u, mu), (v, mv) in combinations(sorted(p.mults.items()), 2):
                meets[u, v] = meets.get((u, v), 0) + mu * mv
        for u in range(len(self.degrees)):
            for v in range(u + 1, len(self.degrees)):
                total = meets.get((u, v), 0)
                if total != self.degrees[u] * self.degrees[v]:
                    raise ValueError(
                        f"components {u},{v} meet {total} times, "
                        f"want {self.degrees[u] * self.degrees[v]}"
                    )

    # -- cluster helpers -----------------------------------------------

    def points(self) -> list[PointNode]:
        return [p for r in self.clusters for p in r.tree()]

    def pair_clusters(self, u: int, v: int) -> list[tuple[PointNode, int]]:
        out = []
        for r in self.clusters:
            p = r.pairing(u, v)
            if p:
                out.append((r, p))
        return out

    def pair_pattern(self, u: int, v: int) -> tuple[int, ...]:
        return tuple(sorted((p for _, p in self.pair_clusters(u, v)), reverse=True))

    def simple_tangency(self, u: int, v: int) -> bool:
        """A point where u and v meet with contact exactly 2 and
        nothing else happens: a bare two-point chain on {u, v}."""
        want = {u: 1, v: 1}
        for r in self.clusters:
            t = r.tree()
            if len(t) == 2 and all(p.mults == want for p in t):
                return True
        return False

    def singular_points(self, u: int) -> list[PointNode]:
        return [p for p in self.points() if p.mults.get(u, 0) >= 2]

    def components_of_degree(self, d: int) -> list[int]:
        return [i for i, deg in enumerate(self.degrees) if deg == d]

    # -- restriction ---------------------------------------------------

    def restrict(self, keep: Sequence[int]) -> "ConfigFingerprint":
        """The fingerprint of the sub-configuration on these components.
        Points that stop witnessing anything (at most one curve, simply)
        are forgotten, as on an actual sub-curve."""
        keep = sorted(set(keep))
        return ConfigFingerprint(
            tuple(self.degrees[c] for c in keep),
            tuple(self.labels[c] for c in keep),
            _prune(self.clusters, {c: i for i, c in enumerate(keep)}),
        )

    def remove_component(self, c: int) -> "ConfigFingerprint":
        return self.restrict([i for i in range(len(self.degrees)) if i != c])

    def to_dict(self) -> dict:
        def point_dict(p: PointNode) -> dict:
            return {
                "mults": {self.labels[c]: m for c, m in sorted(p.mults.items())},
                "children": canonical(p.children),
            }

        def canonical(points: Sequence[PointNode]) -> list[dict]:
            # the order of points follows the exceptional index labels;
            # serialised subtrees do not
            return sorted((point_dict(p) for p in points), key=json.dumps)

        return {
            "components": [
                {"label": lab, "degree": d}
                for lab, d in zip(self.labels, self.degrees)
            ],
            "clusters": canonical(self.clusters),
        }

    def summary(self) -> str:
        degs = ",".join(str(d) for d in sorted(self.degrees))
        pts = []
        for r in self.clusters:
            curves = "+".join(self.labels[c] for c in sorted(r.curves()))
            pts.append(f"[{curves}]x{len(r.tree())}")
        # the order of clusters follows the exceptional index labels;
        # sorted tokens do not
        return f"degrees({degs}) points " + " ".join(sorted(pts))


def _witnesses(mults: Dict[int, int], children: tuple[PointNode, ...]) -> bool:
    """A point witnesses geometry while it holds at least two curves, one
    curve with multiplicity >= 2, or a point that does."""
    return bool(children) or len(mults) >= 2 or any(m >= 2 for m in mults.values())


def _prune(nodes: Sequence[PointNode], remap: Dict[int, int]) -> tuple[PointNode, ...]:
    """These points with each curve renamed by remap (curves it does not
    name are dropped), less the subtrees in which no point _witnesses
    geometry any more."""
    out = []
    for p in nodes:
        mults = {remap[c]: m for c, m in p.mults.items() if c in remap}
        children = _prune(p.children, remap)
        if _witnesses(mults, children):
            out.append(PointNode(mults, children))
    return tuple(out)


# -- the trace ---------------------------------------------------------


def blow_down_trace(emb: Embedding) -> ConfigFingerprint:
    """Contract all exceptional directions of the embedding and report
    the fingerprint of the resulting plane configuration.

    Pushing forward never changes a coefficient, it only deletes the
    contracted coordinate, so a curve passes through the point created
    at index k exactly when its class had a negative e_k coefficient,
    with multiplicity the negated coefficient.  The indices go in the
    embedding's contraction walk: each degree-zero sphere collapses at
    its head, so a point hangs from the first sphere through it to
    collapse, or else roots a cluster.  Each point is made once, named
    by survivor index, and kept only if it _witnesses geometry.  The cap's
    own meets are seeded as contact chains so that every intersection of
    the image curves is accounted for.  No walk (a cycle) raises ValueError.
    """
    g = emb.graph
    if (walk := emb.contraction) is None:
        classes = ", ".join(str(c) for c in emb.classes if c.a0 == 0)
        raise ValueError(f"the degree-zero classes {classes} close a dominance cycle")
    survivors = [v for v, c in enumerate(emb.classes) if c.a0]
    name = {v: i for i, v in enumerate(survivors)}
    # each degree-zero sphere's place in the walk, and the kept points
    # that hang from it until it collapses, in the order they were made
    rank = {v: i for i, (_, v) in enumerate(walk) if v is not None}
    hung: dict[int, list[PointNode]] = {v: [] for v in rank}
    roots: list[PointNode] = []

    def make(through: Dict[int, int], children: tuple[PointNode, ...]) -> None:
        mults = {name[c]: m for c, m in through.items() if c in name}
        if _witnesses(mults, children):
            spheres = [c for c in through if c in rank]
            below = hung[min(spheres, key=rank.__getitem__)] if spheres else roots
            below.append(PointNode(mults, children))

    def chain(u: int, v: int, order: int) -> tuple[PointNode, ...]:
        # contact of this order: a chain of points on {u, v}, built from
        # its deepest point up; on a degree-zero sphere none witnesses
        below: tuple[PointNode, ...] = ()
        for _ in range(order if u in name and v in name else 0):
            below = (PointNode({name[u]: 1, name[v]: 1}, below),)
        return below

    corner_pairs: set[tuple[int, int]] = set()
    req = g.intersection_matrix()
    for x, y, z in g.corners:
        orders = {(x, y): req[x][y], (x, z): req[x][z], (y, z): req[y][z]}
        deep = [(pair, r) for pair, r in orders.items() if r > 1]
        if len(deep) > 1:
            raise ValueError("a corner admits at most one tangent pair")
        near: tuple[PointNode, ...] = ()
        if deep:
            (u, v), r = deep[0]
            near = chain(u, v, r - 1)
        make({x: 1, y: 1, z: 1}, near)
        corner_pairs.update(orders)
    for u, v, order in g.edges:
        if (u, v) not in corner_pairs:
            roots.extend(chain(u, v, order))

    # each index's column: the curves through the point it contracts to
    cols: list[dict[int, int]] = [{} for _ in range(emb.n_used)]
    for v, c in enumerate(emb.classes):
        for k, x in c.coeffs:
            if x < 0:
                cols[k][v] = -x
    for k, v in walk:
        make(cols[k], () if v is None else tuple(hung.pop(v)))
    return ConfigFingerprint(
        tuple(emb.classes[v].a0 for v in survivors),
        tuple(g.labels[v] for v in survivors),
        tuple(roots),
    )


# -- the catalog -------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """Verdict of the plane-configuration catalog."""

    pattern: str
    status: str
    reason: str = ""

    @property
    def provenance(self) -> str:
        return "catalog:" + self.pattern

    def to_dict(self) -> dict:
        return {
            "pattern": self.pattern,
            "status": self.status,
            "reason": self.reason,
            "provenance": self.provenance,
        }


def _obstructed(pattern: str, reason: str) -> CatalogEntry:
    return CatalogEntry(pattern, OBSTRUCTED, reason)


def _unique(pattern: str, reason: str = "") -> CatalogEntry:
    return CatalogEntry(pattern, UNIQUE, reason)


_UNKNOWN_ENTRY = CatalogEntry("unmatched", UNKNOWN)


def _match_fano(f: ConfigFingerprint) -> Optional[CatalogEntry]:
    # Seven lines meeting in seven triple points.  An obstructed
    # sub-arrangement obstructs the whole configuration, so scan all
    # 7-subsets of the degree-1 components.
    lines = f.components_of_degree(1)
    if len(lines) < 7:
        return None
    for sub in combinations(lines, 7):
        g = f.restrict(sub)
        triples = [frozenset(r.mults) for r in g.clusters if len(r.mults) == 3]
        if len(triples) != 7:
            continue
        covered = {pair for t in triples for pair in combinations(sorted(t), 2)}
        if len(covered) == 21:
            return _obstructed(
                "fano-plane", "seven lines meeting in seven triple points"
            )
    return None


def _match_conic_pencil(f: ConfigFingerprint) -> Optional[CatalogEntry]:
    # Three (or more) conics through four common transverse points,
    # plus a line tangent to three of them.
    conics = f.components_of_degree(2)
    lines = f.components_of_degree(1)
    for trio in combinations(conics, 3):
        shared = 0
        for r in f.clusters:
            if set(trio) <= r.curves() and all(
                r.pairing(a, b) == 1 for a, b in combinations(trio, 2)
            ):
                shared += 1
        if shared != 4:
            continue
        for L in lines:
            if all(f.simple_tangency(L, q) for q in trio):
                return _obstructed(
                    "conic-pencil-common-tangent",
                    "three conics through four common points with a common tangent line",
                )
    return None


def _match_two_conic_contacts(f: ConfigFingerprint) -> Optional[CatalogEntry]:
    # Two conics with a common tangent line whose mutual contact is a
    # single order-4 point, or two simple tangencies.
    conics = f.components_of_degree(2)
    lines = f.components_of_degree(1)
    for a, b in combinations(conics, 2):
        pat = f.pair_pattern(a, b)
        if pat not in ((4,), (2, 2)):
            continue
        for L in lines:
            if f.simple_tangency(L, a) and f.simple_tangency(L, b):
                if pat == (4,):
                    return _obstructed(
                        "two-conics-order4-contact-common-tangent",
                        "order-4 contact between two conics with a common tangent line",
                    )
                return _obstructed(
                    "two-conics-double-tangency-common-tangent",
                    "twice-tangent conics with a common tangent line",
                )
    return None


def _match_concurrent_tangents(f: ConfigFingerprint) -> Optional[CatalogEntry]:
    # A conic with three tangent lines passing through one common point
    # away from the conic.
    for q in f.components_of_degree(2):
        tangent = [
            L for L in f.components_of_degree(1) if f.simple_tangency(L, q)
        ]
        for trio in combinations(tangent, 3):
            for r in f.clusters:
                if all(r.mults.get(L, 0) for L in trio) and q not in r.curves():
                    return _obstructed(
                        "conic-three-concurrent-tangents",
                        "three tangent lines of a conic through one point",
                    )
    return None


_OBSTRUCTION_MATCHERS = (
    _match_fano,
    _match_conic_pencil,
    _match_two_conic_contacts,
    _match_concurrent_tangents,
)


def _match_line_arrangement(f: ConfigFingerprint) -> Optional[CatalogEntry]:
    if all(d == 1 for d in f.degrees) and len(f.degrees) <= 6:
        return _unique("line-arrangement", f"{len(f.degrees)} lines")
    return None


def _match_smooth_conic(f: ConfigFingerprint) -> Optional[CatalogEntry]:
    if f.degrees == (2,) and not f.singular_points(0):
        return _unique("smooth-conic")
    return None


def _match_two_conics(f: ConfigFingerprint) -> Optional[CatalogEntry]:
    if sorted(f.degrees) == [2, 2]:
        pat = f.pair_pattern(0, 1)
        return _unique("two-conics", f"contact pattern {pat}")
    return None


def _match_two_conics_common_tangent(f: ConfigFingerprint) -> Optional[CatalogEntry]:
    if sorted(f.degrees) != [1, 2, 2]:
        return None
    (L,) = f.components_of_degree(1)
    a, b = f.components_of_degree(2)
    pat = f.pair_pattern(a, b)
    if pat not in ((1, 1, 1, 1), (2, 1, 1), (3, 1)):
        return None
    if f.simple_tangency(L, a) and f.simple_tangency(L, b):
        return _unique("two-conics-common-tangent", f"contact pattern {pat}")
    return None


def _match_three_conics_tangent_triangle(
    f: ConfigFingerprint,
) -> Optional[CatalogEntry]:
    # Three conics meeting in three points; at each, two are simply
    # tangent and the third passes transversally, every pair tangent at
    # exactly one of the points; plus a line tangent to all three.
    if sorted(f.degrees) != [1, 2, 2, 2]:
        return None
    (L,) = f.components_of_degree(1)
    conics = f.components_of_degree(2)
    if not all(f.simple_tangency(L, q) for q in conics):
        return None
    tangency_at = {}
    for a, b in combinations(conics, 2):
        if f.pair_pattern(a, b) != (2, 1, 1):
            return None
        (r,) = [s for s, p in f.pair_clusters(a, b) if p == 2]
        (third,) = set(conics) - {a, b}
        if r.pairing(a, third) != 1 or r.pairing(b, third) != 1:
            return None
        tangency_at[(a, b)] = r
    if len(set(tangency_at.values())) != 3:
        return None
    return _unique(
        "three-conics-tangent-triangle",
        "pairwise tangent at three points with a common tangent line",
    )


def _match_four_conics_triple_flex(f: ConfigFingerprint) -> Optional[CatalogEntry]:
    # Four conics with a common point where three have mutual order-3
    # contact and the fourth order-2 contact with each; the three
    # remaining pair-of-deep-conics + shallow-conic meets are transverse
    # triple points; plus a line tangent to all four.
    if sorted(f.degrees) != [1, 2, 2, 2, 2]:
        return None
    (L,) = f.components_of_degree(1)
    conics = f.components_of_degree(2)
    if not all(f.simple_tangency(L, q) for q in conics):
        return None
    for r in f.clusters:
        if not set(conics) <= r.curves():
            continue
        for w in conics:
            deep = [q for q in conics if q != w]
            if not all(r.pairing(a, b) == 3 for a, b in combinations(deep, 2)):
                continue
            if not all(r.pairing(a, w) == 2 for a in deep):
                continue
            trip = set()
            good = True
            for a, b in combinations(deep, 2):
                others = [(s, p) for s, p in f.pair_clusters(a, b) if s != r]
                if len(others) != 1 or others[0][1] != 1:
                    good = False
                    break
                s = others[0][0]
                if s.pairing(a, w) != 1 or s.pairing(b, w) != 1:
                    good = False
                    break
                trip.add(s)
            if good and len(trip) == 3:
                return _unique(
                    "four-conics-triple-flex",
                    "three conics in order-3 contact, a fourth tangent there, "
                    "with a common tangent line",
                )
    return None


def _match_curve_with_maximal_tangent(
    f: ConfigFingerprint,
) -> Optional[CatalogEntry]:
    # One degree-d curve whose only singularity is a plain point of
    # multiplicity d-1, plus a line with an order-d tangency at a
    # smooth point.
    if len(f.degrees) != 2 or 1 not in f.degrees or sorted(f.degrees)[1] < 2:
        return None
    (L,) = f.components_of_degree(1)
    (c,) = [i for i in range(2) if i != L]
    d = f.degrees[c]
    sing = f.singular_points(c)
    if d == 2:
        if sing:
            return None
    else:
        if len(sing) != 1 or sing[0].mults != {c: d - 1}:
            return None
    contact = f.pair_clusters(L, c)
    if len(contact) != 1 or contact[0][1] != d:
        return None
    t = contact[0][0].tree()
    if len(t) != d or any(p.mults != {L: 1, c: 1} for p in t):
        return None
    return _unique("curve-with-maximal-tangent-line", f"degree {d}")


_UNIQUE_MATCHERS = (
    _match_line_arrangement,
    _match_smooth_conic,
    _match_two_conics,
    _match_two_conics_common_tangent,
    _match_three_conics_tangent_triangle,
    _match_four_conics_triple_flex,
    _match_curve_with_maximal_tangent,
)


def _peelable_line(f: ConfigFingerprint) -> Optional[int]:
    """A line that can be removed without touching the classification:
    either simply tangent to one curve at a plain point and otherwise
    generic, or everywhere transverse and through at most two points
    that remain special without it."""
    for L in sorted(f.components_of_degree(1)):
        if len(f.degrees) == 1:
            return None
        tangencies = 0
        specials = 0
        ok = True
        for r in f.clusters:
            t = r.tree()
            places = [p for p in t if L in p.mults]
            if not places:
                continue
            if any(p.mults[L] != 1 for p in places):
                ok = False
                break
            if (
                len(places) == 2
                and len(t) == 2
                and len(r.curves()) == 2
                and all(len(p.mults) == 2 for p in t)
            ):
                tangencies += 1
                continue
            if places != [r]:
                ok = False
                break
            rest = {c: m for c, m in r.mults.items() if c != L}
            if len(rest) >= 2 or any(m >= 2 for m in rest.values()) or r.children:
                specials += 1
        if not ok:
            continue
        if (tangencies == 1 and specials == 0) or (
            tangencies == 0 and specials <= 2
        ):
            return L
    return None


def catalog_lookup(f: ConfigFingerprint) -> CatalogEntry:
    """Match a fingerprint against the catalog, removing free lines as
    needed.  Unmatched configurations are reported Unknown, never
    guessed."""
    for matcher in _OBSTRUCTION_MATCHERS:
        hit = matcher(f)
        if hit is not None:
            return hit
    hits = [m(f) for m in _UNIQUE_MATCHERS]
    hits = [h for h in hits if h is not None]
    if len(hits) > 1:
        raise RuntimeError("catalog patterns overlap")
    if hits:
        return hits[0]
    L = _peelable_line(f)
    if L is not None:
        return catalog_lookup(f.remove_component(L))
    return _UNKNOWN_ENTRY
