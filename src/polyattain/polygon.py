"""Polygons, the containment preorder, and the boundary coordinate system."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .geometry import (
    Point,
    Rat,
    Triple,
    _crossing,
    _det,
    _on_segment,
    _side,
    _triple,
    collinear_points,
    convex_hull,
    homogeneous,
    pt,
    segment_param,
)


class InvariantError(Exception):
    """A construction broke an invariant its theory guarantees; indicates a
    bug.  Raised by explicit checks, so they also run under `python -O`."""


@dataclass(frozen=True)
class Polygon:
    """An ordered tuple of at least three vertices; duplicates allowed.

    Index arithmetic is modulo n throughout.
    """

    vertices: tuple[Point, ...]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("a polygon needs at least 3 vertices")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex(self, i: int) -> Point:
        return self.vertices[i % self.n]

    def edge(self, i: int) -> tuple[Point, Point]:
        return self.vertex(i), self.vertex(i + 1)

    @cached_property
    def triples(self) -> tuple[Triple, ...]:
        """The vertices as homogeneous integer triples (x*w, y*w, w), built
        once per polygon; the convexity test, the boundary queries and
        every broken-line frame on this polygon read them."""
        return homogeneous(self.vertices)

    @cached_property
    def hull(self) -> tuple[Point, ...]:
        """Extreme points of the hull counterclockwise from the lexicographic
        minimum, as `convex_hull` gives them.  A convex CCW polygon is its
        own hull, rotated; `convex_hull` runs only for the others."""
        if self.is_convex_ccw:
            k = self._lexmin
            return self.vertices[k:] + self.vertices[:k]
        return tuple(convex_hull(list(self.vertices)))

    @cached_property
    def hull_triples(self) -> tuple[Triple, ...]:
        """`triples` of the hull, in hull order."""
        if self.is_convex_ccw:
            k = self._lexmin
            return self.triples[k:] + self.triples[:k]
        return homogeneous(self.hull)

    @cached_property
    def _lexmin(self) -> int:
        return self.vertices.index(min(self.vertices))

    @cached_property
    def is_set_convex(self) -> bool:
        """All vertices are distinct extreme points of the hull."""
        if len(set(self.vertices)) != self.n:
            return False
        return len(self.hull) == self.n

    @cached_property
    def is_convex_ccw(self) -> bool:
        """Set-convex, simple, and listed in the counterclockwise boundary
        order, i.e. the vertex sequence is a rotation of the hull sequence.

        Exact in O(n) with no hull: every turn (v[k-2], v[k-1], v[k]) is
        strictly left, and the lexicographic direction of the edges flips
        exactly twice round the polygon, so they wind once (Schorn and
        Fisher, "Testing the convexity of a polygon", Graphics Gems IV).
        """
        ts = self.triples

        def rising(a: Triple, b: Triple) -> bool:
            d = b[0] * a[2] - a[0] * b[2]
            return d > 0 if d else b[1] * a[2] > a[1] * b[2]

        a, b = ts[-2], ts[-1]
        up, flips = rising(a, b), 0
        for c in ts:
            if _det(a, b, c) <= 0:
                return False
            a, b, was = b, c, up
            up = rising(a, b)
            flips += up != was
        return flips == 2

    @cached_property
    def is_collinear(self) -> bool:
        return collinear_points(list(self.vertices))

    def replace(self, i: int, p: Point) -> "Polygon":
        vs = list(self.vertices)
        vs[i % self.n] = p
        return Polygon(tuple(vs))

    def locate_boundary(self, p: Point) -> "BoundaryPoint | None":
        """Address a point on the boundary as a canonical BoundaryPoint.

        The first closed edge that holds p, with p's parameter on it; a
        vertex, the one point on two edges (i - 1 and i, or 0 and n - 1),
        is reported on its own edge with t = 0.  Returns None when p is not
        on the boundary.
        """
        e = self.edges_at(p)
        if len(e) == 2:
            return BoundaryPoint(self, e[1] if e[0] + 1 == e[1] else 0, 0)
        return BoundaryPoint(self, e[0], segment_param(*self.edge(e[0]), p)) if e else None

    def edges_at(self, p: Point) -> list[int]:
        """Indices of the closed edges that contain p, in index order."""
        f, ts, n = _triple(p), self.triples, self.n
        return [i for i in range(n) if _on_segment(ts[i], ts[(i + 1) % n], f)]

    def __repr__(self) -> str:
        return "Polygon[" + ", ".join(map(repr, self.vertices)) + "]"


def polygon(coords) -> Polygon:
    return Polygon(tuple(pt(x, y) for x, y in coords))


def co_contains(outer: Polygon, inner: Polygon) -> bool:
    """The containment preorder: every vertex of inner lies in co(outer),
    one determinant per vertex and edge of the hull's table."""
    hull, fs = outer.hull_triples, [_triple(v) for v in inner.vertices]
    if len(hull) == 1:
        return all(f == hull[0] for f in fs)
    if len(hull) == 2:
        return all(_on_segment(*hull, f) for f in fs)
    return all(_det(hull[k - 1], hull[k], f) >= 0 for f in fs for k in range(len(hull)))


def canonicalize_ccw(P: Polygon) -> tuple[Polygon, tuple[int, ...]] | None:
    """Re-index a set-convex polygon into convex CCW order.

    Returns (Q, sigma) with Q.vertices[k] == P.vertices[sigma[k]], or None
    when P is not set-convex.  The rotation is canonical (hull order starts
    at the lexicographic minimum), so results are reproducible; Q is P
    itself when P is already in that order.
    """
    if not P.is_set_convex:
        return None
    sigma = tuple(P.vertices.index(h) for h in P.hull)
    return (P if P.hull == P.vertices else Polygon(P.hull)), sigma


@dataclass(frozen=True)
class BoundaryPoint:
    """A point of the boundary of a convex CCW polygon, as (edge, t).

    Realizes (1-t)*p_i + t*p_{i+1} with 0 <= t < 1, so a vertex is always
    addressed on its own edge with t = 0.  The hash skips the costly host.
    """

    host: Polygon = field(hash=False)
    edge: int
    t: Rat

    def __post_init__(self):
        if not self.host.is_convex_ccw:
            raise ValueError("host must be convex and oriented counterclockwise")
        n = self.host.n
        e, t = self.edge, Rat(self.t)
        if not 0 <= t <= 1:
            raise ValueError("edge parameter out of range")
        if t == 1:
            e, t = e + 1, Rat(0)
        object.__setattr__(self, "edge", e % n)
        object.__setattr__(self, "t", t)

    def realize(self) -> Point:
        a, b = self.host.edge(self.edge)
        if self.t == 0:
            return a
        return a + (b - a).scale(self.t)

    def __repr__(self) -> str:
        return f"∂[{self.edge}:{self.t}]{self.realize()!r}"


def ray_polygon_exit(P: Polygon, origin: Point, direction: Point) -> BoundaryPoint:
    """Furthest intersection of the ray origin + t*direction (t >= 0) with
    the boundary of the convex CCW polygon P.

    The origin must lie on the boundary or inside co(P), so the exit exists.

    The exit edge is read off the sides of all n vertices of P's table
    relative to the ray's line: it starts right of or on the line and ends
    left of or on it, not both on it.  Strict convexity leaves one such
    edge (a vertex on the line may end one such edge and start the next),
    and `_crossing` gives the point on it.  The steps of the broken line
    exit from a foot in `poncelet._exit`, by bisection or by a walk.
    """
    f, g = _triple(origin), _triple(origin + direction)
    vs, n = P.triples, P.n
    sides = [_side(f, g, v) for v in vs]
    for i in range(n):
        s0, s1 = sides[i], sides[(i + 1) % n]
        if s0 <= 0 <= s1 and (s0 or s1):
            break
    else:
        raise ValueError("ray does not meet the boundary")
    a, b = vs[i], vs[(i + 1) % n]
    # The ray crosses the edge's line outwards, so it meets the exit at
    # t >= 0 exactly when the origin is not strictly outside that line.
    if _side(a, b, f) < 0:
        raise ValueError("ray does not meet the boundary")
    if s1 == 0:
        return BoundaryPoint(P, i + 1, 0)
    if s0 == 0:
        return BoundaryPoint(P, i, 0)
    return BoundaryPoint(P, i, _crossing(f, g, a, b))


def arc_key(n: int, a: tuple[int, Rat], z: tuple[int, Rat]) -> tuple[int, Rat]:
    """Sort key of z by counterclockwise travel from a, both (edge, t)
    pairs of one n-gon with 0 <= t < 1.

    Strictly totally orders the boundary minus a, and a sorts before every
    other point.  From vertex 0 it is the pair itself.
    """
    d = (z[0] - a[0]) % n
    return (n if d == 0 and z[1] < a[1] else d), z[1]


def boundary_key(anchor: BoundaryPoint, z: BoundaryPoint) -> tuple[int, Rat]:
    """`arc_key` of two boundary points of one polygon."""
    if z.host != anchor.host:
        raise ValueError("mixed host polygons")
    return arc_key(anchor.host.n, (anchor.edge, anchor.t), (z.edge, z.t))


def in_arc(
    a: BoundaryPoint,
    b: BoundaryPoint,
    z: BoundaryPoint,
    include_a: bool = True,
    include_b: bool = True,
) -> bool:
    """Membership of z in the counterclockwise arc from a to b (a != b)."""
    if a == b:
        raise ValueError("arc endpoints must be distinct")
    if z == a:
        return include_a
    if z == b:
        return include_b
    return boundary_key(a, z) < boundary_key(a, b)
