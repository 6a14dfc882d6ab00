"""Polygons, the containment preorder, and the boundary coordinate system."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .geometry import (
    Point,
    Rat,
    collinear_points,
    convex_hull,
    orient,
    segment_param,
)


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
    def hull(self) -> tuple[Point, ...]:
        return tuple(convex_hull(list(self.vertices)))

    @cached_property
    def is_set_convex(self) -> bool:
        """All vertices are distinct extreme points of the hull."""
        if len(set(self.vertices)) != self.n:
            return False
        return len(self.hull) == self.n

    @cached_property
    def is_convex_ccw(self) -> bool:
        """Set-convex, simple, and listed in the counterclockwise boundary
        order, i.e. the vertex sequence is a rotation of the hull sequence."""
        if not self.is_set_convex:
            return False
        start = self.vertices.index(self.hull[0])
        return all(
            self.vertex(start + k) == self.hull[k] for k in range(self.n)
        )

    @cached_property
    def is_collinear(self) -> bool:
        return collinear_points(list(self.vertices))

    def area(self) -> Rat:
        """Shoelace area; exact. Callers pass convex CCW polygons."""
        s = Rat(0)
        for i in range(self.n):
            a, b = self.edge(i)
            s += a.x * b.y - b.x * a.y
        return s / 2

    def replace(self, i: int, p: Point) -> "Polygon":
        vs = list(self.vertices)
        vs[i % self.n] = p
        return Polygon(tuple(vs))

    def locate_boundary(self, p: Point) -> "BoundaryPoint | None":
        """Address a point on the boundary as a canonical BoundaryPoint.

        Scans all n edges; a vertex is reported on its own edge with t = 0.
        Returns None when p is not on the boundary.
        """
        for i in range(self.n):
            a, b = self.edge(i)
            t = segment_param(a, b, p)
            if t is not None and 0 <= t < 1:
                return BoundaryPoint(self, i, t)
        return None

    def boundary_point(self, i: int, t: Rat) -> "BoundaryPoint":
        return BoundaryPoint(self, i, t)

    def __repr__(self) -> str:
        return "Polygon[" + ", ".join(map(repr, self.vertices)) + "]"


def polygon(coords) -> Polygon:
    from .geometry import pt

    return Polygon(tuple(pt(x, y) for x, y in coords))


def co_contains(outer: Polygon, inner: Polygon) -> bool:
    """The containment preorder: every vertex of inner lies in co(outer)."""
    hull = outer.hull
    if len(hull) == 1:
        return all(v == hull[0] for v in inner.vertices)
    if len(hull) == 2:
        from .geometry import segment_contains

        a, b = hull
        return all(segment_contains(a, b, v) for v in inner.vertices)
    m = len(hull)
    for v in inner.vertices:
        for k in range(m):
            if orient(hull[k], hull[(k + 1) % m], v) < 0:
                return False
    return True


def canonicalize_ccw(P: Polygon) -> tuple[Polygon, tuple[int, ...]] | None:
    """Re-index a set-convex polygon into convex CCW order.

    Returns (Q, sigma) with Q.vertices[k] == P.vertices[sigma[k]], or None
    when P is not set-convex.  The rotation is canonical (hull order starts
    at the lexicographic minimum), so results are reproducible.
    """
    if not P.is_set_convex:
        return None
    sigma = tuple(P.vertices.index(h) for h in P.hull)
    return Polygon(P.hull), sigma


@dataclass(frozen=True)
class BoundaryPoint:
    """A point of the boundary of a convex CCW polygon, as (edge, t).

    Realizes (1-t)*p_i + t*p_{i+1} with 0 <= t < 1, so a vertex is always
    addressed on its own edge with t = 0.
    """

    host: Polygon
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

    def is_vertex(self) -> bool:
        return self.t == 0

    def __repr__(self) -> str:
        return f"∂[{self.edge}:{self.t}]{self.realize()!r}"


def ray_polygon_exit(P: Polygon, origin: Point, direction: Point) -> BoundaryPoint:
    """Furthest intersection of the ray origin + t*direction (t >= 0) with
    the boundary of the convex CCW polygon P.

    The origin must lie on the boundary or inside co(P), so the exit exists.
    When the ray runs along an edge the far endpoint of the overlap wins.
    """
    from .geometry import cross, dot

    best_t: Rat | None = None
    for i in range(P.n):
        a, b = P.edge(i)
        e = b - a
        w = a - origin
        den = cross(direction, e)
        if den != 0:
            t = cross(w, e) / den
            s = cross(w, direction) / den
            if t >= 0 and 0 <= s <= 1 and (best_t is None or t > best_t):
                best_t = t
        elif cross(w, direction) == 0:
            # Ray collinear with the edge: its endpoints are the candidates.
            dd = dot(direction, direction)
            for q in (a, b):
                t = dot(q - origin, direction) / dd
                if t >= 0 and (best_t is None or t > best_t):
                    best_t = t
    if best_t is None:
        raise ValueError("ray does not meet the boundary")
    exit_pt = origin + direction.scale(best_t)
    bp = P.locate_boundary(exit_pt)
    assert bp is not None
    return bp


def boundary_key(anchor: BoundaryPoint, z: BoundaryPoint) -> tuple[int, Rat]:
    """Sort key of z by counterclockwise travel from the anchor.

    Strictly totally orders the boundary minus the anchor; the anchor itself
    gets the smallest key (0, 0).
    """
    if z.host != anchor.host:
        raise ValueError("mixed host polygons")
    n = anchor.host.n
    d = (z.edge - anchor.edge) % n
    if d == 0:
        if z.t >= anchor.t:
            return (0, z.t - anchor.t)
        return (n, z.t)
    return (d, z.t)


def arc_cmp(anchor: BoundaryPoint, a: BoundaryPoint, b: BoundaryPoint) -> int:
    """-1, 0, +1 as a precedes, equals, or follows b travelling CCW from the anchor."""
    ka, kb = boundary_key(anchor, a), boundary_key(anchor, b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


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
