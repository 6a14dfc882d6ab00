"""Tangent rays, the Poncelet map and its clockwise twin, juncture sets,
and the broken line construction."""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Point, Rat, forward_sign, orient, segment_contains
from .polygon import (
    BoundaryPoint,
    InvariantError,
    Polygon,
    boundary_key,
    co_contains,
    in_arc,
    mirror_point,
    mirrored,
    ray_polygon_exit,
)

INTERIOR = "interior"
BOUNDARY = "boundary"


@dataclass(frozen=True)
class TangentEval:
    """One evaluation of the Poncelet map.

    pivots are the hull vertices of the inner polygon on the open tangent
    ray, ordered by distance from the foot; the last one is the far pivot.
    """

    pivots: tuple[Point, ...]
    case: str
    image: BoundaryPoint

    @property
    def far_pivot(self) -> Point:
        return self.pivots[-1]


def _on_boundary(P: Polygon, x: BoundaryPoint | Point, what: str) -> BoundaryPoint:
    """A foot or start given as a point, addressed on the boundary of P."""
    if isinstance(x, BoundaryPoint):
        return x
    bp = P.locate_boundary(x)
    if bp is None:
        raise ValueError(f"{what} must lie on the boundary")
    return bp


def _later(x: Point, b: Point, p: Point, q: Point) -> int:
    """+1, 0 or -1 as q is seen from x at a larger, equal or smaller angle
    than p, measured counterclockwise from the direction x->b.

    Every point compared lies weakly left of that direction, so the angles
    lie in [0, pi] and one orientation test decides unless p, q and x are
    collinear.  x itself counts as the largest angle.
    """
    o = orient(x, p, q)
    if o:
        return o
    if q == x:
        return int(p != x)
    if p == x:
        return -1
    if forward_sign(x, p, q) > 0:
        return 0
    # On the line x-b at opposite sides of x: the one ahead of x has angle 0.
    return 1 if forward_sign(x, b, p) > 0 else -1


def _tangent_index(hull: tuple[Point, ...], x: Point, b: Point) -> int:
    """Index of the hull vertex that x sees at the smallest angle (see
    `_later`); of two at that angle, the first in cyclic order.

    Around the hull the angles rise from the minimum to a maximum and fall
    back to it.  Unless vertex 0 is the minimum, "vertex k comes before the
    minimum" holds up to it and fails from it on, and the slope at k with
    one comparison against vertex 0 decides it, so a bisection takes
    O(log h) orientation tests.
    """
    m = len(hull)

    def slope(k: int) -> int:
        return _later(x, b, hull[k], hull[(k + 1) % m])

    first = slope(0)
    if first >= 0 and slope(m - 1) < 0:
        return 0
    if first > 0:
        # Rising at 0: the minimum ends the fall that follows the maximum,
        # and vertices on the final rise lie below vertex 0.
        before = lambda k: slope(k) < 0 or _later(x, b, hull[0], hull[k]) > 0
    else:
        # Falling at 0, or vertices 0 and 1 are a level maximum: the minimum
        # ends this fall, and vertices on the final fall lie above vertex 0.
        before = lambda k: slope(k) < 0 and _later(x, b, hull[0], hull[k]) <= 0
    lo, hi = 0, m - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if before(mid):
            lo = mid
        else:
            hi = mid
    return hi


def right_tangent(P: Polygon, Pp: Polygon, x: BoundaryPoint | Point) -> TangentEval:
    """The right tangent ray to Pp from a boundary point of P, with its
    pivots and the Poncelet image.

    The inner polygon must not be collinear and must be contained in P.
    The tangent vertex is found by bisection and certified by its two hull
    neighbours: both weakly left of the ray means the whole hull is, since
    the hull is convex.  Only a neighbour can share the tangent line, so the
    pivots come from those three vertices.
    """
    bp = _on_boundary(P, x, "tangent foot")
    xpt = bp.realize()
    hull = Pp.hull
    m = len(hull)
    if m < 3:
        raise ValueError("inner polygon is collinear")
    a, b = P.edge(bp.edge)
    k = _tangent_index(hull, xpt, b)
    v, prev, nxt = hull[k], hull[k - 1], hull[(k + 1) % m]
    o_prev, o_next = orient(xpt, v, prev), orient(xpt, v, nxt)
    if v == xpt or o_prev < 0 or o_next < 0:
        raise ValueError("no tangent ray: foot lies inside the inner hull")
    # Two pivots in hull order are in order of distance from the foot: the
    # ray runs along the hull edge between them, with the hull on its left.
    if o_prev == 0 and forward_sign(xpt, v, prev) > 0:
        pivots = (prev, v)
    elif o_next == 0 and forward_sign(xpt, v, nxt) > 0:
        pivots = (v, nxt)
    else:
        pivots = (v,)
    near, far = pivots[0], pivots[-1]
    if orient(a, b, far) == 0:
        # Tangent collinear with the host edge through x: the boundary case.
        # The backward direction would force Pp onto that edge line, which
        # the collinearity gate above already excludes.
        if forward_sign(xpt, b, far) <= 0:
            raise InvariantError("tangent runs backwards along the host edge")
        image = BoundaryPoint(P, (bp.edge + 1) % P.n, Rat(0))
        return TangentEval(pivots, BOUNDARY, image)
    image = ray_polygon_exit(P, bp, near - xpt, near)
    if image.edge == bp.edge and image.t == bp.t:
        raise InvariantError("tangent ray exits P at its own foot")
    return TangentEval(pivots, INTERIOR, image)


def poncelet(P: Polygon, Pp: Polygon, x: BoundaryPoint | Point) -> BoundaryPoint:
    """The counterclockwise Poncelet map relative to Pp."""
    return right_tangent(P, Pp, x).image


def poncelet_cw(P: Polygon, Pp: Polygon, x: BoundaryPoint | Point) -> BoundaryPoint:
    """The clockwise Poncelet map: left tangent ray, computed as the right
    tangent ray in the mirrored frame."""
    Pm = mirrored(P)
    xm = mirror_point(_on_boundary(P, x, "tangent foot"), Pm)
    return mirror_point(poncelet(Pm, mirrored(Pp), xm), P)


@dataclass(frozen=True)
class BlcResult:
    """Outcome of the broken line construction.

    points are x_1..x_l in travel order; pivots has length l-1 and holds
    the far pivot p(x_k) of each applied step x_{k+1} = map(x_k);
    stop_image records the rejected evaluation at x_l.
    """

    points: tuple[BoundaryPoint, ...]
    pivots: tuple[Point, ...]
    stop_image: BoundaryPoint
    direction: str

    @property
    def l(self) -> int:
        return len(self.points)


def blc(P: Polygon, Pp: Polygon, start: BoundaryPoint | Point, direction: str = "ccw") -> BlcResult:
    """Iterate the Poncelet map from a starting boundary point, stopping as
    soon as the next image leaves the open arc back to the start."""
    if direction not in ("ccw", "cw"):
        raise ValueError("direction must be 'ccw' or 'cw'")
    start = _on_boundary(P, start, "start")
    if direction == "cw":
        Pm = mirrored(P)
        res = blc(Pm, mirrored(Pp), mirror_point(start, Pm), "ccw")
        return BlcResult(
            tuple(mirror_point(b, P) for b in res.points),
            tuple(Point(q.x, -q.y) for q in res.pivots),
            mirror_point(res.stop_image, P),
            "cw",
        )

    ev = right_tangent(P, Pp, start)
    points = [start, ev.image]
    pivots = [ev.far_pivot]
    while True:
        ev = right_tangent(P, Pp, points[-1])
        nxt = ev.image
        if not in_arc(points[-1], points[0], nxt, False, False):
            stop_image = nxt
            break
        points.append(nxt)
        pivots.append(ev.far_pivot)
        if len(points) > P.n + 1:
            raise InvariantError(f"broken line exceeded its bound of {P.n + 1} points")
    if len(points) < 3:
        raise InvariantError("broken line stopped before its third point")
    return BlcResult(tuple(points), tuple(pivots), stop_image, "ccw")


@dataclass(frozen=True)
class JunctureSets:
    """Critical boundary points where the Poncelet map changes regime."""

    gamma1: frozenset[BoundaryPoint]
    gamma2: frozenset[BoundaryPoint]
    gamma: tuple[BoundaryPoint, ...]
    gamma2_complete: bool


def _arc_sorted(P: Polygon, pts: set[BoundaryPoint]) -> tuple[BoundaryPoint, ...]:
    anchor = BoundaryPoint(P, 0, Rat(0))
    return tuple(sorted(pts, key=lambda b: boundary_key(anchor, b)))


def _on_one_host_edge(P: Polygon, u: Point, v: Point) -> bool:
    for i in range(P.n):
        a, b = P.edge(i)
        if segment_contains(a, b, u) and segment_contains(a, b, v):
            return True
    return False


def gamma1_points(P: Polygon, Pp: Polygon) -> frozenset[BoundaryPoint]:
    """Push-outs onto the boundary of each hull vertex of Pp by its
    counterclockwise successor, kept for interior-case evaluations."""
    hull = Pp.hull
    out: set[BoundaryPoint] = set()
    m = len(hull)
    for k in range(m):
        v, succ = hull[k], hull[(k + 1) % m]
        if _on_one_host_edge(P, v, succ):
            continue
        landing = ray_polygon_exit(P, succ, v - succ)
        if right_tangent(P, Pp, landing).case == INTERIOR:
            out.add(landing)
    return frozenset(out)


def gamma_sets(P: Polygon, Pp: Polygon) -> JunctureSets:
    """Gamma_1, Gamma_2 and their union with the vertices of P.

    Gamma_2 is evaluated through the inverse map, which is only available
    when every vertex of Pp is interior to P; otherwise it is reported
    empty with gamma2_complete False.
    """
    g1 = gamma1_points(P, Pp)
    interior = co_contains(P, Pp) and all(
        P.locate_boundary(v) is None for v in Pp.vertices
    )
    g2: set[BoundaryPoint] = set()
    if interior:
        for j in range(P.n):
            vertex_bp = BoundaryPoint(P, j, Rat(0))
            pre = poncelet_cw(P, Pp, vertex_bp)
            ev = right_tangent(P, Pp, pre)
            if ev.case == INTERIOR and ev.image == vertex_bp:
                g2.add(pre)
    verts = {BoundaryPoint(P, j, Rat(0)) for j in range(P.n)}
    gamma = _arc_sorted(P, verts | set(g1) | g2)
    return JunctureSets(g1, frozenset(g2), gamma, interior)

