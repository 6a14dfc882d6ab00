"""Tangent rays, the Poncelet map and its clockwise twin, juncture sets,
and the broken line construction."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .geometry import Point, Rat, Ray, forward_sign, orient, segment_param
from .polygon import (
    BoundaryPoint,
    Polygon,
    boundary_key,
    co_contains,
    in_arc,
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

    ray: Ray
    pivots: tuple[Point, ...]
    case: str
    image: BoundaryPoint

    @property
    def far_pivot(self) -> Point:
        return self.pivots[-1]


def right_tangent(P: Polygon, Pp: Polygon, x: BoundaryPoint | Point) -> TangentEval:
    """The right tangent ray to Pp from a boundary point of P, with its
    pivots and the Poncelet image.

    The inner polygon must not be collinear and must be contained in P.
    """
    if isinstance(x, BoundaryPoint):
        bp, xpt = x, x.realize()
    else:
        bp = P.locate_boundary(x)
        if bp is None:
            raise ValueError("tangent foot must lie on the boundary")
        xpt = x
    hull = Pp.hull
    if len(hull) < 3:
        raise ValueError("inner polygon is collinear")
    best = None
    for v in hull:
        if v == xpt:
            continue
        if all(orient(xpt, v, w) >= 0 for w in hull):
            best = v
            break
    if best is None:
        raise ValueError("no tangent ray: foot lies inside the inner hull")
    pivots = sorted(
        (u for u in hull if u != xpt and orient(xpt, best, u) == 0
         and forward_sign(xpt, best, u) > 0),
        key=lambda u: segment_param(xpt, best, u),
    )
    ray = Ray(xpt, best - xpt)

    a, b = P.edge(bp.edge)
    far = pivots[-1]
    if orient(a, b, far) == 0:
        # Tangent collinear with the host edge through x: the boundary case.
        # The backward direction would force Pp onto that edge line, which
        # the collinearity gate above already excludes.
        assert forward_sign(xpt, b, far) > 0
        image = BoundaryPoint(P, (bp.edge + 1) % P.n, Rat(0))
        return TangentEval(ray, tuple(pivots), BOUNDARY, image)
    image = ray_polygon_exit(P, xpt, ray.dir)
    assert image.realize() != xpt
    return TangentEval(ray, tuple(pivots), INTERIOR, image)


def poncelet(P: Polygon, Pp: Polygon, x: BoundaryPoint | Point) -> BoundaryPoint:
    """The counterclockwise Poncelet map relative to Pp."""
    return right_tangent(P, Pp, x).image


@lru_cache(maxsize=256)
def _mirrored(P: Polygon) -> Polygon:
    """Reflection across the x-axis with reversed vertex order, so a convex
    CCW polygon stays convex CCW."""
    return Polygon(tuple(Point(v.x, -v.y) for v in reversed(P.vertices)))


def _mirror_point(p: Point) -> Point:
    return Point(p.x, -p.y)


def _mirror_bp(bp: BoundaryPoint, target_host: Polygon) -> BoundaryPoint:
    out = target_host.locate_boundary(_mirror_point(bp.realize()))
    assert out is not None
    return out


def poncelet_cw(P: Polygon, Pp: Polygon, x: BoundaryPoint | Point) -> BoundaryPoint:
    """The clockwise Poncelet map: left tangent ray, computed by reflecting
    the whole configuration."""
    Pm, Ppm = _mirrored(P), _mirrored(Pp)
    if isinstance(x, Point):
        bp = P.locate_boundary(x)
        if bp is None:
            raise ValueError("tangent foot must lie on the boundary")
        x = bp
    xm = _mirror_bp(x, Pm)
    return _mirror_bp(poncelet(Pm, Ppm, xm), P)


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
    if direction == "cw":
        Pm, Ppm = _mirrored(P), _mirrored(Pp)
        if isinstance(start, Point):
            located = P.locate_boundary(start)
            if located is None:
                raise ValueError("start must lie on the boundary")
            start = located
        res = blc(Pm, Ppm, _mirror_bp(start, Pm), "ccw")
        return BlcResult(
            tuple(_mirror_bp(b, P) for b in res.points),
            tuple(_mirror_point(q) for q in res.pivots),
            _mirror_bp(res.stop_image, P),
            "cw",
        )
    if direction != "ccw":
        raise ValueError("direction must be 'ccw' or 'cw'")
    if isinstance(start, Point):
        located = P.locate_boundary(start)
        if located is None:
            raise ValueError("start must lie on the boundary")
        start = located

    ev = right_tangent(P, Pp, start)
    points = [start, ev.image]
    pivots = [ev.far_pivot]
    while True:
        ev = right_tangent(P, Pp, points[-1])
        nxt = ev.image
        if in_arc(points[-1], points[0], nxt, False, False):
            points.append(nxt)
            pivots.append(ev.far_pivot)
        else:
            stop_image = nxt
            break
    assert 3 <= len(points) <= P.n + 1
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
    from .geometry import segment_contains

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

