"""Degenerate-containment decision and maximal-degenerate constructions."""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Point, Rat, orient, segment_contains, segment_param
from .polygon import (
    BoundaryPoint,
    Polygon,
    boundary_key,
    canonicalize_ccw,
    co_contains,
    ray_polygon_exit,
)
from .poncelet import blc, gamma1_points

NOT_SET_CONVEX_OUTER = "NotSetConvexOuter"
COLLINEAR_INNER = "CollinearInner"
BLC_EARLY_STOP = "BlcEarlyStop"
NO_GOOD_TEST_POINT = "NoGoodTestPoint"


@dataclass(frozen=True)
class DegeneracyVerdict:
    degenerate: bool
    witness: Polygon | None
    reason: str
    start: BoundaryPoint | None = None  # BLC start for BlcEarlyStop


class WitnessError(Exception):
    """A degeneracy witness failed certification; indicates a bug."""


def certify_witness(P: Polygon, Pp: Polygon, w: Polygon) -> bool:
    """The three machine checks: fits under P, covers Pp, fewer vertices."""
    return co_contains(P, w) and co_contains(w, Pp) and w.n < P.n


def _certified(P: Polygon, Pp: Polygon, w: Polygon) -> Polygon:
    """The witness w once it passes certify_witness; WitnessError otherwise."""
    if not certify_witness(P, Pp, w):
        raise WitnessError(f"witness {w!r} fails certification")
    return w


def _segment_extremes(points: list[Point]) -> tuple[Point, Point]:
    """Endpoints of the segment spanned by a collinear point set."""
    lo = min(points)
    hi = max(points)
    return lo, hi


def _collinear_witness(P: Polygon, Pp: Polygon) -> Polygon:
    """Triangle through the inner segment plus the lowest-index outer vertex
    off its line; requires a set-convex P with n >= 4."""
    a, b = _segment_extremes(list(Pp.vertices))
    if a == b:
        for v in P.vertices:
            if v != a:
                return Polygon((a, b, v))
        raise AssertionError("outer polygon collapsed to a point")
    for v in P.vertices:
        if orient(a, b, v) != 0:
            return Polygon((a, b, v))
    raise AssertionError("set-convex outer polygon has no vertex off the line")


def is_degenerate(P: Polygon, Pp: Polygon) -> DegeneracyVerdict:
    """The four-step degeneracy decision.

    (1) a non-set-convex outer polygon makes everything inside degenerate;
    (2) a collinear inner polygon is degenerate; (3) otherwise canonicalize
    the outer polygon and run the broken line construction from every test
    point of T = vertices + Gamma_1; an early stop (fewer than n points)
    certifies degeneracy with the resulting polygon as witness.

    For n = 3 degeneracy is equivalent to collinearity of the inner
    polygon, so step (2) decides and no witness polygon is emitted.
    """
    if not co_contains(P, Pp):
        raise ValueError("containment precondition violated")
    n = P.n
    if not P.is_set_convex:
        if n == 3:
            return DegeneracyVerdict(True, None, NOT_SET_CONVEX_OUTER)
        hull = P.hull
        if len(hull) >= 3:
            witness = Polygon(hull)
        else:
            a, b = hull[0], hull[-1]
            witness = Polygon((a, b, b))
        return DegeneracyVerdict(True, _certified(P, Pp, witness), NOT_SET_CONVEX_OUTER)
    if Pp.is_collinear:
        if n == 3:
            return DegeneracyVerdict(True, None, COLLINEAR_INNER)
        witness = _certified(P, Pp, _collinear_witness(P, Pp))
        return DegeneracyVerdict(True, witness, COLLINEAR_INNER)
    if n == 3:
        return DegeneracyVerdict(False, None, NO_GOOD_TEST_POINT)

    canon = canonicalize_ccw(P)
    assert canon is not None
    Pc, _ = canon
    for start in test_points(Pc, Pp):
        res = blc(Pc, Pp, start)
        if res.l < n:
            witness = _certified(P, Pp, Polygon(tuple(b.realize() for b in res.points)))
            return DegeneracyVerdict(True, witness, BLC_EARLY_STOP, start)
    return DegeneracyVerdict(False, None, NO_GOOD_TEST_POINT)


def test_points(P: Polygon, Pp: Polygon) -> list[BoundaryPoint]:
    """T = vertices of P then Gamma_1, in a fixed deterministic order."""
    verts = [BoundaryPoint(P, j, Rat(0)) for j in range(P.n)]
    anchor = verts[0]
    extra = sorted(
        gamma1_points(P, Pp) - set(verts), key=lambda b: boundary_key(anchor, b)
    )
    return verts + extra


def maximal_degenerate_extend(Q: Polygon, P: Polygon) -> Polygon:
    """Grow an m-gon (m < n) into a maximal degenerate (n-1)-gon between it
    and P: pad, push every vertex onto the boundary, collapse edge-sharers
    onto vertices of P, and split vertex double points.

    The output vertices are returned in counterclockwise boundary order, so
    the result is convex CCW as listed.
    """
    if not P.is_convex_ccw:
        raise ValueError("outer polygon must be convex CCW")
    if not co_contains(P, Q):
        raise ValueError("witness must be contained in the outer polygon")
    if Q.n >= P.n:
        raise ValueError("witness must have fewer vertices than the outer polygon")
    n = P.n
    pts = list(Q.vertices)
    while len(pts) < n - 1:
        pts.append(pts[0])

    def on_boundary(q: Point) -> bool:
        return P.locate_boundary(q) is not None

    # Inscribe: vertex 0 pushes everyone else, then is pushed itself.
    for k in range(1, n - 1):
        if on_boundary(pts[k]):
            continue
        pts[k] = push_landing(P, pts[0], pts[k])
    if not on_boundary(pts[0]):
        pts[0] = push_landing(P, pts[1], pts[0])

    # Merge edge-sharers onto vertices of P; split vertex double points.
    while True:
        moved = False
        for i in range(n):
            a, b = P.edge(i)
            here = [k for k, q in enumerate(pts) if segment_contains(a, b, q)]
            if len(here) < 2:
                continue
            strays = [k for k in here if pts[k] != a and pts[k] != b]
            if not strays:
                continue
            k = strays[0]
            mate = next(m for m in here if m != k)
            pts[k] = edge_push_target(a, b, pts[mate], pts[k])
            moved = True
            break
        if moved:
            continue
        occupants: dict[Point, list[int]] = {}
        for k, q in enumerate(pts):
            if q in set(P.vertices):
                occupants.setdefault(q, []).append(k)
        doubled = [v for v in P.vertices if len(occupants.get(v, [])) >= 2]
        if not doubled:
            break
        free = next(v for v in P.vertices if not occupants.get(v))
        pts[occupants[doubled[0]][0]] = free

    out = Polygon(tuple(pts))
    assert _is_maximal_degenerate(out, P)
    anchor = BoundaryPoint(P, 0, Rat(0))
    order = sorted(
        range(n - 1),
        key=lambda k: boundary_key(anchor, P.locate_boundary(pts[k])),
    )
    result = Polygon(tuple(pts[k] for k in order))
    assert result.is_convex_ccw and co_contains(P, result) and co_contains(result, Q)
    return result


def push_landing(P: Polygon, pusher: Point, mover: Point) -> Point:
    """Boundary landing of a push-out; a coincident pair pushes toward the
    first vertex of P that breaks the tie."""
    if pusher != mover:
        return ray_polygon_exit(P, pusher, mover - pusher).realize()
    for v in P.vertices:
        if v != mover:
            return ray_polygon_exit(P, mover, v - mover).realize()
    raise AssertionError("outer polygon collapsed to a point")


def edge_push_target(a: Point, b: Point, pusher: Point, mover: Point) -> Point:
    """Endpoint of [a, b] a stray mover is pushed to by a mate on the same
    edge: away from the pusher, and counterclockwise-first on a tie."""
    if pusher == mover:
        return b
    ta, tm = segment_param(a, b, pusher), segment_param(a, b, mover)
    assert ta is not None and tm is not None
    return b if ta <= tm else a


def _is_maximal_degenerate(Q: Polygon, P: Polygon) -> bool:
    """Inscribed, and each vertex is a single occupant of a vertex of P or
    stranded (alone on its closed edges)."""
    if Q.n != P.n - 1:
        return False
    locs = [P.locate_boundary(q) for q in Q.vertices]
    if any(b is None for b in locs):
        return False
    pverts = set(P.vertices)
    for k, q in enumerate(Q.vertices):
        others = [Q.vertices[m] for m in range(Q.n) if m != k]
        if q in pverts:
            if any(o == q for o in others):
                return False
        else:
            for i in range(P.n):
                a, b = P.edge(i)
                if segment_contains(a, b, q) and any(
                    segment_contains(a, b, o) for o in others
                ):
                    return False
    return True
