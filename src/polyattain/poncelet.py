"""Tangent rays, the Poncelet map and its clockwise twin, juncture sets,
and the broken line construction.

Every evaluation of the map runs in a homogeneous integer frame: each
vertex of P and of the hull of Pp is the triple (x*w, y*w, w) of
`Polygon.triples`, with w the lcm of that vertex's own two denominators,
built once per polygon and shared by every run on it.  The foot (edge, t)
on the edge a -> b with t = p/q is the frame point
((q-p)*b_w*a + p*a_w*b, q*a_w*b_w), so every test is one of the triple
predicates of `geometry` (`_side`, `_forward`, `_at`) on frame points and
the image parameter is their `_crossing`, a quotient of two determinants:
a step realizes no point and builds one Fraction, and in a run walks on
from the step before.  This module defines no predicate of its own.  The
clockwise map is the counterclockwise one in the mirrored frame, the same
triples reflected (y -> -y) and reversed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Point, Rat, _at, _crossing, _det, _forward, _side
from .polygon import (
    BoundaryPoint,
    InvariantError,
    Polygon,
    arc_key,
    co_contains,
    ray_polygon_exit,
)

INTERIOR = "interior"
BOUNDARY = "boundary"
_ZERO = Rat(0)


@dataclass(frozen=True)
class TangentEval:
    """One evaluation of the Poncelet map.

    pivots are the hull vertices of the inner polygon on the open tangent
    ray, ordered by distance from the foot; the last one is the far pivot.
    """

    pivots: tuple[Point, ...]
    case: str
    image: BoundaryPoint


def _on_boundary(P: Polygon, x: BoundaryPoint | Point, what: str) -> BoundaryPoint:
    """A foot or start given as a point, addressed on the boundary of P."""
    if isinstance(x, BoundaryPoint):
        if x.host is not P and x.host != P:
            raise ValueError(f"{what} lies on another polygon")
        return x
    bp = P.locate_boundary(x)
    if bp is None:
        raise ValueError(f"{what} must lie on the boundary")
    return bp


class _Frame:
    """P's vertices and Pp's hull as homogeneous triples, for one run's steps.

    Counterclockwise, the frame is the polygons' own tables, `P.triples`
    and `Pp.hull_triples`, built once per polygon.  Clockwise, the triples
    are reflected (y -> -y) and reversed, so frame vertex k is vertex
    n-1-k of P, both stay counterclockwise, and the clockwise map is the
    counterclockwise step of this frame; this class alone maps clockwise
    indices.  pts holds the hull's own points in frame order, for the pivots.
    """

    __slots__ = ("P", "ccw", "vs", "hull", "pts")

    def __init__(self, P: Polygon, Pp: Polygon, ccw: bool = True):
        pts = Pp.hull
        if len(pts) < 3:
            raise ValueError("inner polygon is collinear")
        vs, hull = P.triples, Pp.hull_triples
        if not ccw:
            vs = tuple((x, -y, w) for x, y, w in reversed(vs))
            hull, pts = tuple((x, -y, w) for x, y, w in reversed(hull)), pts[::-1]
        self.P, self.ccw = P, ccw
        self.vs, self.hull, self.pts = vs, hull, pts

    def foot(self, bp: BoundaryPoint) -> tuple[int, Rat]:
        """A boundary point of P as an (edge, t) pair of the frame."""
        if self.ccw:
            return bp.edge, bp.t
        n = len(self.vs)
        if bp.t == 0:
            return (-1 - bp.edge) % n, _ZERO
        return (-2 - bp.edge) % n, 1 - bp.t

    def boundary_point(self, x: tuple[int, Rat]) -> BoundaryPoint:
        """The boundary point of P at the frame's (edge, t) pair x."""
        e, t = x
        if self.ccw:
            return BoundaryPoint(self.P, e, t)
        return BoundaryPoint(self.P, -2 - e, 1 - t)


def _later(f, b, p, q) -> int:
    """+1, 0 or -1 as q is seen from the foot at a larger, equal or smaller
    angle than p, measured counterclockwise from the direction foot->b.

    Every point compared lies weakly left of that direction, so the angles
    lie in [0, pi] and one orientation test decides unless p, q and the
    foot are collinear.  The foot itself counts as the largest angle.
    """
    o = _side(f, p, q)
    if o:
        return o
    if _at(f, q):
        return int(not _at(f, p))
    if _at(f, p):
        return -1
    if _forward(f, p, q) > 0:
        return 0
    # On the line foot-b at opposite sides of the foot: the one ahead has angle 0.
    return 1 if _forward(f, b, p) > 0 else -1


def _tangent_index(hull, f, b, hint=None) -> int:
    """Index of the hull vertex that the foot sees at the smallest angle
    (see `_later`); of two at that angle, the first in cyclic order.

    Around the hull the angles rise from the minimum to a maximum and fall
    back to it.  A walk from the hint, the last vertex at the largest angle,
    goes down the fall to the minimum.  Else, unless vertex 0 is the minimum,
    "vertex k comes before the minimum" holds up to it and fails from it
    on, and the slope at k with one comparison against vertex 0 decides it.
    """
    m = len(hull)

    def slope(k: int) -> int:
        return _later(f, b, hull[k], hull[(k + 1) % m])

    if hint is not None:
        for k in range(hint, hint + m):
            if slope(k % m) >= 0:
                return k % m
        raise InvariantError("tangent walk went round the inner hull")
    first = slope(0)
    if first >= 0 and slope(m - 1) < 0:
        return 0
    if first > 0:
        # Rising at 0: the minimum ends the fall that follows the maximum,
        # and vertices on the final rise lie below vertex 0.
        before = lambda k: slope(k) < 0 or _later(f, b, hull[0], hull[k]) > 0
    else:
        # Falling at 0, or vertices 0 and 1 are a level maximum: the minimum
        # ends this fall, and vertices on the final fall lie above vertex 0.
        before = lambda k: slope(k) < 0 and _later(f, b, hull[0], hull[k]) <= 0
    lo, hi = 0, m - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if before(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _exit(vs, x, f, near, walk=False) -> tuple[int, Rat]:
    """Where the ray from the foot x through near leaves the polygon with
    vertices vs, as an (edge, t) pair.

    The ray enters the polygon, so the sides of the vertices after the
    foot's edge, relative to its line, run right ..., at most one on the
    line, left ...: a bisection, or a walk on from the foot, finds the exit
    edge, and the exit parameter is the quotient of two forms in the foot.
    """
    n = len(vs)
    e, t = x
    first = e + 1
    # The vertices after the foot's edge, and its start when the foot lies past it.
    lo, hi = 0, (n - 2 if t == 0 else n - 1)
    if _side(f, near, vs[first % n]) >= 0 or _side(f, near, vs[(first + hi) % n]) <= 0:
        raise ValueError("tangent ray does not enter the outer polygon")
    while hi - lo > 1:
        mid = lo + 1 if walk else (lo + hi) // 2
        side = _side(f, near, vs[(first + mid) % n])
        if side == 0:
            return (first + mid) % n, _ZERO
        if side < 0:
            lo = mid
        else:
            hi = mid
    i = (first + lo) % n
    return i, _crossing(f, near, vs[i], vs[(i + 1) % n])


def _step(fr: _Frame, x: tuple[int, Rat], hint=None):
    """The Poncelet map at the frame's foot x = (edge, t): the hull indices
    of the pivots, the case and the image as an (edge, t) pair.

    hint is the previous far pivot when x is the previous image: on the
    ray that ended at x, it is the last vertex that x sees at the largest
    angle, so the tangent vertex and the exit edge are walked to from it
    and from x, not bisected.  The tangent vertex is certified by its two
    hull neighbours: both weakly left of the ray means the whole hull is,
    since the hull is convex.  Only a neighbour can share the tangent line,
    and only the next one can be the second pivot.  A previous neighbour on
    the ray past the tangent vertex would put the hull right of the ray,
    which the check rejects; one before it lies at the same angle, and
    `_tangent_index` returns the first of two such vertices.
    """
    vs, hull = fr.vs, fr.hull
    n, m = len(vs), len(hull)
    e, t = x
    p, q = t.numerator, t.denominator
    a, b = vs[e], vs[(e + 1) % n]
    ca, cb = (q - p) * b[2], p * a[2]
    f = (ca * a[0] + cb * b[0], ca * a[1] + cb * b[1], q * a[2] * b[2])
    k = _tangent_index(hull, f, b, hint)
    v, prev, nxt = hull[k], hull[k - 1], hull[(k + 1) % m]
    o_prev, o_next = _side(f, v, prev), _side(f, v, nxt)
    if _at(f, v) or o_prev < 0 or o_next < 0:
        raise ValueError("no tangent ray: foot lies inside the inner hull")
    # Two pivots in hull order are in order of distance from the foot: the
    # ray runs along the hull edge between them, with the hull on its left.
    if o_next == 0 and _forward(f, v, nxt) > 0:
        pivots = (k, (k + 1) % m)
    else:
        pivots = (k,)
    near, far = hull[pivots[0]], hull[pivots[-1]]
    if _det(a, b, far) == 0:
        # Tangent collinear with the host edge through the foot: the
        # boundary case.  The backward direction would force Pp onto that
        # edge line, which the collinearity gate of the frame excludes.
        if _forward(f, b, far) <= 0:
            raise InvariantError("tangent runs backwards along the host edge")
        return pivots, BOUNDARY, ((e + 1) % n, _ZERO)
    image = _exit(vs, x, f, near, hint is not None)
    if image == x:
        raise InvariantError("tangent ray exits P at its own foot")
    return pivots, INTERIOR, image


def _evaluate(fr: _Frame, bp: BoundaryPoint) -> TangentEval:
    pivots, case, image = _step(fr, fr.foot(bp))
    return TangentEval(tuple(fr.pts[k] for k in pivots), case, fr.boundary_point(image))


def right_tangent(P: Polygon, Pp: Polygon, x: BoundaryPoint | Point) -> TangentEval:
    """The right tangent ray to Pp from a boundary point of P, with its
    pivots and the Poncelet image.

    The inner polygon must not be collinear and must be contained in P.
    """
    bp = _on_boundary(P, x, "tangent foot")
    return _evaluate(_Frame(P, Pp), bp)


def poncelet(P: Polygon, Pp: Polygon, x: BoundaryPoint | Point) -> BoundaryPoint:
    """The counterclockwise Poncelet map relative to Pp."""
    return right_tangent(P, Pp, x).image


def poncelet_cw(P: Polygon, Pp: Polygon, x: BoundaryPoint | Point) -> BoundaryPoint:
    """The clockwise Poncelet map: left tangent ray, computed as the right
    tangent ray in the mirrored frame."""
    bp = _on_boundary(P, x, "tangent foot")
    return _evaluate(_Frame(P, Pp, False), bp).image


@dataclass(frozen=True)
class BlcResult:
    """Outcome of the broken line construction.

    points are x_1..x_l in travel order; pivots has length l-1 and holds
    the far pivot p(x_k) of each applied step x_{k+1} = map(x_k);
    stop_image records the rejected evaluation at x_l.  A result of `blc`
    keeps its run as frame pairs and builds each of these three when it is
    first read: reading l builds no point, and reading last builds one.
    """

    points: tuple[BoundaryPoint, ...]
    pivots: tuple[Point, ...]
    stop_image: BoundaryPoint
    direction: str

    @property
    def l(self) -> int:
        return len(self._run[1] if "_run" in self.__dict__ else self.points)

    @property
    def last(self) -> BoundaryPoint:
        d = self.__dict__
        return d["points"][-1] if "points" in d else d["_run"][0].boundary_point(d["_run"][1][-1])

    def __getattr__(self, name: str):
        if "_run" not in self.__dict__ or name not in ("points", "pivots", "stop_image"):
            raise AttributeError(name)
        fr, run, fars, stop = self._run
        value = (tuple(map(fr.boundary_point, run)) if name == "points" else
                 tuple(fr.pts[k] for k in fars) if name == "pivots" else fr.boundary_point(stop))
        object.__setattr__(self, name, value)
        return value


def _in_open_arc(n: int, a, b, z) -> bool:
    """z strictly inside the counterclockwise arc from a to b, all three
    (edge, t) pairs of one n-gon, a != b."""
    if z == a or z == b:
        return False
    return arc_key(n, a, z) < arc_key(n, a, b)


def blc(P: Polygon, Pp: Polygon, start: BoundaryPoint | Point, direction: str = "ccw") -> BlcResult:
    """Iterate the Poncelet map from a starting boundary point, stopping as
    soon as the next image leaves the open arc back to the start.

    The run steps on the frame's (edge, t) pairs, clockwise in the mirrored
    frame, each step walking on from the last, so its tangent and exit
    pointers go round once; the result builds its points when read.
    """
    if direction not in ("ccw", "cw"):
        raise ValueError("direction must be 'ccw' or 'cw'")
    start = _on_boundary(P, start, "start")
    fr = _Frame(P, Pp, direction == "ccw")
    n = P.n
    x0 = fr.foot(start)
    pivots, _, x = _step(fr, x0)
    points, fars = [x0, x], [pivots[-1]]
    while True:
        pivots, _, nxt = _step(fr, x, fars[-1])
        if not _in_open_arc(n, x, x0, nxt):
            break
        points.append(nxt)
        fars.append(pivots[-1])
        x = nxt
        if len(points) > n + 1:
            raise InvariantError(f"broken line exceeded its bound of {n + 1} points")
    if len(points) < 3:
        raise InvariantError("broken line stopped before its third point")
    res = object.__new__(BlcResult)
    res.__dict__.update(direction=direction, _run=(fr, points, fars, nxt))
    return res


@dataclass(frozen=True)
class JunctureSets:
    """Critical boundary points where the Poncelet map changes regime."""

    gamma1: frozenset[BoundaryPoint]
    gamma2: frozenset[BoundaryPoint]
    gamma: tuple[BoundaryPoint, ...]
    gamma2_complete: bool


def gamma1_points(P: Polygon, Pp: Polygon) -> frozenset[BoundaryPoint]:
    """Push-outs onto the boundary of each hull vertex of Pp by its
    counterclockwise successor, kept for interior-case evaluations."""
    fr = _Frame(P, Pp)
    hull = fr.pts
    out: set[BoundaryPoint] = set()
    m = len(hull)
    for k in range(m):
        v, succ = hull[k], hull[(k + 1) % m]
        if set(P.edges_at(v)).intersection(P.edges_at(succ)):
            continue
        landing = ray_polygon_exit(P, succ, v - succ)
        if _step(fr, fr.foot(landing))[1] == INTERIOR:
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
        # No pivot lies on the boundary, so every evaluation is in the
        # interior case.
        for j in range(P.n):
            vertex_bp = BoundaryPoint(P, j, Rat(0))
            pre = poncelet_cw(P, Pp, vertex_bp)
            if poncelet(P, Pp, pre) == vertex_bp:
                g2.add(pre)
    verts = {BoundaryPoint(P, j, Rat(0)) for j in range(P.n)}
    gamma = tuple(sorted(verts | g1 | g2, key=lambda b: (b.edge, b.t)))
    return JunctureSets(g1, frozenset(g2), gamma, interior)
