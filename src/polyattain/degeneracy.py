"""The degenerate-containment decision: is_degenerate, its test points,
and the certification of the witness it returns.  Building a maximal
degenerate polygon from a witness is a push-out construction and lives in
planners."""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Rat, orient
from .polygon import (
    BoundaryPoint,
    InvariantError,
    Polygon,
    canonicalize_ccw,
    co_contains,
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


def _collinear_witness(P: Polygon, Pp: Polygon) -> Polygon:
    """Triangle through the inner segment plus the lowest-index outer vertex
    off its line; requires a set-convex P with n >= 4."""
    a, b = min(Pp.vertices), max(Pp.vertices)
    if a == b:
        for v in P.vertices:
            if v != a:
                return Polygon((a, b, v))
        raise InvariantError("outer polygon collapsed to a point")
    for v in P.vertices:
        if orient(a, b, v) != 0:
            return Polygon((a, b, v))
    raise InvariantError("set-convex outer polygon has no vertex off the line")


def is_degenerate(P: Polygon, Pp: Polygon) -> DegeneracyVerdict:
    """The four-step degeneracy decision.

    (1) a non-set-convex outer polygon makes everything inside degenerate;
    (2) a collinear inner polygon is degenerate; (3) otherwise canonicalize
    the outer polygon and run the broken line construction from every test
    point of T = vertices + Gamma_1, the vertices first; an early stop
    (fewer than n points) certifies degeneracy with the resulting polygon
    as witness.

    For n = 3 degeneracy is equivalent to collinearity of the inner
    polygon, so step (2) decides and no witness polygon is emitted.
    A Pp with another vertex count than P, or outside co(P), is a
    ValueError.
    """
    if P.n != Pp.n:
        raise ValueError("vertex count mismatch")
    if not co_contains(P, Pp):
        raise ValueError("containment violated")
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
    if canon is None:
        raise InvariantError("outer polygon is not set-convex")
    Pc, _ = canon
    for start in _starts(Pc, Pp):
        res = blc(Pc, Pp, start)
        if res.l < n:
            witness = _certified(P, Pp, Polygon(tuple(b.realize() for b in res.points)))
            return DegeneracyVerdict(True, witness, BLC_EARLY_STOP, start)
    return DegeneracyVerdict(False, None, NO_GOOD_TEST_POINT)


def test_points(P: Polygon, Pp: Polygon) -> list[BoundaryPoint]:
    """T = vertices of P then Gamma_1, each in counterclockwise order from
    vertex 0."""
    verts = [BoundaryPoint(P, j, Rat(0)) for j in range(P.n)]
    return verts + sorted(gamma1_points(P, Pp) - set(verts), key=lambda b: (b.edge, b.t))


def _starts(P: Polygon, Pp: Polygon):
    """The test points in the order of `test_points`, with Gamma_1 computed
    only once the vertex starts are spent: an early stop at a vertex never
    needs it."""
    for j in range(P.n):
        yield BoundaryPoint(P, j, Rat(0))
    yield from test_points(P, Pp)[P.n:]
