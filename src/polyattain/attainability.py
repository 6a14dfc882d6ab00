"""The threshold test, vestibule test, and the complete attainability
decision for decreasing paths."""

from __future__ import annotations

from dataclasses import dataclass, field

from .degeneracy import is_degenerate
from .geometry import Point
from .moves import PushOut, relabel
from .planners import PlanOutcome, finish_plan, plan_degenerate, plan_threshold, plan_vestibule
from .polygon import (
    BoundaryPoint,
    InvariantError,
    Polygon,
    canonicalize_ccw,
    in_arc,
    ray_polygon_exit,
)
from .poncelet import BlcResult, blc

ATTAINABLE_DEGENERATE = "AttainableDegenerate"
ATTAINABLE_VESTIBULE = "AttainableVestibule"
UNATTAINABLE = "Unattainable"
UNKNOWN_N3 = "UnknownN3"

# Why a threshold probe failed: no run possible, or the runs were rejected.
NOT_CONVEX = "polygon not convex CCW"
OFF_CORNER = "vertex on neither edge at its corner"
TEST_FAILED = "threshold test failed"


@dataclass(frozen=True)
class VestibuleCertificate:
    pushout: PushOut | None  # None: the polygon is already in the threshold
    vertex: int
    cert: BlcResult


@dataclass(frozen=True)
class RejectionRecord:
    """One tested neighbor push-out (or boundary vertex) that failed."""

    vertex: int
    pusher: int | None
    landing: Point
    why: str
    failed_runs: tuple[BlcResult, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class Verdict:
    status: str
    certificate: object
    plan: PlanOutcome | None
    audit: tuple[RejectionRecord, ...] = field(default_factory=tuple)


def threshold_test(P: Polygon, Pp: Polygon, i: int) -> BlcResult | None:
    """Certificate that Pp (non-degenerate, vertex i on the boundary of P)
    is attainable: the polygon is convex CCW and the broken line
    construction from that vertex returns with exactly n points into the
    stated half-open stretch of the neighboring edge.

    Both directions are tried when the vertex sits exactly on a corner.
    """
    bp = P.locate_boundary(Pp.vertices[i])
    if bp is None:
        raise ValueError("threshold test needs the chosen vertex on the boundary")
    return _threshold_probe(P, Pp, i, bp)[0]


def _threshold_probe(
    P: Polygon, Pp: Polygon, i: int, bp: BoundaryPoint
) -> tuple[BlcResult | None, str | None, tuple[BlcResult, ...]]:
    """threshold_test from vertex i, already located at bp, plus, when it
    fails, why and the rejected runs, for audit trails."""
    n = P.n
    if not Pp.is_convex_ccw:
        return None, NOT_CONVEX, tuple()
    prev_edge, this_edge = (i - 1) % n, i % n
    v_prev = BoundaryPoint(P, prev_edge, 0)
    v_next = BoundaryPoint(P, (i + 1) % n, 0)
    on_prev = (bp.edge == prev_edge and bp.t > 0) or (bp.edge == this_edge and bp.t == 0)
    on_this = bp.edge == this_edge
    if not (on_prev or on_this):
        return None, OFF_CORNER, tuple()
    failures = []
    if on_prev:
        res = blc(P, Pp, bp, "ccw")
        if res.l == n and in_arc(v_prev, bp, res.last, True, False):
            return res, None, tuple()
        failures.append(res)
    if on_this:
        res = blc(P, Pp, bp, "cw")
        if res.l == n and in_arc(bp, v_next, res.last, False, True):
            return res, None, tuple()
        failures.append(res)
    return None, TEST_FAILED, tuple(failures)


def vestibule_test(
    P: Polygon, Pp: Polygon
) -> tuple[VestibuleCertificate | None, tuple[RejectionRecord, ...]]:
    """Search for a certificate that Pp is one neighbor pull-in away from
    the threshold (or already in it).

    With a vertex already on the boundary, membership in the threshold is
    equivalent to attainability, so only the threshold tests run.  With all
    vertices interior, all 2n neighbor push-outs onto the boundary are
    tried in index order, predecessor pusher first.
    """
    n = P.n
    audit: list[RejectionRecord] = []
    located = [(i, P.locate_boundary(v)) for i, v in enumerate(Pp.vertices)]
    boundary_vertices = [(i, bp) for i, bp in located if bp is not None]
    if boundary_vertices:
        for i, bp in boundary_vertices:
            cert, why, failures = _threshold_probe(P, Pp, i, bp)
            if cert is not None:
                return VestibuleCertificate(None, i, cert), tuple(audit)
            audit.append(RejectionRecord(i, None, Pp.vertices[i], why, failures))
        return None, tuple(audit)
    for i in range(n):
        for pusher in ((i - 1) % n, (i + 1) % n):
            origin, through = Pp.vertices[pusher], Pp.vertices[i]
            landing_bp = ray_polygon_exit(P, origin, through - origin)
            landing = landing_bp.realize()
            pushed = Pp.replace(i, landing)
            cert, why, failures = _threshold_probe(P, pushed, i, landing_bp)
            if cert is not None:
                return (
                    VestibuleCertificate(PushOut(i, pusher, landing), i, cert),
                    tuple(audit),
                )
            audit.append(RejectionRecord(i, pusher, landing, why, failures))
    return None, tuple(audit)


def decide(P: Polygon, Pp: Polygon, plan_moves: bool = False) -> Verdict:
    """Attainability of Pp from P by a decreasing path.

    Degenerate containment is attainable outright; otherwise the polygon is
    attainable if and only if it passes the vestibule search, except that a
    failed search with n = 3 is reported as unknown rather than negative.
    A Pp with another vertex count than P, or outside co(P), is a
    ValueError, raised by `is_degenerate`.
    """
    dv = is_degenerate(P, Pp)
    if dv.degenerate:
        plan = plan_degenerate(P, Pp, dv.witness) if plan_moves else None
        return Verdict(ATTAINABLE_DEGENERATE, dv, plan)

    canon = canonicalize_ccw(P)
    if canon is None:
        raise InvariantError("a non-degenerate instance has a set-convex outer polygon")
    Pc, sigma = canon
    Ppc = Pp if Pc is P else Polygon(tuple(Pp.vertices[s] for s in sigma))
    found, audit = vestibule_test(Pc, Ppc)
    if found is not None:
        plan = None
        if plan_moves:
            push = found.pushout
            pushed = Ppc if push is None else Ppc.replace(found.vertex, push.landing)
            tplan = plan_threshold(Pc, pushed, found.vertex, found.cert)
            plan = plan_vestibule(Pc, Ppc, push, tplan)
            plan = finish_plan(relabel(plan.script, P, sigma), Pp, plan.bound_class)
        return Verdict(ATTAINABLE_VESTIBULE, found, plan, audit)
    if P.n == 3:
        return Verdict(UNKNOWN_N3, None, None, audit)
    return Verdict(UNATTAINABLE, None, None, audit)
