"""Constructive move-script synthesis.

Plans are built as push-out sequences from the target polygon back up to
the start polygon (the constructions are naturally stated that way), then
reversed into pull-in scripts.  Every emitted script is verified against
the requested target and its length is checked against the declared bound;
a violation raises PlannerError instead of shipping a bad plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .degeneracy import edge_push_target, maximal_degenerate_extend, push_landing
from .geometry import Point, segment_contains, segment_param
from .moves import (
    MoveScript,
    PullIn,
    PushOut,
    apply_pushout,
    invert_pushout,
    verify_script,
)
from .polygon import (
    Polygon,
    canonicalize_ccw,
    co_contains,
    ray_polygon_exit,
)

DEGENERATE_LT_5N = "DegenerateLt5n"
THRESHOLD_2N_MINUS_1 = "Threshold2nMinus1"
VESTIBULE_2N = "Vestibule2n"
DIRECT_SHORT = "DirectShort"

_BOUND = {
    DEGENERATE_LT_5N: lambda n, k: k < 5 * n,
    THRESHOLD_2N_MINUS_1: lambda n, k: k <= 2 * n - 1,
    VESTIBULE_2N: lambda n, k: k <= 2 * n,
    DIRECT_SHORT: lambda n, k: k <= 2 * n,
}


class PlannerError(Exception):
    """A constructive bound or invariant failed; indicates a planner bug."""


@dataclass(frozen=True)
class PlanOutcome:
    script: MoveScript
    bound_class: str
    intermediates: tuple[Polygon, ...]


def _finish(script: MoveScript, target: Polygon, bound_class: str) -> PlanOutcome:
    rep = verify_script(script, target)
    if not rep.ok:
        raise PlannerError(f"planned script failed verification: {rep.failure}")
    n = target.n
    if not _BOUND[bound_class](n, len(script.moves)):
        raise PlannerError(
            f"bound {bound_class} violated: {len(script.moves)} moves for n={n}"
        )
    return PlanOutcome(script, bound_class, rep.states)


class _PushRecorder:
    """Forward push-out simulation from a start polygon, reversible into a
    pull-in script from the final state."""

    def __init__(self, start: Polygon):
        self.states = [start]
        self.pushes: list[PushOut] = []

    @property
    def current(self) -> Polygon:
        return self.states[-1]

    def push(self, mover: int, pusher: int, landing: Point) -> None:
        cur = self.current
        if landing == cur.vertices[mover]:
            return  # identity push: skip to keep scripts short
        m = PushOut(mover, pusher, landing)
        self.states.append(apply_pushout(cur, m))
        self.pushes.append(m)

    def to_script(self) -> MoveScript:
        moves = []
        for k in range(len(self.pushes) - 1, -1, -1):
            moves.append(invert_pushout(self.states[k], self.pushes[k]))
        return MoveScript(self.current, tuple(moves))


def _inscribe_onto(rec: _PushRecorder, Q: Polygon) -> None:
    """Push every vertex onto the boundary of Q: vertex 0 pushes the others,
    then is pushed out itself by vertex 1."""
    n = rec.current.n
    for k in range(1, n):
        cur = rec.current
        if Q.locate_boundary(cur.vertices[k]) is not None:
            continue
        rec.push(k, 0, push_landing(Q, cur.vertices[0], cur.vertices[k]))
    cur = rec.current
    if Q.locate_boundary(cur.vertices[0]) is None:
        rec.push(0, 1, push_landing(Q, cur.vertices[1], cur.vertices[0]))


def _sweep_to_vertices(rec: _PushRecorder, Q: Polygon) -> None:
    """Move every vertex (already on the boundary of Q) to vertices of Q.

    Strays sharing a closed edge with another vertex are pushed to the far
    endpoint; once every stray is stranded, a double point at some vertex
    of Q unstrands them two moves at a time.
    """
    n = rec.current.n
    qverts = list(Q.vertices)
    budget = 3 * n  # hard stop against planner bugs
    while budget > 0:
        budget -= 1
        cur = rec.current.vertices
        strays = [
            k for k in range(n)
            if cur[k] not in qverts and Q.locate_boundary(cur[k]) is not None
        ]
        if any(Q.locate_boundary(cur[k]) is None for k in range(n)):
            raise PlannerError("sweep expects an inscribed polygon")
        if not strays:
            return
        move = None
        for k in strays:
            for i in range(Q.n):
                a, b = Q.edge(i)
                if not segment_contains(a, b, cur[k]):
                    continue
                mates = [m for m in range(n) if m != k and segment_contains(a, b, cur[m])]
                if mates:
                    move = (k, mates[0], a, b)
                    break
            if move:
                break
        if move:
            k, mate, a, b = move
            rec.push(k, mate, edge_push_target(a, b, cur[mate], cur[k]))
            continue
        # Every stray is stranded: use a double point at a vertex of Q.
        doubled = None
        for q in qverts:
            occ = [m for m in range(n) if cur[m] == q]
            if len(occ) >= 2:
                doubled = occ
                break
        if doubled is None:
            raise PlannerError("stranded strays but no vertex double point")
        u = strays[0]
        edge_i = next(
            i for i in range(Q.n)
            if segment_contains(*Q.edge(i), cur[u])
        )
        a, b = Q.edge(edge_i)
        rec.push(doubled[0], doubled[1], a)
        rec.push(u, doubled[0], b)
    raise PlannerError("vertex sweep exceeded its move budget")


def _sweep_occupy_all(rec: _PushRecorder, P: Polygon) -> None:
    """Push the strays of an inscribed, non-degenerate polygon with at least
    one vertex occupant until every vertex of P is occupied."""
    n = P.n
    pverts = set(P.vertices)
    for _ in range(n):
        cur = rec.current.vertices
        strays = [k for k in range(n) if cur[k] not in pverts]
        if not strays:
            break
        move = None
        for k in strays:
            for i in range(n):
                a, b = P.edge(i)
                if not segment_contains(a, b, cur[k]):
                    continue
                mates = [m for m in range(n) if m != k and segment_contains(a, b, cur[m])]
                if mates:
                    move = (k, mates[0], a, b)
                    break
            if move:
                break
        if move is None:
            raise PlannerError("occupancy sweep is stuck with stranded strays")
        k, mate, a, b = move
        rec.push(k, mate, edge_push_target(a, b, rec.current.vertices[mate], rec.current.vertices[k]))
    cur = rec.current.vertices
    if sorted(cur) != sorted(P.vertices):
        raise PlannerError("occupancy sweep did not reach every vertex")


def _permutation_to(rec: _PushRecorder, target: Polygon) -> None:
    """Move a polygon whose vertices all occupy points of the target onto
    the target exactly, using double-point pushes and cycle chasing."""
    n = target.n
    tpoints = list(target.vertices)
    # Phase 1: any incorrectly placed vertex sharing its point moves home.
    for _ in range(n + 1):
        cur = rec.current.vertices
        move = None
        for k in range(n):
            if cur[k] == tpoints[k]:
                continue
            for j in range(n):
                if j != k and cur[j] == cur[k]:
                    move = (k, j)
                    break
            if move:
                break
        if move is None:
            break
        k, j = move
        rec.push(k, j, tpoints[k])

    cur = rec.current.vertices
    incorrect = [k for k in range(n) if cur[k] != tpoints[k]]
    if not incorrect:
        return
    # Each incorrect vertex now sits alone; the assignment graph on them is
    # a disjoint union of cycles (every point here is also a target point).
    succ: dict[int, int] = {}
    for k in incorrect:
        nxts = [j for j in incorrect if cur[j] == tpoints[k]]
        if len(nxts) != 1:
            raise PlannerError("incorrect vertices do not decompose into cycles")
        succ[k] = nxts[0]
    cycles: list[list[int]] = []
    seen: set[int] = set()
    for k in sorted(incorrect):
        if k in seen:
            continue
        cyc = [k]
        seen.add(k)
        j = succ[k]
        while j != k:
            cyc.append(j)
            seen.add(j)
            j = succ[j]
        cycles.append(cyc)

    # Borrow a correctly placed vertex from a multiply occupied point.
    borrow = None
    order = {p: i for i, p in enumerate(tpoints)}
    for q in sorted(set(cur), key=lambda p: order.get(p, n)):
        occ = [m for m in range(n) if cur[m] == q]
        if len(occ) >= 2:
            borrow = occ[0]
            break
    if borrow is None:
        raise PlannerError("no double point available to borrow from")
    home = cur[borrow]
    for cyc in cycles:
        cur = rec.current.vertices
        mate = next(m for m in range(n) if m != borrow and cur[m] == cur[borrow])
        rec.push(borrow, mate, cur[cyc[0]])
        pusher = borrow
        for k in cyc:
            rec.push(k, pusher, tpoints[k])
            pusher = k
    cur = rec.current.vertices
    mate = next(m for m in range(n) if m != borrow and cur[m] == cur[borrow])
    rec.push(borrow, mate, home)
    if rec.current.vertices != target.vertices:
        raise PlannerError("permutation stage missed the target")


def _plan_degenerate_nonconvex(P: Polygon, Pp: Polygon) -> MoveScript:
    """Outer polygon not set-convex with a genuine 2-dimensional hull."""
    hull = P.hull
    Q = Polygon(hull)
    n = P.n
    rec = _PushRecorder(Pp)
    _inscribe_onto(rec, Q)
    _sweep_to_vertices(rec, Q)
    ext = set(hull)
    i0 = min(j for j in range(n) if P.vertices[j] in ext)
    target = Polygon(tuple(
        P.vertices[j] if P.vertices[j] in ext else P.vertices[i0] for j in range(n)
    ))
    _permutation_to(rec, target)
    for j in range(n):
        if target.vertices[j] != P.vertices[j]:
            rec.push(j, i0, P.vertices[j])
    if rec.current != P:
        raise PlannerError("non-set-convex plan did not land on the start polygon")
    return rec.to_script()


def _plan_degenerate_convex(P: Polygon, Pp: Polygon, witness: Polygon) -> MoveScript:
    """Set-convex outer polygon, n >= 4: the maximal-degenerate route."""
    canon = canonicalize_ccw(P)
    assert canon is not None
    Pc, sigma = canon
    Ppc = Polygon(tuple(Pp.vertices[s] for s in sigma))
    n = Pc.n

    Qmd = maximal_degenerate_extend(witness, Pc)
    rec = _PushRecorder(Ppc)
    _inscribe_onto(rec, Qmd)
    _sweep_to_vertices(rec, Qmd)

    # Occupy every vertex of P from the doubled (n-1)-gon, in simulation.
    q = Qmd.vertices
    Qt = Polygon((q[0],) + q)
    sim = _PushRecorder(Qt)
    qset = set(q)
    p_free = next(v for v in Pc.vertices if v not in qset)
    sim.push(0, 1, p_free)
    _sweep_occupy_all(sim, Pc)
    F = sim.current
    phi = [Pc.vertices.index(F.vertices[k]) for k in range(n)]
    if sorted(phi) != list(range(n)):
        raise PlannerError("occupancy simulation is not a bijection")
    inv = [0] * n
    for k, j in enumerate(phi):
        inv[j] = k
    bridge = Polygon(tuple(Qt.vertices[inv[j]] for j in range(n)))

    _permutation_to(rec, bridge)
    for m in sim.pushes:
        rec.push(phi[m.mover], phi[m.pusher], m.landing)
    if rec.current != Pc:
        raise PlannerError("set-convex plan did not land on the start polygon")
    script_c = rec.to_script()
    moves = tuple(PullIn(sigma[m.mover], sigma[m.target], m.c) for m in script_c.moves)
    return MoveScript(P, moves)


def _plan_segment(P: Polygon, Pp: Polygon) -> MoveScript:
    """Outer hull is a point or segment: a one-dimensional plan.

    The owners of the extreme targets are pinned on them first, ordered so
    that a pin never removes the anchor the other pin still needs (with a
    full-pull helper detour when each owner holds the extreme the other
    one must reach); the pins then bracket every remaining target.
    """
    n = P.n
    moves: list[PullIn] = []
    cur = list(P.vertices)
    goal = list(Pp.vertices)

    def pull(mover: int, anchor: int, landing: Point) -> None:
        if landing == cur[mover]:
            return
        c = segment_param(cur[mover], cur[anchor], landing)
        if c is None or not 0 <= c <= 1:
            raise PlannerError("segment plan produced an invalid pull-in")
        moves.append(PullIn(mover, anchor, c))
        cur[mover] = landing

    hull = P.hull
    if len(hull) == 1:
        if any(g != hull[0] for g in goal):
            raise PlannerError("containment violated in point-hull plan")
        return MoveScript(P, tuple())
    base, top = hull[0], hull[-1]
    t = lambda q: segment_param(base, top, q)

    def pin(k: int) -> None:
        """Move slot k straight to its target across the bracketed hull."""
        side = 1 if t(goal[k]) >= t(cur[k]) else -1
        anchor = max(
            (j for j in range(n) if j != k),
            key=lambda j: side * t(cur[j]),
        )
        pull(k, anchor, goal[k])

    k_lo = min(range(n), key=lambda k: (t(goal[k]), k))
    k_hi = max(range(n), key=lambda k: (t(goal[k]), -k))
    if k_lo == k_hi:  # all targets coincide
        pin(k_lo)
        for k in range(n):
            if k != k_lo:
                pull(k, k_lo, goal[k])
        if cur != goal:
            raise PlannerError("segment plan missed its target")
        return MoveScript(P, tuple(moves))
    mslot = min(range(n), key=lambda k: (t(cur[k]), k))
    Mslot = max(range(n), key=lambda k: (t(cur[k]), -k))
    if k_hi == mslot and k_lo == Mslot:
        h = next(j for j in range(n) if j not in (k_hi, k_lo))
        pull(h, k_lo, cur[k_lo])  # full pull parks the helper on the max
        pin(k_lo)
        pin(k_hi)
    elif k_hi == mslot:
        pin(k_lo)
        pin(k_hi)
    else:
        pin(k_hi)
        pin(k_lo)
    for k in range(n):
        if k in (k_lo, k_hi) or cur[k] == goal[k]:
            continue
        anchor = k_hi if t(goal[k]) >= t(cur[k]) else k_lo
        pull(k, anchor, goal[k])
    if cur != goal:
        raise PlannerError("segment plan missed its target")
    return MoveScript(P, tuple(moves))


def _plan_triangle(P: Polygon, Pp: Polygon) -> MoveScript:
    """n = 3 with collinear targets inside a genuine triangle: breadth-first
    search over a closed set of structured landings.

    Candidate landings are the targets, the chord of the target line, the
    triangle's vertices, push-through points from each vertex through each
    target, and full pulls onto another slot; this closure is small, so the
    search is exhaustive.
    """
    hull = Polygon(P.hull)  # CCW copy for the boundary constructions
    verts = list(P.vertices)
    goal = tuple(Pp.vertices)
    landings: set[Point] = set(verts) | set(goal)
    gpts = [g for g in goal]
    distinct = sorted(set(gpts))
    if len(distinct) >= 2:
        u, v = distinct[0], distinct[-1]
        for w, z in ((u, v), (v, u)):
            landings.add(ray_polygon_exit(hull, w, z - w).realize())
    for pvx in verts:
        for g in set(gpts):
            if g != pvx:
                landings.add(ray_polygon_exit(hull, pvx, g - pvx).realize())

    start = tuple(P.vertices)
    if start == goal:
        return MoveScript(P, tuple())
    frontier = {start: []}
    seen = {start}
    for _ in range(10):
        nxt: dict[tuple, list] = {}
        for state, path in frontier.items():
            for mover in range(3):
                for anchor in range(3):
                    if anchor == mover:
                        continue
                    a, b = state[mover], state[anchor]
                    options = [q for q in landings if segment_contains(a, b, q)]
                    if b not in options:
                        options.append(b)
                    for q in options:
                        if q == a:
                            continue
                        ns = list(state)
                        ns[mover] = q
                        ns_t = tuple(ns)
                        if ns_t in seen:
                            continue
                        c = segment_param(a, b, q)
                        assert c is not None and 0 <= c <= 1
                        npath = path + [PullIn(mover, anchor, c)]
                        if ns_t == goal:
                            return MoveScript(P, tuple(npath))
                        seen.add(ns_t)
                        nxt[ns_t] = npath
        frontier = nxt
        if not frontier:
            break
    raise PlannerError("triangle search found no degenerate plan")


def plan_degenerate(P: Polygon, Pp: Polygon, witness: Polygon | None) -> PlanOutcome:
    """Script of fewer than 5n pull-ins reaching a degenerately contained
    polygon, following the constructive cases of the bound."""
    if witness is not None and not (
        co_contains(P, witness) and co_contains(witness, Pp) and witness.n < P.n
    ):
        raise ValueError("witness fails certification")
    if len(P.hull) <= 2:
        script = _plan_segment(P, Pp)
    elif P.n == 3:
        script = _plan_triangle(P, Pp)
    elif not P.is_set_convex:
        script = _plan_degenerate_nonconvex(P, Pp)
    else:
        if witness is None:
            raise ValueError("set-convex case needs a certified witness")
        script = _plan_degenerate_convex(P, Pp, witness)
    return _finish(script, Pp, DEGENERATE_LT_5N)


def _plan_threshold_ccw(P: Polygon, Pp: Polygon, i: int, xs: list[Point]) -> _PushRecorder:
    """Push-out chain of the threshold construction, counterclockwise case:
    successive vertices go out onto the broken-line points, the boundary
    vertex goes out to its own corner, and the occupancy sweep finishes."""
    n = P.n
    rec = _PushRecorder(Pp)
    for k in range(1, n):
        rec.push((i + k) % n, (i + k - 1) % n, xs[k])
    rec.push(i, (i - 1) % n, P.vertices[i])
    _sweep_occupy_all(rec, P)
    if rec.current != P:
        raise PlannerError("threshold plan did not land on the start polygon")
    return rec


def plan_threshold(P: Polygon, Pp: Polygon, i: int, cert) -> PlanOutcome:
    """At most 2n-1 pull-ins onto a threshold member, from its certificate.

    P must be convex CCW and slot-aligned with Pp; cert is the accepted
    BlcResult (its direction selects the case, the clockwise one planned in
    the mirrored frame)."""
    if Pp == P:
        return _finish(MoveScript(P, tuple()), Pp, THRESHOLD_2N_MINUS_1)
    n = P.n
    xs = [b.realize() for b in cert.points]
    if cert.direction == "ccw":
        rec = _plan_threshold_ccw(P, Pp, i, xs)
        return _finish(rec.to_script(), Pp, THRESHOLD_2N_MINUS_1)
    # Clockwise case: reflect across the x-axis and reverse slot order.
    refl = lambda p: Point(p.x, -p.y)
    remap = lambda k: n - 1 - k
    Pt = Polygon(tuple(refl(v) for v in reversed(P.vertices)))
    Ppt = Polygon(tuple(refl(v) for v in reversed(Pp.vertices)))
    xst = [refl(q) for q in xs]
    rec = _plan_threshold_ccw(Pt, Ppt, remap(i), xst)
    script_t = rec.to_script()
    moves = tuple(PullIn(remap(m.mover), remap(m.target), m.c) for m in script_t.moves)
    return _finish(MoveScript(P, moves), Pp, THRESHOLD_2N_MINUS_1)


def plan_vestibule(
    P: Polygon, Pp: Polygon, pushout: PushOut | None, threshold_plan: PlanOutcome
) -> PlanOutcome:
    """Threshold plan plus the single inverse pull-in of the neighbor
    push-out; at most 2n moves total."""
    if pushout is None:
        return threshold_plan
    tail = invert_pushout(Pp, pushout)
    script = MoveScript(P, threshold_plan.script.moves + (tail,))
    return _finish(script, Pp, VESTIBULE_2N)
