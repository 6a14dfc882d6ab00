"""Constructive move-script synthesis.

Plans are built as push-out sequences from the target polygon back up to
the start polygon (the constructions are naturally stated that way), then
reversed into pull-in scripts.  Every emitted script is verified against
the requested target and its length is checked against the declared bound;
a violation raises PlannerError instead of shipping a bad plan.  The
maximal degenerate polygon that the degenerate plan passes through is
built here too, from the same push-outs.

The sweeps work on boundary addresses, not on point comparisons.  The
inscription gives each slot its address (edge, t) on the convex host: the
ray exit that pushed it, where `locate_boundary` found it, or, after the
threshold chain, the broken-line point it was pushed onto.  An index
keeps, per host vertex, the slots at it and, per host edge, the slots
strictly inside it, each in slot order; every later push lands on a host
vertex and moves one slot between two of these lists.  Strays, mates,
double points and free vertices are read from the index, so a push costs
O(n) work, and the permutation stage runs on host vertex indices.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass

from .degeneracy import certify_witness
from .geometry import Point, Rat, _crossing, _on_segment, _side, _triple, segment_param
from .moves import (
    MoveScript,
    PullIn,
    PushOut,
    apply_pushout,
    invert_pushout,
    relabel,
    verify_script,
)
from .polygon import (
    BoundaryPoint,
    InvariantError,
    Polygon,
    canonicalize_ccw,
    co_contains,
    ray_polygon_exit,
)

DEGENERATE_LT_5N = "DegenerateLt5n"
THRESHOLD_2N_MINUS_1 = "Threshold2nMinus1"
VESTIBULE_2N = "Vestibule2n"

_BOUND = {
    DEGENERATE_LT_5N: lambda n, k: k < 5 * n,
    THRESHOLD_2N_MINUS_1: lambda n, k: k <= 2 * n - 1,
    VESTIBULE_2N: lambda n, k: k <= 2 * n,
}


class PlannerError(Exception):
    """A constructive bound or invariant failed; indicates a planner bug."""


@dataclass(frozen=True)
class PlanOutcome:
    script: MoveScript
    bound_class: str
    intermediates: tuple[Polygon, ...]


def finish_plan(script: MoveScript, target: Polygon, bound_class: str) -> PlanOutcome:
    """The outcome of a script once it reaches target within its bound;
    PlannerError otherwise."""
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


def _push_landing(P: Polygon, pusher: Point, mover: Point) -> BoundaryPoint:
    """Boundary landing of a push-out; a coincident pair pushes toward the
    first vertex of P that breaks the tie."""
    if pusher != mover:
        return ray_polygon_exit(P, pusher, mover - pusher)
    for v in P.vertices:
        if v != mover:
            return ray_polygon_exit(P, mover, v - mover)
    raise InvariantError("outer polygon collapsed to a point")


class _Addresses:
    """Boundary addresses (edge, t) of an inscribed polygon's slots on its
    convex CCW host, 0 <= t < 1, t = 0 at vertex `edge`; `at[v]` lists the
    slots at vertex v and `inside[e]` those strictly inside edge e, each in
    slot order."""

    def __init__(self, host: Polygon, where: list[BoundaryPoint]):
        self.host = host
        self.addr = [(b.edge, b.t) for b in where]
        self.at: list[list[int]] = [[] for _ in range(host.n)]
        self.inside: list[list[int]] = [[] for _ in range(host.n)]
        for k, (e, t) in enumerate(self.addr):
            (self.inside if t else self.at)[e].append(k)

    def strays(self) -> list[int]:
        """The slots not at a vertex of the host, in slot order."""
        return [k for k, (_, t) in enumerate(self.addr) if t]

    def push(self, rec: _PushRecorder, k: int, pusher: int, v: int) -> None:
        """Push slot k onto vertex v of the host, and move its address."""
        rec.push(k, pusher, self.host.vertices[v])
        e, t = self.addr[k]
        if (e, t) != (v, 0):
            (self.inside if t else self.at)[e].remove(k)
            insort(self.at[v], k)
            self.addr[k] = (v, Rat(0))


def _inscribe_onto(
    rec: _PushRecorder, Q: Polygon, where: list[BoundaryPoint] | None = None
) -> _Addresses:
    """Push every vertex onto the boundary of Q: vertex 0 pushes the others,
    then is pushed out itself by vertex 1.  Each slot's address is the ray
    exit that pushed it, or where `locate_boundary` found it, unless the
    caller knows every slot's address on Q already (`where`)."""
    n = rec.current.n
    where = where or [Q.locate_boundary(v) for v in rec.current.vertices]
    for k in (*range(1, n), 0):
        if where[k] is None:
            cur = rec.current.vertices
            where[k] = _push_landing(Q, cur[1 if k == 0 else 0], cur[k])
            rec.push(k, 1 if k == 0 else 0, where[k].realize())
    return _Addresses(Q, where)


def _push_stray(rec: _PushRecorder, ix: _Addresses, strays: list[int]) -> bool:
    """Push the first stray that shares its closed edge of the host with
    another vertex, its first such mate, to the end of that edge away from
    the mate (the far end on a tie).  False, and no push, when every stray
    is alone on its edge."""
    m = ix.host.n
    for k in strays:
        e, t = ix.addr[k]
        on_edge = ix.at[e], ix.at[(e + 1) % m], ix.inside[e]
        mates = [j for occ in on_edge for j in occ[:2] if j != k]
        if mates:
            mate = min(mates)
            me, mt = ix.addr[mate]
            t_mate = mt if me == e else 1  # a mate at vertex e + 1 is at t = 1 on edge e
            ix.push(rec, k, mate, (e + 1) % m if t_mate <= t else e)
            return True
    return False


def _sweep_to_vertices(
    rec: _PushRecorder, Q: Polygon, where: list[BoundaryPoint] | None = None
) -> _Addresses:
    """Inscribe the polygon in Q, then move every vertex to a vertex of Q;
    the slots' addresses on Q come back.

    Strays (vertices not at a vertex of Q) sharing a closed edge with
    another vertex are pushed to its far endpoint, the first stray in slot
    order first; once every stray is stranded, a double point at some
    vertex of Q unstrands them two moves at a time.  Every push after the
    inscription lands on a vertex of Q, so the polygon stays inscribed and
    each push moves one slot's address into the vertex lists.
    """
    ix = _inscribe_onto(rec, Q, where)
    budget = 3 * rec.current.n  # hard stop against planner bugs
    while budget > 0:
        budget -= 1
        strays = ix.strays()
        if not strays:
            if rec.current.vertices != tuple(Q.vertices[e] for e, _ in ix.addr):
                raise InvariantError("the sweep's vertices are not at their addresses")
            return ix
        if _push_stray(rec, ix, strays):
            continue
        # Every stray is stranded: use a double point at a vertex of Q.
        doubled = next((occ[:2] for occ in ix.at if len(occ) >= 2), None)
        if doubled is None:
            raise PlannerError("stranded strays but no vertex double point")
        u, e = strays[0], ix.addr[strays[0]][0]
        ix.push(rec, doubled[0], doubled[1], e)
        ix.push(rec, u, doubled[0], (e + 1) % Q.n)
    raise PlannerError("vertex sweep exceeded its move budget")


def _permutation_to(rec: _PushRecorder, ix: _Addresses, goal: list[int]) -> None:
    """Move a polygon whose vertices all sit at vertices of the host of ix
    onto the host vertices goal[k] exactly, using double-point pushes and
    cycle chasing on vertex indices."""
    n = len(goal)
    pos = lambda k: ix.addr[k][0]
    # Phase 1: any incorrectly placed vertex sharing its point moves home.
    for _ in range(n + 1):
        move = next(((k, j) for k in range(n) if pos(k) != goal[k]
                     for j in ix.at[pos(k)][:2] if j != k), None)
        if move is None:
            break
        k, j = move
        ix.push(rec, k, j, goal[k])

    incorrect = [k for k in range(n) if pos(k) != goal[k]]
    if not incorrect:
        return
    # Each incorrect vertex now sits alone; the assignment graph on them is
    # a disjoint union of cycles (every point here is also a target point).
    at_point: dict[int, list[int]] = {}
    for j in incorrect:
        at_point.setdefault(pos(j), []).append(j)
    succ: dict[int, int] = {}
    for k in incorrect:
        nxts = at_point.get(goal[k], [])
        if len(nxts) != 1:
            raise PlannerError("incorrect vertices do not decompose into cycles")
        succ[k] = nxts[0]
    cycles: list[list[int]] = []
    seen: set[int] = set()
    for k in incorrect:
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

    # Borrow a correctly placed vertex from a multiply occupied point, the
    # point whose last target slot comes first.
    order = {v: i for i, v in enumerate(goal)}
    doubled = [v for v in range(ix.host.n) if len(ix.at[v]) >= 2]
    if not doubled:
        raise PlannerError("no double point available to borrow from")
    borrow = ix.at[min(doubled, key=lambda v: order.get(v, n))][0]
    home = pos(borrow)
    mate = lambda: next(m for m in ix.at[pos(borrow)] if m != borrow)
    for cyc in cycles:
        ix.push(rec, borrow, mate(), pos(cyc[0]))
        pusher = borrow
        for k in cyc:
            ix.push(rec, k, pusher, goal[k])
            pusher = k
    ix.push(rec, borrow, mate(), home)
    if rec.current.vertices != tuple(ix.host.vertices[v] for v in goal):
        raise PlannerError("permutation stage missed the target")


def _plan_degenerate_nonconvex(P: Polygon, Pp: Polygon) -> MoveScript:
    """Outer polygon not set-convex with a genuine 2-dimensional hull."""
    hull = P.hull
    Q = Polygon(hull)
    n = P.n
    rec = _PushRecorder(Pp)
    ix = _sweep_to_vertices(rec, Q)
    ext = {v: i for i, v in enumerate(hull)}
    i0 = min(j for j in range(n) if P.vertices[j] in ext)
    _permutation_to(rec, ix, [ext.get(v, ext[P.vertices[i0]]) for v in P.vertices])
    for j in range(n):
        if P.vertices[j] not in ext:
            rec.push(j, i0, P.vertices[j])
    if rec.current != P:
        raise PlannerError("non-set-convex plan did not land on the start polygon")
    return rec.to_script()


def maximal_degenerate_extend(Q: Polygon, P: Polygon) -> Polygon:
    """Grow an m-gon (m < n) into a maximal degenerate (n-1)-gon between it
    and P by push-outs: pad with copies of vertex 0, inscribe, push
    edge-sharers onto vertices of P, and split each vertex double point
    onto a free vertex of P.

    The output vertices are returned in counterclockwise boundary order, so
    the result is convex CCW as listed.
    """
    if not P.is_convex_ccw:
        raise ValueError("outer polygon must be convex CCW")
    if not co_contains(P, Q):
        raise ValueError("witness must be contained in the outer polygon")
    if Q.n >= P.n:
        raise ValueError("witness must have fewer vertices than the outer polygon")
    rec = _PushRecorder(Polygon(Q.vertices + Q.vertices[:1] * (P.n - 1 - Q.n)))
    ix = _inscribe_onto(rec, P)
    while True:
        if _push_stray(rec, ix, ix.strays()):
            continue
        doubled = next((occ for occ in ix.at if len(occ) >= 2), None)
        if doubled is None:
            break
        free = next(v for v, occ in enumerate(ix.at) if not occ)
        ix.push(rec, doubled[0], doubled[1], free)
    out = rec.current
    if not _is_maximal_degenerate(out, P):
        raise InvariantError(f"{out!r} is not maximal degenerate in {P!r}")
    result = Polygon(tuple(out.vertices[k] for k in sorted(range(out.n), key=ix.addr.__getitem__)))
    if not (result.is_convex_ccw and co_contains(P, result) and co_contains(result, Q)):
        raise InvariantError(f"{result!r} is not convex CCW between {Q!r} and {P!r}")
    return result


def _is_maximal_degenerate(Q: Polygon, P: Polygon) -> bool:
    """Inscribed, and each vertex is a single occupant of a vertex of P or
    stranded (alone on its closed edges).  Recomputed from the vertex
    triples, independently of the address index that built Q."""
    if Q.n != P.n - 1:
        return False
    ps, fs, m = P.triples, Q.triples, P.n
    on = [[_on_segment(ps[i], ps[(i + 1) % m], f) for f in fs] for i in range(m)]
    pverts, count = set(ps), Counter(fs)
    for k, f in enumerate(fs):
        edges = [row for row in on if row[k]]
        if not edges:
            return False
        lone = count[f] == 1 if f in pverts else all(sum(row) == 1 for row in edges)
        if not lone:
            return False
    return True


def _plan_degenerate_convex(P: Polygon, Pp: Polygon, witness: Polygon) -> MoveScript:
    """Set-convex outer polygon, n >= 4: the maximal-degenerate route."""
    canon = canonicalize_ccw(P)
    if canon is None:
        raise InvariantError("outer polygon is not set-convex")
    Pc, sigma = canon
    Ppc = Polygon(tuple(Pp.vertices[s] for s in sigma))
    n = Pc.n

    Qmd = maximal_degenerate_extend(witness, Pc)
    rec = _PushRecorder(Ppc)
    ix = _sweep_to_vertices(rec, Qmd)

    # Occupy every vertex of P from the doubled (n-1)-gon, in simulation.
    q = Qmd.vertices
    Qt = Polygon((q[0],) + q)
    sim = _PushRecorder(Qt)
    qset = set(q)
    p_free = next(v for v in Pc.vertices if v not in qset)
    sim.push(0, 1, p_free)
    phi = [e for e, _ in _sweep_to_vertices(sim, Pc).addr]
    if sorted(phi) != list(range(n)):
        raise PlannerError("occupancy simulation is not a bijection")
    inv = [0] * n
    for k, j in enumerate(phi):
        inv[j] = k
    _permutation_to(rec, ix, [max(inv[j] - 1, 0) for j in range(n)])  # Qt's vertex inv[j] on Qmd
    for m in sim.pushes:
        rec.push(phi[m.mover], phi[m.pusher], m.landing)
    if rec.current != Pc:
        raise PlannerError("set-convex plan did not land on the start polygon")
    return relabel(rec.to_script(), P, sigma)


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

    def t(q: Point) -> Rat:
        s = segment_param(base, top, q)
        if s is None:
            raise PlannerError("segment plan met a point off its hull's line")
        return s

    def pin(k: int) -> None:
        """Move slot k straight to its target across the bracketed hull."""
        side = 1 if t(goal[k]) >= t(cur[k]) else -1
        anchor = max(
            (j for j in range(n) if j != k),
            key=lambda j: side * t(cur[j]),
        )
        pull(k, anchor, goal[k])

    k_lo = min(range(n), key=lambda k: (t(goal[k]), k))
    k_hi = max(range(n), key=lambda k: (t(goal[k]), -k))  # k_lo when the targets coincide
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
    """n = 3 with collinear targets inside a genuine triangle, by
    construction in at most 3 + 4 = 7 moves.

    L is the line through the lowest and highest targets, or through the
    single target and the first vertex of P apart from it.  Each vertex off
    L is pulled toward a vertex strictly on the other side until it meets L,
    the vertex alone on its side last; one with nothing beyond L pulls fully
    onto a vertex already on L.  The three vertices then span the chord of L
    in P, which holds every target, and the segment planner finishes.
    """
    a, b = min(Pp.vertices), max(Pp.vertices)
    if a == b:
        b = next(v for v in P.vertices if v != a)
    cur = list(P.vertices)
    f, g = _triple(a), _triple(b)
    side = [_side(f, g, _triple(v)) for v in cur]  # 0 on L
    alone = lambda k: sum(s * side[k] > 0 for s in side) == 1
    moves: list[PullIn] = []
    for k in sorted((k for k in range(3) if side[k]), key=alone):
        beyond = [j for j in range(3) if side[j] * side[k] < 0]
        j = beyond[0] if beyond else side.index(0)
        c = _crossing(f, g, _triple(cur[k]), _triple(cur[j]))  # 1 when j is on L
        moves.append(PullIn(k, j, c))
        cur[k] = cur[k] + (cur[j] - cur[k]).scale(c)
        side[k] = 0
    return MoveScript(P, tuple(moves) + _plan_segment(Polygon(tuple(cur)), Pp).moves)


def plan_degenerate(P: Polygon, Pp: Polygon, witness: Polygon | None) -> PlanOutcome:
    """Script of fewer than 5n pull-ins reaching a degenerately contained
    polygon, following the constructive cases of the bound; a triangle
    takes at most 7."""
    if witness is not None and not certify_witness(P, Pp, witness):
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
    return finish_plan(script, Pp, DEGENERATE_LT_5N)


def plan_threshold(P: Polygon, Pp: Polygon, i: int, cert) -> PlanOutcome:
    """At most 2n-1 pull-ins onto a threshold member, from its certificate.

    P must be convex CCW and slot-aligned with Pp; cert is the accepted
    BlcResult.  One push-out chain serves both directions, with d = +1 for
    a counterclockwise certificate and -1 for a clockwise one: vertices
    i+d, i+2d, ... go out onto the broken-line points, vertex i goes out to
    its own corner pushed by vertex i-d, and the vertex sweep finishes.
    """
    if Pp == P:
        return finish_plan(MoveScript(P, tuple()), Pp, THRESHOLD_2N_MINUS_1)
    n, d = P.n, (1 if cert.direction == "ccw" else -1)
    rec = _PushRecorder(Pp)
    where = [BoundaryPoint(P, i, 0)] * n  # every slot's address after the chain
    for k in range(1, n):
        where[(i + k * d) % n] = cert.points[k]
        rec.push((i + k * d) % n, (i + (k - 1) * d) % n, cert.points[k].realize())
    rec.push(i, (i - d) % n, P.vertices[i])
    _sweep_to_vertices(rec, P, where)
    if rec.current != P:
        raise PlannerError("threshold plan did not land on the start polygon")
    return finish_plan(rec.to_script(), Pp, THRESHOLD_2N_MINUS_1)


def plan_vestibule(
    P: Polygon, Pp: Polygon, pushout: PushOut | None, threshold_plan: PlanOutcome
) -> PlanOutcome:
    """Threshold plan plus the single inverse pull-in of the neighbor
    push-out; at most 2n moves total."""
    if pushout is None:
        return threshold_plan
    tail = invert_pushout(Pp, pushout)
    script = MoveScript(P, threshold_plan.script.moves + (tail,))
    return finish_plan(script, Pp, VESTIBULE_2N)
