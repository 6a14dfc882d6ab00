import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from polyattain import planners
from polyattain.attainability import ATTAINABLE_DEGENERATE, decide, threshold_test, vestibule_test
from polyattain.degeneracy import is_degenerate
from polyattain.gen import generate, random_convex_polygon
from polyattain.geometry import Point, pt
from polyattain.moves import PullIn, PushOut, script_to_matrix, verify_script
from polyattain.planners import (
    DEGENERATE_LT_5N,
    THRESHOLD_2N_MINUS_1,
    VESTIBULE_2N,
    PlannerError,
    _plan_segment,
    plan_degenerate,
    plan_threshold,
    plan_vestibule,
)
from polyattain.polygon import BoundaryPoint, Polygon, co_contains, polygon

from conftest import dense_product, rng_for


def test_plan_all_equal_vertices(square):
    Pp = polygon([("1/2", "1/2")] * 4)
    v = is_degenerate(square, Pp)
    out = plan_degenerate(square, Pp, v.witness)
    assert len(out.script.moves) < 20
    assert verify_script(out.script, Pp).ok


def test_plan_corner_quad(square, corner_quad):
    v = is_degenerate(square, corner_quad)
    out = plan_degenerate(square, corner_quad, v.witness)
    assert out.bound_class == DEGENERATE_LT_5N
    assert len(out.script.moves) < 20
    assert verify_script(out.script, corner_quad).ok


def test_plan_explicit_witness(square, corner_quad):
    witness = polygon([(0, 0), (1, 0), (0, 1)])
    out = plan_degenerate(square, corner_quad, witness)
    assert verify_script(out.script, corner_quad).ok


def test_plan_non_set_convex_branch():
    P = polygon([(0, 0), (1, 0), (2, 0), (0, 1)])
    Pp = polygon([("1/4", "1/4"), ("1/2", "1/4"), ("1/2", "1/2"), ("1/4", "1/2")])
    v = is_degenerate(P, Pp)
    out = plan_degenerate(P, Pp, v.witness)
    assert len(out.script.moves) < 20
    assert verify_script(out.script, Pp).ok


def test_plan_degenerate_with_shuffled_outer(square, corner_quad):
    perm = (1, 3, 0, 2)
    P = Polygon(tuple(square.vertices[k] for k in perm))
    Pp = Polygon(tuple(corner_quad.vertices[k] for k in perm))
    v = is_degenerate(P, Pp)
    out = plan_degenerate(P, Pp, v.witness)
    rep = verify_script(out.script, Pp)
    assert rep.ok and out.script.start == P


def test_plan_rejects_bad_witness(square, corner_quad):
    with pytest.raises(ValueError):
        plan_degenerate(square, corner_quad, polygon([(0, 0), (3, 0), (0, 3)]))


def test_threshold_plan_for_pushed_square(square, pushed_square):
    cert = threshold_test(square, pushed_square, 0)
    assert cert is not None
    out = plan_threshold(square, pushed_square, 0, cert)
    assert out.bound_class == THRESHOLD_2N_MINUS_1
    assert len(out.script.moves) <= 7
    assert verify_script(out.script, pushed_square).ok


def test_threshold_plan_identity(square):
    cert = threshold_test(square, square, 0)
    assert cert is not None
    out = plan_threshold(square, square, 0, cert)
    assert len(out.script.moves) == 0


def test_threshold_needs_boundary_vertex(square, inner_square):
    with pytest.raises(ValueError):
        threshold_test(square, inner_square, 0)


def test_vestibule_plan_composition(square, inner_square, pushed_square):
    found, _ = vestibule_test(square, inner_square)
    assert found is not None and found.pushout == PushOut(0, 3, pt("1/4", 0))
    tplan = plan_threshold(square, pushed_square, 0, found.cert)
    out = plan_vestibule(square, inner_square, found.pushout, tplan)
    assert out.bound_class == VESTIBULE_2N
    assert len(out.script.moves) <= 8
    assert verify_script(out.script, inner_square).ok
    assert out.script.moves[-1].c == Fraction(1, 3)


def test_planned_instances_verify_with_bounds():
    rng = rng_for("plan-bounds")
    stats = {}
    for trial in range(150):
        n = rng.randint(4, 7)
        mode = ("degenerate", "scripted", "random")[trial % 3]
        P, Pp, _ = generate(rng, n, mode)
        v = decide(P, Pp, plan_moves=True)
        if v.plan is None:
            continue
        stats[v.plan.bound_class] = stats.get(v.plan.bound_class, 0) + 1
        k = len(v.plan.script.moves)
        if v.plan.bound_class == DEGENERATE_LT_5N:
            assert k < 5 * n
        elif v.plan.bound_class == THRESHOLD_2N_MINUS_1:
            assert k <= 2 * n - 1
        else:
            assert k <= 2 * n
        assert verify_script(v.plan.script, Pp).ok
    assert stats.get(DEGENERATE_LT_5N, 0) > 20


def test_monotone_trace():
    """Consecutive hulls along every plan replay are nested."""
    rng = rng_for("trace")
    for trial in range(40):
        n = rng.randint(4, 6)
        P, Pp, _ = generate(rng, n, ("degenerate", "scripted")[trial % 2])
        v = decide(P, Pp, plan_moves=True)
        if v.plan is None:
            continue
        states = v.plan.intermediates
        for a, b in zip(states, states[1:]):
            assert co_contains(a, b)


def test_orientation_persists_in_nondegenerate_traces():
    """Set-convex intermediate polygons of threshold and vestibule plans
    stay convex counterclockwise."""
    rng = rng_for("orient-trace")
    seen = 0
    for _ in range(200):
        n = rng.randint(4, 6)
        P, Pp, _ = generate(rng, n, "scripted")
        v = decide(P, Pp, plan_moves=True)
        if v.plan is None or v.plan.bound_class == DEGENERATE_LT_5N:
            continue
        seen += 1
        for state in v.plan.intermediates:
            if state.is_set_convex:
                assert state.is_convex_ccw
    assert seen > 5


LINE = [(0, 0), (1, 0), (2, 0), (3, 0)]


@pytest.mark.parametrize("P, Pp, first", [
    (LINE, [("1/2", 0), ("5/2", 0), (1, 0), (2, 0)], None),
    # slot 0 holds the minimum and must reach the highest target, slot 3 the
    # reverse: slot 1 first parks on the maximum with a full pull
    (LINE, [(2, 0), ("3/2", 0), ("3/2", 0), (1, 0)], PullIn(1, 3, Fraction(1))),
    ([(0, 0), (2, 2), (1, 1), (2, 2)], [(1, 1)] * 4, None),
    ([(1, 1)] * 4, [(1, 1)] * 4, None),
], ids=["segment", "segment-swap", "segment-one-target", "point"])
def test_plan_outer_hull_segment_or_point(P, Pp, first):
    """A collinear outer polygon is planned in one dimension; its witness
    is its hull segment with the top end repeated."""
    P, Pp = polygon(P), polygon(Pp)
    v = decide(P, Pp, plan_moves=True)
    assert v.status == ATTAINABLE_DEGENERATE
    a, b = P.hull[0], P.hull[-1]
    assert v.certificate.witness == Polygon((a, b, b))
    assert v.plan.bound_class == DEGENERATE_LT_5N
    assert verify_script(v.plan.script, Pp).ok
    if first is not None:
        assert v.plan.script.moves[0] == first


def test_segment_plan_rejects_a_target_off_its_line():
    with pytest.raises(PlannerError, match="off its hull's line"):
        _plan_segment(polygon(LINE), polygon([(1, 1), (1, 0), (2, 0), (3, 0)]))


TRIANGLE = [(0, 0), (4, 0), (0, 4)]
COLLINEAR_TARGETS = {
    "interior-chord": [(1, 1), (3, 1), (0, 1)],  # the whole chord of y = 1
    "edge": [(1, 0), (4, 0), (2, 0)],
    "through-vertex": [("1/2", "1/2"), (2, 2), (1, 1)],
    "interior-point": [(1, 1)] * 3,
    "vertex": [(4, 0)] * 3,
}


@pytest.mark.parametrize("orientation", ["ccw", "cw"])
@pytest.mark.parametrize("case", sorted(COLLINEAR_TARGETS))
def test_triangle_plans_collinear_targets_by_construction(case, orientation):
    """A triangle reaches collinear targets by pulling its vertices onto
    their line and finishing on the chord: at most 3 + 4 = 7 moves."""
    order = [0, 1, 2] if orientation == "ccw" else [2, 1, 0]
    P = polygon([TRIANGLE[k] for k in order])
    Pp = polygon([COLLINEAR_TARGETS[case][k] for k in order])
    assert P.is_convex_ccw == (orientation == "ccw")
    v = decide(P, Pp, plan_moves=True)
    assert v.status == ATTAINABLE_DEGENERATE
    assert v.plan.bound_class == DEGENERATE_LT_5N
    assert len(v.plan.script.moves) <= 7
    assert verify_script(v.plan.script, Pp).ok


def _mirror(Q: Polygon) -> Polygon:
    """Q reflected across the x-axis with its vertex order reversed, so a
    convex CCW polygon stays convex CCW."""
    return Polygon(tuple(Point(v.x, -v.y) for v in reversed(Q.vertices)))


def _threshold_instances(rng, per_n: int):
    """(P, pushed, found) for the non-degenerate instances that pass the
    vestibule search: pushed is the threshold member that found certifies.

    The inner polygon pulls each vertex of a random convex P a little
    toward its successor, shrinks it by 1 - 1/(4n^2) about the centroid and
    puts one vertex on an edge at its own corner.  Each instance at n 3..8
    also runs mirrored, and each of the two in two rotations."""
    for n in range(3, 9):
        for _ in range(per_n):
            P = random_convex_polygon(rng, n)
            c = Point(sum(v.x for v in P.vertices) / n, sum(v.y for v in P.vertices) / n)
            shrink = 1 - Fraction(1, 4 * n * n)
            pulled = [a + (b - a).scale(Fraction(rng.randint(1, 3), 8)) for a, b in map(P.edge, range(n))]
            pts = [c + (q - c).scale(shrink) for q in pulled]
            i = rng.randrange(n)
            pts[i] = BoundaryPoint(P, rng.choice((i, i - 1)), Fraction(rng.randint(0, 3), 4)).realize()
            Pp = Polygon(tuple(pts))
            for A, B in ((P, Pp), (_mirror(P), _mirror(Pp))):
                for r in (0, 1):
                    Q, Qp = Polygon(A.vertices[r:] + A.vertices[:r]), Polygon(B.vertices[r:] + B.vertices[:r])
                    if is_degenerate(Q, Qp).degenerate:
                        continue
                    found, _ = vestibule_test(Q, Qp)
                    if found is not None:
                        push = found.pushout
                        yield Q, (Qp if push is None else Qp.replace(found.vertex, push.landing)), found


def test_clockwise_threshold_plans():
    """Threshold plans from clockwise certificates, built by the same chain
    as counterclockwise ones with the vertex order reversed, reach their
    targets within 2n - 1 moves."""
    cw = 0
    for P, pushed, found in _threshold_instances(rng_for("cw-threshold"), 10):
        if found.cert.direction != "cw":
            continue
        cw += 1
        out = plan_threshold(P, pushed, found.vertex, found.cert)
        assert verify_script(out.script, pushed).ok
        assert len(out.script.moves) <= 2 * P.n - 1
    assert cw >= 40


def test_row_update_product_matches_dense_factors(square, inner_square, corner_quad):
    """script_to_matrix, one row update per move, gives the dense product
    of the stochastic factors of its moves on scripts from every planner."""
    plans = {
        "degenerate-convex": decide(square, corner_quad, plan_moves=True).plan,
        "non-convex": decide(polygon([(0, 0), (1, 0), (2, 0), (0, 1)]), corner_quad, plan_moves=True).plan,
        "segment": decide(polygon(LINE), polygon([(2, 0), ("3/2", 0), ("3/2", 0), (1, 0)]), plan_moves=True).plan,
        "triangle": decide(polygon(TRIANGLE), polygon(COLLINEAR_TARGETS["interior-chord"]), plan_moves=True).plan,
        "vestibule": decide(square, inner_square, plan_moves=True).plan,
    }
    assert plans["vestibule"].bound_class == VESTIBULE_2N
    scripts = [(kind, plan.script) for kind, plan in plans.items()]
    for P, pushed, found in _threshold_instances(rng_for("matrix-planners"), 1):
        scripts.append((found.cert.direction, plan_threshold(P, pushed, found.vertex, found.cert).script))
    assert {kind for kind, s in scripts if s.moves} == set(plans) | {"ccw", "cw"}
    for _, s in scripts:
        assert script_to_matrix(s) == dense_product(s)


def _golden_cases():
    """Seeded `gen` instances of all three modes at n 3..9; each degenerate
    one also runs with its outer polygon reversed (set-convex, clockwise)
    and with its dropped vertex moved onto a kept one (not set-convex)."""
    for mode in ("degenerate", "scripted", "random"):
        for n in range(3, 10):
            for seed in range(4):
                P, Pp, meta = generate(rng_for(f"golden/{mode}/{n}/{seed}"), n, mode)
                yield P, Pp
                if mode == "degenerate":
                    kept = meta["witness_vertices"]
                    drop = next(k for k in range(n) if k not in kept)
                    yield Polygon(P.vertices[::-1]), Pp
                    yield P.replace(drop, P.vertices[kept[seed % len(kept)]]), Pp


def _digest_moves(h, script) -> None:
    h.update(";".join(f"{m.mover},{m.target},{m.c}" for m in script.moves).encode() + b"\n")


def test_plans_are_pinned_move_for_move():
    """The planners' scripts on seeded instances, move for move: a digest of
    the (mover, target, c) lists of every `decide` plan and of threshold
    plans from both certificate directions.  The digest was recorded before
    the sweeps and the permutation stage moved onto boundary addresses, so
    a change of any push fails here even when the new script verifies."""
    h, seen = hashlib.sha256(), Counter()
    for P, Pp in _golden_cases():
        v = decide(P, Pp, plan_moves=True)
        h.update(v.status.encode())
        if v.plan is not None:
            seen[v.plan.bound_class, P.is_set_convex] += 1
            _digest_moves(h, v.plan.script)
    for P, pushed, found in _threshold_instances(rng_for("golden-threshold"), 1):
        seen[found.cert.direction] += 1
        _digest_moves(h, plan_threshold(P, pushed, found.vertex, found.cert).script)
    assert seen[DEGENERATE_LT_5N, True] > 50 and seen[DEGENERATE_LT_5N, False] > 10
    assert seen[THRESHOLD_2N_MINUS_1, True] and seen[VESTIBULE_2N, True]
    assert seen["ccw"] and seen["cw"]
    assert h.hexdigest() == "fbb589f4bfb05f70cecaa868acb0a2da303316e9e38fbec895c17cb8a3e8ed5b"


def test_addresses_follow_every_push(monkeypatch):
    """After each inscription and after every push of the sweeps, each
    slot's boundary address realizes to its current vertex, and the vertex
    and edge lists hold exactly the slots so addressed, in slot order."""
    pushes = []

    def check(ix, rec):
        vs, m = rec.current.vertices, ix.host.n
        assert [BoundaryPoint(ix.host, e, t).realize() for e, t in ix.addr] == list(vs)
        assert ix.at == [[k for k, a in enumerate(ix.addr) if a == (v, 0)] for v in range(m)]
        assert ix.inside == [[k for k, (e, t) in enumerate(ix.addr) if e == v and t]
                             for v in range(m)]

    inscribe, push = planners._inscribe_onto, planners._Addresses.push

    def checked_inscribe(rec, Q, where=None):
        ix = inscribe(rec, Q, where)
        check(ix, rec)
        return ix

    def checked_push(ix, rec, k, pusher, v):
        push(ix, rec, k, pusher, v)
        check(ix, rec)
        pushes.append(k)

    monkeypatch.setattr(planners, "_inscribe_onto", checked_inscribe)
    monkeypatch.setattr(planners._Addresses, "push", checked_push)
    for P, Pp in _golden_cases():
        if P.n >= 6:
            decide(P, Pp, plan_moves=True)
    for P, pushed, found in _threshold_instances(rng_for("address-threshold"), 1):
        plan_threshold(P, pushed, found.vertex, found.cert)
    assert len(pushes) > 1000


def test_plan_point_comparisons_grow_at_most_quadratically(monkeypatch):
    """Point equality tests made by plan_degenerate on three seeded
    degenerate instances grow at most 4.5 times from n = 16 to n = 32.
    Sweeps that scan every slot for strays, mates and double points after
    each push grow about 8 times."""
    calls = [0]
    eq = Point.__eq__

    def counted(a, b):
        calls[0] += 1
        return eq(a, b)

    for seed in range(3):
        counts = []
        for n in (16, 32):
            P, Pp, _ = generate(rng_for(f"point-eq/{seed}/{n}"), n, "degenerate")
            witness = is_degenerate(P, Pp).witness
            calls[0] = 0
            with monkeypatch.context() as m:
                m.setattr(Point, "__eq__", counted)
                plan_degenerate(P, Pp, witness)
            counts.append(calls[0])
        assert counts[1] <= 4.5 * counts[0], counts
