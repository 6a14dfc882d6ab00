import sys
from collections import Counter
from fractions import Fraction

import pytest

from polyattain import geometry
from polyattain.attainability import (
    ATTAINABLE_DEGENERATE,
    ATTAINABLE_VESTIBULE,
    NOT_CONVEX,
    UNATTAINABLE,
    UNKNOWN_N3,
    decide,
    threshold_test,
    vestibule_test,
)
from polyattain.gen import MODES, generate, random_convex_polygon, random_script
from polyattain.geometry import Point, pt
from polyattain.moves import replay, verify_script
from polyattain.polygon import Polygon, co_contains, polygon
from polyattain.poncelet import blc

from conftest import PENTAGON_IN_SQUARE, TRIANGLE_IN_SQUARE, rng_for


def shrink_rotate(P, num, den, rot=0):
    n = P.n
    cx = sum(v.x for v in P.vertices) / n
    cy = sum(v.y for v in P.vertices) / n
    f = Fraction(num, den)
    sh = [Point(cx + (v.x - cx) * f, cy + (v.y - cy) * f) for v in P.vertices]
    return Polygon(tuple(sh[(k + rot) % n] for k in range(n)))


class TestThresholdTest:
    def test_certificate_for_pushed_square(self, square, pushed_square):
        cert = threshold_test(square, pushed_square, 0)
        assert cert is not None and cert.direction == "cw"
        assert cert.points[-1].realize() == pt("7/12", 0)

    def test_identity_member(self, square):
        assert threshold_test(square, square, 0) is not None

    def test_rejection(self, square):
        # vertex on the boundary but the construction stops short
        Pp = polygon([("1/2", 0), ("9/10", "1/2"), ("1/2", "9/10"), ("1/10", "1/2")])
        v = decide(square, Pp)
        if v.status == UNATTAINABLE:
            assert threshold_test(square, Pp, 0) is None

    def test_twisted_vertex_rejected(self, square):
        # vertex 0 sits on a far edge: neither half-open branch applies
        Pp = polygon([("1/2", 1), ("1/2", "1/4"), ("3/4", "1/2"), ("1/2", "3/4")])
        if not is_joint_degenerate(square, Pp):
            assert threshold_test(square, Pp, 0) is None


def is_joint_degenerate(P, Pp):
    from polyattain.degeneracy import is_degenerate

    return is_degenerate(P, Pp).degenerate


class TestVestibuleTest:
    def test_inner_square(self, square, inner_square):
        found, audit = vestibule_test(square, inner_square)
        assert found is not None
        assert found.pushout.mover == 0 and found.pushout.pusher == 3
        assert found.pushout.landing == pt("1/4", 0)

    def test_shrunken_square(self, square):
        Pp = shrink_rotate(square, 1, 4)
        found, _ = vestibule_test(square, Pp) if not is_joint_degenerate(square, Pp) else (None, None)
        # tiny quarter-scale square is degenerate, so the dispatcher routes
        # it away from the vestibule machinery
        assert is_joint_degenerate(square, Pp)

    def test_boundary_vertex_delegates(self, square, pushed_square):
        found, _ = vestibule_test(square, pushed_square)
        assert found is not None and found.pushout is None and found.vertex == 0


class TestDecide:
    def test_identity(self, square):
        v = decide(square, square, plan_moves=True)
        assert v.status == ATTAINABLE_VESTIBULE
        assert len(v.plan.script.moves) == 0

    def test_inner_square(self, square, inner_square):
        v = decide(square, inner_square, plan_moves=True)
        assert v.status == ATTAINABLE_VESTIBULE
        assert len(v.plan.script.moves) <= 8
        assert verify_script(v.plan.script, inner_square).ok

    def test_corner_quad(self, square, corner_quad):
        v = decide(square, corner_quad, plan_moves=True)
        assert v.status == ATTAINABLE_DEGENERATE
        assert len(v.plan.script.moves) < 20
        assert verify_script(v.plan.script, corner_quad).ok

    def test_rotated_shrink_unattainable(self, square):
        Pp = shrink_rotate(square, 99, 100, rot=1)
        v = decide(square, Pp)
        assert v.status == UNATTAINABLE
        assert len(v.audit) == 8  # 2n neighbor push-outs, all rejected

    @pytest.mark.parametrize("order", ["clockwise", "swapped"])
    def test_target_out_of_ccw_order_is_rejected_unpushed(self, order):
        """A set-convex target listed clockwise, or with two vertices
        swapped, is non-degenerate, so it reaches the push-out search, and
        every pushed polygon is out of order too: each of the 2n records
        says so and holds no run."""
        P = polygon([(0, 10), (-9, 3), (-6, -8), (6, -8), (9, 3)])
        vs = shrink_rotate(P, 99, 100).vertices
        Pp = Polygon(vs[::-1] if order == "clockwise" else (vs[1], vs[0]) + vs[2:])
        assert Pp.is_set_convex and not Pp.is_convex_ccw
        v = decide(P, Pp)
        assert v.status == UNATTAINABLE and v.certificate is None
        assert [(r.vertex, r.pusher) for r in v.audit] == [
            (i, (i + d) % 5) for i in range(5) for d in (-1, 1)
        ]
        for r in v.audit:
            assert r.why == NOT_CONVEX and r.failed_runs == ()
            assert P.locate_boundary(r.landing) is not None

    def test_unknown_n3(self):
        T = polygon([(0, 0), (6, 0), (0, 6)])
        Tp = shrink_rotate(T, 99, 100, rot=1)
        v = decide(T, Tp)
        assert v.status == UNKNOWN_N3

    def test_containment_precondition(self, square):
        """A target outside co(P), or inside it with another vertex count,
        is a ValueError, with or without a plan."""
        with pytest.raises(ValueError):
            decide(square, polygon([(0, 0), (2, 0), (0, 2), (1, 1)]))
        for Pp in (PENTAGON_IN_SQUARE, TRIANGLE_IN_SQUARE):
            with pytest.raises(ValueError, match="vertex count mismatch"):
                decide(square, Pp)
            with pytest.raises(ValueError, match="vertex count mismatch"):
                decide(square, Pp, plan_moves=True)

    def test_canonicalization_maps_plan_back(self, square, inner_square):
        """A shuffled outer polygon still yields a verifying script on the
        original indexing."""
        perm = (2, 0, 3, 1)
        P = Polygon(tuple(square.vertices[k] for k in perm))
        Pp = Polygon(tuple(inner_square.vertices[k] for k in perm))
        v = decide(P, Pp, plan_moves=True)
        assert v.status == ATTAINABLE_VESTIBULE
        rep = verify_script(v.plan.script, Pp)
        assert rep.ok and v.plan.script.start == P


def test_closure_under_pullin_scripts():
    """Endpoints of random pull-in scripts are always attainable."""
    rng = rng_for("closure-small")
    for _ in range(120):
        n = rng.randint(4, 6)
        P = random_convex_polygon(rng, n)
        s = random_script(rng, P, rng.randint(1, 10))
        v = decide(P, replay(s))
        assert v.status in (ATTAINABLE_DEGENERATE, ATTAINABLE_VESTIBULE)


def test_certificates_revalidate():
    rng = rng_for("cert-revalidate")
    seen = 0
    for _ in range(150):
        n = rng.randint(4, 6)
        P, Pp, _ = generate(rng, n, "scripted")
        v = decide(P, Pp, plan_moves=True)
        if v.status != ATTAINABLE_VESTIBULE:
            continue
        seen += 1
        assert verify_script(v.plan.script, Pp).ok
        cert = v.certificate
        from polyattain.polygon import canonicalize_ccw

        Pc, sigma = canonicalize_ccw(P)
        Ppc = Polygon(tuple(Pp.vertices[s] for s in sigma))
        probe = Ppc if cert.pushout is None else Ppc.replace(
            cert.vertex, cert.pushout.landing
        )
        redo = blc(Pc, probe, Pc.locate_boundary(probe.vertices[cert.vertex]),
                   cert.cert.direction)
        assert redo.points == cert.cert.points
    assert seen > 5


def test_threshold_slide_preserves_attainability(square, pushed_square):
    """Moving the boundary vertex toward its corner keeps things attainable."""
    v0 = decide(square, pushed_square)
    assert v0.status == ATTAINABLE_VESTIBULE
    p_bar, corner = pt("1/4", 0), pt(0, 0)
    for j in range(1, 6):
        lam = Fraction(j, 6)
        slid = pushed_square.replace(
            0, Point(p_bar.x + (corner.x - p_bar.x) * lam, p_bar.y)
        )
        v = decide(square, slid)
        assert v.status in (ATTAINABLE_DEGENERATE, ATTAINABLE_VESTIBULE)


def test_rejections_have_no_reachable_counterexample(square):
    """Falsification search: no random script from P lands on a polygon
    whose hull covers a rejected target."""
    rng = rng_for("falsify")
    Pp = shrink_rotate(square, 99, 100, rot=1)
    assert decide(square, Pp).status == UNATTAINABLE
    for _ in range(10000):
        s = random_script(rng, square, rng.randint(1, 6))
        end = replay(s)
        assert not (co_contains(end, Pp) and end == Pp)


SYMMETRIES = {
    "relabel": lambda Q: Polygon(Q.vertices[1:] + Q.vertices[:1]),
    "affine": lambda Q: Polygon(tuple(
        Point(2 * v.x + v.y + Fraction(1, 3), v.x + 3 * v.y - 2) for v in Q.vertices
    )),
    "reflect": lambda Q: Polygon(tuple(Point(-v.x, v.y) for v in Q.vertices)),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIES))
def test_verdict_invariant_under_symmetries(name, square):
    """A cyclic relabeling of both polygons, an orientation-preserving
    rational affine map (determinant 5) and a reflection leave the verdict
    as it is, on every gen mode and on rotated shrinks that are rejected."""
    rng = rng_for("verdict-invariance")
    cases = [generate(rng, n, mode)[:2] for mode in MODES for n in range(4, 8) for _ in range(5)]
    hexagon = polygon([(0, 0), (2, 0), (3, 1), (2, 2), (0, 2), (-1, 1)])
    triangle = polygon([(0, 0), (1, 0), (0, 1)])
    cases += [(square, shrink_rotate(square, 99, 100, rot)) for rot in range(4)]
    cases += [(hexagon, shrink_rotate(hexagon, 9, 10, 1)), (triangle, shrink_rotate(triangle, 9, 10, 1))]
    sym = SYMMETRIES[name]
    seen = set()
    for P, Pp in cases:
        status = decide(P, Pp).status
        assert decide(sym(P), sym(Pp)).status == status, (P, Pp)
        seen.add(status)
    assert seen == {ATTAINABLE_DEGENERATE, ATTAINABLE_VESTIBULE, UNATTAINABLE, UNKNOWN_N3}


def counting(counter, key, fn):
    def wrapper(*args, **kwargs):
        counter[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_push_out_search_builds_no_hull_and_each_table_once(monkeypatch):
    """An Unattainable simultaneous pull at n = 8, all 2n push-outs tried:
    with P and Pp convex CCW no `convex_hull` runs, and every polygon's
    integer vertex table is built once, however many runs read it."""
    # Listed from its lexicographic minimum, so P is its own canonical form.
    P = polygon([(0, 2), (2, 0), (4, 0), (6, 2), (6, 4), (4, 6), (2, 6), (0, 4)])
    n, c = P.n, pt(3, 3)
    pulled = [a + (b - a).scale(Fraction(3, 4)) for a, b in map(P.edge, range(n))]
    Pp = Polygon(tuple(c + (q - c).scale(1 - Fraction(1, n * n)) for q in pulled))
    hulls, tables = Counter(), Counter()
    hull, build = geometry.convex_hull, geometry.homogeneous

    def counted_hull(points):
        hulls[tuple(points)] += 1
        return hull(points)

    def counted_build(points):
        tables[tuple(points)] += 1
        return build(points)

    for name, module in list(sys.modules.items()):
        for attr, fake in (("convex_hull", counted_hull), ("homogeneous", counted_build)):
            if name.startswith("polyattain") and hasattr(module, attr):
                monkeypatch.setattr(module, attr, fake)
    runs = Counter()
    monkeypatch.setattr("polyattain.degeneracy.blc", counting(runs, "scan", blc))
    monkeypatch.setattr("polyattain.attainability.blc", counting(runs, "search", blc))
    v = decide(P, Pp)
    assert v.status == UNATTAINABLE and len(v.audit) == 2 * n
    assert runs["scan"] >= n and runs["search"] == 2 * n
    assert not hulls
    pushed = {Pp.replace(r.vertex, r.landing).vertices for r in v.audit}
    assert len(pushed) == 2 * n
    assert tables == Counter({P.vertices: 1, Pp.vertices: 1} | dict.fromkeys(pushed, 1))
