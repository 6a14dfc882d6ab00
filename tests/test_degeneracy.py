import os
import subprocess
import sys
import textwrap

import pytest

import polyattain

from polyattain.degeneracy import (
    BLC_EARLY_STOP,
    COLLINEAR_INNER,
    NOT_SET_CONVEX_OUTER,
    certify_witness,
    is_degenerate,
)
from polyattain.degeneracy import test_points as degeneracy_test_points
from polyattain.geometry import Point, pt
from polyattain.planners import maximal_degenerate_extend
from polyattain.polygon import BoundaryPoint, Polygon, co_contains, polygon
from polyattain.poncelet import blc
from polyattain.gen import (
    generate,
    random_boundary_point,
    random_convex_polygon,
    random_inner,
)

from conftest import PENTAGON_IN_SQUARE, TRIANGLE_IN_SQUARE, rng_for


def test_corner_quad_is_degenerate(square, corner_quad):
    v = is_degenerate(square, corner_quad)
    assert v.degenerate and v.reason == BLC_EARLY_STOP
    assert certify_witness(square, corner_quad, v.witness)


def test_inner_square_is_not_degenerate(square, inner_square):
    v = is_degenerate(square, inner_square)
    assert not v.degenerate
    # all eight test-point runs give 4-gons
    assert len(degeneracy_test_points(square, inner_square)) == 8


def test_non_set_convex_outer(square):
    bad = polygon([(0, 0), (1, 0), (2, 0), (0, 1)])
    inner = polygon([("1/4", "1/4"), ("1/2", "1/4"), ("1/2", "1/2"), ("1/4", "1/2")])
    v = is_degenerate(bad, inner)
    assert v.degenerate and v.reason == NOT_SET_CONVEX_OUTER
    assert certify_witness(bad, inner, v.witness)


def test_collinear_inner(square):
    flat = polygon([("1/4", "1/4"), ("1/2", "1/2"), ("5/8", "5/8"), ("3/4", "3/4")])
    v = is_degenerate(square, flat)
    assert v.degenerate and v.reason == COLLINEAR_INNER
    assert certify_witness(square, flat, v.witness)


def test_triangle_special_case():
    T = polygon([(0, 0), (4, 0), (0, 4)])
    flat = polygon([(1, 1), (2, 2), (1, 1)])
    v = is_degenerate(T, flat)
    assert v.degenerate and v.witness is None
    fat = polygon([(1, 1), (2, 1), (1, 2)])
    assert not is_degenerate(T, fat).degenerate


def test_containment_precondition(square):
    with pytest.raises(ValueError):
        is_degenerate(square, polygon([(0, 0), (3, 0), (0, 3)]))
    for Pp in (PENTAGON_IN_SQUARE, TRIANGLE_IN_SQUARE):
        with pytest.raises(ValueError, match="vertex count mismatch"):
            is_degenerate(square, Pp)


def test_maximal_degenerate_examples(square):
    """Exact outputs.  `small` inscribes into three stranded edge points;
    `doubled` inscribes a coincident pair and splits the double point that
    forms at (1, 1); `one_edge` merges its two strays onto the ends of the
    bottom edge and splits the double point left at (0, 0)."""
    tri = polygon([(0, 0), (1, 0), (0, 1)])
    assert maximal_degenerate_extend(tri, square) == tri
    small = polygon([("1/4", "1/4"), ("1/2", "1/4"), ("1/4", "1/2")])
    assert maximal_degenerate_extend(small, square) == polygon([(1, "1/4"), ("1/4", 1), (0, "1/4")])
    doubled = Polygon((pt("1/4", "1/4"), pt("1/4", "1/4"), pt("1/2", "1/2")))
    assert maximal_degenerate_extend(doubled, square) == polygon([(0, 0), (1, 0), (1, 1)])
    one_edge = polygon([("1/2", 0), ("1/4", 0), (0, 0)])
    assert maximal_degenerate_extend(one_edge, square) == polygon([(0, 0), (1, 0), (1, 1)])


def test_witnesses_self_certify():
    rng = rng_for("witness-cert")
    for trial in range(150):
        n = rng.randint(4, 7)
        P, Pp, _ = generate(rng, n, ("random", "degenerate")[trial % 2])
        v = is_degenerate(P, Pp)
        if v.degenerate:
            assert certify_witness(P, Pp, v.witness)


def test_non_degenerate_survives_extra_starts():
    rng = rng_for("nondegen-extra")
    checked = 0
    for _ in range(120):
        n = rng.randint(4, 6)
        P, Pp, _ = generate(rng, n, "scripted")
        if Pp.is_collinear:
            continue
        v = is_degenerate(P, Pp)
        if v.degenerate:
            continue
        checked += 1
        for _ in range(40):
            res = blc(P, Pp, random_boundary_point(rng, P))
            assert res.l >= n
    assert checked > 3


def test_vertex_early_stop_computes_no_gamma1(monkeypatch, square, corner_quad):
    """The vertex starts run before Gamma_1 is asked for, so an instance
    that stops early at a vertex decides without it."""
    from polyattain import degeneracy, poncelet
    from polyattain.attainability import ATTAINABLE_DEGENERATE, decide

    def no_gamma1(P, Pp):
        raise AssertionError("Gamma_1 computed")

    monkeypatch.setattr(poncelet, "gamma1_points", no_gamma1)
    monkeypatch.setattr(degeneracy, "gamma1_points", no_gamma1)
    verdict = decide(square, corner_quad)
    assert verdict.status == ATTAINABLE_DEGENERATE
    assert verdict.certificate.reason == BLC_EARLY_STOP and verdict.certificate.start.t == 0


def test_starts_are_the_test_points_in_order(monkeypatch):
    """On non-degenerate instances the broken line runs from every test
    point, vertices first and then Gamma_1, in the order of test_points."""
    from fractions import Fraction

    from polyattain import degeneracy
    from polyattain.polygon import canonicalize_ccw

    starts = []

    def recorded(P, Pp, start, direction="ccw"):
        starts.append(start)
        return blc(P, Pp, start, direction)

    monkeypatch.setattr(degeneracy, "blc", recorded)
    rng = rng_for("vertex-starts-first")
    with_gamma1 = 0
    for n in range(4, 10):
        for _ in range(3):
            P = random_convex_polygon(rng, n)
            c = Point(sum(v.x for v in P.vertices) / n, sum(v.y for v in P.vertices) / n)
            shrink = 1 - Fraction(1, rng.randint(2, n * n))
            Pp = Polygon(tuple(c + (v - c).scale(shrink) for v in P.vertices))
            starts.clear()
            if is_degenerate(P, Pp).degenerate:
                continue
            want = degeneracy_test_points(canonicalize_ccw(P)[0], Pp)
            assert starts == want
            with_gamma1 += len(want) > n
    assert with_gamma1 >= 8


def _inscribed_interpolant(rng, P, Pp):
    """Push the inner hull's vertices radially onto the boundary."""
    from polyattain.geometry import Rat
    from polyattain.polygon import ray_polygon_exit

    hull = Pp.hull
    n = len(hull)
    cx = sum((v.x for v in hull), Rat(0)) / n
    cy = sum((v.y for v in hull), Rat(0)) / n
    c = Point(cx, cy)
    pts = []
    for v in hull:
        if v == c:
            return None
        pts.append(ray_polygon_exit(P, c, v - c).realize())
    Q = Polygon(tuple(pts))
    if len(set(pts)) != len(pts) or not co_contains(Q, Pp):
        return None
    return Q


def test_interpolant_bounds_blc_length():
    """With an inscribed m-gon between the polygons, the construction never
    produces more than m+1 points, and at most m from the m-gon's corners."""
    rng = rng_for("interpolant-bound")
    checked = 0
    while checked < 60:
        P = random_convex_polygon(rng, rng.randint(4, 7))
        Pp = random_inner(rng, P)
        if Pp.is_collinear:
            continue
        Q = _inscribed_interpolant(rng, P, Pp)
        if Q is None:
            continue
        m = Q.n
        x = random_boundary_point(rng, P)
        assert blc(P, Pp, x).l <= m + 1
        for q in Q.vertices:
            res = blc(P, Pp, P.locate_boundary(q))
            assert res.l <= m
        checked += 1


def test_maximal_degenerate_hulls_agree():
    """Any degenerate polygon squeezed above a maximal degenerate one has
    the same hull.  The maximal degenerate (n-1)-gon is padded to n
    vertices by repeating its last one, which leaves its hull, and so the
    degeneracy scan, as it was."""
    rng = rng_for("maximal-hulls")
    checked = 0
    while checked < 40:
        P = random_convex_polygon(rng, rng.randint(4, 6))
        Pp = random_inner(rng, P)
        if Pp.is_collinear:
            continue
        v = is_degenerate(P, Pp)
        if not v.degenerate or v.witness is None:
            continue
        Q = maximal_degenerate_extend(v.witness, P if P.is_convex_ccw else Polygon(P.hull))
        v2 = is_degenerate(P, Polygon(Q.vertices + Q.vertices[-1:]))
        if v2.degenerate and v2.witness is not None:
            from polyattain.geometry import convex_hull

            assert convex_hull(list(Q.vertices)) == convex_hull(list(v2.witness.vertices)) or \
                co_contains(Q, v2.witness) and co_contains(v2.witness, Q)
        checked += 1


def test_witness_check_survives_optimize_flag():
    """With the predicate behind each explicit check patched to fail, every
    degenerate branch raises WitnessError; the BLC length bound, the
    maximal-degenerate invariants, both checks of a tangent step and the
    vertex sweep's boundary addresses raise InvariantError; and the
    triangle plan raises PlannerError where the segment planner reads its
    targets' parameters, even under `python -O`, where assert statements
    vanish."""
    child = textwrap.dedent("""
        from polyattain import degeneracy, planners, poncelet
        from polyattain.polygon import BoundaryPoint, InvariantError, Polygon, polygon

        assert not __debug__
        square = polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        corner = polygon([("1/4", "1/4"), ("1/2", "1/4"), ("1/2", "1/2"), ("1/4", "1/2")])
        pentagon = polygon([(0, 0), (2, 0), (3, 2), (1, 3), (-1, 2)])
        triangle = polygon([("1/4", "1/4"), ("1/2", "1/4"), ("1/2", "1/2")])

        def expect(run):
            try:
                run()
            except (degeneracy.WitnessError, InvariantError, planners.PlannerError):
                print("raised")
            else:
                print("accepted")

        certify = degeneracy.certify_witness
        degeneracy.certify_witness = lambda P, Pp, w: False
        for P, Pp in [
            (square, corner),
            (square, polygon([("1/4", "1/4"), ("1/2", "1/2"), ("3/4", "3/4"), ("1/4", "1/4")])),
            (polygon([(0, 0), (1, 0), (2, 0), (0, 1)]), corner),
        ]:
            expect(lambda: degeneracy.is_degenerate(P, Pp))
        degeneracy.certify_witness = certify

        in_arc = poncelet._in_open_arc
        poncelet._in_open_arc = lambda *args: True  # the broken line never closes
        expect(lambda: poncelet.blc(square, corner, BoundaryPoint(square, 0, 0)))
        poncelet._in_open_arc = in_arc

        maximal = planners._is_maximal_degenerate
        planners._is_maximal_degenerate = lambda Q, P: False
        expect(lambda: planners.maximal_degenerate_extend(triangle, square))
        planners._is_maximal_degenerate = maximal

        contains = planners.co_contains
        planners.co_contains = lambda A, B: B.n != A.n - 1 and contains(A, B)
        expect(lambda: planners.maximal_degenerate_extend(triangle, pentagon))
        planners.co_contains = contains

        exit_query = poncelet._exit
        poncelet._exit = lambda vs, foot, *rest: foot  # the ray exits at its foot
        expect(lambda: poncelet.right_tangent(square, corner, BoundaryPoint(square, 0, 0)))
        poncelet._exit = exit_query

        # the tangent from (1/4, 0) runs along the host edge to (1/2, 0); with
        # the step's forward sign patched it appears to run backwards
        on_edge = polygon([("1/2", 0), ("3/4", "1/4"), ("1/2", "1/2"), ("1/4", "1/4")])
        forward = poncelet._forward
        poncelet._forward = lambda f, u, v: 0
        expect(lambda: poncelet.right_tangent(square, on_edge, BoundaryPoint(square, 0, "1/4")))
        poncelet._forward = forward

        # a sweep whose inscription reads every boundary address as vertex 0
        locate = Polygon.locate_boundary
        Polygon.locate_boundary = lambda self, p: BoundaryPoint(self, 0, 0)
        expect(lambda: planners._sweep_to_vertices(planners._PushRecorder(corner), square))
        Polygon.locate_boundary = locate

        # a triangle plan whose chord parameters cannot be read
        planners.segment_param = lambda a, b, q: None
        thin = polygon([("1/4", "1/4"), ("1/2", "1/2"), ("3/4", "3/4")])
        expect(lambda: planners._plan_triangle(polygon([(0, 0), (1, 0), (0, 1)]), thin))
    """)
    src = os.path.dirname(os.path.dirname(polyattain.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", child], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised"] * 10


def test_points_are_built_only_when_read(monkeypatch, square, inner_square, corner_quad):
    """The scan reads only l, so a non-degenerate verdict builds no boundary
    point and an early stop builds the l points of its witness; last builds
    one point until the points are built; a result of blc reads, compares
    and prints as one built eagerly from its fields."""
    from fractions import Fraction

    from polyattain import degeneracy
    from polyattain.poncelet import BlcResult, _Frame

    built, runs = [0], []
    boundary_point = _Frame.boundary_point

    def counted(self, x):
        built[0] += 1
        return boundary_point(self, x)

    def recorded(P, Pp, start, direction="ccw"):
        runs.append(blc(P, Pp, start, direction))
        return runs[-1]

    monkeypatch.setattr(_Frame, "boundary_point", counted)
    monkeypatch.setattr(degeneracy, "blc", recorded)
    v = is_degenerate(square, inner_square)
    assert not v.degenerate and len(runs) == 8 and built[0] == 0
    runs.clear()
    v = is_degenerate(square, corner_quad)
    assert v.reason == BLC_EARLY_STOP and built[0] == runs[-1].l == v.witness.n

    rng = rng_for("lazy-blc-results")
    for n in range(4, 9):
        P = random_convex_polygon(rng, n)
        Pp = random_inner(rng, P)
        if Pp.is_collinear:
            continue
        for start in (BoundaryPoint(P, 0, 0), BoundaryPoint(P, n - 1, Fraction(1, 3))):
            for direction in ("ccw", "cw"):
                res = blc(P, Pp, start, direction)
                eager = BlcResult(res.points, res.pivots, res.stop_image, direction)
                built[0] = 0
                fresh = blc(P, Pp, start, direction)
                assert fresh.l == eager.l and built[0] == 0
                assert fresh.last == eager.last == eager.points[-1] and built[0] == 1
                assert repr(fresh) == repr(eager) and built[0] == eager.l + 2
                assert fresh.last == eager.last and built[0] == eager.l + 2
                assert fresh == eager and blc(P, Pp, start, direction) == eager
                assert hash(blc(P, Pp, start, direction)) == hash(eager)
