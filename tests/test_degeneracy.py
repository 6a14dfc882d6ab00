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
    maximal_degenerate_extend,
)
from polyattain.degeneracy import test_points as degeneracy_test_points
from polyattain.geometry import Point, pt
from polyattain.polygon import Polygon, co_contains, polygon
from polyattain.poncelet import blc
from polyattain.gen import (
    generate,
    random_boundary_point,
    random_convex_polygon,
    random_inner,
)

from conftest import rng_for


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


def test_maximal_degenerate_examples(square):
    tri = polygon([(0, 0), (1, 0), (0, 1)])
    assert maximal_degenerate_extend(tri, square) == tri
    small = polygon([("1/4", "1/4"), ("1/2", "1/4"), ("1/4", "1/2")])
    out = maximal_degenerate_extend(small, square)
    assert out.n == 3 and co_contains(square, out) and co_contains(out, small)
    doubled = Polygon((pt("1/4", "1/4"), pt("1/4", "1/4"), pt("1/2", "1/2")))
    out = maximal_degenerate_extend(doubled, square)
    assert out.n == 3 and co_contains(out, doubled)


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
    the same hull."""
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
        v2 = is_degenerate(P, Q)
        if v2.degenerate and v2.witness is not None:
            from polyattain.geometry import convex_hull

            assert convex_hull(list(Q.vertices)) == convex_hull(list(v2.witness.vertices)) or \
                co_contains(Q, v2.witness) and co_contains(v2.witness, Q)
        checked += 1


def test_witness_check_survives_optimize_flag():
    """With certify_witness patched to fail, every degenerate branch raises
    WitnessError even under `python -O`, where assert statements vanish."""
    child = textwrap.dedent("""
        from polyattain import degeneracy
        from polyattain.polygon import polygon

        assert not __debug__
        degeneracy.certify_witness = lambda P, Pp, w: False
        square = polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        cases = [
            (square, polygon([("1/4", "1/4"), ("1/2", "1/4"), ("1/2", "1/2"), ("1/4", "1/2")])),
            (square, polygon([("1/4", "1/4"), ("1/2", "1/2"), ("3/4", "3/4"), ("1/4", "1/4")])),
            (polygon([(0, 0), (1, 0), (2, 0), (0, 1)]),
             polygon([("1/4", "1/4"), ("1/2", "1/4"), ("1/2", "1/2"), ("1/4", "1/2")])),
        ]
        for P, Pp in cases:
            try:
                degeneracy.is_degenerate(P, Pp)
            except degeneracy.WitnessError:
                print("raised")
            else:
                print("accepted")
    """)
    src = os.path.dirname(os.path.dirname(polyattain.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", child], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised"] * 3
