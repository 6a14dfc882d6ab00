from fractions import Fraction

import pytest

from polyattain.geometry import pt
from polyattain.polygon import (
    BoundaryPoint,
    Polygon,
    arc_cmp,
    boundary_key,
    canonicalize_ccw,
    co_contains,
    in_arc,
    polygon,
    ray_polygon_exit,
)

from conftest import rng_for


def test_co_contains_examples(square, inner_square):
    assert co_contains(square, inner_square)
    outside = polygon([(0, 0), (2, 0), (1, 1)])
    assert not co_contains(square, outside)
    assert co_contains(square, square)


def test_co_contains_is_a_preorder():
    rng = rng_for("preorder")
    from polyattain.gen import random_convex_polygon, random_inner

    for _ in range(500):
        P = random_convex_polygon(rng, rng.randint(3, 6))
        Q = random_inner(rng, P)
        R = random_inner(rng, Q) if not Q.is_collinear else Q
        assert co_contains(P, P)
        assert co_contains(P, Q) and co_contains(Q, R)
        assert co_contains(P, R)


def test_canonicalize_output_is_always_ccw():
    rng = rng_for("canonicalize-prop")
    from polyattain.gen import random_convex_polygon

    for _ in range(200):
        n = rng.randint(3, 7)
        P0 = random_convex_polygon(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        P = Polygon(tuple(P0.vertices[k] for k in perm))
        out = canonicalize_ccw(P)
        assert out is not None
        Q, sigma = out
        assert Q.is_convex_ccw
        assert sorted(sigma) == list(range(n))
        assert all(Q.vertices[k] == P.vertices[sigma[k]] for k in range(n))


def test_is_set_convex(square):
    assert square.is_set_convex
    assert not polygon([(0, 0), (1, 0), (2, 0), (0, 1)]).is_set_convex
    assert not polygon([(0, 0), (1, 0), (1, 0), (0, 1)]).is_set_convex


def test_is_convex_ccw(square):
    assert square.is_convex_ccw
    assert not Polygon(tuple(reversed(square.vertices))).is_convex_ccw
    assert not polygon([(0, 0), (1, 1), (1, 0), (0, 1)]).is_convex_ccw  # bowtie


def test_is_convex_ccw_rejects_star_order():
    # all consecutive turns are left turns, but the path is not simple
    pent = polygon([(0, 10), (-9, 3), (-6, -8), (6, -8), (9, 3)])
    assert pent.is_convex_ccw
    star = Polygon(tuple(pent.vertices[k] for k in (0, 2, 4, 1, 3)))
    assert star.is_set_convex
    assert not star.is_convex_ccw


def test_canonicalize_ccw(square):
    shuffled = Polygon(tuple(square.vertices[k] for k in (0, 2, 1, 3)))
    out = canonicalize_ccw(shuffled)
    assert out is not None
    Q, sigma = out
    assert Q.is_convex_ccw
    assert all(Q.vertices[k] == shuffled.vertices[sigma[k]] for k in range(4))
    same = canonicalize_ccw(square)
    assert same is not None and same[0] == square and same[1] == (0, 1, 2, 3)
    assert canonicalize_ccw(polygon([(0, 0), (1, 0), (2, 0), (0, 1)])) is None


def test_area(square, inner_square):
    assert square.area() == 1
    assert inner_square.area() == Fraction(1, 4)
    assert polygon([(0, 0), (1, 0), (0, 1)]).area() == Fraction(1, 2)


def test_collinear():
    assert polygon([(0, 0), (1, 1), (2, 2), (3, 3)]).is_collinear
    assert not polygon([("1/4", "1/4"), ("3/4", "1/4"), ("3/4", "3/4"), ("1/4", "3/4")]).is_collinear
    assert polygon([(1, 1), (1, 1), (1, 1)]).is_collinear


def test_boundary_point_canonical(square):
    v = BoundaryPoint(square, 0, Fraction(1))
    assert v.edge == 1 and v.t == 0
    assert v == BoundaryPoint(square, 1, Fraction(0))
    assert v.realize() == pt(1, 0)
    with pytest.raises(ValueError):
        BoundaryPoint(square, 0, Fraction(3, 2))
    bowtie = polygon([(0, 0), (1, 1), (1, 0), (0, 1)])
    with pytest.raises(ValueError):
        BoundaryPoint(bowtie, 0, Fraction(1, 2))


def test_boundary_round_trip(square):
    rng = rng_for("roundtrip")
    for _ in range(200):
        bp = BoundaryPoint(square, rng.randrange(4), Fraction(rng.randint(0, 7), 8))
        again = square.locate_boundary(bp.realize())
        assert again == bp


def test_arc_cmp_examples(square):
    anchor = square.locate_boundary(pt("1/2", 0))
    a = square.locate_boundary(pt(1, "1/2"))
    b = square.locate_boundary(pt(0, "1/2"))
    last = square.locate_boundary(pt("1/4", 0))
    assert arc_cmp(anchor, a, b) == -1
    assert arc_cmp(anchor, b, last) == -1
    assert arc_cmp(anchor, last, a) == 1
    # membership: (7/12, 0) is not on the open left-edge arc
    lo = square.locate_boundary(pt(0, "7/12"))
    hi = square.locate_boundary(pt(0, "1/4"))
    z = square.locate_boundary(pt("7/12", 0))
    assert not in_arc(lo, hi, z, False, False)
    assert in_arc(lo, hi, square.locate_boundary(pt(0, "1/3")), False, False)


def test_arc_cmp_total_order(square):
    rng = rng_for("arc-order")
    anchor = BoundaryPoint(square, 0, Fraction(1, 3))
    pts = {
        BoundaryPoint(square, rng.randrange(4), Fraction(rng.randint(0, 15), 16))
        for _ in range(40)
    }
    pts.discard(anchor)
    keys = {b: boundary_key(anchor, b) for b in pts}
    ordered = sorted(pts, key=lambda b: keys[b])
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            assert arc_cmp(anchor, ordered[i], ordered[j]) == -1
            assert arc_cmp(anchor, ordered[j], ordered[i]) == 1


def test_ray_polygon_exit(square):
    hit = ray_polygon_exit(square, pt("1/2", "1/2"), pt(1, 0))
    assert hit.realize() == pt(1, "1/2") and hit.edge == 1
    hit = ray_polygon_exit(square, pt(0, 0), pt(3, 1))
    assert hit.realize() == pt(1, "1/3")
    hit = ray_polygon_exit(square, pt("1/4", 0), pt(1, 0))
    assert hit.realize() == pt(1, 0) and hit.edge == 1 and hit.t == 0
