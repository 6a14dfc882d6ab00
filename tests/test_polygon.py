import sys
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from polyattain import geometry
from polyattain.gen import random_convex_combination
from polyattain.geometry import Point, convex_hull, cross, pt
from polyattain.polygon import (
    BoundaryPoint,
    Polygon,
    boundary_key,
    canonicalize_ccw,
    co_contains,
    in_arc,
    polygon,
    ray_polygon_exit,
)

from conftest import rational_polygon, rng_for


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
    assert polygon([(0, 0), (1, 0), (0, 1)]).is_convex_ccw
    assert not polygon([(0, 0), (0, 1), (1, 0)]).is_convex_ccw
    assert not polygon([(0, 0), (1, 1), (2, 2)]).is_convex_ccw
    assert not polygon([(0, 0), (1, 0), (2, 0), (1, 1)]).is_convex_ccw  # collinear run
    assert not polygon([(0, 0), (1, 0), (1, 0), (0, 1)]).is_convex_ccw  # repeated vertex
    assert not polygon([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]).is_convex_ccw


def test_is_convex_ccw_rejects_star_order():
    # all consecutive turns are left turns, but the path is not simple
    pent = polygon([(0, 10), (-9, 3), (-6, -8), (6, -8), (9, 3)])
    assert pent.is_convex_ccw
    star = Polygon(tuple(pent.vertices[k] for k in (0, 2, 4, 1, 3)))
    assert star.is_set_convex
    assert not star.is_convex_ccw
    # a heptagon wound three times: every turn left, the edges wind thrice
    hept = polygon([(3, 0), (2, 2), (0, 3), (-2, 2), (-3, 0), (-2, -3), (2, -3)])
    assert hept.is_convex_ccw
    assert not Polygon(tuple(hept.vertices[3 * k % 7] for k in range(7))).is_convex_ccw


def _hull_oracle(Q: Polygon) -> tuple[bool, tuple[Point, ...]]:
    """The hull-based definitions of `is_convex_ccw` and `hull`: the
    vertices are distinct and a rotation of `convex_hull`'s output."""
    hull = tuple(convex_hull(list(Q.vertices)))
    if len(set(Q.vertices)) != Q.n or len(hull) != Q.n:
        return False, hull
    start = Q.vertices.index(hull[0])
    return all(Q.vertex(start + k) == hull[k] for k in range(Q.n)), hull


def _convexity_cases(rng):
    """Polygons on a small grid, where repeats and collinear runs are
    common: a convex hull rotated, clockwise, wound two or three times,
    with a vertex repeated, an edge midpoint inserted or two vertices
    swapped; and plain random point lists, n = 3 among them."""
    while True:
        pts = [pt(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 9))]
        yield "random", pts
        hull = convex_hull(pts)
        m = len(hull)
        if m < 3:
            continue
        k = rng.randrange(m)
        ccw = hull[k:] + hull[:k]
        yield "ccw", ccw
        yield "cw", ccw[::-1]
        for step in (2, 3):
            if m > 2 * step and gcd(step, m) == 1:
                star = [ccw[step * j % m] for j in range(m)]
                yield "wound", rng.choice((star, star[::-1]))
        j = rng.randrange(m)
        yield "repeated", ccw[:j] + [ccw[j]] + ccw[j:]
        a, b = ccw[j], ccw[(j + 1) % m]
        yield "collinear", ccw[:j + 1] + [a + (b - a).scale(Fraction(1, 2))] + ccw[j + 1:]
        i = rng.randrange(m)
        swapped = list(ccw)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield "swapped", swapped


def test_is_convex_ccw_matches_the_hull_definition():
    """The O(n) turn-and-winding test and the hull it gives a convex CCW
    polygon agree with the hull-based definition on every kind of input."""
    rng = rng_for("convexity-oracle")
    seen = Counter()
    cases = _convexity_cases(rng)
    for _ in range(6000):
        kind, vs = next(cases)
        Q = Polygon(tuple(vs))
        want, hull = _hull_oracle(Q)
        assert Q.is_convex_ccw == want, (kind, Q)
        assert Q.hull == hull, (kind, Q)
        seen[kind, want] += 1
    assert seen["ccw", True] > 500 and seen["random", True] > 0
    assert {k for k, ok in seen if ok} == {"ccw", "random", "swapped"}
    assert {k for k, ok in seen if not ok} == {"cw", "wound", "repeated", "collinear", "swapped", "random"}


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


def test_boundary_point_hash_skips_the_host(square):
    """Points of different hosts at one (edge, t) hash alike but stay
    unequal, so a set keeps both; equal points hash equal."""
    other = polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    a, b = BoundaryPoint(square, 1, Fraction(1, 2)), BoundaryPoint(other, 1, Fraction(1, 2))
    assert hash(a) == hash(b) and a != b and len({a, b}) == 2
    assert BoundaryPoint(square, 0, Fraction(1)) == BoundaryPoint(square, 1, 0)
    assert hash(BoundaryPoint(square, 0, Fraction(1))) == hash(BoundaryPoint(square, 1, 0))
    assert {BoundaryPoint(polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), 1, 0), b} == {
        BoundaryPoint(square, 1, 0), b}


def test_boundary_round_trip(square):
    rng = rng_for("roundtrip")
    for _ in range(200):
        bp = BoundaryPoint(square, rng.randrange(4), Fraction(rng.randint(0, 7), 8))
        again = square.locate_boundary(bp.realize())
        assert again == bp


def test_edges_at(square):
    """The closed edges that hold a point, in index order: both edges at a
    vertex, vertex 0 on edges 0 and n-1; one edge inside it; none inside
    the polygon, outside it, or on an edge's line past its end."""
    pentagon = polygon([(0, 0), (4, 0), (5, 3), (2, 5), (-1, 3)])
    for P in (square, pentagon):
        n = P.n
        assert P.edges_at(P.vertices[0]) == [0, n - 1]
        for j in range(1, n):
            assert P.edges_at(P.vertices[j]) == [j - 1, j]
        for i in range(n):
            a, b = P.edge(i)
            assert P.edges_at(a + (b - a).scale(Fraction(1, 3))) == [i]
            assert P.edges_at(a + (b - a).scale(Fraction(4, 3))) == []
        centroid = sum(P.vertices[1:], P.vertices[0]).scale(Fraction(1, n))
        assert P.edges_at(centroid) == []
        assert P.edges_at(pt(9, 9)) == []


def _dot(u: Point, v: Point):
    return u.x * v.x + u.y * v.y


def _co_member_oracle(vertices):
    """Membership in the convex hull of the vertices, from Fraction cross
    and dot products alone: p is on the inner side of every supporting
    line through two vertices, and sees some two of them at an angle of at
    least pi/2 (or is one), which puts it between the ends of a segment."""
    pts = set(vertices)
    pairs = [(a, b) for a in pts for b in pts if a != b]
    support = [(a, b) for a, b in pairs if all(cross(b - a, v - a) >= 0 for v in pts)]
    return lambda p: all(cross(b - a, p - a) >= 0 for a, b in support) and (
        p in pts or any(_dot(a - p, b - p) <= 0 for a, b in pairs))


def _query_points(rng, P: Polygon) -> list[Point]:
    """Vertices, points inside edges, points on edge lines past either
    end, interior points and points outside P."""
    out = list(P.vertices)
    for a, b in map(P.edge, range(P.n)):
        r = Fraction(rng.randint(1, 15), 16)
        out += [a + (b - a).scale(r), a + (b - a).scale(1 + r), a - (b - a).scale(r)]
    c = random_convex_combination(rng, P)
    out += [c] + [random_convex_combination(rng, P) for _ in range(3)]
    out += [c + (v - c).scale(Fraction(rng.randint(17, 40), 16)) for v in P.vertices]
    return out


def test_boundary_queries_match_the_fraction_definitions():
    """edges_at, locate_boundary and co_contains, which read the integer
    vertex table, agree with their definitions in Fraction points: a closed
    edge holds p when cross(b - a, p - a) == 0 and (a - p).(b - p) <= 0;
    p's boundary address is its projection parameter on the first such
    edge; and co_contains is `_co_member_oracle` at every inner vertex, for
    convex outer polygons, non-convex ones and hulls of 1 and 2 points."""
    rng = rng_for("boundary-query-oracle")
    seen = Counter()
    for _ in range(40):
        P = rational_polygon(rng, rng.randint(3, 9))
        points = _query_points(rng, P)
        for p in points:
            want = [i for i, (a, b) in enumerate(map(P.edge, range(P.n)))
                    if cross(b - a, p - a) == 0 and _dot(a - p, b - p) <= 0]
            assert P.edges_at(p) == want, (P, p)
            bp = P.locate_boundary(p)
            if not want:
                assert bp is None
                continue
            a, b = P.edge(want[0])
            t = _dot(p - a, b - a) / _dot(b - a, b - a)
            assert (bp.edge, bp.t) == (((want[0] + 1) % P.n, 0) if t == 1 else (want[0], t)), (P, p)
            seen["on boundary"] += 1
        c = random_convex_combination(rng, P)
        k = rng.randrange(P.n)
        outers = {
            "convex": P,
            "reflex": P.replace(k, P.vertices[k] + (c - P.vertices[k]).scale(Fraction(3, 2))),
            "shuffled": Polygon(tuple(rng.sample(P.vertices, P.n))),
            "segment": Polygon((P.vertices[k], P.vertex(k + 1), P.vertices[k])),
            "point": Polygon((P.vertices[k],) * 3),
        }
        for kind, O in outers.items():
            member = _co_member_oracle(O.vertices)
            inside = {p: member(p) for p in {*points, *O.vertices}}
            inners = [Polygon((p, p, p)) for p in points]
            inners += [Polygon(tuple(rng.sample(points, 3))) for _ in range(10)]
            inners += [Polygon(tuple(rng.sample(O.vertices, 3))) for _ in range(3)]
            for Q in inners:
                want = all(inside[v] for v in Q.vertices)
                assert co_contains(O, Q) == want, (O, Q)
                seen[kind, want] += 1
    assert seen["on boundary"] > 300
    for kind in ("convex", "reflex", "shuffled", "segment", "point"):
        assert seen[kind, True] >= 40 and seen[kind, False] >= 40, (kind, seen)


def test_boundary_queries_make_no_point_orientation_tests(monkeypatch):
    """On a convex polygon, co_contains, edges_at, locate_boundary and
    ray_polygon_exit read the vertex table and make no orientation test of
    Fraction points."""
    orient, calls = geometry.orient, Counter()

    def counted(a, b, c):
        calls["orient"] += 1
        return orient(a, b, c)

    for name, module in list(sys.modules.items()):
        if name.startswith("polyattain") and getattr(module, "orient", None) is orient:
            monkeypatch.setattr(module, "orient", counted)
    rng = rng_for("boundary-query-count")
    P = rational_polygon(rng, 12)
    c = random_convex_combination(rng, P)
    Q = Polygon(tuple(c + (v - c).scale(Fraction(1, 2)) for v in P.vertices))
    points = _query_points(rng, P)
    assert co_contains(P, Q) and not co_contains(Q, P)
    assert sum(map(bool, map(P.edges_at, points))) == 2 * P.n
    assert sum(P.locate_boundary(p) is not None for p in points) == 2 * P.n
    for v in P.vertices + Q.vertices:
        if v != c:
            ray_polygon_exit(P, c, v - c)
    assert calls["orient"] == 0 and P.is_convex_ccw


def test_arc_cmp_examples(square):
    anchor = square.locate_boundary(pt("1/2", 0))
    a = square.locate_boundary(pt(1, "1/2"))
    b = square.locate_boundary(pt(0, "1/2"))
    last = square.locate_boundary(pt("1/4", 0))
    ahead = square.locate_boundary(pt("3/4", 0))
    assert all(boundary_key(anchor, anchor) < boundary_key(anchor, z) for z in (ahead, a, b, last))
    assert boundary_key(anchor, a) < boundary_key(anchor, b) < boundary_key(anchor, last)
    # membership: (7/12, 0) is not on the open left-edge arc
    lo = square.locate_boundary(pt(0, "7/12"))
    hi = square.locate_boundary(pt(0, "1/4"))
    z = square.locate_boundary(pt("7/12", 0))
    assert not in_arc(lo, hi, z, False, False)
    assert in_arc(lo, hi, square.locate_boundary(pt(0, "1/3")), False, False)


def test_arc_cmp_total_order(square):
    """boundary_key orders the boundary strictly by counterclockwise travel
    from the anchor, measured here as edge + t past the anchor, modulo n."""
    rng = rng_for("arc-order")
    for _ in range(20):
        anchor = BoundaryPoint(square, rng.randrange(4), Fraction(rng.randint(0, 15), 16))
        pts = {
            BoundaryPoint(square, rng.randrange(4), Fraction(rng.randint(0, 15), 16))
            for _ in range(40)
        }
        travel = lambda b: (b.edge + b.t - anchor.edge - anchor.t) % 4
        keys = {b: boundary_key(anchor, b) for b in pts}
        assert len(set(keys.values())) == len(pts)
        assert sorted(pts, key=keys.get) == sorted(pts, key=travel)
        assert all(keys[b] > boundary_key(anchor, anchor) for b in pts if b != anchor)
        # from vertex 0 the key is the (edge, t) pair itself
        assert all(boundary_key(BoundaryPoint(square, 0, 0), b) == (b.edge, b.t) for b in pts)


def test_ray_polygon_exit(square):
    hit = ray_polygon_exit(square, pt("1/2", "1/2"), pt(1, 0))
    assert hit.realize() == pt(1, "1/2") and hit.edge == 1
    hit = ray_polygon_exit(square, pt(0, 0), pt(3, 1))
    assert hit.realize() == pt(1, "1/3")
    hit = ray_polygon_exit(square, pt("1/4", 0), pt(1, 0))
    assert hit.realize() == pt(1, 0) and hit.edge == 1 and hit.t == 0


def _exit_oracle(P: Polygon, o: Point, d: Point) -> BoundaryPoint:
    """The ray exit from its half-plane form: the largest t with o + t*d on
    the inner side of every edge, addressed by the O(n) boundary scan."""
    t = min(
        cross(b - a, o - a) / -cross(b - a, d)
        for a, b in map(P.edge, range(P.n))
        if cross(b - a, d) < 0
    )
    return P.locate_boundary(o + d.scale(t))


def test_ray_exit_matches_locate_boundary():
    """The (edge, t) that ray_polygon_exit builds agrees with locating the
    same point by a scan, on vertex feet, edge points, rays along edges and
    rays from vertices."""
    from polyattain.gen import random_convex_combination, random_convex_polygon

    rng = rng_for("mirror-ray")
    for _ in range(60):
        P = random_convex_polygon(rng, rng.randint(3, 8))
        feet = [BoundaryPoint(P, e, Fraction(0)) for e in range(P.n)]
        feet += [BoundaryPoint(P, e, Fraction(rng.randint(1, 7), 8)) for e in range(P.n)]
        inner = random_convex_combination(rng, P)
        for bp in feet:
            q = bp.realize()
            a, b = P.edge(bp.edge)
            targets = [v for v in P.vertices if v != q] + [b, inner]
            if bp.t > 0:
                targets.append(a)  # backwards along the edge
            for z in targets:
                if z != q:
                    assert ray_polygon_exit(P, q, z - q) == _exit_oracle(P, q, z - q)
