from fractions import Fraction

import pytest

from polyattain.geometry import pt
from polyattain.polygon import BoundaryPoint, Polygon, in_arc, polygon
from polyattain.poncelet import (
    BOUNDARY,
    INTERIOR,
    blc,
    gamma_sets,
    poncelet,
    poncelet_cw,
    right_tangent,
)

from conftest import rng_for


def bps(P, x, y):
    bp = P.locate_boundary(pt(x, y))
    assert bp is not None
    return bp


class TestRightTangent:
    def test_interior_pivot(self, square, inner_square):
        ev = right_tangent(square, inner_square, pt("1/2", 0))
        assert ev.case == INTERIOR
        assert ev.pivots[-1] == pt("3/4", "1/4")
        assert ev.image.realize() == pt(1, "1/2")

    def test_from_corner(self, square, inner_square):
        ev = right_tangent(square, inner_square, pt(0, 0))
        assert ev.pivots[-1] == pt("3/4", "1/4")
        assert ev.image.realize() == pt(1, "1/3")

    def test_two_collinear_pivots(self, square, inner_square):
        ev = right_tangent(square, inner_square, pt(0, "1/4"))
        assert ev.pivots == (pt("1/4", "1/4"), pt("3/4", "1/4"))
        assert ev.image.realize() == pt(1, "1/4")

    def test_vertex_start_boundary_case(self, square):
        Pp = polygon([("1/2", 0), ("3/4", "1/4"), ("1/2", "1/2"), ("1/4", "1/4")])
        ev = right_tangent(square, Pp, pt(0, 0))
        assert ev.case == BOUNDARY and ev.image.realize() == pt(1, 0)

    def test_inner_polygon_stays_weakly_left(self, square):
        from polyattain.geometry import orient

        rng = rng_for("weak-left")
        for _ in range(150):
            P, Pp = _random_instance(rng)
            x = _random_bp(rng, P)
            ev = right_tangent(P, Pp, x)
            o, tip = x.realize(), ev.pivots[0]
            assert all(orient(o, tip, w) >= 0 for w in Pp.hull)
            assert ev.pivots == tuple(sorted(ev.pivots, key=lambda u: (
                (u.x - o.x) ** 2 + (u.y - o.y) ** 2)))

    def test_rejects_collinear_inner(self, square):
        flat = polygon([("1/4", "1/4"), ("1/2", "1/2"), ("3/4", "3/4"), ("1/4", "1/4")])
        with pytest.raises(ValueError):
            right_tangent(square, flat, pt("1/2", 0))


class TestPonceletMap:
    def test_examples(self, square, inner_square):
        assert poncelet(square, inner_square, pt("1/2", 0)).realize() == pt(1, "1/2")

    def test_boundary_case(self, square):
        Pp = polygon([("1/2", 0), ("3/4", "1/4"), ("1/2", "1/2"), ("1/4", "1/4")])
        ev = right_tangent(square, Pp, pt("1/4", 0))
        assert ev.case == BOUNDARY
        assert ev.image.realize() == pt(1, 0)

    def test_third_example(self, square, inner_square):
        assert poncelet(square, inner_square, pt("3/5", 1)).realize() == pt(0, "4/7")

    def test_cw_examples(self, square, inner_square, pushed_square):
        y = poncelet(square, inner_square, pt("1/2", 0))
        assert poncelet_cw(square, inner_square, y).realize() == pt("1/2", 0)
        assert poncelet_cw(square, pushed_square, pt("1/4", 0)).realize() == pt("1/4", 1)
        assert poncelet_cw(square, pushed_square, pt("7/12", 0)).realize() == pt(0, 0)

    def test_no_fixed_points(self, square, inner_square):
        rng = rng_for("nofix")
        for _ in range(300):
            x = BoundaryPoint(square, rng.randrange(4), Fraction(rng.randint(0, 15), 16))
            y = poncelet(square, inner_square, x)
            assert y != x
            assert y.edge != x.edge  # distinct half-open edges


class TestGammaSets:
    def test_gamma1_square_family(self, square, inner_square):
        js = gamma_sets(square, inner_square)
        got = {b.realize() for b in js.gamma1}
        assert got == {pt(0, "1/4"), pt("3/4", 0), pt(1, "3/4"), pt("1/4", 1)}
        assert js.gamma2_complete
        assert len({b.realize() for b in js.gamma1} | set(square.vertices)) == 8

    def test_gamma_union_contains_vertices(self, square, inner_square):
        js = gamma_sets(square, inner_square)
        verts = {b for b in js.gamma if b.t == 0}
        assert len(verts) == 4
        assert set(js.gamma) >= js.gamma1 | js.gamma2

    def test_gamma2_flagged_when_inner_touches(self, square, pushed_square):
        js = gamma_sets(square, pushed_square)
        assert not js.gamma2_complete
        assert js.gamma2 == frozenset()

    def test_shared_vertex_deduplicates(self, square):
        # one push-out ray lands exactly on a corner of the square: the
        # corner sits in both the vertex set and gamma1, and the union
        # keeps a single copy
        Pp = polygon([("1/4", "1/4"), ("3/4", "1/4"), ("1/2", "1/2"), ("1/2", "1/2")])
        js = gamma_sets(square, Pp)
        g1 = {b.realize() for b in js.gamma1}
        assert pt(1, 0) in g1
        points = [b.realize() for b in js.gamma]
        assert len(points) == len(set(points))
        assert points.count(pt(1, 0)) == 1


class TestBlc:
    def test_run_from_origin(self, square, inner_square):
        res = blc(square, inner_square, bps(square, 0, 0))
        assert [b.realize() for b in res.points] == [
            pt(0, 0), pt(1, "1/3"), pt("3/5", 1), pt(0, "4/7"),
        ]
        assert res.l == 4
        assert res.stop_image.realize() == pt("4/9", 0)

    def test_run_from_gamma1_point(self, square, inner_square):
        res = blc(square, inner_square, bps(square, 0, "1/4"))
        assert [b.realize() for b in res.points] == [
            pt(0, "1/4"), pt(1, "1/4"), pt("5/8", 1), pt(0, "7/12"),
        ]
        assert res.stop_image.realize() == pt("7/16", 0)

    def test_clockwise_run(self, square, pushed_square):
        res = blc(square, pushed_square, bps(square, "1/4", 0), "cw")
        assert [b.realize() for b in res.points] == [
            pt("1/4", 0), pt("1/4", 1), pt(1, "5/8"), pt("7/12", 0),
        ]
        assert res.l == 4
        assert res.stop_image.realize() == pt(0, 0)


def _random_interior_instance(rng, nmin=4, nmax=7):
    from polyattain.gen import random_convex_polygon, random_interior_inner

    while True:
        P = random_convex_polygon(rng, rng.randint(nmin, nmax))
        Pp = random_interior_inner(rng, P)
        if not Pp.is_collinear:
            return P, Pp


def _random_instance(rng, nmin=4, nmax=7):
    from polyattain.gen import random_convex_polygon, random_inner

    while True:
        P = random_convex_polygon(rng, rng.randint(nmin, nmax))
        Pp = random_inner(rng, P)
        if not Pp.is_collinear:
            return P, Pp


def _random_bp(rng, P):
    return BoundaryPoint(P, rng.randrange(P.n), Fraction(rng.randint(0, 31), 32))


def test_chord_arc_mapping():
    """Points of arc[c, pi(c)] map into arc[pi(c), c)."""
    rng = rng_for("chord-arc")
    for _ in range(40):
        P, Pp = _random_instance(rng)
        for _ in range(10):
            c = _random_bp(rng, P)
            fc = poncelet(P, Pp, c)
            z = _random_bp(rng, P)
            if not in_arc(c, fc, z, True, True):
                continue
            fz = poncelet(P, Pp, z)
            assert in_arc(fc, c, fz, True, False)


def test_orientation_preserving():
    """z in arc[x, y] implies pi(z) in arc[pi(x), pi(y)]."""
    rng = rng_for("arc-order-preserved")
    for _ in range(40):
        P, Pp = _random_instance(rng)
        for _ in range(10):
            x, y, z = (_random_bp(rng, P) for _ in range(3))
            if x == y:
                continue
            fx, fy = poncelet(P, Pp, x), poncelet(P, Pp, y)
            if fx == fy or not in_arc(x, y, z, True, True):
                continue
            fz = poncelet(P, Pp, z)
            assert in_arc(fx, fy, fz, True, True)


def test_inverse_maps_on_interior_instances():
    rng = rng_for("inverse-maps")
    for _ in range(25):
        P, Pp = _random_interior_instance(rng)
        for _ in range(12):
            x = _random_bp(rng, P)
            assert poncelet_cw(P, Pp, poncelet(P, Pp, x)) == x
            assert poncelet(P, Pp, poncelet_cw(P, Pp, x)) == x


def _between_samples(P, g, g_next, k=5):
    """Sample points strictly between two consecutive juncture points."""
    if g_next.edge == g.edge and g_next.t > g.t:
        lo, hi = g.t, g_next.t
    else:  # g_next is the next vertex (possibly on the following edge)
        lo, hi = g.t, Fraction(1)
    out = []
    for j in range(1, k + 1):
        t = lo + (hi - lo) * Fraction(j, k + 1)
        if t < 1:
            out.append(BoundaryPoint(P, g.edge, t))
    return out


def test_gamma_junctures_are_perspectivity_pieces():
    """Between consecutive juncture points the map agrees exactly with an
    increasing perspectivity centered at the common interior pivot: every
    image lies on one edge, and the pivot on the open segment from the
    sample to its image."""
    from polyattain.geometry import segment_contains

    rng = rng_for("gamma-pieces")
    checked = 0
    for _ in range(12):
        P, Pp = _random_interior_instance(rng, 4, 6)
        js = gamma_sets(P, Pp)
        gamma = list(js.gamma)
        for idx in range(len(gamma)):
            g, g_next = gamma[idx], gamma[(idx + 1) % len(gamma)]
            samples = _between_samples(P, g, g_next)
            if not samples:
                continue
            evs = [right_tangent(P, Pp, s) for s in samples]
            images = [e.image for e in evs]
            if len({im.realize() for im in images}) == 1:
                # constant stretches only happen with pivots on the boundary
                assert P.locate_boundary(evs[0].pivots[-1]) is not None
                continue
            pivot = evs[0].pivots[-1]
            assert all(e.pivots[-1] == pivot for e in evs)
            assert P.locate_boundary(pivot) is None  # interior center
            assert len({im.edge for im in images}) == 1
            for s, im in zip(samples, images):
                # the pivot is interior, so it is neither end of the segment
                assert segment_contains(s.realize(), im.realize(), pivot)
            params = [im.t for im in images]
            assert params == sorted(params)  # increasing along the edge
            checked += 1
    assert checked > 10


def test_blc_polygon_structure():
    """The structural clauses of the broken-line polygon."""
    from polyattain.polygon import boundary_key, co_contains

    rng = rng_for("blc-structure")
    for _ in range(120):
        P, Pp = _random_instance(rng, 4, 8)
        x = _random_bp(rng, P)
        res = blc(P, Pp, x)
        n, l = P.n, res.l
        assert 3 <= l <= n + 1
        # (i) inscribed in ccw order
        anchor = res.points[0]
        keys = [boundary_key(anchor, b) for b in res.points[1:]]
        assert keys == sorted(keys)
        # (ii) at most one vertex per half-open edge, except the start edge
        per_edge = {}
        for b in res.points:
            per_edge.setdefault(b.edge, []).append(b)
        for e, members in per_edge.items():
            assert len(members) <= (2 if e == res.points[0].edge else 1)
        # (iii)/(iv) convexity and containment, with the collinear-start relaxation
        Q = Polygon(tuple(b.realize() for b in res.points))
        if Q.is_convex_ccw:
            assert co_contains(Q, Pp)
        else:
            Qp = Polygon(tuple(b.realize() for b in res.points[1:]))
            assert Qp.is_convex_ccw and co_contains(Qp, Pp)
        # (v) each half-open construction edge holds its recorded pivot
        from polyattain.geometry import segment_contains

        for k in range(l - 1):
            a, b = res.points[k].realize(), res.points[k + 1].realize()
            piv = res.pivots[k]
            assert segment_contains(a, b, piv) and piv != a


def test_good_points_are_closed_under_the_map():
    rng = rng_for("good-closure")
    hits = 0
    for _ in range(150):
        P, Pp = _random_instance(rng, 4, 6)
        x = _random_bp(rng, P)
        res = blc(P, Pp, x)
        if res.l >= P.n:
            continue
        hits += 1
        y = poncelet(P, Pp, x)
        assert blc(P, Pp, y).l < P.n
    assert hits > 20
