"""Differential tests of the broken-line step against brute-force oracles.

`ray_polygon_exit` finds its exit edge by the orientation signs of all
vertices.  A step of the map, in `poncelet`, finds its tangent vertex by a
bisection over the inner hull and its exit edge by a bisection over the
outer polygon, on linear forms in the foot's edge parameter; within a run
it walks to both, from the previous far pivot and from the foot.  The oracles
below are the direct versions in Fraction points: the ray intersected with
every edge, and every hull vertex tested against every other.
"""

from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from polyattain.gen import random_convex_combination, random_convex_polygon, random_interior_inner
from polyattain.geometry import Point, cross, forward_sign, orient, pt, segment_param
from polyattain.polygon import (
    BoundaryPoint,
    InvariantError,
    Polygon,
    co_contains,
    in_arc,
    polygon,
    ray_polygon_exit,
)
from polyattain.poncelet import BOUNDARY, INTERIOR, _Frame, blc, poncelet_cw, right_tangent

from conftest import rational_polygon, rng_for

SIZES = list(range(3, 13)) + [16, 24, 32, 48]


def mirrored(P: Polygon) -> Polygon:
    """Reflection across the x-axis with reversed vertex order: vertex k is
    the image of vertex n-1-k, so a convex CCW polygon stays convex CCW."""
    return Polygon(tuple(Point(v.x, -v.y) for v in reversed(P.vertices)))


def mirror_point(bp: BoundaryPoint, Pm: Polygon) -> BoundaryPoint:
    """bp reflected onto Pm == mirrored(bp.host): (e, t) goes to
    (-2-e, 1-t), which the constructor turns into (-1-e, 0) for a vertex.
    Mirroring back with the old host undoes it."""
    return BoundaryPoint(Pm, -2 - bp.edge, 1 - bp.t)


def exit_oracle(P: Polygon, origin: Point, direction: Point) -> BoundaryPoint:
    """The furthest crossing with t >= 0 over all n edges."""
    best = None  # (ray t, edge, edge parameter)
    for i in range(P.n):
        a, b = P.edge(i)
        e = b - a
        w = a - origin
        den = cross(direction, e)
        if den != 0:
            t = cross(w, e) / den
            s = cross(w, direction) / den
            if t >= 0 and 0 <= s <= 1 and (best is None or t > best[0]):
                best = (t, i, s)
    if best is None:
        raise ValueError("ray does not meet the boundary")
    return BoundaryPoint(P, best[1], best[2])


def tangent_oracle(P: Polygon, Pp: Polygon, bp: BoundaryPoint):
    """(pivots, case, image): the first hull vertex with every hull vertex
    weakly left of the ray to it, in O(h^2) orientation tests."""
    xpt = bp.realize()
    hull = Pp.hull
    if len(hull) < 3:
        raise ValueError("inner polygon is collinear")
    best = next(
        (v for v in hull if v != xpt and all(orient(xpt, v, w) >= 0 for w in hull)), None
    )
    if best is None:
        raise ValueError("no tangent ray: foot lies inside the inner hull")
    pivots = tuple(sorted(
        (u for u in hull if u != xpt and orient(xpt, best, u) == 0
         and forward_sign(xpt, best, u) > 0),
        key=lambda u: segment_param(xpt, best, u),
    ))
    a, b = P.edge(bp.edge)
    if orient(a, b, pivots[-1]) == 0:
        return pivots, BOUNDARY, BoundaryPoint(P, bp.edge + 1, 0)
    return pivots, INTERIOR, exit_oracle(P, xpt, best - xpt)


def feet(rng, P: Polygon):
    """The vertex and one random point of every edge, or of 12 random edges
    when P has more."""
    for e in sorted(rng.sample(range(P.n), min(P.n, 12))):
        yield BoundaryPoint(P, e, 0)
        yield BoundaryPoint(P, e, Fraction(rng.randint(1, 15), 16))


def check_exit(P, origin, d):
    try:
        want = exit_oracle(P, origin, d)
    except ValueError:
        with pytest.raises(ValueError):
            ray_polygon_exit(P, origin, d)
        return None
    got = ray_polygon_exit(P, origin, d)
    assert (got.edge, got.t) == (want.edge, want.t), (P, origin, d)
    return got


def check_tangent(P, Pp, bp):
    try:
        want = tangent_oracle(P, Pp, bp)
    except ValueError:
        with pytest.raises(ValueError):
            right_tangent(P, Pp, bp)
        return None
    ev = right_tangent(P, Pp, bp)
    assert (ev.pivots, ev.case, ev.image) == want, (P, Pp, bp)
    return ev


def test_exit_matches_oracle_from_feet_and_interior_origins():
    rng = rng_for("step-oracle-exit")
    for n in SIZES:
        for _ in range(2 if n <= 8 else 1):
            P = rational_polygon(rng, n)
            for bp in feet(rng, P):
                x = bp.realize()
                z = random_convex_combination(rng, P)
                if z != x:
                    check_exit(P, x, z - x)
                # outward: the ray leaves P at once, so the exit is the origin
                a, b = P.edge(bp.edge)
                out = Point(b.y - a.y, a.x - b.x)
                assert check_exit(P, x, out) == bp
                assert check_exit(P, x, out + (b - a).scale(Fraction(rng.randint(-3, 3), 4))) == bp
                # along the foot's edge, both ways
                check_exit(P, x, b - a)
                check_exit(P, x, a - b)
            for _ in range(min(n, 12)):
                o = random_convex_combination(rng, P)
                d = random_convex_combination(rng, P) - o
                if d != Point(Fraction(0), Fraction(0)):
                    check_exit(P, o, d)
                # through a vertex, and from a vertex
                v = P.vertex(rng.randrange(n))
                if v != o:
                    assert check_exit(P, o, v - o).realize() == v
                    check_exit(P, v, o - v)


def test_exit_rejects_rays_that_miss():
    rng = rng_for("step-oracle-miss")
    for n in SIZES[:8]:
        P = rational_polygon(rng, n)
        c = random_convex_combination(rng, P)
        far = Point(max(v.x for v in P.vertices) + 1, c.y)
        check_exit(P, far, Point(Fraction(1), Fraction(0)))   # points away: ValueError
        check_exit(P, far, Point(Fraction(-1), Fraction(0)))  # comes back across P


def test_tangent_matches_oracle():
    """Interior inner polygons, inner polygons touching the boundary, and
    the identity Pp == P, whose hull holds every foot."""
    rng = rng_for("step-oracle-tangent")
    for n in SIZES:
        P = rational_polygon(rng, n)
        touching = list(random_interior_inner(rng, P).vertices)
        for k in rng.sample(range(n), min(n, 3)):
            touching[k] = BoundaryPoint(P, rng.randrange(n), Fraction(rng.randint(0, 3), 4)).realize()
        for Pp in (random_interior_inner(rng, P), Polygon(tuple(touching)), P):
            for bp in feet(rng, P):
                check_tangent(P, Pp, bp)
        # P scaled by 2 about its vertex centroid: every foot lies strictly
        # inside the inner hull, so there is no tangent ray
        c = Point(sum(v.x for v in P.vertices) / n, sum(v.y for v in P.vertices) / n)
        around = Polygon(tuple(c + (v - c).scale(2) for v in P.vertices))
        for bp in feet(rng, P):
            with pytest.raises(ValueError, match="inside the inner hull"):
                right_tangent(P, around, bp)
            if len(Pp.hull) < 3:
                continue
            # the clockwise map runs the same step in the mirrored frame
            Pm, Ppm = mirrored(P), mirrored(Pp)
            for bp in list(feet(rng, P))[::3]:
                m, q = mirror_point(bp, Pm), bp.realize()
                assert m.realize() == Point(q.x, -q.y) and mirror_point(m, P) == bp
                want = tangent_oracle(Pm, Ppm, m)[2]
                assert poncelet_cw(P, Pp, bp) == mirror_point(want, P)


def test_tangent_with_collinear_pivots_and_boundary_case():
    rng = rng_for("step-oracle-ties")
    cases = {"two": 0, BOUNDARY: 0}
    for n in SIZES:
        P = rational_polygon(rng, n)
        for bp in feet(rng, P):
            Pp = random_interior_inner(rng, P)
            pivots, _, image = tangent_oracle(P, Pp, bp)
            # a new hull vertex on the tangent ray beyond the far pivot
            far, tip = pivots[-1], image.realize()
            extra = far + (tip - far).scale(Fraction(rng.randint(1, 7), 8))
            ev = check_tangent(P, Polygon(Pp.vertices + (extra,)), bp)
            cases["two"] += len(ev.pivots) == 2
            # a vertex of the inner polygon on the foot's edge, ahead of the foot
            a, b = P.edge(bp.edge)
            ahead = bp.t + (1 - bp.t) * Fraction(rng.randint(1, 7), 8)
            on_edge = a + (b - a).scale(ahead)
            ev = check_tangent(P, Polygon(Pp.vertices[1:] + (on_edge,)), bp)
            cases[BOUNDARY] += ev.case == BOUNDARY
            # the same vertex, now behind the foot (only when the foot is past it)
            if bp.t > 0:
                behind = a + (b - a).scale(bp.t * Fraction(rng.randint(0, 7), 8))
                check_tangent(P, Polygon(Pp.vertices[1:] + (behind,)), bp)
    assert cases["two"] > 100 and cases[BOUNDARY] > 100


def test_tangent_pivots_wrap_around_the_inner_hull():
    """The near pivot is the inner hull's last vertex and the far pivot its
    vertex 0: of two hull vertices at the tangent angle the search returns
    the first in cyclic order, here the last, so the pair is the tangent
    vertex and its successor across the wrap."""
    P = polygon([(-5, -5), (5, -5), (5, 5), (-5, 5)])
    Pp = polygon([(0, 0), (2, 0), (1, 1)])
    ev = check_tangent(P, Pp, BoundaryPoint(P, 2, 0))  # the foot (5, 5)
    assert Pp.hull[-1] == pt(1, 1) and Pp.hull[0] == pt(0, 0)
    assert ev.pivots == (pt(1, 1), pt(0, 0)) and ev.case == INTERIOR
    assert ev.image == BoundaryPoint(P, 0, 0)


def oracle_blc(P, Pp, start, direction, seen: Counter):
    """(points, far pivots, stop image) of the broken line iterated with
    tangent_oracle; clockwise, in the mirrored polygons.  seen tallies the
    steps in the boundary case and the steps with two pivots."""
    if direction == "cw":
        Pm = mirrored(P)
        points, pivots, stop = oracle_blc(Pm, mirrored(Pp), mirror_point(start, Pm), "ccw", seen)
        return ([mirror_point(b, P) for b in points], [Point(q.x, -q.y) for q in pivots],
                mirror_point(stop, P))
    points, pivots = [start], []
    while True:
        piv, case, image = tangent_oracle(P, Pp, points[-1])
        seen[BOUNDARY] += case == BOUNDARY
        seen["two"] += len(piv) == 2
        if len(points) > 1 and not in_arc(points[-1], start, image, False, False):
            return points, pivots, image
        points.append(image)
        pivots.append(piv[-1])
        assert len(points) <= P.n + 1


def gamma1_starts(P, Pp):
    """Landings of each inner hull vertex pushed out by its successor,
    from the oracle exit, where the push leaves P's edges."""
    hull = Pp.hull
    for v, succ in zip(hull, hull[1:] + hull[:1]):
        try:
            landing = exit_oracle(P, succ, v - succ)
        except ValueError:
            continue
        if landing.realize() != v:
            yield landing


def check_blc(P, Pp, start, direction, seen: Counter):
    """blc against the oracle run: the result, or None when both reject
    the start."""
    try:
        want = oracle_blc(P, Pp, start, direction, seen)
    except ValueError:
        with pytest.raises(ValueError):
            blc(P, Pp, start, direction)
        return None
    if len(want[0]) < 3:
        with pytest.raises(InvariantError):
            blc(P, Pp, start, direction)
        return None
    got = blc(P, Pp, start, direction)
    assert (list(got.points), list(got.pivots), got.stop_image) == want, (P, Pp, start)
    return got


def blc_cases(rng):
    """(P, Pp, start, direction) for whole runs, both directions, from
    vertex, edge and Gamma_1 starts: interior inner polygons, inner polygons
    touching the boundary, Pp == P and interior shrinks, whose long runs
    carry edge parameters of hundreds of bits."""
    for n in list(range(3, 13)) + [16, 24]:
        P = rational_polygon(rng, n)
        touching = list(random_interior_inner(rng, P).vertices)
        for k in rng.sample(range(n), min(n, 3)):
            touching[k] = BoundaryPoint(P, rng.randrange(n), Fraction(rng.randint(0, 3), 4)).realize()
        # about a centre with large denominators, which the parameters inherit
        c = random_convex_combination(rng, P, 1009)
        shrink = Polygon(tuple(c + (v - c).scale(1 - Fraction(1, n * n)) for v in P.vertices))
        for Pp in (random_interior_inner(rng, P), Polygon(tuple(touching)), P, shrink):
            if len(Pp.hull) < 3:
                continue
            starts = [BoundaryPoint(P, rng.randrange(n), 0),
                      BoundaryPoint(P, rng.randrange(n), Fraction(rng.randint(1, 15), 16))]
            starts += list(gamma1_starts(P, Pp))[:2]
            for start in starts:
                for direction in ("ccw", "cw"):
                    yield P, Pp, start, direction


def test_blc_runs_match_oracle_step():
    """The runs of `blc_cases` against runs iterated with the oracle step."""
    rng = rng_for("step-oracle-blc")
    seen, runs, bits = Counter(), 0, 0
    for P, Pp, start, direction in blc_cases(rng):
        got = check_blc(P, Pp, start, direction, seen)
        if got is not None:
            runs += 1
            bits = max(bits, max(b.t.denominator.bit_length() for b in got.points))
    assert runs > 250 and bits > 500
    assert seen[BOUNDARY] > 100 and seen["two"] > 20


def test_walked_steps_match_bisected_steps(monkeypatch):
    """Every step of the runs of `blc_cases` after the first, walked on
    from the previous far pivot, equals the step bisected from the foot
    alone, error or result.  Pinned: steps whose hint is the far one of two
    pivots, where the near one would stop the walk at once; steps from a
    boundary-case image; walks that wrap from the last hull vertex to
    vertex 0; and steps that take two pivots or end in the boundary case."""
    from polyattain import poncelet

    step, seen, prev = poncelet._step, Counter(), [None]

    def outcome(*args):
        try:
            return step(*args)
        except (ValueError, InvariantError) as err:
            return type(err), str(err)

    def walked(fr, x, hint=None):
        got = outcome(fr, x, hint)
        if hint is not None:
            assert got == outcome(fr, x), (fr.P, fr.ccw, x, hint)
            seen[fr.ccw] += 1
            seen["from two"] += len(prev[0][0]) == 2
            seen["from boundary"] += prev[0][1] == BOUNDARY
        if isinstance(got[0], type):  # the step raised, so the run stops here
            raise got[0](got[1])
        if hint is not None:
            seen["wrap"] += got[0][0] < hint
            seen["two"] += len(got[0]) == 2
            seen[BOUNDARY] += got[1] == BOUNDARY
        prev[0] = got
        return got

    monkeypatch.setattr(poncelet, "_step", walked)
    for P, Pp, start, direction in blc_cases(rng_for("step-oracle-blc")):
        try:
            blc(P, Pp, start, direction)
        except (ValueError, InvariantError):
            pass
    assert seen[True] > 800 and seen[False] > 800
    assert seen["from two"] > 50 and seen["two"] >= 4
    assert seen["from boundary"] > 400 and seen[BOUNDARY] > 400
    assert seen["wrap"] > 200


def test_walked_step_rejects_a_ray_that_leaves_at_its_foot():
    """An inner triangle poking out below the square: the run from (4, 4)
    pivots on (1, 1) and (0, 0) and lands on the corner (0, 0), from where
    the tangent to (1, -2) leaves the square at once.  The walked step
    rejects it as the bisected one does, by the exit's end signs."""
    P = polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
    Pp = polygon([(1, 1), (0, 0), (1, -2)])
    ev = right_tangent(P, Pp, BoundaryPoint(P, 2, 0))
    assert ev.pivots == (pt(1, 1), pt(0, 0)) and ev.image == BoundaryPoint(P, 0, 0)
    with pytest.raises(ValueError, match="does not enter"):
        right_tangent(P, Pp, ev.image)
    for start in (BoundaryPoint(P, 2, 0), BoundaryPoint(P, 3, 0)):
        with pytest.raises(ValueError, match="does not enter"):
            blc(P, Pp, start)


def test_run_steps_take_a_flat_number_of_determinants(monkeypatch):
    """A whole run walks its tangent and exit pointers once round: at n =
    32, 64 and 128 each step makes at most 12 frame determinants on
    average, where bisecting every step makes about 21 at n = 32 and 28 at
    n = 128."""
    from polyattain import geometry, poncelet

    calls = Counter()
    det, step = geometry._det, poncelet._step

    def counted_det(*args):
        calls["det"] += 1
        return det(*args)

    def counted_step(*args):
        calls["step"] += 1
        return step(*args)

    # The step calls _det itself and through geometry's triple predicates.
    monkeypatch.setattr(poncelet, "_det", counted_det)
    monkeypatch.setattr(geometry, "_det", counted_det)
    monkeypatch.setattr(poncelet, "_step", counted_step)
    rng = rng_for("run-cost")
    for n in (32, 64, 128):
        P = random_convex_polygon(rng, n)
        c = random_convex_combination(rng, P)
        Pp = Polygon(tuple(c + (v - c).scale(1 - Fraction(1, n * n)) for v in P.vertices))
        for direction in ("ccw", "cw"):
            calls.clear()
            res = blc(P, Pp, BoundaryPoint(P, 1, 0), direction)
            assert res.l > 3 * n // 4 and calls["step"] == res.l
            assert calls["det"] <= 12 * calls["step"], (n, direction, calls)


def test_steps_take_logarithmic_orientation_tests(monkeypatch):
    """From a foot, the exit edge and the tangent vertex each cost O(log n)
    of the frame's orientation tests; a linear scan would make at least n.
    No test of Fraction points is made."""
    from polyattain import geometry, poncelet

    calls = Counter()
    phase = ["tangent"]
    side, exit_, orient_ = poncelet._side, poncelet._exit, geometry.orient

    def counted_side(f, u, v):
        calls[phase[0]] += 1
        return side(f, u, v)

    def counted_exit(*args):
        phase[0] = "exit"
        try:
            return exit_(*args)
        finally:
            phase[0] = "tangent"

    def counted_orient(a, b, c):
        calls["points"] += 1
        return orient_(a, b, c)

    monkeypatch.setattr(poncelet, "_side", counted_side)
    monkeypatch.setattr(poncelet, "_exit", counted_exit)
    monkeypatch.setattr(geometry, "orient", counted_orient)
    rng = rng_for("step-cost")
    n = 128
    P = random_convex_polygon(rng, n)
    c = random_convex_combination(rng, P)
    Pp = Polygon(tuple(c + (v - c).scale(Fraction(1, 2)) for v in P.vertices))
    assert len(Pp.hull) == n
    for bp in feet(rng, P):
        calls.clear()
        assert right_tangent(P, Pp, bp).case == INTERIOR
        assert calls["exit"] <= 2 + 7 + 1  # two end signs, the bisection
        assert calls["tangent"] <= 2 + 2 * 7 + 3  # two slopes, the bisection, the checks
        assert calls["points"] == 0


# 2^p - 1 for distinct primes p are pairwise coprime, as
# gcd(2^a - 1, 2^b - 1) = 2^gcd(a, b) - 1; p = 61 gives 2^61 - 1.
COPRIME_DENS = [2**p - 1 for p in (61, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 67, 71, 73,
                                   79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
                                   151, 157, 163, 167, 173, 179, 181, 191, 193, 197)]


def nudged(rng, vertices, dens) -> Polygon:
    """Integer vertices each moved by +-1/d in x and y, with its own two
    denominators d taken from dens, so no two coordinates share a factor."""
    out = []
    for v in vertices:
        dx, dy = next(dens), next(dens)
        out.append(Point(v.x + Fraction(rng.choice((-1, 1)), dx), v.y + Fraction(rng.choice((-1, 1)), dy)))
    return Polygon(tuple(out))


def coprime_pairs(rng):
    """P and an interior Pp whose vertices all have distinct, pairwise
    coprime denominators of 13 to 197 bits; then P with Pp sharing two or
    all of P's vertices, or with one vertex inside an edge of P, so that
    feet also sit at inner hull vertices."""
    for n in (3, 4, 5, 6, 8, 10):
        dens = iter(COPRIME_DENS)
        base = random_convex_polygon(rng, n).vertices
        P = nudged(rng, [v.scale(4) for v in base], dens)
        # each a convex combination of three vertices of 4 * base, strictly inside
        inner = [base[k] + base[(k + 1) % n] + base[(k + 2) % n].scale(2) for k in range(n)]
        Pp = nudged(rng, inner, dens)
        assert P.is_convex_ccw and co_contains(P, Pp) and len(Pp.hull) >= 3
        yield P, Pp
        yield P, Polygon((P.vertices[0], P.vertices[n // 2]) + Pp.vertices[1:])
        yield P, P
        yield P, Polygon((BoundaryPoint(P, 1, Fraction(1, 2**31 - 1)).realize(),) + Pp.vertices[1:])


def test_frame_triples_carry_only_their_own_vertex():
    """Each frame point is (x*w, y*w, w) with w the lcm of its vertex's own
    two denominators, both ways round, not a scale shared by all."""
    rng = rng_for("frame-own-denominators")
    for P, Pp in coprime_pairs(rng):
        for ccw in (True, False):
            fr = _Frame(P, Pp, ccw)
            vs, hull = P.vertices, fr.pts
            if not ccw:
                vs = vs[::-1]
            for v, (X, Y, w) in zip(vs + hull, fr.vs + fr.hull):
                assert w == lcm(v.x.denominator, v.y.denominator)
                assert (Fraction(X, w), Fraction(Y if ccw else -Y, w)) == (v.x, v.y)
                assert w.bit_length() <= v.x.denominator.bit_length() + v.y.denominator.bit_length()


def test_steps_and_runs_on_coprime_denominators_match_oracle():
    """Tangents, images and whole runs, both directions, from vertex and
    edge feet, on frames whose points all have different w."""
    rng = rng_for("step-oracle-coprime")
    seen, runs = Counter(), 0
    for P, Pp in coprime_pairs(rng):
        Pm, Ppm = mirrored(P), mirrored(Pp)
        on_p = [bp for bp in map(P.locate_boundary, Pp.vertices) if bp is not None]
        for bp in list(feet(rng, P)) + on_p:
            check_tangent(P, Pp, bp)
            m = mirror_point(bp, Pm)
            try:
                want = tangent_oracle(Pm, Ppm, m)[2]
            except ValueError:
                with pytest.raises(ValueError):
                    poncelet_cw(P, Pp, bp)
                continue
            assert poncelet_cw(P, Pp, bp) == mirror_point(want, P)
        starts = [BoundaryPoint(P, rng.randrange(P.n), 0),
                  BoundaryPoint(P, rng.randrange(P.n), Fraction(rng.randint(1, 2**31 - 2), 2**31 - 1))]
        for start in starts + list(gamma1_starts(P, Pp))[:1]:
            for direction in ("ccw", "cw"):
                runs += check_blc(P, Pp, start, direction, seen) is not None
    assert runs > 30
