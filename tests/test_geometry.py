from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyattain.geometry import (
    POLE,
    DirectedLine,
    Perspectivity,
    Point,
    convex_hull,
    cross,
    dot,
    forward_sign,
    orient,
    persp_classify,
    persp_eval,
    persp_pole,
    pt,
    rat,
    segment_contains,
)

from conftest import rational_point, rng_for

rats = st.fractions(min_value=-8, max_value=8, max_denominator=6)
points = st.builds(Point, rats, rats)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)
    assert rat("3/4") == Fraction(3, 4)
    assert rat(7) == 7


def test_orient_examples():
    assert orient(pt(0, 0), pt(1, 0), pt(0, 1)) == 1
    assert orient(pt(0, 0), pt(1, 0), pt(2, 0)) == 0
    assert orient(pt(0, 0), pt(0, 1), pt(1, 0)) == -1


@given(points, points, points)
def test_orient_antisymmetric(a, b, c):
    assert orient(a, b, c) == -orient(b, a, c)


wide_rats = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)) | rats
wide_points = st.builds(Point, wide_rats, wide_rats)


@st.composite
def triples(draw):
    """Three points a, b, c with c = a + s(b-a) + u(b-a)^perp.

    s and u are often 0, 1 or 1e-40 in size, so collinear, perpendicular,
    coincident and nearly degenerate triples all come up.
    """
    a, b = draw(wide_points), draw(wide_points)
    if draw(st.integers(0, 4)) == 0:
        b = a
    coef = st.sampled_from([0, 1, Fraction(1, 10**40), Fraction(-1, 10**40)]) | wide_rats
    s, u, d = draw(coef), draw(coef), b - a
    c = a + d.scale(s) + Point(-d.y, d.x).scale(u)
    return draw(st.permutations([a, b, c]))


@given(triples())
def test_predicates_match_fraction_oracle(abc):
    a, b, c = abc
    sign = lambda v: (v > 0) - (v < 0)
    assert orient(a, b, c) == sign(cross(b - a, c - a))
    assert forward_sign(a, b, c) == sign(dot(b - a, c - a))


def test_convex_hull_examples():
    sq = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1), pt("1/2", "1/2")]
    assert convex_hull(sq) == [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]
    assert convex_hull([pt(0, 0), pt(1, 1), pt(2, 2)]) == [pt(0, 0), pt(2, 2)]
    assert convex_hull([pt(0, 0)]) == [pt(0, 0)]


@given(st.lists(points, min_size=1, max_size=12))
def test_convex_hull_idempotent_and_canonical(pts):
    hull = convex_hull(pts)
    assert convex_hull(hull) == hull
    # no three consecutive collinear, and counterclockwise when 2-dimensional
    m = len(hull)
    if m >= 3:
        for k in range(m):
            assert orient(hull[k], hull[(k + 1) % m], hull[(k + 2) % m]) == 1


def test_segment_contains_examples():
    assert segment_contains(pt(0, 0), pt(2, 2), pt(1, 1))
    assert not segment_contains(pt(0, 0), pt(2, 2), pt(3, 3))
    assert segment_contains(pt(0, 0), pt(0, 0), pt(0, 0))


def _unit_persp():
    src = DirectedLine.through(pt(0, 0), pt(1, 0))
    tgt = DirectedLine.through(pt(1, 0), pt(1, 1))
    return Perspectivity(src, tgt, pt(0, 1))


def test_persp_eval_examples():
    p = _unit_persp()
    assert persp_eval(p, pt(1, 0)) == pt(1, 0)
    assert persp_eval(p, pt(2, 0)) == pt(1, "1/2")
    assert persp_eval(p, pt(0, 0)) is POLE


def test_persp_eval_rejects_off_source():
    with pytest.raises(ValueError):
        persp_eval(_unit_persp(), pt(0, 5))


def test_persp_classify_examples():
    c = persp_classify(_unit_persp())
    assert c.kind == "preserving" and c.pole == pt(0, 0)
    # parallel source and target: affine
    src = DirectedLine.through(pt(0, 0), pt(1, 0))
    tgt = DirectedLine.through(pt(0, 2), pt(1, 2))
    assert persp_classify(Perspectivity(src, tgt, pt(0, 1))).kind == "affine"
    # center strictly left of the source, strictly right of the target:
    # the induced coordinate map is t -> 1/t, decreasing away from its pole
    tgt2 = DirectedLine.through(pt(1, 1), pt(1, 0))
    c2 = persp_classify(Perspectivity(src, tgt2, pt(0, 1)))
    assert c2.kind == "reversing" and c2.pole == pt(0, 0)


def _random_persp(rng):
    while True:
        a, b, c, d, o = (rational_point(rng) for _ in range(5))
        if a == b or c == d:
            continue
        src = DirectedLine.through(a, b)
        tgt = DirectedLine.through(c, d)
        if src.same_line(tgt) or src.contains(o) or tgt.contains(o):
            continue
        return Perspectivity(src, tgt, o)


def test_persp_involution_1000():
    rng = rng_for("persp-involution")
    done = 0
    while done < 1000:
        p = _random_persp(rng)
        t = Fraction(rng.randint(-12, 12), rng.randint(1, 5))
        q = p.source.at(t)
        img = persp_eval(p, q)
        if img is POLE:
            continue
        back = Perspectivity(p.target, p.source, p.center)
        assert persp_eval(back, img) == q
        done += 1


def test_persp_classify_monotonicity():
    rng = rng_for("persp-monotone")
    done = 0
    while done < 400:
        p = _random_persp(rng)
        cls = persp_classify(p)
        if cls.kind == "affine":
            continue
        t0 = p.source.param(cls.pole)
        t1 = t0 + Fraction(rng.randint(1, 10), rng.randint(1, 4))
        t2 = t1 + Fraction(rng.randint(1, 10), rng.randint(1, 4))
        same_side = [persp_eval(p, p.source.at(t)) for t in (t1, t2)]
        v1, v2 = (p.target.param(q) for q in same_side)
        if cls.kind == "preserving":
            assert v1 < v2
        else:
            assert v1 > v2
        # straddling the pole: the order flips for a preserving map
        tm = t0 - Fraction(rng.randint(1, 10), rng.randint(1, 4))
        vm = p.target.param(persp_eval(p, p.source.at(tm)))
        if cls.kind == "preserving":
            assert vm > v1
        else:
            assert vm < v1
        done += 1


def test_pole_membership_from_center_sides():
    """Whether (a, b) contains the pole is read off from the center's
    membership in [a, eval(a)] and [b, eval(b)]."""
    rng = rng_for("pole-membership")
    done = 0
    while done < 400:
        p = _random_persp(rng)
        pole = persp_pole(p)
        if pole is None:
            continue
        ta = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        tb = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        if ta == tb:
            continue
        a, b = p.source.at(ta), p.source.at(tb)
        if a == pole or b == pole:
            continue
        fa, fb = persp_eval(p, a), persp_eval(p, b)
        in_a = segment_contains(a, fa, p.center)
        in_b = segment_contains(b, fb, p.center)
        lo, hi = min(ta, tb), max(ta, tb)
        tp = p.source.param(pole)
        pole_inside = lo < tp < hi
        assert pole_inside == (in_a != in_b)
        done += 1


def test_directed_line_equality_is_order_sensitive():
    l1 = DirectedLine.through(pt(0, 0), pt(2, 0))
    l2 = DirectedLine.through(pt(1, 0), pt(5, 0))
    l3 = DirectedLine.through(pt(1, 0), pt(-1, 0))
    assert l1 == l2
    assert hash(l1) == hash(l2)
    assert l1 != l3
