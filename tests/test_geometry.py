from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyattain.geometry import (
    Point,
    convex_hull,
    cross,
    forward_sign,
    orient,
    pt,
    rat,
    segment_contains,
)

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
    dot = lambda u, v: u.x * v.x + u.y * v.y
    assert orient(a, b, c) == sign(cross(b - a, c - a))
    assert forward_sign(a, b, c) == sign(dot(b - a, c - a))


def test_convex_hull_examples():
    sq = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1), pt("1/2", "1/2")]
    assert convex_hull(sq) == [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]
    assert convex_hull([pt(0, 0), pt(1, 1), pt(2, 2)]) == [pt(0, 0), pt(2, 2)]
    assert convex_hull([pt(1, 1), pt(2, 2), pt(0, 0), pt(1, 1)]) == [pt(0, 0), pt(2, 2)]
    assert convex_hull([pt(0, 0)]) == [pt(0, 0)]
    assert convex_hull([pt(1, 2)] * 3) == [pt(1, 2)]


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
