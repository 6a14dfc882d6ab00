"""Exact rational planar kernel: points, segments and convex hulls.

Every predicate and construction here is exact; all scalars are
``fractions.Fraction`` and no tolerances exist anywhere.  The hot
predicates ``orient`` and ``forward_sign`` work on numerators and
denominators as plain integers, so they build no Fraction and take no gcd.
A polygon's vertices are also kept as homogeneous integer triples
(`homogeneous`), on which an orientation is one determinant (`_det`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

Rat = Fraction


def rat(v) -> Rat:
    """Coerce an int, string ("3", "3/4", "0.25") or Fraction to Rat, exactly."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, float):
        raise TypeError("floats are not accepted; use ints or rational strings")
    return Fraction(v)


@dataclass(frozen=True, order=True)
class Point:
    x: Rat
    y: Rat

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scale(self, k: Rat) -> "Point":
        return Point(self.x * k, self.y * k)

    def __repr__(self) -> str:
        return f"({self.x}, {self.y})"


def pt(x, y) -> Point:
    return Point(rat(x), rat(y))


def cross(u: Point, v: Point) -> Rat:
    return u.x * v.y - u.y * v.x


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the determinant |b-a, c-a|: +1 if c is strictly left of the
    directed line through a and b, 0 if collinear, -1 if strictly right."""
    (axn, axd), (ayn, ayd) = a.x.as_integer_ratio(), a.y.as_integer_ratio()
    (bxn, bxd), (byn, byd) = b.x.as_integer_ratio(), b.y.as_integer_ratio()
    (cxn, cxd), (cyn, cyd) = c.x.as_integer_ratio(), c.y.as_integer_ratio()
    # With positive denominators: (b-a).x = p1/(bxd*axd), (c-a).y = p2/(cyd*ayd),
    # (b-a).y = p3/(byd*ayd), (c-a).x = p4/(cxd*axd).
    p1 = bxn * axd - axn * bxd
    p2 = cyn * ayd - ayn * cyd
    p3 = byn * ayd - ayn * byd
    p4 = cxn * axd - axn * cxd
    # The determinant times the positive bxd*byd*cxd*cyd*axd*ayd.
    d = p1 * p2 * byd * cxd - p3 * p4 * bxd * cyd
    return (d > 0) - (d < 0)


def forward_sign(a: Point, b: Point, c: Point) -> int:
    """Sign of (b-a).(c-a); positive when c is on b's side of a."""
    (axn, axd), (ayn, ayd) = a.x.as_integer_ratio(), a.y.as_integer_ratio()
    (bxn, bxd), (byn, byd) = b.x.as_integer_ratio(), b.y.as_integer_ratio()
    (cxn, cxd), (cyn, cyd) = c.x.as_integer_ratio(), c.y.as_integer_ratio()
    p1 = bxn * axd - axn * bxd  # the same differences as in orient
    p2 = cyn * ayd - ayn * cyd
    p3 = byn * ayd - ayn * byd
    p4 = cxn * axd - axn * cxd
    # The dot product times the positive bxd*cxd*axd^2 * byd*cyd*ayd^2.
    d = p1 * p4 * byd * ayd * cyd * ayd + p3 * p2 * bxd * axd * cxd * axd
    return (d > 0) - (d < 0)


Triple = tuple[int, int, int]


def homogeneous(points) -> tuple[Triple, ...]:
    """Each point (x, y) as the integer triple (x*w, y*w, w), with w > 0 the
    lcm of that point's own two denominators."""
    out = []
    for v in points:
        xd, yd = v.x.denominator, v.y.denominator
        w = lcm(xd, yd)
        out.append((v.x.numerator * (w // xd), v.y.numerator * (w // yd), w))
    return tuple(out)


def _det(f: Triple, u: Triple, v: Triple) -> int:
    """W*u_w*v_w times orient(f, u, v), for points given as homogeneous
    integer triples (X, Y, W) with W > 0."""
    X, Y, W = f
    return (X * (u[1] * v[2] - v[1] * u[2]) - Y * (u[0] * v[2] - v[0] * u[2])
            + W * (u[0] * v[1] - u[1] * v[0]))


def convex_hull(points: list[Point]) -> list[Point]:
    """Extreme points of the hull in counterclockwise order.

    Monotone chain over the lexicographically sorted distinct points with
    exact orientation tests; collinear points are dropped so no three
    consecutive output points are collinear.  A single point or a segment
    comes back as 1 or 2 points.  Output starts at the lexicographic
    minimum, which makes the result canonical.
    """
    if not points:
        raise ValueError("convex_hull of an empty set")
    pts = sorted(set(points))
    if len(pts) == 1:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and orient(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def collinear_points(points: list[Point]) -> bool:
    """True iff all points lie on one line (single points count)."""
    base = points[0]
    other = None
    for q in points[1:]:
        if q != base:
            other = q
            break
    if other is None:
        return True
    return all(orient(base, other, q) == 0 for q in points)


def segment_contains(a: Point, b: Point, q: Point) -> bool:
    """Exact test for q in the closed segment [a, b]."""
    if orient(a, b, q) != 0:  # never when a == b
        return False
    if a == b:
        return q == a
    # Collinear: q between a and b iff (q-a).(q-b) <= 0.
    return forward_sign(q, a, b) <= 0


def segment_param(a: Point, b: Point, q: Point) -> Rat | None:
    """Parameter t with q = (1-t)a + t b, or None if q is off the line a-b."""
    if orient(a, b, q) != 0:  # never when a == b
        return None
    if a == b:
        return Rat(0) if q == a else None
    d = b - a
    if d.x != 0:
        return (q.x - a.x) / d.x
    return (q.y - a.y) / d.y
