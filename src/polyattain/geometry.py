"""Exact rational planar kernel: points, segments and convex hulls.

Every predicate and construction here is exact; all scalars are
``fractions.Fraction`` and no tolerances exist anywhere.  The predicates
work on points as homogeneous integer triples (x*w, y*w, w) (`_triple`):
an orientation is the sign of one determinant (`_side` of `_det`), a
direction sign one dot product (`_forward`), and a crossing the quotient
of two determinants (`_crossing`).  `orient` and `forward_sign` apply them
to three points; a polygon keeps its vertex table (`homogeneous`), so its
queries convert only the query point.
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


Triple = tuple[int, int, int]


def _triple(v: Point) -> Triple:
    """The point (x, y) as the integer triple (x*w, y*w, w), with w > 0 the
    lcm of its own two denominators."""
    (xn, xd), (yn, yd) = v.x.as_integer_ratio(), v.y.as_integer_ratio()
    if xd == yd:
        return xn, yn, xd
    w = lcm(xd, yd)
    return xn * (w // xd), yn * (w // yd), w


def homogeneous(points) -> tuple[Triple, ...]:
    """A polygon's vertex table: the `_triple` of each point."""
    return tuple(map(_triple, points))


def _det(f: Triple, u: Triple, v: Triple) -> int:
    """W*u_w*v_w times orient(f, u, v), for points given as homogeneous
    integer triples (X, Y, W) with W > 0."""
    X, Y, W = f
    return (X * (u[1] * v[2] - v[1] * u[2]) - Y * (u[0] * v[2] - v[0] * u[2])
            + W * (u[0] * v[1] - u[1] * v[0]))


def _side(f: Triple, u: Triple, v: Triple) -> int:
    """orient on triples: +1 if v is strictly left of the line from f to
    u, 0 if collinear, -1 if strictly right."""
    return ((d := _det(f, u, v)) > 0) - (d < 0)


def _forward(f: Triple, u: Triple, v: Triple) -> int:
    """forward_sign on triples: the sign of (u - f).(v - f)."""
    X, Y, W = f
    d = ((W * u[0] - X * u[2]) * (W * v[0] - X * v[2])
         + (W * u[1] - Y * u[2]) * (W * v[1] - Y * v[2]))
    return (d > 0) - (d < 0)


def _at(f: Triple, u: Triple) -> bool:
    """f and u are the same point."""
    X, Y, W = f
    return u[0] * W == X * u[2] and u[1] * W == Y * u[2]


def _on_segment(a: Triple, b: Triple, f: Triple) -> bool:
    """f lies in the closed segment [a, b]: on its line, and (a-f).(b-f)
    <= 0, which leaves only f == a when a == b."""
    return not _det(a, b, f) and _forward(f, a, b) <= 0


def _crossing(f: Triple, g: Triple, a: Triple, b: Triple) -> Rat:
    """The s with a + s(b - a) on the line f-g, which must cross line a-b:
    the signed area of (f, g, .) is affine along a-b, and `_det` of a or b
    is it times f_w*g_w and that point's own w."""
    da, db = b[2] * _det(f, g, a), a[2] * _det(f, g, b)
    return Rat(da, da - db)


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the determinant |b-a, c-a|: +1 if c is strictly left of the
    directed line through a and b, 0 if collinear, -1 if strictly right."""
    return _side(_triple(a), _triple(b), _triple(c))


def forward_sign(a: Point, b: Point, c: Point) -> int:
    """Sign of (b-a).(c-a); positive when c is on b's side of a."""
    return _forward(_triple(a), _triple(b), _triple(c))


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
    return _on_segment(_triple(a), _triple(b), _triple(q))


def segment_param(a: Point, b: Point, q: Point) -> Rat | None:
    """Parameter t with q = (1-t)a + t b, or None if q is off the line a-b."""
    if _det(_triple(a), _triple(b), _triple(q)):  # never when a == b
        return None
    if a == b:
        return Rat(0) if q == a else None
    d = b - a
    if d.x != 0:
        return (q.x - a.x) / d.x
    return (q.y - a.y) / d.y
