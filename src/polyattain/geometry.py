"""Exact rational planar kernel: points, lines, rays, perspectivities.

Every predicate and construction here is exact; all scalars are
``fractions.Fraction`` and no tolerances exist anywhere.  The hot
predicates ``orient`` and ``forward_sign`` work on numerators and
denominators as plain integers, so they build no Fraction and take no gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

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


def dot(u: Point, v: Point) -> Rat:
    return u.x * v.x + u.y * v.y


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the determinant |b-a, c-a|: +1 if c is strictly left of the
    directed line through a and b, 0 if collinear, -1 if strictly right."""
    axn, axd, ayn, ayd = a.x.numerator, a.x.denominator, a.y.numerator, a.y.denominator
    bxn, bxd, byn, byd = b.x.numerator, b.x.denominator, b.y.numerator, b.y.denominator
    cxn, cxd, cyn, cyd = c.x.numerator, c.x.denominator, c.y.numerator, c.y.denominator
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
    axn, axd, ayn, ayd = a.x.numerator, a.x.denominator, a.y.numerator, a.y.denominator
    bxn, bxd, byn, byd = b.x.numerator, b.x.denominator, b.y.numerator, b.y.denominator
    cxn, cxd, cyn, cyd = c.x.numerator, c.x.denominator, c.y.numerator, c.y.denominator
    p1 = bxn * axd - axn * bxd  # the same differences as in orient
    p2 = cyn * ayd - ayn * cyd
    p3 = byn * ayd - ayn * byd
    p4 = cxn * axd - axn * cxd
    # The dot product times the positive bxd*cxd*axd^2 * byd*cyd*ayd^2.
    d = p1 * p4 * byd * ayd * cyd * ayd + p3 * p2 * bxd * axd * cxd * axd
    return (d > 0) - (d < 0)


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
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 0:  # all points collinear: lower is the sorted chain
        return [pts[0], pts[-1]]
    if len(hull) == 2 and hull[0] == hull[1]:
        return [hull[0]]
    return hull


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
    if a == b:
        return q == a
    if orient(a, b, q) != 0:
        return False
    # Collinear: q between a and b iff (q-a).(q-b) <= 0.
    return forward_sign(q, a, b) <= 0


def segment_param(a: Point, b: Point, q: Point) -> Rat | None:
    """Parameter t with q = (1-t)a + t b, or None if q is off the line a-b."""
    if a == b:
        return Rat(0) if q == a else None
    if orient(a, b, q) != 0:
        return None
    d = b - a
    if d.x != 0:
        return (q.x - a.x) / d.x
    return (q.y - a.y) / d.y


def line_intersection(a: Point, da: Point, b: Point, db: Point) -> Point | None:
    """Intersection of lines a + t*da and b + s*db; None if parallel."""
    den = cross(da, db)
    if den == 0:
        return None
    t = cross(b - a, db) / den
    return a + da.scale(t)


def _primitive(d: Point) -> tuple[int, int] | None:
    """Primitive integer direction of d keeping its sign; None for zero."""
    if d.x == 0 and d.y == 0:
        return None
    q = d.x.denominator * d.y.denominator
    nx = d.x.numerator * (q // d.x.denominator)
    ny = d.y.numerator * (q // d.y.denominator)
    g = gcd(abs(nx), abs(ny))
    return (nx // g, ny // g)


@dataclass(frozen=True)
class DirectedLine:
    """A line with one of its two orders, fixed by base and direction."""

    base: Point
    dir: Point

    def __post_init__(self):
        if self.dir == Point(Rat(0), Rat(0)):
            raise ValueError("zero direction")

    @staticmethod
    def through(a: Point, b: Point) -> "DirectedLine":
        if a == b:
            raise ValueError("coincident points do not determine a line")
        return DirectedLine(a, b - a)

    def contains(self, q: Point) -> bool:
        return orient(self.base, self.base + self.dir, q) == 0

    def param(self, q: Point) -> Rat:
        """Order-compatible coordinate of a point on the line."""
        if not self.contains(q):
            raise ValueError("point not on line")
        d = self.dir
        if d.x != 0:
            return (q.x - self.base.x) / d.x
        return (q.y - self.base.y) / d.y

    def at(self, t: Rat) -> Point:
        return self.base + self.dir.scale(t)

    def same_line(self, other: "DirectedLine") -> bool:
        return self.contains(other.base) and cross(self.dir, other.dir) == 0

    def __eq__(self, other) -> bool:
        """Same point set and positively proportional directions."""
        if not isinstance(other, DirectedLine):
            return NotImplemented
        return (
            self.same_line(other)
            and dot(self.dir, other.dir) > 0
        )

    def __hash__(self):
        # Canonical: primitive direction plus the foot through the origin.
        d = _primitive(self.dir)
        t = -(self.base.x * self.dir.x + self.base.y * self.dir.y) / dot(self.dir, self.dir)
        foot = self.at(t)
        return hash((d, foot))


@dataclass(frozen=True)
class Ray:
    origin: Point
    dir: Point

    def __post_init__(self):
        if self.dir == Point(Rat(0), Rat(0)):
            raise ValueError("zero direction")

    def at(self, t: Rat) -> Point:
        return self.origin + self.dir.scale(t)


class Pole:
    """Distinguished outcome for evaluating a perspectivity at its pole."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Pole"


POLE = Pole()


@dataclass(frozen=True)
class Perspectivity:
    """Central projection from one directed line to another."""

    source: DirectedLine
    target: DirectedLine
    center: Point

    def __post_init__(self):
        if self.source.same_line(self.target):
            raise ValueError("source and target must be distinct lines")
        if self.source.contains(self.center) or self.target.contains(self.center):
            raise ValueError("center must avoid both lines")

    def __call__(self, q: Point) -> Point | Pole:
        return persp_eval(self, q)


def persp_eval(p: Perspectivity, q: Point) -> Point | Pole:
    """Image of q under the perspectivity: line(center, q) meet target.

    Returns POLE when that line is parallel to the target.
    """
    if not p.source.contains(q):
        raise ValueError("point not on the source line")
    d = q - p.center  # nonzero: the center avoids the source
    hit = line_intersection(p.center, d, p.target.base, p.target.dir)
    if hit is None:
        return POLE
    return hit


def persp_pole(p: Perspectivity) -> Point | None:
    """The source point whose image is undefined, or None (affine case)."""
    if cross(p.source.dir, p.target.dir) == 0:
        return None
    hit = line_intersection(p.source.base, p.source.dir, p.center, p.target.dir)
    assert hit is not None
    return hit


@dataclass(frozen=True)
class PerspClass:
    kind: str  # "affine" | "preserving" | "reversing"
    pole: Point | None


def persp_classify(p: Perspectivity) -> PerspClass:
    """Affine iff no pole; otherwise increasing/decreasing away from the pole.

    The induced coordinate map is fractional linear, f(t) = (at+b)/(e(ct+d));
    its monotonic direction is the sign of a*d - b*c.
    """
    pole = persp_pole(p)
    if pole is None:
        return PerspClass("affine", None)
    s, t, o = p.source, p.target, p.center
    c = cross(s.dir, t.dir)
    d = cross(s.base - o, t.dir)
    k = cross(t.base - o, t.dir)
    cp = dot(s.dir, t.dir)
    dp = dot(s.base - o, t.dir)
    a = dot(o - t.base, t.dir) * c + k * cp
    b = dot(o - t.base, t.dir) * d + k * dp
    det = a * d - b * c
    assert det != 0
    return PerspClass("preserving" if det > 0 else "reversing", pole)
