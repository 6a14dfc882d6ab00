"""Seeded exact-rational instance families for the benchmark.

Every outer polygon has its vertices at sorted rational points
((1-t^2)/(1+t^2), 2t/(1+t^2)) of the unit circle, so it is strictly convex
and listed counterclockwise for any n, and the construction always ends.
Nothing here imports polyattain: the program under test only ever sees the
generated coordinates.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

Point = tuple  # (Fraction, Fraction)

T_DEN = 256  # denominator bound of the circle parameters t
# Angular jitter of each vertex, as a share of the spacing 2*pi/n.  Kept small
# so that instances of one family and size cost about the same whatever the
# seed: the latency quantiles then measure the program, not the draw.
JITTER = 0.1


def circle_polygon(rng: random.Random, n: int) -> list[Point]:
    """n points of the unit circle, counterclockwise, near-evenly spread.

    Vertex k sits at the angle 2*pi*(k + 1/2 + jitter)/n - pi, snapped to a
    rational circle parameter t = tan(angle/2) with denominator at most
    T_DEN.  Neighbouring parameters differ by more than pi*(1-2*JITTER)/n
    while snapping moves each by at most 1/(2*T_DEN), so the order holds for
    n <= 600.  No angular gap reaches pi, so the origin is interior.
    """
    if not 3 <= n <= 600:
        raise ValueError("circle polygons are built for 3 <= n <= 600")
    ts = []
    for k in range(n):
        theta = 2 * math.pi * (k + 0.5 + rng.uniform(-JITTER, JITTER)) / n - math.pi
        ts.append(Fraction(math.tan(theta / 2)).limit_denominator(T_DEN))
    if any(a >= b for a, b in zip(ts, ts[1:])):
        raise AssertionError("circle parameters out of order")
    return [((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in ts]


def mix(a: Point, b: Point, c: Fraction) -> Point:
    """(1-c)*a + c*b."""
    return (a[0] + (b[0] - a[0]) * c, a[1] + (b[1] - a[1]) * c)


def scale(p: Point, f: Fraction) -> Point:
    return (p[0] * f, p[1] * f)


def convex_combination(rng: random.Random, pts: list[Point], wmax: int = 8) -> Point:
    ws = [rng.randint(0, wmax) for _ in pts]
    if not any(ws):
        ws[rng.randrange(len(pts))] = 1
    total = sum(ws)
    x = sum(w * p[0] for w, p in zip(ws, pts)) / total
    y = sum(w * p[1] for w, p in zip(ws, pts)) / total
    return (Fraction(x), Fraction(y))


# ---- families ---------------------------------------------------------------
# Each family maps (rng, n) to (P, Pprime).  The circle origin lies inside
# every outer polygon (no angular gap reaches pi), so scaling about it by
# f < 1 keeps a polygon inside.

def shrink_factor(n: int) -> Fraction:
    """1 - 1/n^2: close enough to 1 that no (n-1)-gon fits between."""
    return 1 - Fraction(1, n * n)


def fam_pack(rng, n):
    """Inner polygon packed into the hull of n-1 outer vertices: degenerate
    by construction."""
    P = circle_polygon(rng, n)
    drop = rng.randrange(n)
    Q = [p for k, p in enumerate(P) if k != drop]
    return P, [convex_combination(rng, Q) for _ in range(n)]


def fam_pullin(rng, n):
    """Endpoint of a random pull-in script: attainable by construction."""
    P = circle_polygon(rng, n)
    Pp = list(P)
    for _ in range(rng.randint(1, 2 * n)):
        i = rng.randrange(n)
        j = rng.choice([k for k in range(n) if k != i])
        Pp[i] = mix(Pp[i], Pp[j], Fraction(rng.randint(1, 6), 6))
    return P, Pp


def fam_random(rng, n):
    """Every inner vertex a random convex combination of the outer ones."""
    P = circle_polygon(rng, n)
    return P, [convex_combination(rng, P) for _ in range(n)]


def fam_shrink(rng, n):
    """Interior shrink about the circle centre."""
    P = circle_polygon(rng, n)
    return P, [scale(p, shrink_factor(n)) for p in P]


def _pulled(P, c):
    n = len(P)
    f = shrink_factor(n)
    return [scale(mix(P[k], P[(k + 1) % n], c), f) for k in range(n)]


def fam_simpull(rng, n):
    """Every vertex pulled three quarters of the way to its successor at
    once, then shrunk."""
    P = circle_polygon(rng, n)
    return P, _pulled(P, Fraction(3, 4))


def fam_boundary(rng, n):
    """Vertex 0 left on its corner, every other vertex pulled a quarter of
    the way to its successor and shrunk."""
    P = circle_polygon(rng, n)
    return P, [P[0]] + _pulled(P, Fraction(1, 4))[1:]


FAMILIES = {
    "pack": fam_pack,
    "pullin": fam_pullin,
    "random": fam_random,
    "shrink": fam_shrink,
    "simpull": fam_simpull,
    "boundary": fam_boundary,
}


def make(family: str, n: int, key: int):
    """Instance `key` of a family at size n; the same triple gives the same
    instance on every run."""
    rng = random.Random(f"{family}/{n}/{key}")
    return FAMILIES[family](rng, n)


def fmt(q: Fraction):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def instance_json(P, Pp) -> dict:
    return {"P": [[fmt(x), fmt(y)] for x, y in P], "Pprime": [[fmt(x), fmt(y)] for x, y in Pp]}


def digest(instances) -> str:
    """sha256 of the canonical JSON of a sequence of (P, Pprime) pairs."""
    h = hashlib.sha256()
    for P, Pp in instances:
        h.update(json.dumps(instance_json(P, Pp), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()
