"""Seeded random instance generation.

Three modes: `random` (convex outer polygon, inner vertices as convex
combinations), `scripted` (inner polygon produced by a random pull-in
script, so attainability is known), and `degenerate` (inner polygon packed
into a sub-hull spanned by n-1 of the outer vertices; a segment at n = 3).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate
from math import gcd

from .geometry import Point, Rat
from .moves import MoveScript, PullIn, replay
from .polygon import BoundaryPoint, Polygon

MODES = ("random", "scripted", "degenerate")


def random_convex_polygon(rng: random.Random, n: int) -> Polygon:
    """Convex CCW n-gon with small integer coordinates, built directly.

    The edges are multiples of n distinct primitive directions summing to
    zero, walked in angular order from the lowest leftmost vertex.  n-1 are
    random; the closing one is kept new by stretching an edge d_j not
    parallel to their sum s: the sums s + k*d_j lie on a line missing the
    origin, so their directions differ and some k < n leaves it unused.
    """
    r = 2 + n // 8
    pool = [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1) if gcd(a, b) == 1]
    dirs = rng.sample(pool, n - 1)
    if n == 3 and dirs[0] == (-dirs[1][0], -dirs[1][1]):
        dirs[1] = (-dirs[1][1], dirs[1][0])  # opposite edges close no triangle
    lens = [rng.randint(1, 3) for _ in dirs]
    sx = sum(m * a for m, (a, _) in zip(lens, dirs))
    sy = sum(m * b for m, (_, b) in zip(lens, dirs))
    if sx == sy == 0:
        lens[0] += 1
        sx, sy = dirs[0]
    j = next(j for j, (a, b) in enumerate(dirs) if a * sy != b * sx)
    a, b = dirs[j]
    for k in range(n):
        cx, cy = sx + k * a, sy + k * b
        g = gcd(cx, cy)
        if (-cx // g, -cy // g) not in dirs:
            break
    lens[j] += k
    edges = [(m * a, m * b) for m, (a, b) in zip(lens, dirs)] + [(-cx, -cy)]
    right = lambda v: v[0] > 0 or (v[0] == 0 and v[1] > 0)
    edges.sort(key=cmp_to_key(lambda u, v: right(v) - right(u) or u[1] * v[0] - u[0] * v[1]))
    verts = accumulate(edges[:-1], lambda p, e: (p[0] + e[0], p[1] + e[1]), initial=(0, 0))
    return Polygon(tuple(Point(Rat(x), Rat(y)) for x, y in verts))


def random_convex_combination(rng: random.Random, P: Polygon, den: int = 8) -> Point:
    return _combination(rng, P.vertices, den)


def _combination(rng: random.Random, vertices, den: int = 8) -> Point:
    weights = [Fraction(rng.randint(0, den)) for _ in vertices]
    total = sum(weights)
    if total == 0:
        weights[rng.randrange(len(vertices))] = Fraction(1)
        total = Fraction(1)
    x = sum((w * v.x for w, v in zip(weights, vertices)), Rat(0)) / total
    y = sum((w * v.y for w, v in zip(weights, vertices)), Rat(0)) / total
    return Point(x, y)


def random_inner(rng: random.Random, P: Polygon, den: int = 8) -> Polygon:
    return Polygon(tuple(random_convex_combination(rng, P, den) for _ in range(P.n)))


def random_interior_inner(rng: random.Random, P: Polygon, den: int = 8) -> Polygon:
    """Inner polygon with every vertex strictly inside P: each sampled
    combination is averaged with the vertex centroid."""
    n = P.n
    cx = sum((v.x for v in P.vertices), Rat(0)) / n
    cy = sum((v.y for v in P.vertices), Rat(0)) / n
    pts = []
    for _ in range(n):
        q = random_convex_combination(rng, P, den)
        lam = Fraction(rng.randint(1, den), den + 1)
        pts.append(Point(q.x + (cx - q.x) * lam, q.y + (cy - q.y) * lam))
    return Polygon(tuple(pts))


def random_script(rng: random.Random, P: Polygon, length: int, den: int = 6) -> MoveScript:
    moves = []
    for _ in range(length):
        i = rng.randrange(P.n)
        j = rng.randrange(P.n)
        while j == i:
            j = rng.randrange(P.n)
        moves.append(PullIn(i, j, Fraction(rng.randint(0, den), den)))
    return MoveScript(P, tuple(moves))


def random_boundary_point(rng: random.Random, P: Polygon, den: int = 16):
    return BoundaryPoint(P, rng.randrange(P.n), Fraction(rng.randint(0, den - 1), den))


def generate(rng: random.Random, n: int, mode: str) -> tuple[Polygon, Polygon, dict]:
    """One instance (P, Pprime, metadata) in the requested mode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    P = random_convex_polygon(rng, n)
    if mode == "random":
        return P, random_inner(rng, P), {}
    if mode == "scripted":
        script = random_script(rng, P, rng.randint(1, 2 * n))
        return P, replay(script), {"script_length": len(script.moves)}
    sub = list(range(n))
    sub.remove(rng.randrange(n))
    # At n = 3 the n-1 vertices span a segment, and the packed inner
    # polygon is collinear, which is degenerate too.
    Q = [P.vertices[k] for k in sub]
    Pp = Polygon(tuple(_combination(rng, Q) for _ in range(n)))
    return P, Pp, {"witness_vertices": sub}
