import random
import zlib
from fractions import Fraction

import pytest
from hypothesis import settings

from polyattain.gen import random_convex_polygon
from polyattain.geometry import Point
from polyattain.moves import elementary_matrix, identity_matrix, is_stochastic, mat_mul
from polyattain.polygon import Polygon, polygon

# The same examples on every run, and no example database on disk.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


# Targets inside the unit square with another vertex count than it.
PENTAGON_IN_SQUARE = polygon([("1/4", "1/4"), ("3/4", "1/4"), ("3/4", "1/2"), ("1/2", "3/4"), ("1/4", "1/2")])
TRIANGLE_IN_SQUARE = polygon([("1/4", "1/4"), ("3/4", "1/4"), ("1/2", "3/4")])


@pytest.fixture
def square():
    return polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture
def inner_square():
    return polygon([("1/4", "1/4"), ("3/4", "1/4"), ("3/4", "3/4"), ("1/4", "3/4")])


@pytest.fixture
def pushed_square():
    """The inner square with its first vertex pushed out to (1/4, 0)."""
    return polygon([("1/4", 0), ("3/4", "1/4"), ("3/4", "3/4"), ("1/4", "3/4")])


@pytest.fixture
def corner_quad():
    return polygon([("1/4", "1/4"), ("1/2", "1/4"), ("1/2", "1/2"), ("1/4", "1/2")])


def rational_polygon(rng, n: int) -> Polygon:
    """A random convex CCW n-gon, moved by a rational shift and scale so
    that coordinates carry denominators."""
    P = random_convex_polygon(rng, n)
    k = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    dx, dy = Fraction(rng.randint(-9, 9), rng.randint(1, 7)), Fraction(rng.randint(-9, 9), 5)
    return Polygon(tuple(Point(v.x * k + dx, v.y * k + dy) for v in P.vertices))


def rng_for(name: str) -> random.Random:
    """A generator seeded from the name alone, so every run draws the same
    instances whatever the process's PYTHONHASHSEED."""
    return random.Random(zlib.crc32(name.encode()))


def dense_product(s):
    """The oracle for script_to_matrix: each move's factor K^{ij}(c) built
    as a dense matrix and checked stochastic, and their product from the
    left."""
    n = s.start.n
    D = identity_matrix(n)
    for m in s.moves:
        K = elementary_matrix(n, m.mover, m.target, m.c)
        assert is_stochastic(K)
        D = mat_mul(K, D)
    return D
