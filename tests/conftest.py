import random
import zlib
from fractions import Fraction

import pytest

from polyattain.geometry import Point
from polyattain.polygon import polygon


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


def rng_for(name: str) -> random.Random:
    """A generator seeded from the name alone, so every run draws the same
    instances whatever the process's PYTHONHASHSEED."""
    return random.Random(zlib.crc32(name.encode()))


def rational_point(rng: random.Random, spread: int = 10, den: int = 6) -> Point:
    return Point(
        Fraction(rng.randint(-spread, spread), rng.randint(1, den)),
        Fraction(rng.randint(-spread, spread), rng.randint(1, den)),
    )
