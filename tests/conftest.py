import random
import zlib

import pytest
from hypothesis import settings

from polyattain.moves import elementary_matrix, identity_matrix, is_stochastic, mat_mul
from polyattain.polygon import polygon

# The same examples on every run, and no example database on disk.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


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
