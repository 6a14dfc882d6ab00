from fractions import Fraction

import pytest

from polyattain.geometry import pt
from polyattain.moves import (
    MoveScript,
    PullIn,
    PushOut,
    apply_pullin,
    apply_pushout,
    elementary_matrix,
    identity_matrix,
    invert_pushout,
    is_stochastic,
    mat_apply,
    mat_mul,
    replay,
    script_to_matrix,
    verify_script,
)
from polyattain.polygon import co_contains, polygon

from conftest import dense_product, rng_for


def test_apply_pullin_examples(square):
    out = apply_pullin(square, PullIn(1, 0, Fraction(1, 2)))
    assert out == polygon([(0, 0), ("1/2", 0), (1, 1), (0, 1)])
    assert apply_pullin(square, PullIn(1, 0, Fraction(0))) == square
    out = apply_pullin(square, PullIn(1, 0, Fraction(1)))
    assert out.vertices[1] == pt(0, 0)


def test_pullin_validation(square):
    with pytest.raises(ValueError):
        PullIn(1, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        PullIn(1, 0, Fraction(3, 2))
    with pytest.raises(IndexError):
        apply_pullin(square, PullIn(7, 0, Fraction(1, 2)))


def test_pushout_and_inverse(inner_square, pushed_square):
    m = PushOut(0, 3, pt("1/4", 0))
    out = apply_pushout(inner_square, m)
    assert out == pushed_square
    inv = invert_pushout(inner_square, m)
    assert inv == PullIn(0, 3, Fraction(1, 3))
    assert apply_pullin(out, inv) == inner_square


def test_pushout_identity_and_double(square, inner_square):
    m = PushOut(0, 1, inner_square.vertices[0])
    assert invert_pushout(inner_square, m).c == 0
    doubled = polygon([(0, 0), (0, 0), (1, 1), (0, 1)])
    m = PushOut(0, 1, pt(5, 5))
    assert invert_pushout(doubled, m).c == 1
    assert apply_pushout(doubled, m).vertices[0] == pt(5, 5)


def test_pushout_invariant_enforced(square):
    with pytest.raises(ValueError):
        apply_pushout(square, PushOut(0, 1, pt(5, 5)))  # (0,0) not on [(1,0),(5,5)]


def test_verify_script_examples(square):
    empty = MoveScript(square, tuple())
    assert verify_script(empty, square).ok
    s = MoveScript(square, (PullIn(1, 0, Fraction(1, 2)),))
    good = polygon([(0, 0), ("1/2", 0), (1, 1), (0, 1)])
    assert verify_script(s, good).ok
    rep = verify_script(s, square)
    assert not rep.ok and "vertex 2" in rep.failure


def test_script_to_matrix_single_move(square):
    s = MoveScript(square, (PullIn(1, 0, Fraction(1, 2)),))
    D = script_to_matrix(s)
    assert D == elementary_matrix(4, 1, 0, Fraction(1, 2)) == dense_product(s)
    assert D[1] == (Fraction(1, 2), Fraction(1, 2), 0, 0)
    assert D[0] == (1, 0, 0, 0) and D[2] == (0, 0, 1, 0) and D[3] == (0, 0, 0, 1)
    assert mat_apply(D, square) == replay(s)


def test_script_to_matrix_empty(square):
    s = MoveScript(square, tuple())
    assert script_to_matrix(s) == identity_matrix(4) == dense_product(s)


def test_equal_index_factors_merge():
    """K(d) K(c) = K(c + d - c d) for a repeated (mover, target) pair."""
    rng = rng_for("merge")
    for _ in range(100):
        c = Fraction(rng.randint(0, 8), 8)
        d = Fraction(rng.randint(0, 8), 8)
        K1 = elementary_matrix(4, 1, 0, c)
        K2 = elementary_matrix(4, 1, 0, d)
        assert mat_mul(K2, K1) == elementary_matrix(4, 1, 0, c + d - c * d)
    assert mat_mul(
        elementary_matrix(4, 1, 0, Fraction(1, 2)),
        elementary_matrix(4, 1, 0, Fraction(1, 2)),
    ) == elementary_matrix(4, 1, 0, Fraction(3, 4))


def test_random_scripts_match_matrices():
    """The product is stochastic, equals the dense product of the stochastic
    factors and maps P onto the replayed end; the second batch draws c from
    {0, 1} or {0, 1/2, 1}, so rows are copied and left alone as well."""
    from polyattain.gen import random_convex_polygon, random_script

    rng = rng_for("matrix-agreement")
    scripts = []
    for _ in range(120):
        P = random_convex_polygon(rng, rng.randint(3, 6))
        scripts.append(random_script(rng, P, rng.randint(0, 10)))
    for _ in range(60):
        P = random_convex_polygon(rng, rng.randint(3, 6))
        scripts.append(random_script(rng, P, rng.randint(1, 12), den=rng.choice((1, 2))))
    assert {0, 1} <= {m.c for s in scripts[120:] for m in s.moves}
    for s in scripts:
        D = script_to_matrix(s)
        assert is_stochastic(D)
        assert D == dense_product(s)
        assert mat_apply(D, s.start) == replay(s)


def test_pullin_states_decrease(square):
    rng = rng_for("decreasing")
    from itertools import chain

    from polyattain.gen import random_convex_polygon, random_script

    drawn = (random_convex_polygon(rng, n) for n in range(3, 7) for _ in range(30))
    for P in chain([square] * 60, drawn):
        s = random_script(rng, P, 6)
        cur = P
        for m in s.moves:
            nxt = apply_pullin(cur, m)
            assert co_contains(cur, nxt)
            cur = nxt


def test_pushout_round_trip():
    rng = rng_for("push-round")
    from polyattain.gen import random_convex_polygon, random_inner
    from polyattain.polygon import ray_polygon_exit

    for _ in range(100):
        P = random_convex_polygon(rng, 4)
        Q = random_inner(rng, P)
        i = rng.randrange(4)
        j = (i + rng.choice((1, 3))) % 4
        qi, qj = Q.vertices[i], Q.vertices[j]
        if qi == qj:
            continue
        landing = ray_polygon_exit(P, qj, qi - qj).realize()
        m = PushOut(i, j, landing)
        out = apply_pushout(Q, m)
        assert apply_pullin(out, invert_pushout(Q, m)) == Q
