"""Acceptance suite: one test per criterion, at full stated size.

Every check is exact (zero tolerance).  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion PASS lines.
"""

import random
import time
from fractions import Fraction

from polyattain.attainability import (
    ATTAINABLE_DEGENERATE,
    ATTAINABLE_VESTIBULE,
    decide,
    threshold_test,
)
from polyattain.degeneracy import certify_witness, is_degenerate
from polyattain.gen import (
    generate,
    random_boundary_point,
    random_convex_polygon,
    random_interior_inner,
    random_inner,
    random_script,
)
from polyattain.geometry import Point, pt, segment_contains
from polyattain.moves import (
    elementary_matrix,
    is_stochastic,
    mat_apply,
    mat_mul,
    replay,
    script_to_matrix,
    verify_script,
)
from polyattain.planners import DEGENERATE_LT_5N, THRESHOLD_2N_MINUS_1, VESTIBULE_2N
from polyattain.polygon import Polygon, boundary_key, co_contains, polygon
from polyattain.poncelet import blc, gamma_sets, poncelet, poncelet_cw

from conftest import dense_product

ATTAINABLE = (ATTAINABLE_DEGENERATE, ATTAINABLE_VESTIBULE)


def _passline(k, text, t0):
    print(f"\nACCEPTANCE {k}: PASS - {text} [{time.time() - t0:.1f}s]")


def _nondegenerate_instance(rng, nmin=4, nmax=8):
    while True:
        n = rng.randint(nmin, nmax)
        P, Pp, _ = generate(rng, n, "scripted")
        if not Pp.is_collinear and not is_degenerate(P, Pp).degenerate:
            return P, Pp


def test_criterion_1_worked_instances():
    t0 = time.time()
    P = polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    Pp = polygon([("1/4", "1/4"), ("3/4", "1/4"), ("3/4", "3/4"), ("1/4", "3/4")])
    Pbar = polygon([("1/4", 0), ("3/4", "1/4"), ("3/4", "3/4"), ("1/4", "3/4")])

    assert poncelet(P, Pp, pt("1/2", 0)).realize() == pt(1, "1/2")

    res = blc(P, Pp, P.locate_boundary(pt(0, 0)))
    assert [b.realize() for b in res.points] == [
        pt(0, 0), pt(1, "1/3"), pt("3/5", 1), pt(0, "4/7"),
    ]

    js = gamma_sets(P, Pp)
    assert {b.realize() for b in js.gamma1} == {
        pt(0, "1/4"), pt("3/4", 0), pt(1, "3/4"), pt("1/4", 1),
    }

    cert = threshold_test(P, Pbar, 0)
    assert cert is not None and cert.direction == "cw"
    assert cert.points[-1].realize() == pt("7/12", 0)

    v = decide(P, Pp, plan_moves=True)
    assert v.status == ATTAINABLE_VESTIBULE
    assert len(v.plan.script.moves) <= 8
    assert verify_script(v.plan.script, Pp).ok
    _passline(1, "unit-square family reproduces every derived value exactly", t0)


def test_criterion_2_blc_structural_suite():
    t0 = time.time()
    rng = random.Random(20201)
    for _ in range(1000):
        n = rng.randint(4, 8)
        P = random_convex_polygon(rng, n)
        Pp = random_inner(rng, P)
        if Pp.is_collinear:
            continue
        x = random_boundary_point(rng, P)
        res = blc(P, Pp, x)
        l = res.l
        assert 3 <= l <= n + 1
        anchor = res.points[0]
        keys = [boundary_key(anchor, b) for b in res.points[1:]]
        assert keys == sorted(keys)  # (i) inscribed, ccw order
        per_edge = {}
        for b in res.points:
            per_edge.setdefault(b.edge, []).append(b)
        for e, members in per_edge.items():  # (ii)
            assert len(members) <= (2 if e == res.points[0].edge else 1)
        Q = Polygon(tuple(b.realize() for b in res.points))
        if Q.is_convex_ccw:  # (iii) + (iv)
            assert co_contains(Q, Pp)
        else:
            Qp = Polygon(tuple(b.realize() for b in res.points[1:]))
            assert Qp.is_convex_ccw and co_contains(Qp, Pp)
        for k in range(l - 1):  # (v)
            a, b = res.points[k].realize(), res.points[k + 1].realize()
            piv = res.pivots[k]
            assert segment_contains(a, b, piv) and piv != a
    _passline(2, "1000 random construction runs satisfy all five clauses", t0)


def test_criterion_3_inverse_map_suite():
    t0 = time.time()
    rng = random.Random(20301)
    done = 0
    while done < 1000:
        P = random_convex_polygon(rng, rng.randint(4, 8))
        Pp = random_interior_inner(rng, P)
        if Pp.is_collinear:
            continue
        for _ in range(20):
            x = random_boundary_point(rng, P)
            assert poncelet_cw(P, Pp, poncelet(P, Pp, x)) == x
            assert poncelet(P, Pp, poncelet_cw(P, Pp, x)) == x
            done += 1
    _passline(3, "both inverse identities hold on 1000 boundary points", t0)


def test_criterion_4_orientation_suite():
    t0 = time.time()
    from polyattain.polygon import in_arc

    rng = random.Random(20401)
    instances = 0
    while instances < 100:
        P = random_convex_polygon(rng, rng.randint(4, 7))
        Pp = random_inner(rng, P)
        if Pp.is_collinear:
            continue
        instances += 1
        pool = list({random_boundary_point(rng, P, den=64) for _ in range(30)})
        image = {b: poncelet(P, Pp, b) for b in pool}
        for _ in range(1000):
            x, y, z = (rng.choice(pool) for _ in range(3))
            # the arc-mapping clause
            fx = image[x]
            if z != x and z != fx and in_arc(x, fx, z, True, True):
                assert in_arc(fx, x, image[z], True, False)
            # the orientation-preservation clause
            if x == y or image[x] == image[y]:
                continue
            if in_arc(x, y, z, True, True):
                assert in_arc(image[x], image[y], image[z], True, True)
    _passline(4, "zero violations over 100 instances x 1000 sampled triples", t0)


def test_criterion_5_degeneracy_self_certification():
    t0 = time.time()
    rng = random.Random(20501)
    degenerate_seen = nondegenerate_seen = 0
    for trial in range(1000):
        n = rng.randint(4, 8)
        mode = ("random", "scripted", "degenerate")[trial % 3]
        P, Pp, _ = generate(rng, n, mode)
        v = is_degenerate(P, Pp)
        if v.degenerate:
            degenerate_seen += 1
            assert certify_witness(P, Pp, v.witness)
        else:
            nondegenerate_seen += 1
            for _ in range(1000):
                res = blc(P, Pp, random_boundary_point(rng, P, den=64))
                assert res.l >= n
    assert degenerate_seen > 0 and nondegenerate_seen > 0
    _passline(
        5,
        f"{degenerate_seen} witnesses certified; {nondegenerate_seen} "
        "non-degenerate verdicts survive 1000 extra runs each",
        t0,
    )


def _aligned_shrink(rng, P):
    n = P.n
    cx = sum(v.x for v in P.vertices) / n
    cy = sum(v.y for v in P.vertices) / n
    f = Fraction(rng.randint(6, 11), 12)
    return Polygon(tuple(
        Point(cx + (v.x - cx) * f, cy + (v.y - cy) * f) for v in P.vertices
    ))


def test_criterion_6_bang_bang_bounds():
    t0 = time.time()
    rng = random.Random(20601)
    counts = {}
    planned = 0
    while planned < 500:
        n = rng.randint(4, 7)
        mode = ("degenerate", "scripted", "random", "shrink")[planned % 4]
        if mode == "shrink":
            P = random_convex_polygon(rng, n)
            Pp = _aligned_shrink(rng, P)
        else:
            P, Pp, _ = generate(rng, n, mode)
        v = decide(P, Pp, plan_moves=True)
        if v.plan is None:
            continue
        planned += 1
        k = len(v.plan.script.moves)
        counts[v.plan.bound_class] = counts.get(v.plan.bound_class, 0) + 1
        if v.plan.bound_class == DEGENERATE_LT_5N:
            assert k < 5 * n
        elif v.plan.bound_class == THRESHOLD_2N_MINUS_1:
            assert k <= 2 * n - 1
        elif v.plan.bound_class == VESTIBULE_2N:
            assert k <= 2 * n
        else:
            raise AssertionError(v.plan.bound_class)
        assert verify_script(v.plan.script, Pp).ok
    assert all(
        counts.get(cls, 0) > 0
        for cls in (DEGENERATE_LT_5N, THRESHOLD_2N_MINUS_1, VESTIBULE_2N)
    )
    _passline(6, f"500 planned scripts verify within bounds {counts}", t0)


def test_criterion_7_closure_suite():
    t0 = time.time()
    rng = random.Random(20701)
    for _ in range(500):
        n = rng.randint(4, 6)
        P = random_convex_polygon(rng, n)
        s = random_script(rng, P, rng.randint(1, 10))
        v = decide(P, replay(s))
        assert v.status in ATTAINABLE, (P, s.moves, v.status)
    _passline(7, "500 random pull-in endpoints all classified attainable", t0)


def test_criterion_8_matrix_suite():
    t0 = time.time()
    rng = random.Random(20801)
    for _ in range(500):
        P = random_convex_polygon(rng, rng.randint(3, 6))
        s = random_script(rng, P, rng.randint(0, 10))
        D = script_to_matrix(s)
        assert is_stochastic(D)
        assert D == dense_product(s)  # each factor, built from its move, is stochastic too
        assert mat_apply(D, P) == replay(s)
    for _ in range(100):
        c = Fraction(rng.randint(0, 12), 12)
        d = Fraction(rng.randint(0, 12), 12)
        lhs = mat_mul(elementary_matrix(5, 2, 4, d), elementary_matrix(5, 2, 4, c))
        assert lhs == elementary_matrix(5, 2, 4, c + d - c * d)
    for _ in range(100):
        c = Fraction(rng.randint(0, 12), 12)
        d = Fraction(rng.randint(0, 12), 12)
        A = elementary_matrix(6, 0, 3, c)
        B = elementary_matrix(6, 4, 1, d)
        assert mat_mul(A, B) == mat_mul(B, A)
    _passline(8, "matrix/geometry/dense-factor agreement, merge identity, disjoint commutation", t0)


def test_criterion_9_threshold_slide():
    t0 = time.time()
    rng = random.Random(20901)
    certified = 0
    while certified < 100:
        P, Pp = _nondegenerate_instance(rng, 4, 6)
        found = None
        for i in range(P.n):
            for pusher in ((i - 1) % P.n, (i + 1) % P.n):
                from polyattain.polygon import ray_polygon_exit

                origin, through = Pp.vertices[pusher], Pp.vertices[i]
                if origin == through:
                    continue
                landing = ray_polygon_exit(P, origin, through - origin).realize()
                pushed = Pp.replace(i, landing)
                if threshold_test(P, pushed, i) is not None:
                    found = (i, pushed, landing)
                    break
            if found:
                break
        if found is None:
            continue
        certified += 1
        i, member, p_bar = found
        corner = P.vertices[i]
        for j in range(1, 6):
            lam = Fraction(j, 6)
            slid = member.replace(
                i,
                Point(
                    p_bar.x + (corner.x - p_bar.x) * lam,
                    p_bar.y + (corner.y - p_bar.y) * lam,
                ),
            )
            assert decide(P, slid).status in ATTAINABLE
    _passline(9, "100 certified threshold members stay attainable under sliding", t0)
