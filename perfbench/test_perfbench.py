"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

import contextlib
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402
import gate  # noqa: E402
import instances as inst  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))
from polyattain import attainability, cli  # noqa: E402
from polyattain.polygon import polygon  # noqa: E402

LABELS = run.load_labels()


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    def digest(seed):
        reqs = run.build_requests(workload, seed, LABELS)
        return inst.digest([(it.P, it.Pp) for r in reqs for it in r.items])

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)


@pytest.mark.parametrize("n", [3, 4, 13, 24, 40])
def test_circle_polygons_are_strictly_convex_ccw(n):
    import random

    P = inst.circle_polygon(random.Random(n), n)
    assert all(cross(P[k], P[(k + 1) % n], P[(k + 2) % n]) > 0 for k in range(n))


def test_pooled_instances_match_their_labels():
    for fam, n, key in run.label_pools():
        assert run.make_item(fam, n, key, LABELS).expected in gate.VERDICTS


def test_gate_catches_flipped_verdicts():
    assert gate.check_verdict("AttainableDegenerate", "AttainableDegenerate") is None
    assert gate.check_verdict("attainable", "AttainableVestibule") is None
    assert gate.check_verdict("AttainableVestibule", "Unattainable")
    assert gate.check_verdict("attainable", "Unattainable")
    assert "negative" in gate.check_verdict("UnknownN3", "Unattainable")


def planned(family="pack", n=6, key=1):
    P, Pp = inst.make(family, n, key)
    v = attainability.decide(polygon(P), polygon(Pp), plan_moves=True)
    return P, Pp, v


def test_gate_catches_a_corrupted_move():
    P, Pp, v = planned()
    moves = [(m.mover, m.target, m.c) for m in v.plan.script.moves]
    assert gate.check_plan(P, Pp, v.status, moves, v.plan.bound_class) is None
    i, j, c = moves[-1]
    bad = moves[:-1] + [(i, j, c / 2 if c else Fraction(1, 2))]
    assert gate.check_plan(P, Pp, v.status, bad, v.plan.bound_class)
    assert gate.check_plan(P, Pp, v.status, moves[:-1] + [(i, i, c)], v.plan.bound_class)
    too_long = moves + [(0, 1, Fraction(0))] * (5 * len(P))
    assert "break" in gate.check_plan(P, Pp, v.status, too_long, v.plan.bound_class)
    assert gate.check_plan(P, Pp, v.status, None, None)


def test_runner_reports_a_wrong_label_as_failure():
    runner = run.Runner("small-mixed")
    P, Pp = inst.make("pack", 5, 3)
    ok = run.Request(5, [run.Item("pack", 5, 3, P, Pp, "AttainableDegenerate")])
    flipped = run.Request(5, [run.Item("pack", 5, 3, P, Pp, "Unattainable")])
    assert runner.run(ok).failures == []
    assert runner.run(flipped).failures


def test_cli_report_gate(tmp_path):
    P, Pp = inst.make("pack", 7, 2)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.instance_json(P, Pp)))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["decide", "--plan", "--matrix", "--json", str(path)]) == 0
    report = json.loads(buf.getvalue())
    assert gate.check_cli_report(P, Pp, "AttainableDegenerate", report) is None
    row = report["matrix"]["product"][0]
    row[0], row[1] = row[1], row[0]
    assert gate.check_cli_report(P, Pp, "AttainableDegenerate", report)
    assert gate.check_cli_report(P, Pp, "AttainableDegenerate", {"verdict": "Unattainable"})
    assert gate.check_cli_report(P, Pp, "AttainableDegenerate", {"oops": 1})


def test_traced_run_gives_the_same_verdicts_and_restores_the_program():
    reqs = run.build_requests("small-mixed", 3, LABELS)[:40]
    runner = run.Runner("small-mixed")
    original = attainability.decide

    def outcomes():
        out = []
        for r in reqs:
            it = r.items[0]
            v = attainability.decide(polygon(it.P), polygon(it.Pp), plan_moves=True)
            out.append((v.status, v.plan and v.plan.script.moves))
        return out

    plain = outcomes()
    tr = Tracer()
    with tr.installed(run.hooks()):
        assert attainability.decide is not original
        traced = outcomes()
        assert all(runner.run(r).failures == [] for r in reqs)
    assert traced == plain
    assert attainability.decide is original and cli.decide is original
    assert tr.calls["attainability.decide"] == 2 * len(reqs)
    assert tr.counts["geometry.orient"] > 0
    wall = tr.total["attainability.decide"]
    assert sum(tr.self_s.values()) == pytest.approx(wall, rel=1e-6)


def test_hook_time_is_no_layers_self_time():
    tr = Tracer()
    child = tr._span("b.child", lambda: None, lambda tr, args, res: time.sleep(0.05))
    parent = tr._span("a.parent", lambda: child(), None)
    parent()
    assert tr.hook_s >= 0.05
    assert tr.self_s["a.parent"] < 0.01 and tr.self_s["b.child"] < 0.01
    assert tr.total["a.parent"] < 0.01


def record(backend, digest="d", seed=1):
    return {"detail": {"workload": "small-mixed", "seed": seed, "input_digest": digest,
                       "provenance": {"backend": backend}}, "result": {"metrics": {}}}


def test_compare_refuses_mixed_backends_and_inputs():
    assert compare.comparable([record("python")], [record("python")]) is None
    assert "backend" in compare.comparable([record("python")], [record("compiled")])
    assert "inputs" in compare.comparable([record("python")], [record("python", "e")])


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail([float(k) for k in range(100)])
    assert (value, beyond) == (89.0, 10) and pct == 90.0
