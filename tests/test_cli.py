import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import polyattain
from polyattain import io as pio
from polyattain.cli import main
from polyattain.gen import MODES
from polyattain.geometry import pt
from polyattain.moves import MoveScript, PullIn
from polyattain.svg import render_instance
from polyattain.poncelet import blc

from conftest import dense_product


SQ = {
    "P": [[0, 0], [1, 0], [1, 1], [0, 1]],
    "Pprime": [["1/4", "1/4"], ["3/4", "1/4"], ["3/4", "3/4"], ["1/4", "3/4"]],
}


CORNER = dict(SQ, Pprime=[["1/4", "1/4"], ["1/2", "1/4"], ["1/2", "1/2"], ["1/4", "1/2"]])
# Every vertex interior: Unattainable, all 2n push-outs rejected.
SHRUNK = dict(SQ, Pprime=[
    ["199/200", "1/200"], ["199/200", "199/200"], ["1/200", "199/200"], ["1/200", "1/200"],
])


@pytest.fixture
def sq_path(tmp_path):
    p = tmp_path / "sq.json"
    p.write_text(json.dumps(SQ))
    return str(p)


def run_cli(args):
    return main(args)


def child_env() -> dict:
    """The environment for a CLI child process, with the tested package's
    directory first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(polyattain.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_decide_json(sq_path, capsys):
    assert run_cli(["decide", sq_path, "--plan", "--json", "--matrix"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "AttainableVestibule"
    assert report["plan"]["length"] <= 8
    assert report["matrix"]["stochastic"] is True
    assert all(isinstance(mv["c"], (str, int)) for mv in report["plan"]["moves"])


def json_reports(text: str) -> list[dict]:
    """The JSON reports printed one after another by a batch."""
    decoder, reports, at = json.JSONDecoder(), [], 0
    while at < len(text.rstrip()):
        report, at = decoder.raw_decode(text, at)
        reports.append(report)
        at += 1  # the newline after each report
    return reports


def check_matrix_report(start, matrix: dict, moves: list) -> None:
    """The factors are the script's moves, and the dense product of the
    factors they name equals the reported product."""
    assert matrix["factors"] == moves
    assert matrix["stochastic"] is True
    script = pio.parse_script({"start": start, "moves": matrix["factors"]})
    assert pio.format_matrix(dense_product(script)) == matrix["product"]


def test_matrix_implies_plan(sq_path, capsys):
    """`--matrix` alone plans as well: the report equals the one with
    `--plan` apart from its time."""
    reports = []
    for flags in (["--matrix"], ["--plan", "--matrix"]):
        assert run_cli(["decide", sq_path, "--json", *flags]) == 0
        reports.append(json.loads(capsys.readouterr().out))
        reports[-1].pop("ms")
    assert reports[0] == reports[1]
    check_matrix_report(SQ["P"], reports[0]["matrix"], reports[0]["plan"]["moves"])


def test_decide_matrix_batch_as_benchmarked(sq_path, tmp_path, capsys):
    """`decide --plan --matrix --json` on a batch gives the same reports,
    apart from their times, with two workers as with one; each report's
    factors are its plan's moves, and their dense product is the product."""
    corner = tmp_path / "corner.json"
    corner.write_text(json.dumps(CORNER))
    degenerate = tmp_path / "degenerate.json"
    assert run_cli(["gen", "--n", "7", "--seed", "3", "--mode", "degenerate", "-o", str(degenerate)]) == 0
    paths = [sq_path, str(corner), str(degenerate)]
    starts = [SQ["P"], CORNER["P"], json.loads(degenerate.read_text())["P"]]
    capsys.readouterr()
    runs = []
    for jobs in ("2", "1"):
        assert run_cli(["decide", "--plan", "--matrix", "--json", "--jobs", jobs, *paths]) == 0
        runs.append(json_reports(capsys.readouterr().out))
        for report in runs[-1]:
            report.pop("ms")
    assert runs[0] == runs[1]
    assert [r["instance"] for r in runs[0]] == paths
    assert {r["verdict"] for r in runs[0]} == {"AttainableVestibule", "AttainableDegenerate"}
    for start, report in zip(starts, runs[0]):
        check_matrix_report(start, report["matrix"], report["plan"]["moves"])


def test_decide_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"P": SQ["P"][:3], "Pprime": SQ["Pprime"]}))
    with pytest.raises(SystemExit) as e:
        run_cli(["decide", str(bad)])
    assert e.value.code == 2
    out = tmp_path / "outside.json"
    out.write_text(json.dumps({"P": SQ["P"], "Pprime": [[0, 0], [1, 0], [1, 1], [0, 2]]}))
    with pytest.raises(SystemExit) as e:
        run_cli(["decide", str(out)])
    assert e.value.code == 2
    fl = tmp_path / "float.json"
    fl.write_text(json.dumps({"P": SQ["P"], "Pprime": [[0, 0], [1, 0], [1, 1], [0, 0.5]]}))
    with pytest.raises(SystemExit) as e:
        run_cli(["decide", str(fl)])
    assert e.value.code == 2


def test_decide_reports_failed_checks_without_traceback(sq_path, monkeypatch, capsys):
    """A planner, invariant or witness check that fails inside `decide` is an
    unplannable request: `error: ...` on stderr and exit code 1."""
    from polyattain import attainability
    from polyattain.degeneracy import WitnessError
    from polyattain.planners import PlannerError
    from polyattain.polygon import InvariantError

    for err in (PlannerError, InvariantError, WitnessError):
        def fail(*args, err=err):
            raise err("check failed")

        monkeypatch.setattr(attainability, "plan_threshold", fail)
        assert run_cli(["decide", sq_path, "--plan", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: check failed\n"


def test_plan_verify_round_trip(sq_path, tmp_path, capsys):
    plan_path = str(tmp_path / "plan.json")
    assert run_cli(["plan", sq_path, "-o", plan_path]) == 0
    capsys.readouterr()
    assert run_cli(["verify", sq_path, plan_path]) == 0
    assert "pass" in capsys.readouterr().out


def test_verify_rejects_bad_script(sq_path, tmp_path, capsys):
    bad = tmp_path / "bad_script.json"
    bad.write_text(json.dumps({"start": SQ["P"], "moves": [{"i": 2, "j": 1, "c": "3/2"}]}))
    with pytest.raises(SystemExit) as e:
        run_cli(["verify", sq_path, str(bad)])
    assert e.value.code == 2  # malformed: parameter out of range
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"start": SQ["P"], "moves": [{"i": 2, "j": 1, "c": "1/2"}]}))
    assert run_cli(["verify", sq_path, str(short)]) == 1
    assert "mismatch" in capsys.readouterr().out


def test_verify_rejects_script_from_another_start(sq_path, tmp_path, capsys):
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"start": SQ["Pprime"], "moves": []}))
    assert run_cli(["verify", sq_path, str(other)]) == 1
    assert capsys.readouterr().out == "fail: script start differs from instance P\n"


@pytest.mark.parametrize("instance, reason", [
    (CORNER, "BlcEarlyStop"),
    ({"P": [[0, 0], [4, 0], [0, 4]], "Pprime": [[1, 1], [3, 1], [0, 1]]}, "CollinearInner"),
    ({"P": [[0, 0], [4, 0], [0, 0]], "Pprime": [[1, 0], [3, 0], [2, 0]]}, "NotSetConvexOuter"),
], ids=["witness", "triangle", "triangle-repeated-vertex"])
def test_decide_json_degeneracy_certificate(instance, reason, tmp_path, capsys):
    """A degenerate verdict reports why, with a witness polygon except at
    n = 3, where collinear targets or a non-set-convex outer polygon
    decide without one."""
    inst = tmp_path / "deg.json"
    inst.write_text(json.dumps(instance))
    assert run_cli(["decide", str(inst), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "AttainableDegenerate"
    cert = report["certificate"]
    assert cert["kind"] == "degeneracy" and cert["reason"] == reason
    if report["n"] == 3:
        assert cert["witness"] is None
    else:
        assert 3 <= len(cert["witness"]) < report["n"]


def test_decide_json_lists_tested_pushouts(tmp_path, capsys):
    """An Unattainable report lists the 2n rejected push-outs of an inner
    polygon with every vertex interior, with the runs that failed."""
    inst = tmp_path / "shrunk.json"
    inst.write_text(json.dumps(SHRUNK))
    assert run_cli(["decide", str(inst), "--plan", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "Unattainable" and "plan" not in report
    pushouts = report["tested_pushouts"]
    assert [(r["vertex"], r["pusher"]) for r in pushouts] == [
        (1, 4), (1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (4, 1)
    ]
    # a landing off the two edges at its own corner leaves nothing to run
    assert [(r["why"], len(r["failed_runs"])) for r in pushouts] == [
        ("vertex on neither edge at its corner", 0), ("threshold test failed", 1)
    ] * 4


WITNESS = "[[0, 0], [1, '1/2'], [0, '1/2']]"  # of CORNER


@pytest.mark.parametrize("args, instance, head", [
    (["decide", "{inst}", "--plan"], SQ, [
        "verdict: AttainableVestibule",
        "  threshold vertex: 1 (cw BLC)",
        "  push-out: vertex 1 by 4 to ['1/4', 0]",
        "plan (Vestibule2n, 8 moves):",
    ]),
    (["decide", "{inst}", "--plan"], CORNER, [
        "verdict: AttainableDegenerate",
        "  degeneracy reason: BlcEarlyStop",
        f"  witness: {WITNESS}",
        "plan (DegenerateLt5n, 11 moves):",
    ]),
    (["decide", "{inst}", "--plan"], SHRUNK, ["verdict: Unattainable", "  tested push-outs: 8 (all rejected)"]),
    (["degeneracy", "{inst}"], CORNER, ["degenerate: True (BlcEarlyStop)", f"witness: {WITNESS}"]),
    (["degeneracy", "{inst}"], SQ, ["degenerate: False (NoGoodTestPoint)"]),
], ids=["decide-vestibule", "decide-degenerate", "decide-unattainable", "degeneracy-witness", "degeneracy-none"])
def test_text_reports(args, instance, head, tmp_path, capsys):
    """Without --json, decide prints its verdict, its certificate and its
    plan, one pull-in a line as in the JSON report, and ends with its time;
    degeneracy prints its verdict and any witness."""
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance))
    args = [a.format(inst=inst) for a in args]
    assert run_cli(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:len(head)] == head
    rest = lines[len(head):]
    if args[0] == "decide":
        assert run_cli(args + ["--json"]) == 0
        moves = json.loads(capsys.readouterr().out).get("plan", {"moves": []})["moves"]
        assert rest[:-1] == [f"  pull {m['i']} toward {m['j']} with c = {m['c']}" for m in moves]
        assert re.fullmatch(r"decided in \d+(\.\d+)? ms", rest[-1])
    else:
        assert rest == []


@pytest.mark.parametrize("args", [
    ["decide", "{sq}", "--json", "--decimal"],
    ["blc", "{sq}", "--start", "0,0", "--json", "--decimal"],
], ids=["decide", "blc"])
def test_decimal_adds_approximations(args, sq_path, capsys):
    """Each broken-line point keeps its exact coordinates and gains their
    nearest floats."""
    assert run_cli([a.format(sq=sq_path) for a in args]) == 0
    report = json.loads(capsys.readouterr().out)
    points = report["certificate"]["blc_points"] if args[0] == "decide" else report["points"]
    assert points
    for p in points:
        assert set(p) == {"exact", "approx"}
        assert p["approx"] == [float(pio.parse_rat(v)) for v in p["exact"]]


def test_matrix_command(sq_path, tmp_path, capsys):
    """The product of a planned script's factors is row-stochastic and maps
    P onto Pprime; the factors are the script's moves, and their dense
    product is the product."""
    corner = tmp_path / "corner.json"
    corner.write_text(json.dumps(CORNER))
    for path, instance in ((sq_path, SQ), (str(corner), CORNER)):
        plan_path = tmp_path / "plan.json"
        assert run_cli(["plan", path, "-o", str(plan_path)]) == 0
        capsys.readouterr()
        assert run_cli(["matrix", str(plan_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        moves = json.loads(plan_path.read_text())["moves"]
        assert len(report["factors"]) == len(moves) > 0
        check_matrix_report(instance["P"], report, moves)
        D = [[pio.parse_rat(v) for v in row] for row in report["product"]]
        P, Pp = ([[pio.parse_rat(v) for v in p] for p in instance[key]] for key in ("P", "Pprime"))
        assert [[sum(D[i][k] * P[k][c] for k in range(4)) for c in range(2)] for i in range(4)] == Pp


@pytest.mark.parametrize("args", [
    ["plan", "{sq}"],
    ["gen", "--n", "5", "--seed", "11", "--mode", "scripted"],
], ids=["plan", "gen"])
def test_stdout_is_what_out_writes(args, sq_path, tmp_path, capsys):
    """Without -o, plan and gen print the JSON that -o writes to a file."""
    args = [a.format(sq=sq_path) for a in args]
    assert run_cli(args) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.json"
    assert run_cli(args + ["-o", str(out)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {out}")
    assert printed == out.read_text()


def test_plan_without_a_plan_exits_1(tmp_path, capsys):
    """An instance that has no plan is exit code 1 with its verdict on
    stderr, and nothing on stdout."""
    inst = tmp_path / "shrunk.json"
    inst.write_text(json.dumps(SHRUNK))
    assert run_cli(["plan", str(inst)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "verdict: Unattainable; no plan exists\n")


def test_gen_rejects_a_bad_seed_variable(capsys, monkeypatch):
    """A POLYATTAIN_SEED that is no integer is exit code 2 with one
    `error: ...` line that names it."""
    monkeypatch.setenv("POLYATTAIN_SEED", "eleven")
    with pytest.raises(SystemExit) as e:
        run_cli(["gen", "--n", "5"])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: bad POLYATTAIN_SEED 'eleven'\n")


def test_blc_command(sq_path, tmp_path, capsys):
    svg = str(tmp_path / "blc.svg")
    assert run_cli(["blc", sq_path, "--start", "0,0", "--svg", svg, "--json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[: out.rindex("}") + 1])
    assert report["l"] == 4
    assert report["points"][1] == ["1", "1/3"] or report["points"][1] == [1, "1/3"]
    text = open(svg).read()
    assert text.startswith("<svg") and text.count("<polyline") == 1
    assert "<!-- map:" in text


def test_blc_edge_start(sq_path, capsys):
    assert run_cli(["blc", sq_path, "--start", "4:3/4", "--json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["points"][0] == [0, "1/4"]
    assert report["l"] == 4


def test_blc_negative_point_start(tmp_path, capsys):
    """A start whose first coordinate is negative may follow --start as a
    separate argument, like any other start."""
    inst = tmp_path / "shifted.json"
    inst.write_text(json.dumps({
        "P": [[-1, 0], [0, 0], [0, 1], [-1, 1]],
        "Pprime": [["-3/4", "1/4"], ["-1/4", "1/4"], ["-1/4", "3/4"], ["-3/4", "3/4"]],
    }))
    for start, first in (("-1,0", [-1, 0]), ("-1/2,0", ["-1/2", 0])):
        assert run_cli(["blc", str(inst), f"--start={start}", "--json"]) == 0
        joined = capsys.readouterr().out
        assert run_cli(["blc", str(inst), "--start", start, "--json"]) == 0
        assert capsys.readouterr().out == joined
        assert json.loads(joined)["points"][0] == first


def test_degeneracy_command(tmp_path, capsys):
    inst = tmp_path / "deg.json"
    inst.write_text(json.dumps(CORNER))
    assert run_cli(["degeneracy", str(inst), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["degenerate"] is True and report["witness"]


def test_gen_deterministic(tmp_path, capsys, monkeypatch):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run_cli(["gen", "--n", "5", "--seed", "11", "--mode", "scripted", "-o", a]) == 0
    assert run_cli(["gen", "--n", "5", "--seed", "11", "--mode", "scripted", "-o", b]) == 0
    assert open(a).read() == open(b).read()
    monkeypatch.setenv("POLYATTAIN_SEED", "99")
    c = str(tmp_path / "c.json")
    assert run_cli(["gen", "--n", "5", "--seed", "11", "--mode", "scripted", "-o", c]) == 0
    data = json.loads(open(c).read())
    assert data["seed"] == 99


def test_gen_modes_have_expected_verdicts(tmp_path):
    from polyattain.attainability import decide

    for seed in range(6):
        for n, mode, allowed in (
            (4, "scripted", {"AttainableDegenerate", "AttainableVestibule"}),
            (4, "degenerate", {"AttainableDegenerate"}),
            (3, "degenerate", {"AttainableDegenerate"}),  # packed onto a segment
        ):
            path = tmp_path / f"{mode}{n}-{seed}.json"
            assert run_cli(["gen", "--n", str(n), "--seed", str(seed), "--mode", mode, "-o", str(path)]) == 0
            P, Pp, _ = pio.load_instance(str(path))
            assert decide(P, Pp).status in allowed


def test_gen_scales_to_n_64(tmp_path):
    """The generator builds its polygon directly, so a large n finishes in
    every mode instead of waiting for a lucky hull."""
    for mode in MODES:
        path = tmp_path / f"{mode}.json"
        out = subprocess.run(
            [sys.executable, "-m", "polyattain.cli", "gen", "--n", "64", "--mode", mode, "-o", str(path)],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert out.returncode == 0, out.stderr
        P, Pp, _ = pio.load_instance(str(path))
        assert P.n == Pp.n == 64 and P.is_convex_ccw


def test_decide_batch_jobs(sq_path, tmp_path, capsys, monkeypatch):
    """A batch runs in input order on no more workers than it has files."""
    import multiprocessing

    sizes = []

    def pool(processes, real=multiprocessing.Pool):
        sizes.append(processes)
        return real(processes)

    monkeypatch.setattr(multiprocessing, "Pool", pool)
    other = tmp_path / "deg.json"
    other.write_text(json.dumps(CORNER))
    assert run_cli(["decide", sq_path, str(other), "--jobs", "8"]) == 0
    assert sizes == [2]
    out = capsys.readouterr().out
    assert out.count("verdict:") == 2
    assert out.index(sq_path.split("/")[-1]) < out.index("deg.json")


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]], ids=["serial", "jobs-2"])
def test_decide_batch_reports_each_bad_file(sq_path, tmp_path, capsys, jobs):
    """A bad file costs only its own verdict: the good reports come out in
    input order, each bad file gets one `error: <path>: ...` line, and the
    exit code is 2."""
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{")
    outside = tmp_path / "outside.json"
    outside.write_text(json.dumps({"P": SQ["P"], "Pprime": [[0, 0], [1, 0], [1, 1], [0, 2]]}))
    missing = tmp_path / "missing.json"
    paths = [str(malformed), sq_path, str(missing), str(outside), sq_path]
    with pytest.raises(SystemExit) as e:
        run_cli(["decide", *paths, *jobs])
    assert e.value.code == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line for line in lines if line.startswith(("== ", "verdict:"))] == [
        f"== {sq_path}", "verdict: AttainableVestibule"
    ] * 2
    errors = captured.err.splitlines()
    assert [line.split(": ")[:2] for line in errors] == [
        ["error", str(malformed)], ["error", str(missing)], ["error", str(outside)]
    ]
    assert errors[2] == f"error: {outside}: containment violated"


@pytest.mark.parametrize("args, unbuffered, err", [
    (["gen", "--n", "64"], True, ""),
    (["gen", "--n", "64"], False, ""),
    (["decide", "{sq}", "{missing}"], False, "error: {missing}: No such file or directory\n"),
], ids=["print", "final-flush", "batch-exit-2"])
def test_closed_pipe_ends_without_traceback(args, unbuffered, err, sq_path, tmp_path):
    """A reader that leaves before the CLI writes costs exit code 1 and no
    traceback, whether the print itself fails (unbuffered stdout), the
    final flush fails, or the flush precedes the exit code 2 of a batch
    with a bad file."""
    missing = tmp_path / "missing.json"
    args = [a.format(sq=sq_path, missing=missing) for a in args]
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "polyattain.cli", *args],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert out.returncode == 1
    assert out.stderr == err.format(missing=missing)  # nothing else, so the child ran the CLI


BAD_INSTANCES = {
    "missing": None,
    "invalid-json": "{",
    "zero-denominator": json.dumps(dict(SQ, P=[["1/0", 0], *SQ["P"][1:]])),
    "vertex-count": json.dumps(dict(SQ, Pprime=SQ["Pprime"][:3])),
}
BAD_SCRIPTS = {
    "missing": None,
    "invalid-json": "{",
    "zero-denominator": json.dumps({"start": [["1/0", 0], *SQ["P"][1:]], "moves": []}),
    "move-index": json.dumps({"start": SQ["P"], "moves": [{"i": 9, "j": 1, "c": "1/2"}]}),
    "moves-not-a-list": json.dumps({"start": SQ["P"], "moves": 5}),
    "bool-index": json.dumps({"start": SQ["P"], "moves": [{"i": True, "j": 2, "c": "1/2"}]}),
}
NOT_CONTAINED = json.dumps(dict(SQ, Pprime=[[0, 0], [1, 0], [1, 1], [0, 2]]))
BAD_FILE_COMMANDS = [
    ("decide", ["decide", "{bad}"], BAD_INSTANCES),
    ("decide-batch", ["decide", "{sq}", "{bad}"], BAD_INSTANCES),
    ("blc", ["blc", "{bad}", "--start", "0,0"], BAD_INSTANCES),
    ("degeneracy", ["degeneracy", "{bad}"], BAD_INSTANCES),
    ("plan", ["plan", "{bad}"], BAD_INSTANCES),
    ("verify-instance", ["verify", "{bad}", "{script}"], BAD_INSTANCES),
    ("verify-script", ["verify", "{sq}", "{bad}"], BAD_SCRIPTS),
    ("matrix", ["matrix", "{bad}"], BAD_SCRIPTS),
]


@pytest.mark.parametrize("args, text", [
    pytest.param(args, text, id=f"{name}-{kind}")
    for name, args, files in BAD_FILE_COMMANDS for kind, text in files.items()
] + [
    pytest.param(["decide", "{sq}", "--jobs", "0"], None, id="decide-jobs-0"),
    pytest.param(["decide", "{sq}", "{sq}", "--jobs", "-2"], None, id="decide-jobs-negative"),
    pytest.param(["blc", "{sq}", "--start", "1:1/0"], None, id="blc-start-edge-1/0"),
    pytest.param(["blc", "{sq}", "--start", "1/0,0"], None, id="blc-start-point-1/0"),
    pytest.param(["blc", "{sq}", "--start", "9:0"], None, id="blc-start-edge-out-of-range"),
    pytest.param(["blc", "{sq}", "--start", "1/2,1/2"], None, id="blc-start-off-boundary"),
    pytest.param(["blc", "{content}", "--start", "0,0"], NOT_CONTAINED, id="blc-not-contained"),
    pytest.param(["plan", "{content}"], NOT_CONTAINED, id="plan-not-contained"),
    pytest.param(["degeneracy", "{content}"], NOT_CONTAINED, id="degeneracy-not-contained"),
    pytest.param(["blc", "{content}", "--start", "0,0"],
                 json.dumps(dict(CORNER, P=[[0, 0], [1, 0], [2, 0], [0, 2]])), id="blc-not-set-convex"),
    pytest.param(["blc", "{content}", "--start", "0,0"],
                 json.dumps(dict(SQ, Pprime=[["1/4", "1/4"], ["1/2", "1/2"], ["3/4", "3/4"], ["1/4", "1/4"]])),
                 id="blc-collinear-pprime"),
    pytest.param(["gen", "--n", "2"], None, id="gen-n-2"),
    pytest.param(["gen", "-o", "{out}"], None, id="gen-out-missing-dir"),
    pytest.param(["plan", "{sq}", "-o", "{out}"], None, id="plan-out-missing-dir"),
    pytest.param(["blc", "{sq}", "--start", "0,0", "--svg", "{out}"], None, id="blc-svg-missing-dir"),
])
def test_bad_input_is_one_error_line(args, text, sq_path, tmp_path, capsys):
    """Bad input or an unwritable output path is exit code 2 with exactly
    one `error: ...` line on stderr, which names the file at fault once.
    `text` is the content of the bad file, None for a missing one; a file
    given as `{content}` is readable, and only its geometry is at fault."""
    bad, out = tmp_path / "bad.json", tmp_path / "missing-dir" / "out.json"
    if text is not None:
        bad.write_text(text)
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"start": SQ["P"], "moves": []}))
    fault = bad if {"{bad}", "{content}"} & set(args) else out if "{out}" in args else None
    args = [a.format(sq=sq_path, bad=bad, content=bad, out=out, script=script) for a in args]
    with pytest.raises(SystemExit) as e:
        run_cli(args)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    if fault is not None:
        assert err.count(str(fault)) == 1, err


def test_serialization_round_trips(square, inner_square):
    data = pio.format_instance(square, inner_square, {"name": "sq"})
    P, Pp, meta = pio.parse_instance(json.loads(json.dumps(data)))
    assert P == square and Pp == inner_square and meta["name"] == "sq"
    script = MoveScript(square, (PullIn(1, 0, Fraction(1, 2)), PullIn(2, 3, Fraction(1))))
    again = pio.parse_script(json.loads(json.dumps(pio.format_script(script))))
    assert again == script


def test_rationals_rejected_and_parsed():
    assert pio.parse_rat("7") == 7
    assert pio.parse_rat("-3/4") == Fraction(-3, 4)
    assert pio.parse_rat("0.25") == Fraction(1, 4)
    with pytest.raises(pio.FormatError):
        pio.parse_rat(0.25)
    with pytest.raises(pio.FormatError):
        pio.parse_rat("x/y")
    assert pio.format_rat(Fraction(-3, 4)) == "-3/4"
    assert pio.format_rat(Fraction(8, 2)) == 4


def test_svg_deterministic(square, inner_square):
    run = blc(square, inner_square, square.locate_boundary(pt(0, 0)))
    one = render_instance(square, inner_square, [run], title="t")
    two = render_instance(square, inner_square, [run], title="t")
    assert one == two
    assert one.count("<circle") >= 8


def test_console_entry_point(sq_path):
    out = subprocess.run(
        [sys.executable, "-m", "polyattain.cli", "decide", sq_path],
        capture_output=True, text=True, env=child_env(),
    )
    assert out.returncode == 0
    assert "AttainableVestibule" in out.stdout
