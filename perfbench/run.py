#!/usr/bin/env python3
"""Layered benchmark of polyattain: `decide`, planning, and the CLI batch.

    python3 perfbench/run.py --workload small-mixed --seed 1 --seconds 30 --trace 0

Run from anywhere; the program under test is imported from `src/` next to
this directory and from nowhere else.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with `--trace 0`, the per-layer metrics of a traced run
with `--trace 1`.  The line before it holds the details (input digest,
provenance, tail percentile and sample counts, first failures).
`--out FILE` also writes both to FILE for `perfbench/compare.py`.

Workloads (see NOTES.md for why each exists):
  small-mixed          n in 3..8, mixed families, in-process decide + plan
  large-nondegenerate  n in LARGE_NS, three non-degenerate classes, decide only
  plan-matrix-batch    degenerate n in BATCH_NS, `polyattain decide --plan
                       --matrix --json --jobs 2`, one process per two files
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import instances as inst  # noqa: E402
from tracer import Tracer  # noqa: E402

clock = time.perf_counter

# ---- workload definitions ----------------------------------------------------
SMALL_NS = tuple(range(3, 9))
LARGE_NS = (8, 12, 16)
LARGE_KEYS = 2  # instances per class and size in one pass
BATCH_NS = (10, 14, 18)
BATCH_CALLS = 2  # CLI calls per size in one pass
BATCH_FILES = 2  # files per CLI call, one per worker of --jobs 2
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150

# Families whose verdict is known by construction; all others are looked up
# in labels.json, recorded at the seed commit for pool keys 0..POOL-1.
BY_CONSTRUCTION = {"pack": "AttainableDegenerate", "pullin": "attainable"}
SMALL_POOL = 16
SMALL_EACH = 8  # instances per family and size in one small-mixed pass
LARGE_POOL = 6
LARGE_CLASSES = ("shrink", "boundary", "simpull")


def small_mix(n: int) -> tuple[tuple[str, int], ...]:
    """(family, count) per size: equal shares of the acceptance suite's modes
    (tests/test_acceptance.py, criteria 5 and 6: degenerate, scripted pull-in,
    random, shrink) and of simultaneous pull.  n = 3 has no pull-in family,
    because a failed n = 3 search is reported as UnknownN3, not as attainable."""
    fams = ("pack", "pullin", "random", "shrink", "simpull")
    return tuple((fam, SMALL_EACH) for fam in fams if n > 3 or fam != "pullin")


def label_pools():
    """Every (family, n, key) whose label is recorded, for record_labels.py."""
    for n in SMALL_NS:
        for fam, _ in small_mix(n):
            if fam not in BY_CONSTRUCTION:
                for key in range(SMALL_POOL):
                    yield fam, n, key
    for n in LARGE_NS:
        for fam in LARGE_CLASSES:
            for key in range(LARGE_POOL):
                yield fam, n, key


@dataclass
class Item:
    family: str
    n: int
    key: int
    P: list
    Pp: list
    expected: str
    path: str | None = None


@dataclass
class Request:
    """One closed-loop operation: one decide call, or one CLI process."""

    n: int
    items: list[Item]


@dataclass
class Outcome:
    latency: float
    failures: list[str] = field(default_factory=list)
    moves: int = 0


def load_labels() -> dict:
    with open(HERE / "labels.json") as f:
        return json.load(f)


def make_item(family: str, n: int, key: int, labels: dict) -> Item:
    P, Pp = inst.make(family, n, key)
    if family in BY_CONSTRUCTION:
        expected = BY_CONSTRUCTION[family]
    else:
        digest, expected = labels[f"{family}/{n}/{key}"]
        if inst.digest([(P, Pp)])[:16] != digest:
            raise RuntimeError(f"{family}/{n}/{key} differs from the instance that was labelled")
    return Item(family, n, key, P, Pp, expected)


def build_requests(workload: str, seed: int, labels: dict) -> list[Request]:
    """One pass of a workload: the same seed gives the same requests."""
    rng = random.Random(f"{workload}/{seed}")
    reqs: list[Request] = []
    if workload == "small-mixed":
        for n in SMALL_NS:
            for fam, count in small_mix(n):
                if fam in BY_CONSTRUCTION:
                    keys = [rng.getrandbits(48) for _ in range(count)]
                else:
                    keys = rng.sample(range(SMALL_POOL), count)
                reqs += [Request(n, [make_item(fam, n, k, labels)]) for k in keys]
        rng.shuffle(reqs)
    elif workload == "large-nondegenerate":
        for n in LARGE_NS:
            for fam in LARGE_CLASSES:
                keys = rng.sample(range(LARGE_POOL), LARGE_KEYS)
                reqs += [Request(n, [make_item(fam, n, k, labels)]) for k in keys]
        rng.shuffle(reqs)
    elif workload == "plan-matrix-batch":
        for n in BATCH_NS:
            for _ in range(BATCH_CALLS):
                keys = [rng.getrandbits(48) for _ in range(BATCH_FILES)]
                reqs.append(Request(n, [make_item("pack", n, k, labels) for k in keys]))
        rng.shuffle(reqs)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return reqs


WORKLOADS = ("small-mixed", "large-nondegenerate", "plan-matrix-batch")


# ---- running requests --------------------------------------------------------
def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(cmd: list[str]) -> tuple[int, str, str]:
    """Run a child in its own process group and reap it, pool workers too."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return -1, out, "timed out\n" + err
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # stray workers of the group
    return proc.returncode, out, err


def split_json(text: str) -> list[dict]:
    """The CLI prints one indented JSON object per instance."""
    dec, pos, out = json.JSONDecoder(), 0, []
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return out
        obj, pos = dec.raw_decode(text, pos)
        out.append(obj)


def decide_args(req: Request, jobs: int) -> list[str]:
    return ["decide", "--plan", "--matrix", "--json", "--jobs", str(jobs)] + [it.path for it in req.items]


def check_cli_output(req: Request, rc: int, out: str, err: str) -> tuple[list[str], int]:
    """Gate one CLI call; returns (failures, moves planned)."""
    if rc != 0:
        return [f"cli exit {rc}: {err.strip()[-200:]}"] * len(req.items), 0
    try:
        reports = [r for r in split_json(out) if isinstance(r, dict)]
    except json.JSONDecodeError as e:
        return [f"cli output does not parse: {e}"] * len(req.items), 0
    by_path = {r.get("instance"): r for r in reports}
    if len(req.items) == 1 and len(reports) == 1:
        by_path = {req.items[0].path: reports[0]}
    fails, moves = [], 0
    for it in req.items:
        rep = by_path.get(it.path)
        msg = "no report" if rep is None else gate.check_cli_report(it.P, it.Pp, it.expected, rep)
        if msg:
            fails.append(f"{it.family}/{it.n}/{it.key}: {msg}")
        elif rep.get("plan"):
            moves += len(rep["plan"]["moves"])
    return fails, moves


class Runner:
    """Executes requests of one workload against the imported program."""

    def __init__(self, workload: str):
        self.workload = workload
        self.plan = workload != "large-nondegenerate"
        from polyattain import attainability, cli
        from polyattain.polygon import polygon

        self.att, self.cli, self.polygon = attainability, cli, polygon

    def run(self, req: Request, in_process_cli: bool = False, jobs: int = 2) -> Outcome:
        if self.workload == "plan-matrix-batch":
            return self._run_cli(req, in_process_cli, jobs)
        it = req.items[0]
        t0 = clock()
        try:
            P, Pp = self.polygon(it.P), self.polygon(it.Pp)
            v = self.att.decide(P, Pp, plan_moves=self.plan)
        except Exception as e:  # a crash is a failed operation, never dropped
            return Outcome(clock() - t0, [f"{it.family}/{it.n}/{it.key}: {e!r}"])
        dt = clock() - t0
        msg, moves = self.check(it, v)
        return Outcome(dt, [f"{it.family}/{it.n}/{it.key}: {msg}"] if msg else [], moves)

    def check(self, it: Item, v) -> tuple[str | None, int]:
        """Gate one verdict; returns (failure or None, moves planned)."""
        msg = gate.check_verdict(it.expected, v.status)
        if msg:
            return msg, 0
        if not self.plan:
            return ("plan returned without being asked for" if v.plan is not None else None), 0
        moves = bound_class = None
        if v.plan is not None:
            script = v.plan.script
            if [(q.x, q.y) for q in script.start.vertices] != list(it.P):
                return "plan starts elsewhere than P", 0
            moves = [(m.mover, m.target, m.c) for m in script.moves]
            bound_class = v.plan.bound_class
        return gate.check_plan(it.P, it.Pp, v.status, moves, bound_class), len(moves or ())

    def _run_cli(self, req: Request, in_process: bool, jobs: int) -> Outcome:
        if in_process:
            buf = io.StringIO()
            t0 = clock()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = self.cli.main(decide_args(req, 1))
                err = ""
            except SystemExit as e:
                rc, err = e.code, "SystemExit"
            except Exception as e:
                rc, err = -2, repr(e)
            dt = clock() - t0
            out = buf.getvalue()
        else:
            t0 = clock()
            rc, out, err = run_child([sys.executable, "-m", "polyattain.cli"] + decide_args(req, jobs))
            dt = clock() - t0
        return Outcome(dt, *check_cli_output(req, rc, out, err))


# ---- set-up ------------------------------------------------------------------
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import polyattain.cli; "
    "d = time.perf_counter() - t; import polyattain; print(d, polyattain.__file__)"
)


def setup_once(workload: str, seed: int, workdir: Path, labels: dict):
    """Generate the inputs, write them as files, import the CLI in a fresh
    interpreter and warm up; returns (requests, import seconds)."""
    reqs = build_requests(workload, seed, labels)
    if workload == "plan-matrix-batch":
        workdir.mkdir(parents=True, exist_ok=True)
        for req in reqs:
            for it in req.items:
                it.path = str(workdir / f"n{it.n}-{it.key}.json")
                with open(it.path, "w") as f:
                    json.dump(inst.instance_json(it.P, it.Pp), f)
    rc, out, err = run_child([sys.executable, "-c", IMPORT_PROBE])
    if rc != 0 or not out.split()[1].startswith(str(SRC)):
        raise RuntimeError(f"cannot import polyattain from {SRC}: {err.strip()[-300:]}")
    import_s = float(out.split()[0])
    # The warm-up is of the smallest size and of one family for every seed,
    # so that its cost does not depend on the seed's shuffle.
    first = min(reqs, key=lambda r: (r.n, r.items[0].family))
    fails = Runner(workload).run(Request(first.n, first.items[:1])).failures
    if fails:
        raise RuntimeError(f"warm-up failed: {fails[0]}")
    return reqs, import_s


# ---- statistics --------------------------------------------------------------
def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value,
    percentile, samples beyond).  With ten or fewer samples, the maximum."""
    s = sorted(samples)
    idx = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[idx], 100.0 * (idx + 1) / len(s), len(s) - 1 - idx


def exponent(per_n: dict[int, list[float]]) -> float:
    """Least-squares slope of log(median latency) against log(n)."""
    xs = [math.log(n) for n in sorted(per_n)]
    ys = [math.log(statistics.median(per_n[n])) for n in sorted(per_n)]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def provenance(backend: str) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    return {"commit": commit, "python": platform.python_version(), "backend": backend,
            "nproc": os.cpu_count(), "cpu": cpu}


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "plan-matrix-batch" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---- the measured loops ------------------------------------------------------
def clear_program_caches() -> None:
    """Empty every functools cache of the program, so each pass meets it as
    a fresh process would; without this a repeated pass reuses results
    cached by the one before it."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "polyattain" or name.startswith("polyattain.")):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def measure(runner: Runner, reqs: list[Request], seconds: float, seed: int):
    """Closed loop, one client: whole passes over the requests, each in a
    fresh seeded order, until `seconds` have passed.  A run ends only at a
    pass boundary, so every pass, and so every run of a seed, holds the same
    requests.  The program's caches are emptied at the start of every pass.
    One latency sample per request: a CLI process that handles two files is
    one sample."""
    rng = random.Random(f"order/{seed}")
    samples: list[tuple[int, float]] = []  # (n, latency) per request
    busy, attempted, failures, moves, passes = 0.0, 0, [], 0, 0
    start = clock()
    while passes == 0 or clock() - start < seconds:
        clear_program_caches()
        passes += 1
        for req in rng.sample(reqs, len(reqs)):
            out = runner.run(req)
            attempted += len(req.items)
            failures += out.failures
            moves += out.moves
            busy += out.latency
            samples.append((req.n, out.latency))
    return samples, busy, attempted, failures, moves, passes


def end_to_end(workload, samples, busy, attempted, failures, moves, setup_times):
    lat = [s for _, s in samples]
    per_n: dict[int, list[float]] = {}
    for n, s in samples:
        per_n.setdefault(n, []).append(s)
    nmax = max(per_n)
    t_val, t_pct, t_beyond = tail(lat)
    metrics = {
        "instances_per_s": (attempted / busy if busy else 0.0, "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1000 * t_val, "ms"),
        "latency_nmax_ms": (1000 * statistics.median(per_n[nmax]), "ms"),
        "decide_exponent": (exponent(per_n), "1"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    detail = {
        "samples": len(lat), "tail_percentile": round(t_pct, 2), "tail_samples_beyond": t_beyond,
        "nmax": nmax, "per_n_median_ms": {n: 1000 * statistics.median(v) for n, v in sorted(per_n.items())},
        "failed_frac": len(failures) / attempted, "moves_per_instance": moves / attempted,
    }
    return metrics, detail


def per_layer(tr: Tracer, passes: int, wall: float, instances: int, moves: int) -> dict:
    """Per-pass layer figures of a traced run; `wall` is the traced busy time
    of all passes.  Shares and coverage are taken of the program's part of
    it: `wall` less the time the hooks spent taking tallies."""
    c, k = tr.counts, passes
    program = wall - tr.hook_s

    def calls(name):
        return tr.calls[name] / k

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("polygon.ray_polygon_exit", "polygon.locate_boundary", "poncelet.right_tangent",
                 "poncelet.blc", "geometry.convex_hull", "polygon.co_contains", "moves.mat_mul"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (tr.self_s[name] / k, "s")
    m["poncelet.blc.calls"] = (c["blc.runs"] / k, "count")  # a clockwise run recurses once
    m["poncelet.right_tangent.orient_per_call"] = (
        ratio(c[("geometry.orient", "poncelet.right_tangent")], tr.calls["poncelet.right_tangent"]), "count")
    m["poncelet.blc.steps"] = (c["blc.steps"] / k, "count")
    m["poncelet.blc.cw_frac"] = (ratio(c["blc.cw"], c["blc.runs"]), "ratio")
    m["poncelet.blc.point_bits_max"] = (c["blc.bits"], "bits")
    for name in ("poncelet.gamma1_points", "polygon.canonicalize_ccw", "degeneracy.is_degenerate",
                 "attainability.vestibule_test", "attainability.decide"):
        m[f"{name}.self_s"] = (tr.self_s[name] / k, "s")
    for name in ("degeneracy.is_degenerate", "attainability.vestibule_test", "attainability.decide",
                 "planners.plan_degenerate", "planners.plan_threshold", "planners.plan_vestibule",
                 "moves.verify_script", "moves.script_to_matrix", "io.load_instance", "io.dump"):
        m[f"{name}.total_s"] = (tr.total[name] / k, "s")
    m["degeneracy.test_points.count"] = (c["test_points"] / k, "count")
    m["degeneracy.blc_per_verdict"] = (ratio(c["blc.in_degeneracy"], tr.calls["degeneracy.is_degenerate"]), "count")
    m["degeneracy.early_stop_frac"] = (ratio(c["degeneracy.early_stop"], tr.calls["degeneracy.is_degenerate"]), "ratio")
    m["attainability.pushouts_tried"] = (c["pushouts.tried"] / k, "count")
    m["attainability.pushout_hit_ratio"] = (ratio(c["pushouts.hit"], c["pushouts.tried"]), "ratio")
    for name in ("geometry.orient", "geometry.forward_sign", "polygon.in_arc", "moves.apply_pullin"):
        m[f"{name}.calls"] = (c[name] / k, "count")
    m["moves.verify_script.calls"] = (calls("moves.verify_script"), "count")
    m["planners.moves_emitted"] = (moves / k, "count")
    m["planners.moves_over_bound"] = (c["moves.over_bound"] / k, "count")
    m["planners.moves_per_instance"] = (ratio(moves, instances), "count")
    m["io.dump.bytes"] = (c["dump.bytes"] / k, "B")
    covered = sum(tr.self_s.values())
    for layer in ("geometry", "polygon", "poncelet", "degeneracy", "attainability", "planners", "moves", "io", "cli"):
        share = sum(v for name, v in tr.self_s.items() if name.split(".")[0] == layer)
        m[f"share.{layer}"] = (ratio(share, program), "ratio")
    m["trace.coverage"] = (ratio(covered, program), "ratio")
    return m


def hooks() -> dict:
    """Tallies taken from the arguments and results of traced calls."""

    def blc(tr, args, res):
        if tr.inside("poncelet.blc"):
            return  # the clockwise run recurses once through the mirror
        tr.counts["blc.runs"] += 1
        tr.counts["blc.steps"] += res.l
        tr.counts["blc.cw"] += res.direction == "cw"
        if tr.inside("degeneracy.is_degenerate"):
            tr.counts["blc.in_degeneracy"] += 1
        bits = max(max(q.numerator.bit_length(), q.denominator.bit_length())
                   for b in res.points for q in (b.realize().x, b.realize().y))
        tr.counts["blc.bits"] = max(tr.counts["blc.bits"], bits)

    def is_degenerate(tr, args, res):
        tr.counts["degeneracy.early_stop"] += res.reason == "BlcEarlyStop"

    def test_points(tr, args, res):
        tr.counts["test_points"] += len(res)

    def vestibule(tr, args, res):
        found, audit = res
        tried = sum(r.pusher is not None for r in audit)
        hit = found is not None and found.pushout is not None
        tr.counts["pushouts.tried"] += tried + hit
        tr.counts["pushouts.hit"] += hit

    def decide(tr, args, res):
        if res.plan is not None:
            n, k = res.plan.script.start.n, len(res.plan.script.moves)
            bound = gate.BOUNDS.get(res.plan.bound_class)
            tr.counts["moves.over_bound"] += bound is None or not bound[1](n, k)

    def dump(tr, args, res):
        tr.counts["dump.bytes"] += len(res)

    return {"poncelet.blc": blc, "degeneracy.is_degenerate": is_degenerate,
            "degeneracy.test_points": test_points, "attainability.vestibule_test": vestibule,
            "attainability.decide": decide, "io.dump": dump}


def traced_run(runner: Runner, reqs: list[Request], seconds: float):
    """One untraced pass, then traced passes of the same requests until the
    time is used.  The CLI workload runs in process with --jobs 1 here."""
    cli = runner.workload == "plan-matrix-batch"
    start = clock()
    untraced, attempted, failures = 0.0, 0, []
    clear_program_caches()
    for req in reqs:
        out = runner.run(req, in_process_cli=cli)
        untraced += out.latency
        attempted += len(req.items)
        failures += out.failures
    tr, traced, passes, moves = Tracer(), 0.0, 0, 0
    with tr.installed(hooks()):
        while passes == 0 or clock() - start < seconds:
            clear_program_caches()
            for req in reqs:
                out = runner.run(req, in_process_cli=cli)
                traced += out.latency
                attempted += len(req.items)
                failures += out.failures
                moves += out.moves
            passes += 1
    instances = passes * sum(len(r.items) for r in reqs)
    metrics = per_layer(tr, passes, traced, instances, moves)
    metrics["trace.overhead"] = (traced / passes / untraced, "ratio")
    efficiency = 0.0
    if cli:
        walls = {}
        for jobs in (1, 2):
            walls[jobs] = 0.0
            for req in reqs:
                out = runner.run(req, jobs=jobs)
                walls[jobs] += out.latency
                attempted += len(req.items)
                failures += out.failures
        efficiency = walls[1] / (2 * walls[2])
    metrics["cli.parallel_efficiency"] = (efficiency, "ratio")
    edges = sorted(((v, p, ch) for (p, ch), v in tr.edges.items()), reverse=True)[:12]
    detail = {"traced_passes": passes, "untraced_pass_s": untraced, "traced_pass_s": traced / passes,
              "hook_pass_s": tr.hook_s / passes,
              "top_edges": [[p, ch, v / passes] for v, p, ch in edges]}
    return metrics, detail, attempted, failures


# ---- entry point -------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the result and details to this JSON file")
    args = ap.parse_args(argv)

    if not (SRC / "polyattain" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'polyattain'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import polyattain
    from polyattain import kernels

    if not Path(polyattain.__file__).resolve().is_relative_to(SRC):
        print(f"error: polyattain was imported from {polyattain.__file__}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        labels = load_labels()
        setup_times, import_times = [], []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            reqs, import_s = setup_once(args.workload, args.seed, workdir, labels)
            setup_times.append(clock() - t0)
            import_times.append(import_s)
        runner = Runner(args.workload)
        all_items = [(it.P, it.Pp) for r in reqs for it in r.items]
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "input_digest": inst.digest(all_items), "instances_per_pass": len(all_items),
                  "provenance": provenance(kernels.BACKEND), "setup_s_each": setup_times}
        if args.trace:
            metrics, extra, attempted, failures = traced_run(runner, reqs, args.seconds)
            metrics["cli.import_s"] = (statistics.median(import_times), "s")
        else:
            samples, busy, attempted, failures, moves, passes = measure(runner, reqs, args.seconds, args.seed)
            metrics, extra = end_to_end(args.workload, samples, busy, attempted, failures, moves, setup_times)
            extra["passes"] = passes
        detail.update(extra)
    except (RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_work").rmdir()

    detail["failures"] = failures[:20]
    record = {"detail": detail}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    if args.out:
        record["result"] = result
        with open(args.out, "w") as f:
            json.dump(record, f)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
