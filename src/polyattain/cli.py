"""Command line interface.

Subcommands: decide | blc | degeneracy | plan | verify | matrix | gen.
Exit codes: 0 for a completed decision (whatever the verdict), 1 for a
failed verification, an unplannable request or an output pipe closed by
its reader, 2 for malformed input (in a `decide` batch, for any bad file).
A failed internal check (PlannerError, InvariantError, WitnessError) is
reported as `error: ...` with exit code 1, never as a traceback.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from fractions import Fraction

from . import io as pio
from .attainability import decide
from .degeneracy import WitnessError, is_degenerate
from .gen import MODES, generate
from .geometry import Point
from .moves import is_stochastic, script_to_matrix, verify_script
from .planners import PlannerError
from .polygon import BoundaryPoint, InvariantError, Polygon
from .poncelet import blc
from .svg import render_instance


def _fail(msg: str) -> "NoReturn":  # noqa: F821
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _load_instance(path: str):
    try:
        return pio.load_instance(path)
    except (OSError, pio.FormatError) as e:
        _fail(str(e))


def _decimal(q: Fraction) -> float:
    return float(q)


def _point_json(p: Point, decimal: bool):
    out = pio.format_point(p)
    if decimal:
        return {"exact": out, "approx": [_decimal(p.x), _decimal(p.y)]}
    return out


def _verdict_report(P, Pp, verdict, want_matrix: bool, decimal: bool, elapsed: float) -> dict:
    report: dict = {"verdict": verdict.status, "n": P.n}
    cert = verdict.certificate
    if verdict.status == "AttainableDegenerate" and cert is not None:
        report["certificate"] = {
            "kind": "degeneracy",
            "reason": cert.reason,
            "witness": [pio.format_point(p) for p in cert.witness.vertices]
            if cert.witness
            else None,
        }
    elif verdict.status == "AttainableVestibule" and cert is not None:
        entry: dict = {
            "kind": "vestibule",
            "vertex": cert.vertex + 1,
            "blc_direction": cert.cert.direction,
            "blc_points": [
                _point_json(b.realize(), decimal) for b in cert.cert.points
            ],
        }
        if cert.pushout is not None:
            entry["pushout"] = {
                "i": cert.pushout.mover + 1,
                "j": cert.pushout.pusher + 1,
                "landing": pio.format_point(cert.pushout.landing),
            }
        report["certificate"] = entry
    elif verdict.status in ("Unattainable", "UnknownN3"):
        report["tested_pushouts"] = [
            {
                "vertex": r.vertex + 1,
                "pusher": None if r.pusher is None else r.pusher + 1,
                "landing": pio.format_point(r.landing)
                if isinstance(r.landing, Point)
                else str(r.landing),
                "why": r.why,
                "failed_runs": [
                    [pio.format_point(b.realize()) for b in run.points]
                    for run in r.failed_runs
                ],
            }
            for r in verdict.audit
        ]
    if verdict.plan is not None:
        script = verdict.plan.script
        report["plan"] = {
            "bound_class": verdict.plan.bound_class,
            "moves": pio.format_script(script)["moves"],
            "length": len(script.moves),
        }
        if want_matrix:
            D, factors = script_to_matrix(script)
            report["matrix"] = {
                "product": pio.format_matrix(D),
                "factors": [pio.format_matrix(K) for K in factors],
                "stochastic": is_stochastic(D),
            }
    report["ms"] = round(elapsed * 1000, 3)
    return report


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        print(pio.dump(report))
        return
    if "instance" in report:
        print(f"== {report['instance']}")
    print(f"verdict: {report['verdict']}")
    if "certificate" in report:
        cert = report["certificate"]
        if cert["kind"] == "degeneracy":
            print(f"  degeneracy reason: {cert['reason']}")
            if cert.get("witness"):
                print(f"  witness: {cert['witness']}")
        else:
            print(f"  threshold vertex: {cert['vertex']} ({cert['blc_direction']} BLC)")
            if "pushout" in cert:
                po = cert["pushout"]
                print(f"  push-out: vertex {po['i']} by {po['j']} to {po['landing']}")
    if "plan" in report:
        print(f"plan ({report['plan']['bound_class']}, {report['plan']['length']} moves):")
        for mv in report["plan"]["moves"]:
            print(f"  pull {mv['i']} toward {mv['j']} with c = {mv['c']}")
    if "tested_pushouts" in report:
        print(f"  tested push-outs: {len(report['tested_pushouts'])} (all rejected)")
    print(f"decided in {report['ms']} ms")


def _decide_one(args_tuple) -> tuple[dict | None, str | None]:
    """(report, None) for a decided file, (None, message) for one that
    cannot be read or violates containment."""
    path, plan_flag, matrix_flag, decimal = args_tuple
    try:
        P, Pp, _ = pio.load_instance(path)
        t0 = time.perf_counter()
        verdict = decide(P, Pp, plan_moves=plan_flag)
    except (OSError, ValueError) as e:
        return None, str(e)
    return _verdict_report(P, Pp, verdict, matrix_flag, decimal, time.perf_counter() - t0), None


def cmd_decide(args) -> int:
    """Reports of the good files in input order, `error: <path>: <msg>` for
    each bad one, and exit code 2 if any file failed."""
    jobs = [(path, args.plan, args.matrix, args.decimal) for path in args.instance]
    if args.jobs > 1 and len(jobs) > 1:
        import multiprocessing as mp

        with mp.Pool(args.jobs) as pool:
            results = pool.map(_decide_one, jobs)
    else:
        results = [_decide_one(j) for j in jobs]
    failed = False
    for path, (report, error) in zip(args.instance, results):
        if error is not None:
            print(f"error: {path}: {error}", file=sys.stderr)
            failed = True
            continue
        if len(args.instance) > 1:
            report["instance"] = path
        _print_report(report, args.json)
    if failed:
        sys.exit(2)
    return 0


def _parse_start(P: Polygon, text: str) -> BoundaryPoint:
    if ":" in text:
        e, t = text.split(":", 1)
        try:
            edge = int(e)
            tq = Fraction(t)
        except ValueError:
            _fail(f"bad start {text!r}; use edge:t or x,y")
        if not 1 <= edge <= P.n or not 0 <= tq < 1:
            _fail(f"start {text!r} out of range")
        return BoundaryPoint(P, edge - 1, tq)
    if "," in text:
        xs, ys = text.split(",", 1)
        try:
            p = Point(Fraction(xs), Fraction(ys))
        except ValueError:
            _fail(f"bad start point {text!r}")
        bp = P.locate_boundary(p)
        if bp is None:
            _fail(f"start {text!r} is not on the boundary of P")
        return bp
    _fail(f"bad start {text!r}; use edge:t or x,y")


def cmd_blc(args) -> int:
    P, Pp, _ = _load_instance(args.instance)
    from .polygon import canonicalize_ccw, co_contains

    if not co_contains(P, Pp):
        _fail("containment violated")
    canon = canonicalize_ccw(P)
    if canon is None:
        _fail("P must be set-convex for the broken line construction")
    Pc, _ = canon
    if Pp.is_collinear:
        _fail("Pprime must not be collinear")
    start = _parse_start(Pc, args.start)
    res = blc(Pc, Pp, start, "cw" if args.cw else "ccw")
    report = {
        "direction": res.direction,
        "l": res.l,
        "points": [_point_json(b.realize(), args.decimal) for b in res.points],
        "pivots": [pio.format_point(q) for q in res.pivots],
        "stop_image": pio.format_point(res.stop_image.realize()),
    }
    if args.json:
        print(pio.dump(report))
    else:
        print(f"{res.direction} BLC with {res.l} points:")
        for k, b in enumerate(res.points):
            print(f"  x{k + 1} = {b.realize()!r}")
        print(f"  stop image: {res.stop_image.realize()!r}")
    if args.svg:
        with open(args.svg, "w") as f:
            f.write(render_instance(Pc, Pp, [res], title="broken line construction"))
        print(f"wrote {args.svg}")
    return 0


def cmd_degeneracy(args) -> int:
    P, Pp, _ = _load_instance(args.instance)
    try:
        v = is_degenerate(P, Pp)
    except ValueError as e:
        _fail(str(e))
    report = {
        "degenerate": v.degenerate,
        "reason": v.reason,
        "witness": [pio.format_point(p) for p in v.witness.vertices] if v.witness else None,
    }
    if args.json:
        print(pio.dump(report))
    else:
        print(f"degenerate: {v.degenerate} ({v.reason})")
        if v.witness:
            print(f"witness: {report['witness']}")
    return 0


def cmd_plan(args) -> int:
    P, Pp, _ = _load_instance(args.instance)
    from .polygon import co_contains

    if not co_contains(P, Pp):
        _fail("containment violated")
    verdict = decide(P, Pp, plan_moves=True)
    if verdict.plan is None:
        print(f"verdict: {verdict.status}; no plan exists", file=sys.stderr)
        return 1
    data = pio.format_script(verdict.plan.script)
    data["bound_class"] = verdict.plan.bound_class
    text = pio.dump(data, args.out)
    if args.out:
        print(f"wrote {args.out} ({len(verdict.plan.script.moves)} moves)")
    else:
        print(text)
    return 0


def cmd_verify(args) -> int:
    P, Pp, _ = _load_instance(args.instance)
    try:
        script = pio.load_script(args.script)
    except (OSError, pio.FormatError) as e:
        _fail(str(e))
    if script.start != P:
        print("fail: script start differs from instance P")
        return 1
    rep = verify_script(script, Pp)
    if rep.ok:
        print(f"pass: {len(script.moves)} moves replay exactly")
        return 0
    print(f"fail: {rep.failure}")
    return 1


def cmd_matrix(args) -> int:
    try:
        script = pio.load_script(args.script)
    except (OSError, pio.FormatError) as e:
        _fail(str(e))
    D, factors = script_to_matrix(script)
    report = {
        "product": pio.format_matrix(D),
        "factors": [pio.format_matrix(K) for K in factors],
        "stochastic": is_stochastic(D),
    }
    print(pio.dump(report))
    return 0


def cmd_gen(args) -> int:
    seed = args.seed
    env = os.environ.get("POLYATTAIN_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            _fail(f"bad POLYATTAIN_SEED {env!r}")
    rng = random.Random(seed)
    P, Pp, meta = generate(rng, args.n, args.mode)
    meta.update({"mode": args.mode, "seed": seed, "name": f"{args.mode}-n{args.n}-s{seed}"})
    text = pio.dump(pio.format_instance(P, Pp, meta), args.out)
    if args.out:
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polyattain",
        description="Decide attainability of polygons by decreasing paths and "
        "synthesize verified pull-in move scripts.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decide", help="decide attainability of an instance")
    d.add_argument("instance", nargs="+", help="instance JSON path(s)")
    d.add_argument("--plan", action="store_true", help="emit a verified move script")
    d.add_argument("--matrix", action="store_true", help="emit the stochastic factorization")
    d.add_argument("--json", action="store_true", help="machine-readable output")
    d.add_argument("--decimal", action="store_true", help="add non-authoritative decimals")
    d.add_argument("--jobs", type=int, default=1, help="parallel workers for batches")
    d.set_defaults(func=cmd_decide)

    b = sub.add_parser("blc", help="run the broken line construction")
    b.add_argument("instance")
    b.add_argument("--start", required=True, help="edge:t (1-based edge) or x,y")
    b.add_argument("--cw", action="store_true", help="clockwise construction")
    b.add_argument("--svg", help="write an SVG rendering here")
    b.add_argument("--json", action="store_true")
    b.add_argument("--decimal", action="store_true")
    b.set_defaults(func=cmd_blc)

    g = sub.add_parser("degeneracy", help="run only the degeneracy test")
    g.add_argument("instance")
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=cmd_degeneracy)

    p = sub.add_parser("plan", help="emit a verified pull-in script")
    p.add_argument("instance")
    p.add_argument("-o", "--out", help="write the script JSON here")
    p.set_defaults(func=cmd_plan)

    v = sub.add_parser("verify", help="replay a script against an instance")
    v.add_argument("instance")
    v.add_argument("script")
    v.set_defaults(func=cmd_verify)

    m = sub.add_parser("matrix", help="stochastic factorization of a script")
    m.add_argument("script")
    m.set_defaults(func=cmd_matrix)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--n", type=int, default=4)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--mode", choices=MODES, default="random")
    gen.add_argument("-o", "--out", help="write the instance JSON here")
    gen.set_defaults(func=cmd_gen)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "n", None) is not None and args.command == "gen" and args.n < 3:
        _fail("n must be at least 3")
    try:
        try:
            return args.func(args)
        finally:
            sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except (PlannerError, InvariantError, WitnessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away: drop what is left for stdout instead of
        # failing again when the interpreter flushes it on exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
