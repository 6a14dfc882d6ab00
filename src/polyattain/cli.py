"""Command line interface.

Subcommands: decide | blc | degeneracy | plan | verify | matrix | gen.
The subcommands raise; `main` alone turns an exception into one
`error: <message>` line on stderr and an exit code, never a traceback.
A message about an input file starts with its path, `error: <path>: ...`.
Exit codes: 0 for a completed decision (whatever the verdict); 1 for a
failed verification, an unplannable request, a failed internal check
(PlannerError, InvariantError, WitnessError) or an output pipe closed by
its reader (silently); 2 for bad input or an unwritable output path (any
other OSError or ValueError; in a `decide` batch, for any bad file).
"""

from __future__ import annotations

import argparse
import os
import random
import re
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
from .polygon import BoundaryPoint, InvariantError, Polygon, canonicalize_ccw, co_contains
from .poncelet import blc
from .svg import render_instance


def _point_json(p: Point, decimal: bool):
    out = pio.format_point(p)
    if decimal:
        return {"exact": out, "approx": [float(p.x), float(p.y)]}
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
                "landing": pio.format_point(r.landing),
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
        moves = pio.format_script(script)["moves"]
        report["plan"] = {
            "bound_class": verdict.plan.bound_class,
            "moves": moves,
            "length": len(script.moves),
        }
        if want_matrix:
            report["matrix"] = _matrix_report(script, moves)
    report["ms"] = round(elapsed * 1000, 3)
    return report


def _matrix_report(script, moves: list) -> dict:
    """The product D of the script's factors, and each factor K^{ij}(c) as its move."""
    D = script_to_matrix(script)
    return {"product": pio.format_matrix(D), "factors": moves, "stochastic": is_stochastic(D)}


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
    cannot be read or violates containment; the message names the path once."""
    path, plan_flag, matrix_flag, decimal = args_tuple
    try:
        P, Pp, _ = pio.load_instance(path)
        t0 = time.perf_counter()
        verdict = decide(P, Pp, plan_moves=plan_flag)
    except ValueError as e:  # a FormatError of the loader already names the path
        return None, str(e) if isinstance(e, pio.FormatError) else f"{path}: {e}"
    return _verdict_report(P, Pp, verdict, matrix_flag, decimal, time.perf_counter() - t0), None


def cmd_decide(args) -> int:
    """Reports of the good files in input order, `error: <path>: <msg>` for
    each bad one, and exit code 2 if any file failed."""
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    jobs = [(path, args.plan or args.matrix, args.matrix, args.decimal) for path in args.instance]
    if args.jobs > 1 and len(jobs) > 1:
        import multiprocessing as mp

        with mp.Pool(min(args.jobs, len(jobs))) as pool:
            results = pool.map(_decide_one, jobs)
    else:
        results = [_decide_one(j) for j in jobs]
    failed = False
    for path, (report, error) in zip(args.instance, results):
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            failed = True
            continue
        if len(args.instance) > 1:
            report["instance"] = path
        _print_report(report, args.json)
    if failed:
        sys.exit(2)
    return 0


def _parse_start(P: Polygon, text: str) -> BoundaryPoint:
    """The boundary point of P named `edge:t` (1-based edge) or `x,y`."""
    on_edge = ":" in text
    head, _, tail = text.partition(":" if on_edge else ",")
    try:
        a, b = (int(head) if on_edge else Fraction(head)), Fraction(tail)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad start {text!r}; use edge:t or x,y") from None
    if on_edge:
        if not 1 <= a <= P.n or not 0 <= b < 1:
            raise ValueError(f"start {text!r} out of range")
        return BoundaryPoint(P, a - 1, b)
    bp = P.locate_boundary(Point(a, b))
    if bp is None:
        raise ValueError(f"start {text!r} is not on the boundary of P")
    return bp


def _load_contained(path: str) -> tuple[Polygon, Polygon]:
    """P and Pprime of the instance at path, once Pprime lies in co(P)."""
    P, Pp, _ = pio.load_instance(path)
    if not co_contains(P, Pp):
        raise ValueError(f"{path}: containment violated")
    return P, Pp


def cmd_blc(args) -> int:
    P, Pp = _load_contained(args.instance)
    canon = canonicalize_ccw(P)
    if canon is None:
        raise ValueError(f"{args.instance}: P must be set-convex for the broken line construction")
    Pc, _ = canon
    if Pp.is_collinear:
        raise ValueError(f"{args.instance}: Pprime must not be collinear")
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
    P, Pp = _load_contained(args.instance)
    v = is_degenerate(P, Pp)
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
    P, Pp = _load_contained(args.instance)
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
    P, Pp, _ = pio.load_instance(args.instance)
    script = pio.load_script(args.script)
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
    script = pio.load_script(args.script)
    print(pio.dump(_matrix_report(script, pio.format_script(script)["moves"])))
    return 0


def cmd_gen(args) -> int:
    if args.n < 3:
        raise ValueError("n must be at least 3")
    seed = args.seed
    env = os.environ.get("POLYATTAIN_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"bad POLYATTAIN_SEED {env!r}") from None
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
    d.add_argument("--matrix", action="store_true", help="emit the stochastic factorization (implies --plan)")
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


def _attach_start(argv: list[str]) -> list[str]:
    """`--start -1,0` as `--start=-1,0`: argparse takes a separate value that
    begins with '-' for an option unless it is a plain negative number."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--start" and re.match(r"-[\d.]", arg):
            out[-1] = f"--start={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_start(sys.argv[1:] if argv is None else list(argv)))
    try:
        try:
            return args.func(args)
        finally:
            sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:  # an OSError, so before the exit-2 clause
        # The reader went away: drop what is left for stdout instead of
        # failing again when the interpreter flushes it on exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (PlannerError, InvariantError, WitnessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(2) from None


if __name__ == "__main__":
    sys.exit(main())
