"""The benchmark's correctness gate, written without polyattain.

Every check returns None when the output is right and a one-line reason
when it is not.  Plans are replayed here with exact rationals, never via
polyattain.moves.verify_script.
"""

from __future__ import annotations

from fractions import Fraction

from instances import mix

ATTAINABLE = frozenset({"AttainableDegenerate", "AttainableVestibule"})
VERDICTS = ATTAINABLE | {"Unattainable", "UnknownN3"}

# Bound class -> (verdicts it may certify, move bound as a function of n).
BOUNDS = {
    "DegenerateLt5n": ({"AttainableDegenerate"}, lambda n, k: k < 5 * n),
    "Threshold2nMinus1": ({"AttainableVestibule"}, lambda n, k: k <= 2 * n - 1),
    "Vestibule2n": ({"AttainableVestibule"}, lambda n, k: k <= 2 * n),
}


def check_verdict(expected: str, status: str) -> str | None:
    """`expected` is a verdict, or "attainable" for either attainable one."""
    if status not in VERDICTS:
        return f"unknown verdict {status!r}"
    if expected == "UnknownN3" and status == "Unattainable":
        return "UnknownN3 turned negative"
    if expected == "attainable":
        if status not in ATTAINABLE:
            return f"verdict {status}, want an attainable one"
    elif status != expected:
        return f"verdict {status}, want {expected}"
    return None


def replay(P, moves):
    """Apply pull-ins (i, j, c), 0-based: p_i <- (1-c) p_i + c p_j."""
    pts = list(P)
    n = len(pts)
    for k, (i, j, c) in enumerate(moves):
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ValueError(f"bad indices at move {k + 1}")
        if not 0 <= c <= 1:
            raise ValueError(f"parameter out of range at move {k + 1}")
        pts[i] = mix(pts[i], pts[j], c)
    return pts


def check_plan(P, Pp, status: str, moves, bound_class: str) -> str | None:
    """An attainable verdict carries a plan that replays exactly from P to
    Pprime within the bound of its class; other verdicts carry none."""
    if status not in ATTAINABLE:
        return None if moves is None else f"{status} verdict carries a plan"
    if moves is None:
        return f"{status} verdict without a plan"
    if bound_class not in BOUNDS:
        return f"unknown bound class {bound_class!r}"
    allowed, within = BOUNDS[bound_class]
    if status not in allowed:
        return f"bound class {bound_class} for a {status} verdict"
    if not within(len(P), len(moves)):
        return f"{len(moves)} moves break {bound_class} at n={len(P)}"
    try:
        end = replay(P, moves)
    except ValueError as e:
        return str(e)
    for k, (got, want) in enumerate(zip(end, Pp)):
        if got != want:
            return f"replay misses vertex {k + 1}"
    return None


def check_matrix(P, Pp, D) -> str | None:
    """D is row-stochastic and D * P == Pprime (P as an n-by-2 matrix)."""
    n = len(P)
    if len(D) != n or any(len(row) != n for row in D):
        return "matrix has the wrong shape"
    for r, row in enumerate(D):
        if any(v < 0 for v in row) or sum(row) != 1:
            return f"matrix row {r + 1} is not stochastic"
        x = sum(v * p[0] for v, p in zip(row, P))
        y = sum(v * p[1] for v, p in zip(row, P))
        if (x, y) != tuple(Pp[r]):
            return f"D*P misses vertex {r + 1}"
    return None


def parse_rat(v) -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"bad rational {v!r}")
    return Fraction(v)


def check_cli_report(P, Pp, expected: str, report: dict) -> str | None:
    """One instance report of `polyattain decide --plan --matrix --json`."""
    try:
        status = report["verdict"]
        failure = check_verdict(expected, status)
        if failure:
            return failure
        plan = report.get("plan")
        moves = None
        if plan is not None:
            moves = [(m["i"] - 1, m["j"] - 1, parse_rat(m["c"])) for m in plan["moves"]]
            if plan["length"] != len(moves):
                return "plan length disagrees with its moves"
        failure = check_plan(P, Pp, status, moves, plan and plan["bound_class"])
        if failure or plan is None:
            return failure
        if "matrix" not in report:
            return "plan without a matrix"
        D = [[parse_rat(v) for v in row] for row in report["matrix"]["product"]]
        if len(report["matrix"]["factors"]) != len(moves):
            return "one matrix factor per move expected"
        return check_matrix(P, Pp, D)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        return f"malformed report: {e!r}"
