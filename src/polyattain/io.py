"""Exact JSON serialization of instances, scripts, and reports.

Rationals travel as JSON integers or strings like "3/4"; floats are
rejected so parsing stays exact.  Vertex and move indices are 1-based on
the wire and 0-based in memory.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Callable

from .geometry import Point, Rat
from .moves import MoveScript, PullIn
from .polygon import Polygon


class FormatError(ValueError):
    """Malformed instance or script input, or a file that cannot be read."""


def parse_rat(v: Any, where: str = "") -> Rat:
    if isinstance(v, bool) or isinstance(v, float):
        raise FormatError(f"non-exact number {v!r} {where}".strip())
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise FormatError(f"bad rational {v!r} {where}: {e}".strip()) from None
    raise FormatError(f"bad rational {v!r} {where}".strip())


def format_rat(q: Rat) -> Any:
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def parse_point(v: Any, where: str = "") -> Point:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise FormatError(f"bad point {v!r} {where}".strip())
    return Point(parse_rat(v[0], where), parse_rat(v[1], where))


def format_point(p: Point) -> list:
    return [format_rat(p.x), format_rat(p.y)]


def parse_polygon(v: Any, name: str) -> Polygon:
    if not isinstance(v, list) or len(v) < 3:
        raise FormatError(f"{name} must be a list of at least 3 points")
    return Polygon(tuple(parse_point(q, f"in {name}[{k + 1}]") for k, q in enumerate(v)))


def parse_instance(data: Any) -> tuple[Polygon, Polygon, dict]:
    """{"P": [...], "Pprime": [...]} with optional metadata keys."""
    if not isinstance(data, dict):
        raise FormatError("instance must be a JSON object")
    if "P" not in data or "Pprime" not in data:
        raise FormatError("instance needs fields P and Pprime")
    P = parse_polygon(data["P"], "P")
    Pp = parse_polygon(data["Pprime"], "Pprime")
    if P.n != Pp.n:
        raise FormatError("vertex count mismatch")
    meta = {k: v for k, v in data.items() if k not in ("P", "Pprime")}
    return P, Pp, meta


def format_instance(P: Polygon, Pp: Polygon, meta: dict | None = None) -> dict:
    out: dict = {
        "P": [format_point(p) for p in P.vertices],
        "Pprime": [format_point(p) for p in Pp.vertices],
    }
    if meta:
        out.update(meta)
    return out


def _load(path: str, parse: Callable[[Any], Any]) -> Any:
    """parse() of the JSON document at path; any read or parse error is a
    FormatError that names the path once, as `<path>: <reason>`."""
    try:
        with open(path) as f:
            return parse(json.load(f))
    except OSError as e:
        raise FormatError(f"{path}: {e.strerror}") from None
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: invalid JSON: {e}") from None
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None


def load_instance(path: str) -> tuple[Polygon, Polygon, dict]:
    return _load(path, parse_instance)


def parse_script(data: Any) -> MoveScript:
    """{"start": [...], "moves": [{"i": 2, "j": 1, "c": "1/2"}, ...]}."""
    if not isinstance(data, dict) or "start" not in data or not isinstance(data.get("moves"), list):
        raise FormatError("script needs fields start and moves (a list)")
    start = parse_polygon(data["start"], "start")
    moves = []
    for k, mv in enumerate(data["moves"]):
        where = f"at move {k + 1}"
        if not isinstance(mv, dict) or "i" not in mv or "j" not in mv or "c" not in mv:
            raise FormatError(f"move needs fields i, j, c {where}")
        i, j = mv["i"], mv["j"]
        if type(i) is not int or type(j) is not int:  # JSON true/false are not indices
            raise FormatError(f"indices must be integers {where}")
        if not 1 <= i <= start.n or not 1 <= j <= start.n or i == j:
            raise FormatError(f"bad indices {where}")
        c = parse_rat(mv["c"], where)
        if not 0 <= c <= 1:
            raise FormatError(f"parameter out of range {where}")
        moves.append(PullIn(i - 1, j - 1, c))
    return MoveScript(start, tuple(moves))


def format_script(s: MoveScript) -> dict:
    return {
        "start": [format_point(p) for p in s.start.vertices],
        "moves": [
            {"i": m.mover + 1, "j": m.target + 1, "c": format_rat(m.c)}
            for m in s.moves
        ],
    }


def load_script(path: str) -> MoveScript:
    return _load(path, parse_script)


def format_matrix(D) -> list:
    return [[format_rat(v) for v in row] for row in D]


def dump(data: Any, path: str | None = None) -> str:
    text = json.dumps(data, indent=2)
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    return text
