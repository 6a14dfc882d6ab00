"""Pull-in and push-out moves, move scripts, verification, and the
elementary-stochastic-matrix representation."""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import Point, Rat, segment_contains, segment_param
from .polygon import Polygon


@dataclass(frozen=True)
class PullIn:
    """Replace vertex `mover` by (1-c)*q_mover + c*q_target."""

    mover: int
    target: int
    c: Rat

    def __post_init__(self):
        if self.mover == self.target:
            raise ValueError("mover and target must differ")
        if not 0 <= self.c <= 1:
            raise ValueError("pull-in parameter must lie in [0, 1]")


@dataclass(frozen=True)
class PushOut:
    """Replace vertex `mover` by `landing`, with the old vertex on the
    segment from the pusher to the landing (checked at application time).
    When mover and pusher coincide the landing is unconstrained."""

    mover: int
    pusher: int
    landing: Point

    def __post_init__(self):
        if self.mover == self.pusher:
            raise ValueError("mover and pusher must differ")


@dataclass(frozen=True)
class MoveScript:
    start: Polygon
    moves: tuple[PullIn, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.moves)


def relabel(s: MoveScript, start: Polygon, perm: tuple[int, ...]) -> MoveScript:
    """The moves of s with slot k renamed perm[k], played from start."""
    return MoveScript(start, tuple(PullIn(perm[m.mover], perm[m.target], m.c) for m in s.moves))


def apply_pullin(Q: Polygon, m: PullIn) -> Polygon:
    if not 0 <= m.mover < Q.n or not 0 <= m.target < Q.n:
        raise IndexError("move index out of range")
    a, b = Q.vertices[m.mover], Q.vertices[m.target]
    return Q.replace(m.mover, a + (b - a).scale(m.c))


def apply_pushout(Q: Polygon, m: PushOut) -> Polygon:
    if not 0 <= m.mover < Q.n or not 0 <= m.pusher < Q.n:
        raise IndexError("move index out of range")
    qi, qj = Q.vertices[m.mover], Q.vertices[m.pusher]
    if qi != qj and not segment_contains(qj, m.landing, qi):
        raise ValueError("push-out invariant violated: mover not on [pusher, landing]")
    return Q.replace(m.mover, m.landing)


def invert_pushout(Q: Polygon, m: PushOut) -> PullIn:
    """The pull-in that maps the post-state of the push-out back to Q.

    c is the exact ratio |landing - q_i| / |landing - q_j| along the common
    line; a double point (q_i == q_j) inverts with c = 1.
    """
    qi, qj = Q.vertices[m.mover], Q.vertices[m.pusher]
    if qi == qj:
        return PullIn(m.mover, m.pusher, Rat(1))
    if m.landing == qi:
        return PullIn(m.mover, m.pusher, Rat(0))
    c = segment_param(m.landing, qj, qi)
    if c is None or not 0 <= c <= 1:
        raise ValueError("push-out invariant violated")
    return PullIn(m.mover, m.pusher, c)


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    failure: str | None
    states: tuple[Polygon, ...]


def verify_script(s: MoveScript, expected_end: Polygon) -> VerifyReport:
    """Replay a script, checking indices and parameter bounds, and compare
    the final polygon with the expected end, vertex for vertex."""
    cur = s.start
    states = [cur]
    for k, m in enumerate(s.moves):
        if not 0 <= m.mover < cur.n or not 0 <= m.target < cur.n or m.mover == m.target:
            return VerifyReport(False, f"bad indices at move {k + 1}", tuple(states))
        if not 0 <= m.c <= 1:
            return VerifyReport(False, f"parameter out of range at move {k + 1}", tuple(states))
        cur = apply_pullin(cur, m)
        states.append(cur)
    if cur.n != expected_end.n:
        return VerifyReport(False, "vertex count mismatch", tuple(states))
    for i, (got, want) in enumerate(zip(cur.vertices, expected_end.vertices)):
        if got != want:
            return VerifyReport(
                False,
                f"final mismatch at vertex {i + 1}: got {got!r}, want {want!r}",
                tuple(states),
            )
    return VerifyReport(True, None, tuple(states))


def replay(s: MoveScript) -> Polygon:
    cur = s.start
    for m in s.moves:
        cur = apply_pullin(cur, m)
    return cur


Matrix = tuple[tuple[Rat, ...], ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(Rat(1) if i == j else Rat(0) for j in range(n)) for i in range(n)
    )


def elementary_matrix(n: int, i: int, j: int, c: Rat) -> Matrix:
    """K^{ij}(c): the identity except row i, which holds 1-c at (i,i) and c
    at (i,j)."""
    if i == j:
        raise ValueError("elementary factor needs distinct indices")
    rows = [list(r) for r in identity_matrix(n)]
    rows[i][i] = 1 - c
    rows[i][j] = Rat(c)
    return tuple(tuple(r) for r in rows)


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    n, m, k = len(A), len(B[0]), len(B)
    return tuple(
        tuple(sum((A[i][t] * B[t][j] for t in range(k)), Rat(0)) for j in range(m))
        for i in range(n)
    )


def mat_apply(D: Matrix, P: Polygon) -> Polygon:
    """Left-multiply the polygon seen as an n-by-2 matrix of coordinates."""
    pts = []
    for row in D:
        x = sum((row[j] * P.vertices[j].x for j in range(P.n)), Rat(0))
        y = sum((row[j] * P.vertices[j].y for j in range(P.n)), Rat(0))
        pts.append(Point(x, y))
    return Polygon(tuple(pts))


def is_stochastic(D: Matrix) -> bool:
    return all(
        all(v >= 0 for v in row) and sum(row, Rat(0)) == 1 for row in D
    )


def script_to_matrix(s: MoveScript) -> Matrix:
    """The product D of the factors K^{ij}(c), one per move (i, j, c), with
    D * start == replay(s) exactly (factors multiply on the left).
    K^{ij}(c) * D differs from D only in row i, which becomes
    (1-c)*row_i + c*row_j: row j for c = 1, row i for c = 0. Rows hold only
    their nonzero entries, so a zero is never multiplied."""
    n = s.start.n
    rows = [{k: Rat(1)} for k in range(n)]
    for m in s.moves:
        if m.c == 1:
            rows[m.mover] = rows[m.target]  # shared: a built row is never changed
        elif m.c:
            row = rows[m.mover] = {k: (1 - m.c) * a for k, a in rows[m.mover].items()}
            for k, b in rows[m.target].items():
                row[k] = row.get(k, 0) + m.c * b
    return tuple(tuple(row.get(k, Rat(0)) for k in range(n)) for row in rows)
