"""Exact decision procedures and move planners for decreasing paths of polygons."""

from .attainability import Verdict, decide, threshold_test, vestibule_test
from .degeneracy import DegeneracyVerdict, is_degenerate
from .geometry import Point, Rat, pt, rat
from .moves import (
    MoveScript,
    PullIn,
    PushOut,
    apply_pullin,
    apply_pushout,
    invert_pushout,
    script_to_matrix,
    verify_script,
)
from .planners import (
    PlanOutcome,
    maximal_degenerate_extend,
    plan_degenerate,
    plan_threshold,
    plan_vestibule,
)
from .polygon import BoundaryPoint, Polygon, canonicalize_ccw, co_contains
from .poncelet import BlcResult, blc, gamma_sets, poncelet_cw, right_tangent

__all__ = [
    "BlcResult",
    "BoundaryPoint",
    "DegeneracyVerdict",
    "MoveScript",
    "PlanOutcome",
    "Point",
    "Polygon",
    "PullIn",
    "PushOut",
    "Rat",
    "Verdict",
    "apply_pullin",
    "apply_pushout",
    "blc",
    "canonicalize_ccw",
    "co_contains",
    "decide",
    "gamma_sets",
    "invert_pushout",
    "is_degenerate",
    "maximal_degenerate_extend",
    "plan_degenerate",
    "plan_threshold",
    "plan_vestibule",
    "poncelet_cw",
    "pt",
    "rat",
    "right_tangent",
    "script_to_matrix",
    "threshold_test",
    "verify_script",
    "vestibule_test",
]
