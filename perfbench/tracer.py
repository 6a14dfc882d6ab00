"""Out-of-program tracing: spans and counters around polyattain's public
functions, installed by patching every module namespace that holds them.

A span records its duration and the time its child spans cover, so a
layer's self time is its duration minus that.  Hooks, which take tallies
from a call's arguments and result, are timed apart: their time is counted
as a child of the enclosing span, so it lands in no layer's self time, and
is left out of every total.  Hot predicates get counters only, attributed
to the innermost open span.  `Tracer.installed()` restores every original
object on exit, even when the traced code raises.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute) of each function wrapped in a span.  A dotted attribute
# names a method on a class of that module.
SPANS = (
    ("geometry", "convex_hull"),
    ("polygon", "co_contains"),
    ("polygon", "canonicalize_ccw"),
    ("polygon", "ray_polygon_exit"),
    ("polygon", "Polygon.locate_boundary"),
    ("poncelet", "right_tangent"),
    ("poncelet", "blc"),
    ("poncelet", "gamma1_points"),
    ("degeneracy", "is_degenerate"),
    ("degeneracy", "test_points"),
    ("attainability", "vestibule_test"),
    ("attainability", "decide"),
    ("planners", "plan_degenerate"),
    ("planners", "plan_threshold"),
    ("planners", "plan_vestibule"),
    ("moves", "verify_script"),
    ("moves", "script_to_matrix"),
    ("moves", "mat_mul"),
    ("io", "load_instance"),
    ("io", "dump"),
    ("cli", "main"),
)
# Called millions of times per pass: counted, never timed.
COUNTERS = (
    ("geometry", "orient"),
    ("geometry", "forward_sign"),
    ("polygon", "in_arc"),
    ("moves", "apply_pullin"),
)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(f"polyattain.{module}")
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_seconds, hook_seconds]
        self.active: Counter = Counter()  # open spans per name, for recursion
        self.calls: Counter = Counter()
        self.total: Counter = Counter()  # outermost activations only
        self.self_s: Counter = Counter()
        self.edges: Counter = Counter()  # (parent, child) -> calls
        self.counts: Counter = Counter()  # counters and hook tallies
        self.hook_s = 0.0  # time spent in hooks, excluded from every span
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------
    def _span(self, name, fn, hook):
        stack, active = self.stack, self.active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else "(root)"
            self.edges[(parent, name)] += 1
            frame = [name, clock(), 0.0, 0.0]
            stack.append(frame)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                dur = end - frame[1]
                self.calls[name] += 1
                self.self_s[name] += dur - frame[2]
                if not active[name]:
                    self.total[name] += dur - frame[3]
                if stack:
                    stack[-1][2] += dur
                    stack[-1][3] += frame[3]
            if hook is not None:
                h0 = clock()
                hook(self, args, result)
                spent = clock() - h0
                self.hook_s += spent
                if stack:  # hook time is nobody's self time, nor part of a total
                    stack[-1][2] += spent
                    stack[-1][3] += spent
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        stack, counts = self.stack, self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if stack:
                counts[(name, stack[-1][0])] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------
    def _patch_everywhere(self, original, replacement) -> None:
        """Replace `original` in every polyattain namespace that holds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "polyattain" or modname.startswith("polyattain.")):
                continue
            owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type)
                              and v.__module__ == modname]
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patched.append((owner, key, value))
                        setattr(owner, key, replacement)

    @contextmanager
    def installed(self, hooks: dict | None = None):
        hooks = hooks or {}
        try:
            for module, attr in SPANS:
                owner, last = _resolve(module, attr)
                original = vars(owner)[last]
                name = f"{module}.{attr.split('.')[-1]}"
                self._patch_everywhere(original, self._span(name, original, hooks.get(name)))
            for module, attr in COUNTERS:
                owner, last = _resolve(module, attr)
                original = vars(owner)[last]
                self._patch_everywhere(original, self._counter(f"{module}.{attr}", original))
            yield self
        finally:
            for owner, key, value in reversed(self._patched):
                setattr(owner, key, value)
            self._patched.clear()

    def inside(self, name: str) -> bool:
        return self.active[name] > 0
