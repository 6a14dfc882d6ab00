"""Every module-level import in src/ and tests/ is used, src/ imports its
own modules only at module level, and every public name in src/ is used by
the library itself or kept for a stated reason.
The project depends on no linter, so these AST scans stand in for its
rules."""

import ast
import importlib
import inspect
from pathlib import Path

import polyattain

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))

# Public names nothing else in src/ reads, and why each stays.
KEPT = {
    "attainability.threshold_test": "acceptance criteria 1 and 9 test the threshold test alone",
    "geometry.cross": "the Fraction oracle that tests/test_geometry.py checks orient against, and "
    "that the exit and boundary-query oracles of tests/test_step_oracles.py and tests/test_polygon.py use",
    "geometry.forward_sign": "perfbench/tracer.py counts its calls, and the tangent oracle of "
    "tests/test_step_oracles.py orders pivots with it",
    "gen.random_boundary_point": "draws the boundary starts of acceptance criteria 2 to 5",
    "gen.random_interior_inner": "draws the all-interior inner polygons of acceptance criterion 3",
    "kernels.BACKEND": "perfbench/run.py records it and perfbench/compare.py checks it",
    "moves.mat_apply": "the D*P = P' oracle of acceptance criterion 8",
    "moves.elementary_matrix": "the dense factor K^{ij}(c) of a move, the oracle that acceptance "
    "criterion 8 and tests/conftest.py check script_to_matrix against",
    "moves.mat_mul": "perfbench/tracer.py wraps it, and acceptance criterion 8 and "
    "tests/conftest.py multiply the dense factors with it",
    "planners.plan_threshold": "tests pin threshold plans from both certificate directions, and "
    "perfbench/tracer.py wraps it",
    "polygon.polygon": "builds a polygon from coordinates for perfbench/ and the tests",
    "poncelet.gamma_sets": "acceptance criterion 1 and tests/test_poncelet.py test the juncture sets",
}


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by top-level imports that the module never reads;
    names listed in __all__ and `from __future__` imports are exempt."""
    bound: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read and name not in exported]


def test_no_unused_module_level_imports():
    found = {}
    for path in FILES:
        unused = _unused_imports(ast.parse(path.read_text(), str(path)))
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert found == {}


def test_no_function_local_package_imports():
    """A module of src/ imports the package's modules in its head, so its
    dependencies can be read there; only stdlib imports may be deferred."""
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):  # a relative import is one of the package's
                modules = ["polyattain" if node.level else node.module]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            if node not in tree.body and any(m.split(".")[0] == "polyattain" for m in modules):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == []


def test_src_makes_no_assert_statements():
    """Every check of src/ is an explicit raise, so it still runs under
    `python -O`, which strips assert statements."""
    found = [f"{path.relative_to(ROOT)}:{node.lineno}" for path in sorted((ROOT / "src").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path))) if isinstance(node, ast.Assert)]
    assert found == []


def _public_definitions(tree: ast.Module) -> list[str]:
    """Public module-level names and public methods (as Class.method)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{f.name}" for f in node.body
                      if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return [n for n in names if not n.startswith("_")]


def test_public_names_are_used_in_src():
    """A public name counts as used when some module of src/ other than
    __init__.py (which only re-exports) reads it as a name or an attribute."""
    modules = {p.stem: ast.parse(p.read_text(), str(p))
               for p in sorted((ROOT / "src" / "polyattain").glob("*.py")) if p.name != "__init__.py"}
    read = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unused = {f"{stem}.{name}" for stem, tree in modules.items()
              for name in _public_definitions(tree) if name.split(".")[-1] not in read}
    assert sorted(unused - KEPT.keys()) == []
    assert sorted(KEPT.keys() - unused) == []  # a kept name that gained a caller leaves the table


def test_package_does_not_shadow_its_submodules():
    assert inspect.ismodule(polyattain.polygon)
    assert inspect.ismodule(polyattain.poncelet)


def test_perfbench_tracer_targets_resolve():
    """Every (module, attribute) that perfbench/tracer.py wraps names a
    callable of the package, so a rename cannot break the traced benchmark
    unnoticed.  The tuples are read from the file, which is not imported."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    tables = {t.id: ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTERS")}
    assert set(tables) == {"SPANS", "COUNTERS"}
    missing = []
    for module, attr in tables["SPANS"] + tables["COUNTERS"]:
        owner = importlib.import_module(f"polyattain.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []
