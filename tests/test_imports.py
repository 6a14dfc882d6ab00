"""Every module-level import in src/ and tests/ is used.  The project
depends on no linter, so this AST scan stands in for an unused-import rule."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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
