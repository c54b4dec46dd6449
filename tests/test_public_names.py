"""Every public top-level name of the package has a caller outside the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def defined_names(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement binds by ``def``, ``class`` or assignment."""
    if isinstance(stmt, DEFINITIONS):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def referenced_names(path: Path) -> set[str]:
    """Names read in ``path``, as names or attributes, outside the definition of each.

    Imports and ``__all__`` hold no name nodes, so they reference nothing.
    """
    used = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
        used |= names - (defined_names(stmt) if isinstance(stmt, DEFINITIONS) else set())
    return used


def test_every_public_name_is_used_outside_the_tests():
    public = {}
    for path in sorted((ROOT / "src" / "lotsize").rglob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in defined_names(stmt):
                if not name.startswith("_"):
                    public[name] = path.relative_to(ROOT)
    used = set()
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            used |= referenced_names(path)
    unused = {name: str(path) for name, path in public.items() if name not in used}
    assert not unused, f"public names that only tests use: {unused}"
