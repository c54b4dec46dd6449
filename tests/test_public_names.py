"""Every public top-level name of the package, and every defaulted parameter of a
public function or method, has a caller outside the tests."""

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


# Defaulted parameters that only tests set, each kept on purpose.
TEST_ONLY_PARAMETERS = {
    # A test checks a hand-built solution at 1e-9, tighter than FEAS_TOL;
    # without the parameter it would check at the looser default.
    ("check_solution", "tol"),
    # The convexity test starts the descent from far-apart weights.
    ("logistic_fit", "init_weights"),
}


def defaulted_parameters(tree: ast.Module):
    """(name, parameter, position) of each defaulted parameter of a public
    function or method; position counts the caller's positional arguments
    (a method's ``self`` or ``cls`` excluded) and is None for a keyword-only one."""
    defs = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
            defs += [(f, True) for f in stmt.body if isinstance(f, ast.FunctionDef)]
        elif isinstance(stmt, ast.FunctionDef):
            defs.append((stmt, False))
    for fn, bound in defs:
        if fn.name.startswith("_"):
            continue
        positional = (fn.args.posonlyargs + fn.args.args)[int(bound):]
        for pos in range(len(positional) - len(fn.args.defaults), len(positional)):
            yield fn.name, positional[pos].arg, pos
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield fn.name, arg.arg, None


def passed_arguments(tree: ast.Module) -> dict[str, list[tuple[int, set[str], bool]]]:
    """Per callee name: (positional count, keywords, ``**`` used) of each call.

    ``functools.partial(f, ...)`` counts as a call of ``f``, and a name
    imported as another resolves to the original. A ``*args`` argument
    counts as every position.
    """
    alias = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for a in node.names if a.asname}

    def callee(func) -> str | None:
        if isinstance(func, ast.Name):
            return alias.get(func.id, func.id)
        return func.attr if isinstance(func, ast.Attribute) else None

    calls: dict[str, list[tuple[int, set[str], bool]]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, args = callee(node.func), node.args
        if name == "partial" and args:
            name, args = callee(args[0]), args[1:]
        if name is None:
            continue
        count = float("inf") if any(isinstance(a, ast.Starred) for a in args) else len(args)
        keywords = {k.arg for k in node.keywords if k.arg is not None}
        splat = any(k.arg is None for k in node.keywords)
        calls.setdefault(name, []).append((count, keywords, splat))
    return calls


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    params = []
    for path in sorted((ROOT / "src" / "lotsize").rglob("*.py")):
        params += defaulted_parameters(ast.parse(path.read_text(encoding="utf-8")))
    calls: dict[str, list] = {}
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for name, found in passed_arguments(tree).items():
                calls.setdefault(name, []).extend(found)
    unset = sorted(
        (name, arg) for name, arg, pos in params
        if (name, arg) not in TEST_ONLY_PARAMETERS and not any(
            arg in keywords or splat or (pos is not None and count > pos)
            for count, keywords, splat in calls.get(name, ())
        )
    )
    assert not unset, f"defaulted parameters that only tests set: {unset}"
