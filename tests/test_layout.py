"""The package holds only code that the CLI or the documented library runs.

Every public top-level function, class and constant of src/witsenhausen must
be reachable: referenced, directly or through other reachable definitions,
from the console-script entry point, from module-level code, or from one of
the documented library-only entry points below. Code that only the tests
call belongs in the tests' oracle modules.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "witsenhausen"

# The console script's function, `witsenhausen.cli:main` in pyproject.toml.
CLI_ENTRY = "main"

# Library entry points documented in the README's Library section that the
# CLI does not call.
LIBRARY_ONLY = ("coord_min_power",)


def _bound_names(node: ast.stmt) -> list[str]:
    """Names a top-level definition or assignment binds; [] for other statements."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _references(node: ast.AST) -> set[str]:
    """Every identifier a subtree reads, as a bare name or as an attribute."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
    return refs


def unreachable_names() -> list[str]:
    """'module.name' of every public top-level definition no entry point reaches.

    Names are matched by identifier across the package, so a definition
    counts as used wherever its name is read. `__init__.py` re-exports and
    the `__all__` lists are not uses, and neither are imports.
    """
    defs: dict[str, list[ast.stmt]] = {}
    public: list[tuple[str, str]] = []
    roots = {CLI_ENTRY, *LIBRARY_ONLY}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            names = _bound_names(node)
            if names == ["__all__"] or isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not names:
                roots |= _references(node)
            for name in names:
                defs.setdefault(name, []).append(node)
                if not name.startswith("_"):
                    public.append((path.stem, name))
    live: set[str] = set()
    todo = [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name in live:
            continue
        live.add(name)
        for node in defs[name]:
            todo.extend(r for r in _references(node) if r in defs)
    return [f"{module}.{name}" for module, name in public if name not in live]


def test_every_public_name_is_reachable():
    dead = unreachable_names()
    assert not dead, "library code no entry point reaches: " + ", ".join(dead)


def test_the_entry_points_exist():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert f'"witsenhausen.cli:{CLI_ENTRY}"' in pyproject
    defined = {
        name
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        for name in _bound_names(node)
    }
    assert {CLI_ENTRY, *LIBRARY_ONLY} <= defined


# The 1-D solvers' callers need different x-tolerances; the quadratures'
# error bound is the constant numerics.QUAD_TOL, not a parameter.
TOL_TAKERS = {"numerics.find_root", "numerics.minimize_1d"}


def test_only_the_solvers_take_a_tolerance():
    takers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                if any(p is not None and p.arg == "tol" for p in params):
                    takers.add(f"{path.stem}.{getattr(node, 'name', '<lambda>')}")
    extra = sorted(takers - TOL_TAKERS)
    assert not extra, "functions with a `tol` parameter: " + ", ".join(extra)


def _import_time_modules(tree: ast.Module) -> list[str]:
    """Modules that import statements outside every function body name.

    Those statements run when the module is imported; an import inside a
    function runs at the function's first call.
    """
    names, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
        todo.extend(ast.iter_child_nodes(node))
    return names


def test_no_module_imports_scipy_when_it_is_loaded():
    # scipy.special alone adds about 0.4 s to the start-up of every command;
    # the functions that call SciPy import it themselves
    loaders = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        if any(
            name.split(".")[0] == "scipy"
            for name in _import_time_modules(ast.parse(path.read_text(encoding="utf-8")))
        )
    ]
    assert not loaders, "modules that import SciPy at module level: " + ", ".join(loaders)
