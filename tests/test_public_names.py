"""Every public name of the library is read by the library, the bench or the
studies: code that only the tests read lives in ``tests/``.

The check is by name. It collects the top-level public functions, classes
and module constants of ``src/curlstokes/*.py`` and fails on any whose name
is never loaded (as a name or as an attribute) in ``src/``, ``bench/`` or
``studies/``. ``__init__.py`` is skipped on both sides, so a re-export is
not a caller.

A second check reads every module of ``src/``, ``tests/`` and ``studies/``
on its own: each name its imports bind (``__future__`` aside) must be loaded
somewhere in that module.

A third keeps the saddle factor in one module: no module of ``src/`` but
``solver.py`` names ``_augmented`` or ``_factor``, as an import, a name or an
attribute.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "bench", "studies")


def _modules(directory: Path):
    return [f for f in sorted(directory.rglob("*.py")) if f.name != "__init__.py"]


def _public_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if not n.startswith("_")}


def _loaded_names(tree: ast.Module) -> set[str]:
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_every_public_src_name_has_a_caller_outside_the_tests():
    loaded = set()
    for directory in CALLER_DIRS:
        for path in _modules(ROOT / directory):
            loaded |= _loaded_names(ast.parse(path.read_text()))
    uncalled = sorted(f"{path.stem}.{name}"
                      for path in _modules(ROOT / "src" / "curlstokes")
                      for name in _public_names(ast.parse(path.read_text()))
                      if name not in loaded)
    assert not uncalled, f"public names that only the tests read: {uncalled}"


def _unread_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports that it never loads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in loaded]


def test_every_imported_name_is_read():
    unread = {str(path.relative_to(ROOT)): names
              for directory in ("src", "tests", "studies")
              for path in sorted((ROOT / directory).rglob("*.py"))
              if (names := _unread_imports(ast.parse(path.read_text())))}
    assert not unread, f"imported names that their module never reads: {unread}"


def test_only_the_solver_names_the_saddle_factor():
    private = {"_augmented", "_factor"}
    named = {}
    for path in _modules(ROOT / "src" / "curlstokes"):
        if path.name == "solver.py":
            continue
        tree = ast.parse(path.read_text())
        names = ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
                 | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
                 | {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names})
        if names & private:
            named[path.name] = sorted(names & private)
    assert not named, f"modules besides solver.py that name the saddle factor: {named}"
