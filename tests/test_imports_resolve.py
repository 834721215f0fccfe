"""Every ``repro`` import in the tree resolves, and no re-export facade regrows.

A static ``ast`` walk, so function-local imports (the lazy ones in
``repro.experiments.harness`` and ``repro.serve.service``, say) are
checked even when no tier-1 test runs them.
"""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "examples", "benchmarks", "perfbench")
PACKAGE = ROOT / "src" / "repro"

#: Kept only for the benchmark harness, which imports ``MB`` and
#: ``AccessConfig`` from here.
ALLOWED_FACADES = {PACKAGE / "core" / "access.py"}


def _python_files():
    for tree in TREES:
        yield from sorted((ROOT / tree).rglob("*.py"))


def _top_level(body):
    """Top-level statements, looking inside module-level ``if``/``try`` blocks."""
    for node in body:
        if isinstance(node, (ast.If, ast.Try)):
            yield from _top_level(node.body + node.orelse + getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                yield from _top_level(handler.body)
        else:
            yield node


def _top_level_names(path: pathlib.Path):
    """Names a module binds at top level, or ``None`` if it has ``__getattr__``."""
    names = set()
    for node in _top_level(ast.parse(path.read_text()).body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == "__getattr__":
                return None
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _dangling(path: pathlib.Path):
    """``(line, what)`` for each ``repro`` import in ``path`` that cannot resolve."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
            names = []
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules = [node.module]
            names = [a.name for a in node.names]
        else:
            continue
        for module in modules:
            if module.split(".")[0] != "repro":
                continue
            spec = importlib.util.find_spec(module)
            if spec is None:
                yield node.lineno, module
                continue
            origin = pathlib.Path(spec.origin)
            bound = _top_level_names(origin)
            for name in names:
                if name == "*" or bound is None or name in bound:
                    continue
                if origin.name == "__init__.py" and importlib.util.find_spec(f"{module}.{name}"):
                    continue
                yield node.lineno, f"{module}.{name}"


def test_repro_imports_resolve():
    dangling = [
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in _python_files()
        for line, what in _dangling(path)
    ]
    assert dangling == []


def _is_facade(path: pathlib.Path) -> bool:
    """Only a docstring, imports and ``__all__``: nothing defined here."""
    body = ast.parse(path.read_text()).body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Assign) and [
            getattr(t, "id", None) for t in node.targets
        ] == ["__all__"]:
            continue
        return False
    return True


def test_no_reexport_facades():
    facades = [
        str(p.relative_to(ROOT))
        for p in sorted(PACKAGE.rglob("*.py"))
        if p.name != "__init__.py" and p not in ALLOWED_FACADES and _is_facade(p)
    ]
    assert facades == []
