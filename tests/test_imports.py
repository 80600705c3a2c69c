"""Every module of the package uses each name it imports (``__init__.py``,
which imports to re-export, is exempt), and some module of the package
mentions each private name (``_x``) a module defines at its top level."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mcdlo"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never mentions, with the line of
    their import; a mention inside a quoted annotation counts."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _quoted_annotation_names(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def _quoted_annotation_names(tree) -> set:
    names = set()
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(quoted)
                          if isinstance(n, ast.Name)}
    return names


def _top_level_names(stmt) -> list[str]:
    """The names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [node.id for t in targets for node in ast.walk(t)
            if isinstance(node, ast.Name)]


def _mentions(stmt) -> set:
    """The names a statement reads: names, attributes, imported names and
    names in quoted annotations."""
    names = _quoted_annotation_names(stmt)
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def unused_private_names(sources: dict) -> list[str]:
    """The private names (``_x``, not dunders) that the modules of
    `sources` (module name to source) define at top level and that no
    module mentions outside the definition itself, as module.name."""
    defined = []
    mentioned = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = _top_level_names(stmt)
            defined += [(module, name) for name in own
                        if name.startswith("_") and not name.startswith("__")]
            mentions = _mentions(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                mentions -= set(own)  # a recursive call is no use
            mentioned |= mentions
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in mentioned)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = ("from os import path, sep\nimport sys\nimport json as js\n"
              "def f(x: 'Sequence[js.JSONDecoder]') -> None:\n"
              "    return sep\n")
    assert unused_imports(source) == ["path (line 1)", "sys (line 2)"]


def test_no_unused_private_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unused_private_names(sources) == []


def test_unused_private_name_is_found():
    sources = {
        "a": ("_A, _B = 1, 2\n__all__ = []\n"
              "def _loop(n):\n    return _loop(n - 1) if n else _A\n"
              "class _Box:\n    pass\n"
              "def _helper() -> '_Quoted':\n    return 0\n"
              "_Quoted = int\n"),
        "b": "from .a import _helper\nimport a\nX = a._Box\n",
    }
    assert unused_private_names(sources) == ["a._B", "a._loop"]
