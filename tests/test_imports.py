"""Every module of the package uses each name it imports (``__init__.py``,
which imports to re-export, is exempt), some module of the package
mentions each private name (``_x``) a module defines at its top level,
some line of the package, the scripts or the bench names each public
function and class of the package outside its own definition (a test of a
name is no use of it), and some line of the repository's code names each
method (dunders aside) of its classes as an attribute or a quoted string,
outside its own definition."""

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mcdlo"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the directories whose code may use the package
CODE_DIRS = ("src", "tests", "scripts", "perfbench")
# the directories whose code counts as a use of a public name
USER_DIRS = ("src", "scripts", "perfbench")


def code_texts(dirs, root=ROOT) -> list[str]:
    """The texts of the Python files under root/d for each d of dirs, the
    package's own modules aside."""
    package = root / "src" / "mcdlo"
    return [p.read_text() for d in dirs for p in (root / d).rglob("*.py")
            if p.parent != package]


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


def _named_elsewhere(sources: dict, others, pattern):
    """named(module, stmt): whether some line on which `pattern` finds
    stmt's name lies outside stmt's own definition (decorators included).
    A line of `others` (further source texts) or of any module of `sources`
    (module name to source) counts, in code, strings and comments alike."""
    lines_naming = defaultdict(set)  # name -> {(module, line number)}
    for module, source in sources.items():
        for number, line in enumerate(source.splitlines(), 1):
            for name in pattern.findall(line):
                lines_naming[name].add((module, number))
    in_others = {name for text in others for name in pattern.findall(text)}

    def named(module: str, stmt) -> bool:
        start = min([stmt.lineno] + [d.lineno for d in stmt.decorator_list])
        own = {(module, n) for n in range(start, stmt.end_lineno + 1)}
        return stmt.name in in_others or bool(lines_naming[stmt.name] - own)

    return named


def unused_public_names(sources: dict, others=()) -> list[str]:
    """The public functions and classes (no leading ``_``) that the modules
    of `sources` (module name to source) define at top level and that no
    line names outside the definition itself, as module.name; lines count
    as `_named_elsewhere` says."""
    named = _named_elsewhere(sources, others, re.compile(r"[A-Za-z_]\w*"))
    return sorted(
        f"{module}.{stmt.name}" for module, source in sources.items()
        for stmt in ast.parse(source).body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not stmt.name.startswith("_") and not named(module, stmt))


def test_no_unused_public_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unused_public_names(sources, code_texts(USER_DIRS)) == []


def test_unused_public_name_is_found(tmp_path):
    sources = {
        "a": ("def used(n):\n    return used(n - 1) if n else 0\n"
              "def loop(n):\n    return loop(n - 1) if n else 0\n"
              "class Box:\n    pass\n"
              "@staticmethod\ndef wrapped():\n    pass\n"
              "def _private():\n    return 0\n"),
        "b": "from .a import used\n",
    }
    assert unused_public_names(sources, ["x = Box()  # wrapped"]) == [
        "a.loop"]
    assert unused_public_names(sources) == ["a.Box", "a.loop", "a.wrapped"]
    # a name that only a test's text uses is unused
    for rel, text in (("tests/test_a.py", "from a import Box, loop\n"),
                      ("scripts/run.py", "loop(3)  # wrapped\n")):
        (tmp_path / rel).parent.mkdir()
        (tmp_path / rel).write_text(text)
    assert unused_public_names(sources, code_texts(USER_DIRS, tmp_path)) == [
        "a.Box"]
    assert unused_public_names(sources, code_texts(CODE_DIRS, tmp_path)) == []


def unused_methods(sources: dict, others=()) -> list[str]:
    """The methods (dunders aside) of the classes that the modules of
    `sources` (module name to source) define at top level and that no line
    names as an attribute (``.name``) or a quoted string outside the
    method's own definition, as module.Class.name; lines count as
    `_named_elsewhere` says."""
    named = _named_elsewhere(sources, others,
                             re.compile(r"""[.'"]([A-Za-z_]\w*)"""))
    return sorted(
        f"{module}.{cls.name}.{stmt.name}"
        for module, source in sources.items()
        for cls in ast.parse(source).body if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not stmt.name.startswith("__") and not named(module, stmt))


def test_no_unused_methods():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unused_methods(sources, code_texts(CODE_DIRS)) == []


def test_unused_method_is_found():
    sources = {
        "a": ("class Box:\n"
              "    def __len__(self):\n        return 0\n"
              "    def loop(self, n):\n"
              "        return self.loop(n - 1) if n else self.size\n"
              "    @property\n    def size(self):\n        return 0\n"
              "    def patched(self):\n        return 0\n"
              "    def leftover(self):\n        return 0\n"
              "def run(box, leftover):\n    return box.loop(leftover)\n"),
        "b": "setattr(a.Box, 'patched', None)  # leftover\n",
    }
    assert unused_methods(sources) == ["a.Box.leftover"]
    assert unused_methods(sources, ["Box.leftover = None"]) == []
