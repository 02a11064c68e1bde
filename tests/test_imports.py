"""No module imports a name it never uses, and no private name is dead.

Two AST scans.  Every name bound by an ``import`` statement in a file of
the package or of the tests must be loaded somewhere in that file, or be
listed in its ``__all__``.  Every private name (``_name``) that a module of
the package binds at its top level, by a def, a class or an assignment,
must be read somewhere in the package: as a name, an attribute or an
import.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "locsym").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    loaded = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in loaded and name not in exported
    )


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom a import b, c as d\n__all__ = ['b']\nprint(os)\n"
    assert unused_imports(source) == ["line 2: d"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(tree: ast.Module) -> set[str]:
    """The private names a module binds at its top level."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {name for name in bound
            if name.startswith("_") and not name.startswith("__")}


def read_names(tree: ast.Module) -> set[str]:
    """The names a module reads, as a name, an attribute or an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dead_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return sorted(f"{name}: {private}" for name, tree in trees.items()
                  for private in private_definitions(tree) - read)


def test_the_scan_finds_a_dead_private_name():
    sources = {
        "a.py": "_KINDS = (1,)\n_used, _table = 1, {}\ndef _attach(): pass\n"
                "class _Kept: pass\nprint(_used)\n",
        "b.py": "from a import _Kept\nimport a\nprint(a._table)\n",
    }
    assert dead_private_names(sources) == ["a.py: _KINDS", "a.py: _attach"]


def test_every_private_name_of_the_package_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert dead_private_names(sources) == []
