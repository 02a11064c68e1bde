"""Every module-level def, class and assigned name of the package is named
somewhere else.

An AST scan over src/locsym, tests and perfbench: a name counts as used
when a top-level statement other than its own definition names it (as a
name or an attribute), imports it, or holds it as a dotted part of a
string constant such as "Matrix.__mul__" (perfbench/tracer.py lists its
layers by name).  In tests and perfbench only imports, attribute loads
and such strings count, so a file there that defines and uses a name of
its own does not keep the package's namesake alive.  Dunder assignments
(__all__, __version__) are skipped.  A helper or constant orphaned by a
deletion fails the scan.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "locsym").glob("*.py"))
OTHERS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def defined(statement) -> list[str]:
    """The names a module-level def, class or assignment binds, but dunders."""
    if isinstance(statement, DEFINITIONS):
        return [statement.name]
    targets = (statement.targets if isinstance(statement, ast.Assign)
               else [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and not re.fullmatch(r"__\w+__", node.id)]


def named(node, package: bool = True) -> set[str]:
    """The names a statement refers to; outside the package, only those it
    imports, loads as an attribute or spells in a string."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and package:
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and (package or isinstance(sub.ctx, ast.Load)):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and (
                re.fullmatch(r"[\w.]+", sub.value)):
            names.update(sub.value.split("."))
    return names


def dead_definitions(package: dict[str, str], others: list[str]) -> list[str]:
    """'file: name' for each module-level def, class or assigned name of
    the package sources that no other top-level statement of any source
    names."""
    counts, definitions = Counter(), []
    for label, source in [*package.items(), *(("", s) for s in others)]:
        for statement in ast.parse(source).body:
            refs = named(statement, package=bool(label))
            counts.update(refs)
            if label:
                definitions.extend((label, name, name in refs) for name in defined(statement))
    return sorted(f"{label}: {name}" for label, name, own in definitions
                  if counts[name] - own == 0)


def test_the_scan_finds_a_dead_definition():
    source = "def a():\n    b()\n\ndef b():\n    pass\n\ndef c():\n    c()\n"
    assert dead_definitions({"m.py": source}, ["LAYERS = ('m', 'Klass.run')\n"]) == [
        "m.py: a", "m.py: c"]
    assert dead_definitions({"m.py": "class a:\n    pass\n"}, ["LAYERS = ('m', 'a')\n"]) == []
    source = "A, B = 1, 2\nC: int = A\n__all__ = ['x']\n"
    assert dead_definitions({"m.py": source}, []) == ["m.py: B", "m.py: C"]
    # a test that redefines a package constant under its name does not use it
    assert dead_definitions({"m.py": "TOL = 1\n"}, ["TOL = 2\nassert TOL\n"]) == [
        "m.py: TOL"]
    assert dead_definitions({"m.py": "TOL = 1\n"}, ["obj.TOL = 2\n"]) == ["m.py: TOL"]
    for other in ("from m import TOL\n", "import m\nassert m.TOL\n"):
        assert dead_definitions({"m.py": "TOL = 1\n"}, [other]) == []


def test_every_definition_is_named_elsewhere():
    package = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    others = [path.read_text(encoding="utf-8") for path in OTHERS]
    assert dead_definitions(package, others) == []
