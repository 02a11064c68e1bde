"""The benchmark tracer's contract with the package.

perfbench/tracer.py wraps named callables of the locsym modules from
outside the program.  A renamed or deleted callable would silently drop
its layer metric, so every (module, attribute path) the tracer lists
must resolve on the imported package, and so must every name the
benchmark's scripts import from it.  The keywords perfbench/run.py
passes to the engine must stay accepted too, and so must the results the
tracer's observers read.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import locsym
from locsym.stratify import StratumCase, solve_parametric
from locsym.templates import span_template

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_tracer(monkeypatch):
    # read-only: no bytecode cache is written next to the tracer
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("locsym_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_layer_resolves(monkeypatch):
    missing = []
    for module, path in load_tracer(monkeypatch).LAYERS:
        target = importlib.import_module(f"locsym.{module}")
        for name in path.split("."):
            target = getattr(target, name, None)
        if not callable(target):
            missing.append(f"{module}.{path}")
    assert missing == []


def test_every_benchmark_import_resolves(monkeypatch):
    # parsed, not imported: the scan runs no benchmark code and writes no
    # bytecode; nested imports such as solve_inputs.check's count too
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    imports = []  # (script, module, name or None for a plain import)
    for script in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                imports += [(script.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                imports += [(script.name, a.name, None) for a in node.names]
    imports = [i for i in imports if (i[1] or "").split(".")[0] == "locsym"]
    assert ("solve_inputs.py", "locsym.derivations", "leibniz_rows") in imports
    missing = [f"{script}: {module} {name or ''}" for script, module, name in imports
               if not resolves(module, name)]
    assert missing == []


def resolves(module, name) -> bool:
    try:
        target = importlib.import_module(module)
    except ImportError:
        return False
    return name is None or hasattr(target, name)


def test_the_solve_workload_keywords_are_accepted(pi3):
    # perfbench/run.py passes these keywords; the engine accepts and ignores them
    locders = locsym.local_derivation_space(pi3, seed=1, validation_checks=1000)
    witness = locsym.strict_inclusion_witness(
        pi3, locders.derivations, locders, checks=1000, seed=1
    )
    assert locders.dim == 7
    assert witness is not None


def test_the_leaves_counter_reads_a_tuple_of_leaves(der3):
    # the tracer's stratify.solve_parametric.leaves adds len(result.leaves)
    leaves = solve_parametric(span_template(5, der3.basis, "a")).leaves
    assert isinstance(leaves, tuple) and len(leaves) == 7
    assert all(isinstance(leaf, StratumCase) for leaf in leaves)
