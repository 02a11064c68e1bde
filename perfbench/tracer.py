"""Layer tracing from outside the program.

The tracer wraps public callables of the `locsym` modules: class methods
on their class, and every `locsym.*` module global that binds the same
function object (so `from .x import f` call sites are traced too).  Hot
kernels make millions of calls, so spans are not kept one by one: each
callable aggregates its call count and its self time, which is the span
duration minus the time covered by traced child spans.
"""
from __future__ import annotations

import functools
import sys
import time

# (module, attribute path) of every traced callable; a dotted path names
# a method on a class.  The metric name is "<module>.<path>" with Python
# operator names shortened (Matrix.__mul__ -> Matrix.mul).
LAYERS = (
    ("local_automorphisms", "locaut_feasible_at"),
    ("local_automorphisms", "find_witness"),
    ("local_automorphisms", "verify_pattern"),
    ("local_automorphisms", "group_closure_check"),
    ("linalg", "Matrix.apply"),
    ("linalg", "Matrix.__mul__"),
    ("linalg", "Subspace.contains"),
    ("linalg", "integer_rank"),
    ("linalg", "rref"),
    ("linalg", "nullspace"),
    ("linalg", "inverse"),
    ("derivations", "bracket_closed"),
    ("derivations", "derivation_algebra"),
    ("derivations", "is_derivation"),
    ("rationals", "random_rational"),
    ("automorphisms", "is_automorphism"),
    ("automorphisms", "verify_family"),
    ("automorphisms", "group_closure_report"),
    ("templates", "template_match"),
    ("poly", "Poly.subs"),
    ("poly", "Poly.evaluate"),
    ("poly", "Poly.__mul__"),
    ("poly", "linear_factors"),
    ("local_derivations", "strict_inclusion_witness"),
    ("local_derivations", "local_derivation_space"),
    ("stratify", "solve_parametric"),
    ("expbridge", "matrix_exp"),
    ("expbridge", "matrix_log"),
    ("expbridge", "structured_log_pi3"),
    ("expbridge", "bridge_check"),
    ("inference", "infer_shape"),
    ("inference", "validate_prediction"),
    ("geometry", "geometry_report"),
    ("algebra", "Algebra.multiply"),
    ("algebra", "characteristic_sequence"),
) + tuple(("acceptance", f"criterion_{k}") for k in range(1, 12))


def metric_base(module: str, path: str) -> str:
    return f"{module}.{path.replace('__mul__', 'mul')}"


class Stat:
    __slots__ = ("calls", "self_ns", "wall_ns", "raised", "true")

    def __init__(self):
        self.calls = self.self_ns = self.wall_ns = self.raised = self.true = 0


class Tracer:
    """Installs aggregating wrappers; `uninstall` restores every binding."""

    def __init__(self):
        self.stats = {metric_base(m, p): Stat() for m, p in LAYERS}
        self.algebras: set = set()  # content keys seen by derivation_algebra
        self.fallbacks = 0  # local_derivation_space results of probabilistic provenance
        self.leaves = 0  # case-tree leaves over all solve_parametric results
        self._stack: list[list[int]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter_ns
        observe = self._observer(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                span = clock() - start
                stack.pop()
                stat.calls += 1
                stat.wall_ns += span
                stat.self_ns += span - children[0]
                if stack:
                    stack[-1][0] += span
            if observe is not None:
                observe(stat, result)
            return result

        return traced

    def _observer(self, name: str):
        if name in (
            "local_automorphisms.locaut_feasible_at",
            "automorphisms.is_automorphism",
        ):
            def count_true(stat, result):  # a bool, or a FeasibilityReport
                stat.true += bool(getattr(result, "feasible", result))
            return count_true
        if name == "derivations.derivation_algebra":
            def remember(stat, result):
                algebra = result.algebra
                self.algebras.add(
                    (algebra.name, algebra.dim, tuple(sorted(algebra.table.items())))
                )
            return remember
        if name == "stratify.solve_parametric":
            def leaves(stat, result):
                self.leaves += len(result.leaves)
            return leaves
        if name == "local_derivations.local_derivation_space":
            def fallback(stat, result):
                self.fallbacks += result.provenance == "probabilistic"
            return fallback
        return None

    def install(self) -> None:
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "locsym" or name.startswith("locsym.")
        }
        replace = {}
        for module_name, path in LAYERS:
            owner = modules[f"locsym.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(metric_base(module_name, path), original)
            self._set(owner, attr, wrapped)
            if not outer:
                replace[id(original)] = wrapped  # _undo keeps `original` alive
        # Re-bind every module global that holds a wrapped function, and
        # tuples of them such as acceptance.CRITERIA.
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    self._set(module, attr, replace[id(value)])
                elif isinstance(value, tuple) and any(id(v) in replace for v in value):
                    self._set(module, attr, tuple(replace.get(id(v), v) for v in value))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        """Plain-data counters, summable across processes with `merge`."""
        return {
            "stats": {
                name: [s.calls, s.self_ns, s.wall_ns, s.raised, s.true]
                for name, s in self.stats.items()
            },
            "algebras": len(self.algebras),
            "fallbacks": self.fallbacks,
            "leaves": self.leaves,
        }


def merge(dumps) -> dict:
    total = {"stats": {}, "algebras": 0, "fallbacks": 0, "leaves": 0}
    for d in dumps:
        for name, row in d["stats"].items():
            acc = total["stats"].setdefault(name, [0] * len(row))
            for i, v in enumerate(row):
                acc[i] += v
        for key in ("algebras", "fallbacks", "leaves"):
            total[key] += d[key]
    return total


def layer_metrics(total: dict) -> dict:
    """Per-layer metrics in the result-line format, from merged dumps."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    stats = total["stats"]
    for module, path in LAYERS:
        name = metric_base(module, path)
        calls, self_ns, wall_ns, raised, true = stats[name]
        if module == "acceptance":
            put(f"{name}.wall_s", wall_ns / 1e9, "s")
            continue
        put(f"{name}.calls", calls, "count")
        put(f"{name}.self_s", self_ns / 1e9, "s")
    feasible = stats["local_automorphisms.locaut_feasible_at"]
    put("local_automorphisms.locaut_feasible_at.feasible_frac",
        feasible[4] / feasible[0] if feasible[0] else 0.0, "ratio")
    automorphic = stats["automorphisms.is_automorphism"]
    put("automorphisms.is_automorphism.true_frac",
        automorphic[4] / automorphic[0] if automorphic[0] else 0.0, "ratio")
    derivation_calls = stats["derivations.derivation_algebra"][0]
    put("derivations.derivation_algebra.calls_per_algebra",
        derivation_calls / total["algebras"] if total["algebras"] else 0.0, "ratio")
    put("stratify.solve_parametric.leaves", total["leaves"], "count")
    put("stratify.solve_parametric.fail", stats["stratify.solve_parametric"][3], "count")
    put("local_derivations.local_derivation_space.fallback", total["fallbacks"], "count")
    return out
