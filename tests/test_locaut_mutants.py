"""Mutants of a LocAut pattern fail one of criterion 7's two proofs.

Each enlarging mutant changes one entry of pi2's pattern or of pi3's +
branch, so that some member is no local automorphism.  The forward proof
must name the orbit-solve leaf where it fails and carry a member and a
point that locaut_feasible_at refutes.  Each shrinking mutant leaves out
some local automorphisms; the reverse proof must name the leaf of the
relation split where it fails and carry a local automorphism (a member of
the builtin pattern) that the mutant misses.  The two mutants that free
a zero entry still hold exp(LocDer), but fail the bridge's log proof.
Every failing path (criterion 7, the suite command, locaut verify,
bridge) emits a counterexample that replays.
"""

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from locsym import (
    Matrix,
    acceptance,
    bridge_check,
    builtin,
    local_automorphisms,
    locaut_feasible_at,
    locaut_pattern,
    pattern_check,
    templates,
)
from locsym.cli import main
from locsym.linalg import operator_from_payload, operator_to_payload
from locsym.local_automorphisms import forward_failure, orbit_solve, verify_pattern
from locsym.poly import poly
from locsym.stratify import Equation, OrbitLeaf, Split, _Solver, member_failure, tree_leaves
from locsym.templates import AUTOMORPHISM_FORM_PI2, LOCAL_AUTOMORPHISM_FORM_PI2

# name: (algebra, 1-based position, new entry, open conditions or None)
MUTANTS = {
    "pi2-b55-freed": ("pi2", (5, 5), "b55", ("b11", "b22", "b33", "b41+b11", "b55")),
    "pi2-zero-12-dropped": ("pi2", (1, 2), "b12", None),
    "pi2-zero-42-dropped": ("pi2", (4, 2), "b42", None),
    "pi2-b44-is-b11": ("pi2", (4, 4), "b11", None),
    "pi3-b22-is-b11": ("pi3", (2, 2), "b11", None),
    "pi3-b33-is-2b11-cubed": ("pi3", (3, 3), "2*b11^3", None),
    "pi3-zero-41-dropped": ("pi3", (4, 1), "b41", None),
    "pi3-b44-is-2b11": ("pi3", (4, 4), "2*b11", None),
}

# the leaf where each mutant first fails, in the order of the solve's leaves
FIRST_FAILURE = {
    "pi2-b55-freed": "{x1 = 0, x4 = 0, x2 + x5 = 0, x2 != 0}: the condition y2 + y5 = 0",
    "pi2-zero-12-dropped": "{x1 = 0, x4 = 0, x2 + x5 = 0, x2 != 0}: the condition y1 = 0",
    "pi2-zero-42-dropped": "{x1 = 0, x4 = 0, x2 + x5 = 0, x2 != 0}: the condition y4 = 0",
    "pi2-b44-is-b11": "{x1 + x4 = 0, x1 != 0}: the condition y1 + y4 = 0",
    "pi3-b22-is-b11": "{x1 = 0, x4 = 0, x2 != 0}: the condition x2*y5 - x5*y2 = 0",
    "pi3-b33-is-2b11-cubed": "{x1 = 0, x4 = 0, x2 = 0, x5 != 0, x3 != 0}: "
                         "the condition x3^2*y5^3 - x5^3*y3^2 = 0",
    "pi3-zero-41-dropped": "{x1 != 0}: the condition x1*y4 - x4*y1 = 0",
    "pi3-b44-is-2b11": "{x1 = 0, x4 != 0}: the condition x2*y4^2 - x4^2*y2 = 0",
}


@pytest.fixture
def mutate(monkeypatch):
    """Patch in the named mutant as the algebra's first LocAut template."""
    def patch(name):
        algebra = builtin(MUTANTS[name][0])
        forms = templates.closed_forms(algebra)
        monkeypatch.setitem(templates._CLOSED_FORMS, algebra.structure, replace(
            forms, local_automorphism=(mutated(name), *forms.local_automorphism[1:])))
        return algebra
    return patch


def replays(tmp_path, counterexample) -> bool:
    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps(counterexample))
    return main(["verify-counterexample", str(path)]) == 0


@pytest.mark.parametrize("name", MUTANTS)
def test_every_enlarging_mutant_fails_the_forward_proof(mutate, tmp_path, capsys, name):
    algebra = mutate(name)
    detail, (member, point) = forward_failure(locaut_pattern(algebra))
    assert detail == f"the + template on the leaf {FIRST_FAILURE[name]} fails"
    assert not locaut_feasible_at(algebra, member, point).feasible
    assert replays(tmp_path, {
        "kind": "locaut_witness", "algebra": algebra.name,
        "matrix": operator_to_payload(member), "point": [str(v) for v in point]})
    capsys.readouterr()


@pytest.mark.parametrize("name", ["pi3-zero-41-dropped", "pi2-zero-42-dropped"])
def test_a_freed_zero_passes_the_exp_proof_and_fails_the_log_proof(
    mutate, tmp_path, capsys, name
):
    # exp(T) is 0 at the freed entry, so it still reads in the mutant with no
    # deviation; but exp reaches no member whose freed entry is nonzero
    algebra = mutate(name)
    _, (i, j), free, _ = MUTANTS[name]
    assert bridge_check(algebra, "exp").ok
    report = bridge_check(algebra, "log")
    assert not report.ok
    assert report.detail == (f"the + template's parameter {free} at ({i},{j}) "
                             "is free in only one of T and the + template")
    assert main(["bridge", "--direction", "log", "--algebra", algebra.name,
                 "--format", "structured"]) == 1
    sample = json.loads(capsys.readouterr().out)["counterexample"]
    assert (sample["kind"], sample["direction"]) == ("bridge_sample", "log")
    assert replays(tmp_path, sample)
    capsys.readouterr()


def test_the_builtin_patterns_pass_the_forward_proof(pat2, pat3):
    assert forward_failure(pat2) is None
    assert forward_failure(pat3) is None


def mutated(name):
    """The named mutant template, without patching it in."""
    form, (i, j), text, nonzero = MUTANTS[name]
    template = templates.closed_forms(builtin(form)).local_automorphism[0]
    rows = [list(row) for row in template.entries]
    rows[i - 1][j - 1] = poly(text)
    fresh = tuple(v for v in poly(text).variables() if v not in template.params)
    return templates.MatrixTemplate(
        dim=5, params=template.params + fresh, entries=tuple(map(tuple, rows)),
        nonzero=template.nonzero if nonzero is None else tuple(map(poly, nonzero)))


def pi2_leaf(name):
    solve = orbit_solve(AUTOMORPHISM_FORM_PI2)
    return solve, next(leaf for leaf in solve.leaves if leaf.name == name)


def test_a_freed_b55_leaves_an_inequation_that_is_no_unit():
    # on the generic leaf the torus value (y2 + y5) / (x2 + x5) is a root,
    # but y2 + y5 = (b22 + b52) x2 + b55 x5 may vanish inside the stratum
    solve, leaf = pi2_leaf("{x1 = 0, x4 = 0, x2 != 0, x2 + x5 != 0}")
    assert member_failure(solve, leaf, LOCAL_AUTOMORPHISM_FORM_PI2) is None
    assert member_failure(solve, leaf, mutated("pi2-b55-freed")) == (
        "y2 + y5 is not a unit times powers of the open conditions")


def test_a_changed_pivot_fails_the_rows_or_its_unit_check():
    solve, leaf = pi2_leaf("{x1 != 0, x1 + x4 != 0}")
    index = next(k for k, (v, _) in enumerate(leaf.pivots) if v == "a21")
    u, eq = leaf.pivots[index]

    def with_pivot(coeff, rhs):
        pivots = list(leaf.pivots)
        pivots[index] = (u, Equation({u: coeff}, rhs))
        return replace(leaf, pivots=tuple(pivots))

    x1, x2 = poly("x1"), poly("x2")
    shifted = with_pivot(eq.coeffs[u], eq.rhs + x1 ** 2)
    assert member_failure(solve, shifted, LOCAL_AUTOMORPHISM_FORM_PI2).startswith(
        "T(q) x = y fails in the row ")
    scaled = with_pivot(eq.coeffs[u] * (x1 + x2), eq.rhs * (x1 + x2))
    assert member_failure(solve, scaled, LOCAL_AUTOMORPHISM_FORM_PI2) == (
        "the pivot on a21 is not a unit times powers")


def test_a_y_factor_must_divide_a_recorded_inequation():
    # c = x1 * y2 divides by y2 only once y2 != 0 is recorded
    solver = _Solver(("t1",), ("t1",), ("x1",), frozenset({"y1", "y2"}))
    equation = poly("t1*x1*y2 - y1")
    assert solver.pivots([equation], OrbitLeaf()) == ([], None)
    pivots, _ = solver.pivots([equation], OrbitLeaf(nonzero=(poly("y2"),)))
    assert [(key[-1], new) for key, new, *_ in pivots] == [("t1", (poly("x1"),))]


def test_a_solve_that_drops_a_stratum_fails_the_forward_proof(monkeypatch, pat2):
    solve = orbit_solve(AUTOMORPHISM_FORM_PI2)
    dropped = replace(solve, root=replace(solve.root, children=(None, *solve.root.children[1:])))
    monkeypatch.setattr(local_automorphisms, "orbit_solve", lambda template: dropped)
    assert forward_failure(pat2) == (
        "the orbit solve does not cover x-space: the stratum x1 = 0 is marked empty below ()",
        None)


def test_criterion_7_fails_on_a_freed_b55(mutate):
    mutate("pi2-b55-freed")
    result = acceptance.criterion_7(acceptance.builtin_spaces())
    assert not result.passed
    assert result.detail.startswith(
        "verify_pattern(pi2): the + template on the leaf "
        "{x1 = 0, x4 = 0, x2 + x5 = 0, x2 != 0}: the condition y2 + y5 = 0 fails")


def test_the_suite_exits_1_with_a_criterion_that_replays(mutate, tmp_path, capsys):
    mutate("pi2-b55-freed")
    assert main(["suite", "--format", "structured"]) == 1
    report = json.loads(capsys.readouterr().out)
    counterexample = report["counterexample"]
    assert counterexample["kind"] == "criterion" and 7 in counterexample["numbers"]
    assert not report["criteria"][6]["passed"]
    assert replays(tmp_path, counterexample)
    capsys.readouterr()


def test_locaut_verify_emits_a_witness_that_replays(mutate, tmp_path, capsys):
    mutate("pi2-b55-freed")
    assert main(["locaut", "verify", "--algebra", "pi2", "--format", "structured"]) == 1
    report = json.loads(capsys.readouterr().out)
    counterexample = report["counterexample"]
    assert counterexample["kind"] == "locaut_witness"
    assert report["forward"].startswith("the + template on the leaf {")
    assert report["reverse"] is None
    member = operator_from_payload(counterexample["matrix"])
    point = [Fraction(v) for v in counterexample["point"]]
    assert not locaut_feasible_at(builtin("pi2"), member, point).feasible
    assert replays(tmp_path, counterexample)
    capsys.readouterr()


# name: (algebra, the mutant's LocAut templates, the start of the reverse
# proof's failure, the local automorphism it carries)
PI2, PI3 = templates.LOCAL_AUTOMORPHISM_FORM_PI2, templates.LOCAL_AUTOMORPHISM_FORM_PI3_PLUS


def without_34(template):
    """pi2's template with the entry (3,4) forced to zero."""
    rows = [list(row) for row in template.entries]
    rows[2][3] = poly("0")
    return templates.MatrixTemplate(
        dim=5, params=tuple(p for p in template.params if p != "b34"),
        entries=tuple(map(tuple, rows)), nonzero=template.nonzero)


SHRINKING = {
    "pi2-extra-open-b21": (
        "pi2", (replace(PI2, nonzero=PI2.nonzero + (poly("b21"),)),),
        "the open condition b21 != 0 of the + template is not necessary on the leaf {",
        [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
         [0, 0, 0, 0, 1]]),
    "pi3-minus-branch-dropped": (
        "pi3", (PI3,), "no template reads the local automorphisms on the leaf {",
        [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, -1, 0, 0], [0, 0, 0, 1, 0],
         [0, 0, 0, 0, 1]]),
    "pi2-zero-34-added": (
        "pi2", (without_34(PI2),), "no template reads the local automorphisms on the leaf {",
        [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 0],
         [0, 0, 0, 0, 1]]),
}


@pytest.fixture
def shrink(monkeypatch):
    """Patch in the named shrinking mutant as the algebra's LocAut templates."""
    def patch(name):
        algebra = builtin(SHRINKING[name][0])
        forms = templates.closed_forms(algebra)
        monkeypatch.setitem(templates._CLOSED_FORMS, algebra.structure, replace(
            forms, local_automorphism=SHRINKING[name][1]))
        return algebra, forms.local_automorphism
    return patch


@pytest.mark.parametrize("name", SHRINKING)
def test_every_shrinking_mutant_fails_the_reverse_proof(shrink, tmp_path, capsys, name):
    algebra, builtin_templates = shrink(name)
    pattern = locaut_pattern(algebra)
    assert forward_failure(pattern) is None
    report = verify_pattern(pattern)
    *_, start, rows = SHRINKING[name]
    assert not report.ok and report.reverse.startswith(start)
    assert report.detail == report.reverse
    member, point = report.counterexample
    assert point is None and member == Matrix(rows)
    # a local automorphism: a member of the builtin pattern, not of the mutant
    assert pattern_check(replace(pattern, templates=builtin_templates), member).ok
    assert not pattern_check(pattern, member).ok
    assert main(["locaut", "verify", "--algebra", algebra.name,
                 "--format", "structured"]) == 1
    cli = json.loads(capsys.readouterr().out)
    assert cli["reverse"] == report.reverse
    assert cli["counterexample"] == {"kind": "pattern_member", "algebra": algebra.name,
                                     "matrix": operator_to_payload(member)}
    assert replays(tmp_path, cli["counterexample"])
    capsys.readouterr()


def test_a_passing_verification_draws_nothing_and_decides_no_point(
    monkeypatch, pat2, pat3
):
    def forbidden(*args, **kwargs):
        raise AssertionError("a passing verification sampled")

    # every draw of every Random instance goes through one of these two
    monkeypatch.setattr(random.Random, "random", forbidden)
    monkeypatch.setattr(random.Random, "getrandbits", forbidden)
    monkeypatch.setattr(local_automorphisms, "locaut_feasible_at", forbidden)
    for pattern in (pat2, pat3):
        report = verify_pattern(pattern)
        assert report.ok and report.counterexample is None


def without(node, leaf):
    """The recorded tree with the leaf marked empty."""
    if node is leaf:
        return None
    if isinstance(node, Split):
        return replace(node, children=tuple(without(child, leaf) for child in node.children))
    return node


def test_a_relation_split_without_a_leaf_fails_the_reverse_proof(monkeypatch, pat3):
    # without a leaf, the reverse proof would read the templates on fewer
    # strata than cover the relations; pi3's leaves are its two branches
    relations, root = local_automorphisms.relation_split(
        templates.closed_forms(pat3.algebra).automorphism)
    for leaf in tree_leaves(root):
        dropped = without(root, leaf)
        monkeypatch.setattr(local_automorphisms, "relation_split",
                            lambda template: (relations, dropped))
        report = verify_pattern(pat3)
        assert not report.ok and report.counterexample is None
        assert report.reverse.startswith("the relation split does not cover R = 0: ")
