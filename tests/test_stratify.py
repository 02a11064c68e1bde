"""Stratified solving of parametric templates with exact case splits.

Hand-built one- and two-parameter templates pin the expected trees and
refusals; the Der templates of the builtins exercise the full path.  The
coverage walk is checked on every recorded tree and on mutated trees,
and the per-leaf proof (member_failure) on the Der solves and on
mutated leaves.
"""

import dataclasses
from fractions import Fraction

import pytest

from locsym import (
    InternalCheckError,
    Matrix,
    MatrixTemplate,
    StratificationError,
    StratumCase,
    local_derivation_space,
    solve_parametric,
)
from locsym import automorphisms, local_derivations, stratify, verify_family
from locsym.local_derivations import der_solve
from locsym.poly import Poly, poly, solve_linear, unit_times_powers
from locsym.stratify import (
    Split,
    coverage_failure,
    grid_point,
    member_failure,
    member_image,
    relation_factors,
    tree_leaves,
)
from locsym.templates import span_template


def template(*rows):
    """The linear template with the given rows of entries, no open conditions."""
    grid = tuple(tuple(map(poly, row)) for row in rows)
    params = tuple(sorted({v for row in grid for e in row for v in e.variables()}))
    return MatrixTemplate(len(rows), params, grid)


def constant(*rows):
    return MatrixTemplate(len(rows), (), tuple(tuple(map(poly, row)) for row in rows))


SCALAR = template(["a"])                 # a x1 = y1
FIRST = template(["a", "0"], ["0", "0"])  # a x1 = y1, 0 = y2


def special_and_generic(solve):
    return (next(l for l in solve.leaves if l.equalities),
            next(l for l in solve.leaves if not l.equalities))


# -- the canonical pivot split: a x1 = y1 ------------------------------------

def test_single_pivot_splits_into_two_leaves():
    solve = solve_parametric(SCALAR)
    assert len(solve.leaves) == 2
    special, generic = special_and_generic(solve)
    assert [str(q) for q in generic.inequations] == ["x1"]
    assert not generic.constraints
    # on x1 = 0 the equation forces y1 = 0
    assert [str(c) for c in special.constraints] == ["y1"]
    assert len({leaf.signature() for leaf in solve.leaves}) == 2


def test_leaf_membership_partitions_parameter_line():
    solve = solve_parametric(SCALAR)
    for value in (-3, 0, 1, 7):
        point = {"x1": Fraction(value)}
        assert len([leaf for leaf in solve.leaves if leaf.contains(point)]) == 1


def test_a_broken_leaf_gives_a_point_of_that_leaf():
    special, generic = special_and_generic(solve_parametric(FIRST))
    e12 = ((0, 1), (0, 0))
    # B = E12 gives y1 = x2, which breaks the condition y1 = 0 of x1 = 0 only
    (broken,) = [q for e in special.constraints if (q := e.subs(member_image(special, e12)))]
    assert grid_point(special, broken) == {"x1": 0, "x2": 1}
    assert not any(e.subs(member_image(generic, e12)) for e in generic.constraints)


def test_solution_space_aggregates_constraints():
    # x1 = 0 forces b12 = 0, both leaves force b21 = b22 = 0: only E11 is local
    solve = solve_parametric(FIRST)
    assert local_derivations._solution_basis(solve) == (Matrix([[1, 0], [0, 0]]),)
    assert local_derivations._solution_basis(solve_parametric(SCALAR)) == (Matrix([[1]]),)


def test_unsplittable_pivot_is_refused():
    # after a = (y1 - b x2) / x1 the second row's pivot on b is
    # -(x1^2 - x1 x2 + x2^2), irreducible over Q
    with pytest.raises(StratificationError) as info:
        solve_parametric(template(["a", "b"], ["-b", "a + b"]))
    assert str(info.value.offending) == "x1^2 - x1*x2 + x2^2"
    assert "x1^2 - x1*x2 + x2^2" in str(info.value)


def test_depth_budget_is_enforced(monkeypatch):
    monkeypatch.setattr(stratify, "MAX_DEPTH", 0)
    with pytest.raises(StratificationError, match="depth exceeded 0"):
        solve_parametric(SCALAR)


@pytest.mark.parametrize("relation, factors", [
    ("b35^2", ["b35"]),
    ("b53^2*b55", ["b53", "b55"]),
    ("b44^2 - b22", ["b44^2 - b22"]),
    ("b11^6 - b33^2", ["b11^3 + b33", "b11^3 - b33"]),
    ("b11*b33^2 - b11*b55^4", ["b11", "b55^2 + b33", "b55^2 - b33"]),
    ("3", []),
])
def test_relation_factors_are_solvable_and_multiply_back(relation, factors):
    p = poly(relation)
    found = relation_factors(p)
    assert [str(f) for f in found] == factors
    for f in found:   # solve_linear solves each factor
        (v, value), = solve_linear(f).items()
        assert f.subs({v: value}).is_zero() and value.degree_in(v) == 0
    # p is a constant times powers of the factors, each dividing it
    assert unit_times_powers(p, found)
    assert all(p.div_exact(f) is not None for f in found)


@pytest.mark.parametrize("relation", ["b11^3 - b33^2", "b11^2 + b33^2",
                                      "b11^2*b33^2 + b11*b33 + 1"])
def test_a_relation_without_solvable_factors_is_refused(relation):
    with pytest.raises(StratificationError, match="does not split into solvable"):
        relation_factors(poly(relation))


def test_the_relation_splits_have_a_leaf_per_branch(relation_trees):
    pi2_tree, pi3_tree = relation_trees
    assert [leaf.inequations for leaf in tree_leaves(pi2_tree)] == [()]
    assert [(leaf.substitution["b33"], leaf.inequations)
            for leaf in tree_leaves(pi3_tree)] == [
        (poly("-b11^3"), ()), (poly("b11^3"), (poly("b11^3 + b33"),))]


# -- the coverage walk --------------------------------------------------------------

def der_solves(loc2, loc3, adapted_spaces):
    return [der_solve(s.derivations) for s in (loc2, loc3, *adapted_spaces)]


def test_every_tree_covers_its_space(loc2, loc3, adapted_spaces, aut_trees,
                                     relation_trees):
    roots = [s.root for s in der_solves(loc2, loc3, adapted_spaces)]
    for root in (*roots, *aut_trees, *relation_trees, solve_parametric(SCALAR).root):
        assert coverage_failure(root) is None


def nodes(node, path=()):
    """(path, node) for every node, a path being the child indices to it."""
    yield path, node
    if isinstance(node, Split):
        for i, child in enumerate(node.children):
            yield from nodes(child, path + (i,))


def edit(node, path, change):
    """The tree with the node at path replaced by change(node)."""
    if not path:
        return change(node)
    children = list(node.children)
    children[path[0]] = edit(children[path[0]], path[1:], change)
    return dataclasses.replace(node, children=tuple(children))


def mutated_trees(root):
    """The tree with a leaf dropped, a child dropped, a nonempty child
    marked empty, or a leaf's inequations one too many or too few."""
    for path, node in nodes(root):
        if isinstance(node, Split):
            for i in range(len(node.children)):
                yield "child dropped", edit(root, path, lambda n: dataclasses.replace(
                    n, children=n.children[:i] + n.children[i + 1:]))
        if node is not None and path:
            kind = "leaf dropped" if isinstance(node, StratumCase) else "marked empty"
            yield kind, edit(root, path, lambda n: None)
        if isinstance(node, StratumCase):
            yield "extra inequation", edit(root, path, lambda n: dataclasses.replace(
                n, inequations=n.inequations + (Poly.var("z"),)))
            for k in range(len(node.inequations)):
                yield "missing inequation", edit(root, path, lambda n: dataclasses.replace(
                    n, inequations=n.inequations[:k] + n.inequations[k + 1:]))


def test_every_mutated_tree_fails_the_coverage_walk(loc2, loc3, adapted_spaces,
                                                     aut_trees, relation_trees):
    kinds = set()
    for root in (*(s.root for s in der_solves(loc2, loc3, adapted_spaces)), *aut_trees,
                 *relation_trees):
        for kind, mutant in mutated_trees(root):
            kinds.add(kind)
            assert coverage_failure(mutant) is not None, kind
    assert kinds == {"child dropped", "leaf dropped", "marked empty",
                     "extra inequation", "missing inequation"}


def test_a_tree_without_a_leaf_is_refused(monkeypatch, pi2, loc2):
    # some pi2 leaf, dropped, gives a space of the wrong dimension, which
    # every remaining leaf's proof accepts
    solve, dims = der_solve(loc2.derivations), set()
    for path, node in nodes(solve.root):
        if isinstance(node, StratumCase):
            dropped = dataclasses.replace(solve, root=edit(solve.root, path, lambda n: None))
            dims.add(len(local_derivations._solution_basis(dropped)))
            monkeypatch.setattr(local_derivations, "solve_parametric",
                                lambda template: dropped)
            with pytest.raises(InternalCheckError, match="coverage"):
                local_derivation_space(pi2)
    assert dims - {loc2.dim}


def test_an_automorphism_split_without_a_leaf_is_refused(monkeypatch, aut_trees,
                                                         fam2, fam3):
    # without a leaf, the reverse proof would read the template on fewer
    # strata than cover the automorphisms
    split = automorphisms._case_split
    for fam, root in zip((fam2, fam3), aut_trees):
        leaves = [path for path, node in nodes(root) if isinstance(node, StratumCase)]
        assert len(leaves) >= 3
        for path in leaves:
            monkeypatch.setattr(automorphisms, "_case_split", lambda algebra: (
                *split(algebra)[:2], edit(root, path, lambda n: None)))
            report = verify_family(fam)
            assert not report.ok and "does not cover" in report.detail


# -- the per-leaf proof ---------------------------------------------------------------

def proved(solve, member):
    return all(member_failure(solve, leaf, member) is None for leaf in solve.leaves)


def test_certificate_pins_the_special_leaf():
    # on x1 = 0 the first row 0 = y1 holds only for B with y1 = b12 x2 = 0
    solve = solve_parametric(FIRST)
    special, generic = special_and_generic(solve)
    e12 = constant(["0", "1"], ["0", "0"])
    assert member_failure(solve, special, e12) == "the condition y1 = 0 fails"
    assert member_failure(solve, special, constant(["3", "0"], ["0", "0"])) is None
    # off x1 = 0, a = x2 / x1 solves it
    assert member_failure(solve, generic, e12) is None


def span(space):
    return span_template(space.algebra.dim, space.basis, "c")


def test_builtin_spaces_are_certified(loc2, loc3):
    for space in (loc2, loc3):
        assert proved(der_solve(space.derivations), span(space))


def test_adapted_copies_are_certified(adapted_spaces):
    assert [space.dim for space in adapted_spaces] == [11, 7]
    solves = [der_solve(space.derivations) for space in adapted_spaces]
    assert [len(solve.leaves) for solve in solves] == [11, 8]
    for space, solve in zip(adapted_spaces, solves):
        assert proved(solve, span(space))


def mutated_leaves(solve):
    """Every leaf with one substitution term or entry, or one pivot, dropped."""
    for leaf in solve.leaves:
        for var, expr in leaf.substitution.items():
            for mono in expr.terms:
                terms = {m: c for m, c in expr.terms.items() if m != mono}
                substitution = {**leaf.substitution, var: Poly(terms)}
                yield "substitution term", dataclasses.replace(
                    leaf, substitution=substitution)
            substitution = {v: e for v, e in leaf.substitution.items() if v != var}
            yield "substitution entry", dataclasses.replace(
                leaf, substitution=substitution)
        for k in range(len(leaf.pivots)):
            pivots = leaf.pivots[:k] + leaf.pivots[k + 1:]
            yield "pivot", dataclasses.replace(leaf, pivots=pivots)


def test_every_mutated_leaf_fails_the_certificate(loc2, loc3, adapted_spaces):
    dropped = set()
    for space in (loc2, loc3, *adapted_spaces):
        solve = der_solve(space.derivations)
        for kind, mutant in mutated_leaves(solve):
            dropped.add(kind)
            failure = member_failure(solve, mutant, span(space))
            assert failure is not None, (kind, mutant.name)
    assert dropped == {"substitution term", "substitution entry", "pivot"}


def test_every_dropped_inequation_fails_the_pivot_unit_check(loc2, loc3):
    # on the builtins every inequation is a factor some pivot divides by;
    # on the adapted copies a few only separate strata (f_0 != 0 on the
    # child f_1 = 0), and dropping one of those leaves a true statement
    count = 0
    for space in (loc2, loc3):
        solve = der_solve(space.derivations)
        for leaf in solve.leaves:
            for k in range(len(leaf.inequations)):
                mutant = dataclasses.replace(
                    leaf, inequations=leaf.inequations[:k] + leaf.inequations[k + 1:])
                failure = member_failure(solve, mutant, span(space))
                assert failure is not None and failure.startswith("the pivot on "), (
                    leaf.name, k)
                assert failure.endswith(" is not a unit times powers")
                count += 1
    assert count == 20


def test_a_non_member_fails_the_certificate(loc2):
    e12 = constant(*[["1" if (i, j) == (0, 1) else "0" for j in range(5)]
                     for i in range(5)])
    assert not proved(der_solve(loc2.derivations), e12)
