"""Parametric linear solving with exact case splits on vanishing pivots.

A hand-built one-equation system pins the expected two-leaf tree; the
localization system of the derivation engine exercises the full path.
The coverage walk is checked on every recorded tree and on mutated
trees, and the per-leaf certificate on both systems and on mutated leaves.
"""

import dataclasses
from fractions import Fraction

import pytest

from locsym import (
    CaseTree,
    InternalCheckError,
    ParametricSystem,
    StratificationError,
    StratumCase,
    local_derivation_space,
    solve_parametric,
)
from locsym import automorphisms, local_derivations, stratify, verify_family
from locsym.poly import Poly, poly
from locsym.stratify import (
    Equation,
    Split,
    certificate_failure,
    coverage_failure,
    leaf_refutation,
)


def scalar_system(coeff_text):
    return ParametricSystem(
        unknowns=("u",),
        nu_vars=("n",),
        rhs_symbols=("b",),
        equations=(Equation(coeffs={"u": poly(coeff_text)}, rhs=poly("b")),),
    )


# -- the canonical pivot split: n*u = b --------------------------------------

def test_single_pivot_splits_into_two_leaves():
    tree = solve_parametric(scalar_system("n"))
    assert len(tree.leaves) == 2
    signatures = {leaf.signature() for leaf in tree.leaves}
    generic = next(l for l in tree.leaves if not l.equalities)
    special = next(l for l in tree.leaves if l.equalities)
    assert generic.inequations and str(generic.inequations[0]) == "n"
    assert not generic.constraints
    # on n = 0 the equation forces b = 0
    assert [str(c) for c in special.constraints] == ["b"]
    assert len(signatures) == 2


def test_leaf_membership_partitions_parameter_line():
    tree = solve_parametric(scalar_system("n"))
    for value in (-3, 0, 1, 7):
        point = {"n": Fraction(value)}
        hits = [leaf for leaf in tree.leaves if leaf.contains(point)]
        assert len(hits) == 1


def test_solution_space_aggregates_constraints():
    tree = solve_parametric(scalar_system("n"))
    # b must vanish on the n = 0 stratum, so globally solvable b form a point
    assert tree.solution_space().dim == 0
    free = solve_parametric(scalar_system("2"))
    # constant pivot: one leaf, always solvable, no constraints on b
    assert len(free.leaves) == 1
    assert free.solution_space().dim == 1


def test_a_broken_leaf_gives_a_point_of_that_leaf():
    tree = solve_parametric(scalar_system("n"))
    special = next(l for l in tree.leaves if l.equalities)
    generic = next(l for l in tree.leaves if not l.equalities)
    # b = 1 breaks only the n = 0 leaf, whose one point is n = 0
    assert leaf_refutation(tree.system, special, (1,)) == {"n": 0}
    assert leaf_refutation(tree.system, generic, (1,)) is None
    assert leaf_refutation(tree.system, special, (0,)) is None


# -- cascaded elimination -------------------------------------------------------

def test_constant_pivot_elimination_then_split():
    system = ParametricSystem(
        unknowns=("u1", "u2"),
        nu_vars=("n",),
        rhs_symbols=("b1", "b2"),
        equations=(
            Equation(coeffs={"u1": poly("n"), "u2": poly("1")}, rhs=poly("b1")),
            Equation(coeffs={"u1": Poly.zero(), "u2": poly("1")}, rhs=poly("b2")),
        ),
    )
    tree = solve_parametric(system)
    assert len(tree.leaves) == 2
    special = next(l for l in tree.leaves if l.equalities)
    assert [str(c) for c in special.constraints] == ["b1 - b2"]
    assert tree.solution_space().dim == 1


def test_unsplittable_pivot_is_refused():
    with pytest.raises(StratificationError):
        solve_parametric(scalar_system("n^2 + n + 1"))


def test_depth_budget_is_enforced(monkeypatch):
    monkeypatch.setattr(stratify, "MAX_DEPTH", 0)
    with pytest.raises(StratificationError):
        solve_parametric(scalar_system("n"))


# -- the real localization system --------------------------------------------------

def test_every_tree_covers_its_space(loc2, loc3, adapted_spaces, aut_trees):
    trees = [s.case_tree.root for s in (loc2, loc3, *adapted_spaces)]
    for root in (*trees, *aut_trees, solve_parametric(scalar_system("n")).root):
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
                                                     aut_trees):
    kinds = set()
    for root in (*(s.case_tree.root for s in (loc2, loc3, *adapted_spaces)),
                 *aut_trees):
        for kind, mutant in mutated_trees(root):
            kinds.add(kind)
            assert coverage_failure(mutant) is not None, kind
    assert kinds == {"child dropped", "leaf dropped", "marked empty",
                     "extra inequation", "missing inequation"}


def test_a_tree_without_a_leaf_is_refused(monkeypatch, pi2, loc2):
    # some pi2 leaf, dropped, gives a space of the wrong dimension, which
    # every remaining leaf's certificate accepts
    root, dims = loc2.case_tree.root, set()
    for path, node in nodes(root):
        if isinstance(node, StratumCase):
            tree = CaseTree(loc2.case_tree.system, edit(root, path, lambda n: None))
            dims.add(tree.solution_space().dim)
            monkeypatch.setattr(local_derivations, "solve_parametric",
                                lambda system: tree)
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


# -- the per-leaf certificate -------------------------------------------------------

def certified(tree, vectors):
    return all(
        certificate_failure(tree.system, leaf, vectors) is None
        for leaf in tree.leaves
    )


def test_certificate_pins_the_special_leaf():
    # on n = 0 the equation 0*u = b is solvable only for b = 0
    tree = solve_parametric(scalar_system("n"))
    special = next(l for l in tree.leaves if l.equalities)
    generic = next(l for l in tree.leaves if not l.equalities)
    assert certificate_failure(tree.system, special, [(3,)]) is not None
    assert certificate_failure(tree.system, special, [(0,)]) is None
    # off n = 0, u = b/n solves it for every b
    assert certificate_failure(tree.system, generic, [(3,)]) is None


def test_builtin_spaces_are_certified(loc2, loc3):
    for space in (loc2, loc3):
        assert certified(space.case_tree, [m.vec() for m in space.basis])


def test_adapted_copies_are_certified(adapted_spaces):
    assert [space.dim for space in adapted_spaces] == [11, 7]
    for space in adapted_spaces:
        assert certified(space.case_tree, [m.vec() for m in space.basis])


def mutated_leaves(tree):
    """Every leaf with one substitution term or entry, or one pivot, dropped."""
    for leaf in tree.leaves:
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
        vectors = [m.vec() for m in space.basis]
        for kind, mutant in mutated_leaves(space.case_tree):
            dropped.add(kind)
            failure = certificate_failure(space.case_tree.system, mutant, vectors)
            assert failure is not None, (kind, mutant.signature())
    assert dropped == {"substitution term", "substitution entry", "pivot"}


def test_a_non_member_fails_the_certificate(loc2):
    e12 = [0] * 25
    e12[1] = 1  # E12 on pi2 is not a local derivation
    assert not certified(loc2.case_tree, [e12])
