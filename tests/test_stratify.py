"""Parametric linear solving with exact case splits on vanishing pivots.

A hand-built one-equation system pins the expected two-leaf tree; the
localization system of the derivation engine exercises the full path.
The per-leaf certificate is checked on both, and on mutated leaves.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from locsym import (
    ParametricSystem,
    StratificationError,
    solve_parametric,
)
from locsym.local_derivations import localization_system
from locsym.poly import Poly, poly
from locsym.stratify import Equation, certificate_failure, leaf_refutation


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


def test_depth_budget_is_enforced():
    with pytest.raises(StratificationError):
        solve_parametric(scalar_system("n"), max_depth=0)


# -- the real localization system --------------------------------------------------

def test_localization_tree_covers_probe_space(der2, loc2):
    tree = loc2.case_tree
    assert tree is not None
    assert loc2.provenance == "exact"
    system = localization_system(der2)
    assert system.unknowns == tree.system.unknowns
    rng = random.Random(11)
    for _ in range(50):
        point = {
            v: Fraction(rng.randint(-9, 9)) for v in tree.system.nu_vars
        }
        hits = [leaf for leaf in tree.leaves if leaf.contains(point)]
        assert len(hits) == 1


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
