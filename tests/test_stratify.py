"""Parametric linear solving with exact case splits on vanishing pivots.

A hand-built one-equation system pins the expected two-leaf tree; the
localization system of the derivation engine exercises the full path.
"""

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
from locsym.stratify import Equation, instantiate_at, sample_stratum


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


def test_samples_lie_in_their_strata():
    tree = solve_parametric(scalar_system("n"))
    for leaf in tree.leaves:
        assert leaf.contains(leaf.sample)
        again = sample_stratum(leaf, seed=5)
        assert leaf.contains(again)


def test_instantiate_at_matches_leaf_constraints():
    system = scalar_system("n")
    tree = solve_parametric(system)
    special = next(l for l in tree.leaves if l.equalities)
    m, rhs = instantiate_at(system, special.sample, {"b": Fraction(3)})
    # coefficient matrix vanished, rhs did not: inconsistent, as predicted
    assert m.rows == ((0,),)
    assert rhs == (3,)


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
