"""Local derivations: exact spaces, entry relations, strict inclusion."""

import gc
import random
import traceback
import types
from fractions import Fraction
from pathlib import Path

import pytest

from locsym import (
    InternalCheckError,
    Matrix,
    StratificationError,
    is_derivation,
    local_derivation_space,
    pointwise_membership,
    strict_inclusion_witness,
    template_space_equals,
)
from locsym.cli import _verify_counterexample
from locsym.linalg import operator_to_payload
from locsym.local_derivations import der_solve, output_symbols, refuting_point
from locsym.poly import Poly, linear_factors, poly
from locsym.rationals import format_rational
from locsym.stratify import OrbitSolve, Split, StratumCase, grid_point, member_image
from locsym.templates import LOCAL_DERIVATION_FORM_PI2, LOCAL_DERIVATION_FORM_PI3


def e_matrix(i, j, value=1):
    rows = [[0] * 5 for _ in range(5)]
    rows[i][j] = value
    return Matrix(rows)


STRATUM_POINTS = ((1, 0, 0, -1, 0), (0, 1, 0, 0, -1))


# -- dimensions and closed forms -----------------------------------------------

def test_dimensions(loc2, loc3):
    assert loc2.dim == 11
    assert loc3.dim == 7
    assert loc2.provenance == "exact"
    assert loc3.provenance == "exact"


def test_spans_match_closed_forms(loc2, loc3):
    assert template_space_equals(
        LOCAL_DERIVATION_FORM_PI2, loc2.basis
    )
    assert template_space_equals(
        LOCAL_DERIVATION_FORM_PI3, loc3.basis
    )


def test_entry_relations_hold_on_every_basis_element(loc2, loc3):
    for op in loc2.basis:
        e = op.rows
        assert e[3][3] == e[3][0] + e[0][0]   # b44 = b41 + b11
        assert e[4][4] == e[1][1] + e[4][1]   # b55 = b22 + b52
    for op in loc3.basis:
        e = op.rows
        assert e[1][1] == 2 * e[0][0]         # b22 = 2 b11
        assert e[2][2] == 3 * e[0][0]         # b33 = 3 b11
        assert e[3][3] == e[0][0]             # b44 = b11
        assert e[4][4] == 2 * e[0][0]         # b55 = 2 b11


def test_derivations_embed_in_local_derivations(der2, loc2, der3, loc3):
    for ders, locs in ((der2, loc2), (der3, loc3)):
        span = locs.span()
        for op in ders.basis:
            assert span.contains(op.vec())


# -- pointwise membership ---------------------------------------------------------

def test_pointwise_membership_returns_exact_coefficients(der2, loc2):
    nabla = loc2.basis[0]
    x = (1, 2, 3, 4, 5)
    c = pointwise_membership(der2, nabla, x)
    assert c is not None
    combo = Matrix.zeros(5, 5)
    for coeff, op in zip(c, der2.basis):
        combo = combo + op * coeff
    assert combo.apply(x) == nabla.apply(x)


def test_pointwise_membership_detects_failure(der2):
    # E12 is not even a local derivation; probing e2 exposes it
    assert pointwise_membership(der2, e_matrix(0, 1), (0, 1, 0, 0, 0)) is None


def test_output_symbols_are_distinct_in_every_dimension():
    # b{i}{j} would name both (1,11) and (11,1) b111 from dimension 11 on
    for n in range(1, 13):
        assert len(set(output_symbols(n))) == n * n
    assert output_symbols(3)[:4] == ("b11", "b12", "b13", "b21")
    assert output_symbols(9)[-1] == "b99"
    assert output_symbols(11)[10] == "b1_11" and output_symbols(11)[110] == "b11_1"
    assert all(poly(s) == Poly.var(s) for s in output_symbols(12))


# -- deterministic refutation of non-members ------------------------------------

@pytest.mark.parametrize("name, count", [("pi2", 20), ("pi3", 16)])
def test_every_leaf_constraint_is_refuted_from_its_own_leaf(
    name, count, loc2, loc3
):
    solve = der_solve({"pi2": loc2, "pi3": loc3}[name].derivations)
    symbols = output_symbols(5)
    generic = [[poly(s) for s in symbols[5 * i:5 * i + 5]] for i in range(5)]
    refuted = 0
    for leaf in solve.leaves:
        for condition in leaf.constraints:
            # the unit operator on a symbol the condition reads at y = B x
            # breaks it; a condition that reads none (on the leaf x = 0,
            # B x = 0 for every B) holds for every operator
            read = condition.subs(member_image(leaf, generic))
            if not read:
                continue
            symbol = next(s for s in symbols if read.degree_in(s))
            op = Matrix.from_vec([int(s == symbol) for s in symbols], 5)
            point = grid_point(leaf, condition.subs(member_image(leaf, op.rows)))
            assert leaf.contains(point)
            reproduced, _ = _verify_counterexample({
                "kind": "pointwise", "algebra": name,
                "matrix": operator_to_payload(op),
                "point": [format_rational(point[f"x{k + 1}"]) for k in range(5)],
            }, tol=0.0)
            assert reproduced
            refuted += 1
    assert refuted == count


def test_refuting_point_is_deterministic_and_draws_nothing(loc2, monkeypatch):
    def draw(*_):
        raise AssertionError("a random number was drawn")

    monkeypatch.setattr(random.Random, "random", draw)
    monkeypatch.setattr(random.Random, "getrandbits", draw)
    assert refuting_point(loc2, e_matrix(0, 1)) == (0, 1, 0, 1, 0)
    with pytest.raises(InternalCheckError):
        refuting_point(loc2, loc2.basis[0])


@pytest.mark.parametrize("name, leaves, point", [
    ("pi2", 10, (0, 1, 0, 1, 0)), ("pi3", 7, (1, 1, 0, 1, 0))])
def test_der_solve_rebuilds_the_proved_tree(name, leaves, point, loc2, loc3):
    space = {"pi2": loc2, "pi3": loc3}[name]
    assert space.proof_leaves == leaves
    assert len(der_solve(space.derivations).leaves) == leaves
    assert refuting_point(space, e_matrix(0, 1)) == point


def reachable(root):
    """The objects reachable from root through instance data; classes,
    modules and functions are not walked into."""
    seen, stack = {id(root)}, [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) not in seen and not isinstance(
                    ref, (type, types.ModuleType, types.FunctionType)):
                seen.add(id(ref))
                stack.append(ref)
                yield ref


def test_a_space_keeps_no_proof_tree(loc2, loc3):
    # a space keeps its basis, its Der and a leaf count: the solve it was
    # proved on is rebuilt by der_solve when a refutation needs it
    for space in (loc2, loc3):
        kept = [type(o) for o in reachable(space)]
        assert Matrix in kept
        assert not [t for t in kept if issubclass(t, (OrbitSolve, StratumCase, Split, Poly))]


# -- strict inclusion ---------------------------------------------------------------

def test_witness_pi2_is_e11_plus_e44(pi2, der2, loc2):
    witness = strict_inclusion_witness(pi2, der2, loc2)
    assert witness == e_matrix(0, 0) + e_matrix(3, 3)
    assert not is_derivation(pi2, witness)


def test_witness_pi3_is_e21(pi3, der3, loc3):
    witness = strict_inclusion_witness(pi3, der3, loc3)
    assert witness == e_matrix(1, 0)
    assert not is_derivation(pi3, witness)


def test_witness_membership_holds_on_the_singled_out_strata(der2, loc2):
    witness = e_matrix(0, 0) + e_matrix(3, 3)
    for x in STRATUM_POINTS:
        assert pointwise_membership(der2, witness, x) is not None


def test_random_local_members_pass_pointwise_probes(der3, loc3):
    template = LOCAL_DERIVATION_FORM_PI3
    rng = random.Random(7)
    for _ in range(10):
        params = {p: Fraction(rng.randint(-9, 9)) for p in template.params}
        nabla = template.instantiate(params)
        for _ in range(20):
            x = tuple(Fraction(rng.randint(-9, 9)) for _ in range(5))
            assert pointwise_membership(der3, nabla, x) is not None


# -- refusal instead of an approximate space ------------------------------------

# The pivot of the dense copy's Der solve that linear_factors cannot
# split.  Over Q it is (285 x1 - 99 x2 + 125 x3)^3, but _peel_linear only
# peels a factor off a variable of degree 1 or 2, and here all have
# degree 3 (ROADMAP item 1, step 1).
DENSE_PI3_PIVOT = ("23149125*x1^3 - 24123825*x1^2*x2 + 30459375*x1^2*x3 + 8379855*x1*x2^2"
                   " - 21161250*x1*x2*x3 + 13359375*x1*x3^2 - 970299*x2^3 + 3675375*x2^2*x3"
                   " - 4640625*x2*x3^2 + 1953125*x3^3")


def test_a_pivot_that_does_not_split_is_refused(dense_pi3):
    with pytest.raises(StratificationError) as info:
        local_derivation_space(dense_pi3)
    pivot = info.value.offending
    assert str(pivot) == DENSE_PI3_PIVOT
    assert pivot.total_degree() == 3
    with pytest.raises(StratificationError):
        linear_factors(pivot)
    assert DENSE_PI3_PIVOT in str(info.value)


def test_a_refusal_holds_no_solver_frames(dense_pi3):
    # a caller that keeps the error must not keep the solver's recursion
    with pytest.raises(StratificationError) as info:
        local_derivation_space(dense_pi3)
    frames = traceback.extract_tb(info.value.__traceback__)
    assert "stratify.py" not in {Path(f.filename).name for f in frames}
