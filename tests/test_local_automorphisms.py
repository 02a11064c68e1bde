"""Local automorphisms: closed patterns, the orbit solve, witnesses."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from locsym import (
    InputError,
    Matrix,
    find_witness,
    group_closure_check,
    locaut_feasible_at,
    pattern_check,
    pattern_residual,
    random_pattern_member,
    verify_pattern,
)
from locsym.cli import _verify_counterexample
from locsym.linalg import operator_to_payload
from locsym.local_automorphisms import Witness, automorphic_witness, orbit_solve
from locsym.poly import solve_linear
from locsym.rationals import format_rational
from locsym.stratify import coverage_failure, grid_point
from locsym.templates import (
    AUTOMORPHISM_FORM_PI2,
    AUTOMORPHISM_FORM_PI3,
    random_parameters,
)


def diag(*values):
    return Matrix([
        [values[i] if i == j else 0 for j in range(5)] for i in range(5)
    ])


# a point of each orbit-solve stratum n1 + n4 = 0 and n2 + n5 = 0
STRATUM_POINTS = ((1, 0, 0, -1, 0), (0, 1, 0, 0, -1))


def support_patterns(dim):
    """All 2^dim - 1 nonzero supports, small supports first."""
    for size in range(1, dim + 1):
        yield from itertools.combinations(range(dim), size)


# -- pattern shape ---------------------------------------------------------------

def test_branch_counts(pat2, pat3):
    assert pat2.branches == ("+",)
    assert pat3.branches == ("+", "-")
    assert pat2.dimension() == 11
    assert pat3.dimension() == 7


def test_identity_is_a_member(pat2, pat3):
    chk2 = pattern_check(pat2, Matrix.identity(5))
    chk3 = pattern_check(pat3, Matrix.identity(5))
    assert chk2.ok and not chk2.boundary
    assert chk3.ok and chk3.branch == "+"


def test_minus_branch_member(pat3):
    m = diag(1, 1, -1, 1, 1)   # b33 = -b11^3
    chk = pattern_check(pat3, m)
    assert chk.ok and chk.branch == "-"


def test_boundary_flag_on_vanishing_open_conditions(pat2):
    chk = pattern_check(pat2, Matrix.zeros(5, 5))
    assert not chk.ok
    assert chk.boundary   # relations hold, nonvanishing fails


def test_shape_violations_are_reported(pat2, pat3):
    chk = pattern_check(pat3, diag(1, 2, 1, 1, 1))
    assert not chk.ok and not chk.boundary
    assert any("b22" in f for f in chk.failures)
    # b11 is read at (1,1), its first bare occurrence; (4,4) is a relation
    chk = pattern_check(pat3, diag(1, 4, 8, 2, 4))
    assert not chk.ok and not chk.boundary
    chk2 = pattern_check(pat2, diag(1, 1, 1, 3, 1))
    assert not chk2.ok
    assert any("b44" in f for f in chk2.failures)
    with pytest.raises(InputError):
        pattern_check(pat2, Matrix.identity(4))


def test_random_members_satisfy_their_branch(pat3):
    rng = random.Random(5)
    for _ in range(10):
        member = random_pattern_member(pat3, rng)
        assert pattern_check(pat3, member).ok


# -- pointwise feasibility ----------------------------------------------------------

def test_members_are_pointwise_feasible(pi3, pat3):
    rng = random.Random(1)
    member = random_pattern_member(pat3, rng)
    for x in ((1, 0, 0, 0, 0), (1, 2, 3, 4, 5), (0, 1, 0, 1, 0)):
        report = locaut_feasible_at(pi3, member, x)
        assert report.feasible


def test_feasibility_report_carries_matching_parameters(pi2, pat2, fam2):
    member = random_pattern_member(pat2, random.Random(2))
    x = (2, -1, 3, 1, 4)
    assert locaut_feasible_at(pi2, member, x).feasible
    witness = automorphic_witness(pi2, member, x)
    assert not witness.roots   # x1 != 0: every parameter is rational
    phi = fam2.instantiate({p: v.constant_value() for p, v in witness.params.items()})
    assert phi.apply(x) == member.apply(x)


def support_points(rng, draw):
    """A point of each support pattern, and a multiple of each stratum point."""
    return [
        tuple(draw() if i in s else 0 for i in range(5)) for s in support_patterns(5)
    ] + [tuple(draw() * v for v in raw) for raw in STRATUM_POINTS]


def assert_exact_witnesses_match(rng, points, cases):
    """Every witness is exact (no float anywhere) and matches b at x."""
    rational = 0
    for algebra, pattern, family in cases:
        for _ in range(10):
            b = random_pattern_member(pattern, rng)
            for x in points:
                assert locaut_feasible_at(algebra, b, x).feasible
                witness = automorphic_witness(algebra, b, x)
                assert witness.verifies(family.template, x, b.apply(x))
                values = [c for p in witness.params.values() for c in p.terms.values()]
                values += [c for r in witness.roots for c in r.value.terms.values()]
                assert all(type(v) is int or type(v) is Fraction and v.denominator > 1
                           for v in values)
                if not witness.roots:
                    rational += 1
                    phi = family.instantiate(
                        {p: v.constant_value() for p, v in witness.params.items()})
                    assert phi.apply(x) == b.apply(x)
    assert rational > 0


def test_exact_witnesses_stay_exact_on_int_points(
    pi2, pi3, pat2, pat3, fam2, fam3
):
    rng = random.Random(11)
    points = support_points(rng, lambda: rng.choice((-3, -2, -1, 1, 2, 3)))
    assert_exact_witnesses_match(
        rng, points, ((pi2, pat2, fam2), (pi3, pat3, fam3))
    )


def test_exact_witnesses_stay_exact_on_rational_points(
    pi2, pi3, pat2, pat3, fam2, fam3
):
    rng = random.Random(12)

    def ratio():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9))

    points = support_points(rng, ratio)
    assert any(type(v) is Fraction for x in points for v in x)
    assert_exact_witnesses_match(
        rng, points, ((pi2, pat2, fam2), (pi3, pat3, fam3))
    )


# A pi2 pattern member at a large point of the leaf x1 = x4 = 0 with
# x2, x2 + x5 != 0, where both torus values are square roots.
LARGE_POINT_MEMBER = Matrix([
    [7, 0, 0, 0, 0],
    [-2, -8, 0, 0, 0],
    [0, -9, -7, -6, 0],
    [8, 0, 0, 15, 0],
    [-8, -3, 0, 4, -11],
])
LARGE_POINT = (0, 163787, 723238, 0, 44498)


def test_a_large_point_has_an_exact_root_witness(pi2, pat2):
    assert pattern_check(pat2, LARGE_POINT_MEMBER).ok
    assert locaut_feasible_at(pi2, LARGE_POINT_MEMBER, LARGE_POINT).feasible
    witness = automorphic_witness(pi2, LARGE_POINT_MEMBER, LARGE_POINT)
    assert [(r.unknown, r.power) for r in witness.roots] == [("t1", 2), ("t2", 2)]
    y = LARGE_POINT_MEMBER.apply(LARGE_POINT)
    assert witness.verifies(AUTOMORPHISM_FORM_PI2, LARGE_POINT, y)


def test_a_coordinate_beyond_float_range_is_decided(pi2):
    # beyond float range: the decision and the witness take no float step
    x = (0, 10**400, 0, 0, 0)
    assert locaut_feasible_at(pi2, Matrix.identity(5), x).feasible
    witness = automorphic_witness(pi2, Matrix.identity(5), x)
    assert witness.verifies(AUTOMORPHISM_FORM_PI2, x, x)


@pytest.mark.parametrize("decide", [locaut_feasible_at, automorphic_witness])
def test_a_point_of_the_wrong_dimension_is_refused(pi2, decide):
    with pytest.raises(InputError, match="point dimension does not match"):
        decide(pi2, Matrix.identity(5), (1, 0))


def test_root_branches_verify_at_large_coordinates(pi2, pi3, pat2, pat3):
    # every support with x1 = 0 reaches a root witness or an exact
    # x4 != 0 solve; each must verify exactly
    rng = random.Random(13)
    supports = [s for s in support_patterns(5) if 0 not in s]
    for algebra, pattern, family in ((pi2, pat2, AUTOMORPHISM_FORM_PI2),
                                     (pi3, pat3, AUTOMORPHISM_FORM_PI3)):
        roots = 0
        for _ in range(40):
            b = random_pattern_member(pattern, rng)
            for support in supports:
                x = tuple(
                    rng.choice((-1, 1)) * rng.randint(1, 10**7)
                    if i in support else 0
                    for i in range(5)
                )
                report = locaut_feasible_at(algebra, b, x)
                assert report.feasible, (b, x, report.detail)
                witness = automorphic_witness(algebra, b, x)
                assert witness.verifies(family, x, b.apply(x))
                roots += bool(witness.roots)
        assert roots > 0


def negated(witness):
    """The witness with each root a root of the negated radicand.

    For an odd power that is the negated root; for a square the negated
    root is the other root, which matches as well as the first.
    """
    return Witness(witness.params, tuple(replace(r, value=-r.value) for r in witness.roots))


@pytest.mark.parametrize("name, family", [
    ("pi2", AUTOMORPHISM_FORM_PI2), ("pi3", AUTOMORPHISM_FORM_PI3),
])
def test_a_negated_root_is_rejected_at_large_coordinates(request, name, family):
    algebra = request.getfixturevalue(name)
    b = diag(2, 4, 8, 2, 4)   # a11 = 2 in both automorphism families
    x = (0, 0, 10**7, 0, 0)   # the cube-root leaf: a11^3 x3 = y3
    witness = automorphic_witness(algebra, b, x)
    assert [(r.unknown, r.power) for r in witness.roots] == [("t1", 3)]
    y = b.apply(x)
    assert witness.verifies(family, x, y)
    assert not negated(witness).verifies(family, x, y)


# -- the orbit solve -------------------------------------------------------------------

SOLVES = [(AUTOMORPHISM_FORM_PI2, 10), (AUTOMORPHISM_FORM_PI3, 7)]


@pytest.mark.parametrize("family, leaves", SOLVES, ids=["pi2", "pi3"])
def test_the_orbit_solve_leaves_partition_x_space(family, leaves):
    solve = orbit_solve(family)
    assert coverage_failure(solve.root) is None
    assert len(solve.leaves) == leaves


def breakings(y, polynomial, point, vanish):
    """y changed in one coordinate so that polynomial vanishes, or does not."""
    for v in sorted(v for v in polynomial.variables() if v.startswith("y")):
        k, at = int(v[1:]) - 1, point | {v: 0}
        if vanish:
            a, rest = polynomial.coeff_split(v)
            if a.evaluate(at):
                yield y[:k] + (Fraction(-rest.evaluate(at)) / a.evaluate(at),) + y[k + 1:]
        else:
            yield from (y[:k] + (y[k] + d,) + y[k + 1:] for d in (1, 2, 3)
                        if polynomial.evaluate(point | {v: y[k] + d}))


@pytest.mark.parametrize("family", [AUTOMORPHISM_FORM_PI2, AUTOMORPHISM_FORM_PI3],
                         ids=["pi2", "pi3"])
def test_every_leaf_accepts_images_and_refuses_each_broken_condition(family):
    solve, rng = orbit_solve(family), random.Random(7)
    for leaf in solve.leaves:
        x = tuple(grid_point(leaf)[f"x{k + 1}"] for k in range(5))
        y = tuple(family.instantiate(random_parameters(family, rng, 3)).apply(x))
        point = solve.point(x, y)
        assert solve.leaf_at(point) is leaf
        assert solve.decide(x, y).feasible, leaf.name
        witness = solve.witness(x, y)
        assert witness.verifies(family, x, y)
        if witness.roots:
            assert not negated(witness).verifies(family, x, y), leaf.name
        # conditions are read first, so a vanishing inequation may be
        # reported through a condition that the change breaks as well
        conditions = [f"{e} = 0 fails" for e in leaf.constraints]
        checks = [(e, [f"{e} = 0 fails"], False) for e in leaf.constraints]
        checks += [(q, [f"{q} != 0 fails", *conditions], True) for q in leaf.nonzero]
        for polynomial, failures, vanish in checks:
            assert any(not (r := solve.decide(x, moved)).feasible
                       and r.detail.endswith(f"fails on the leaf {leaf.name}")
                       and r.detail.startswith(tuple(failures))
                       for moved in breakings(y, polynomial, point, vanish)), failures[0]


# -- refutation witnesses --------------------------------------------------------------

def test_b22_bump_witness_is_e2_plus_e4(pi3):
    witness = find_witness(pi3, diag(1, 2, 1, 1, 1))
    assert witness == (0, 1, 0, 1, 0)
    report = locaut_feasible_at(pi3, diag(1, 2, 1, 1, 1), witness)
    assert not report.feasible


def test_b44_bump_witness(pi2):
    witness = find_witness(pi2, diag(1, 1, 1, 3, 1))
    assert witness == (1, 0, 0, -1, 0)
    assert not locaut_feasible_at(pi2, diag(1, 1, 1, 3, 1), witness).feasible
    with pytest.raises(InputError, match="matrix shape does not match"):
        find_witness(pi2, Matrix.identity(4))


def test_members_have_no_witness(pi2, pat2):
    member = random_pattern_member(pat2, random.Random(3))
    assert find_witness(pi2, member) is None


def operators(pattern, rng, count):
    """Seeded members, each with a one-entry bump and its grid on the zero
    set of each open condition (a boundary operator, refuted only by an
    inequation that vanishes identically), and small 0/+-1 matrices."""
    for _ in range(count):
        template = rng.choice(pattern.templates)
        params = random_parameters(template, rng, 3)
        member = template.instantiate(params)
        rows = [list(row) for row in member.rows]
        rows[rng.randrange(5)][rng.randrange(5)] += rng.choice((-1, 1, 2))
        yield from (member, Matrix(rows))
        for condition in template.nonzero:
            (v, value), = solve_linear(condition).items()
            at = params | {v: value.evaluate(params)}
            yield Matrix([[e.evaluate(at) for e in row] for row in template.entries])
        yield Matrix([[rng.choice((0, 0, 1, -1)) for _ in range(5)] for _ in range(5)])


def test_refutation_is_complete_and_deterministic(monkeypatch, pi2, pi3, pat2, pat3):
    # the walk refutes exactly the non-members, each at an infeasible point
    # that replays, and draws nothing
    rng = random.Random(21)
    cases = [(algebra, pattern, b) for algebra, pattern in ((pi2, pat2), (pi3, pat3))
             for b in operators(pattern, rng, 20)]

    def draw(*_):
        raise AssertionError("a random number was drawn")

    monkeypatch.setattr(random.Random, "random", draw)
    monkeypatch.setattr(random.Random, "getrandbits", draw)
    outcomes = set()
    for algebra, pattern, b in cases:
        point = find_witness(algebra, b)
        check = pattern_check(pattern, b)
        assert (point is None) == check.ok, (algebra.name, b)
        outcomes.add((check.ok, check.boundary))
        if point is not None:
            assert not locaut_feasible_at(algebra, b, point).feasible
            reproduced, _ = _verify_counterexample({
                "kind": "locaut_witness", "algebra": algebra.name,
                "matrix": operator_to_payload(b),
                "point": [format_rational(v) for v in point],
            }, tol=0.0)
            assert reproduced
    assert outcomes == {(True, False), (False, False), (False, True)}


# -- two-way verification and group structure ----------------------------------------

def test_verify_pattern_small_battery(pat2, pat3):
    for pat in (pat2, pat3):
        report = verify_pattern(pat)
        assert report.ok, report.detail
        assert report.counterexample is None


def test_group_closure(pat2, pat3):
    assert group_closure_check(pat2)
    assert group_closure_check(pat3)


# -- float-side residuals ---------------------------------------------------------------

def test_pattern_residual_on_exact_members(pi3, pat3):
    plus = random_pattern_member(pat3, random.Random(8), branch="+")
    minus = random_pattern_member(pat3, random.Random(8), branch="-")
    chk_plus = pattern_residual(pi3, plus.rows)
    chk_minus = pattern_residual(pi3, minus.rows)
    assert chk_plus.residual == 0.0 and chk_plus.branch == "+"
    assert chk_minus.residual == 0.0 and chk_minus.branch == "-"
    assert chk_plus.min_open > 0


def test_pattern_residual_measures_violation(pi2):
    chk = pattern_residual(pi2, diag(1, 1, 1, 3, 1).rows)
    assert chk.residual == pytest.approx(2.0)   # b44 - b41 - b11 = 3 - 0 - 1
