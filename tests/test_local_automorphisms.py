"""Local automorphisms: closed patterns, pointwise feasibility, witnesses."""

import random
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
from locsym.local_automorphisms import (
    _point_cycle,
    _random_point,
    _random_violation,
    _try_numeric,
)
from locsym.local_derivations import support_patterns
from locsym.templates import AUTOMORPHISM_FORM_PI2, AUTOMORPHISM_FORM_PI3


def diag(*values):
    return Matrix([
        [values[i] if i == j else 0 for j in range(5)] for i in range(5)
    ])


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


def test_random_violations_leave_the_pattern(pat2, pat3):
    rng = random.Random(4)
    for pat in (pat2, pat3):
        for _ in range(60):
            assert not pattern_check(pat, _random_violation(pat, rng)).ok


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
    report = locaut_feasible_at(pi2, member, x)
    assert report.feasible and report.exact
    phi = fam2.instantiate(report.witness_params)
    assert phi.apply(x) == member.apply(x)


def assert_exact_witnesses_match(rng, points, cases):
    """Every exact witness is canonical (never a float) and matches b at x."""
    exact_reports = 0
    for algebra, pattern, family in cases:
        for _ in range(10):
            b = random_pattern_member(pattern, rng)
            for x in points:
                report = locaut_feasible_at(algebra, b, x)
                assert report.feasible
                if not report.exact:
                    continue
                exact_reports += 1
                for v in report.witness_params.values():
                    assert type(v) is int or (
                        type(v) is Fraction and v.denominator != 1
                    ), v
                phi = family.instantiate(report.witness_params)
                assert phi.apply(x) == b.apply(x)
    assert exact_reports > 0


def test_exact_witnesses_stay_exact_on_int_points(
    pi2, pi3, pat2, pat3, fam2, fam3
):
    # Canonical int coordinates must not turn the schedules' divisions
    # (y1 / n1) into float division.
    rng = random.Random(11)
    supports, strata = _point_cycle(5)
    points = [
        tuple(rng.choice((-3, -2, -1, 1, 2, 3)) if i in s else 0 for i in range(5))
        for s in supports
    ] + [tuple(rng.randint(1, 9) * v for v in raw) for raw in strata]
    assert_exact_witnesses_match(
        rng, points, ((pi2, pat2, fam2), (pi3, pat3, fam3))
    )


def test_exact_witnesses_stay_exact_on_rational_points(
    pi2, pi3, pat2, pat3, fam2, fam3
):
    rng = random.Random(12)
    supports, strata = _point_cycle(5)

    def ratio():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9))

    points = [
        tuple(ratio() if i in s else 0 for i in range(5)) for s in supports
    ] + [tuple(ratio() * v for v in raw) for raw in strata]
    assert any(type(v) is Fraction for x in points for v in x)
    assert_exact_witnesses_match(
        rng, points, ((pi2, pat2, fam2), (pi3, pat3, fam3))
    )


# A pi2 pattern member whose n2-branch root witness has residual 1.86e-9
# at this point: roundoff relative to max|y| = 6.5e6 is 2.8e-16.
LARGE_POINT_MEMBER = Matrix([
    [7, 0, 0, 0, 0],
    [-2, -8, 0, 0, 0],
    [0, -9, -7, -6, 0],
    [8, 0, 0, 15, 0],
    [-8, -3, 0, 4, -11],
])
LARGE_POINT = (0, 163787, 723238, 0, 44498)


def test_root_witness_tolerance_scales_with_the_coordinates(pi2, pat2):
    assert pattern_check(pat2, LARGE_POINT_MEMBER).ok
    report = locaut_feasible_at(pi2, LARGE_POINT_MEMBER, LARGE_POINT)
    assert report.feasible and not report.exact
    assert 1e-9 < report.residual < 1e-8


def test_root_branches_verify_at_large_coordinates(pi2, pi3, pat2, pat3):
    # every support with x1 = 0 reaches a root witness or an exact
    # n4-branch solve; none may fail to verify (InternalCheckError)
    rng = random.Random(13)
    supports = [s for s in support_patterns(5) if 0 not in s]
    for algebra, pattern in ((pi2, pat2), (pi3, pat3)):
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
                roots += not report.exact
        assert roots > 0


@pytest.mark.parametrize("name, family", [
    ("pi2", AUTOMORPHISM_FORM_PI2), ("pi3", AUTOMORPHISM_FORM_PI3),
])
def test_a_negated_root_is_rejected_at_large_coordinates(request, name, family):
    algebra = request.getfixturevalue(name)
    b = diag(2, 4, 8, 2, 4)   # a11 = 2 in both automorphism families
    x = (0, 0, 10**7, 0, 0)   # the cube-root branch: y3 = a11^3 x3
    report = locaut_feasible_at(algebra, b, x)
    assert report.feasible and not report.exact
    y = b.apply(x)
    assert _try_numeric(family, report.witness_params, x, y, report.detail) == report
    negated = dict(report.witness_params, a11=-report.witness_params["a11"])
    assert _try_numeric(family, negated, x, y, report.detail) is None


# -- refutation witnesses --------------------------------------------------------------

def test_b22_bump_witness_is_e2_plus_e4(pi3):
    witness = find_witness(pi3, diag(1, 2, 1, 1, 1), seed=0)
    assert witness == (0, 1, 0, 1, 0)
    report = locaut_feasible_at(pi3, diag(1, 2, 1, 1, 1), witness)
    assert not report.feasible


def test_b44_bump_witness(pi2):
    witness = find_witness(pi2, diag(1, 1, 1, 3, 1), seed=0)
    assert witness == (1, 0, 0, -1, 0)
    assert not locaut_feasible_at(pi2, diag(1, 1, 1, 3, 1), witness).feasible


def test_members_have_no_witness(pi2, pat2):
    member = random_pattern_member(pat2, random.Random(3))
    assert find_witness(pi2, member, seed=0, random_trials=50) is None


# -- two-way verification and group structure ----------------------------------------

def test_verify_pattern_small_battery(pat2, pat3):
    for pat in (pat2, pat3):
        report = verify_pattern(pat, trials=40, seed=6)
        assert report.ok, report.detail
        assert report.counterexample is None


def test_support_points_have_exactly_their_support():
    supports, strata = _point_cycle(5)
    rng = random.Random(10)
    for k in range(20 * (len(supports) + len(strata))):
        x = _random_point(supports, strata, 5, rng, k)
        phase = k % (len(supports) + len(strata))
        if phase < len(supports):
            assert {i for i, v in enumerate(x) if v != 0} == set(supports[phase])


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
