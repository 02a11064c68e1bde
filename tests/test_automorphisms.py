"""Automorphism groups: closed families, verification, group laws."""

import random
from fractions import Fraction

from locsym import (
    Matrix,
    group_closure_report,
    is_automorphism,
    multiplicativity_residual,
    random_member,
    verify_family,
)
from locsym.automorphisms import multiplicativity_failure
from locsym.linalg import inverse


def member(fam, seed=0, bound=5):
    return random_member(fam, random.Random(seed), bound=bound)


# -- membership ---------------------------------------------------------------

def test_identity_is_an_automorphism(pi2, pi3):
    assert is_automorphism(pi2, Matrix.identity(5))
    assert is_automorphism(pi3, Matrix.identity(5))


def test_family_members_are_automorphisms(pi2, fam2, pi3, fam3):
    for algebra, fam in ((pi2, fam2), (pi3, fam3)):
        for seed in range(5):
            phi = member(fam, seed)
            assert is_automorphism(algebra, phi)
            assert multiplicativity_residual(algebra, phi.rows) == 0.0


def test_non_automorphisms_are_rejected(pi2, pi3):
    swap = Matrix([
        [0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ])
    assert not is_automorphism(pi2, swap)
    assert not is_automorphism(pi3, swap)
    assert not is_automorphism(pi2, Matrix.zeros(5, 5))   # not invertible
    assert not is_automorphism(pi2, 2 * Matrix.identity(5))


def test_multiplicativity_failure_names_the_first_basis_pair(pi2, fam2):
    # doubling e4 first breaks e1 e4 = e5: phi(e5) = e5 but e1 (2 e4) = 2 e5
    doubled = Matrix.identity(5) + Matrix([
        [1 if (i, j) == (3, 3) else 0 for j in range(5)] for i in range(5)
    ])
    assert multiplicativity_failure(pi2, doubled) == (0, 3)
    assert multiplicativity_failure(pi2, 2 * Matrix.identity(5)) == (0, 0)
    # the zero map is multiplicative; only invertibility rejects it
    assert multiplicativity_failure(pi2, Matrix.zeros(5, 5)) is None
    assert multiplicativity_failure(pi2, member(fam2)) is None


def test_template_match_recovers_parameters(fam2):
    params = {p: Fraction(2) for p in fam2.template.params}
    phi = fam2.instantiate(params)
    assert fam2.match(phi) == params
    assert fam2.match(Matrix.identity(5)) is not None


# -- two-way family verification ------------------------------------------------

def test_verify_family_small_battery(fam2, fam3):
    for fam in (fam2, fam3):
        report = verify_family(fam, trials=60, seed=3)
        assert report.ok, report.detail
        assert report.counterexample is None


def test_group_closure(fam2, fam3):
    for fam in (fam2, fam3):
        report = group_closure_report(fam, trials=30, seed=4)
        assert report.ok, report.detail


def test_products_and_inverses_explicitly(pi3, fam3):
    a = member(fam3, seed=1)
    b = member(fam3, seed=2)
    assert is_automorphism(pi3, a * b)
    assert is_automorphism(pi3, inverse(a))
    assert fam3.match(a * b) is not None
    assert fam3.match(inverse(a)) is not None

