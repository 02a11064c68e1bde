"""Shared fixtures: the builtin algebras and their computed spaces.

The expensive exact computations (derivation spaces, localization case
trees, closed automorphism forms) are deterministic, so they are built
once per session and shared across test modules.
"""

import pytest

from locsym import (
    Algebra,
    Matrix,
    automorphism_family,
    builtin,
    derivation_algebra,
    local_derivation_space,
    locaut_pattern,
)
from locsym.linalg import inverse

# A dense basis change of pi3: the new basis vector f_j is column j.
DENSE_PI3_BASIS = Matrix([
    [3, 2, 2, 1, -2],
    [2, 1, 1, 3, -3],
    [1, -1, 1, -3, -2],
    [3, -3, 1, -2, 3],
    [1, 1, -1, 1, -2],
])


@pytest.fixture(scope="session")
def pi2():
    return builtin("pi2")


@pytest.fixture(scope="session")
def pi3():
    return builtin("pi3")


@pytest.fixture(scope="session")
def der2(pi2):
    return derivation_algebra(pi2)


@pytest.fixture(scope="session")
def der3(pi3):
    return derivation_algebra(pi3)


@pytest.fixture(scope="session")
def loc2(pi2):
    return local_derivation_space(pi2)


@pytest.fixture(scope="session")
def loc3(pi3):
    return local_derivation_space(pi3)


@pytest.fixture(scope="session")
def dense_pi3(pi3):
    """pi3 in the basis DENSE_PI3_BASIS: f_i f_j = P^-1 (P e_i)(P e_j)."""
    p, n = DENSE_PI3_BASIS, pi3.dim
    p_inv = inverse(p)
    columns = p.transpose().rows
    table = {}
    for i in range(n):
        for j in range(n):
            coords = p_inv.apply(pi3.multiply(columns[i], columns[j]))
            if any(coords):
                table[(i, j)] = coords
    return Algebra(name="pi3-dense", dim=n, table=table)


@pytest.fixture(scope="session")
def fam2(pi2):
    return automorphism_family(pi2)


@pytest.fixture(scope="session")
def fam3(pi3):
    return automorphism_family(pi3)


@pytest.fixture(scope="session")
def pat2(pi2):
    return locaut_pattern(pi2)


@pytest.fixture(scope="session")
def pat3(pi3):
    return locaut_pattern(pi3)
