"""Shared fixtures: the builtin algebras and their computed spaces.

The expensive exact computations (derivation spaces, localization case
trees, closed automorphism forms) are deterministic, so they are built
once per session and shared across test modules.
"""

import pytest

from locsym import (
    Algebra,
    AutomorphismFamily,
    Matrix,
    MatrixTemplate,
    automorphism_family,
    builtin,
    closed_forms,
    derivation_algebra,
    local_derivation_space,
    locaut_pattern,
)
from locsym import automorphisms
from locsym.linalg import inverse
from locsym.local_automorphisms import relation_split
from locsym.poly import poly
from locsym.templates import AUTOMORPHISM_FORM_PI2, AUTOMORPHISM_FORM_PI3

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


# A unitriangular basis change adapted to the power filtration of pi2 and
# pi3 (e1, e4 in degree 1; e2, e5 in degree 2; e3 in degree 3).
ADAPTED_BASIS = Matrix([
    [1, 0, 0, 0, 0],
    [2, 1, 0, -1, 0],
    [-3, 1, 1, 2, -2],
    [0, 0, 0, 1, 0],
    [1, 0, 0, 3, 1],
])


def rebased(algebra, p, name):
    """The algebra in the basis f_j = column j of p.

    f_i f_j = P^-1 (P e_i)(P e_j).
    """
    n = algebra.dim
    p_inv = inverse(p)
    columns = p.transpose().rows
    table = {}
    for i in range(n):
        for j in range(n):
            coords = p_inv.apply(algebra.multiply(columns[i], columns[j]))
            if any(coords):
                table[(i, j)] = coords
    return Algebra(name=name, dim=n, table=table)


@pytest.fixture(scope="session")
def dense_pi3(pi3):
    return rebased(pi3, DENSE_PI3_BASIS, "pi3-dense")


@pytest.fixture(scope="session")
def adapted_spaces(pi2, pi3):
    """LocDer of pi2 and of pi3 in the basis ADAPTED_BASIS."""
    return tuple(
        local_derivation_space(rebased(a, ADAPTED_BASIS, f"{a.name}-adapted"))
        for a in (pi2, pi3)
    )


@pytest.fixture(scope="session")
def fam2(pi2):
    return automorphism_family(pi2)


@pytest.fixture(scope="session")
def fam3(pi3):
    return automorphism_family(pi3)


@pytest.fixture(scope="session")
def aut_trees(pi2, pi3):
    """The recorded case splits of the generic multiplicative maps."""
    return tuple(automorphisms._case_split(a)[2] for a in (pi2, pi3))


@pytest.fixture(scope="session")
def relation_trees():
    """The recorded splits of the LocAut relations of pi2 and pi3."""
    return tuple(relation_split(t)[1] for t in (AUTOMORPHISM_FORM_PI2, AUTOMORPHISM_FORM_PI3))


def mutant_family(table, form, entries=(), drop=(), nonzero=None):
    """pi2's or pi3's automorphism template, changed, on either table.

    entries maps 1-based positions to new entries, drop removes
    parameters and nonzero replaces the open conditions.
    """
    template = closed_forms(builtin(form)).automorphism
    rows = [list(row) for row in template.entries]
    for (i, j), text in dict(entries).items():
        rows[i - 1][j - 1] = poly(text)
    return AutomorphismFamily(builtin(table), MatrixTemplate(
        dim=5,
        params=tuple(p for p in template.params if p not in drop),
        entries=tuple(map(tuple, rows)),
        nonzero=template.nonzero if nonzero is None
        else tuple(map(poly, nonzero)),
    ))


@pytest.fixture(scope="session")
def mutant():
    return mutant_family


@pytest.fixture(scope="session")
def pat2(pi2):
    return locaut_pattern(pi2)


@pytest.fixture(scope="session")
def pat3(pi3):
    return locaut_pattern(pi3)
