"""Automorphisms: multiplicative invertible operators and their families.

For the builtin algebras the full automorphism group is a closed
parameterized family: a matrix template whose instantiations at any
parameters satisfying the open (nonvanishing) conditions are exactly the
automorphisms.  verify_family proves both directions by polynomial
identities.  Its multiplicativity equations are the
algebra.multiplicativity_defects of a Poly grid, the defects that
is_automorphism reads off an exact matrix, and Algebra.multiply builds
the generic map.  The reverse direction splits the equations of a
generic map with the splitter that LocAut's relations use
(stratify.split_zero_set) and reads its leaves with the same reader
(stratify.reading_failure).  group_closure_report proves the group laws
by symbolic products.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra, multiplicativity_defects, power_filtration
from .errors import UnsupportedError
from .linalg import Matrix, Subspace, is_invertible
from .poly import Poly, unit_times_powers
from .stratify import coverage_failure, reading_failure, split_zero_set
from .templates import (
    MatrixTemplate,
    closed_forms,
    closure_failure,
    determinant,
    random_parameters,
    template_match,
)


def multiplicativity_failure(
    algebra: Algebra, phi: Matrix
) -> tuple[int, int] | None:
    """First basis pair (i, j), 0-based, where phi is not multiplicative.

    The failure is phi(e_i e_j) != phi(e_i) phi(e_j), the first nonzero
    algebra.multiplicativity_defects.  None means phi is multiplicative
    (invertibility is not checked here).
    """
    return next((
        (i, j) for i, j, defect in multiplicativity_defects(algebra, phi.rows)
        if any(defect)), None)


def is_automorphism(algebra: Algebra, phi: Matrix) -> bool:
    """Exact test: phi invertible and phi(e_i e_j) = phi(e_i) phi(e_j)."""
    return multiplicativity_failure(algebra, phi) is None and is_invertible(phi)


@dataclass(frozen=True)
class AutomorphismFamily:
    """The closed-form automorphism group of a builtin algebra."""

    algebra: Algebra
    template: MatrixTemplate

    def instantiate(self, assignment) -> Matrix:
        return self.template.instantiate(assignment)

    def match(self, m: Matrix) -> dict[str, Fraction] | None:
        return template_match(self.template, m)


def automorphism_family(algebra: Algebra) -> AutomorphismFamily:
    return AutomorphismFamily(
        algebra=algebra,
        template=closed_forms(algebra).automorphism,
    )


def random_member(
    family: AutomorphismFamily, rng: random.Random, bound: int = 9
) -> Matrix:
    return family.instantiate(random_parameters(family.template, rng, bound))


@dataclass(frozen=True)
class FamilyReport:
    ok: bool
    counterexample: Matrix | None
    detail: str


def _defects(algebra: Algebra, grid) -> list[Poly]:
    """Nonzero coordinates of T(e_i) T(e_j) - T(e_i e_j) on all basis pairs."""
    return [d for *_, defect in multiplicativity_defects(algebra, grid)
            for d in defect if d]


def _generic_images(algebra: Algebra) -> tuple[list[str], list[list[Poly]]]:
    """Generators, and the grid of a generic multiplicative map.

    The basis vectors completing A^2 to a basis are the generators; e_g
    gets a column of fresh variables p{r}{g}.  Every other e_k must be
    c^-1 e_i e_j, a one-term product of vectors that have images, and a
    multiplicative map sends it to c^-1 phi(e_i) phi(e_j).
    """
    n = algebra.dim
    span, images = power_filtration(algebra).subspaces[1], {}
    for g, e in enumerate(Matrix.identity(n).rows):
        if not span.contains(e):
            span = Subspace(n, span.basis + (e,))
            images[g] = [Poly.var(f"p{r + 1}{g + 1}") for r in range(n)]
    generators = [f"e{g + 1}" for g in images]
    while len(images) < n:
        steps = [(i, j, k, c) for i, j, k, c in algebra.terms if k not in images
                 and {i, j} <= images.keys() and algebra.table[i, j].count(0) == n - 1]
        if not steps:
            raise UnsupportedError(f"generators {generators} do not give "
                                   "every basis vector as a one-term product")
        i, j, k, c = steps[0]
        images[k] = [v * (1 / Fraction(c)) for v in
                     algebra.multiply(images[i], images[j])]
    return generators, [list(row) for row in zip(*(images[k] for k in range(n)))]


def _case_split(algebra: Algebra):
    """Generators, the generic grid and the recorded split of its equations.

    The multiplicativity equations of the generic map (_generic_images)
    are split by stratify.split_zero_set, so the leaves cover the maps
    that are multiplicative; on all but one of them the determinant
    vanishes identically.
    """
    generators, generic = _generic_images(algebra)
    return generators, generic, split_zero_set(_defects(algebra, generic))


def _search(grid, shows) -> Matrix | None:
    """The grid at the first of 100 seeded small integer points that shows."""
    rng = random.Random(0)
    names = sorted({v for row in grid for x in row for v in x.variables()})
    for _ in range(100):
        point = {v: rng.randint(-3, 3) for v in names}
        if shows(m := Matrix([[x.evaluate(point) for x in row] for row in grid])):
            return m
    return None


def _singular(rows) -> bool:
    """The grid's determinant vanishes identically: it holds no automorphism."""
    return determinant(rows).is_zero()


def verify_family(family: AutomorphismFamily) -> FamilyReport:
    """Proof that the family's members are exactly the automorphisms.

    Forward: T(e_i) T(e_j) = T(e_i e_j) identically in the template T's
    parameters, and det T is a unit times powers of the open conditions.
    Reverse: the split of the generic map's multiplicativity equations
    covers their zero set (stratify.coverage_failure), and
    stratify.reading_failure reads every leaf where det is not
    identically 0: the template reads the map with no deviation there,
    and det vanishes identically on every branch of each open condition
    read.  An escaped automorphism is the generic map at a grid point.
    """
    algebra, template = family.algebra, family.template
    grid, opens = template.entries, template.nonzero
    if _defects(algebra, grid) or not unit_times_powers(determinant(grid), opens):
        phi = _search(grid, lambda m: family.match(m) is not None
                      and not is_automorphism(algebra, m))
        return FamilyReport(False, phi, "a member of the family is no automorphism")
    generators, generic, root = _case_split(algebra)
    if (failure := coverage_failure(root)) is not None:
        return FamilyReport(False, None, f"the case split does not cover: {failure}")
    leaves, failure = reading_failure(root, generic, (template,), _singular)
    if failure:
        return FamilyReport(False, failure[-1], "an automorphism escapes the family")
    return FamilyReport(True, None, f"Aut equals the family, proved from generators "
                        f"{', '.join(generators)} (case-split leaves: {leaves})")


def group_closure_report(family: AutomorphismFamily) -> FamilyReport:
    """The group laws of the family, proved by templates.closure_failure."""
    failure = closure_failure((family.template,))
    detail = failure or "products and inverses of members stay in the family"
    return FamilyReport(failure is None, None, detail)
