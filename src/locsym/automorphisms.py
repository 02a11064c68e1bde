"""Automorphisms: multiplicative invertible operators and their families.

For the builtin algebras the full automorphism group is a closed
parameterized family: a matrix template whose instantiations at any
parameters satisfying the open (nonvanishing) conditions are exactly
the automorphisms.  verify_family machine-checks both directions of
that claim: instantiations must pass the multiplicativity oracle, and
single-entry perturbations of an instantiation that still pass the
oracle must land back inside the family.  group_closure_report proves
the group laws from symbolic products (templates.closure_failure).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra
from .errors import InputError
from .linalg import Matrix, is_invertible
from .rationals import random_nonzero_int
from .templates import (
    MatrixTemplate,
    closed_forms,
    closure_failure,
    random_parameters,
    template_match,
)


def multiplicativity_failure(
    algebra: Algebra, phi: Matrix
) -> tuple[int, int] | None:
    """First basis pair (i, j), 0-based, where phi is not multiplicative.

    The failure is phi(e_i e_j) != phi(e_i) phi(e_j); pairs are scanned
    with i outer and j inner.  None means phi is multiplicative
    (invertibility is not checked here).
    """
    n = algebra.dim
    if phi.shape != (n, n):
        raise InputError("operator shape does not match the algebra")
    terms = algebra.terms
    images = list(zip(*phi.rows))  # images[i] = phi(e_i), read once
    zero = [0] * n
    image_of_product = {}  # (i, j) -> phi(e_i e_j), for nonzero products
    for i, j, k, c in terms:
        image = image_of_product.setdefault((i, j), [0] * n)
        for r, v in enumerate(images[k]):
            image[r] += c * v
    for i in range(n):
        u = images[i]
        for j in range(n):
            v = images[j]
            product = [0] * n  # phi(e_i) phi(e_j), summed over the terms
            for p, q, k, c in terms:
                left = u[p]
                if left:
                    right = v[q]
                    if right:
                        product[k] += left * right * c
            if product != image_of_product.get((i, j), zero):
                return i, j
    return None


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
    trials: int
    counterexample: Matrix | None
    detail: str


def verify_family(
    family: AutomorphismFamily, trials: int = 500, seed: int = 0
) -> FamilyReport:
    """Two-way check of "automorphism iff member of the family".

    Forward: random instantiations pass is_automorphism.  Reverse: for
    each trial, every single entry of the instantiated matrix is
    perturbed in turn; a perturbation that still passes is_automorphism
    must be matched by the template, otherwise it is a counterexample
    to the family being the whole group.
    """
    rng = random.Random(seed)
    algebra = family.algebra
    n = family.template.dim
    for t in range(trials):
        phi = random_member(family, rng)
        if not is_automorphism(algebra, phi):
            return FamilyReport(
                ok=False,
                trials=t + 1,
                counterexample=phi,
                detail="family instantiation fails the multiplicativity "
                       "or invertibility oracle",
            )
        for i in range(n):
            for j in range(n):
                delta = random_nonzero_int(rng, 9)
                rows = [list(row) for row in phi.rows]
                rows[i][j] += delta
                candidate = Matrix(rows)
                if not is_automorphism(algebra, candidate):
                    continue
                if family.match(candidate) is None:
                    return FamilyReport(
                        ok=False,
                        trials=t + 1,
                        counterexample=candidate,
                        detail=f"automorphism escapes the family after "
                               f"perturbing entry ({i + 1},{j + 1})",
                    )
        if t == 0:
            # One full reconstruction per run: the matcher must recover
            # the exact parameters of a known instantiation.
            recovered = family.match(phi)
            if recovered is None or family.instantiate(recovered) != phi:
                return FamilyReport(
                    ok=False,
                    trials=t + 1,
                    counterexample=phi,
                    detail="template matcher fails to reconstruct a "
                           "known instantiation",
                )
    return FamilyReport(
        ok=True,
        trials=trials,
        counterexample=None,
        detail="all instantiations multiplicative; all perturbation "
               "survivors matched by the family",
    )


def group_closure_report(family: AutomorphismFamily) -> FamilyReport:
    """The group laws of the family, proved by templates.closure_failure."""
    failure = closure_failure((family.template,))
    detail = failure or "products and inverses of members stay in the family"
    return FamilyReport(failure is None, 0, None, detail)  # 0: nothing sampled
