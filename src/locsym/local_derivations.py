"""Local derivations: operators agreeing with some derivation at each point.

nabla is a local derivation when for every x there is a derivation D_x
(depending on x) with nabla(x) = D_x(x).  Pointwise membership is a
plain exact linear solve.  The space of all local derivations is exact:
it builds the parametric system  sum_p T_p(params) nu = B nu  over the
derivation parameters, runs the stratified case-split solver and reads
the space off the aggregated b-constraints; this is complete because
the leaf strata cover the probe space, which the recorded tree proves
(stratify.coverage_failure), and each basis element is then
proved local on every leaf by a polynomial-identity certificate
(stratify.certificate_failure).  A pivot the solver cannot split
into degree-1 factors is refused with a StratificationError (an
UnsupportedError) that names it; there is no approximate answer.  An
operator outside the space gets a deterministic refuting point from the
first leaf whose certificate it breaks (refuting_point).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .algebra import Algebra
from .derivations import DerivationSpace, derivation_algebra, is_derivation
from .errors import InputError, InternalCheckError, StratificationError
from .linalg import Matrix, Subspace, Vector, in_row_span, solve, vector
from .poly import Poly
from .stratify import (
    CaseTree,
    Equation,
    ParametricSystem,
    certificate_failure,
    coverage_failure,
    leaf_refutation,
    solve_parametric,
)


def output_symbols(dim: int) -> tuple[str, ...]:
    """Row-major b-symbols labeling the entries of the unknown operator."""
    return tuple(
        f"b{i + 1}{j + 1}" for i in range(dim) for j in range(dim)
    )


def probe_symbols(dim: int) -> tuple[str, ...]:
    return tuple(f"n{j + 1}" for j in range(dim))


def pointwise_membership(
    ders: DerivationSpace, nabla: Matrix, x
) -> tuple[Fraction, ...] | None:
    """Coefficients c with (sum c_i D_i)(x) = nabla(x), or None."""
    x = vector(x)
    columns = [d.apply(x) for d in ders.basis]
    if not columns:
        return () if all(v == 0 for v in nabla.apply(x)) else None
    stacked = Matrix(columns).transpose()
    return solve(stacked, nabla.apply(x))


def localization_system(ders: DerivationSpace) -> ParametricSystem:
    """Parametric system asking D(nu) = B nu for a derivation D.

    The unknowns are coordinates t_k of D in the computed derivation
    basis, so the construction is independent of any closed form.
    """
    n = ders.algebra.dim
    unknowns = tuple(f"t{k + 1}" for k in range(ders.dim))
    nu = probe_symbols(n)
    symbols = output_symbols(n)
    equations = []
    for i in range(n):
        coeffs = {}
        for k, d in enumerate(ders.basis):
            c = Poly.zero()
            for j in range(n):
                if d.rows[i][j]:
                    c = c + Poly.var(nu[j]) * d.rows[i][j]
            coeffs[unknowns[k]] = c
        rhs = Poly.zero()
        for j in range(n):
            rhs = rhs + Poly.var(f"b{i + 1}{j + 1}") * Poly.var(nu[j])
        equations.append(Equation(coeffs=coeffs, rhs=rhs))
    return ParametricSystem(
        unknowns=unknowns,
        nu_vars=nu,
        rhs_symbols=symbols,
        equations=tuple(equations),
    )


@dataclass(frozen=True)
class LocalDerivationSpace:
    algebra: Algebra
    basis: tuple[Matrix, ...]
    case_tree: CaseTree
    derivations: DerivationSpace  # the Der the space was solved from
    provenance = "exact"  # the only way a space is computed

    @property
    def dim(self) -> int:
        return len(self.basis)

    def span(self) -> Subspace:
        n = self.algebra.dim
        return Subspace(n * n, [m.vec() for m in self.basis])

    def contains(self, op: Matrix) -> bool:
        return self.span().contains(op.vec())


def support_patterns(dim: int):
    """All 2^dim - 1 nonzero supports, small supports first."""
    indices = range(dim)
    for size in range(1, dim + 1):
        yield from itertools.combinations(indices, size)


def local_derivation_space(
    algebra: Algebra,
    seed: int = 0,
    validation_checks: int = 10000,
) -> LocalDerivationSpace:
    """The exact space of local derivations, proved on every leaf.

    `seed` and `validation_checks` are accepted and ignored: nothing is
    sampled, since every basis element is proved a local derivation by
    the per-leaf certificate (stratify.certificate_failure).
    Raises StratificationError when the case split meets a pivot that
    does not split into degree-1 factors, or grows too deep.
    """
    ders = derivation_algebra(algebra)
    try:
        tree = solve_parametric(localization_system(ders))
    except StratificationError as exc:
        # Drop the traceback: it would pin every frame of the solver's
        # recursion for as long as the caller keeps the error.
        raise exc.with_traceback(None)
    result = LocalDerivationSpace(
        algebra=algebra,
        basis=tuple(Matrix.from_vec(v, algebra.dim)
                    for v in tree.solution_space().basis),
        case_tree=tree,
        derivations=ders,
    )
    _prove(result)
    return result


def membership_checker(ders: DerivationSpace, op: Matrix):
    """Pointwise membership test op(x) in span{D_i(x)} for a fixed op.

    The returned check(x) is True exactly when pointwise_membership(ders,
    op, x) is not None.  Membership does not change when an operator or
    the point is scaled, so every operator is scaled to integer entries
    once and each point is cleared of denominators; the images are then
    integral and one fraction-free elimination (in_row_span) decides.
    """
    scaled = [
        (m * math.lcm(*(v.denominator for v in m.vec()))).rows
        for m in (*ders.basis, op)
    ]
    n = op.shape[1]

    def check(x) -> bool:
        if len(x) != n:
            raise InputError("point dimension does not match the operator")
        scale = math.lcm(*(v.denominator for v in x))
        x = [v.numerator * (scale // v.denominator) for v in x]
        images = [[sum(map(mul, row, x)) for row in rows] for rows in scaled]
        return in_row_span(images[:-1], images[-1])

    return check


def refuting_point(space: LocalDerivationSpace, op: Matrix) -> Vector:
    """A point x with op(x) outside span{D(x)}, for op outside the space.

    Deterministic: the first leaf whose certificate op breaks gives the
    point (stratify.leaf_refutation), which is checked pointwise again.
    """
    tree = space.case_tree
    member = membership_checker(space.derivations, op)
    for leaf in tree.leaves:
        point = leaf_refutation(tree.system, leaf, op.vec())
        if point is not None:
            x = vector(point[v] for v in tree.system.nu_vars)
            if member(x):
                break
            return x
    raise InternalCheckError("no leaf refutes the operator pointwise")


def _prove(space: LocalDerivationSpace) -> None:
    """Der lies in the space, and every basis element is local on every leaf.

    The coverage walk proves that the leaves partition the probe space
    (stratify.coverage_failure), so the certificates prove each basis
    element local at every point.
    """
    tree = space.case_tree
    if (failure := coverage_failure(tree.root)) is not None:
        raise InternalCheckError(f"case tree coverage: {failure}")
    span = space.span()
    for d in space.derivations.basis:
        if not span.contains(d.vec()):
            raise InternalCheckError("a derivation escaped the computed space")
    vectors = [m.vec() for m in space.basis]
    for leaf in tree.leaves:
        failure = certificate_failure(tree.system, leaf, vectors)
        if failure is not None:
            raise InternalCheckError(f"local derivation certificate: {failure}")


def strict_inclusion_witness(
    algebra: Algebra,
    ders: DerivationSpace | None = None,
    locders: LocalDerivationSpace | None = None,
    checks: int = 10000,
    seed: int = 0,
) -> Matrix | None:
    """A local derivation that is not a derivation, or None if none exists.

    The witness is a basis element of the proved LocDer that fails the
    Leibniz identity.  `checks` and `seed` are accepted and ignored:
    membership is proved on every leaf, not sampled.
    """
    if locders is None:
        locders = local_derivation_space(algebra)
    if ders is None:
        ders = locders.derivations
    der_span = ders.span()
    witness = next(
        (op for op in locders.basis if not der_span.contains(op.vec())), None
    )
    if witness is None:
        return None
    if is_derivation(algebra, witness):
        raise InternalCheckError("witness unexpectedly satisfies Leibniz")
    return witness
