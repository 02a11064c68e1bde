"""Local derivations: operators agreeing with some derivation at each point.

nabla is a local derivation when for every x there is a derivation D_x
(depending on x) with nabla(x) = D_x(x).  Pointwise membership is a
plain exact linear solve.  The space of all local derivations is exact:
B x = D x for some D in Der is T(a) x = y at y = B x for the Der
template T (parameters a_k, entries sum a_k D_k over the computed Der
basis), so local_derivation_space solves that template once (der_solve)
and reads the space off its leaves.  On each leaf, B is local iff every
leaf condition E(x, B x) vanishes identically in the leaf's free x,
which is linear in B; the space is the nullspace of those
x-coefficients.  This is complete because the leaves partition
x-space, which the recorded tree proves (stratify.coverage_failure), and
the space is proved local on every leaf by back-substituting the leaf's
pivots at y = B x for its symbolic member B (stratify.member_failure).
A pivot the solver cannot split into degree-1 factors is refused with a
StratificationError (an UnsupportedError) that names it; there is no
approximate answer.  A space keeps its basis, Der and leaf count, not
the solve.  An operator outside the space gets a deterministic refuting
point from the first leaf condition it breaks, der_solve rebuilding the
solve (OrbitSolve.refuting_point, the walk that refutes local
automorphisms too), confirmed by pointwise_membership.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra
from .derivations import DerivationSpace, derivation_algebra, is_derivation
from .errors import InternalCheckError, StratificationError
from .linalg import Matrix, Subspace, Vector, nullspace, solve, vector
from .poly import Poly
from .stratify import (
    OrbitSolve,
    coverage_failure,
    member_failure,
    member_image,
    solve_parametric,
)
from .templates import span_template


def output_symbols(dim: int) -> tuple[str, ...]:
    """Row-major b-symbols labeling the entries of the unknown operator:
    b{i}{j} up to dim 9, and b{i}_{j} beyond, where b{i}{j} would repeat
    (b111 is both (1,11) and (11,1))."""
    sep = "" if dim <= 9 else "_"
    return tuple(
        f"b{i + 1}{sep}{j + 1}" for i in range(dim) for j in range(dim)
    )


def generic_operator(dim: int) -> list[list[Poly]]:
    """The operator whose entries are the symbols of output_symbols."""
    symbols = output_symbols(dim)
    return [[Poly.var(s) for s in symbols[i * dim:(i + 1) * dim]] for i in range(dim)]


def leaf_relations(solve: OrbitSolve) -> tuple[Poly, ...]:
    """The x-coefficients of every leaf condition E(x, B x), B generic: B
    meets every condition on the whole of every leaf iff each vanishes."""
    generic = generic_operator(solve.template.dim)
    forms = {}
    for leaf in solve.leaves:
        xy = member_image(leaf, generic)
        for e in leaf.constraints:
            forms.update(dict.fromkeys(e.subs(xy).group_by(leaf.free_vars).values()))
    return tuple(forms)


def pointwise_membership(
    ders: DerivationSpace, nabla: Matrix, x
) -> Vector | None:
    """Coefficients c with (sum c_i D_i)(x) = nabla(x), or None."""
    x = vector(x)
    columns = [d.apply(x) for d in ders.basis]
    if not columns:
        return () if all(v == 0 for v in nabla.apply(x)) else None
    stacked = Matrix(columns).transpose()
    return solve(stacked, nabla.apply(x))


@dataclass(frozen=True)
class LocalDerivationSpace(DerivationSpace):
    derivations: DerivationSpace  # the Der the space was solved from
    proof_leaves: int  # the leaves of the Der solve it was proved on
    provenance = "exact"  # the only way a space is computed


def der_solve(ders: DerivationSpace) -> OrbitSolve:
    """The solve of the Der template T(a) x = y, built anew on each call."""
    try:
        return solve_parametric(span_template(ders.algebra.dim, ders.basis, "a"))
    except StratificationError as exc:
        # Drop the traceback: it would pin every frame of the solver's
        # recursion for as long as the caller keeps the error.
        raise exc.with_traceback(None)


def local_derivation_space(
    algebra: Algebra,
    seed: int = 0,
    validation_checks: int = 10000,
) -> LocalDerivationSpace:
    """The exact space of local derivations, proved on every leaf.

    `seed` and `validation_checks` are accepted and ignored: nothing is
    sampled, since the space is proved on every leaf of the solve (_prove).
    Raises StratificationError when the solve meets a pivot that does not
    split into degree-1 factors, or grows too deep.
    """
    ders = derivation_algebra(algebra)
    solve = der_solve(ders)
    result = LocalDerivationSpace(
        algebra=algebra,
        basis=_solution_basis(solve),
        derivations=ders,
        proof_leaves=len(solve.leaves),
    )
    _prove(result, solve)
    return result


def _solution_basis(solve: OrbitSolve) -> tuple[Matrix, ...]:
    """The B with every leaf condition E(x, B x) identically zero in the
    leaf's free x: the nullspace of the x-coefficients, linear in B."""
    n = solve.template.dim
    symbols = output_symbols(n)
    rows = {tuple(form.terms.get(((s, 1),), 0) for s in symbols): None
            for form in leaf_relations(solve)}
    space = Subspace(n * n, nullspace(list(rows) or [(0,) * n * n]))
    return tuple(Matrix.from_vec(v, n) for v in space.basis)


def refuting_point(space: LocalDerivationSpace, op: Matrix) -> Vector:
    """A point x with op(x) outside span{D(x)}, for op outside the space.

    Deterministic: the refuting point of the Der solve
    (OrbitSolve.refuting_point), from the first leaf condition that op
    breaks; it is checked again by pointwise_membership.
    """
    x = der_solve(space.derivations).refuting_point(op.rows)
    if x is None or pointwise_membership(space.derivations, op, x) is not None:
        raise InternalCheckError("no leaf refutes the operator pointwise")
    return vector(x)


def _prove(space: LocalDerivationSpace, solve: OrbitSolve) -> None:
    """Der lies in the space, and the space is local on every leaf.

    The coverage walk proves that the leaves partition x-space
    (stratify.coverage_failure), and member_failure proves a symbolic
    member of the space's span template matched by a derivation on each
    leaf, so every member is local at every point.
    """
    if (failure := coverage_failure(solve.root)) is not None:
        raise InternalCheckError(f"Der solve coverage: {failure}")
    span = space.span()
    for d in space.derivations.basis:
        if not span.contains(d.vec()):
            raise InternalCheckError("a derivation escaped the computed space")
    template = span_template(space.algebra.dim, space.basis, "c")
    for leaf in solve.leaves:
        if failure := member_failure(solve, leaf, template):
            raise InternalCheckError(
                f"local derivation proof on the leaf {leaf.name}: {failure}")


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
