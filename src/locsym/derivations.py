"""Derivation algebras: exact solutions of the Leibniz system.

D is a derivation when D(xy) = D(x)y + xD(y) for all x, y; on a
structure-constant algebra this is a linear system over the n^2 matrix
entries of D with n^3 equations (one per basis pair and coordinate).
The engine solves it exactly and also decides Lie-bracket closure of any
space of operators exactly, on basis pairs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import Algebra
from .errors import InternalCheckError
from .linalg import Matrix, Subspace, nullspace


def leibniz_failure(algebra: Algebra, op: Matrix) -> tuple[int, int] | None:
    """First basis pair (i, j), 0-based, where the Leibniz identity fails.

    Pairs are scanned with i outer and j inner; None means op is a
    derivation.
    """
    algebra.check_shape(op.rows)
    n = algebra.dim
    basis = [tuple(1 if t == s else 0 for t in range(n)) for s in range(n)]
    images = [op.apply(e) for e in basis]
    for i in range(n):
        for j in range(n):
            lhs = op.apply(algebra.product_of_basis(i, j))
            rhs_1 = algebra.multiply(images[i], basis[j])
            rhs_2 = algebra.multiply(basis[i], images[j])
            if lhs != tuple(a + b for a, b in zip(rhs_1, rhs_2)):
                return i, j
    return None


def is_derivation(algebra: Algebra, op: Matrix) -> bool:
    """Exact Leibniz check on all basis pairs."""
    return leibniz_failure(algebra, op) is None


@dataclass(frozen=True)
class DerivationSpace:
    """A space of operators on the algebra, spanned by `basis`.

    Der is one; LocalDerivationSpace extends it with the Der it was
    solved from.
    """

    algebra: Algebra
    basis: tuple[Matrix, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def span(self) -> Subspace:
        n = self.algebra.dim
        return Subspace(n * n, [m.vec() for m in self.basis])

    def contains(self, op: Matrix) -> bool:
        self.algebra.check_shape(op.rows)
        return self.span().contains(op.vec())


def leibniz_rows(algebra: Algebra) -> Matrix:
    """The n^3 x n^2 coefficient matrix of the Leibniz system.

    Unknown order is row-major over the operator entries: variable
    n*i + j is the operator entry (i, j).
    """
    n = algebra.dim
    rows = []
    for i in range(n):
        for j in range(n):
            prod = algebra.product_of_basis(i, j)
            for m in range(n):
                row = [0] * (n * n)
                # D(e_i e_j)_m = sum_k prod_k D_{mk}
                for k in range(n):
                    if prod[k]:
                        row[n * m + k] += prod[k]
                # (D(e_i) e_j)_m = sum_p D_{pi} c_{pj}^m
                for p in range(n):
                    c = algebra.product_of_basis(p, j)[m]
                    if c:
                        row[n * p + i] -= c
                # (e_i D(e_j))_m = sum_q D_{qj} c_{iq}^m
                for q in range(n):
                    c = algebra.product_of_basis(i, q)[m]
                    if c:
                        row[n * q + j] -= c
                rows.append(row)
    return Matrix(rows)


def derivation_algebra(algebra: Algebra) -> DerivationSpace:
    """Basis of all derivations, canonical up to the RREF of the kernel."""
    n = algebra.dim
    kernel = nullspace(leibniz_rows(algebra))
    ops = tuple(Matrix.from_vec(v, n) for v in kernel)
    for op in ops:
        if not is_derivation(algebra, op):
            raise InternalCheckError("kernel vector fails the Leibniz check")
    return DerivationSpace(algebra=algebra, basis=ops)


def bracket(x: Matrix, y: Matrix) -> Matrix:
    return x * y - y * x


def bracket_closed(ops) -> tuple[bool, tuple[Matrix, Matrix] | None]:
    """Exact test that [X, Y] stays in the span of the given operators.

    The bracket is bilinear and antisymmetric, so the span is closed
    exactly when the bracket of every pair of the given operators lies
    in it.  Returns (True, None) or (False, (X, Y)) with the first
    offending pair of operators.
    """
    ops = list(ops)
    if not ops:
        return True, None
    n = ops[0].shape[0]
    span = Subspace(n * n, [m.vec() for m in ops])
    for x, y in itertools.combinations(ops, 2):
        if not span.contains(bracket(x, y).vec()):
            return False, (x, y)
    return True, None
