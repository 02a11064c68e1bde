"""Exact rational linear algebra on small dense matrices.

Everything here is exact.  Matrix and vector entries are canonical
exact scalars (rationals.exact: int when integral, else Fraction), as
are the eliminations' rows, so integral data runs on Python ints.  Rank
comes from fraction-free (Bareiss) elimination on integer-scaled rows
so that intermediate values stay integral, and subspaces are stored by
their reduced row echelon basis, which is a canonical representative and
makes equality testing trivial.

Matrices are immutable; indices are 0-based throughout the code (the
1-based labels like b11 in variable names refer to row 1, column 1 of
the printed matrices).
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import InputError
from .rationals import exact, format_rational, parse_rational, quotient

Vector = tuple[int | Fraction, ...]


def vector(values: Iterable) -> Vector:
    return tuple(map(exact, values))


class Matrix:
    """Immutable exact matrix."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(map(exact, row)) for row in rows)
        if data and any(len(row) != len(data[0]) for row in data):
            raise InputError("ragged matrix rows")
        object.__setattr__(self, "rows", data)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Matrix":
        return Matrix([[0] * ncols for _ in range(nrows)])

    @staticmethod
    def from_vec(flat: Sequence, ncols: int) -> "Matrix":
        flat = list(flat)
        if len(flat) % ncols:
            raise InputError("vector length not divisible by column count")
        return Matrix(
            [flat[i : i + ncols] for i in range(0, len(flat), ncols)]
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def vec(self) -> Vector:
        """Row-major flattening; the coordinate order used everywhere."""
        return tuple(v for row in self.rows for v in row)

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows))) if self.rows else self

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-v for v in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.shape[1] != other.shape[0]:
                raise InputError(
                    f"cannot multiply {self.shape} by {other.shape}"
                )
            cols = other.transpose().rows
            return Matrix(
                [
                    [sum(a * b for a, b in zip(row, col)) for col in cols]
                    for row in self.rows
                ]
            )
        if isinstance(other, tuple):
            return self.apply(other)
        if isinstance(other, (int, Fraction)):
            return Matrix([[v * other for v in row] for row in self.rows])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def apply(self, vec: Sequence) -> Vector:
        if len(vec) != self.shape[1]:
            raise InputError("vector length does not match column count")
        return tuple([exact(sum(map(mul, row, vec))) for row in self.rows])

    def power(self, k: int) -> "Matrix":
        n, m = self.shape
        if n != m:
            raise InputError("power of a non-square matrix")
        result = Matrix.identity(n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(
            " ".join(format_rational(v) for v in row) for row in self.rows
        )
        return f"Matrix[{body}]"

    def _check_same_shape(self, other: "Matrix"):
        if self.shape != other.shape:
            raise InputError(f"shape mismatch {self.shape} vs {other.shape}")


# -- elimination kernels ---------------------------------------------------


def _integer_rows(rows: Sequence[Vector]) -> list[list[int]]:
    scaled = []
    for row in rows:
        lcm = math.lcm(*(v.denominator for v in row))
        scaled.append([v.numerator * (lcm // v.denominator) for v in row])
    return scaled


def rank(m: Matrix | Sequence[Vector]) -> int:
    """Rank via Bareiss fraction-free elimination on integer-scaled rows."""
    return integer_rank(_integer_rows(m.rows if isinstance(m, Matrix) else m))


def integer_rank(rows: list[list[int]]) -> int:
    """Bareiss rank of a list of integer rows; the input is consumed."""
    if not rows or not rows[0]:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, nrows):
            factor = rows[i][c]
            for j in range(c, ncols):
                # Bareiss condensation: exact integer division by the
                # previous pivot keeps entries integral and small.
                rows[i][j] = (pivot * rows[i][j] - factor * rows[r][j]) // prev
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r


def rref(rows: Sequence[Sequence]) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [list(map(exact, row)) for row in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        row = work[r]
        if (pivot := row[c]) != 1:
            row = work[r] = [quotient(v, pivot) if v else 0 for v in row]
        # the rows from r on are zero left of c, so the pivot row is too
        support = [(j, row[j]) for j in range(c, ncols) if row[j]]
        for i, other in enumerate(work):
            if i != r and (factor := other[c]):
                for j, v in support:
                    other[j] = exact(other[j] - factor * v)
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def nullspace(m: Matrix | Sequence[Sequence]) -> tuple[Vector, ...]:
    """Basis of the right kernel, one vector per free column."""
    rows = m.rows if isinstance(m, Matrix) else [list(r) for r in m]
    if not rows:
        return ()
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(tuple(vec))
    return tuple(basis)


def solve(m: Matrix, rhs: Sequence) -> Vector | None:
    """One exact solution of m*x = rhs, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    nrows, ncols = m.shape
    rhs = vector(rhs)
    if len(rhs) != nrows:
        raise InputError("right-hand side length does not match row count")
    augmented = [list(row) + [b] for row, b in zip(m.rows, rhs)]
    reduced, pivots = rref(augmented)
    solution = [0] * ncols
    for row, p in zip(reduced, pivots):
        if p == ncols:
            return None
        solution[p] = row[-1]
    return tuple(solution)


def inverse(m: Matrix) -> Matrix:
    n, ncols = m.shape
    if n != ncols:
        raise InputError("inverse of a non-square matrix")
    augmented = [list(row) + list(ident) for row, ident in
                 zip(m.rows, Matrix.identity(n).rows)]
    reduced, pivots = rref(augmented)
    if list(pivots) != list(range(n)):
        raise InputError("matrix is singular")
    return Matrix([row[n:] for row in reduced])


def is_invertible(m: Matrix) -> bool:
    n, ncols = m.shape
    return n == ncols and rank(m) == n


# -- subspaces -------------------------------------------------------------


class Subspace:
    """Linear subspace stored by its canonical RREF basis."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, vectors: Iterable[Sequence] = ()):
        rows = [vector(v) for v in vectors]
        for row in rows:
            if len(row) != ambient:
                raise InputError("vector does not match ambient dimension")
        reduced, _ = rref(rows)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", reduced)

    def __setattr__(self, *_):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec: Sequence) -> bool:
        vec = list(map(exact, vec))
        if len(vec) != self.ambient:
            raise InputError("vector does not match ambient dimension")
        for row in self.basis:
            pivot = next(i for i, v in enumerate(row) if v)
            if factor := vec[pivot]:
                for j in range(pivot, self.ambient):
                    if row[j]:
                        vec[j] = exact(vec[j] - factor * row[j])
        return not any(vec)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


# -- operator serialization -------------------------------------------------


def operator_to_payload(m, backend: str = "rational") -> dict:
    """JSON-ready operator payload, the same shape as an operator file."""
    if backend == "rational":
        entries = [[format_rational(v) for v in row] for row in m.rows]
        dim = m.shape[0]
    elif backend == "complex":
        entries = [
            [[repr(complex(v).real), repr(complex(v).imag)] for v in row]
            for row in m
        ]
        dim = len(entries)
    else:
        raise InputError(f"unknown backend {backend!r}")
    return {"dim": dim, "backend": backend, "entries": entries}


def operator_from_payload(payload):
    """Inverse of operator_to_payload; Matrix or complex nested list."""
    try:
        dim = payload["dim"]
        backend = payload["backend"]
        entries = payload["entries"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed operator payload: {exc}") from exc
    if type(dim) is not int:
        raise InputError(f"operator dim must be an integer, not {dim!r}")
    if not isinstance(entries, list) or len(entries) != dim or any(
        not isinstance(row, list) or len(row) != dim for row in entries
    ):
        raise InputError(f"operator entries do not form a {dim}x{dim} grid")
    if backend == "rational":
        try:
            return Matrix([[parse_rational(v) for v in row] for row in entries])
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if backend == "complex":
        try:
            rows = [
                [complex(float(re), float(im)) for re, im in row]
                for row in entries
            ]
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad complex entry: {exc}") from exc
        for v in (v for row in rows for v in row):
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise InputError(f"bad complex entry: {v} is not finite")
        return rows
    raise InputError(f"unknown backend {backend!r}")


def save_operator(path: str, m, backend: str = "rational") -> None:
    payload = operator_to_payload(m, backend)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_json(path: str):
    """The parsed contents of a JSON file; InputError when it is not JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InputError(f"{path} is not JSON: {exc}") from exc


def load_operator(path: str):
    """Load an operator file; returns a Matrix or a complex nested list."""
    payload = load_json(path)
    try:
        return operator_from_payload(payload)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
