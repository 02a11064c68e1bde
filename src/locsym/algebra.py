"""Finite-dimensional algebras presented by rational structure constants.

An algebra is a basis e_1..e_n together with the products
e_i * e_j = sum_k c_ijk e_k, stored sparsely.  Two five-dimensional
nilpotent associative algebras are built in:

  pi2:  e1*e1 = e2,  e1*e2 = e2*e1 = e3,  e1*e4 = e4*e1 = e5,  e4*e4 = e5
  pi3:  e1*e1 = e2,  e1*e2 = e2*e1 = e3,  e1*e4 = e5,          e4*e4 = e5

Both have descending power filtration of dimensions (5, 3, 1, 0),
nilpotency index 4, and characteristic sequence (3, 2), where the
characteristic sequence is the lexicographically maximal tuple of Jordan
block sizes of a left multiplication operator L_x over x outside the
square of the algebra.

Every product is read off the structure constants by Algebra.multiply,
on exact, float, complex or Poly entries, and multiplicativity_defects
is the one reading of phi(xy) = phi(x) phi(y): exact for is_automorphism,
complex for the float residual, symbolic for the automorphism families.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Mapping

from .errors import InputError
from .linalg import Matrix, Subspace, Vector, integer_rank, json_int, load_json, vector
from .poly import Poly
from .rationals import exact, format_rational, parse_rational

BUILTIN_TABLES = {
    "pi2": [
        (1, 1, 2, 1),
        (1, 2, 3, 1),
        (2, 1, 3, 1),
        (1, 4, 5, 1),
        (4, 1, 5, 1),
        (4, 4, 5, 1),
    ],
    "pi3": [
        (1, 1, 2, 1),
        (1, 2, 3, 1),
        (2, 1, 3, 1),
        (1, 4, 5, 1),
        (4, 4, 5, 1),
    ],
}


@dataclass(frozen=True)
class Algebra:
    """Structure-constant algebra over the rationals."""

    name: str
    dim: int
    table: Mapping[tuple[int, int], Vector]

    @cached_property
    def structure(self) -> tuple:
        """Dimension and products: the algebra up to its name (hashable)."""
        return self.dim, frozenset(self.table.items())

    @cached_property
    def terms(self) -> tuple[tuple[int, int, int, int | Fraction], ...]:
        """The nonzero structure constants as (i, j, k, c), 0-based.

        Each term says that e_i e_j has coefficient c on e_k; products
        are sums over these terms.
        """
        return tuple(
            (i, j, k, c)
            for (i, j), coeffs in self.table.items()
            for k, c in enumerate(coeffs)
            if c
        )

    def product_of_basis(self, i: int, j: int) -> Vector:
        return self.table.get((i, j), (0,) * self.dim)

    def multiply(self, x, y) -> tuple:
        """Bilinear extension of the basis products, summed over `terms`.

        Entries may be exact (the result is canonical, rationals.exact),
        float, complex or Poly; a coordinate no term reaches is x[0] * 0,
        a zero of the entries' type.
        """
        if len(x) != self.dim or len(y) != self.dim:
            raise InputError("vector length does not match algebra dimension")
        out = [x[0] * 0 if x else 0] * self.dim
        for i, j, k, c in self.terms:
            if left := x[i]:
                if right := y[j]:
                    out[k] += left * right * c
        return tuple(exact(v) if type(v) is Fraction else v for v in out)

    def check_shape(self, rows) -> None:
        """Refuse an operator whose rows do not form an n x n matrix."""
        if len(rows) != self.dim or any(len(row) != self.dim for row in rows):
            raise InputError("operator shape does not match the algebra")


def _freeze_table(dim, raw) -> Mapping[tuple[int, int], Vector]:
    table = {}
    for i, j, k, c in raw:
        if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
            raise InputError(f"structure constant index out of range: {(i, j, k)}")
        key = (i - 1, j - 1)
        row = list(table.get(key, [0] * dim))
        row[k - 1] += c
        table[key] = row
    return {k: vector(v) for k, v in table.items() if any(v)}


def builtin(name: str) -> Algebra:
    if name not in BUILTIN_TABLES:
        raise InputError(f"unknown builtin algebra {name!r}")
    return Algebra(name=name, dim=5, table=_freeze_table(5, BUILTIN_TABLES[name]))


def zero_algebra(dim: int) -> Algebra:
    """All products vanish; useful as a degenerate reference point."""
    return Algebra(name=f"zero{dim}", dim=dim, table={})


def load_algebra(path: str) -> Algebra:
    payload = load_json(path)
    try:
        name = str(payload["name"])
        dim = json_int(payload["dim"], "algebra dim")
        raw = [
            (*(json_int(p[key], f"structure constant {key}") for key in "ijk"),
             parse_rational(p["c"]))
            for p in payload["products"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed algebra file {path}: {exc}") from exc
    if dim < 1:
        raise InputError("algebra dimension must be positive")
    return Algebra(name=name, dim=dim, table=_freeze_table(dim, raw))


def save_algebra(path: str, algebra: Algebra) -> None:
    products = []
    for (i, j), coeffs in sorted(algebra.table.items()):
        for k, c in enumerate(coeffs):
            if c:
                products.append(
                    {"i": i + 1, "j": j + 1, "k": k + 1, "c": format_rational(c)}
                )
    payload = {"name": algebra.name, "dim": algebra.dim, "products": products}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def get_algebra(spec: str) -> Algebra:
    """Resolve a builtin name or a path to an algebra file."""
    if spec in BUILTIN_TABLES:
        return builtin(spec)
    return load_algebra(spec)


def associativity_failure(algebra: Algebra) -> tuple[int, int, int] | None:
    """First basis triple (i, j, k), 0-based, with (e_i e_j) e_k != e_i (e_j e_k).

    Triples are scanned with i outermost and k innermost; None means the
    algebra is associative.
    """
    n = algebra.dim
    base = [tuple(1 if t == s else 0 for t in range(n)) for s in range(n)]
    for i in range(n):
        for j in range(n):
            left = algebra.product_of_basis(i, j)
            for k in range(n):
                lhs = algebra.multiply(left, base[k])
                rhs = algebra.multiply(base[i], algebra.product_of_basis(j, k))
                if lhs != rhs:
                    return i, j, k
    return None


def is_associative(algebra: Algebra) -> bool:
    """Exact (e_i e_j) e_k == e_i (e_j e_k) over all basis triples."""
    return associativity_failure(algebra) is None


@dataclass(frozen=True)
class PowerFiltration:
    """Descending chain A^1 >= A^2 >= ... with A^{i+1} = sum A^k A^{i+1-k}."""

    subspaces: tuple[Subspace, ...]
    dims: tuple[int, ...]
    nilpotent: bool
    nilindex: int | None


def power_filtration(algebra: Algebra) -> PowerFiltration:
    """The powers of A: down to 0 when A is nilpotent, else to a repeated dim.

    Nilpotency is decided by V_0 = A, V_{j+1} = A V_j + V_j A.  Each step
    depends only on V_j, so the first repeat is final, and the chain
    reaches 0 iff A is nilpotent, since V_j <= A^{j+1} and
    A^{2^m+1} <= V_m.  A repeat of dim A^i alone decides nothing unless
    A^{i+1} = A A^i, which associativity guarantees.

    The powers decrease (A^{N+1} <= A^N), so equal dims mean equal powers.
    Once A^m = ... = A^N with N >= 2m, also A^N <= A^{N+1}: a term
    A^k A^{N-k} of A^N has k >= m or N-k >= m, say k, and A^k = A^{k+1}
    inside the plateau puts the term in A^{k+1} A^{N-k} <= A^{N+1}.  So
    the chain is constant from A^m on.  A non-nilpotent chain is computed
    until such a plateau and reported through the first repeat of its
    final value.
    """
    n = algebra.dim
    whole = Subspace(n, Matrix.identity(n).rows)
    span = whole
    while span.dim:
        nxt = Subspace(n, [
            p for x in whole.basis for y in span.basis
            for p in (algebra.multiply(x, y), algebra.multiply(y, x))
        ])
        if nxt.dim == span.dim:
            break
        span = nxt
    nilpotent = span.dim == 0
    chain = [whole]
    while chain[-1].dim:
        i = len(chain)  # building A^{i+1}, 1-based exponents
        chain.append(Subspace(n, [
            algebra.multiply(x, y)
            for k in range(1, i + 1)
            for x in chain[k - 1].basis
            for y in chain[i - k].basis
        ]))
        # m: the 1-based exponent where the chain's last value begins
        m = next(k for k, s in enumerate(chain, 1) if s.dim == chain[-1].dim)
        if not nilpotent and len(chain) >= 2 * m:
            del chain[m + 1:]
            break
    # chain[k] is A^{k+1}; the nilpotency index is the first 1-based
    # power that vanishes.
    return PowerFiltration(
        subspaces=tuple(chain),
        dims=tuple(s.dim for s in chain),
        nilpotent=nilpotent,
        nilindex=len(chain) if nilpotent else None,
    )


def left_mult_operator(algebra: Algebra, x) -> Matrix:
    """Matrix of y -> x*y in the defining basis (columns are x*e_j)."""
    x, n = vector(x), algebra.dim
    return Matrix([algebra.multiply(x, e) for e in Matrix.identity(n).rows]).transpose()


def characteristic_sequence(algebra: Algebra) -> tuple[int, ...]:
    """Lexicographically maximal Jordan shape of L_x over x outside A^2.

    Exact: L_x is built with symbolic x = (x1..xn), and the ranks of its
    powers are taken over Q(x) (integer_rank's Bareiss divisions are exact
    on Poly entries too).  Generic x maximizes the rank of every power at
    once, so its Jordan type dominates, and hence is lexicographically at
    least, the type at any other x; and generic x lies outside A^2.
    L_x is scaled by the lcm of the structure constants' denominators,
    which keeps Bareiss on integer coefficients; rank((cL)^k) = rank(L^k)
    for c != 0.
    """
    if not power_filtration(algebra).nilpotent:
        raise InputError("characteristic sequence requires a nilpotent algebra")
    n = algebra.dim
    scale = math.lcm(*(c.denominator for *_, c in algebra.terms))
    x = [Poly.var(f"x{i + 1}") * scale for i in range(n)]
    op = list(zip(*(algebra.multiply(x, e) for e in Matrix.identity(n).rows)))
    ranks, power = [n], op
    while ranks[-1]:  # L_x is nilpotent, as A is
        ranks.append(integer_rank([list(row) for row in power]))
        power = [
            [sum(map(mul, row, col), Poly.zero()) for col in zip(*op)]
            for row in power
        ]
    # ranks[k-1] - ranks[k] counts blocks of size >= k.
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    at_least.append(0)
    sizes = []
    for k in range(1, len(at_least)):
        sizes.extend([k] * (at_least[k - 1] - at_least[k]))
    return tuple(sorted(sizes, reverse=True))


def multiplicativity_defects(algebra: Algebra, rows):
    """(i, j, phi(e_i) phi(e_j) - phi(e_i e_j)) for every basis pair, 0-based.

    The one reading of phi(xy) = phi(x) phi(y) off the structure
    constants: phi is given by its rows (its columns are the phi(e_i)),
    with entries of any type Algebra.multiply takes, and pairs come with
    i outer and j inner.  The shape is checked once, before the first pair.
    """
    algebra.check_shape(rows)
    images = list(zip(*rows))
    n = algebra.dim
    for i in range(n):
        for j in range(n):
            defect = algebra.multiply(images[i], images[j])
            for k, c in enumerate(algebra.table.get((i, j), ())):
                if c:
                    defect = tuple(d - v * c for d, v in zip(defect, images[k]))
            yield i, j, defect


def multiplicativity_residual(algebra: Algebra, phi) -> float:
    """Max float deviation of phi from being multiplicative on basis pairs.

    phi is a numeric matrix given as a nested sequence of complex/float
    entries; its defects are read as complex numbers.
    """
    rows = [[complex(v) for v in row] for row in phi]
    return max(abs(d) for *_, defect in multiplicativity_defects(algebra, rows)
               for d in defect)
