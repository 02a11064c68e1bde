"""Seeded structure-constant algebras for the `solve` workload, and the
checks on what the exact pipeline returns for them.

One cycle holds one algebra of every category, in a fixed order:

* isomorphic copies of pi2 and pi3 under a rational basis change P, either
  unitriangular and adapted to the power filtration (e1, e4 in degree 1;
  e2, e5 in degree 2; e3 in degree 3) or dense, with entries of small
  (nonzero integers up to 3) or large (±48/97 .. ±96/97) height;
* random nilpotent algebras: e_i e_j is a random integer combination of
  e_k with k > max(i, j), at dimensions 4-6 and several densities (the
  share of such constants that is nonzero).

The checks use only the structure constants and exact rationals from the
standard library or sympy, never the engine under test.
"""
from __future__ import annotations

import random
from fractions import Fraction

from locsym.algebra import Algebra, builtin

WEIGHT = (1, 2, 3, 1, 2)  # filtration degree of e1..e5 in pi2 and pi3
EXPECTED_DIMS = {"pi2": (7, 11), "pi3": (6, 7)}  # (dim Der, dim LocDer)
HEIGHTS = {"small": 3, "large": 97}

CATEGORIES = tuple(
    ("iso", base, basis, height)
    for base in ("pi2", "pi3")
    for basis in ("adapted", "dense")
    for height in ("small", "large")
) + (
    ("nilpotent", 4, 0.6),
    ("nilpotent", 5, 0.4),
    ("nilpotent", 6, 0.25),
    ("nilpotent", 6, 0.5),
)


def category_name(category) -> str:
    return "-".join(str(part) for part in category)


def _entry(rng: random.Random, height: str) -> Fraction:
    """A nonzero entry of the given height.

    Entries never vanish and large ones share the prime denominator, so
    inputs of one category cost about the same whatever the seed.
    """
    sign = rng.choice((-1, 1))
    bound = HEIGHTS[height]
    if height == "small":
        return Fraction(sign * rng.randint(1, bound))
    return Fraction(sign * rng.randint(bound // 2, bound - 1), bound)


def _inverse(p: list[list[Fraction]]) -> list[list[Fraction]] | None:
    n = len(p)
    work = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(p)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if work[r][c]), None)
        if pivot is None:
            return None
        work[c], work[pivot] = work[pivot], work[c]
        inv = 1 / work[c][c]
        work[c] = [v * inv for v in work[c]]
        for r in range(n):
            if r != c and work[r][c]:
                factor = work[r][c]
                work[r] = [a - factor * b for a, b in zip(work[r], work[c])]
    return [row[n:] for row in work]


def _basis_change(rng: random.Random, basis: str, height: str):
    """Invertible P (new basis vector f_j is column j) and its inverse."""
    n = len(WEIGHT)
    while True:
        p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if basis == "dense" or WEIGHT[i] > WEIGHT[j]:
                    p[i][j] = _entry(rng, height)
        p_inv = _inverse(p)
        if p_inv is not None:
            return p, p_inv


def _transform(algebra: Algebra, p, p_inv, name: str) -> Algebra:
    """Structure constants of `algebra` in the basis f_j = sum_i p[i][j] e_i."""
    n = algebra.dim
    table = {}
    for i in range(n):
        for j in range(n):
            image = [Fraction(0)] * n
            for a in range(n):
                for b in range(n):
                    product = algebra.table.get((a, b))
                    scale = p[a][i] * p[b][j]
                    if product and scale:
                        for k in range(n):
                            image[k] += scale * product[k]
            coords = tuple(
                sum(p_inv[r][k] * image[k] for k in range(n)) for r in range(n)
            )
            if any(coords):
                table[(i, j)] = coords
    return Algebra(name=name, dim=n, table=table)


def _nilpotent(rng: random.Random, n: int, density: float, name: str) -> Algebra:
    """Exactly round(density * slots) nonzero constants c_ij^k, k > max(i, j)."""
    slots = [(i, j, k) for i in range(n) for j in range(n) for k in range(max(i, j) + 1, n)]
    table = {}
    for i, j, k in rng.sample(slots, round(density * len(slots))):
        coords = list(table.get((i, j), [Fraction(0)] * n))
        coords[k] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        table[(i, j)] = tuple(coords)
    return Algebra(name=name, dim=n, table=table)


def make_cycle(seed: int, cycle: int) -> list[tuple[str, Algebra]]:
    """The algebras of one cycle: one per category, same order every cycle."""
    rng = random.Random(f"solve-{seed}-{cycle}")
    items = []
    for category in CATEGORIES:
        name = category_name(category)
        if category[0] == "iso":
            _, base, basis, height = category
            p, p_inv = _basis_change(rng, basis, height)
            algebra = _transform(builtin(base), p, p_inv, name)
        else:
            _, n, density = category
            algebra = _nilpotent(rng, n, density, name)
        items.append((name, algebra))
    return items


# -- independent checks -------------------------------------------------------


def _apply(rows, x):
    return [sum(r * v for r, v in zip(row, x)) for row in rows]


def _product(algebra: Algebra, x, y):
    out = [Fraction(0)] * algebra.dim
    for (i, j), coords in algebra.table.items():
        scale = x[i] * y[j]
        if scale:
            for k, c in enumerate(coords):
                out[k] += scale * c
    return out


def satisfies_leibniz(algebra: Algebra, rows) -> bool:
    """D(e_i e_j) = D(e_i) e_j + e_i D(e_j) for all basis pairs."""
    n = algebra.dim
    basis = [[Fraction(int(t == s)) for t in range(n)] for s in range(n)]
    images = [_apply(rows, e) for e in basis]
    for i in range(n):
        for j in range(n):
            lhs = _apply(rows, _product(algebra, basis[i], basis[j]))
            rhs_1 = _product(algebra, images[i], basis[j])
            rhs_2 = _product(algebra, basis[i], images[j])
            if lhs != [a + b for a, b in zip(rhs_1, rhs_2)]:
                return False
    return True


def _rank(vectors) -> int:
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    vectors = [list(v) for v in vectors]
    if not vectors:
        return 0
    return DomainMatrix(
        [[QQ(v.numerator, v.denominator) for v in map(Fraction, row)] for row in vectors],
        (len(vectors), len(vectors[0])),
        QQ,
    ).rank()


def _flat(op) -> list:
    return [v for row in op.rows for v in row]


def check(name: str, algebra: Algebra, outcome) -> tuple[str, bool] | None:
    """None when the pipeline's answer is right, else (failure kind, exact).

    `exact` is False when the engine itself marked its local-derivation
    space as probabilistic, i.e. it did not claim the answer.
    """
    if isinstance(outcome, BaseException):
        return f"raised {type(outcome).__name__}: {outcome}", False
    ders, locders, witness = outcome
    exact = locders.provenance == "exact"
    kind, base = name.split("-")[:2]
    if kind == "iso":
        dims = (ders.dim, locders.dim)
        if dims != EXPECTED_DIMS[base]:
            return f"{locders.provenance} {base} copy: (dim Der, dim LocDer) = {dims}", exact
        if witness is None or satisfies_leibniz(algebra, witness.rows):
            return f"{base} copy: no witness that fails Leibniz", exact
        return None
    for d in ders.basis:
        if not satisfies_leibniz(algebra, d.rows):
            return "nilpotent: a Der basis element fails Leibniz", exact
    from locsym.derivations import leibniz_rows

    n = algebra.dim
    if ders.dim != n * n - _rank(leibniz_rows(algebra).rows):
        return "nilpotent: dim Der differs from the sympy rank", exact
    loc_rank = _rank(_flat(op) for op in locders.basis)
    both = _rank([_flat(op) for op in locders.basis] + [_flat(d) for d in ders.basis])
    if loc_rank != locders.dim or both != loc_rank:
        return "nilpotent: Der is not inside LocDer", exact
    return None
