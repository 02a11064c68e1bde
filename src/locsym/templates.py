"""Matrix templates: parameterized matrix shapes with open conditions.

A template is a dim x dim grid of polynomials in named parameters plus a
list of polynomials that an admissible assignment must keep nonzero.
The closed forms of the derivation algebras, local derivation spaces and
automorphism groups of pi2 and pi3 all live here as built-ins, and
closed_forms finds them for an algebra by its structure constants.

Every grid is read one way (MatrixTemplate.read): each parameter's first
bare entry in row-major order gives its value, and every other entry
(later bare ones too, like b44 = b11 for pi3) is a zero or a relation,
checked as grid value minus template polynomial.  Power constraints
like a11^3 are therefore equalities of powers, never root extractions.
template_match, the local-automorphism pattern checks and the group
closure proof (closure_failure) are built on this reading.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

from .algebra import Algebra, builtin
from .errors import InputError, UnsupportedError
from .linalg import Matrix, Subspace
from .poly import Poly, poly, unit_times_powers


# Compared and hashed by identity: each closed form is one object, and
# local_automorphisms.orbit_solve keeps one solve per automorphism template.
@dataclass(frozen=True, eq=False)
class MatrixTemplate:
    """A dim x dim grid of polynomials in params, with open conditions.

    free_coordinates, cached, is where read() takes each parameter from.
    """

    dim: int
    params: tuple[str, ...]
    entries: tuple[tuple[Poly, ...], ...]
    nonzero: tuple[Poly, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if len(self.entries) != self.dim or any(
            len(row) != self.dim for row in self.entries
        ):
            raise InputError("template grid does not match declared dimension")
        allowed = set(self.params)
        for row in self.entries:
            for entry in row:
                if not set(entry.variables()) <= allowed:
                    raise InputError(
                        f"entry {entry} uses undeclared parameters"
                    )

    def instantiate(self, assignment) -> Matrix:
        """Exact matrix at the given parameter values.

        Unlisted parameters default to zero; open conditions must hold.
        """
        values = dict.fromkeys(self.params, 0)
        for key, val in assignment.items():
            if key not in values:
                raise InputError(f"unknown template parameter {key!r}")
            values[key] = val
        for condition in self.nonzero:
            if condition.evaluate(values) == 0:
                raise InputError(
                    f"open condition violated: {condition} = 0"
                )
        return Matrix(
            [[e.evaluate(values) for e in row] for row in self.entries]
        )

    def symbolic(self, suffix: str):
        """The grid and open conditions with each parameter p renamed p + suffix."""
        rename = {p: Poly.var(p + suffix) for p in self.params}
        grid = tuple(tuple(e.subs(rename) for e in row) for row in self.entries)
        return grid, tuple(c.subs(rename) for c in self.nonzero)

    def instantiate_numeric(self, assignment):
        """Complex instantiation; open conditions are not enforced here."""
        values = {p: 0j for p in self.params}
        values.update({k: complex(v) for k, v in assignment.items()})
        return [
            [e.evaluate_numeric(values) for e in row] for row in self.entries
        ]

    def is_linear(self) -> bool:
        try:
            for row in self.entries:
                for entry in row:
                    entry.linear_decompose(self.params)
        except ValueError:
            return False
        return True

    def parameter_span(self) -> Subspace:
        """Span of the vectorized parameter directions (linear templates)."""
        if not self.is_linear():
            raise UnsupportedError(
                "parameter span is defined for linear templates only"
            )
        vectors = []
        for param in self.params:
            vec = []
            for row in self.entries:
                for entry in row:
                    lin, rest = entry.linear_decompose(self.params)
                    if not rest.is_zero():
                        raise UnsupportedError(
                            "affine templates have no parameter span"
                        )
                    vec.append(lin[param].constant_value())
            vectors.append(tuple(vec))
        return Subspace(self.dim * self.dim, vectors)

    def zero_positions(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, j)
            for i, row in enumerate(self.entries)
            for j, entry in enumerate(row)
            if entry.is_zero()
        )

    @cached_property
    def free_coordinates(self) -> dict[str, tuple[int, int]]:
        """Position of each parameter's first bare entry, row-major."""
        bare = {Poly.var(p): p for p in self.params}
        free: dict[str, tuple[int, int]] = {}
        for i, row in enumerate(self.entries):
            for j, entry in enumerate(row):
                if entry in bare:
                    free.setdefault(bare[entry], (i, j))
        missing = [p for p in self.params if p not in free]
        if missing:
            raise UnsupportedError(f"no bare entry to read {missing} from")
        return free

    def read(self, rows, evaluate=Poly.evaluate):
        """Parameters read off a grid, and its deviation at every other entry.

        `evaluate` is Poly.evaluate, Poly.evaluate_numeric or Poly.subs.
        """
        free = self.free_coordinates
        params = {name: rows[i][j] for name, (i, j) in free.items()}
        fixed = set(free.values())
        deviations = {
            (i, j): rows[i][j] - evaluate(entry, params)
            for i, row in enumerate(self.entries)
            for j, entry in enumerate(row)
            if (i, j) not in fixed
        }
        return params, deviations


def _grid(rows: list[list[str | int]]) -> tuple[tuple[Poly, ...], ...]:
    return tuple(tuple(poly(e) for e in row) for row in rows)


def template_match(template: MatrixTemplate, m: Matrix) -> dict | None:
    """Parameter assignment with instantiate(assignment) == m, or None.

    m matches when its reading has no deviation and no open condition
    vanishes at the parameters read.
    """
    if m.shape != (template.dim, template.dim):
        raise InputError("matrix shape does not match template")
    params, deviations = template.read(m.rows)
    ok = not any(deviations.values()) and all(
        c.evaluate(params) != 0 for c in template.nonzero
    )
    return params if ok else None


def random_parameters(
    template: MatrixTemplate, rng: random.Random, bound: int = 9
) -> dict[str, int]:
    """Small random parameters kept clear of the open conditions."""
    while True:
        params = {p: rng.randint(-bound, bound) for p in template.params}
        if all(c.evaluate(params) != 0 for c in template.nonzero):
            return params


def template_space_equals(template: MatrixTemplate, basis) -> bool:
    """Span equality between a linear template and a list of matrices."""
    span = template.parameter_span()
    other = Subspace(
        template.dim * template.dim, [mat.vec() for mat in basis]
    )
    return span == other


def span_template(dim: int, basis, prefix: str) -> MatrixTemplate:
    """The linear template sum_k p_k M_k over the matrices M_k of basis,
    with parameters p_k named prefix + k (from 1) and no open conditions."""
    params = tuple(f"{prefix}{k + 1}" for k in range(len(basis)))
    entries = tuple(
        tuple(sum((Poly.var(p) * m.rows[i][j] for p, m in zip(params, basis)),
                  Poly.zero()) for j in range(dim))
        for i in range(dim)
    )
    return MatrixTemplate(dim, params, entries)


# -- group closure, proved on symbolic members --------------------------------


def determinant(rows) -> Poly:
    """Determinant of a square grid of polynomials (Laplace, first row)."""
    if not rows:
        return Poly.const(1)
    total = Poly.zero()
    for j, entry in enumerate(rows[0]):
        if not entry.is_zero():
            term = entry * determinant([r[:j] + r[j + 1:] for r in rows[1:]])
            total = total + term if j % 2 == 0 else total - term
    return total


def product_template(left, right, candidates) -> MatrixTemplate | None:
    """The candidate holding the product of any left and any right member."""
    x, x_open = left.symbolic("_l")
    y, y_open = right.symbolic("_r")
    product = [[sum((a * b for a, b in zip(row, col)), Poly.zero())
                for col in zip(*y)] for row in x]
    for template in candidates:
        params, deviations = template.read(product, Poly.subs)
        if all(d.is_zero() for d in deviations.values()) and all(
            unit_times_powers(c.subs(params), x_open + y_open)
            for c in template.nonzero
        ):
            return template
    return None


def closure_failure(templates) -> str | None:
    """Why the union S of the templates' members is no group, or None.

    1. det of each symbolic grid is a unit times powers of its open
       conditions, each dividing it: its members are V ∩ GL_n, with V the
       Zariski-closed set where its shape and relations hold.  So S is
       closed in GL_n.
    2. For each ordered pair of templates, some template reads the product
       of two symbolic members with no deviation, and its open conditions
       there are units times powers of the factors' (product_template).
       So SS ⊆ S.

    Then S is a group.  For x in S, S ⊇ xS ⊇ x²S ⊇ … are closed, since
    left multiplication is a homeomorphism, and the chain stabilizes, the
    topology being Noetherian.  So xS = S: xs = x gives e = s in S, and
    xs' = e gives x⁻¹ = s' in S.
    """
    for k, template in enumerate(templates, 1):
        det = determinant(template.entries)
        if not unit_times_powers(det, template.nonzero) or any(
            det.div_exact(c) is None for c in template.nonzero
        ):
            return f"det of template {k} is not a unit times its open conditions"
    for i, left in enumerate(templates, 1):
        for j, right in enumerate(templates, 1):
            if product_template(left, right, templates) is None:
                return f"a product of members of templates {i} and {j} is in none"
    return None


# -- built-in closed forms --------------------------------------------------

# Derivation algebras: D(xy) = D(x)y + xD(y); these grids are the general
# solutions of the Leibniz system for the builtin algebras.

DERIVATION_FORM_PI2 = MatrixTemplate(
    dim=5,
    params=("a11", "a21", "a31", "a34", "a41", "a51", "a54"),
    entries=_grid(
        [
            ["a11", 0, 0, 0, 0],
            ["a21", "2*a11", 0, 0, 0],
            ["a31", "2*a21", "3*a11", "a34", 0],
            ["a41", 0, 0, "a41+a11", 0],
            ["a51", "2*a41", 0, "a54", "2*a41+2*a11"],
        ]
    ),
)

DERIVATION_FORM_PI3 = MatrixTemplate(
    dim=5,
    params=("a11", "a21", "a31", "a34", "a51", "a54"),
    entries=_grid(
        [
            ["a11", 0, 0, 0, 0],
            ["a21", "2*a11", 0, 0, 0],
            ["a31", "2*a21", "3*a11", "a34", 0],
            [0, 0, 0, "a11", 0],
            ["a51", 0, 0, "a54", "2*a11"],
        ]
    ),
)

# Local derivation spaces: operators nabla such that for every x some
# derivation (depending on x) agrees with nabla at x.

LOCAL_DERIVATION_FORM_PI2 = MatrixTemplate(
    dim=5,
    params=(
        "b11", "b21", "b22", "b31", "b32", "b33", "b34", "b41", "b51",
        "b52", "b54",
    ),
    entries=_grid(
        [
            ["b11", 0, 0, 0, 0],
            ["b21", "b22", 0, 0, 0],
            ["b31", "b32", "b33", "b34", 0],
            ["b41", 0, 0, "b41+b11", 0],
            ["b51", "b52", 0, "b54", "b22+b52"],
        ]
    ),
)

LOCAL_DERIVATION_FORM_PI3 = MatrixTemplate(
    dim=5,
    params=("b11", "b21", "b31", "b32", "b34", "b51", "b54"),
    entries=_grid(
        [
            ["b11", 0, 0, 0, 0],
            ["b21", "2*b11", 0, 0, 0],
            ["b31", "b32", "3*b11", "b34", 0],
            [0, 0, 0, "b11", 0],
            ["b51", 0, 0, "b54", "2*b11"],
        ]
    ),
)

# Automorphism groups: invertible multiplicative maps.  The open
# conditions are exactly invertibility of the triangular shape.

AUTOMORPHISM_FORM_PI2 = MatrixTemplate(
    dim=5,
    params=("a11", "a21", "a31", "a34", "a41", "a51", "a54"),
    entries=_grid(
        [
            ["a11", 0, 0, 0, 0],
            ["a21", "a11^2", 0, 0, 0],
            ["a31", "2*a11*a21", "a11^3", "a34", 0],
            ["a41", 0, 0, "a11+a41", 0],
            ["a51", "2*a11*a41+a41^2", 0, "a54", "(a11+a41)^2"],
        ]
    ),
    nonzero=(poly("a11"), poly("a11+a41")),
)

AUTOMORPHISM_FORM_PI3 = MatrixTemplate(
    dim=5,
    params=("a11", "a21", "a31", "a34", "a51", "a54"),
    entries=_grid(
        [
            ["a11", 0, 0, 0, 0],
            ["a21", "a11^2", 0, 0, 0],
            ["a31", "2*a11*a21", "a11^3", "a34", 0],
            [0, 0, 0, "a11", 0],
            ["a51", 0, 0, "a54", "a11^2"],
        ]
    ),
    nonzero=(poly("a11"),),
)

# Local automorphism groups.  The pi2 pattern is the local derivation
# grid made invertible by nonvanishing conditions; the pi3 pattern has
# two sign branches in the (3,3) entry, one template per branch.

LOCAL_AUTOMORPHISM_FORM_PI2 = MatrixTemplate(
    dim=5,
    params=(
        "b11", "b21", "b22", "b31", "b32", "b33", "b34", "b41", "b51",
        "b52", "b54",
    ),
    entries=_grid(
        [
            ["b11", 0, 0, 0, 0],
            ["b21", "b22", 0, 0, 0],
            ["b31", "b32", "b33", "b34", 0],
            ["b41", 0, 0, "b41+b11", 0],
            ["b51", "b52", 0, "b54", "b22+b52"],
        ]
    ),
    nonzero=(
        poly("b11"), poly("b22"), poly("b33"),
        poly("b41+b11"), poly("b22+b52"),
    ),
)

LOCAL_AUTOMORPHISM_FORM_PI3_PLUS = MatrixTemplate(
    dim=5,
    params=("b11", "b21", "b31", "b32", "b34", "b51", "b54"),
    entries=_grid(
        [
            ["b11", 0, 0, 0, 0],
            ["b21", "b11^2", 0, 0, 0],
            ["b31", "b32", "b11^3", "b34", 0],
            [0, 0, 0, "b11", 0],
            ["b51", 0, 0, "b54", "b11^2"],
        ]
    ),
    nonzero=(poly("b11"),),
)

LOCAL_AUTOMORPHISM_FORM_PI3_MINUS = MatrixTemplate(
    dim=5,
    params=("b11", "b21", "b31", "b32", "b34", "b51", "b54"),
    entries=_grid(
        [
            ["b11", 0, 0, 0, 0],
            ["b21", "b11^2", 0, 0, 0],
            ["b31", "b32", "-1*b11^3", "b34", 0],
            [0, 0, 0, "b11", 0],
            ["b51", 0, 0, "b54", "b11^2"],
        ]
    ),
    nonzero=(poly("b11"),),
)


@dataclass(frozen=True)
class ClosedForms:
    """The closed forms of one algebra, as templates."""

    derivation: MatrixTemplate
    local_derivation: MatrixTemplate
    automorphism: MatrixTemplate
    local_automorphism: tuple[MatrixTemplate, ...]   # one per branch


_CLOSED_FORMS = {
    builtin("pi2").structure: ClosedForms(
        derivation=DERIVATION_FORM_PI2,
        local_derivation=LOCAL_DERIVATION_FORM_PI2,
        automorphism=AUTOMORPHISM_FORM_PI2,
        local_automorphism=(LOCAL_AUTOMORPHISM_FORM_PI2,),
    ),
    builtin("pi3").structure: ClosedForms(
        derivation=DERIVATION_FORM_PI3,
        local_derivation=LOCAL_DERIVATION_FORM_PI3,
        automorphism=AUTOMORPHISM_FORM_PI3,
        local_automorphism=(
            LOCAL_AUTOMORPHISM_FORM_PI3_PLUS,
            LOCAL_AUTOMORPHISM_FORM_PI3_MINUS,
        ),
    ),
}


def closed_forms(algebra: Algebra) -> ClosedForms:
    """The closed forms of an algebra, found by its structure constants only."""
    try:
        return _CLOSED_FORMS[algebra.structure]
    except KeyError:
        raise UnsupportedError(
            f"no closed forms for algebra {algebra.name!r}: its structure "
            f"constants are neither pi2's nor pi3's"
        ) from None
