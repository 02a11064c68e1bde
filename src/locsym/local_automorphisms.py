"""Local automorphisms: pointwise automorphic-image feasibility.

B is a local automorphism when for every x some automorphism phi_x has
B(x) = phi_x(x).  Whether some member of the automorphism template T
agrees with B at x is read off one recorded solve of T(a) x = y per
template, with x and y symbolic (orbit_solve, a kept
stratify.solve_parametric): locaut_feasible_at walks its splits by x and
evaluates the leaf's conditions at (x, B x) exactly.  The same solver
gives LocDer from the Der template (local_derivations).

The closed local-automorphism patterns (shape, entry relations and
nonvanishing conditions) are the templates that templates.closed_forms
finds for the algebra, wrapped as LocAutPattern objects.  Membership
checks use MatrixTemplate.read.  verify_pattern proves on every leaf of
the solve that every member matches an automorphism at every x over C
(stratify.member_failure), and refutes sampled single-constraint
violations; group closure is proved from symbolic products
(templates.closure_failure).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache

from .algebra import Algebra
from .errors import InputError
from .linalg import Matrix, vector
from .local_derivations import support_patterns
from .poly import Poly
from .rationals import quotient
from .stratify import (
    FeasibilityReport,
    OrbitLeaf,
    OrbitSolve,
    Witness,
    coverage_failure,
    grid_point,
    member_failure,
    solve_parametric,
)
from .templates import (
    MatrixTemplate,
    closed_forms,
    closure_failure,
    random_parameters,
)


@cache
def orbit_solve(template: MatrixTemplate) -> OrbitSolve:
    """The solve of T(a) x = y for a builtin automorphism template, built
    on first use and kept (stratify.solve_parametric)."""
    return solve_parametric(template)


def _at(algebra: Algebra, b: Matrix, x):
    """The orbit solve of the algebra's automorphism template, x and b x."""
    solve = orbit_solve(closed_forms(algebra).automorphism)
    x = vector(x)
    if len(x) != algebra.dim:
        raise InputError("point dimension does not match the algebra")
    return solve, x, b.apply(x)


def locaut_feasible_at(algebra: Algebra, b: Matrix, x) -> FeasibilityReport:
    """Does some automorphism agree with b at x?  Decided exactly, over C,
    by the conditions and inequations of the orbit-solve leaf holding x."""
    solve, x, y = _at(algebra, b, x)
    return solve.decide(x, y)


def automorphic_witness(algebra: Algebra, b: Matrix, x) -> Witness | None:
    """Exact parameters of an automorphism agreeing with b at x, or None."""
    solve, x, y = _at(algebra, b, x)
    return solve.witness(x, y)


# -- the closed patterns ------------------------------------------------------


@dataclass(frozen=True)
class PatternCheck:
    ok: bool
    branch: str | None      # pi3 sign branch: "+", "-", or None
    boundary: bool          # shape and relations hold, nonvanishing fails
    failures: tuple[str, ...]


@dataclass(frozen=True)
class LocAutPattern:
    """Closed local-automorphism form: shape, relations, open conditions."""

    algebra: Algebra
    templates: tuple[MatrixTemplate, ...]   # one per branch

    @property
    def branches(self) -> tuple[str, ...]:
        return ("+",) if len(self.templates) == 1 else ("+", "-")

    def template(self, branch: str = "+") -> MatrixTemplate:
        return self.templates[0 if branch == "+" else 1]

    def dimension(self) -> int:
        """Free-coordinate count of one branch: a full-rank projection."""
        return len(self.templates[0].free_coordinates)


def locaut_pattern(algebra: Algebra) -> LocAutPattern:
    return LocAutPattern(
        algebra=algebra, templates=closed_forms(algebra).local_automorphism
    )


def pattern_check(pattern: LocAutPattern, b: Matrix) -> PatternCheck:
    """Exact membership: zero shape, entry relations, open conditions.

    Matrices satisfying shape and relations but violating only the
    nonvanishing conditions are flagged as boundary cases: they are
    excluded by the pattern's open hypotheses rather than its relations.
    With several branches, the reported branch is the one template with
    the fewest shape and relation failures (None on a tie).
    """
    if b.shape != (pattern.algebra.dim,) * 2:
        raise InputError("matrix shape does not match the pattern")
    readings = []
    for template in pattern.templates:
        params, deviations = template.read(b.rows)
        shape = [
            f"entry ({i + 1},{j + 1}) must vanish"
            if template.entries[i][j].is_zero()
            else f"relation b{i + 1}{j + 1} = {template.entries[i][j]} fails"
            for (i, j), gap in deviations.items()
            if gap != 0
        ]
        open_failures = [
            f"open condition {c} != 0 fails"
            for c in template.nonzero
            if c.evaluate(params) == 0
        ]
        readings.append((shape, open_failures))
    ok = any(not shape and not opens for shape, opens in readings)
    fewest = min(len(shape) for shape, _ in readings)
    closest = [
        k for k, (shape, _) in enumerate(readings) if len(shape) == fewest
    ]
    failures = () if ok else tuple(
        dict.fromkeys(
            f for k in closest for f in readings[k][0] + readings[k][1]
        )
    )
    unique = len(pattern.templates) > 1 and len(closest) == 1
    return PatternCheck(
        ok=ok,
        branch=pattern.branches[closest[0]] if unique else None,
        boundary=fewest == 0 and not ok,
        failures=failures,
    )


def random_pattern_member(
    pattern: LocAutPattern,
    rng: random.Random,
    bound: int = 9,
    branch: str | None = None,
) -> Matrix:
    """Random exact member; branch is drawn at random for pi3 if unset."""
    if branch is None:
        branch = rng.choice(pattern.branches)
    template = pattern.template(branch)
    return template.instantiate(random_parameters(template, rng, bound))


# -- randomized two-way verification ------------------------------------------

STRATUM_POINTS = (
    (1, 0, 0, -1, 0),   # n1 + n4 = 0
    (0, 1, 0, 0, -1),   # n2 + n5 = 0
)


@cache
def probe_points(dim: int) -> tuple[tuple[int, ...], ...]:
    """Structured refutation probes: e_i, e_i + e_j, stratum points."""
    points = [
        tuple(int(t in support) for t in range(dim))
        for support in support_patterns(dim)
        if len(support) <= 2
    ]
    points.extend(raw for raw in STRATUM_POINTS if len(raw) == dim)
    return tuple(points)


def find_witness(
    algebra: Algebra,
    b: Matrix,
    seed: int = 0,
    random_trials: int = 1000,
) -> tuple[int, ...] | None:
    """A point where b has no automorphic match, or None if none found."""
    for x in probe_points(algebra.dim):
        if not locaut_feasible_at(algebra, b, x).feasible:
            return x
    rng = random.Random(seed)
    for _ in range(random_trials):
        x = tuple(rng.randint(-9, 9) for _ in range(algebra.dim))
        if not locaut_feasible_at(algebra, b, x).feasible:
            return x
    return None


def _stratum_point(solve: OrbitSolve, leaf: OrbitLeaf) -> tuple:
    """The leaf's point at the grid's first point (stratify.grid_point)."""
    point = grid_point(leaf)
    return tuple(point[f"x{k + 1}"] for k in range(solve.template.dim))


def forward_failure(pattern: LocAutPattern):
    """Why some member is no local automorphism over C, or None.

    member_failure runs for each template on every leaf; the leaves
    partition x-space (coverage_failure), so every member matches an
    automorphism at every x.  A failure is (detail naming the leaf,
    (member, point) or None), the member and point refuted by
    locaut_feasible_at, from 100 seeded small members.
    """
    algebra, rng = pattern.algebra, random.Random(0)
    solve = orbit_solve(closed_forms(algebra).automorphism)
    if failure := coverage_failure(solve.root):
        return f"the orbit solve does not cover x-space: {failure}", None
    for branch, template in zip(pattern.branches, pattern.templates):
        for leaf in solve.leaves:
            if failure := member_failure(solve, leaf, template):
                points = [_stratum_point(solve, leaf), *probe_points(algebra.dim)]
                members = (template.instantiate(random_parameters(template, rng, 3))
                           for _ in range(100))
                return f"the {branch} template on the leaf {leaf.name}: {failure}", next(
                    ((b, x) for b in members for x in points
                     if not locaut_feasible_at(algebra, b, x).feasible), None)
    return None


@dataclass(frozen=True)
class PatternReport:
    ok: bool
    trials: int
    counterexample: tuple[Matrix, tuple | None] | None
    detail: str
    proof: str   # the forward proof, or where it fails


def verify_pattern(pattern: LocAutPattern, trials: int = 200, seed: int = 0) -> PatternReport:
    """Two-way check of "local automorphism iff pattern member".

    Forward, proved over C (forward_failure).  Reverse, sampled: `trials`
    random single-constraint violations must each be refuted by an
    explicit witness point.
    """
    algebra = pattern.algebra
    if failure := forward_failure(pattern):
        return PatternReport(False, 0, failure[1], failure[0], failure[0])
    leaves, count = len(orbit_solve(closed_forms(algebra).automorphism).leaves), len(
        pattern.templates)
    proof = (f"the members of {count} template{'s' * (count > 1)} match an "
             f"automorphism at every x over C, proved on the {leaves} leaves of "
             f"the orbit solve")
    rng = random.Random(seed)
    for t in range(trials):
        violated = _random_violation(pattern, rng)
        if find_witness(algebra, violated, seed=seed + t, random_trials=1000) is None:
            return PatternReport(False, t + 1, (violated, None),
                                 "a relation violation survived every probe point", proof)
    return PatternReport(True, trials, None,
                         f"{trials} single-constraint violations all refuted", proof)


def _random_violation(pattern: LocAutPattern, rng: random.Random) -> Matrix:
    """A matrix violating exactly one pattern constraint."""
    branch = rng.choice(pattern.branches)
    template = pattern.template(branch)
    member = random_pattern_member(pattern, rng, branch=branch)
    params, deviations = template.read(member.rows)
    rows = [list(row) for row in member.rows]
    delta = rng.randint(1, 9)
    kind = rng.choice(("zero", "relation", "open"))
    if kind == "zero":
        zeros = template.zero_positions()
        i, j = zeros[rng.randrange(len(zeros))]
        rows[i][j] += delta
        return Matrix(rows)
    if kind == "relation":
        relations = [
            (i, j) for i, j in deviations if not template.entries[i][j].is_zero()
        ]
        i, j = rng.choice(relations)
        # keep clear of every branch, or the bump lands in another one
        values = {t.entries[i][j].evaluate(params) for t in pattern.templates}
        while rows[i][j] + delta in values:
            delta += 1
        rows[i][j] += delta
        return Matrix(rows)
    # an open condition vanishes while every relation still holds: solve
    # it for a degree-1 parameter and evaluate the grid directly
    # (instantiate would reject the assignment)
    condition = rng.choice(template.nonzero)
    name = next(
        v for v in reversed(condition.variables())
        if condition.degree_in(v) == 1
    )
    coeff, rest = condition.coeff_split(name)
    params[name] = quotient(-rest.evaluate(params), coeff.evaluate(params))
    return Matrix(
        [[entry.evaluate(params) for entry in row] for row in template.entries]
    )


def group_closure_check(pattern: LocAutPattern) -> bool:
    """The group laws of the pattern, proved by templates.closure_failure."""
    return closure_failure(pattern.templates) is None


# -- float-side pattern residual (used by the exponential bridge) -------------


@dataclass(frozen=True)
class NumericPatternCheck:
    residual: float
    branch: str | None
    min_open: float


def pattern_residual(algebra: Algebra, rows) -> NumericPatternCheck:
    """Max violation of the pattern over complex entries, plus branch.

    With several branches, the branch is the template with the smallest
    residual on the entries where the branch templates differ (the first
    on a tie); for pi3 that is the sign making |b33 -+ b11^3| smallest.
    min_open reports how far the open conditions are from vanishing.
    """
    pattern = locaut_pattern(algebra)
    e = [[complex(v) for v in row] for row in rows]
    if len(e) != algebra.dim or any(len(row) != algebra.dim for row in e):
        raise InputError("matrix shape does not match the pattern")
    first = pattern.templates[0]
    differ = [
        (i, j)
        for i, row in enumerate(first.entries)
        for j, entry in enumerate(row)
        if any(t.entries[i][j] != entry for t in pattern.templates)
    ]
    readings = [
        t.read(e, Poly.evaluate_numeric) for t in pattern.templates
    ]
    k = min(
        range(len(readings)),
        key=lambda k: max(
            (abs(readings[k][1][pos]) for pos in differ), default=0.0
        ),
    )
    params, deviations = readings[k]
    return NumericPatternCheck(
        residual=max(abs(d) for d in deviations.values()),
        branch=pattern.branches[k] if len(readings) > 1 else None,
        min_open=min(
            abs(c.evaluate_numeric(params))
            for c in pattern.templates[k].nonzero
        ),
    )
