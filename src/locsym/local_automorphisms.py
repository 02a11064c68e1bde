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
checks use MatrixTemplate.read.  verify_pattern proves both halves over
C from the same solve: every member matches an automorphism at every x,
on every leaf (forward_failure, stratify.member_failure), and every
local automorphism is a member, from the relations the leaf conditions
put on B, split by stratify.split_zero_set (relation_split) and read by
stratify.reading_failure (reverse_failure), as Aut's equations are.
find_witness refutes a non-member at the point that
OrbitSolve.refuting_point walks to, as LocDer's refuting_point does.
Group closure is proved from symbolic products (templates.closure_failure).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, partial

from .algebra import Algebra
from .errors import InputError, InternalCheckError
from .linalg import Matrix, vector
from .local_derivations import generic_operator, leaf_relations
from .poly import Poly
from .stratify import (
    FeasibilityReport,
    OrbitSolve,
    Witness,
    coverage_failure,
    member_failure,
    member_image,
    reading_failure,
    solve_parametric,
    split_zero_set,
    tree_leaves,
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


# -- refutation points and the two-way proof -------------------------------------


def find_witness(algebra: Algebra, b: Matrix) -> tuple | None:
    """A point where no automorphism agrees with b, or None when b is a
    local automorphism.

    The point is the orbit solve's refuting point (OrbitSolve.refuting_point),
    confirmed by locaut_feasible_at.  Nothing is sampled, and the walk is
    complete: by the reverse proof (reverse_failure) an operator that
    breaks no leaf condition and makes no inequation vanish identically
    is a member of the pattern, and by the forward proof a member is a
    local automorphism.
    """
    if b.shape != (algebra.dim,) * 2:
        raise InputError("matrix shape does not match the algebra")
    x = orbit_solve(closed_forms(algebra).automorphism).refuting_point(b.rows)
    if x is not None and locaut_feasible_at(algebra, b, x).feasible:
        raise InternalCheckError(f"the refuting point {x} is feasible")
    return x


def forward_failure(pattern: LocAutPattern):
    """Why some member is no local automorphism over C, or None.

    member_failure runs for each template on every leaf; the leaves
    partition x-space (coverage_failure), so every member matches an
    automorphism at every x.  A failure is (detail naming the leaf,
    (member, point) or None), the first of 100 seeded small members that
    the orbit solve refutes, at its refuting point.
    """
    algebra = pattern.algebra
    solve = orbit_solve(closed_forms(algebra).automorphism)
    if failure := coverage_failure(solve.root):
        return f"the orbit solve does not cover x-space: {failure}", None
    for branch, template in zip(pattern.branches, pattern.templates):
        for leaf in solve.leaves:
            if failure := member_failure(solve, leaf, template):
                rng = random.Random(0)
                members = (template.instantiate(random_parameters(template, rng, 3))
                           for _ in range(100))
                return f"the {branch} template on the leaf {leaf.name}: {failure}", next(
                    ((b, x) for b in members
                     if (x := solve.refuting_point(b.rows)) is not None), None)
    return None


@cache
def relation_split(template: MatrixTemplate):
    """The relations R of the local automorphisms and the split of R = 0,
    from the orbit solve of a builtin automorphism template; built on
    first use and kept, like the solve.

    R is read off the solve as for the Der template (leaf_relations): B
    meets every leaf condition on the whole of every leaf iff R(B) = 0.
    Their split over the entries of a generic B (stratify.split_zero_set)
    covers R = 0, as coverage_failure proves.
    """
    relations = tuple(dict.fromkeys(
        r.content_primitive()[1] for r in leaf_relations(orbit_solve(template))))
    return relations, split_zero_set(relations)


def _vanishes(solve: OrbitSolve, rows) -> bool:
    """Some leaf inequation N(x, B x) is identically zero on its leaf, at
    the grid rows of B, so no automorphism matches B on its points."""
    return any(not q.subs(xy) for leaf in solve.leaves
               for xy in (member_image(leaf, rows),) for q in leaf.nonzero)


def reverse_failure(pattern: LocAutPattern):
    """Why some local automorphism is no member of the pattern, or None.

    Every local automorphism B meets the relations R = 0 (relation_split),
    whose split is proved to cover them (coverage_failure).
    stratify.reading_failure reads the generic B on each leaf, excluding
    the B where some leaf inequation N(x, B x) of the solve vanishes
    identically (_vanishes: b33 x3 at b33 = 0), as no automorphism
    matches B at that leaf's points.  A failure is (detail, B or None), B
    a point of the leaf that the pattern misses.
    """
    aut = closed_forms(pattern.algebra).automorphism
    root = relation_split(aut)[1]
    if failure := coverage_failure(root):
        return f"the relation split does not cover R = 0: {failure}", None
    _, failure = reading_failure(root, generic_operator(aut.dim), pattern.templates,
                                 partial(_vanishes, orbit_solve(aut)))
    if failure is None:
        return None
    leaf, template, c, member = failure
    if template is None:
        return f"no template reads the local automorphisms on the leaf {leaf.name}", member
    branch = pattern.branches[pattern.templates.index(template)]
    return (f"the open condition {c} != 0 of the {branch} template "
            f"is not necessary on the leaf {leaf.name}", member)


@dataclass(frozen=True)
class PatternReport:
    ok: bool
    counterexample: tuple[Matrix, tuple | None] | None
    forward: str          # the forward proof, or where it fails
    reverse: str | None   # the reverse proof, where it fails, or None after a forward failure

    @property
    def detail(self) -> str:
        """Where the verification fails, or both proofs."""
        if self.ok:
            return f"{self.forward}; {self.reverse}"
        return self.reverse or self.forward


def verify_pattern(pattern: LocAutPattern) -> PatternReport:
    """Proof of "local automorphism iff pattern member", both ways over C.

    Forward: every member matches an automorphism at every x
    (forward_failure).  Reverse: every local automorphism is a member
    (reverse_failure).  Nothing is sampled unless a proof fails, when
    forward_failure looks for a refuted member and point.
    """
    if failure := forward_failure(pattern):
        return PatternReport(False, failure[1], failure[0], None)
    template = closed_forms(pattern.algebra).automorphism
    count, leaves = len(pattern.templates), len(orbit_solve(template).leaves)
    forward = (f"the members of {count} template{'s' * (count > 1)} match an "
               f"automorphism at every x over C, proved on the {leaves} leaves of "
               f"the orbit solve")
    if failure := reverse_failure(pattern):
        member = None if failure[1] is None else (failure[1], None)
        return PatternReport(False, member, forward, failure[0])
    relations, root = relation_split(template)
    splits = sum(1 for _ in tree_leaves(root))
    return PatternReport(True, None, forward, (
        f"every local automorphism is a member, proved from the {len(relations)} "
        f"relations of the orbit solve on the {splits} "
        f"lea{'ves' if splits > 1 else 'f'} of their split"))


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
    # an entry that a template reads a parameter from deviates by nothing
    k = min(
        range(len(readings)),
        key=lambda k: max(
            (abs(readings[k][1].get(pos, 0.0)) for pos in differ), default=0.0
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
