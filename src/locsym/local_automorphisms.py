"""Local automorphisms: pointwise automorphic-image feasibility.

B is a local automorphism when for every x some automorphism phi_x has
B(x) = phi_x(x).  Unlike the derivation side this is a nonlinear
matching problem, so the engine carries a dedicated solver per
automorphism template: the feasibility question "does some family
member agree with B at x" is decided by a triangular case schedule over
the support of x, with every decision an exact rational zero test.
Square or cube roots enter only when building an explicit witness
parameter assignment, never in the feasibility decision itself, and
each such witness is checked through the automorphism template: its
numeric table (MatrixTemplate.numeric_image) gives the terms of T(q) n,
and the residual |T(q) n - y| may be FLOAT_TOL times the largest row
sum of |terms| (at least FLOAT_TOL), as roundoff grows with the size of
the coordinates.

The closed local-automorphism patterns (shape, entry relations and
nonvanishing conditions) are the templates that templates.closed_forms
finds for the algebra, wrapped as LocAutPattern objects.  Membership
checks use MatrixTemplate.read; on top sit two-way randomized
verification against the pointwise solver and group closure, proved
from symbolic products (templates.closure_failure).
"""
from __future__ import annotations

import cmath
import random
from dataclasses import dataclass

from .algebra import Algebra
from .errors import InputError, InternalCheckError
from .linalg import Matrix, vector
from .local_derivations import support_patterns
from .poly import Poly
from .rationals import quotient, random_nonzero_int
from .templates import (
    AUTOMORPHISM_FORM_PI2,
    AUTOMORPHISM_FORM_PI3,
    MatrixTemplate,
    closed_forms,
    closure_failure,
    random_parameters,
)

# Root witnesses verify up to FLOAT_TOL relative to the size of the image
# terms, or absolutely when those are at most 1 (see _try_numeric).
FLOAT_TOL = 1e-9


# -- feasibility reports ------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    witness_params: dict | None
    residual: float
    exact: bool
    detail: str


def _exact_report(params: dict, detail: str) -> FeasibilityReport:
    return FeasibilityReport(
        feasible=True,
        witness_params=params,
        residual=0.0,
        exact=True,
        detail=detail,
    )


def _infeasible(detail: str) -> FeasibilityReport:
    return FeasibilityReport(
        feasible=False,
        witness_params=None,
        residual=float("inf"),
        exact=True,
        detail=detail,
    )


# -- the pointwise solvers ----------------------------------------------------

def _zero_params(names) -> dict:
    return {name: 0 for name in names}


def _sqrts(value: complex):
    root = cmath.sqrt(value)
    return (root, -root)


def _cbrts(value: complex):
    r, phi = cmath.polar(value)
    base = r ** (1 / 3)
    roots = [
        cmath.rect(base, (phi + 2 * cmath.pi * k) / 3) for k in range(3)
    ]
    # prefer (numerically) real roots so that rational data gets
    # readable witnesses like a11 = -1 instead of a complex conjugate
    roots.sort(key=lambda z: abs(z.imag))
    return tuple(roots)


def _try_numeric(family, params, n, y, detail) -> FeasibilityReport | None:
    """Wrap a root-based witness if its float residual is acceptable.

    params maps every parameter of the family to a complex value.  The
    image of n is taken through the automorphism template itself (its
    numeric table).  The residual may be FLOAT_TOL times the largest sum
    of |terms| in a row of the image, and at least FLOAT_TOL: roundoff
    grows with the size of the coordinates.
    """
    rows = family.numeric_image(params, [complex(v) for v in n])
    residual = max(
        abs(sum(terms) - complex(t)) for terms, t in zip(rows, y)
    )
    scale = max(1.0, *(sum(map(abs, terms)) for terms in rows))
    if residual > FLOAT_TOL * scale:
        return None
    return FeasibilityReport(
        feasible=True,
        witness_params=params,
        residual=residual,
        exact=False,
        detail=detail,
    )


def _numeric_or_fail(candidates) -> FeasibilityReport:
    """First root choice whose witness verifies; exhausting them is a bug.

    The schedules only reach a root step after the exact decision says
    feasible, so every root choice should verify up to roundoff.
    """
    for report in candidates:
        if report is not None:
            return report
    raise InternalCheckError(
        "feasible schedule failed to verify any root witness"
    )


def _feasible_pi2(n, y) -> FeasibilityReport:
    n1, n2, n3, n4, n5 = n
    y1, y2, y3, y4, y5 = y
    p = _zero_params(AUTOMORPHISM_FORM_PI2.params)
    if n1 != 0:
        if y1 == 0:
            return _infeasible("coordinate 1 forces a11 = 0")
        a11 = quotient(y1, n1)
        if n1 + n4 != 0:
            if y1 + y4 == 0:
                return _infeasible("coordinate 4 forces a11 + a41 = 0")
            a41 = quotient(y4 - a11 * n4, n1 + n4)
        else:
            if y1 + y4 != 0:
                return _infeasible(
                    "coordinate 4 is inconsistent on the stratum n1 + n4 = 0"
                )
            a41 = 0
        a21 = quotient(y2 - a11 * a11 * n2, n1)
        s = a11 + a41
        p.update(a11=a11, a21=a21, a41=a41)
        p["a31"] = quotient(y3 - 2 * a11 * a21 * n2 - a11 ** 3 * n3, n1)
        p["a51"] = quotient(y5 - (s * s - a11 * a11) * n2 - s * s * n5, n1)
        return _exact_report(p, "solved on the n1 != 0 branch")
    if n4 != 0:
        if y1 != 0:
            return _infeasible("coordinate 1 must vanish when n1 = 0")
        if y4 == 0:
            return _infeasible("coordinate 4 forces a11 + a41 = 0")
        s = quotient(y4, n4)
        if n2 != 0:
            if y2 == 0:
                return _infeasible("coordinate 2 forces a11 = 0")

            def n4_witnesses():
                for a11 in _sqrts(complex(quotient(y2, n2))):
                    q = {k: complex(v) for k, v in p.items()}
                    q["a11"] = a11
                    q["a41"] = complex(s) - a11
                    q["a34"] = (
                        complex(y3) - a11 ** 3 * complex(n3)
                    ) / complex(n4)
                    q["a54"] = (
                        complex(y5)
                        - (complex(s) ** 2 - a11 ** 2) * complex(n2)
                        - complex(s) ** 2 * complex(n5)
                    ) / complex(n4)
                    yield _try_numeric(
                        AUTOMORPHISM_FORM_PI2, q, n, y,
                        "square root on the n4 branch",
                    )

            return _numeric_or_fail(n4_witnesses())
        if y2 != 0:
            return _infeasible("coordinate 2 is inconsistent when n2 = 0")
        p.update(a11=s)
        p["a34"] = quotient(y3 - s ** 3 * n3, n4)
        p["a54"] = quotient(y5 - s * s * n5, n4)
        return _exact_report(p, "solved on the n4 != 0 branch")
    if n2 != 0:
        if y1 != 0 or y4 != 0:
            return _infeasible("coordinates 1 and 4 must vanish")
        if y2 == 0:
            return _infeasible("coordinate 2 forces a11 = 0")
        if n2 + n5 != 0:
            if y2 + y5 == 0:
                return _infeasible("coordinate 5 forces a11 + a41 = 0")
            u2 = quotient(y2 + y5, n2 + n5)
        else:
            if y2 + y5 != 0:
                return _infeasible(
                    "coordinate 5 is inconsistent on the stratum n2 + n5 = 0"
                )
            u2 = quotient(y2, n2)
        def n2_witnesses():
            for a11 in _sqrts(complex(quotient(y2, n2))):
                for u in _sqrts(complex(u2)):
                    q = {k: complex(v) for k, v in p.items()}
                    q["a11"] = a11
                    q["a41"] = u - a11
                    q["a21"] = (
                        complex(y3) - a11 ** 3 * complex(n3)
                    ) / (2 * a11 * complex(n2))
                    yield _try_numeric(
                        AUTOMORPHISM_FORM_PI2, q, n, y,
                        "square roots on the n2 branch",
                    )

        return _numeric_or_fail(n2_witnesses())
    if n3 != 0:
        if y1 != 0 or y2 != 0 or y4 != 0:
            return _infeasible("coordinates 1, 2 and 4 must vanish")
        if y3 == 0:
            return _infeasible("coordinate 3 forces a11 = 0")
        if n5 != 0 and y5 == 0:
            return _infeasible("coordinate 5 forces a11 + a41 = 0")
        if n5 == 0 and y5 != 0:
            return _infeasible("coordinate 5 is inconsistent when n5 = 0")

        def n3_witnesses():
            for a11 in _cbrts(complex(quotient(y3, n3))):
                roots = (
                    _sqrts(complex(quotient(y5, n5))) if n5 != 0 else (a11,)
                )
                for u in roots:
                    q = {k: complex(v) for k, v in p.items()}
                    q["a11"] = a11
                    q["a41"] = u - a11
                    yield _try_numeric(
                        AUTOMORPHISM_FORM_PI2, q, n, y,
                        "cube root on the n3 branch",
                    )

        return _numeric_or_fail(n3_witnesses())
    if n5 != 0:
        if y1 != 0 or y2 != 0 or y3 != 0 or y4 != 0:
            return _infeasible("coordinates 1 through 4 must vanish")
        if y5 == 0:
            return _infeasible("coordinate 5 forces a11 + a41 = 0")

        def n5_witnesses():
            for u in _sqrts(complex(quotient(y5, n5))):
                q = {k: complex(v) for k, v in p.items()}
                q["a11"] = u
                yield _try_numeric(
                    AUTOMORPHISM_FORM_PI2, q, n, y,
                    "square root on the n5 branch",
                )

        return _numeric_or_fail(n5_witnesses())
    p["a11"] = 1
    return _exact_report(p, "x = 0 is matched by the identity")


def _feasible_pi3(n, y) -> FeasibilityReport:
    n1, n2, n3, n4, n5 = n
    y1, y2, y3, y4, y5 = y
    p = _zero_params(AUTOMORPHISM_FORM_PI3.params)
    if n1 != 0:
        if y1 == 0:
            return _infeasible("coordinate 1 forces a11 = 0")
        if y1 * n4 != y4 * n1:
            return _infeasible("coordinates 1 and 4 disagree about a11")
        a11 = quotient(y1, n1)
        a21 = quotient(y2 - a11 * a11 * n2, n1)
        p.update(a11=a11, a21=a21)
        p["a31"] = quotient(y3 - 2 * a11 * a21 * n2 - a11 ** 3 * n3, n1)
        p["a51"] = quotient(y5 - a11 * a11 * n5, n1)
        return _exact_report(p, "solved on the n1 != 0 branch")
    if n4 != 0:
        if y1 != 0:
            return _infeasible("coordinate 1 must vanish when n1 = 0")
        if y4 == 0:
            return _infeasible("coordinate 4 forces a11 = 0")
        a11 = quotient(y4, n4)
        if n2 != 0:
            if y4 * y4 * n2 != y2 * n4 * n4:
                return _infeasible("coordinate 2 disagrees with a11 squared")
        elif y2 != 0:
            return _infeasible("coordinate 2 is inconsistent when n2 = 0")
        p.update(a11=a11)
        p["a34"] = quotient(y3 - a11 ** 3 * n3, n4)
        p["a54"] = quotient(y5 - a11 * a11 * n5, n4)
        return _exact_report(p, "solved on the n4 != 0 branch")
    if n2 != 0:
        if y1 != 0 or y4 != 0:
            return _infeasible("coordinates 1 and 4 must vanish")
        if y2 == 0:
            return _infeasible("coordinate 2 forces a11 = 0")
        if y2 * n5 != y5 * n2:
            return _infeasible("coordinate 5 disagrees with a11 squared")

        def n2_witnesses():
            for a11 in _sqrts(complex(quotient(y2, n2))):
                q = {k: complex(v) for k, v in p.items()}
                q["a11"] = a11
                q["a21"] = (
                    complex(y3) - a11 ** 3 * complex(n3)
                ) / (2 * a11 * complex(n2))
                yield _try_numeric(
                    AUTOMORPHISM_FORM_PI3, q, n, y,
                    "square root on the n2 branch",
                )

        return _numeric_or_fail(n2_witnesses())
    if n3 != 0:
        if y1 != 0 or y2 != 0 or y4 != 0:
            return _infeasible("coordinates 1, 2 and 4 must vanish")
        if y3 == 0:
            return _infeasible("coordinate 3 forces a11 = 0")
        w = quotient(y3, n3)
        if n5 != 0:
            if y5 == 0:
                return _infeasible("coordinate 5 forces a11 = 0")
            u = quotient(y5, n5)
            if w * w != u ** 3:
                return _infeasible(
                    "coordinates 3 and 5 need a11^3 and a11^2 with "
                    "incompatible values"
                )
            p["a11"] = quotient(w, u)
            return _exact_report(p, "solved exactly on the n3, n5 branch")
        if y5 != 0:
            return _infeasible("coordinate 5 is inconsistent when n5 = 0")

        def n3_witnesses():
            for a11 in _cbrts(complex(w)):
                q = {k: complex(v) for k, v in p.items()}
                q["a11"] = a11
                yield _try_numeric(
                    AUTOMORPHISM_FORM_PI3, q, n, y,
                    "cube root on the n3 branch",
                )

        return _numeric_or_fail(n3_witnesses())
    if n5 != 0:
        if y1 != 0 or y2 != 0 or y3 != 0 or y4 != 0:
            return _infeasible("coordinates 1 through 4 must vanish")
        if y5 == 0:
            return _infeasible("coordinate 5 forces a11 = 0")

        def n5_witnesses():
            for a11 in _sqrts(complex(quotient(y5, n5))):
                q = {k: complex(v) for k, v in p.items()}
                q["a11"] = a11
                yield _try_numeric(
                    AUTOMORPHISM_FORM_PI3, q, n, y,
                    "square root on the n5 branch",
                )

        return _numeric_or_fail(n5_witnesses())
    p["a11"] = 1
    return _exact_report(p, "x = 0 is matched by the identity")


# Each schedule decides feasibility for the automorphism template it solves.
_SOLVERS = {
    AUTOMORPHISM_FORM_PI2: _feasible_pi2,
    AUTOMORPHISM_FORM_PI3: _feasible_pi3,
}


def locaut_feasible_at(algebra: Algebra, b: Matrix, x) -> FeasibilityReport:
    """Does some automorphism agree with b at x?  Decided exactly.

    The decision is a chain of rational zero tests ordered by the
    support of x; complex roots appear only inside witness parameters.
    """
    solver = _SOLVERS[closed_forms(algebra).automorphism]
    x = vector(x)
    if len(x) != algebra.dim:
        raise InputError("point dimension does not match the algebra")
    # The schedules divide with rationals.quotient, so they run on the
    # canonical entries and integral coordinates stay ints.
    return solver(x, b.apply(x))


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


def probe_points(dim: int) -> list[tuple[int, ...]]:
    """Structured refutation probes: e_i, e_i + e_j, stratum points."""
    points = [
        tuple(int(t in support) for t in range(dim))
        for support in support_patterns(dim)
        if len(support) <= 2
    ]
    points.extend(raw for raw in STRATUM_POINTS if len(raw) == dim)
    return points


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


def _point_cycle(dim: int):
    """Support patterns plus the singled-out strata, as sampler specs."""
    supports = list(support_patterns(dim))
    strata = [raw for raw in STRATUM_POINTS if len(raw) == dim]
    return supports, strata


def _random_point(supports, strata, dim: int, rng: random.Random, k: int):
    """k-th sample point: cycles every support pattern, then the strata."""
    phase = k % (len(supports) + len(strata))
    if phase < len(supports):
        support = set(supports[phase])
        return tuple(
            random_nonzero_int(rng, 9) if i in support else 0
            for i in range(dim)
        )
    scale = rng.randint(1, 9)
    return tuple(scale * v for v in strata[phase - len(supports)])


@dataclass(frozen=True)
class PatternReport:
    ok: bool
    trials: int
    counterexample: tuple[Matrix, tuple | None] | None
    detail: str


def verify_pattern(
    pattern: LocAutPattern, trials: int = 200, seed: int = 0
) -> PatternReport:
    """Two-way check of "local automorphism iff pattern member".

    Forward: each of `trials` random members is feasible at `trials`
    points spanning every support pattern and the singled-out strata.
    Reverse: `trials` random single-constraint violations must each be
    refuted by an explicit witness point.
    """
    rng = random.Random(seed)
    algebra = pattern.algebra
    supports, strata = _point_cycle(algebra.dim)
    for t in range(trials):
        member = random_pattern_member(pattern, rng)
        for k in range(trials):
            x = _random_point(supports, strata, algebra.dim, rng, k)
            report = locaut_feasible_at(algebra, member, x)
            if not report.feasible:
                return PatternReport(
                    ok=False,
                    trials=t + 1,
                    counterexample=(member, x),
                    detail=f"pattern member infeasible at {x}: "
                           f"{report.detail}",
                )
    for t in range(trials):
        violated = _random_violation(pattern, rng)
        witness = find_witness(algebra, violated, seed=seed + t,
                               random_trials=1000)
        if witness is None:
            return PatternReport(
                ok=False,
                trials=t + 1,
                counterexample=(violated, None),
                detail="a relation violation survived every probe point",
            )
    return PatternReport(
        ok=True,
        trials=trials,
        counterexample=None,
        detail="members feasible everywhere; violations all refuted",
    )


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
