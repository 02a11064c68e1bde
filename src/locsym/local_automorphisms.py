"""Local automorphisms: pointwise automorphic-image feasibility.

B is a local automorphism when for every x some automorphism phi_x has
B(x) = phi_x(x).  Whether some member of the automorphism template T
agrees with B at x is read off one recorded solve of T(a) x = y per
template, with x and y symbolic (orbit_solve): locaut_feasible_at walks
its splits by x and evaluates the leaf's conditions at (x, B x) exactly.

The closed local-automorphism patterns (shape, entry relations and
nonvanishing conditions) are the templates that templates.closed_forms
finds for the algebra, wrapped as LocAutPattern objects.  Membership
checks use MatrixTemplate.read.  verify_pattern proves on every leaf of
the solve that every member matches an automorphism at every x over C,
and refutes sampled single-constraint violations; group closure is
proved from symbolic products (templates.closure_failure).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cache, cached_property

from .algebra import Algebra
from .errors import InputError, InternalCheckError, StratificationError, UnsupportedError
from .linalg import Matrix, vector
from .local_derivations import support_patterns
from .poly import Poly, linear_factors, unit_times_powers
from .rationals import quotient
from .stratify import (
    Equation,
    Split,
    StratumCase,
    coverage_failure,
    grid_point,
    tree_leaves,
    zero_branches,
)
from .templates import (
    MatrixTemplate,
    closed_forms,
    closure_failure,
    random_parameters,
)


# -- the orbit solve ------------------------------------------------------------


@dataclass(frozen=True)
class Root:
    """coeff * unknown^power = value: the torus unknown is a root there."""

    unknown: str
    coeff: Poly
    power: int
    value: Poly

    def subs(self, mapping) -> "Root":
        return replace(self, coeff=self.coeff.subs(mapping), value=self.value.subs(mapping))


@dataclass(frozen=True)
class OrbitLeaf(StratumCase):
    """A leaf of the orbit solve: a stratum of x-space where T(a) x = y is
    solvable iff every constraint E(x, y) vanishes and no N(x, y) in
    nonzero does.  A pivot (u, Equation({u: c}, v)) solves c * u = v; an
    unknown neither pivoted nor a root is free (1 if torus, else 0).
    """

    nonzero: tuple[Poly, ...] = ()
    roots: tuple[Root, ...] = ()

    @cached_property
    def name(self) -> str:
        return "{" + ", ".join([f"{e} = 0" for e in self.equalities]
                               + [f"{q} != 0" for q in self.inequations]) + "}"


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    detail: str


@dataclass(frozen=True)
class Witness:
    """Exact parameters, polynomials in root symbols t with t^power = value."""

    params: dict[str, Poly]
    roots: tuple[Root, ...]

    def verifies(self, template: MatrixTemplate, x, y) -> bool:
        """T(params) x = y modulo the root relations."""
        rows = (sum((e * v for e, v in zip(row, x) if v), Poly.zero())
                for row in template.entries)
        return not any(_reduce(r.subs(self.params) - w, self.roots) for r, w in zip(rows, y))


_ONE = Poly.const(1)


@cache
def _names(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(n))


def _by_degree(p: Poly, u: str) -> dict[int, Poly]:
    """{k: p_k} with p the sum of p_k * u^k."""
    return {dict(mono).get(u, 0): part for mono, part in p.group_by((u,)).items()}


def _substitute(p: Poly, u: str, value: Poly, c: Poly) -> Poly:
    """c^k p at u = value / c, k the degree of p in u."""
    parts = _by_degree(p, u)
    return sum((part * value ** k * c ** (max(parts) - k) for k, part in parts.items()),
               Poly.zero())


def _reduce(p: Poly, roots) -> Poly:
    """p times powers of the coeffs, with each unknown^power replaced by
    value until p has degree below power in every root unknown."""
    for r in roots:
        while (parts := _by_degree(p, r.unknown)) and max(parts) >= r.power:
            t = Poly.var(r.unknown)
            p = sum((part * (r.value * t ** (k - r.power) if k >= r.power
                             else r.coeff * t ** k) for k, part in parts.items()),
                    Poly.zero())
    return p


def _strip(p: Poly, factors) -> Poly:
    """The primitive part of p without the factors, each divided out fully."""
    for f in factors:
        while p and not p.is_constant() and (q := p.div_exact(f)) is not None:
            p = q
    return p.content_primitive()[1]


def _fraction(p: Poly, values) -> tuple[Poly, Poly]:
    """(num, den) with p = num / den at values {u: (num_u, den_u)}."""
    p, den = p.subs({u: n for u, (n, d) in values.items() if d == _ONE}), _ONE
    for u, (n, d) in values.items():
        if d != _ONE and (k := p.degree_in(u)):
            p, den = _substitute(p, u, n, d), den * d ** k
    return p, den


@dataclass(frozen=True)
class OrbitSolve:
    """The recorded solve of T(a) x = y for an automorphism template T.

    torus gives each parameter solved for a torus unknown t_k in terms of
    the unknowns (t_1.. first), equations are the rows of T x - y, and
    root is the tree of Split nodes over x with OrbitLeaf leaves.
    """

    template: MatrixTemplate
    torus: dict[str, Poly]
    unknowns: tuple[str, ...]
    equations: tuple[Poly, ...]
    root: Split | OrbitLeaf

    @cached_property
    def leaves(self) -> tuple[OrbitLeaf, ...]:
        return tuple(tree_leaves(self.root))

    def point(self, x, y) -> dict:
        n = self.template.dim
        return dict(zip(_names("x", n), x)) | dict(zip(_names("y", n), y))

    def leaf_at(self, point) -> OrbitLeaf:
        """The leaf holding the point, found by walking the splits by x."""
        node = self.root
        while isinstance(node, Split):
            node = node.children[next((i for i, f in enumerate(node.factors)
                                       if not f.evaluate(point)), len(node.factors))]
        return node

    def decide(self, x, y) -> FeasibilityReport:
        point = self.point(x, y)
        leaf = self.leaf_at(point)
        failed = next((f"{e} = 0" for e in leaf.constraints if e.evaluate(point)), None) or (
            next((f"{q} != 0" for q in leaf.nonzero if not q.evaluate(point)), None))
        if failed:
            return FeasibilityReport(False, f"{failed} fails on the leaf {leaf.name}")
        return FeasibilityReport(True, f"matched on the leaf {leaf.name}")

    def witness(self, x, y) -> Witness | None:
        """Exact parameters with T x = y, or None when there are none; match
        checks T(q) x = y modulo the root relations as it builds them."""
        if not self.decide(x, y).feasible:
            return None
        point = self.point(x, y)
        xy = {v: Poly.const(c) for v, c in point.items()}
        failure, params, roots = self.match(self.leaf_at(point), xy, ())
        if failure:
            raise InternalCheckError(f"a feasible point has no witness: {failure}")
        roots = tuple(replace(r, coeff=_ONE,
                              value=r.value * quotient(1, r.coeff.constant_value()))
                      for r in roots)
        return Witness({p: _reduce(n * quotient(1, d.constant_value()), roots)
                        for p, (n, d) in params.items()}, roots)

    def match(self, leaf: OrbitLeaf, xy, allowed):
        """(failure or None, params, roots): the leaf's back-substitution at xy.

        xy maps each x_i and y_i to a polynomial.  Every condition must
        vanish there, and every inequation, root coefficient, pivot
        coefficient and torus value must be a unit times powers of
        allowed and the root symbols.  The pivots, back-substituted from
        the last with each root a symbol r with c * r^m = d, give each
        parameter as (num, den), and every row of T(q) x - y must reduce
        to 0 modulo the root relations.
        """
        roots = tuple(r.subs(xy) for r in leaf.roots)
        rooted = {r.unknown: r for r in roots}
        allowed = (*allowed, *map(Poly.var, rooted))
        if bad := next((e for e in leaf.constraints if e.subs(xy)), None):
            return f"the condition {bad} = 0 fails", None, roots
        opens = (*leaf.nonzero, *(r.coeff for r in leaf.roots))
        if bad := next((q for q in opens if not unit_times_powers(q.subs(xy), allowed)), None):
            return f"{bad} is not a unit times powers of the open conditions", None, roots
        torus = len(self.template.nonzero)
        values = {u: (Poly.var(u) if u in rooted else Poly.const(int(k < torus)), _ONE)
                  for k, u in enumerate(self.unknowns)}
        for u, eq in reversed(leaf.pivots):
            ((mono, c),) = eq.coeffs[u].group_by(self.unknowns).items()
            num, den = _fraction(eq.rhs.subs(xy), values)
            den = den * c.subs(xy)
            for t, k in mono:   # 1/t: d/n for t = n/d, t^(m-1) c/d for a root
                r = rooted.get(t)
                n, d = (r.value, Poly.var(t) ** (r.power - 1) * r.coeff) if r else values[t]
                num, den = num * d ** k, den * n ** k
            if not unit_times_powers(den, allowed) or (
                    u in self.unknowns[:torus] and not unit_times_powers(num, allowed)):
                return f"the pivot on {u} is not a unit times powers", None, roots
            values[u] = ((num * quotient(1, den.constant_value()), _ONE)
                         if den.is_constant() else (num, den))
        for e in self.equations:
            if _reduce(_fraction(e.subs(xy), values)[0], roots):
                return f"T(q) x = y fails in the row {e}", None, roots
        return None, {p: _fraction(self.torus.get(p, Poly.var(p)), values)
                      for p in self.template.params}, roots


@cache
def orbit_solve(template: MatrixTemplate) -> OrbitSolve:
    """The solve of T(a) x = y, built on first use and kept per template.

    Each open condition, linear in the parameters, is solved for one of
    them as a torus unknown t_k; every other parameter must enter
    linearly.  A pivot is an equation c * u^m + rest with c free of
    unknowns but for a monomial in the t_k.  Its x-factors split x-space
    (zero_branches); each y-factor must divide a recorded inequation.  A
    linear pivot substitutes u = -rest / c (each equation times c^k), and
    a torus unknown's value -rest joins the inequations.  c * t^m = d with
    m > 1 records a root relation and d != 0; every equation is reduced by
    it, so a second power relation on t is Euclid on the exponents.
    """
    torus, sub = [], {}
    try:
        for condition in template.nonzero:
            c, t = condition.subs(sub), Poly.var(f"t{len(torus) + 1}")
            v = max(v for v in c.variables() if v in template.params)
            coeff, rest = c.coeff_split(v)
            value = (t - rest) * quotient(1, coeff.constant_value())
            sub = {p: e.subs({v: value}) for p, e in sub.items()} | {v: value}
            torus.append(str(t))
        others = tuple(p for p in template.params if p not in sub)
        grid = [[e.subs(sub) for e in row] for row in template.entries]
        for entry in (e for row in grid for e in row):
            entry.linear_decompose(others)
    except ValueError as exc:
        raise UnsupportedError(f"the automorphism template has no torus form: {exc}") from None
    xs, ys = _names("x", template.dim), _names("y", template.dim)
    equations = tuple(sum((e * Poly.var(x) for e, x in zip(row, xs)), Poly.zero())
                      - Poly.var(y) for row, y in zip(grid, ys))
    solver = _Solver(tuple(torus), (*torus, *others), xs, frozenset(ys))
    return OrbitSolve(template, sub, solver.unknowns, equations,
                      solver.explore(list(equations), OrbitLeaf()))


class _Solver:
    """The steps of orbit_solve."""

    def __init__(self, torus, unknowns, xs, ys):
        self.torus, self.unknowns, self.xs, self.ys = torus, unknowns, xs, ys

    def explore(self, eqs, node: OrbitLeaf):
        """The tree below a node: a leaf, or the next pivot's splits."""
        eqs = [e for e in (_strip(e, (*node.opens(), *map(Poly.var, self.torus)))
                           for e in eqs) if e]
        step = min(self.pivots(eqs, node), default=None, key=lambda s: s[0])
        if step is None:
            if live := [e for e in eqs if set(e.variables()) & set(self.unknowns)]:
                raise UnsupportedError(f"the orbit solve leaves {live[0]} = 0 "
                                       f"unsolved on {node.name}")
            return replace(node, constraints=tuple(dict.fromkeys(eqs)), free_vars=tuple(
                v for v in self.xs if v not in node.substitution))
        (_, _, m, i, u), new, c, rest = step
        generic = self.explore(*self.apply(
            eqs, replace(node, inequations=node.inequations + new), i, u, m, c, rest))
        return Split(new, None, (*(
            None if branch is None else self.explore(
                [e.subs(branch[0]) for e in eqs],
                replace(branch[1], nonzero=tuple(q.subs(branch[0]) for q in node.nonzero),
                        roots=tuple(r.subs(branch[0]) for r in node.roots)))
            for branch in zero_branches(new, node)), generic)) if new else generic

    def pivots(self, eqs, node):
        """(key, new x-factors, c, rest) for each pivot c * u^m + rest; the
        key prefers the fewest new factors, torus unknowns, low powers,
        then the earliest equation."""
        opens = node.opens()
        for i, e in enumerate(eqs):
            for u in (u for u in self.unknowns if e.degree_in(u)):
                m = e.degree_in(u)
                c = _by_degree(e, u)[m]
                rest = e - c * Poly.var(u) ** m
                (mono, cxy), *more = c.group_by(self.unknowns).items()
                if more or any(v not in self.torus for v, _ in mono) or (
                        m > 1 and (mono or u not in self.torus)) or (
                        u in self.torus and set(rest.variables()) & set(self.unknowns)):
                    continue
                try:
                    factors = dict.fromkeys(linear_factors(cxy)[1])
                except StratificationError:
                    continue
                ys = [f for f in factors if self.ys.intersection(f.variables())]
                if all(any(q.div_exact(f) is not None for q in node.nonzero) for f in ys):
                    new = tuple(f for f in factors if f not in ys and f not in opens)
                    yield (len(new), u not in self.torus, m, i, u), new, c, rest

    def apply(self, eqs, node, i, u, m, c, rest):
        """The equations and the node once eqs[i] = c * u^m + rest is solved."""
        eqs, roots = eqs[:i] + eqs[i + 1:], {r.unknown: r for r in node.roots}
        if m == 1:
            if old := roots.pop(u, None):
                eqs.append(old.coeff * (-rest) ** old.power - old.value * c ** old.power)
            eqs = [_substitute(e, u, -rest, c) for e in eqs]
            node = replace(node, pivots=node.pivots + ((u, Equation({u: c}, -rest)),))
        else:
            if old := roots.get(u):
                eqs.append(old.coeff * Poly.var(u) ** old.power - old.value)
            roots[u] = Root(u, c, m, -rest)
        nonzero = node.nonzero + ((_strip(-rest, node.opens()),) if u in self.torus else ())
        roots = tuple(roots.values())
        return [_reduce(e, roots) for e in eqs], replace(node, nonzero=nonzero, roots=roots)


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
    """The leaf's point as leaf_refutation picks one (stratify.grid_point)."""
    point = grid_point(leaf)
    return tuple(point[v] for v in _names("x", solve.template.dim))


def member_failure(solve: OrbitSolve, leaf: OrbitLeaf, template: MatrixTemplate):
    """OrbitSolve.match on the leaf at y = B x, B a symbolic member of
    template and x the leaf's point under its substitution; the units are
    the leaf's inequations and the template's open conditions."""
    xs, ys = _names("x", template.dim), _names("y", template.dim)
    at = {v: Poly.var(v).subs(leaf.substitution) for v in xs}
    image = {y: sum((e * at[v] for e, v in zip(row, xs)), Poly.zero())
             for y, row in zip(ys, template.entries)}
    return solve.match(leaf, at | image, (*leaf.opens(), *template.nonzero))[0]


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
