"""Stratified solving of parametric matrix templates.

solve_parametric(T) solves T(a) x = y once for a matrix template T, with
the parameters a as unknowns and x and y symbolic.  The result is an
OrbitSolve: a recorded tree of Split nodes over x-space whose OrbitLeaf
leaves are strata where T(a) x = y is solvable iff every condition
E(x, y) of the leaf vanishes and no inequation N(x, y) of the leaf does.

Each open condition of T, linear in the parameters, is solved for one of
them as a torus unknown t_k; every other parameter must enter linearly.
Pivot coefficients are polynomials in x that may vanish on subvarieties,
so every pivot splits x-space: its coefficient is factored into degree-1
factors (poly.linear_factors), and zero_branches gives the strata f_i =
0 with f_0..f_{i-1} != 0, while the generic branch keeps every factor as
an inequation.  A coefficient that does not split into degree-1
factors, or a tree deeper than MAX_DEPTH, is refused with a
StratificationError; there is no approximate answer.

Around the solve there is one splitter, one reader and one refutation,
each shared by Aut, LocAut and LocDer:

- split_zero_set splits the zero set of a list of equations: the
  multiplicativity equations of a generic map (automorphisms) and the
  relations the leaf conditions put on a local automorphism
  (local_automorphisms.relation_split).
- reading_failure is the reverse proof on the leaves of such a split:
  on each leaf that is not excluded, some template reads the generic map
  with no deviation, and each open condition it reads is necessary.
- OrbitSolve.refuting_point gives a point x where no T(a) agrees with an
  operator B, from the first leaf that B breaks (LocDer from the Der
  solve, LocAut from the automorphism solve).

The proofs share nothing with the elimination but Poly.  coverage_failure
proves from the recorded splits that the leaves partition x-space (or,
below splits of equations, cover their zero set).  OrbitSolve.match
back-substitutes a leaf's recorded pivots at given (x, y) and checks
T(q) x = y as a polynomial identity, every pivot a unit times powers of
the allowed inequations; member_failure runs it at y = B x for a
symbolic member B of a template.  grid_point gives a point of a leaf
where a polynomial is nonzero, off a fixed grid, so nothing is sampled.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, cached_property
from typing import Mapping

from .errors import InternalCheckError, StratificationError, UnsupportedError
from .linalg import Matrix
from .poly import Poly, linear_factors, solve_linear, unit_times_powers
from .rationals import quotient
from .templates import MatrixTemplate

MAX_DEPTH = 12


@dataclass(frozen=True)
class Equation:
    """One parametric equation: sum of coeffs[u]*u equals rhs."""

    coeffs: Mapping[str, Poly]
    rhs: Poly


@dataclass(frozen=True)
class StratumCase:
    """One stratum: conditions, solved substitution and constraints.

    The splitters carry the stratum of each node down the tree.  The
    solve also carries the pivots, in path order as (unknown, equation it
    was solved from), and completes a leaf with its free variables and
    constraints.
    """

    equalities: tuple[Poly, ...] = ()
    inequations: tuple[Poly, ...] = ()
    substitution: Mapping[str, Poly] = field(default_factory=dict)
    free_vars: tuple[str, ...] = ()
    constraints: tuple[Poly, ...] = ()
    pivots: tuple[tuple[str, Equation], ...] = ()

    def contains(self, point: Mapping[str, Fraction]) -> bool:
        """Exact stratum membership of a full assignment."""
        if any(e.evaluate(point) != 0 for e in self.equalities):
            return False
        return all(q.evaluate(point) != 0 for q in self.inequations)

    def signature(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        return (
            tuple(str(e) for e in self.equalities),
            tuple(str(q) for q in self.inequations),
        )

    @cached_property
    def name(self) -> str:
        return "{" + ", ".join([f"{e} = 0" for e in self.equalities]
                               + [f"{q} != 0" for q in self.inequations]) + "}"

    def opens(self) -> tuple[Poly, ...]:
        """The nonconstant inequations under the substitution, primitive."""
        reduced = (q.subs(self.substitution) for q in self.inequations)
        return tuple(q.content_primitive()[1] for q in reduced if not q.is_constant())


@dataclass(frozen=True)
class Split:
    """One recorded case split of a stratum on its factors f_0..f_{k-1}.

    children[i] for i < k is the stratum f_i = 0 with f_0..f_{i-1} != 0,
    and children[k] the stratum where every f_i != 0.  A child is a Split,
    a StratumCase leaf, or None when it is empty.  equation is the
    polynomial that must vanish on the leaves of a split of equations (the
    automorphism equations, the LocAut relations), so children[k] is
    empty; a pivot split has none and eliminates its pivot in children[k].
    """

    factors: tuple[Poly, ...]
    equation: Poly | None
    children: tuple


def zero_branches(factors: tuple[Poly, ...], stratum: StratumCase):
    """(mapping, child) for f_i = 0 with f_0..f_{i-1} != 0, i in order.

    mapping = solve_linear(f_i) solves the child's new equality.  None
    stands for an empty child, where one of the stratum's opens or of
    f_0..f_{i-1} vanishes under the mapping.
    """
    opens = stratum.opens()
    for i, f in enumerate(factors):
        mapping = solve_linear(f)
        if any(q.subs(mapping).is_zero() for q in (*opens, *factors[:i])):
            yield None
            continue
        yield mapping, replace(
            stratum, equalities=stratum.equalities + (f,),
            inequations=stratum.inequations + factors[:i],
            substitution={v: e.subs(mapping)
                          for v, e in stratum.substitution.items()} | mapping)


def relation_factors(p: Poly) -> tuple[Poly, ...]:
    """Primitive factors of a nonzero p, p a constant times their powers,
    each of degree 1 in a variable with a constant coefficient there, so
    that solve_linear solves it: the variables dividing p, then the rest
    if it is of that kind, or else the two roots of a rest quadratic in a
    variable, with a constant leading coefficient and a square
    discriminant (b11^6 - b33^2 gives b33 + b11^3 and b33 - b11^3).

    A relation may be of any degree in its other variables, which
    poly.linear_factors refuses.  Raises StratificationError otherwise.
    """
    shift = {v: min(dict(m).get(v, 0) for m in p.terms) for v in p.variables()}
    factors = [Poly.var(v) for v, k in shift.items() if k]
    p = Poly({tuple((v, e - shift[v]) for v, e in m if e > shift[v]): c
              for m, c in p.terms.items()}).content_primitive()[1]
    if p.is_constant():
        return tuple(factors)
    try:
        solve_linear(p)
    except ValueError:
        pass
    else:
        return (*factors, p)
    for v in p.variables():
        parts = p.by_degree(v)
        if max(parts) == 2 and parts[2].is_constant():
            a, b, c = parts[2], parts.get(1, Poly.zero()), parts.get(0, Poly.zero())
            if (root := (b * b - 4 * a * c).sqrt_exact()) is not None:
                return (*factors, *dict.fromkeys(
                    (2 * a * Poly.var(v) + b + s * root).content_primitive()[1]
                    for s in (-1, 1)))
    raise StratificationError(f"relation does not split into solvable factors: {p}",
                              offending=p)


def split_zero_set(equations) -> Split | StratumCase:
    """The recorded split of the common zero set of the equations.

    Each step takes the equation with the fewest new factors
    (relation_factors) and records it as a Split whose generic child is
    empty, each zero branch substituting its factor's solution into the
    other equations (zero_branches); so the leaves cover the zero set, as
    coverage_failure proves.  b22 = b44^2 is such a substitution, and
    b11^6 - b33^2 splits into b33 = -b11^3 and b33 = b11^3.  Raises the
    StratificationError of relation_factors when no equation left splits.
    """
    def split(equations, stratum):
        equations = [e for e in equations if e]
        if not equations:
            return stratum
        known, steps, unsplit = stratum.opens(), [], None
        for k, e in enumerate(equations):
            try:
                new = tuple(f for f in relation_factors(e) if f not in known)
            except StratificationError as exc:
                unsplit = exc
                continue
            steps.append((len(new), k, new))
            if len(new) <= 1:   # no equation has fewer but a constant one
                break
        if not steps:
            raise unsplit
        _, k, new = min(steps)
        rest = equations[:k] + equations[k + 1:]
        return Split(new, equations[k], (*(
            None if branch is None else split([e.subs(branch[0]) for e in rest], branch[1])
            for branch in zero_branches(new, stratum)), None))

    return split(list(equations), StratumCase())


def tree_leaves(node):
    """The leaves below a node of a recorded tree, depth first."""
    if isinstance(node, Split):
        for child in node.children:
            yield from tree_leaves(child)
    elif node is not None:
        yield node


# -- the coverage walk ----------------------------------------------------------


def coverage_failure(root) -> str | None:
    """Why the leaves below root do not cover its stratum, or None.

    A walk that uses only Poly, solve_linear and unit_times_powers, and
    carries the path's equalities, inequations and substitution.  The
    children V(f_0), V(f_1) n D(f_0), ..., D(f_0...f_{k-1}) of a split
    partition its stratum, so each must be present or proved empty:
    child i < k when a path inequation or one of f_0..f_{i-1} vanishes
    under solve_linear(f_i), child k when the split's equation (zero on
    all the split covers) is a unit times powers of the factors and the
    path's inequations.  Every leaf must record exactly its path.  The
    leaves then partition the root stratum, or, below splits of
    equations, cover their zero set.
    """
    def walk(node, equalities, inequations, sub):
        if isinstance(node, StratumCase):
            if (node.equalities, node.inequations, dict(node.substitution)) != (
                    equalities, inequations, sub):
                return f"leaf {node.signature()} does not record its path"
            return None
        factors, children = node.factors, node.children
        if len(children) != len(factors) + 1:
            return f"a split on {len(factors)} factors has {len(children)} children"
        opens = tuple(q.subs(sub) for q in inequations)
        for i, (f, child) in enumerate(zip(factors, children)):
            mapping = solve_linear(f)
            if child is None:
                if not any(q.subs(mapping).is_zero() for q in (*opens, *factors[:i])):
                    return f"the stratum {f} = 0 is marked empty below {inequations}"
            elif failure := walk(child, equalities + (f,), inequations + factors[:i],
                                 {v: e.subs(mapping) for v, e in sub.items()} | mapping):
                return failure
        if children[-1] is not None:
            return walk(children[-1], equalities, inequations + factors, sub)
        if node.equation is None or not unit_times_powers(node.equation,
                                                          (*factors, *opens)):
            return f"the stratum {factors} != 0 is marked empty below {inequations}"
        return None

    if root is None:
        return "the root stratum is marked empty"
    return walk(root, (), (), {})


def grid_point(leaf: StratumCase, q: Poly = Poly.const(1)) -> dict:
    """The first point of the grid prod {0..d_v} where Q, q times the
    inequations under s, is nonzero (d_v: Q's degree in the free variable
    v), mapped through s.

    Such a point exists for nonzero q: a nonzero polynomial of degree at
    most d_v in each v cannot vanish on the whole grid.  Every inequation
    is nonzero there, so the point lies on the leaf and q is nonzero at it.
    """
    for ineq in leaf.inequations:
        q = q * ineq.subs(leaf.substitution)
    free = leaf.free_vars
    grid = itertools.product(*(range(q.degree_in(v) + 1) for v in free))
    point = next(p for p in (dict(zip(free, g)) for g in grid) if q.evaluate(p))
    return point | {v: e.evaluate(point) for v, e in leaf.substitution.items()}


# -- the reverse reader -----------------------------------------------------------


def _product(polys) -> Poly:
    """The product of the nonzero polynomials."""
    return math.prod((p for p in polys if p), start=Poly.const(1))


def _member_at(stratum: StratumCase, q: Poly, generic) -> Matrix:
    """The generic grid at the stratum's grid point where q is nonzero
    (grid_point); the grid's variables are free in the order they appear."""
    names = dict.fromkeys(v for row in generic for e in row for v in e.variables())
    point = grid_point(replace(stratum, free_vars=tuple(
        v for v in names if v not in stratum.substitution)), q)
    return Matrix([[e.evaluate(point) for e in row] for row in generic])


def reading_failure(root, generic, templates, excluded):
    """(count, failure): how many leaves below root are read, and why
    some element on them is no member of the templates, or None.

    generic is a grid of polynomials, the generic element; on each leaf
    it is read under the leaf's substitution.  excluded(rows) says that
    the grid rows hold no element (Aut: det = 0; LocAut: an inequation of
    the orbit solve vanishes identically).  On each leaf that is not
    excluded some template must read the rows with no deviation, so every
    element there is T(p) with p read off it.  Each open condition c of
    that T must then read as a nonzero constant, or be necessary: on
    every branch of c(p) = 0, split by its factors (relation_factors),
    the rows are excluded.  A failure is (leaf, template or None when no
    template reads the leaf, open condition or None, element), the
    element a point of the leaf that every template misses, where every
    open condition read is nonzero but the failing one (_member_at).
    """
    count = 0
    for leaf in tree_leaves(root):
        rows = [[e.subs(leaf.substitution) for e in row] for row in generic]
        if excluded(rows):
            continue
        count += 1
        readings = [(t, *t.read(rows, Poly.subs)) for t in templates]
        reading = next(((t, p) for t, p, gaps in readings if not any(gaps.values())), None)
        if reading is None:
            q = _product(next(g for g in gaps.values() if g)
                         * _product(c.subs(p) for c in t.nonzero) for t, p, gaps in readings)
            return count, (leaf, None, None, _member_at(leaf, q, generic))
        template, params = reading
        for c in template.nonzero:
            read = c.subs(params)
            if read.is_constant() and read:
                continue
            strata = [({}, leaf)] if not read else [
                b for b in zero_branches(relation_factors(read), leaf) if b is not None]
            for mapping, stratum in strata:
                if not excluded([[e.subs(mapping) for e in row] for row in rows]):
                    others = _product(d.subs(params).subs(mapping)
                                      for d in template.nonzero if d is not c)
                    return count, (leaf, template, c, _member_at(stratum, others, generic))
    return count, None


# -- the solve --------------------------------------------------------------------


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
    """A leaf of the solve: a stratum of x-space where T(a) x = y is
    solvable iff every constraint E(x, y) vanishes and no N(x, y) in
    nonzero does.  A pivot (u, Equation({u: c}, v)) solves c * u = v; an
    unknown neither pivoted nor a root is free (1 if torus, else 0).
    """

    nonzero: tuple[Poly, ...] = ()
    roots: tuple[Root, ...] = ()


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


def _substitute(p: Poly, u: str, value: Poly, c: Poly) -> Poly:
    """c^k p at u = value / c, k the degree of p in u."""
    parts = p.by_degree(u)
    return sum((part * value ** k * c ** (max(parts) - k) for k, part in parts.items()),
               Poly.zero())


def _reduce(p: Poly, roots) -> Poly:
    """p times powers of the coeffs, with each unknown^power replaced by
    value until p has degree below power in every root unknown."""
    for r in roots:
        while (parts := p.by_degree(r.unknown)) and max(parts) >= r.power:
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
    """The recorded solve of T(a) x = y for a template T.

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
        parameter as (num, den), with the factors of allowed that num and
        den share cancelled, and every row of T(q) x - y must reduce to 0
        modulo the root relations.
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
            for f in allowed:   # cancel the factors num and den share
                while not den.is_constant() and (d := den.div_exact(f)) is not None and (
                        n := num.div_exact(f)) is not None:
                    num, den = n, d
            values[u] = ((num * quotient(1, den.constant_value()), _ONE)
                         if den.is_constant() else (num, den))
        for e in self.equations:
            if _reduce(_fraction(e.subs(xy), values)[0], roots):
                return f"T(q) x = y fails in the row {e}", None, roots
        return None, {p: _fraction(self.torus.get(p, Poly.var(p)), values)
                      for p in self.template.params}, roots

    def refuting_point(self, rows) -> tuple | None:
        """A point x where no T(a) x equals B x, B given by its grid rows,
        or None when there is none.

        Deterministic: the leaves are walked sorted by signature.  The
        first leaf where a condition E(x, B x) is not zero gives
        grid_point(leaf, E), where E and the leaf's inequations are
        nonzero; the first where an inequation N(x, B x) is identically
        zero gives grid_point(leaf).  None means that B meets every
        condition on every leaf and makes no inequation vanish
        identically: then B is a member of each pattern whose reverse
        proof passes (reading_failure), so no point is missed.
        """
        for leaf in sorted(self.leaves, key=StratumCase.signature):
            xy = member_image(leaf, rows)
            if broken := next((r for e in leaf.constraints if (r := e.subs(xy))), None):
                point = grid_point(leaf, broken)
            elif any(not q.subs(xy) for q in leaf.nonzero):
                point = grid_point(leaf)
            else:
                continue
            return tuple(point[x] for x in _names("x", self.template.dim))
        return None


def member_image(leaf: StratumCase, rows) -> dict:
    """x under the leaf's substitution, and y = B x for the grid rows of B."""
    xs, ys = _names("x", len(rows)), _names("y", len(rows))
    at = {v: Poly.var(v).subs(leaf.substitution) for v in xs}
    return at | {y: sum((e * at[v] for e, v in zip(row, xs)), Poly.zero())
                 for y, row in zip(ys, rows)}


def member_failure(solve: OrbitSolve, leaf: OrbitLeaf, template: MatrixTemplate):
    """OrbitSolve.match on the leaf at y = B x, B a symbolic member of
    template and x the leaf's point under its substitution; the units are
    the leaf's inequations and the template's open conditions."""
    xy = member_image(leaf, template.entries)
    return solve.match(leaf, xy, (*leaf.opens(), *template.nonzero))[0]


def solve_parametric(template: MatrixTemplate) -> OrbitSolve:
    """The solve of T(a) x = y, built anew on each call.

    Each open condition, linear in the parameters, is solved for one of
    them as a torus unknown t_k; every other parameter must enter
    linearly.  A pivot is an equation c * u^m + rest with c free of
    unknowns but for a monomial in the t_k.  Its x-factors split x-space
    (zero_branches); each y-factor must divide a recorded inequation.  A
    linear pivot substitutes u = -rest / c (each equation times c^k), and
    a torus unknown's value -rest joins the inequations.  c * t^m = d with
    m > 1 records a root relation and d != 0; every equation is reduced by
    it, so a second power relation on t is Euclid on the exponents.

    Raises StratificationError when the only pivots left have a
    coefficient that does not split into degree-1 factors, naming it,
    or when the splits nest deeper than MAX_DEPTH.
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
        raise UnsupportedError(f"the template has no torus form: {exc}") from None
    xs, ys = _names("x", template.dim), _names("y", template.dim)
    equations = tuple(sum((e * Poly.var(x) for e, x in zip(row, xs)), Poly.zero())
                      - Poly.var(y) for row, y in zip(grid, ys))
    solver = _Solver(tuple(torus), (*torus, *others), xs, frozenset(ys))
    return OrbitSolve(template, sub, solver.unknowns, equations,
                      solver.explore(list(equations), OrbitLeaf(), 0))


class _Solver:
    """The steps of solve_parametric."""

    def __init__(self, torus, unknowns, xs, ys):
        self.torus, self.unknowns, self.xs, self.ys = torus, unknowns, xs, ys

    def explore(self, eqs, node: OrbitLeaf, depth: int):
        """The tree below a node: a leaf, or the next pivot's splits; depth
        counts the splits on new factors above it."""
        eqs = [e for e in (_strip(e, (*node.opens(), *map(Poly.var, self.torus)))
                           for e in eqs) if e]
        steps, unsplit = self.pivots(eqs, node)
        if not steps:
            if live := [e for e in eqs if set(e.variables()) & set(self.unknowns)]:
                if unsplit is not None:
                    raise unsplit
                raise UnsupportedError(f"the solve leaves {live[0]} = 0 "
                                       f"unsolved on {node.name}")
            return replace(node, constraints=tuple(dict.fromkeys(eqs)), free_vars=tuple(
                v for v in self.xs if v not in node.substitution))
        (_, _, m, i, u), new, c, rest = min(steps, key=lambda s: s[0])
        if new and depth >= MAX_DEPTH:
            raise StratificationError(f"case split depth exceeded {MAX_DEPTH}")
        depth += bool(new)
        # the zero branches first: their equations are smaller than the
        # generic branch's, so a pivot that does not split is met sooner
        children = tuple(
            None if branch is None else self.explore(
                [e.subs(branch[0]) for e in eqs],
                replace(branch[1], nonzero=tuple(q.subs(branch[0]) for q in node.nonzero),
                        roots=tuple(r.subs(branch[0]) for r in node.roots)), depth)
            for branch in zero_branches(new, node))
        generic = self.explore(*self.apply(
            eqs, replace(node, inequations=node.inequations + new), i, u, m, c, rest), depth)
        return Split(new, None, (*children, generic)) if new else generic

    def pivots(self, eqs, node):
        """(steps, unsplit): (key, new x-factors, c, rest) for each pivot
        c * u^m + rest, and the StratificationError of the last coefficient
        that does not split into degree-1 factors, or None.  The key
        prefers the fewest new factors, torus unknowns, low powers, then
        the earliest equation."""
        opens, steps, unsplit = node.opens(), [], None
        for i, e in enumerate(eqs):
            for u in (u for u in self.unknowns if e.degree_in(u)):
                m = e.degree_in(u)
                c = e.by_degree(u)[m]
                rest = e - c * Poly.var(u) ** m
                (mono, cxy), *more = c.group_by(self.unknowns).items()
                if more or any(v not in self.torus for v, _ in mono) or (
                        m > 1 and (mono or u not in self.torus)) or (
                        u in self.torus and set(rest.variables()) & set(self.unknowns)):
                    continue
                try:
                    factors = dict.fromkeys(linear_factors(cxy)[1])
                except StratificationError as exc:
                    unsplit = exc
                    continue
                ys = [f for f in factors if self.ys.intersection(f.variables())]
                if all(any(q.div_exact(f) is not None for q in node.nonzero) for f in ys):
                    new = tuple(f for f in factors if f not in ys and f not in opens)
                    steps.append(((len(new), u not in self.torus, m, i, u), new, c, rest))
        return steps, unsplit

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
