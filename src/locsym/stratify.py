"""Stratified elimination for parametric linear systems.

The systems handled here are linear in the unknowns alpha, with
coefficients that are polynomials in probe coordinates nu and right-hand
sides that are linear in output symbols b:

    sum_u  c_{e,u}(nu) * alpha_u  =  rhs_e(nu, b)      for each equation e.

The question answered is: for which b is the system solvable for EVERY
nu?  Gaussian elimination in alpha works, except that pivot coefficients
are polynomials in nu which may vanish on subvarieties, so every pivot
splits the nu-space into strata.  Each pivot coefficient is factored
into degree-1 factors; a vanishing factor is eliminated by substituting
the solved variable, a nonvanishing factor joins the stratum's
inequations.  At a leaf no unknown has a nonzero coefficient left, so
each surviving equation demands that its right-hand side vanish
identically on the stratum; reading coefficients off nu-monomials turns
that into linear constraints on b.  After substituting the stratum's
linear equalities the remaining free nu coordinates range over a full
affine space minus finitely many hypersurfaces, so identical vanishing
of a polynomial on the stratum is equivalent to all its coefficients
vanishing, which is what makes the leaf constraints exact.

The splits are recorded as a tree (CaseTree.root), and coverage_failure
proves from that record that the leaves partition the nu-space, so the
union of all leaf constraints is necessary and sufficient for universal
solvability.  The splitter, zero_branches, also splits the automorphism
equations (automorphisms.verify_family).  Sufficiency is
proved per leaf by certificate_failure, which back-substitutes the
leaf's recorded pivots and checks the original equations as polynomial
identities, sharing nothing with the elimination but Poly.  A b that
fails the certificate gets a point of the leaf where it is not solvable
from leaf_refutation, off a fixed grid, so nothing is sampled.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .errors import InternalCheckError, StratificationError, UnsupportedError
from .linalg import Matrix, Subspace, nullspace
from .poly import Poly, linear_factors, solve_linear, unit_times_powers

MAX_DEPTH = 12


@dataclass(frozen=True)
class Equation:
    """One parametric equation: sum of coeffs[u]*u equals rhs."""

    coeffs: Mapping[str, Poly]
    rhs: Poly

    def subs(self, mapping) -> "Equation":
        return Equation(
            coeffs={u: c.subs(mapping) for u, c in self.coeffs.items()},
            rhs=self.rhs.subs(mapping),
        )

    def eliminate(self, unknown: str, pivot: "Equation") -> "Equation":
        """p * self - c * pivot without the unknown, p and c its coefficients
        in pivot and self; self without the unknown when c is 0."""
        scale, other = pivot.coeffs[unknown], self.coeffs[unknown]
        if other.is_zero():
            return Equation({u: c for u, c in self.coeffs.items() if u != unknown},
                            self.rhs)
        return Equation(
            coeffs={u: scale * c - other * pivot.coeffs[u]
                    for u, c in self.coeffs.items() if u != unknown},
            rhs=scale * self.rhs - other * pivot.rhs,
        )


@dataclass(frozen=True)
class ParametricSystem:
    unknowns: tuple[str, ...]
    nu_vars: tuple[str, ...]
    rhs_symbols: tuple[str, ...]
    equations: tuple[Equation, ...]

    def __post_init__(self):
        nu = set(self.nu_vars)
        ok_rhs = nu | set(self.rhs_symbols)
        for eq in self.equations:
            for u, c in eq.coeffs.items():
                if u not in self.unknowns:
                    raise UnsupportedError(f"coefficient for undeclared unknown {u}")
                if not set(c.variables()) <= nu:
                    raise UnsupportedError(
                        f"coefficient {c} is not a polynomial in the probe variables"
                    )
                if c.total_degree() > 3:
                    raise UnsupportedError("coefficient degree above the supported bound")
            if not set(eq.rhs.variables()) <= ok_rhs:
                raise UnsupportedError("right-hand side uses undeclared symbols")
            try:
                lin, rest = eq.rhs.linear_decompose(self.rhs_symbols)
            except ValueError:
                raise UnsupportedError("right-hand side is not linear in the outputs")
            if not rest.is_zero():
                raise UnsupportedError("right-hand side has an output-free part")


@dataclass(frozen=True)
class StratumCase:
    """One stratum: conditions, solved substitution and b-constraints.

    The splitters carry the stratum of each node down the tree.
    solve_parametric also carries the pivots, the generic-branch pivots
    on the path in path order as (unknown, equation it was solved from),
    and completes a leaf with its free variables and b-constraints.
    """

    equalities: tuple[Poly, ...] = ()
    inequations: tuple[Poly, ...] = ()
    substitution: Mapping[str, Poly] = field(default_factory=dict)
    free_vars: tuple[str, ...] = ()
    constraints: tuple[Poly, ...] = ()
    pivots: tuple[tuple[str, Equation], ...] = ()

    def contains(self, point: Mapping[str, Fraction]) -> bool:
        """Exact stratum membership of a full nu assignment."""
        if any(e.evaluate(point) != 0 for e in self.equalities):
            return False
        return all(q.evaluate(point) != 0 for q in self.inequations)

    def signature(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        return (
            tuple(str(e) for e in self.equalities),
            tuple(str(q) for q in self.inequations),
        )

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
    polynomial that must vanish on the leaves of an automorphism split, so
    children[k] is empty; a pivot split has none and eliminates its pivot
    in children[k].
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


def tree_leaves(node):
    """The leaves below a node of a recorded tree, depth first."""
    if isinstance(node, Split):
        for child in node.children:
            yield from tree_leaves(child)
    elif node is not None:
        yield node


@dataclass(frozen=True)
class CaseTree:
    system: ParametricSystem
    root: Split | StratumCase

    @cached_property
    def leaves(self) -> tuple[StratumCase, ...]:
        """The leaves of the recorded tree, sorted by signature."""
        return tuple(sorted(tree_leaves(self.root), key=StratumCase.signature))

    def solution_space(self) -> Subspace:
        """All b satisfying every leaf's constraints."""
        symbols = self.system.rhs_symbols
        seen = {str(c): c for leaf in self.leaves for c in leaf.constraints}
        rows = [_linear_form_row(seen[k], symbols) for k in sorted(seen)]
        if not rows:
            return Subspace(len(symbols), Matrix.identity(len(symbols)).rows)
        return Subspace(len(symbols), nullspace(Matrix(rows)))


def _linear_form_row(form: Poly, symbols: Sequence[str]) -> tuple[Fraction, ...]:
    lin, rest = form.linear_decompose(symbols)
    if not rest.is_zero():
        raise InternalCheckError(f"constraint {form} is not homogeneous linear")
    row = []
    for s in symbols:
        c = lin[s]
        if not c.is_constant():
            raise InternalCheckError(f"constraint {form} has nonconstant coefficients")
        row.append(c.constant_value() if not c.is_zero() else Fraction(0))
    return tuple(row)


# -- the explorer -----------------------------------------------------------


def solve_parametric(system: ParametricSystem) -> CaseTree:
    """Build the full case tree of the parametric system.

    Raises StratificationError when a pivot coefficient cannot be split
    into degree-1 factors or the split depth exceeds MAX_DEPTH.
    """
    normalized = [
        Equation(
            coeffs={u: eq.coeffs.get(u, Poly.zero()) for u in system.unknowns},
            rhs=eq.rhs,
        )
        for eq in system.equations
    ]
    return CaseTree(system, _explore(system, normalized, StratumCase(), 0))


def _explore(system, eqs, stratum, depth):
    """The tree below a stratum: a leaf, or a Split on a pivot's new factors."""
    opens = stratum.opens()
    pivot = _select_pivot(eqs, opens)
    if pivot is None:
        return _make_leaf(system, eqs, stratum)
    (_, _, eq_index, unknown), factors = pivot
    novel = tuple(dict.fromkeys(f for f in factors if f not in opens))
    if novel and depth >= MAX_DEPTH:
        raise StratificationError(f"case split depth exceeded {MAX_DEPTH}")
    depth += bool(novel)
    children = [
        None if branch is None else _explore(
            system, [eq.subs(branch[0]) for eq in eqs], branch[1], depth)
        for branch in zero_branches(novel, stratum)
    ]
    # Generic branch: every factor of the pivot coefficient is nonzero.
    pivot_eq = eqs[eq_index]
    generic = _explore(
        system, [eq.eliminate(unknown, pivot_eq)
                 for i, eq in enumerate(eqs) if i != eq_index],
        replace(stratum, inequations=stratum.inequations + novel,
                pivots=stratum.pivots + ((unknown, pivot_eq),)), depth)
    return Split(novel, None, (*children, generic)) if novel else generic


def _select_pivot(eqs, opens):
    """Pivot with the fewest new factors, then fewest factors overall."""
    candidates, failure = [], None
    for ei, eq in enumerate(eqs):
        for unknown in sorted(eq.coeffs):
            coeff = eq.coeffs[unknown]
            if coeff.is_zero():
                continue
            try:
                _, factors = linear_factors(coeff)
            except StratificationError as exc:
                failure = exc
                continue
            new = {f for f in factors if f not in opens}
            candidates.append(((len(new), len(factors), ei, unknown), factors))
    if not candidates and failure is not None:
        raise failure  # some coefficient is nonzero but none is factorable
    return min(candidates, default=None, key=lambda c: c[0])


def _make_leaf(system, eqs, stratum) -> StratumCase:
    constraints: dict[str, Poly] = {}
    for eq in eqs:
        if any(not c.is_zero() for c in eq.coeffs.values()):
            raise InternalCheckError("leaf reached with a live unknown")
        for _, coeff in eq.rhs.group_by(system.nu_vars).items():
            if coeff.is_zero():
                continue
            _, prim = coeff.content_primitive()
            constraints.setdefault(str(prim), prim)
    return replace(
        stratum, constraints=tuple(constraints[k] for k in sorted(constraints)),
        free_vars=tuple(v for v in system.nu_vars if v not in stratum.substitution))


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


# -- the per-leaf certificate ---------------------------------------------------


def _residuals(system: ParametricSystem, leaf: StratumCase):
    """den and b -> residuals: the leaf's certificate, read once.

    den is the product of the pivot coefficients under the substitution,
    and residuals(b) yields, for each original equation in turn, the
    polynomial  sum_u c_u N_u - den * rhs(b)  in the free variables (see
    certificate_failure), which is zero iff the candidate solves it.
    """
    sub = leaf.substitution
    symbols = system.rhs_symbols

    def read(eq):
        # the coefficients and the rhs's linear form in b, under s, read once
        coeffs = {u: c.subs(sub) for u, c in eq.coeffs.items()}
        form, _ = eq.rhs.subs(sub).linear_decompose(symbols)
        return coeffs, [(i, form[s]) for i, s in enumerate(symbols)
                        if not form[s].is_zero()]

    def at(form, b):
        return sum((c * b[i] for i, c in form if b[i]), Poly.zero())

    pivots = [(u, *read(eq)) for u, eq in leaf.pivots]
    equations = [read(eq) for eq in system.equations]
    den = Poly.const(1)
    for u, coeffs, _ in pivots:
        den = den * coeffs[u]

    def residuals(b):
        # after step k every numerator is over the product of p_k..p_K
        numer: dict[str, Poly] = {}
        scale = Poly.const(1)
        for u, coeffs, form in reversed(pivots):
            known = sum((coeffs[v] * n for v, n in numer.items() if v in coeffs),
                        Poly.zero())
            numer = {v: n * coeffs[u] for v, n in numer.items()}
            numer[u] = at(form, b) * scale - known
            scale = scale * coeffs[u]
        for coeffs, form in equations:
            lhs = sum((c * numer[u] for u, c in coeffs.items() if u in numer),
                      Poly.zero())
            yield lhs - den * at(form, b)

    return den, residuals


def certificate_failure(
    system: ParametricSystem, leaf: StratumCase, vectors
) -> str | None:
    """Why some b in vectors is not solvable on all of the leaf, or None.

    A proof that reads the leaf's equalities, substitution s,
    inequations and pivots, and uses nothing of the elimination but
    Poly.  Every equality must vanish under s, so s parametrizes the
    stratum by its free variables.  The pivots (u_k, P_k) only build a
    candidate solution: back-substitution from the last pivot over den,
    the product of the pivot coefficients p_k = coeff of u_k in P_k,
    gives alpha_u = N_u / den (unknowns never pivoted are 0).  For each
    b in vectors (one entry per rhs symbol) every ORIGINAL equation
    must then satisfy

        sum_u  c_u(nu) * N_u  -  den * rhs(nu, b)  ==  0

    as a polynomial identity in the free variables, and den must be a
    unit times powers of the leaf's inequations, so it is nonzero on the
    whole stratum and the identity gives a solution at every point of it.
    """
    sub = leaf.substitution
    if any(not e.subs(sub).is_zero() for e in leaf.equalities):
        return f"the substitution does not solve the equalities {leaf.signature()}"
    den, residuals = _residuals(system, leaf)
    opens = [q.subs(sub) for q in leaf.inequations]
    if not unit_times_powers(den, opens):
        return f"pivot product {den} is not a unit times powers of the inequations"
    for b in vectors:
        if any(residuals(b)):
            return f"b = {tuple(b)} is not solved on the stratum {leaf.signature()}"
    return None


def leaf_refutation(
    system: ParametricSystem, leaf: StratumCase, b
) -> dict[str, int | Fraction] | None:
    """A point of the leaf where the system has no solution at b, or None.

    None means the certificate holds for b on the leaf.  Otherwise a
    residual D of certificate_failure is a nonzero polynomial, and so is
    Q = D times the inequations under s.  With degree at most d_v in each
    free variable v, Q is nonzero somewhere on the grid prod {0..d_v}; the
    first such point, mapped through s, is the point returned.  Every
    pivot is nonzero there, so a solution there would be the
    back-substituted candidate, which D(x) != 0 says fails (grid_point).
    """
    _, residuals = _residuals(system, leaf)
    q = next((r for r in residuals(b) if r), None)
    if q is None:
        return None
    return grid_point(leaf, q)


def grid_point(leaf: StratumCase, q: Poly = Poly.const(1)) -> dict:
    """The first point of the grid prod {0..d_v} where Q, q times the
    inequations under s, is nonzero (d_v: Q's degree in the free variable
    v), mapped through s."""
    for ineq in leaf.inequations:
        q = q * ineq.subs(leaf.substitution)
    free = leaf.free_vars
    grid = itertools.product(*(range(q.degree_in(v) + 1) for v in free))
    point = next(p for p in (dict(zip(free, g)) for g in grid) if q.evaluate(p))
    return point | {v: e.evaluate(point) for v, e in leaf.substitution.items()}
