"""Exponential bridge between local derivations and local automorphisms.

exp maps the local derivations into the local automorphisms, and
bridge_check(algebra, "exp") proves it for the whole LocDer template T
at once.  T is triangular in a suitable basis order, so exp(T) is a sum
over paths (symbolic_exp); every relation of the LocAut pattern is then
read off exp(T) as a polynomial identity.  bridge_check(algebra, "log")
proves from the same reading that, over R, exp is a bijection from T
onto the members of the + template with positive diagonal.

The series lambda21, lambda31, mu31, lambda32, lambda34 are the entry
coefficients of exp(nabla) for nabla in the local-derivation pattern of
pi3.  Their coefficients come from the chains of CHAINS, the recurrences
that the matrix powers of the pattern satisfy:

    c_n = 1 + 2 c_{n-1}              (2,1)-chain     -> lambda21
    k_n = 1 + 3 k_{n-1}              (3,1)-chain     -> lambda31, lambda34
    d_n = 2^{n-1} + 3 d_{n-1}        (3,2)-chain     -> lambda32
    m_n = (2^{n-1} - 1) + 3 m_{n-1}  mixed (3,1)     -> mu31

Each series also has a closed form, a sum of exponentials over a power
of x ((e^{2x} - e^x)/x and friends), whose weights sit in the same
table.  series_failure proves series and closed form equal at every
order.  closed_form evaluates the same functions in floats, written
through phi(z) = (e^z - 1)/z = e^{z/2} sinh(z/2)/(z/2) so that nothing
cancels near 0; it is the float oracle for eval_series, which
structured_log_pi3 sums.

Numeric kernels: matrix_exp is scaling-and-squaring with a truncated
Taylor sum; matrix_log is inverse scaling-and-squaring (Denman-Beavers
square roots, then a Mercator series) with an explicit spectrum check.
structured_log_pi3 instead recovers the logarithm of a pattern member
coordinate-by-coordinate through the series values, in the order
x1, x4, x5, x6, x2, x7, x3.  The kernels import numpy on first call, so
the exact engines and `import locsym` never load it.
"""
from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from graphlib import CycleError, TopologicalSorter
from math import factorial, lcm
from typing import NamedTuple

from .algebra import Algebra, builtin
from .errors import InputError, NumericsError, UnsupportedError
from .linalg import Matrix, nullspace
from .local_automorphisms import locaut_pattern, pattern_residual
from .poly import Poly
from .rationals import quotient
from .templates import LOCAL_DERIVATION_FORM_PI3, MatrixTemplate, closed_forms

SERIES_NAMES = ("lambda21", "lambda31", "mu31", "lambda32", "lambda34")

DEFAULT_ORDER = 30


class Chain(NamedTuple):
    """One series: its coefficient chain and its exponential closed form.

    The chain is c_1 = start, c_n = gain(n) + mult * c_{n-1} with
    gain(n) = g1 + g2 2^{n-1} + g3 3^{n-1}, and the series' coefficient of
    x^t is c_{t+shift} / (t+shift)!.  The closed form is
    (w1 e^x + w2 e^{2x} + w3 e^{3x}) / (scale x^shift).
    """

    start: int
    mult: int
    gain: tuple[int, int, int]
    shift: int
    weights: tuple[int, int, int]
    scale: int


_LAMBDA31 = Chain(start=1, mult=3, gain=(1, 0, 0), shift=1,
                  weights=(-1, 0, 1), scale=2)

CHAINS = {
    "lambda21": Chain(start=1, mult=2, gain=(1, 0, 0), shift=1,
                      weights=(-1, 1, 0), scale=1),
    "lambda31": _LAMBDA31,
    "mu31": Chain(start=0, mult=3, gain=(-1, 1, 0), shift=2,
                  weights=(1, -2, 1), scale=2),
    "lambda32": Chain(start=1, mult=3, gain=(0, 1, 0), shift=1,
                      weights=(0, -1, 1), scale=1),
    "lambda34": _LAMBDA31,
}


def _chain(name: str) -> Chain:
    try:
        return CHAINS[name]
    except KeyError:
        raise InputError(f"unknown series {name!r}") from None


def series_coefficients(name: str, count: int) -> tuple[Fraction, ...]:
    """First `count` Taylor coefficients (exact) of the named series."""
    chain = _chain(name)
    if count < 1:
        raise InputError("series truncation order must be at least 1")
    g1, g2, g3 = chain.gain
    values = [chain.start]
    for n in range(2, count + chain.shift):
        gain = g1 + g2 * 2 ** (n - 1) + g3 * 3 ** (n - 1)
        values.append(gain + chain.mult * values[-1])
    return tuple(
        Fraction(values[t + chain.shift - 1], factorial(t + chain.shift))
        for t in range(count)
    )


def series_failure(name: str) -> str | None:
    """Why the series and its closed form differ at some order, or None.

    The closed form's numerator sum_k w_k e^{kx} has x^n-coefficient
    N(n)/n! with N(n) = w1 + w2 2^n + w3 3^n.  If N(n) = 0 for n < shift,
    the closed form is analytic at 0 with x^t-coefficient
    N(t+shift) / (scale (t+shift)!), so it equals the series at every
    order iff N(n) = scale c_n for all n >= 1.  That holds by induction
    once N(1) = scale * start and N(n) - mult N(n-1) = scale gain(n),
    checked as an identity in the atoms p2 = 2^{n-1}, p3 = 3^{n-1}.
    """
    chain = _chain(name)
    w1, w2, w3 = chain.weights
    if any(w1 + w2 * 2 ** n + w3 * 3 ** n for n in range(chain.shift)):
        return "its closed form has a pole at 0"
    if w1 + 2 * w2 + 3 * w3 != chain.scale * chain.start:
        return f"its closed form misses the chain's start value {chain.start}"
    p2, p3 = Poly.var("p2"), Poly.var("p3")
    numerator = w1 + w2 * 2 * p2 + w3 * 3 * p3  # N(n)
    previous = w1 + w2 * p2 + w3 * p3  # N(n-1)
    g1, g2, g3 = chain.gain
    gain = g1 + g2 * p2 + g3 * p3
    defect = numerator - chain.mult * previous - chain.scale * gain
    if defect:
        return f"its closed form misses the chain's recurrence by {defect}"
    return None


@cache
def _complex_coefficients(name: str, order: int) -> tuple[complex, ...]:
    """series_coefficients as complex numbers, built on first use per
    (name, order) and kept: structured_log_pi3 sums the same few tables
    at every call."""
    return tuple(complex(c) for c in series_coefficients(name, order))


def eval_series(name: str, x1: complex, order: int = DEFAULT_ORDER) -> complex:
    """Truncated series value at x1 (first `order` terms)."""
    total = 0j
    power = 1 + 0j
    for c in _complex_coefficients(name, order):
        total += c * power
        power *= complex(x1)
    return total


def _phi(z: complex) -> complex:
    """(e^z - 1)/z for z != 0, as e^{z/2} sinh(z/2)/(z/2): no cancellation."""
    half = z / 2
    return cmath.exp(half) * cmath.sinh(half) / half


# The closed forms of CHAINS, factored through phi.
_FACTORED = {
    "lambda21": lambda x: cmath.exp(x) * _phi(x),
    "lambda31": lambda x: cmath.exp(x) * _phi(2 * x),
    "mu31": lambda x: cmath.exp(x) * _phi(x) ** 2 / 2,
    "lambda32": lambda x: cmath.exp(2 * x) * _phi(x),
    "lambda34": lambda x: cmath.exp(x) * _phi(2 * x),
}


def closed_form(name: str, x1: complex) -> complex:
    """The exponential closed form in floats; the series' value at 0."""
    _chain(name)
    x = complex(x1)
    if x == 0:
        return eval_series(name, x)
    return _FACTORED[name](x)


# -- numeric matrix kernels ---------------------------------------------------


def _as_array(m):
    import numpy as np

    if isinstance(m, Matrix):
        rows = [[complex(v) for v in row] for row in m.rows]
    else:
        rows = [[complex(v) for v in row] for row in m]
    a = np.array(rows, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("numeric kernels need a square matrix")
    return a


def _inf_norm(a) -> float:
    return float(abs(a).sum(axis=1).max()) if a.size else 0.0


def matrix_exp(m) -> list[list[complex]]:
    """exp(m) by scaling-and-squaring with a truncated Taylor sum."""
    import numpy as np

    a = _as_array(m)
    norm = _inf_norm(a)
    if norm > 2.0 ** 40:
        raise NumericsError(
            "matrix norm too large for the scaling-and-squaring budget"
        )
    squarings = 0
    while norm > 0.5:
        norm /= 2.0
        squarings += 1
    scaled = a / (2 ** squarings)
    n = a.shape[0]
    result = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 40):
        term = term @ scaled / k
        result = result + term
        if _inf_norm(term) < 1e-18:
            break
    for _ in range(squarings):
        result = result @ result
    return result.tolist()


def _spectrum_obstruction(a) -> str | None:
    import numpy as np

    eigenvalues = np.linalg.eigvals(a)
    for ev in eigenvalues:
        if abs(ev) < 1e-12:
            return f"eigenvalue {ev:.3e} is numerically zero"
        if ev.real < 0 and abs(ev.imag) <= 1e-12 * abs(ev.real):
            return f"eigenvalue {ev:.6g} lies on the negative real axis"
    return None


def matrix_log(m) -> list[list[complex]]:
    """Principal logarithm by inverse scaling-and-squaring.

    Repeated Denman-Beavers square roots bring the matrix within
    Mercator range, then log(I + X) is summed and scaled back.
    """
    import numpy as np

    a = _as_array(m)
    obstruction = _spectrum_obstruction(a)
    if obstruction is not None:
        raise NumericsError(
            f"principal logarithm undefined: {obstruction}"
        )
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    roots = 0
    current = a
    while _inf_norm(current - eye) > 0.25:
        if roots > 60:
            raise NumericsError("square-root iteration failed to converge")
        # Denman-Beavers coupled iteration for the principal square root
        y, z = current, eye
        for _ in range(60):
            y_next = (y + np.linalg.inv(z)) / 2
            z_next = (z + np.linalg.inv(y)) / 2
            y, z = y_next, z_next
            if _inf_norm(y @ y - current) < 1e-14 * max(
                1.0, _inf_norm(current)
            ):
                break
        current = y
        roots += 1
    x = current - eye
    result = np.zeros_like(a)
    power = eye
    for k in range(1, 60):
        power = power @ x
        result = result + ((-1) ** (k + 1) / k) * power
        if _inf_norm(power) < 1e-18:
            break
    return (result * (2 ** roots)).tolist()


# -- structured recovery for the pi3 pattern ----------------------------------


def structured_log_pi3(m, tol: float = 1e-9) -> list[list[complex]]:
    """Coordinate recovery of log B for B in the plus-branch pattern.

    Solves the entry system of exp(nabla) = B in the order x1, x4, x5,
    x6, x2, x7, x3, dividing by the numerically evaluated series values.
    """
    rows = [[complex(v) for v in row] for row in _as_array(m).tolist()]
    check = pattern_residual(builtin("pi3"), rows)
    if check.residual > tol or check.branch != "+":
        raise InputError(
            "structured recovery needs a member of the plus branch of pi3's "
            f"pattern (residual {check.residual:.3e}, branch {check.branch})"
        )
    b11 = rows[0][0]
    if abs(b11) < 1e-12 or (
        b11.real < 0 and abs(b11.imag) <= 1e-12 * abs(b11.real)
    ):
        raise NumericsError(
            "structured recovery needs b11 off the negative real axis"
        )
    x1 = cmath.log(b11)
    values = {}
    for name in ("lambda21", "lambda31", "mu31", "lambda32", "lambda34"):
        value = eval_series(name, x1)
        if abs(value) < 1e-12:
            raise NumericsError(
                f"singular recovery: series {name} vanishes at {x1:.6g}"
            )
        values[name] = value
    x4 = rows[1][0] / values["lambda21"]
    x5 = rows[2][1] / values["lambda32"]
    x6 = (rows[2][0] - values["mu31"] * x4 * x5) / values["lambda31"]
    x2 = rows[2][3] / values["lambda34"]
    x7 = rows[4][0] / values["lambda21"]
    x3 = rows[4][3] / values["lambda21"]
    return LOCAL_DERIVATION_FORM_PI3.instantiate_numeric(
        {"b11": x1, "b21": x4, "b31": x6, "b32": x5, "b34": x2,
         "b51": x7, "b54": x3}
    )


# -- the exact exponential of a LocDer template -------------------------------


class _Ratio:
    """num / den, den a product of primitive linear forms {form: power}.

    num is a Poly in the template's parameters and the atoms E_v = e^v;
    den holds differences of diagonal entries only, so no atom is ever
    divided by.  Denominators stay factored: a sum takes the least common
    multiple of its terms' factor powers.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: dict[Poly, int] | None = None):
        self.num = num
        self.den = den or {}

    def _over(self, den: dict[Poly, int]) -> Poly:
        """num rewritten over den, a multiple of self.den."""
        num = self.num
        for form, power in den.items():
            if power > self.den.get(form, 0):
                num = num * form ** (power - self.den.get(form, 0))
        return num

    def __add__(self, other: "_Ratio") -> "_Ratio":
        den = dict(self.den)
        for form, power in other.den.items():
            den[form] = max(power, den.get(form, 0))
        return _Ratio(self._over(den) + other._over(den), den)

    def __neg__(self) -> "_Ratio":
        return _Ratio(-self.num, self.den)

    def __sub__(self, other: "_Ratio") -> "_Ratio":
        return self + -other

    def __mul__(self, other: "_Ratio") -> "_Ratio":
        den = dict(self.den)
        for form, power in other.den.items():
            den[form] = den.get(form, 0) + power
        return _Ratio(self.num * other.num, den)

    def divided_by(self, form: Poly) -> "_Ratio":
        """self / form for a nonzero polynomial of degree at most 1."""
        content, primitive = form.content_primitive()
        num = self.num * quotient(1, content)
        if primitive.is_constant():
            return _Ratio(num, self.den)
        return _Ratio(num, {**self.den, primitive: self.den.get(primitive, 0) + 1})

    def whole(self) -> Poly | None:
        """num / den as a polynomial, or None when den does not divide num."""
        den = Poly.const(1)
        for form, power in self.den.items():
            den = den * form ** power
        return self.num.div_exact(den)

    def __str__(self) -> str:
        if (whole := self.whole()) is not None:
            return str(whole)
        den = " * ".join(
            f"({f})^{k}" if k > 1 else f"({f})" for f, k in self.den.items()
        )
        return f"({self.num}) / {den}"


def _at(entry: Poly, params: dict[str, _Ratio]) -> _Ratio:
    """A template entry evaluated at _Ratio parameters (MatrixTemplate.read)."""
    total = _Ratio(Poly.zero())
    for mono, coeff in entry.terms.items():
        term = _Ratio(Poly.const(coeff))
        for var, exp in mono:
            for _ in range(exp):
                term = term * params[var]
        total = total + term
    return total


class SymbolicExp(NamedTuple):
    """exp(T) of a template T, exactly.

    order is a basis order (0-based) in which T is lower-triangular;
    atoms maps each atom name E_v to its parameter v; rows holds exp(T)
    in the original basis, each entry a _Ratio.
    """

    order: tuple[int, ...]
    atoms: dict[str, str]
    rows: tuple[tuple[_Ratio, ...], ...]


def symbolic_exp(template: MatrixTemplate) -> SymbolicExp:
    """exp(T) for a linear template T, as a sum over paths.

    In a basis order where T = S + N is lower-triangular (S diagonal,
    N strictly lower), exp(T)_ij is the sum over paths i > k_1 > ... > j
    of the product of N's entries along the path times the divided
    difference of exp at the path's diagonal entries.  A divided
    difference of exp at linear forms d_0..d_m lies in Q(b)[E]: it is
    e^d / m! when all the d_k coincide, and otherwise
    (exp[d_1..d_m] - exp[d_0..d_{m-1}]) / (d_m - d_0).  Every diagonal
    entry must be a nonnegative integer combination of parameters v, so
    that e^{d} is a monomial in the atoms E_v = e^v.
    """
    n, t = template.dim, template.entries
    below = {i: {j for j in range(n) if j != i and t[i][j]} for i in range(n)}
    try:
        order = tuple(TopologicalSorter(below).static_order())
    except CycleError as exc:
        cycle = exc.args[1]  # each node is below the next: t[next][node] != 0
        entries = ", ".join(f"({i + 1},{j + 1}) = {t[i][j]}"
                            for j, i in zip(cycle, cycle[1:]))
        raise UnsupportedError(
            "the template is lower-triangular in no order of the basis: "
            f"the entries {entries} close a cycle"
        ) from None
    diagonal = [t[i][i] for i in range(n)]
    names = sorted({v for d in diagonal for v in d.variables()})
    atoms = {f"E_{v}": v for v in names}
    points = list(dict.fromkeys(diagonal))  # the distinct diagonal entries
    powers = [_exp_monomial(d, names, diagonal.index(d)) for d in points]
    slot = [points.index(d) for d in diagonal]
    memo: dict[tuple[int, ...], _Ratio] = {}

    def divided(key: tuple[int, ...]) -> _Ratio:
        if key not in memo:
            first, last = key[0], key[-1]
            if first == last:
                scale = quotient(1, factorial(len(key) - 1))
                memo[key] = _Ratio(powers[first] * scale)
            else:
                memo[key] = (divided(key[1:]) - divided(key[:-1])).divided_by(
                    points[last] - points[first]
                )
        return memo[key]

    def paths(i: int, j: int):
        for k in below[i]:
            if k == j:
                yield (i, j)
            else:
                yield from ((i, *rest) for rest in paths(k, j))

    def entry(i: int, j: int) -> _Ratio:
        if i == j:
            return _Ratio(powers[slot[i]])
        total = _Ratio(Poly.zero())
        for path in paths(i, j):
            weight = Poly.const(1)
            for a, b in zip(path, path[1:]):
                weight = weight * t[a][b]
            total = total + _Ratio(weight) * divided(tuple(sorted(slot[k] for k in path)))
        return total

    rows = tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))
    return SymbolicExp(order=order, atoms=atoms, rows=rows)


def _exp_monomial(d: Poly, names: list[str], i: int) -> Poly:
    """e^d as a monomial in the atoms E_v, for d = sum of k_v v, k_v >= 0,
    the diagonal entry (i, i) counted from 0."""
    try:
        coeffs, rest = d.linear_decompose(names)
    except ValueError:
        coeffs, rest = {}, d
    powers = {f"E_{v}": c.constant_value() for v, c in coeffs.items() if c}
    if rest or any(type(k) is not int or k < 0 for k in powers.values()):
        raise UnsupportedError(
            f"the diagonal entry ({i + 1},{i + 1}) = {d} is not a nonnegative "
            "integer combination of parameters"
        )
    return Poly({tuple(sorted(powers.items())): 1})


def _unit_monomial(value: _Ratio, atoms) -> Poly | None:
    """value as c * (monomial in the atoms), c != 0, or None."""
    whole = value.whole()
    if whole is None or len(whole.terms) != 1:
        return None
    (mono,) = whole.terms
    return whole if all(v in atoms for v, _ in mono) else None


# -- the bridge ----------------------------------------------------------------

# Largest float gap that counts as zero when a bridge_sample replays.
EXP_PATTERN_TOL = 1e-9


def exp_leaves_pattern(algebra: Algebra, nabla) -> bool:
    """Whether the float exp(nabla) misses the identity (+) branch of the
    pattern: the test a bridge_sample of the exp direction replays."""
    check = pattern_residual(algebra, matrix_exp(nabla))
    return check.residual > EXP_PATTERN_TOL or check.branch == "-"


def log_leaves_template(algebra: Algebra, member) -> bool:
    """Whether member is on the + branch with a positive real diagonal and
    its float logarithm misses the LocDer template: the test a
    bridge_sample of the log direction replays."""
    check = pattern_residual(algebra, member)
    diagonal = [complex(row[i]) for i, row in enumerate(member)]
    if check.residual > EXP_PATTERN_TOL or check.branch == "-" or any(
            v.imag or v.real <= 0 for v in diagonal):
        return False
    template = closed_forms(algebra).local_derivation
    _, deviations = template.read(matrix_log(member), Poly.evaluate_numeric)
    return max(map(abs, deviations.values())) > EXP_PATTERN_TOL


@dataclass(frozen=True)
class BridgeReport:
    ok: bool
    algebra: str
    direction: str
    detail: str
    # on failure: the sample (nabla or + member) that broke the check
    sample: tuple[tuple[complex, ...], ...] | None = None


def _sample(template: MatrixTemplate, leaves):
    """The first of 100 seeded float members of the template that `leaves`
    flags, or None."""
    rng = random.Random(0)
    for _ in range(100):
        m = template.instantiate_numeric(
            {p: rng.uniform(-1.0, 1.0) for p in template.params}
        )
        if leaves(m):
            return tuple(tuple(complex(v) for v in row) for row in m)
    return None


def exp_failure(algebra: Algebra) -> tuple[str | None, str, SymbolicExp | None]:
    """(why exp(LocDer) leaves the LocAut pattern, or None; the proof;
    exp(T) when proved, the reading log_failure starts from).

    exp(T) of the LocDer template T (symbolic_exp) is read in the + branch
    template: every deviation must be 0 and every open condition a unit
    times a monomial in the atoms.  Each other branch must have a
    deviation that is a unit times a monomial, so exp(T) is in it at no
    parameter point.  A template that symbolic_exp refuses fails, with the
    refusal naming the entry, since nothing is then proved.

    Soundness.  The checks are identities in Q(b)[E] with the atoms E
    independent, so they hold when E_v = e^v is substituted; a monomial
    in the atoms never vanishes there.  Where a denominator (a difference
    of diagonal entries) vanishes, exp(T) is still continuous in b, so
    the identities hold there too, by continuity.
    """
    pattern = locaut_pattern(algebra)
    try:
        exp = symbolic_exp(closed_forms(algebra).local_derivation)
    except UnsupportedError as exc:
        return f"exp(T) of the LocDer template is not written exactly: {exc}", "", None
    first, *others = pattern.templates
    params, relations = first.read(exp.rows, _at)
    for (i, j), deviation in relations.items():
        if deviation.num:
            return (f"exp(T) leaves the + template at ({i + 1},{j + 1}): "
                    f"its deviation is {deviation}"), "", None
    for condition in first.nonzero:
        if _unit_monomial(_at(condition, params), exp.atoms) is None:
            return (f"the open condition {condition} of the + template is no "
                    "unit times a monomial in the atoms on exp(T)"), "", None
    excluded = []
    for branch, template in zip(pattern.branches[1:], others):
        _, deviations = template.read(exp.rows, _at)
        witness = next((
            (pos, m) for pos, d in deviations.items()
            if (m := _unit_monomial(d, exp.atoms)) is not None), None)
        if witness is None:
            return (f"exp(T) is not excluded from the {branch} template: none of "
                    "its deviations is a unit times a monomial in the atoms"), "", None
        (i, j), monomial = witness
        excluded.append(f"the {branch} branch is excluded, its ({i + 1},{j + 1}) "
                        f"deviation being {monomial}")
    order = ", ".join(f"e{k + 1}" for k in exp.order)
    atoms = ", ".join(f"{a} = e^{v}" for a, v in exp.atoms.items())
    proof = (f"the LocDer template T is lower-triangular in the order {order}; "
             f"exp(T) reads in the + template with no deviation at its "
             f"{len(relations)} relation entries, and every open condition "
             f"({', '.join(map(str, first.nonzero))}) is a unit times a "
             f"monomial in {atoms}")
    return None, "; ".join([proof, *excluded]), exp


def log_failure(algebra: Algebra, reading=None) -> tuple[str | None, str]:
    """(why exp is no bijection over R from the real LocDer template T onto
    the real members of the + template P with positive diagonal, or None;
    the proof).  reading is exp_failure(algebra), computed if not given.

    exp(T(v)) = P(p(v)), p(v) read off exp(T) (exp_failure).  Diagonal:
    T's is d = M w, M an injective integer matrix, so w -> e^{Mw} maps R^r
    one to one onto the positive y with y^lambda = 1 for the lambda of M's
    left kernel.  P's diagonal D satisfies these identically and gives its
    parameters one by one, each from an entry linear in it with a constant
    coefficient.  Off it: T's other parameters u sit where P reads its
    others, and exp(T) reads u exp[d_i, d_j] + R there, the divided
    difference positive at real nodes (mean value theorem), R acyclic in
    the u.  So w, then the u in order, are unique and reach every real
    value.  Over C the claim fails: e^d = e^{d + 2 pi i}.
    """
    failure, _, exp = reading or exp_failure(algebra)
    if failure is not None:
        return f"the exp direction is not proved: {failure}", ""
    forms = closed_forms(algebra)
    t, plus = forms.local_derivation, forms.local_automorphism[0]
    params, _ = plus.read(exp.rows, _at)
    names = list(exp.atoms.values())
    d = [t.entries[i][i] for i in range(t.dim)]
    diagonal = [plus.entries[i][i] for i in range(t.dim)]
    m = [[e.linear_decompose(names)[0][v].constant_value() for v in names] for e in d]
    if nullspace(m):
        return f"T's diagonal does not determine {', '.join(names)}", ""
    relations = []
    for kernel in nullspace(list(zip(*m))):
        scale = lcm(*(k.denominator for k in kernel))
        sides = [[Poly.const(1), []], [Poly.const(1), []]]  # D^lambda = 1 as two sides
        for i, k in enumerate(int(k * scale) for k in kernel):
            if k:
                sides[k < 0][0] *= diagonal[i] ** abs(k)
                sides[k < 0][1].append(f"D{i + 1}" + (f"^{abs(k)}" if abs(k) > 1 else ""))
        relations.append(" = ".join(" * ".join(side) or "1" for _, side in sides))
        if sides[0][0] != sides[1][0]:
            return f"the + diagonal misses the relation {relations[-1]} of e^d", ""
    unread, read = sorted({v for e in diagonal for v in e.variables()}), []
    while unread:
        q = next((q for q in unread for e in diagonal
                  if set(e.variables()) <= {*read, q} and e.degree_in(q) == 1
                  and e.coeff_split(q)[0].is_constant()), None)
        if q is None:
            return (f"the + template's diagonal parameters {', '.join(unread)} "
                    "are not read off its diagonal"), ""
        unread.remove(q)
        read.append(q)
    at_t = {t.free_coordinates[u]: u for u in t.params if u not in names}
    at_plus = {plus.free_coordinates[q]: q for q in plus.params if q not in read}
    for i, j in sorted(at_t.keys() ^ at_plus.keys()):
        owner, name = ("the + template", at_plus[i, j]) if (i, j) in at_plus else ("T", at_t[i, j])
        return (f"{owner}'s parameter {name} at ({i + 1},{j + 1}) is free in "
                "only one of T and the + template"), ""
    depends = {}
    for (i, j), u in sorted(at_t.items()):
        value = params[at_plus[i, j]]
        try:
            coefficients, rest = value.num.linear_decompose([u])
        except ValueError:
            return f"exp(T) at ({i + 1},{j + 1}) is not linear in {u}", ""
        coefficient = _Ratio(coefficients[u], value.den)
        ei, ej = (_Ratio(_exp_monomial(d[k], names, k)) for k in (i, j))
        if (coefficient - (ei if d[i] == d[j] else (ei - ej).divided_by(d[i] - d[j]))).num:
            return (f"the coefficient of {u} in exp(T) at ({i + 1},{j + 1}) is "
                    f"{coefficient}, not exp[d{i + 1}, d{j + 1}]"), ""
        depends[u] = sorted(set(rest.variables()) & set(at_t.values()))
    try:
        order = list(TopologicalSorter(depends).static_order())
    except CycleError as exc:
        return f"the entries of {', '.join(exc.args[1])} depend on each other", ""
    image = (f"the positive diagonals with {', '.join(relations)}, which the + "
             "diagonal satisfies identically" if relations else "every positive diagonal")
    return None, (
        f"over R, exp is a bijection from the real LocDer template T onto the "
        f"real members of the + template with positive diagonal: T's diagonal d "
        f"is an injective integer map of {', '.join(names)}, so e^d ranges over "
        f"{image}; the + template reads {', '.join(read)} off its diagonal; "
        f"exp(T)'s entries at {', '.join(order)} are, in this order, each "
        "parameter times exp[d_i, d_j] > 0 plus terms in the earlier ones")


def bridge_check(algebra: Algebra, direction: str, reading=None) -> BridgeReport:
    """One direction of the bridge, proved by exp_failure or log_failure
    (reading as in log_failure).

    A failure carries a float sample from a fixed search of the LocDer
    template (exp_leaves_pattern) or of the + template
    (log_leaves_template) when one is found; the verdict never depends
    on that search.
    """
    forms = closed_forms(algebra)
    if direction == "exp":
        failure, proof, _ = reading or exp_failure(algebra)
        template, leaves = forms.local_derivation, exp_leaves_pattern
    elif direction == "log":
        failure, proof = log_failure(algebra, reading)
        template, leaves = forms.local_automorphism[0], log_leaves_template
    else:
        raise InputError(f"unknown bridge direction {direction!r}")
    if failure is None:
        return BridgeReport(ok=True, algebra=algebra.name, direction=direction,
                            detail=proof)
    return BridgeReport(
        ok=False, algebra=algebra.name, direction=direction, detail=failure,
        sample=_sample(template, lambda m: leaves(algebra, m)),
    )
