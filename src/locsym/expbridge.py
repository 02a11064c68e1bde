"""Exponential bridge between local derivations and local automorphisms.

The series lambda21, lambda31, mu31, lambda32, lambda34 are the entry
coefficients of exp(nabla) for nabla in the local-derivation pattern of
pi3; their coefficients are generated by the recurrences that the
matrix powers of the pattern satisfy:

    c_n = 1 + 2 c_{n-1}              (2,1)-chain     -> lambda21
    k_n = 1 + 3 k_{n-1}              (3,1)-chain     -> lambda31, lambda34
    d_n = 2^{n-1} + 3 d_{n-1}        (3,2)-chain     -> lambda32
    m_n = (2^{n-1} - 1) + 3 m_{n-1}  mixed (3,1)     -> mu31

Each series also has a closed form in exponentials ((e^{2x}-e^x)/x and
friends).  The closed forms are not definitions here: they are used as
oracles and are validated against the truncated series by the test
suite before anything relies on them.

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
from math import factorial

from .algebra import Algebra, builtin
from .errors import InputError, NumericsError, UnsupportedError
from .linalg import Matrix
from .local_automorphisms import pattern_residual
from .templates import LOCAL_DERIVATION_FORM_PI3, MatrixTemplate, closed_forms

SERIES_NAMES = ("lambda21", "lambda31", "mu31", "lambda32", "lambda34")

DEFAULT_ORDER = 30


def _chain(count: int, start: int, mult: int, gain) -> list[int]:
    """c_1 = start, c_n = gain(n) + mult * c_{n-1}; returns c_1..c_count."""
    values = [start]
    for n in range(2, count + 1):
        values.append(gain(n) + mult * values[-1])
    return values


def series_coefficients(name: str, count: int) -> tuple[Fraction, ...]:
    """First `count` Taylor coefficients (exact) of the named series."""
    if count < 1:
        raise InputError("series truncation order must be at least 1")
    if name == "lambda21":
        cs = _chain(count, 1, 2, lambda n: 1)
        return tuple(
            Fraction(cs[t], factorial(t + 1)) for t in range(count)
        )
    if name in ("lambda31", "lambda34"):
        ks = _chain(count, 1, 3, lambda n: 1)
        return tuple(
            Fraction(ks[t], factorial(t + 1)) for t in range(count)
        )
    if name == "lambda32":
        ds = _chain(count, 1, 3, lambda n: 2 ** (n - 1))
        return tuple(
            Fraction(ds[t], factorial(t + 1)) for t in range(count)
        )
    if name == "mu31":
        # the chain starts at n = 2; m_1 = 0
        ms = _chain(count + 1, 0, 3, lambda n: 2 ** (n - 1) - 1)
        return tuple(
            Fraction(ms[t + 1], factorial(t + 2)) for t in range(count)
        )
    raise InputError(f"unknown series {name!r}")


@cache
def _complex_coefficients(name: str, order: int) -> tuple[complex, ...]:
    """series_coefficients as complex numbers, built on first use per
    (name, order) and kept: the bridge and the series claims sum the same
    few tables at every sample."""
    return tuple(complex(c) for c in series_coefficients(name, order))


def eval_series(name: str, x1: complex, order: int = DEFAULT_ORDER) -> complex:
    """Truncated series value at x1 (first `order` terms)."""
    total = 0j
    power = 1 + 0j
    for c in _complex_coefficients(name, order):
        total += c * power
        power *= complex(x1)
    return total


def closed_form(name: str, x1: complex) -> complex:
    """Exponential closed forms; removable singularities via the series.

    Near zero the quotients cancel catastrophically, so values with
    |x1| below 1e-3 are delegated to the (exact-coefficient) series.
    """
    x = complex(x1)
    if abs(x) < 1e-3:
        return eval_series(name, x)
    if name == "lambda21":
        return (cmath.exp(2 * x) - cmath.exp(x)) / x
    if name in ("lambda31", "lambda34"):
        return (cmath.exp(3 * x) - cmath.exp(x)) / (2 * x)
    if name == "lambda32":
        return (cmath.exp(3 * x) - cmath.exp(2 * x)) / x
    if name == "mu31":
        return (
            cmath.exp(3 * x) - 2 * cmath.exp(2 * x) + cmath.exp(x)
        ) / (2 * x * x)
    raise InputError(f"unknown series {name!r}")


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
    _require_plus_branch(rows, tol)
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


def _require_plus_branch(rows, tol: float) -> None:
    """Reject inputs outside the plus branch of the pi3 pattern."""
    check = pattern_residual(builtin("pi3"), rows)
    if check.residual > tol:
        raise InputError(
            f"matrix is not in the local-automorphism pattern "
            f"(residual {check.residual:.3e})"
        )
    if check.branch != "+":
        raise InputError(
            "structured recovery is defined on the plus branch only"
        )


# -- randomized bridge verification -------------------------------------------

# Largest pattern residual of an exponential that counts as in the pattern.
EXP_PATTERN_TOL = 1e-9
# Largest relative log/exp round-trip gap that counts as recovered.
LOG_ROUND_TRIP_TOL = 1e-8


def log_round_trip_residual(member) -> float:
    """Relative max-entry gap of exp(structured_log_pi3(member)) to member."""
    back = matrix_exp(structured_log_pi3(member))
    gaps = [abs(b - v) for bs, vs in zip(back, member) for b, v in zip(bs, vs)]
    return max(gaps) / max(1.0, max(abs(v) for row in member for v in row))


@dataclass(frozen=True)
class BridgeReport:
    ok: bool
    algebra: str
    direction: str
    trials: int
    max_residual: float
    detail: str
    # on failure: the sample (nabla or pattern member) that broke the check
    sample: tuple[tuple[complex, ...], ...] | None = None


def _random_locder_numeric(template: MatrixTemplate, rng: random.Random):
    """Random local-derivation sample with entries bounded by 1."""
    params = {p: rng.uniform(-1.0, 1.0) for p in template.params}
    rows = template.instantiate_numeric(params)
    peak = max(abs(v) for row in rows for v in row)
    if peak > 1.0:
        rows = [[v / peak for v in row] for row in rows]
    return rows


def bridge_check(
    algebra: Algebra,
    direction: str,
    trials: int = 100,
    seed: int = 0,
) -> BridgeReport:
    """exp: LocDer samples land in the pattern; log: members recover.

    The log direction exists for pi3 only and draws plus-branch members
    with b11 in (0.5, 2); recovery must round-trip through matrix_exp.
    On a two-branch pattern the exponential must land on the plus branch.
    """
    forms = closed_forms(algebra)
    rng = random.Random(seed)
    worst = 0.0
    if direction == "exp":
        for t in range(trials):
            nabla = _random_locder_numeric(forms.local_derivation, rng)
            image = matrix_exp(nabla)
            check = pattern_residual(algebra, image)
            worst = max(worst, check.residual)
            if check.residual > EXP_PATTERN_TOL or check.branch == "-":
                return BridgeReport(
                    ok=False,
                    algebra=algebra.name,
                    direction=direction,
                    trials=t + 1,
                    max_residual=worst,
                    detail=f"exponential left the pattern (branch "
                           f"{check.branch}, residual {check.residual:.3e})",
                    sample=tuple(tuple(complex(v) for v in row) for row in nabla),
                )
        return BridgeReport(
            ok=True,
            algebra=algebra.name,
            direction=direction,
            trials=trials,
            max_residual=worst,
            detail="all exponentials landed in the pattern",
        )
    if direction == "log":
        if forms.local_derivation is not LOCAL_DERIVATION_FORM_PI3:
            raise UnsupportedError(
                "structured logarithm recovery is defined for pi3"
            )
        template = forms.local_automorphism[0]  # the plus branch
        for t in range(trials):
            params = {p: rng.uniform(-1.0, 1.0) for p in template.params}
            params["b11"] = rng.uniform(0.5, 2.0)
            member = template.instantiate_numeric(params)
            residual = log_round_trip_residual(member)
            worst = max(worst, residual)
            if residual > LOG_ROUND_TRIP_TOL:
                return BridgeReport(
                    ok=False,
                    algebra=algebra.name,
                    direction=direction,
                    trials=t + 1,
                    max_residual=worst,
                    detail=f"log/exp round trip missed by {residual:.3e}",
                    sample=tuple(
                        tuple(complex(v) for v in row) for row in member
                    ),
                )
        return BridgeReport(
            ok=True,
            algebra=algebra.name,
            direction=direction,
            trials=trials,
            max_residual=worst,
            detail="all pattern members recovered their logarithm",
        )
    raise InputError(f"unknown bridge direction {direction!r}")
