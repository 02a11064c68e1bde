"""Sparse multivariate polynomials over exact rationals.

This is the symbolic substrate for matrix templates (entries such as
``2*a11*a21`` or ``(a11+a41)^2``) and for the parametric elimination
engine, which cross-multiplies equation coefficients and therefore needs
exact polynomial arithmetic, substitution, grouping by monomials in a
chosen variable block, and extraction of linear factors from pivot
coefficients.

A polynomial is a mapping from monomials to nonzero coefficients in
canonical form (rationals.exact: an int when integral, else a Fraction),
so integral polynomials run on machine ints; coefficients are divided
with rationals.quotient, since int / int is a float.  A float or complex
coefficient raises TypeError rather than entering as a binary rational.
Only the public constructor Poly(...) checks its input.  Results of
closed operations (+, -, *, subs, group_by, ...) are built by _closed,
which trusts it: sums and products of ints and Fractions are ints and
Fractions, so it only drops zeros and turns integral Fractions to ints.
A monomial is a tuple of (variable, exponent) pairs sorted by variable
name with all exponents >= 1; the empty tuple is the constant monomial.
Instances are immutable and hashable.

The string syntax accepted by :func:`poly` is sums of products of
rational literals, named variables and parenthesized subexpressions,
with ``^`` for small integer powers, e.g. ``"2*a11*a41 + a41^2"``.
``str`` of a polynomial parses back to an equal polynomial.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import StratificationError
from .rationals import exact, format_rational, quotient

Monomial = tuple[tuple[str, int], ...]

_ONE: Monomial = ()


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    merged: dict[str, int] = dict(a)
    for var, exp in b:
        merged[var] = merged.get(var, 0) + exp
    return tuple(sorted(merged.items()))


def _mono_degree(m: Monomial) -> int:
    return sum(exp for _, exp in m)


def _mono_key(m: Monomial, var_order: tuple[str, ...]):
    # Graded lexicographic key relative to a fixed variable ordering.
    return (_mono_degree(m), tuple(dict(m).get(v, 0) for v in var_order))


class Poly:
    """Immutable sparse polynomial with canonical int-or-Fraction coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[Monomial, int | Fraction] | None = None):
        clean = {}
        for mono, coeff in (terms or {}).items():
            if type(coeff) is not int:
                if isinstance(coeff, (float, complex)):
                    raise TypeError(f"inexact polynomial coefficient {coeff!r}")
                coeff = exact(coeff)
            if coeff:
                clean[mono] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def const(value) -> "Poly":
        return Poly({_ONE: value})

    @staticmethod
    def var(name: str) -> "Poly":
        return _closed({((name, 1),): 1})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(m == _ONE for m in self.terms)

    def constant_value(self) -> int | Fraction:
        """The constant as a canonical scalar; divide by it with quotient."""
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.terms.get(_ONE, 0)

    def variables(self) -> tuple[str, ...]:
        return tuple(sorted({var for mono in self.terms for var, _ in mono}))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(_mono_degree(m) for m in self.terms)

    def degree_in(self, var: str) -> int:
        return max((dict(mono).get(var, 0) for mono in self.terms), default=0)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Poly":
        if type(other) is not Poly and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, 0) + coeff
        return _closed(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _closed({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other  # NotImplemented for a float or complex

    def __mul__(self, other) -> "Poly":
        if type(other) is not Poly and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) == 1 and _ONE in a:
            a, b = b, a
        if len(b) == 1 and _ONE in b:  # a constant factor scales
            k = b[_ONE]
            return _closed({m: c * k for m, c in a.items()})
        terms: dict[Monomial, int | Fraction] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                mono = _mono_mul(m1, m2)
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return _closed(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result, base = None, self
        while exponent:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return Poly.const(1) if result is None else result

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # set on first use
            object.__setattr__(self, "_hash", hash(frozenset(self.terms.items())))
            return self._hash

    # -- evaluation and substitution -----------------------------------

    def evaluate(self, assignment) -> int | Fraction:
        """Exact evaluation; every variable must be assigned.

        Runs on canonical scalars (rationals.exact): the value is an int
        when integral and a Fraction otherwise.  A float in the
        assignment counts as the exact rational it stores.
        """
        total = 0
        for mono, coeff in self.terms.items():
            value = coeff
            for var, exp in mono:
                value *= exact(assignment[var]) ** exp
            total += value
        return exact(total)

    def evaluate_numeric(self, assignment) -> complex:
        """Float/complex evaluation for numeric verification paths."""
        total = 0j
        for mono, coeff in self.terms.items():
            value = complex(coeff)
            for var, exp in mono:
                value *= complex(assignment[var]) ** exp
            total += value
        return total

    def subs(self, mapping) -> "Poly":
        """Substitute variables by polynomials (or scalars)."""
        powers = {}  # each var^exp of the mapping, built once
        result: dict[Monomial, int | Fraction] = {}
        for mono, coeff in self.terms.items():
            term = _closed({tuple(t for t in mono if t[0] not in mapping): coeff})
            for t in mono:
                if t[0] in mapping:
                    if t not in powers:
                        powers[t] = _coerce(mapping[t[0]]) ** t[1]
                    term = term * powers[t]
            for m, c in term.terms.items():
                result[m] = result.get(m, 0) + c
        return _closed(result)

    # -- structure helpers ---------------------------------------------

    def linear_decompose(self, unknowns) -> tuple[dict[str, "Poly"], "Poly"]:
        """Write self as sum(u * coeff_u) + rest over the given unknowns.

        Raises ValueError if any unknown occurs with degree >= 2 or two
        unknowns share a monomial; rest is the unknown-free part.
        """
        unknowns = tuple(unknowns)
        uset = set(unknowns)
        coeffs: dict[str, dict[Monomial, int | Fraction]] = {u: {} for u in unknowns}
        rest: dict[Monomial, int | Fraction] = {}
        for mono, coeff in self.terms.items():
            present = [(v, e) for v, e in mono if v in uset]
            if not present:
                rest[mono] = coeff
                continue
            if len(present) > 1 or present[0][1] > 1:
                raise ValueError(f"not linear in {unknowns}: {self}")
            u = present[0][0]
            reduced = tuple((v, e) for v, e in mono if v != u)
            coeffs[u][reduced] = coeff
        return {u: _closed(t) for u, t in coeffs.items()}, _closed(rest)

    def coeff_split(self, var: str) -> tuple["Poly", "Poly"]:
        """For degree_in(var) == 1 write self = A*var + B with A, B var-free."""
        parts = self.by_degree(var)
        if max(parts, default=0) != 1:
            raise ValueError(f"{self} is not linear in {var}")
        return parts[1], parts.get(0, _ZERO)

    def by_degree(self, var: str) -> dict[int, "Poly"]:
        """{k: p_k} with self the sum of p_k * var^k, each p_k free of var."""
        parts: dict[int, dict[Monomial, int | Fraction]] = {}
        for mono, coeff in self.terms.items():
            k = dict(mono).get(var, 0)
            parts.setdefault(k, {})[tuple(t for t in mono if t[0] != var)] = coeff
        return {k: _closed(t) for k, t in parts.items()}

    def group_by(self, variables) -> dict[Monomial, "Poly"]:
        """Group terms by their monomial part in the given variables.

        Returns {monomial-in-variables: polynomial in the remaining
        variables}; used to read off per-monomial coefficients when an
        expression must vanish identically.
        """
        chosen = set(variables)
        groups: dict[Monomial, dict[Monomial, int | Fraction]] = {}
        for mono, coeff in self.terms.items():
            key = tuple((v, e) for v, e in mono if v in chosen)
            other = tuple((v, e) for v, e in mono if v not in chosen)
            groups.setdefault(key, {})[other] = coeff
        return {key: _closed(t) for key, t in groups.items()}

    def content_primitive(self) -> tuple[int | Fraction, "Poly"]:
        """Split into content * primitive with integer coprime coefficients.

        The primitive part's leading coefficient (graded lex over its own
        sorted variables) is positive, making it a canonical representative
        of the polynomial up to nonzero rational scaling.
        """
        if self.is_zero():
            return 0, self
        nums = [c.numerator for c in self.terms.values()]
        dens = [c.denominator for c in self.terms.values()]
        content = quotient(math.gcd(*nums), math.lcm(*dens))
        order = self.variables()
        lead = max(self.terms, key=lambda m: _mono_key(m, order))
        if self.terms[lead] < 0:
            content = -content
        return content, _closed({m: quotient(c, content) for m, c in self.terms.items()})

    # -- division and factor extraction ---------------------------------

    def div_exact(self, divisor: "Poly") -> "Poly | None":
        """Exact multivariate division; None when the remainder is nonzero.

        When the divisor's leading coefficient in some variable v is a
        constant, this is long division in v over the other variables,
        one step per degree: the division with remainder is unique there,
        so the divisor divides exactly when the remainder is 0.  Otherwise
        the leading terms are divided one at a time in graded lex order.
        """
        if (divisor := _coerce(divisor)) is NotImplemented:
            raise TypeError("a polynomial divides only by a Poly, int or Fraction")
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if divisor.is_constant():
            return self * quotient(1, divisor.constant_value())
        for var in divisor.variables():
            parts = divisor.by_degree(var)
            k = max(parts)
            if parts[k].is_constant():
                inv, result, remainder = quotient(1, parts[k].constant_value()), Poly.zero(), self
                while remainder and (n := remainder.degree_in(var)) >= k:
                    step = remainder.by_degree(var)[n] * inv * Poly.var(var) ** (n - k)
                    result, remainder = result + step, remainder - step * divisor
                return None if remainder else result
        order = tuple(sorted(set(self.variables()) | set(divisor.variables())))
        dlead = max(divisor.terms, key=lambda m: _mono_key(m, order))
        dcoeff = divisor.terms[dlead]
        dexps = dict(dlead)
        result: dict[Monomial, int | Fraction] = {}
        remainder = self
        while not remainder.is_zero():
            rlead = max(remainder.terms, key=lambda m: _mono_key(m, order))
            rexps = dict(rlead)
            if any(rexps.get(v, 0) < e for v, e in dexps.items()):
                return None
            qmono = tuple((v, e - dexps.get(v, 0)) for v, e in rlead if e > dexps.get(v, 0))
            qcoeff = quotient(remainder.terms[rlead], dcoeff)
            result[qmono] = result.get(qmono, 0) + qcoeff
            remainder = remainder - _closed({qmono: qcoeff}) * divisor
        return _closed(result)

    def __floordiv__(self, divisor) -> "Poly":
        """Exact division, as Bareiss elimination needs; a remainder raises."""
        result = self.div_exact(divisor)
        if result is None:
            raise ArithmeticError(f"{divisor} does not divide {self}")
        return result

    def sqrt_exact(self) -> "Poly | None":
        """Return s with s*s == self, or None if self is not a square."""
        if self.is_zero():
            return Poly.zero()
        order = self.variables()
        lead = max(self.terms, key=lambda m: _mono_key(m, order))
        lc = self.terms[lead]
        root_c = _fraction_sqrt(lc)
        if root_c is None or any(e % 2 for _, e in lead):
            return None
        root_mono = tuple((v, e // 2) for v, e in lead)
        s = _closed({root_mono: root_c})
        # Newton-style term recovery: peel the leading term of the defect.
        for _ in range(2 * len(self.terms) ** 2 + 4):
            defect = self - s * s
            if defect.is_zero():
                return s
            dlead = max(defect.terms, key=lambda m: _mono_key(m, order))
            # candidate = defect_lead / (2 * s_lead)
            cand = _closed({dlead: defect.terms[dlead]}).div_exact(
                _closed({root_mono: 2 * root_c})
            )
            if cand is None or cand.is_zero():
                return None
            s = s + cand
        return None

    # -- formatting -----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        order = self.variables()
        monos = sorted(self.terms, key=lambda m: _mono_key(m, order), reverse=True)
        pieces = []
        for mono in monos:
            coeff = self.terms[mono]
            body = "*".join(
                var if exp == 1 else f"{var}^{exp}" for var, exp in mono
            )
            mag = abs(coeff)
            if not body:
                text = format_rational(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{format_rational(mag)}*{body}"
            if not pieces:
                pieces.append(text if coeff > 0 else f"-{text}")
            else:
                pieces.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"poly({str(self)!r})"


def _closed(terms: dict[Monomial, int | Fraction]) -> Poly:
    """The Poly of the terms of a closed operation, unchecked (see above)."""
    p = object.__new__(Poly)
    object.__setattr__(p, "terms", {
        m: c if type(c) is int or c.denominator != 1 else c.numerator
        for m, c in terms.items() if c})
    return p


_ZERO = Poly({})


def _coerce(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return _closed({_ONE: value})
    return NotImplemented


def _fraction_sqrt(f: int | Fraction) -> int | Fraction | None:
    if f < 0:
        return None
    num, den = f.numerator, f.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return quotient(rn, rd)


# -- parsing -------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"bad polynomial syntax at {text[pos:]!r}")
        if match.lastgroup == "num":
            tokens.append(("num", Fraction(match.group("num"))))
        elif match.lastgroup == "name":
            tokens.append(("name", match.group("name")))
        else:
            tokens.append(("op", match.group("op")))
        pos = match.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expr(self) -> Poly:
        sign = 1
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            if self.take()[1] == "-":
                sign = -sign
        result = self.term() * sign
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.take()[1]
            term = self.term()
            result = result + term if op == "+" else result - term
        return result

    def term(self) -> Poly:
        result = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            result = result * self.factor()
        return result

    def factor(self) -> Poly:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, value = self.take()
            if kind != "num" or value.denominator != 1:
                raise ValueError("exponent must be a nonnegative integer")
            base = base ** int(value)
        return base

    def atom(self) -> Poly:
        kind, value = self.take()
        if kind == "num":
            return Poly.const(value)
        if kind == "name":
            return Poly.var(value)
        if (kind, value) == ("op", "("):
            inner = self.expr()
            if self.take() != ("op", ")"):
                raise ValueError("unbalanced parenthesis")
            return inner
        if (kind, value) == ("op", "-"):
            return -self.factor()
        raise ValueError(f"unexpected token {value!r}")


def poly(text) -> Poly:
    """Parse a polynomial from its string form (idempotent on Poly)."""
    if isinstance(text, Poly):
        return text
    if isinstance(text, (int, Fraction)):
        return Poly.const(text)
    parser = _Parser(_tokenize(str(text)))
    result = parser.expr()
    if parser.peek()[0] != "end":
        raise ValueError(f"trailing input in polynomial: {text!r}")
    return result


def unit_times_powers(p: Poly, factors) -> bool:
    """Whether p is a nonzero constant times a product of powers of factors."""
    for f in (f for f in factors if not f.is_constant()):
        while not p.is_zero() and (q := p.div_exact(f)) is not None:
            p = q
    return p.is_constant() and not p.is_zero()


# -- linear factor extraction --------------------------------------------


def solve_linear(factor: Poly) -> dict[str, Poly]:
    """{v: e} with factor = 0 iff v = e: v is the last variable in which the
    factor has degree 1 and a constant coefficient (for a degree-1 factor,
    its last variable)."""
    for var in reversed(factor.variables()):
        if factor.degree_in(var) == 1:
            a, b = factor.coeff_split(var)
            if a.is_constant():
                return {var: b * quotient(-1, a.constant_value())}
    raise ValueError(f"{factor} is of degree 1 with a constant coefficient in no variable")


def linear_factors(p: Poly) -> tuple[int | Fraction, list[Poly]]:
    """Factor p into content * product of primitive polynomials of degree 1.

    Degree-1 factors are what the stratification engine can branch on: a
    vanishing branch solves the factor for one of its variables.  Single
    variables, products of linear forms and perfect squares of linear
    forms are recognized; anything else raises StratificationError.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    factors: list[Poly] = []
    # Pull out single-variable monomial content first.
    for var in p.variables():
        if shift := min(dict(m).get(var, 0) for m in p.terms):
            factors += [Poly.var(var)] * shift
            p = p.div_exact(Poly.var(var) ** shift)
    content, p = p.content_primitive()
    while p.total_degree() > 1:
        step = _peel_linear(p)
        if step is None:
            raise StratificationError(
                f"pivot does not split into degree-1 factors: {p}", offending=p
            )
        factor, p = step
        extra, factor = factor.content_primitive()
        factors.append(factor)
        content *= extra
    if p.total_degree() == 1:
        extra, prim = p.content_primitive()
        factors.append(prim)
        content *= extra
    else:
        content *= p.constant_value()
    return exact(content), factors


def _peel_linear(p: Poly) -> tuple[Poly, Poly] | None:
    """Split p = factor * cofactor with factor of total degree 1."""
    for var in p.variables():
        if p.degree_in(var) == 1:
            a, b = p.coeff_split(var)
            q = b.div_exact(a)
            if q is None:
                continue
            factor = Poly.var(var) + q
            if factor.total_degree() == 1:
                return factor, a
    # Quadratic in some variable: try completing the square or the
    # rational-root split via a square discriminant.
    for var in p.variables():
        if p.degree_in(var) != 2:
            continue
        parts = p.by_degree(var)
        a, b, c = (parts.get(k, _ZERO) for k in (2, 1, 0))
        disc = b * b - 4 * a * c
        root = disc.sqrt_exact()
        if root is None:
            continue
        # p = a * (var + (b - root)/(2a)) * (var + (b + root)/(2a))
        for offset in (b - root, b + root):
            half = offset.div_exact(2 * a)
            if half is None or (Poly.var(var) + half).total_degree() != 1:
                break
            factor = Poly.var(var) + half
            cofactor = p.div_exact(factor)
            if cofactor is None:
                break
            return factor, cofactor
    return None
