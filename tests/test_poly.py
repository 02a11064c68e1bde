"""Exact multivariate polynomials: parsing, ring laws, calculus helpers.

sympy serves as an independent oracle for arithmetic; hypothesis drives
the ring-axiom property tests over randomly built polynomials.
"""

import operator
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from locsym.poly import Poly, linear_factors, poly, solve_linear, unit_times_powers

X, Y, Z = sympy.symbols("x y z")
SYMS = {"x": X, "y": Y, "z": Z}


def to_sympy(p: Poly):
    total = sympy.Integer(0)
    for mono, coeff in p.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for var, exp in mono:
            term *= SYMS[var] ** exp
        total += term
    return sympy.expand(total)


@st.composite
def polys(draw):
    terms = draw(st.integers(0, 4))
    total = Poly.zero()
    for _ in range(terms):
        c = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        mono = Poly.const(c)
        for var in draw(st.lists(st.sampled_from("xyz"), max_size=3)):
            mono = mono * Poly.var(var)
        total = total + mono
    return total


def canonical(c) -> bool:
    """An int when integral, a Fraction with denominator > 1 otherwise."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


# Coefficients as callers hand them over: ints, proper Fractions and
# integral Fractions such as 4/2.
COEFFS = st.one_of(
    st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
)


@st.composite
def raw_polys(draw):
    monos = st.lists(st.sampled_from("xyz"), max_size=3).map(
        lambda vs: tuple(sorted(Counter(vs).items())))
    return Poly(draw(st.dictionaries(monos, COEFFS, max_size=4)))


@st.composite
def linear_forms(draw):
    """c0 + cx*x + cy*y + cz*z with cz != 0."""
    form = Poly.const(draw(COEFFS)) + draw(COEFFS.filter(bool)) * Poly.var("z")
    for var in "xy":
        form = form + draw(COEFFS) * Poly.var(var)
    return form


# -- parsing -------------------------------------------------------------

def test_parse_round_trip():
    for text in ("0", "1", "-x", "2*x*y - 3/4", "x^2 - 2*x + 1", "x*y*z"):
        p = poly(text)
        assert poly(str(p)) == p


def test_parse_matches_sympy():
    cases = ["(x + y)^2", "x^3 - 1", "2*(x - 1/2)*(x + 3)", "-(x - y)*(x + y)"]
    for text in cases:
        ours = to_sympy(poly(text))
        theirs = sympy.expand(sympy.sympify(text.replace("^", "**")))
        assert sympy.simplify(ours - theirs) == 0


def test_parse_rejects_garbage():
    # parse errors are ValueError; file loaders wrap them into InputError
    for text in ("x +", "1//2", "(x", "x ** 2", "q$"):
        with pytest.raises(ValueError):
            poly(text)


# -- ring laws against sympy ----------------------------------------------

@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_arithmetic_matches_sympy(a, b, c):
    got = to_sympy(a * (b - c) + b * b)
    want = sympy.expand(to_sympy(a) * (to_sympy(b) - to_sympy(c)) + to_sympy(b) ** 2)
    assert sympy.simplify(got - want) == 0


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_distributivity_and_commutativity(a, b):
    assert a * b == b * a
    assert a * (b + b) == a * b + a * b


@settings(max_examples=40, deadline=None)
@given(polys())
def test_zero_and_negation(a):
    assert a - a == Poly.zero()
    assert (-a) + a == Poly.zero()
    assert a * Poly.zero() == Poly.zero()


# -- evaluation, substitution, calculus -----------------------------------

def test_evaluate_exact():
    p = poly("x^2*y - 3*x + 1/2")
    point = {"x": Fraction(2), "y": Fraction(-1, 2)}
    assert p.evaluate(point) == Fraction(-2) - 6 + Fraction(1, 2)


@pytest.mark.parametrize("point, value", [
    ({"x": 2, "y": 1}, -3),
    ({"x": 1, "y": 1}, Fraction(-3, 2)),
    ({"x": Fraction(2), "y": Fraction(1)}, -3),
    ({"x": Fraction(1, 2), "y": Fraction(8)}, Fraction(1, 2)),
    ({"x": 2.0, "y": 1.0}, -3),
    ({"x": 0.5, "y": 8.0}, Fraction(1, 2)),
    ({"x": 0.1, "y": 0}, 1 - 3 * Fraction(0.1)),
], ids=["int", "int-half", "fraction", "fraction-half", "float", "float-half",
        "float-inexact"])
def test_evaluate_returns_canonical_scalars(point, value):
    got = poly("1/2*x^2*y - 3*x + 1").evaluate(point)
    assert got == value
    # an int when integral, a Fraction otherwise: never a float
    assert type(got) is (int if value == int(value) else Fraction)


@settings(max_examples=30, deadline=None)
@given(polys(), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_evaluate_matches_sympy(p, vx, vy, vz):
    point = {"x": Fraction(vx), "y": Fraction(vy), "z": Fraction(vz)}
    got = p.evaluate(point)
    want = to_sympy(p).subs({X: vx, Y: vy, Z: vz})
    assert sympy.Rational(got.numerator, got.denominator) == want


def test_subs_is_substitution():
    p = poly("x^2 + y")
    q = p.subs({"x": poly("y - 1")})
    assert q == poly("y^2 - 2*y + 1 + y")


def test_coefficients_are_canonical_and_zeros_are_dropped():
    x, y, z = (("x", 1),), (("y", 1),), (("z", 1),)
    p = Poly({x: Fraction(6, 2), y: Fraction(1, 2), z: -4, (): 0, (("w", 1),): Fraction(0)})
    assert p.terms == {x: 3, y: Fraction(1, 2), z: -4}
    assert [type(c) for c in p.terms.values()] == [int, Fraction, int]
    assert all(map(canonical, p.terms.values()))
    assert Poly({x: Fraction(0), y: 0}).is_zero()
    assert type(poly("4/2").constant_value()) is int


@pytest.mark.parametrize("coeff", [0.5, 1.0, 0.0, 1j, complex(2, 0)], ids=repr)
def test_an_inexact_coefficient_is_refused(coeff):
    # a float would enter as the binary rational it stores, silently
    with pytest.raises(TypeError, match="inexact polynomial coefficient"):
        Poly({(("x", 1),): coeff})
    with pytest.raises(TypeError):
        Poly.const(coeff)
    # the exact scalars pass, int and Fraction alike
    assert Poly.const(Fraction(1, 2)).constant_value() == Fraction(1, 2)
    assert Poly.const(3).constant_value() == 3


BINARY = [operator.add, operator.sub, operator.mul, operator.truediv,
          operator.floordiv, operator.pow]


def _on_the_right(op):
    def swapped(scalar, p):
        return op(p, scalar)
    swapped.__name__ = f"right_{op.__name__}"
    return swapped


def right_div_exact(scalar, p):
    return p.div_exact(scalar)


@pytest.mark.parametrize(
    "op", BINARY + [*map(_on_the_right, BINARY), right_div_exact],
    ids=lambda op: op.__name__)
@pytest.mark.parametrize("scalar", [1.5, 0.0, 2j, complex(1, 0)], ids=repr)
def test_a_float_or_complex_left_operand_is_refused(op, scalar):
    # on the left and, through right_*, on the right: 1.5 - p once recursed
    # without bound in Poly.__rsub__, and p // 1.5 once ended in an
    # AttributeError inside div_exact
    with pytest.raises(TypeError):
        op(scalar, poly("x + 1"))


def test_degree_and_variables():
    p = poly("x^2*y - z")
    assert p.total_degree() == 3
    assert p.degree_in("x") == 2
    assert p.variables() == ("x", "y", "z")


# -- structured decompositions --------------------------------------------

def test_linear_decompose():
    p = poly("2*x*u - y*v + x^2")
    lin, rest = p.linear_decompose(("u", "v"))
    assert lin["u"] == poly("2*x")
    assert lin["v"] == poly("-y")
    assert rest == poly("x^2")


def test_linear_decompose_rejects_quadratic_unknowns():
    with pytest.raises(ValueError):
        poly("u^2").linear_decompose(("u",))


def test_coeff_split():
    head, tail = poly("3*x*y + y^2 + 5").coeff_split("x")
    assert head == poly("3*y")
    assert tail == poly("y^2 + 5")


def test_div_exact():
    num = poly("x^2 - y^2")
    assert num.div_exact(poly("x - y")) == poly("x + y")
    assert num.div_exact(poly("x + 1")) is None


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), polys())
def test_div_exact_agrees_with_sympy(a, b, c):
    # b * c divided by c gives b back; any other quotient is exact or None
    # exactly when sympy's remainder is 0 (one-variable long division where
    # c has a constant leading coefficient in some variable, term by term
    # otherwise, as for x*y)
    for divisor in (c, c * poly("x*y")):
        if divisor:
            assert (b * divisor).div_exact(divisor) == b
            quot, rem = sympy.div(to_sympy(a), to_sympy(divisor), X, Y, Z)
            result = a.div_exact(divisor)
            assert (result is None) == (rem != 0)
            assert result is None or to_sympy(result) == sympy.expand(quot)


def test_sqrt_exact():
    assert poly("x^2 + 2*x*y + y^2").sqrt_exact() == poly("x + y")
    assert poly("x^2 + 1").sqrt_exact() is None
    assert poly("4/9").sqrt_exact() == poly("2/3")


@settings(max_examples=80, deadline=None)
@given(raw_polys(), raw_polys(), st.integers(0, 3), linear_forms(), linear_forms(), COEFFS)
def test_every_operation_keeps_coefficients_canonical(a, b, k, f, g, c):
    """Each result holds only canonical coefficients and is the right value.

    int / int is a float, so a division left on coefficients shows here
    as a float coefficient, a wrong value or a refused float operand.
    """
    # scalar roots first: a wrong one makes the square root of a * a slow
    for coeff in (c, *a.terms.values()):
        assert Poly.const(coeff * coeff).sqrt_exact() == Poly.const(abs(coeff))
    results = [a, a + b, a - b, a * b, a ** k, -a,
               a.subs({"x": b, "y": c}), a.subs({"z": Fraction(1, 3)})]
    if b:
        assert (back := (a * b).div_exact(b)) == a
        results.append(back)
        if (q := a.div_exact(b)) is not None:
            assert q * b == a
            results.append(q)
    if a:
        content, primitive = a.content_primitive()
        assert canonical(content) and primitive * content == a
        assert all(type(v) is int for v in primitive.terms.values())
        results.append(primitive)
        root = (a * a).sqrt_exact()
        assert root in (a, -a)
        results.append(root)
    (var, value), = solve_linear(f).items()
    assert var == "z" and f.subs({var: value}).is_zero()
    results.append(value)
    if c:
        scale, factors = linear_factors(f * g * c)
        product = Poly.const(scale)
        for factor in factors:
            product = product * factor
        assert canonical(scale) and product == f * g * c
        results.extend(factors)
    for p in results:
        assert all(map(canonical, p.terms.values())), p.terms
        assert poly(str(p)) == p
    assert canonical(a.evaluate({"x": 2, "y": Fraction(1, 3), "z": -1}))


@settings(max_examples=80, deadline=None)
@given(raw_polys(), raw_polys(), st.integers(0, 3), COEFFS)
def test_closed_operations_return_canonical_nonzero_terms(a, b, k, c):
    """Results of closed operations skip the public constructor's checks,
    so each must come out with only nonzero coefficients, each an int or
    a Fraction with denominator > 1 (cancellations and Fraction products
    such as 3/2 * 2/3 included)."""
    linear = a.subs({"x": 0}) * Poly.var("x") + b.subs({"x": 0})
    results = [a + b, a - b, a - a, a + c, c - a, a * b, a * c, c * a, -a,
               a ** k, a.subs({"x": b, "y": c}), a.subs({"z": Fraction(1, 3)}),
               *a.group_by(["x", "z"]).values()]
    if b:
        results.append((a * b).div_exact(b))
        results.append(a.div_exact(b) or Poly.zero())
    if c:
        results.append(a.div_exact(c))
    if linear.degree_in("x") == 1:
        results.extend(linear.coeff_split("x"))
    for p in results:
        assert all(v != 0 and canonical(v) for v in p.terms.values()), p.terms


def test_linear_factors():
    scale, factors = linear_factors(poly("2*x^2 - 2*y^2"))
    rebuilt = Poly.const(scale)
    for f in factors:
        rebuilt = rebuilt * f
    assert rebuilt == poly("2*x^2 - 2*y^2")
    assert all(f.total_degree() == 1 for f in factors)


# Distinct primitive irreducible polynomials, none a unit times another:
# the kind of factors unit_times_powers peels in the proofs (inequations
# and open conditions).
IRREDUCIBLE = tuple(map(poly, (
    "x", "y", "z", "x + y", "x - 2*y + z", "y + 3*z", "x^2 + y^2 + 1", "x*y + z",
)))


def primitive(p: Poly) -> Poly:
    return p.content_primitive()[1]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(IRREDUCIBLE), max_size=4, unique=True),
       st.lists(st.tuples(st.sampled_from(IRREDUCIBLE), st.integers(1, 3)), max_size=4),
       st.one_of(st.none(), polys()), COEFFS)
def test_unit_times_powers_agrees_with_factor_list(allowed, powers, other, unit):
    # p = unit * prod f^k (* other): a unit times powers of allowed iff
    # every irreducible factor sympy finds is one of allowed, up to a unit
    p = Poly.const(unit)
    for f, k in powers:
        p = p * f ** k
    if other is not None:
        p = p * other
    _, factors = sympy.factor_list(to_sympy(p))
    readings = {primitive(poly(str(g).replace("**", "^"))) for g, _ in factors}
    expected = bool(p) and readings <= {primitive(f) for f in allowed}
    assert unit_times_powers(p, allowed) == expected
