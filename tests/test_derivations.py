"""Derivation algebras: Leibniz solving, dimensions, Lie structure."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from locsym import (
    Matrix,
    bracket,
    bracket_closed,
    builtin,
    is_derivation,
    zero_algebra,
)
from locsym.derivations import derivation_algebra, leibniz_failure
from locsym.poly import Poly
from locsym.templates import DERIVATION_FORM_PI2, LOCAL_DERIVATION_FORM_PI3

coeffs = st.lists(st.integers(-6, 6), min_size=7, max_size=7)


def e_matrix(i, j, value=1):
    rows = [[0] * 5 for _ in range(5)]
    rows[i][j] = value
    return Matrix(rows)


# -- dimensions and membership -------------------------------------------------

def test_derivation_dimensions(der2, der3):
    assert der2.dim == 7
    assert der3.dim == 6


def test_basis_elements_satisfy_leibniz(pi2, pi3, der2, der3):
    for algebra, space in ((pi2, der2), (pi3, der3)):
        for op in space.basis:
            assert is_derivation(algebra, op)


def test_explicit_non_derivations_are_rejected(pi2, pi3):
    # E12 maps e2 to e1 and violates D(e1 e1) = 2 e1 D(e1) on both algebras
    assert not is_derivation(pi2, e_matrix(0, 1))
    assert not is_derivation(pi3, e_matrix(0, 1))
    assert not is_derivation(pi2, Matrix.identity(5))


def test_leibniz_failure_names_the_first_basis_pair(pi2, der2):
    # E44 fixes e4 and kills e1..e3, so e1 e4 = e5 is the first product
    # it breaks: D(e5) = 0 but e1 D(e4) = e5
    assert leibniz_failure(pi2, e_matrix(3, 3)) == (0, 3)
    assert leibniz_failure(pi2, e_matrix(0, 1)) == (0, 0)
    assert all(leibniz_failure(pi2, op) is None for op in der2.basis)


def test_zero_algebra_has_full_derivation_space():
    space = derivation_algebra(zero_algebra(3))
    assert space.dim == 9


def test_span_contains_template_instances(der2):
    template = DERIVATION_FORM_PI2
    params = {p: Fraction(i + 1) for i, p in enumerate(template.params)}
    assert der2.contains(template.instantiate(params))
    assert not der2.contains(e_matrix(0, 1))


@settings(max_examples=25, deadline=None)
@given(coeffs, coeffs, st.lists(st.integers(-9, 9), min_size=5, max_size=5),
       st.lists(st.integers(-9, 9), min_size=5, max_size=5))
def test_leibniz_identity_on_random_members(c1, c2, x, y):
    algebra = builtin("pi2")
    template = DERIVATION_FORM_PI2
    d = template.instantiate(dict(zip(template.params, map(Fraction, c1))))
    xs = tuple(map(Fraction, x))
    ys = tuple(map(Fraction, y))
    lhs = d.apply(algebra.multiply(xs, ys))
    rhs = tuple(
        a + b
        for a, b in zip(
            algebra.multiply(d.apply(xs), ys),
            algebra.multiply(xs, d.apply(ys)),
        )
    )
    assert lhs == rhs


# -- Lie structure ----------------------------------------------------------------

def test_bracket_is_a_commutator():
    a = Matrix([[0, 1], [0, 0]])
    b = Matrix([[1, 0], [0, -1]])
    assert bracket(a, b) == a * b - b * a
    assert bracket(a, a).is_zero()
    assert bracket(a, b) == -bracket(b, a)


def test_bracket_closed_on_both_derivation_algebras(der2, der3):
    ok2, pair2 = bracket_closed(der2.basis)
    ok3, pair3 = bracket_closed(der3.basis)
    assert ok2 and pair2 is None
    assert ok3 and pair3 is None


def test_bracket_closure_fails_off_a_subalgebra():
    # span{E12} brackets with itself fine, but {E12, E21} generates E11 - E22
    ok, pair = bracket_closed([e_matrix(0, 1), e_matrix(1, 0)])
    assert not ok
    assert pair == (e_matrix(0, 1), e_matrix(1, 0))


def test_weighted_diagonal_bracket_raises_e21():
    # [diag(1,2,3,1,2), E21] = (2-1) E21 = +E21
    diag = Matrix([
        [1, 0, 0, 0, 0],
        [0, 2, 0, 0, 0],
        [0, 0, 3, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 2],
    ])
    assert bracket(diag, e_matrix(1, 0)) == e_matrix(1, 0)


def test_displayed_commutator_forms_match_bracket():
    # The paper's six nonzero entries of [x, y] on the local-derivation
    # template of pi3, checked as polynomial identities in the parameters
    # of two symbolic members.
    forms = {
        (1, 0): lambda x, y: x["b11"] * y["b21"] - x["b21"] * y["b11"],
        (2, 0): lambda x, y: 2 * x["b11"] * y["b31"] + x["b32"] * y["b21"]
        - x["b21"] * y["b32"] - 2 * x["b31"] * y["b11"],
        (2, 1): lambda x, y: x["b11"] * y["b32"] - x["b32"] * y["b11"],
        (2, 3): lambda x, y: 2 * x["b11"] * y["b34"] - 2 * x["b34"] * y["b11"],
        (4, 0): lambda x, y: x["b11"] * y["b51"] - x["b51"] * y["b11"],
        (4, 3): lambda x, y: x["b11"] * y["b54"] - x["b54"] * y["b11"],
    }
    template = LOCAL_DERIVATION_FORM_PI3
    gx, _ = template.symbolic("_x")
    gy, _ = template.symbolic("_y")
    x = {p: Poly.var(p + "_x") for p in template.params}
    y = {p: Poly.var(p + "_y") for p in template.params}

    def product(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(5)), Poly.zero())
                 for j in range(5)] for i in range(5)]

    xy, yx = product(gx, gy), product(gy, gx)
    for i in range(5):
        for j in range(5):
            form = forms.get((i, j))
            expected = form(x, y) if form else Poly.zero()
            assert xy[i][j] - yx[i][j] == expected, (i + 1, j + 1)
