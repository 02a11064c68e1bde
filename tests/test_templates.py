"""Parametric matrix templates: instantiation, matching, span equality."""

import random
from fractions import Fraction

import pytest
import sympy

from locsym import (
    Algebra,
    Matrix,
    UnsupportedError,
    builtin,
    closed_forms,
    template_match,
    template_space_equals,
    zero_algebra,
)
from locsym.poly import poly
from locsym.rationals import quotient
from locsym.templates import (
    AUTOMORPHISM_FORM_PI2,
    AUTOMORPHISM_FORM_PI3,
    DERIVATION_FORM_PI2,
    DERIVATION_FORM_PI3,
    LOCAL_AUTOMORPHISM_FORM_PI2,
    LOCAL_AUTOMORPHISM_FORM_PI3_MINUS,
    LOCAL_AUTOMORPHISM_FORM_PI3_PLUS,
    LOCAL_DERIVATION_FORM_PI2,
    LOCAL_DERIVATION_FORM_PI3,
    MatrixTemplate,
    closure_failure,
    determinant,
    product_template,
    random_parameters,
)

# Every builtin grid, both branches of the pi3 local-automorphism pattern
# included.
BUILTIN_FORMS = {
    ("derivation", "pi2"): DERIVATION_FORM_PI2,
    ("derivation", "pi3"): DERIVATION_FORM_PI3,
    ("local_derivation", "pi2"): LOCAL_DERIVATION_FORM_PI2,
    ("local_derivation", "pi3"): LOCAL_DERIVATION_FORM_PI3,
    ("automorphism", "pi2"): AUTOMORPHISM_FORM_PI2,
    ("automorphism", "pi3"): AUTOMORPHISM_FORM_PI3,
    ("local_automorphism", "pi2"): LOCAL_AUTOMORPHISM_FORM_PI2,
    ("local_automorphism", "pi3"): LOCAL_AUTOMORPHISM_FORM_PI3_PLUS,
    ("local_automorphism", "pi3-minus"): LOCAL_AUTOMORPHISM_FORM_PI3_MINUS,
}


def small_template():
    return MatrixTemplate(
        dim=2,
        params=("a", "b"),
        entries=(
            (poly("a"), poly("0")),
            (poly("b"), poly("a + b")),
        ),
    )


# -- instantiation ------------------------------------------------------------

def test_instantiate_exact():
    t = small_template()
    m = t.instantiate({"a": Fraction(2), "b": Fraction(-1)})
    assert m == Matrix([[2, 0], [-1, 1]])


def test_instantiate_numeric_defaults_missing_params_to_zero():
    t = small_template()
    rows = t.instantiate_numeric({"a": 1 + 1j})
    assert rows[0][0] == 1 + 1j
    assert rows[1][0] == 0j
    assert rows[1][1] == 1 + 1j


def test_zero_positions():
    t = small_template()
    assert t.zero_positions() == ((0, 1),)


def test_is_linear_detects_nonlinear_entries():
    assert small_template().is_linear()
    assert not AUTOMORPHISM_FORM_PI2.is_linear()


# -- matching ------------------------------------------------------------------

def test_match_round_trip():
    t = small_template()
    params = {"a": Fraction(3), "b": Fraction(1, 2)}
    assert template_match(t, t.instantiate(params)) == params


def test_match_rejects_off_template_matrix():
    t = small_template()
    assert template_match(t, Matrix([[1, 5], [0, 1]])) is None   # zero slot hit
    assert template_match(t, Matrix([[1, 0], [0, 3]])) is None   # a+b broken


@pytest.mark.parametrize("kind,name", list(BUILTIN_FORMS))
def test_linear_form_match_round_trip(kind, name):
    t = BUILTIN_FORMS[kind, name]
    params = {p: Fraction(i - 3) for i, p in enumerate(t.params)}
    assert template_match(t, t.instantiate(params)) == params


@pytest.mark.parametrize("kind,name", list(BUILTIN_FORMS))
def test_match_is_sound_on_single_entry_bumps(kind, name):
    t = BUILTIN_FORMS[kind, name]
    rng = random.Random(11)
    outcomes = set()
    for _ in range(4):
        member = t.instantiate(random_parameters(t, rng))
        assert template_match(t, member) is not None
        for i in range(t.dim):
            for j in range(t.dim):
                rows = [list(row) for row in member.rows]
                rows[i][j] += rng.choice((-2, -1, 1, 2))
                bumped = Matrix(rows)
                params = template_match(t, bumped)
                assert params is None or t.instantiate(params) == bumped
                outcomes.add(params is None)
    assert outcomes == {True, False}   # bumps both leave and stay


@pytest.mark.parametrize(
    "kind,name", [key for key, t in BUILTIN_FORMS.items() if t.nonzero]
)
def test_match_rejects_open_condition_zeros(kind, name):
    t = BUILTIN_FORMS[kind, name]
    rng = random.Random(12)
    for condition in t.nonzero:
        params = random_parameters(t, rng)
        var = next(
            v for v in condition.variables() if condition.degree_in(v) == 1
        )
        coeff, rest = condition.coeff_split(var)
        params[var] = quotient(-rest.evaluate(params), coeff.evaluate(params))
        grid = Matrix([[e.evaluate(params) for e in row] for row in t.entries])
        assert template_match(t, grid) is None


def test_a_parameter_without_a_bare_entry_is_unreadable():
    t = MatrixTemplate(
        dim=2,
        params=("a",),
        entries=((poly("2*a"), poly("0")), (poly("0"), poly("a^2"))),
    )
    with pytest.raises(UnsupportedError):
        template_match(t, t.instantiate({"a": 3}))


# -- parameter spans -------------------------------------------------------------

def test_parameter_span_dim_counts_free_parameters():
    t = DERIVATION_FORM_PI2
    assert t.parameter_span().dim == len(t.params) == 7
    t3 = LOCAL_DERIVATION_FORM_PI3
    assert t3.parameter_span().dim == len(t3.params) == 7


def test_template_space_equals(der2, der3):
    assert template_space_equals(DERIVATION_FORM_PI2, der2.basis)
    assert template_space_equals(DERIVATION_FORM_PI3, der3.basis)
    # spans of different dimension never compare equal
    assert not template_space_equals(
        DERIVATION_FORM_PI2, der3.basis
    )


def test_parameter_span_requires_linearity():
    with pytest.raises(UnsupportedError):
        AUTOMORPHISM_FORM_PI3.parameter_span()


# -- group closure, proved on symbolic members -------------------------------

PLUS, MINUS = LOCAL_AUTOMORPHISM_FORM_PI3_PLUS, LOCAL_AUTOMORPHISM_FORM_PI3_MINUS
GROUP_TEMPLATES = (
    AUTOMORPHISM_FORM_PI2, AUTOMORPHISM_FORM_PI3, LOCAL_AUTOMORPHISM_FORM_PI2,
    PLUS, MINUS,
)


def mutated(template, entries=None, nonzero=None):
    rows = [list(row) for row in template.entries]
    for (i, j), text in (entries or {}).items():
        rows[i - 1][j - 1] = poly(text)
    return MatrixTemplate(
        dim=template.dim,
        params=template.params,
        entries=tuple(map(tuple, rows)),
        nonzero=template.nonzero if nonzero is None else nonzero,
    )


def test_every_builtin_group_is_closed():
    for forms in (closed_forms(builtin("pi2")), closed_forms(builtin("pi3"))):
        assert closure_failure((forms.automorphism,)) is None
        assert closure_failure(forms.local_automorphism) is None


def test_closure_refutes_mutated_templates():
    escaping = mutated(AUTOMORPHISM_FORM_PI2, {(5, 2): "a11*a41"})
    assert "product" in closure_failure((escaping,))
    unguarded = mutated(AUTOMORPHISM_FORM_PI2, nonzero=(poly("a11"),))
    assert "det" in closure_failure((unguarded,))
    # a21 does not divide det, so the members are not V ∩ GL_n
    extra = mutated(AUTOMORPHISM_FORM_PI2, nonzero=(
        poly("a11"), poly("a11 + a41"), poly("a21")))
    assert "det" in closure_failure((extra,))
    # minus times minus lands on the plus branch
    assert "product" in closure_failure((MINUS,))
    # the product of two members need not keep b21 nonzero
    guarded = mutated(PLUS, nonzero=(poly("b11"), poly("b21")))
    assert product_template(guarded, guarded, (guarded,)) is None
    assert product_template(PLUS, PLUS, (PLUS,)) is PLUS


def test_pi3_branch_product_table():
    table = {(PLUS, PLUS): PLUS, (PLUS, MINUS): MINUS,
             (MINUS, PLUS): MINUS, (MINUS, MINUS): PLUS}
    for (left, right), expected in table.items():
        assert product_template(left, right, (PLUS, MINUS)) is expected


def test_symbolic_renames_every_parameter():
    grid, conditions = AUTOMORPHISM_FORM_PI2.symbolic("_x")
    assert grid[4][4] == poly("(a11_x + a41_x)^2")
    assert conditions == (poly("a11_x"), poly("a11_x + a41_x"))


def test_determinant_agrees_with_sympy():
    # the group templates, plus a dense grid where every cofactor sign counts
    dense = [[poly(f"x{i}{j}") for j in range(4)] for i in range(4)]
    for rows in [t.entries for t in GROUP_TEMPLATES] + [dense]:
        expected = sympy.Matrix([
            [sympy.sympify(str(e).replace("^", "**")) for e in row]
            for row in rows
        ]).det()
        got = sympy.sympify(str(determinant(rows)).replace("^", "**"))
        assert sympy.expand(expected - got) == 0


# -- registry and files ------------------------------------------------------------

def test_closed_forms_reject_a_foreign_structure():
    with pytest.raises(UnsupportedError):
        closed_forms(zero_algebra(5))
    # the structure constants pick the forms, not the name
    renamed = Algebra(name="mine", dim=5, table=builtin("pi2").table)
    assert closed_forms(renamed) is closed_forms(builtin("pi2"))

