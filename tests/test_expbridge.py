"""Exponential bridge: entry series, matrix exp/log kernels, round trips.

The entry-series coefficients are frozen against their defining
recurrences and proved equal to their closed forms at every order; the
float closed forms are checked against the truncated series.  Both
directions of the bridge are proofs, and faults injected into the
templates they read make them fail with a sample that replays.
"""

import cmath
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from locsym import (
    InputError,
    Matrix,
    NumericsError,
    UnsupportedError,
    acceptance,
    bridge_check,
    builtin,
    closed_form,
    eval_series,
    expbridge,
    matrix_exp,
    matrix_log,
    series_coefficients,
    structured_log_pi3,
    templates,
)
from locsym.cli import main
from locsym.expbridge import CHAINS, series_failure, symbolic_exp
from locsym.poly import poly
from locsym.templates import LOCAL_DERIVATION_FORM_PI3

SERIES = ("lambda21", "lambda31", "mu31", "lambda32", "lambda34")


# -- frozen coefficients -----------------------------------------------------

def test_frozen_leading_coefficients():
    F = Fraction
    expect = {
        # numerators follow c_n = 1 + 2c_{n-1}: 1, 3, 7, 15, 31
        "lambda21": (F(1), F(3, 2), F(7, 6), F(15, 24), F(31, 120)),
        # k_n = 1 + 3k_{n-1}: 1, 4, 13, 40, 121
        "lambda31": (F(1), F(4, 2), F(13, 6), F(40, 24), F(121, 120)),
        # d_n = 2^(n-1) + 3d_{n-1}: 1, 5, 19, 65, 211
        "lambda32": (F(1), F(5, 2), F(19, 6), F(65, 24), F(211, 120)),
        # m_n = (2^(n-1) - 1) + 3m_{n-1}, m_1 = 0: coefficients shift by one
        "mu31": (F(1, 2), F(1), F(25, 24), F(90, 120), F(301, 720)),
    }
    for name, coeffs in expect.items():
        assert series_coefficients(name, 5) == coeffs


def test_lambda34_equals_lambda31_termwise():
    assert series_coefficients("lambda34", 30) == series_coefficients(
        "lambda31", 30
    )


def test_series_coefficients_rejects_bad_input():
    with pytest.raises(InputError):
        series_coefficients("lambda99", 5)
    with pytest.raises(InputError):
        series_coefficients("lambda21", 0)


# -- closed forms against the series ------------------------------------------

def test_closed_forms_match_series_on_a_grid():
    worst = 0.0
    for name in SERIES:
        for k in range(40):
            x = 0.9 * cmath.exp(2j * math.pi * k / 40) * (0.2 + 0.8 * (k % 5) / 4)
            gap = abs(eval_series(name, x) - closed_form(name, x))
            worst = max(worst, gap)
    assert worst <= 1e-10


def test_closed_form_small_argument_uses_series():
    # the quotient forms cancel catastrophically near 0; the factored
    # forms must stay finite and continuous, and 0 itself is the series
    for name in SERIES:
        near = closed_form(name, 1e-9)
        at_zero = complex(series_coefficients(name, 1)[0])
        assert abs(near - at_zero) < 1e-6
        assert closed_form(name, 0) == at_zero


# The samples where mu31's quotient form missed the series by 1e-10 to
# 2e-10: |x| just above 1e-3, where (e^{3x} - 2e^{2x} + e^x)/(2x^2) loses
# about eps/|x|^2 to cancellation (battery seeds 351, 498, 953).
CANCELLING = (
    complex(0.0002561390582927263, -0.0010711110964822777),
    complex(0.0008908788539802845, -0.0007914396878139114),
    complex(0.0006030423970781378, 0.0008754742209016069),
)


def test_closed_forms_do_not_cancel_near_zero():
    radii = [10 ** (-4 + 4 * k / 199) for k in range(200)]
    points = list(CANCELLING) + [
        r * cmath.exp(2j * math.pi * a / 7) for r in radii for a in range(7)
    ]
    worst = max(
        abs(eval_series(name, x) - closed_form(name, x))
        for name in SERIES for x in points
    )
    assert worst <= 1e-13


def test_closed_forms_are_the_chain_weights():
    # away from 0 the table's quotient form is accurate: the float oracle
    # evaluates the same function the series proof is about
    for name in SERIES:
        chain = CHAINS[name]
        for x in (0.5, -0.7 + 0.4j, 1.3j):
            quotient_form = sum(
                w * cmath.exp(k * x) for k, w in enumerate(chain.weights, 1)
            ) / (chain.scale * x ** chain.shift)
            assert abs(quotient_form - closed_form(name, x)) < 1e-13


def test_every_series_equals_its_closed_form_at_every_order():
    assert [series_failure(name) for name in SERIES] == [None] * 5
    assert CHAINS["lambda34"] is CHAINS["lambda31"]
    with pytest.raises(InputError):
        series_failure("lambda99")


@pytest.mark.parametrize("change, failure", [
    ({"weights": (1, -2, 2)}, "its closed form has a pole at 0"),
    ({"start": 1}, "its closed form misses the chain's start value 1"),
    ({"gain": (-1, 2, 0)}, "its closed form misses the chain's recurrence by -2*p2"),
    ({"mult": 2}, "its closed form misses the chain's recurrence by -2*p2 + p3 + 1"),
], ids=["pole", "start", "gain", "mult"])
def test_a_changed_chain_fails_the_series_proof(monkeypatch, change, failure):
    monkeypatch.setitem(CHAINS, "mu31", CHAINS["mu31"]._replace(**change))
    assert series_failure("mu31") == failure
    result = acceptance.criterion_9({})
    assert not result.passed
    assert result.detail == f"mu31: {failure}"


def test_the_proof_reads_the_table_the_coefficients_come_from(monkeypatch):
    before = series_coefficients("mu31", 6)
    monkeypatch.setitem(CHAINS, "mu31", CHAINS["mu31"]._replace(gain=(-1, 2, 0)))
    assert series_coefficients("mu31", 6) != before
    assert series_failure("mu31") is not None


def test_lambda21_at_log2():
    x = math.log(2.0)
    assert closed_form("lambda21", x) == pytest.approx(2.0 / x, abs=1e-12)
    assert eval_series("lambda21", x) == pytest.approx(2.0 / x, abs=1e-12)


def test_tail_bound_controls_truncation_error():
    x = 0.8
    full = eval_series("lambda31", x, order=40)
    short = eval_series("lambda31", x, order=12)
    # the crude tail bound |3x|^12 / 12! of the truncated series
    assert abs(full - short) <= 10 * abs(3 * x) ** 12 / math.factorial(12)


# -- matrix exponential ----------------------------------------------------------

def test_exp_of_zero_and_diagonal():
    out = matrix_exp(Matrix.zeros(3, 3))
    assert max(abs(out[i][j] - (1 if i == j else 0)) for i in range(3)
               for j in range(3)) < 1e-14
    d = matrix_exp([[1, 0], [0, 2]])
    assert d[0][0] == pytest.approx(math.e, rel=1e-12)
    assert d[1][1] == pytest.approx(math.e ** 2, rel=1e-12)
    assert abs(d[0][1]) < 1e-14


def test_exp_of_nilpotent_matches_exact_polynomial():
    # strictly lower-triangular N has N^5 = 0, so exp(N) is the exact
    # degree-4 Taylor polynomial, computable in rational arithmetic
    n = Matrix([
        [0, 0, 0, 0, 0],
        [2, 0, 0, 0, 0],
        [1, -3, 0, 0, 0],
        [0, 7, 1, 0, 0],
        [5, 0, -2, 4, 0],
    ])
    exact = Matrix.identity(5)
    power = Matrix.identity(5)
    for k in range(1, 5):
        power = power * n
        exact = exact + power * Fraction(1, math.factorial(k))
    got = matrix_exp(n)
    worst = max(
        abs(got[i][j] - float(exact.rows[i][j]))
        for i in range(5)
        for j in range(5)
    )
    assert worst < 1e-10


def test_exp_additivity_on_commuting_matrices():
    a = [[0.3, 0], [0, -0.7]]
    b = [[1.1, 0], [0, 0.4]]
    lhs = matrix_exp([[1.4, 0], [0, -0.3]])
    ea, eb = matrix_exp(a), matrix_exp(b)
    prod = [[sum(ea[i][k] * eb[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]
    assert max(abs(lhs[i][j] - prod[i][j]) for i in range(2)
               for j in range(2)) < 1e-12


def test_exp_refuses_absurd_norms():
    with pytest.raises(NumericsError):
        matrix_exp([[2.0 ** 50]])


# -- matrix logarithm ---------------------------------------------------------------

def test_log_exp_round_trip():
    a = [[0.2, 0.5, 0], [-0.1, 0.3, 0.4], [0, 0.1, -0.2]]
    back = matrix_log(matrix_exp(a))
    assert max(abs(back[i][j] - a[i][j]) for i in range(3)
               for j in range(3)) < 1e-9


def test_log_rejects_bad_spectra():
    with pytest.raises(NumericsError):
        matrix_log([[-1.0, 0], [0, 1.0]])   # negative real eigenvalue
    with pytest.raises(NumericsError):
        matrix_log([[0.0, 0], [0, 1.0]])    # singular


# -- structured log on the plus branch -------------------------------------------------

def locder_instance_pi3(params):
    template = LOCAL_DERIVATION_FORM_PI3
    return template.instantiate_numeric(params)


def test_structured_log_recovers_known_generator():
    x1 = math.log(2.0)
    nabla = locder_instance_pi3({
        "b11": x1, "b21": 0.7, "b31": -0.4, "b32": 1.1,
        "b34": 0.9, "b51": -1.3, "b54": 0.25,
    })
    member = matrix_exp(nabla)
    back = structured_log_pi3(member)
    worst = max(
        abs(back[i][j] - nabla[i][j]) for i in range(5) for j in range(5)
    )
    assert worst < 1e-10


def test_structured_log_lambda21_slot():
    # with b11 = 2 the (2,1) slot divides by lambda21(ln 2) = 2/ln 2, so
    # b21 = 2/ln 2 recovers the unit generator coordinate exactly
    x1 = math.log(2.0)
    member = [
        [2, 0, 0, 0, 0],
        [2 / x1, 4, 0, 0, 0],
        [0, 0, 8, 0, 0],
        [0, 0, 0, 2, 0],
        [0, 0, 0, 0, 4],
    ]
    back = structured_log_pi3(member)
    assert back[0][0] == pytest.approx(x1, abs=1e-12)
    assert back[1][0] == pytest.approx(1.0, abs=1e-10)


def test_structured_log_rejects_off_pattern_and_minus_branch():
    off_pattern = [
        [1, 1, 0, 0, 0],   # (1,2) must vanish on the pattern
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ]
    with pytest.raises(InputError):
        structured_log_pi3(off_pattern)
    minus = [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, -1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ]
    with pytest.raises(InputError):
        structured_log_pi3(minus)
    # b33 = -1 lies on the negative real axis: no principal logarithm
    with pytest.raises(NumericsError):
        matrix_log(minus)


# -- the exp direction, proved -------------------------------------------------------

@pytest.mark.parametrize("name", ["pi2", "pi3"])
def test_symbolic_exp_matches_matrix_exp(name):
    template = templates.closed_forms(builtin(name)).local_derivation
    rng = random.Random(5)
    point = {p: rng.uniform(-1.0, 1.0) for p in template.params}
    exp = symbolic_exp(template)
    values = dict(point)
    values.update({atom: cmath.exp(point[v]) for atom, v in exp.atoms.items()})
    numeric = matrix_exp(template.instantiate_numeric(point))
    for i, row in enumerate(exp.rows):
        for j, entry in enumerate(row):
            den = 1
            for form, power in entry.den.items():
                den *= form.evaluate_numeric(values) ** power
            assert abs(entry.num.evaluate_numeric(values) / den - numeric[i][j]) < 1e-12


def test_symbolic_exp_of_a_diagonal_pair_is_a_divided_difference():
    # exp [[a, 0], [c, b]] = [[e^a, 0], [c (e^a - e^b)/(a - b), e^b]]
    template = templates.MatrixTemplate(
        dim=2, params=("a", "b", "c"),
        entries=((poly("a"), poly(0)), (poly("c"), poly("b"))))
    exp = symbolic_exp(template)
    assert exp.order == (0, 1)
    assert str(exp.rows[1][0]) == "(E_a*c - E_b*c) / (a - b)"
    assert str(exp.rows[0][0]) == "E_a" and str(exp.rows[0][1]) == "0"


def test_symbolic_exp_refuses_what_it_cannot_write():
    cyclic = templates.MatrixTemplate(
        dim=2, params=("a", "c"),
        entries=((poly("a"), poly("c")), (poly("c"), poly("a"))))
    with pytest.raises(UnsupportedError, match="lower-triangular in no order"):
        symbolic_exp(cyclic)
    negative = templates.MatrixTemplate(
        dim=2, params=("a", "b"),
        entries=((poly("a"), poly(0)), (poly(0), poly("a - b"))))
    with pytest.raises(UnsupportedError, match="nonnegative integer combination"):
        symbolic_exp(negative)


def test_bridge_exp_small_battery():
    # the exp direction is a proof: it carries no sample
    for name in ("pi2", "pi3"):
        report = bridge_check(builtin(name), "exp")
        assert report.ok, report.detail
        assert report.sample is None
        assert "exp(T) reads in the + template with no deviation" in report.detail
    pi3 = bridge_check(builtin("pi3"), "exp").detail
    assert pi3.startswith("the LocDer template T is lower-triangular in the order "
                          "e1, e4, e2, e5, e3; ")
    assert pi3.endswith("the - branch is excluded, its (3,3) deviation being 2*E_b11^3")


def test_bridge_log_small_battery():
    # the log direction is a proof over R on both builtins
    for name in ("pi2", "pi3"):
        report = bridge_check(builtin(name), "log")
        assert report.ok and report.sample is None, report.detail
        assert report.detail.startswith(
            "over R, exp is a bijection from the real LocDer template T onto the "
            "real members of the + template with positive diagonal: ")
    pi2, pi3 = (bridge_check(builtin(name), "log").detail for name in ("pi2", "pi3"))
    # pi2's b41 and b52 sit on the diagonal, so the diagonal step reads them
    assert "the + template reads b11, b22, b33, b41, b52 off its diagonal" in pi2
    assert "e^d ranges over every positive diagonal" in pi2
    assert ("e^d ranges over the positive diagonals with D2 = D1^2, D3 = D1^3, "
            "D4 = D1, D5 = D1^2") in pi3
    assert "exp(T)'s entries at b21, b32, b34, b51, b54, b31 are" in pi3
    with pytest.raises(InputError, match="unknown bridge direction"):
        bridge_check(builtin("pi3"), "sideways")


def test_criterion_8_reads_exp_once_per_builtin(monkeypatch):
    # the log proof starts from the exp direction's reading of exp(T)
    calls = []
    read = expbridge.symbolic_exp
    monkeypatch.setattr(expbridge, "symbolic_exp", lambda t: calls.append(t) or read(t))
    assert acceptance.criterion_8(acceptance.builtin_spaces()).passed
    assert len(calls) == 2
    # alone, the log direction still proves the exp direction first
    assert bridge_check(builtin("pi2"), "log").ok and len(calls) == 3


def test_a_log_sample_of_a_positive_member_does_not_reproduce():
    # exp of a LocDer member is a + member with positive diagonal whose
    # float logarithm reads back in the LocDer template
    for name in ("pi2", "pi3"):
        algebra = builtin(name)
        forms = templates.closed_forms(algebra)
        rng = random.Random(3)
        nabla = forms.local_derivation.instantiate_numeric(
            {p: rng.uniform(-1.0, 1.0) for p in forms.local_derivation.params})
        member = matrix_exp(nabla)
        assert not expbridge.log_leaves_template(algebra, member)
        # a positive diagonal is required: -member is off the + branch (pi3)
        # or has a negative diagonal (pi2), so it is no sample either
        assert not expbridge.log_leaves_template(algebra, [[-v for v in row] for row in member])


# -- faults injected into the templates the exp proof reads -----------------------------

def edited(template, position, text):
    rows = [list(row) for row in template.entries]
    rows[position[0] - 1][position[1] - 1] = poly(text)
    return replace(template, entries=tuple(map(tuple, rows)))


FAULTS = {
    "pi3-locder-b22-is-3b11": (
        "pi3", "local_derivation",
        lambda forms: edited(forms.local_derivation, (2, 2), "3*b11"),
        "exp(T) leaves the + template at (2,2): its deviation is E_b11^3 - E_b11^2"),
    "pi2-locaut-b44-is-b41+2b11": (
        "pi2", "local_automorphism",
        lambda forms: (edited(forms.local_automorphism[0], (4, 4), "b41 + 2*b11"),),
        "exp(T) leaves the + template at (4,4): its deviation is -E_b11"),
    "pi3-minus-branch-only": (
        "pi3", "local_automorphism",
        lambda forms: forms.local_automorphism[1:],
        "exp(T) leaves the + template at (3,3): its deviation is 2*E_b11^3"),
    # templates symbolic_exp refuses fail criterion 8 instead of crashing it
    "pi2-locder-b55-is-b22-b52": (
        "pi2", "local_derivation",
        lambda forms: edited(forms.local_derivation, (5, 5), "b22 - b52"),
        "exp(T) of the LocDer template is not written exactly: the diagonal entry "
        "(5,5) = b22 - b52 is not a nonnegative integer combination of parameters"),
    "pi2-locder-b12-is-b22": (
        "pi2", "local_derivation",
        lambda forms: edited(forms.local_derivation, (1, 2), "b22"),
        "exp(T) of the LocDer template is not written exactly: the template is "
        "lower-triangular in no order of the basis: the entries (2,1) = b21, "
        "(1,2) = b22 close a cycle"),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_an_injected_fault_fails_criterion_8_and_replays(
    monkeypatch, tmp_path, capsys, loc2, loc3, fault
):
    name, field, change, detail = FAULTS[fault]
    algebra = builtin(name)
    forms = templates.closed_forms(algebra)
    monkeypatch.setitem(templates._CLOSED_FORMS, algebra.structure,
                        replace(forms, **{field: change(forms)}))
    result = acceptance.criterion_8({"pi2": loc2, "pi3": loc3})
    assert not result.passed
    # the log direction rests on the exp direction, so it fails next
    assert result.detail.split("; ")[:2] == [
        f"exp bridge({name}): {detail}",
        f"log bridge({name}): the exp direction is not proved: {detail}"]
    assert main(["bridge", "--algebra", name, "--format", "structured"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["detail"] == detail
    sample = report["counterexample"]
    assert (sample["kind"], sample["direction"]) == ("bridge_sample", "exp")
    path = tmp_path / "sample.json"
    path.write_text(json.dumps(sample))
    assert main(["verify-counterexample", str(path)]) == 0
    assert "did NOT reproduce" not in capsys.readouterr().out


def test_an_open_condition_exp_can_break_fails_the_proof(monkeypatch):
    # b41 != 0 shrinks pi2's pattern, but exp(T) has (4,1) = E_b41*E_b11 - E_b11,
    # which vanishes at b41 = 0; the float search never hits that point
    algebra = builtin("pi2")
    forms = templates.closed_forms(algebra)
    plus = forms.local_automorphism[0]
    monkeypatch.setitem(templates._CLOSED_FORMS, algebra.structure, replace(
        forms, local_automorphism=(replace(plus, nonzero=plus.nonzero + (poly("b41"),)),)))
    report = bridge_check(algebra, "exp")
    assert not report.ok and report.sample is None
    assert report.detail == ("the open condition b41 of the + template is no unit "
                             "times a monomial in the atoms on exp(T)")


def test_a_failed_search_leaves_the_verdict_standing(monkeypatch):
    # the sample search never decides: with no sample found the proof
    # still fails
    algebra = builtin("pi3")
    forms = templates.closed_forms(algebra)
    monkeypatch.setitem(templates._CLOSED_FORMS, algebra.structure, replace(
        forms, local_automorphism=forms.local_automorphism[1:]))
    monkeypatch.setattr(expbridge, "exp_leaves_pattern", lambda *args: False)
    report = bridge_check(algebra, "exp")
    assert not report.ok and report.sample is None
