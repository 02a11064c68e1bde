"""Exponential bridge: entry series, matrix exp/log kernels, round trips.

The entry-series coefficients are frozen against their defining
recurrences; the closed forms are validated termwise against truncated
series before anything else relies on them.
"""

import cmath
import math
from fractions import Fraction

import pytest

from locsym import (
    InputError,
    Matrix,
    NumericsError,
    bridge_check,
    builtin,
    closed_form,
    eval_series,
    matrix_exp,
    matrix_log,
    series_coefficients,
    structured_log_pi3,
)
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
    # the quotient forms cancel catastrophically near 0; the small-x path
    # must stay finite and continuous
    for name in SERIES:
        near = closed_form(name, 1e-9)
        at_zero = complex(series_coefficients(name, 1)[0])
        assert abs(near - at_zero) < 1e-6


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


# -- randomized bridge batteries ---------------------------------------------------------

def test_bridge_exp_small_battery():
    for name in ("pi2", "pi3"):
        report = bridge_check(builtin(name), "exp", trials=20, seed=11)
        assert report.ok, report.detail
        assert report.max_residual < 1e-9


def test_bridge_log_small_battery():
    report = bridge_check(builtin("pi3"), "log", trials=20, seed=12)
    assert report.ok, report.detail
    assert report.max_residual < 1e-8
