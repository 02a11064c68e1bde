"""Exact rational linear algebra against a sympy oracle.

rank / rref / nullspace / solve / inverse are cross-checked on random
integer matrices; Subspace and the operator payload round-trips are
exercised directly.
"""

import json
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from locsym import InputError, Matrix, Subspace
from locsym.linalg import (
    inverse,
    is_invertible,
    nullspace,
    operator_from_payload,
    operator_to_payload,
    rank,
    rref,
    solve,
    vector,
)
from locsym.rationals import exact, quotient

entries = st.integers(-9, 9)


def int_matrix(nrows, ncols):
    return st.lists(
        st.lists(entries, min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    )


square = st.integers(1, 4).flatmap(lambda n: int_matrix(n, n))
rect = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda s: int_matrix(*s)
)


# -- Matrix basics ---------------------------------------------------------

def test_matrix_construction_and_shape():
    m = Matrix([[1, 2], [3, 4]])
    assert m.shape == (2, 2)
    assert m.vec() == (1, 2, 3, 4)
    assert Matrix.from_vec(m.vec(), 2) == m
    with pytest.raises(InputError):
        Matrix([[1, 2], [3]])


def test_matrix_is_immutable_and_hashable():
    m = Matrix.identity(3)
    with pytest.raises(AttributeError):
        m.rows = ()
    assert len({m, Matrix.identity(3), Matrix.zeros(3, 3)}) == 2


def test_matrix_arithmetic():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a * b == Matrix([[2, 1], [4, 3]])
    assert a + (-a) == Matrix.zeros(2, 2)
    assert 2 * a == a + a
    assert a.power(2) == a * a
    assert a.apply((1, 0)) == (1, 3)
    assert a.transpose().transpose() == a


def test_entries_are_canonical_exact_scalars():
    half = Fraction(1, 2)
    m = Matrix([[Fraction(4, 2), half], [3, Fraction(-3, 6)]])
    assert m.rows == ((2, half), (3, -half))
    assert [[type(v) for v in row] for row in m.rows] == [[int, Fraction]] * 2
    v = vector([Fraction(6, 3), half, 0])
    assert [type(t) for t in v] == [int, Fraction, int]
    image = m.apply((half, 1))   # (1 + 1/2, 3/2 - 1/2)
    assert image == (Fraction(3, 2), 1)
    assert [type(t) for t in image] == [Fraction, int]
    assert type(exact(Fraction(-8, 4))) is int
    assert type(exact(True)) is int


def test_quotient_is_exact_and_canonical():
    assert quotient(12, 4) == 3 and type(quotient(12, 4)) is int
    assert quotient(-12, 4) == -3 and type(quotient(-12, 4)) is int
    assert quotient(7, 2) == Fraction(7, 2)
    assert quotient(-6, 4) == Fraction(-3, 2)
    # a negative divisor: the sign folds into the numerator
    assert quotient(7, -7) == -1 and type(quotient(7, -7)) is int
    assert quotient(3, -6) == Fraction(-1, 2)
    assert quotient(0, -5) == 0 and type(quotient(0, -5)) is int
    # Fraction operands come back canonical
    assert quotient(Fraction(3, 2), Fraction(3, 4)) == 2
    assert type(quotient(Fraction(3, 2), Fraction(3, 4))) is int
    assert quotient(Fraction(1, 2), 3) == Fraction(1, 6)
    assert quotient(5, Fraction(-2, 3)) == Fraction(-15, 2)
    assert type(quotient(Fraction(6, 1), 3)) is int
    with pytest.raises(ZeroDivisionError):
        quotient(1, 0)


# -- rank / rref / nullspace / inverse vs sympy ----------------------------

@settings(max_examples=50, deadline=None)
@given(rect)
def test_rank_matches_sympy(rows):
    assert rank(rows) == sympy.Matrix(rows).rank()


@settings(max_examples=40, deadline=None)
@given(rect)
def test_rref_matches_sympy(rows):
    basis, pivots = rref(rows)
    sm, spivots = sympy.Matrix(rows).rref()
    assert pivots == tuple(spivots)
    nonzero = [
        tuple(Fraction(int(v.p), int(v.q)) for v in sm.row(i))
        for i in range(sm.rows)
        if any(v != 0 for v in sm.row(i))
    ]
    assert list(basis) == nonzero


sparse = st.one_of(st.just(0), st.just(0),
                   st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)))
sparse_rect = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda s: st.lists(st.lists(sparse, min_size=s[1], max_size=s[1]),
                       min_size=s[0], max_size=s[0])
)


def from_sympy(v) -> Fraction:
    return Fraction(int(v.p), int(v.q))


def canonical(vectors) -> bool:
    """Every entry an int, or a Fraction that is not integral."""
    return all(type(v) is int or (type(v) is Fraction and v.denominator > 1)
               for vec in vectors for v in vec)


@settings(max_examples=60, deadline=None)
@given(sparse_rect)
def test_rref_and_nullspace_match_sympy_on_sparse_rationals(rows):
    basis, pivots = rref(rows)
    sm, spivots = sympy.Matrix(rows).rref()
    assert pivots == tuple(spivots)
    assert [list(r) for r in basis] == [
        list(map(from_sympy, sm.row(i))) for i in range(len(pivots))]
    kernel = nullspace(rows)
    assert [list(v) for v in kernel] == [
        list(map(from_sympy, v)) for v in sympy.Matrix(rows).nullspace()]
    m = Matrix(rows)
    rhs = m.apply([1] * m.shape[1])
    solution = solve(m, rhs)
    assert m.apply(solution) == rhs
    space = Subspace(m.shape[1], rows)
    assert canonical(basis) and canonical(kernel) and canonical([solution])
    assert canonical(space.basis)


@settings(max_examples=60, deadline=None)
@given(sparse_rect, st.data())
def test_subspace_contains_matches_sympy_rank(rows, data):
    ncols = len(rows[0])
    coeffs = data.draw(st.lists(sparse, min_size=len(rows), max_size=len(rows)))
    combination = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)]
    other = data.draw(st.lists(sparse, min_size=ncols, max_size=ncols))
    space, rank_of = Subspace(ncols, rows), sympy.Matrix(rows).rank()
    assert space.contains(combination)
    for vec in (combination, other):
        assert space.contains(vec) == (sympy.Matrix([*rows, vec]).rank() == rank_of)


@settings(max_examples=40, deadline=None)
@given(rect)
def test_nullspace_matches_sympy(rows):
    ours = nullspace(rows)
    theirs = sympy.Matrix(rows).nullspace()
    assert len(ours) == len(theirs)
    m = sympy.Matrix(rows)
    for v in ours:
        assert m * sympy.Matrix(len(v), 1, list(v)) == sympy.zeros(m.rows, 1)


@settings(max_examples=40, deadline=None)
@given(square)
def test_inverse_matches_sympy(rows):
    m = Matrix(rows)
    sm = sympy.Matrix(rows)
    assert is_invertible(m) == (sm.det() != 0)
    if is_invertible(m):
        n = m.shape[0]
        assert m * inverse(m) == Matrix.identity(n)
        assert inverse(m) * m == Matrix.identity(n)
    else:
        with pytest.raises(InputError):
            inverse(m)


@settings(max_examples=40, deadline=None)
@given(square, st.lists(entries, min_size=1, max_size=4))
def test_solve_agrees_with_residual(rows, rhs):
    n = len(rows)
    rhs = (rhs * n)[:n]
    m = Matrix(rows)
    x = solve(m, rhs)
    if x is None:
        # sympy confirms inconsistency
        aug = sympy.Matrix(rows).row_join(sympy.Matrix(n, 1, rhs))
        assert sympy.Matrix(rows).rank() < aug.rank()
    else:
        assert m.apply(x) == tuple(Fraction(v) for v in rhs)


# -- Subspace ---------------------------------------------------------------

def test_subspace_membership_and_dim():
    s = Subspace(3, [(1, 0, 0), (1, 1, 0)])
    assert s.dim == 2
    assert s.contains((5, -2, 0))
    assert not s.contains((0, 0, 1))
    # equality is on the canonical RREF basis, so spans compare directly
    assert s == Subspace(3, [(0, 1, 0), (1, 0, 0)])
    assert s != Subspace(3, [(1, 0, 0)])


# -- operator payloads --------------------------------------------------------

def test_rational_payload_round_trip():
    m = Matrix([[Fraction(1, 3), 2], [0, Fraction(-5, 7)]])
    payload = operator_to_payload(m)
    assert payload["backend"] == "rational"
    again = operator_from_payload(json.loads(json.dumps(payload)))
    assert again == m


def test_complex_payload_round_trip():
    rows = [[1 + 2j, 0.5], [complex(-3), 1e-12 + 1j]]
    payload = operator_to_payload(rows, backend="complex")
    again = operator_from_payload(json.loads(json.dumps(payload)))
    assert again == rows


def test_payload_rejects_malformed():
    with pytest.raises(InputError):
        operator_from_payload({"dim": 2, "backend": "rational"})
    with pytest.raises(InputError):
        operator_from_payload(
            {"dim": 2, "backend": "nonsense", "entries": [["1"]]}
        )
