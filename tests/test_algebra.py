"""Structure-constant algebras: products, associativity, filtration.

The builtin multiplication tables are asserted entry by entry; the
derived diagnostics (filtration dimensions, nilindex, characteristic
sequence) are pinned to their independently computed values.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from locsym import (
    InputError,
    builtin,
    characteristic_sequence,
    get_algebra,
    is_associative,
    left_mult_operator,
    load_algebra,
    power_filtration,
    save_algebra,
    zero_algebra,
)
import locsym.algebra
import locsym.local_derivations
import locsym.stratify
from locsym.algebra import Algebra, multiplicativity_defects
from sympy.polys.matrices import DomainMatrix

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from solve_inputs import make_cycle  # noqa: E402

coords = st.lists(st.integers(-9, 9), min_size=5, max_size=5)


def tri4():
    """e1e1 = e2, e2e2 = e3, e3e3 = e4: nilpotent, not associative."""
    table = {(0, 0): (0, 1, 0, 0), (1, 1): (0, 0, 1, 0), (2, 2): (0, 0, 0, 1)}
    return Algebra(name="tri4", dim=4, table=table)


def basis_vec(i, dim=5):
    return tuple(Fraction(1 if t == i else 0) for t in range(dim))


# -- multiplication tables ----------------------------------------------------

def test_pi2_table():
    a = builtin("pi2")
    e = [basis_vec(i) for i in range(5)]
    assert a.multiply(e[0], e[0]) == basis_vec(1)   # e1 e1 = e2
    assert a.multiply(e[0], e[1]) == basis_vec(2)   # e1 e2 = e3
    assert a.multiply(e[1], e[0]) == basis_vec(2)   # e2 e1 = e3
    assert a.multiply(e[0], e[3]) == basis_vec(4)   # e1 e4 = e5
    assert a.multiply(e[3], e[0]) == basis_vec(4)   # e4 e1 = e5
    assert a.multiply(e[3], e[3]) == basis_vec(4)   # e4 e4 = e5
    zero = tuple(Fraction(0) for _ in range(5))
    assert a.multiply(e[1], e[1]) == zero
    assert a.multiply(e[2], e[0]) == zero
    assert a.multiply(e[4], e[4]) == zero


def test_pi3_table_differs_only_at_e4e1():
    a2, a3 = builtin("pi2"), builtin("pi3")
    e = [basis_vec(i) for i in range(5)]
    zero = tuple(Fraction(0) for _ in range(5))
    assert a3.multiply(e[3], e[0]) == zero          # the single dropped product
    assert a2.multiply(e[3], e[0]) == basis_vec(4)
    for i in range(5):
        for j in range(5):
            if (i, j) == (3, 0):
                continue
            assert a2.multiply(e[i], e[j]) == a3.multiply(e[i], e[j])


def test_builtin_rejects_unknown_name():
    with pytest.raises(InputError):
        builtin("pi4")


# -- bilinearity (structure constants define a bilinear product) ---------------

@settings(max_examples=30, deadline=None)
@given(coords, coords, coords, st.integers(-5, 5))
def test_multiply_is_bilinear(x, y, z, c):
    a = builtin("pi2")
    xs = tuple(map(Fraction, x))
    ys = tuple(map(Fraction, y))
    zs = tuple(map(Fraction, z))
    lhs = a.multiply(xs, tuple(c * v + w for v, w in zip(ys, zs)))
    rhs = tuple(
        c * p + q for p, q in zip(a.multiply(xs, ys), a.multiply(xs, zs))
    )
    assert lhs == rhs
    # Fraction inputs give canonical results: ints here, never Fraction(1, 1)
    for v in lhs + a.multiply(xs, ys) + a.multiply(xs, zs):
        assert type(v) is int or v.denominator > 1, repr(v)


def halves():
    """pi2 with the rational constants e1 e4 = e5/2 and e4 e4 = -3/4 e5."""
    table = dict(builtin("pi2").table)
    table[0, 3] = (0, 0, 0, 0, Fraction(1, 2))
    table[3, 3] = (0, 0, 0, 0, Fraction(-3, 4))
    return Algebra(name="halves", dim=5, table=table)


# dyadic rationals k/4: their sums and products here are exact in floats
dyadics = st.integers(-12, 12).map(lambda k: Fraction(k, 4))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["pi2", "pi3", "halves"]),
       st.lists(dyadics, min_size=25, max_size=25))
def test_multiplicativity_defects_agree_across_entry_types(name, values):
    algebra = halves() if name == "halves" else builtin(name)
    grid = locsym.local_derivations.generic_operator(5)
    point = dict(zip(locsym.local_derivations.output_symbols(5), values))
    member = [[e.evaluate(point) for e in row] for row in grid]
    exact = [(i, j, list(d)) for i, j, d in multiplicativity_defects(algebra, member)]
    assert len(exact) == 25
    symbolic = [(i, j, [e.evaluate(point) for e in d])
                for i, j, d in multiplicativity_defects(algebra, grid)]
    assert symbolic == exact
    numeric = [[complex(v) for v in row] for row in member]
    assert [(i, j, list(d)) for i, j, d in multiplicativity_defects(algebra, numeric)] == [
        (i, j, [complex(v) for v in d]) for i, j, d in exact]


@settings(max_examples=30, deadline=None)
@given(coords, coords)
def test_left_mult_operator_is_the_product(x, y):
    a = builtin("pi3")
    xs = tuple(map(Fraction, x))
    ys = tuple(map(Fraction, y))
    assert left_mult_operator(a, xs).apply(ys) == a.multiply(xs, ys)


# -- associativity -------------------------------------------------------------

def test_builtins_are_associative():
    assert is_associative(builtin("pi2"))
    assert is_associative(builtin("pi3"))
    assert is_associative(zero_algebra(4))


def test_broken_table_is_not_associative():
    # e1 e1 = e2, e1 e2 = e3, e2 e1 = 0 breaks (e1 e1) e1 = e1 (e1 e1)
    table = {(0, 0): (0, 1, 0), (0, 1): (0, 0, 1)}
    bad = Algebra(name="broken", dim=3, table=table)
    assert not is_associative(bad)


# -- filtration and nilpotency ---------------------------------------------------

@pytest.mark.parametrize("name", ["pi2", "pi3"])
def test_power_filtration_dims(name):
    f = power_filtration(builtin(name))
    assert f.dims == (5, 3, 1, 0)
    assert f.nilpotent
    assert f.nilindex == 4
    assert [s.dim for s in f.subspaces] == [5, 3, 1, 0]
    assert f.subspaces[1].contains(basis_vec(1))
    assert not f.subspaces[1].contains(basis_vec(0))


def test_zero_algebra_filtration():
    f = power_filtration(zero_algebra(3))
    assert f.dims == (3, 0)
    assert f.nilpotent and f.nilindex == 2


def test_a_non_associative_power_chain_can_stall_and_still_vanish():
    # e1e1 = e2, e2e2 = e3, e3e3 = e4: A^3 and A^4 are both span(e3, e4),
    # yet the 8-fold product ((e1e1)(e1e1))((e1e1)(e1e1)) = e4 is nonzero
    a = tri4()
    e1 = basis_vec(0, 4)
    square = a.multiply(e1, e1)
    fourth = a.multiply(square, square)
    assert a.multiply(fourth, fourth) == basis_vec(3, 4)
    f = power_filtration(a)
    assert f.dims == (4, 3, 2, 2, 1, 1, 1, 1, 0)
    assert f.nilpotent and f.nilindex == 9


def test_a_non_nilpotent_chain_runs_past_a_temporary_plateau():
    # tri4 plus an idempotent e5: A^3 = A^4, but A^5 is smaller, and the
    # chain settles only at A^9 = A^10 = ... (checked through A^20)
    table = {(0, 0): (0, 1, 0, 0, 0), (1, 1): (0, 0, 1, 0, 0),
             (2, 2): (0, 0, 0, 1, 0), (4, 4): (0, 0, 0, 0, 1)}
    f = power_filtration(Algebra(name="tri4-idem", dim=5, table=table))
    assert f.dims == (5, 4, 3, 3, 2, 2, 2, 2, 1, 1)
    assert not f.nilpotent and f.nilindex is None
    assert f.subspaces[-1].contains(basis_vec(4))


def test_an_idempotent_is_not_nilpotent():
    a = Algebra(name="idem", dim=2, table={(0, 0): (1, 0)})
    f = power_filtration(a)
    assert not f.nilpotent and f.nilindex is None
    with pytest.raises(InputError):
        characteristic_sequence(a)


@pytest.mark.parametrize("name", ["pi2", "pi3"])
def test_characteristic_sequence(name):
    assert characteristic_sequence(builtin(name)) == (3, 2)


def generic_jordan_type(algebra):
    """Jordan type of L_x at symbolic x, from sympy ranks over Q(x)."""
    n = algebra.dim
    xs = sympy.symbols(f"x1:{n + 1}")
    op = sympy.zeros(n, n)
    for i, j, k, c in algebra.terms:
        op[k, j] += xs[i] * sympy.Rational(c.numerator, c.denominator)
    op = DomainMatrix.from_Matrix(op).convert_to(sympy.QQ.frac_field(*xs))
    ranks, power = [n], op
    while ranks[-1]:
        ranks.append(power.rank())
        power = power * op
    # ranks[k-1] - ranks[k] blocks have size >= k: the conjugate partition
    conjugate = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    return tuple(
        sum(1 for c in conjugate if c >= size)
        for size in range(1, conjugate[0] + 1)
    )


def rebased_solve_copies():
    return [a for name, a in make_cycle(1, 0) if name.startswith("iso")]


@pytest.mark.parametrize(
    "algebra", [*rebased_solve_copies(), tri4()], ids=lambda a: a.name
)
def test_characteristic_sequence_is_the_generic_jordan_type(algebra):
    assert characteristic_sequence(algebra) == generic_jordan_type(algebra)


def test_characteristic_sequence_draws_no_random_number(monkeypatch):
    def draw(*_):
        raise AssertionError("a random number was drawn")

    monkeypatch.setattr(random.Random, "random", draw)
    monkeypatch.setattr(random.Random, "getrandbits", draw)
    assert characteristic_sequence(builtin("pi3")) == (3, 2)
    for module in (locsym.algebra, locsym.stratify, locsym.local_derivations):
        assert "random" not in vars(module)


# -- serialization ----------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    path = str(tmp_path / "alg.json")
    a = builtin("pi3")
    save_algebra(path, a)
    b = load_algebra(path)
    assert b.dim == a.dim
    assert dict(b.table) == dict(a.table)
    assert is_associative(b)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "table": {"0,0": [1]}}))
    with pytest.raises(InputError):
        load_algebra(str(path))


def test_get_algebra_dispatch(tmp_path):
    assert get_algebra("pi2").name == "pi2"
    path = str(tmp_path / "alg.json")
    save_algebra(path, builtin("pi2"))
    assert get_algebra(path).dim == 5
    with pytest.raises((InputError, FileNotFoundError)):
        get_algebra("no_such_algebra")
