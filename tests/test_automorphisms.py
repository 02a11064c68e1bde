"""Automorphism groups: closed families, verification, group laws."""

import json
import random
from fractions import Fraction

import pytest

from locsym import (
    Algebra,
    AutomorphismFamily,
    Matrix,
    MatrixTemplate,
    UnsupportedError,
    group_closure_report,
    is_automorphism,
    load_algebra,
    multiplicativity_residual,
    random_member,
    template_match,
    verify_family,
)
from locsym import automorphisms, templates
from locsym.automorphisms import multiplicativity_failure
from locsym.linalg import inverse, is_invertible
from locsym.poly import poly


def member(fam, seed=0, bound=5):
    return random_member(fam, random.Random(seed), bound=bound)


# -- membership ---------------------------------------------------------------

def test_identity_is_an_automorphism(pi2, pi3):
    assert is_automorphism(pi2, Matrix.identity(5))
    assert is_automorphism(pi3, Matrix.identity(5))


def test_family_members_are_automorphisms(pi2, fam2, pi3, fam3):
    for algebra, fam in ((pi2, fam2), (pi3, fam3)):
        for seed in range(5):
            phi = member(fam, seed)
            assert is_automorphism(algebra, phi)
            assert multiplicativity_residual(algebra, phi.rows) == 0.0


def test_non_automorphisms_are_rejected(pi2, pi3):
    swap = Matrix([
        [0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ])
    assert not is_automorphism(pi2, swap)
    assert not is_automorphism(pi3, swap)
    assert not is_automorphism(pi2, Matrix.zeros(5, 5))   # not invertible
    assert not is_automorphism(pi2, 2 * Matrix.identity(5))


def test_multiplicativity_failure_names_the_first_basis_pair(pi2, fam2):
    # doubling e4 first breaks e1 e4 = e5: phi(e5) = e5 but e1 (2 e4) = 2 e5
    doubled = Matrix.identity(5) + Matrix([
        [1 if (i, j) == (3, 3) else 0 for j in range(5)] for i in range(5)
    ])
    assert multiplicativity_failure(pi2, doubled) == (0, 3)
    assert multiplicativity_failure(pi2, 2 * Matrix.identity(5)) == (0, 0)
    # the zero map is multiplicative; only invertibility rejects it
    assert multiplicativity_failure(pi2, Matrix.zeros(5, 5)) is None
    assert multiplicativity_failure(pi2, member(fam2)) is None


def first_failure_by_brute_force(algebra, phi):
    """phi(e_i e_j) != phi(e_i) phi(e_j), scanned i outer, j inner."""
    n = algebra.dim
    images = phi.transpose().rows

    def product(x, y):
        out = [0] * n
        for i in range(n):
            for j in range(n):
                for k, c in enumerate(algebra.product_of_basis(i, j)):
                    out[k] += x[i] * y[j] * c
        return tuple(out)

    for i in range(n):
        for j in range(n):
            lhs = phi.apply(algebra.product_of_basis(i, j))
            if lhs != product(images[i], images[j]):
                return i, j
    return None


def test_multiplicativity_kernel_matches_brute_force(tmp_path, pi2, pi3, fam2, fam3):
    # pi2's products with two rational structure constants, from a file
    path = tmp_path / "halves.json"
    products = [(1, 1, 2, "1"), (1, 2, 3, "1"), (2, 1, 3, "1"),
                (1, 4, 5, "1/2"), (4, 1, 5, "1"), (4, 4, 5, "-3/4")]
    path.write_text(json.dumps({"name": "halves", "dim": 5, "products": [
        {"i": i, "j": j, "k": k, "c": c} for i, j, k, c in products
    ]}))
    halves = load_algebra(str(path))
    assert (0, 3, 4, Fraction(1, 2)) in halves.terms
    assert (3, 3, 4, Fraction(-3, 4)) in halves.terms
    rng = random.Random(8)
    outcomes = set()
    for fam in (fam2, fam3):
        for _ in range(40):
            phi = random_member(fam, rng)
            candidates = [phi]
            for _ in range(6):
                rows = [list(row) for row in phi.rows]
                delta = rng.choice((rng.randint(-9, 9) or 1,
                                    Fraction(rng.randint(1, 9), rng.randint(2, 9))))
                rows[rng.randrange(5)][rng.randrange(5)] += delta
                candidates.append(Matrix(rows))
            for candidate in candidates:
                for algebra in (pi2, pi3, halves):
                    expected = first_failure_by_brute_force(algebra, candidate)
                    assert multiplicativity_failure(algebra, candidate) == expected
                    outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_template_match_recovers_parameters(fam2):
    params = {p: Fraction(2) for p in fam2.template.params}
    phi = fam2.instantiate(params)
    assert fam2.match(phi) == params
    assert fam2.match(Matrix.identity(5)) is not None


# -- the family proof -------------------------------------------------------------

def test_verify_family_proves_both_builtins(fam2, fam3):
    for fam in (fam2, fam3):
        report = verify_family(fam)
        assert report.ok, report.detail
        assert report.counterexample is None
        assert report.detail.endswith("generators e1, e4 (case-split leaves: 1)")


def test_a_passing_proof_samples_nothing(monkeypatch, fam2, fam3):
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(automorphisms, "is_automorphism")
    counted(automorphisms, "random_parameters")
    counted(templates, "random_parameters")
    counted(random, "Random")
    assert all(verify_family(fam).ok for fam in (fam2, fam3))
    assert calls == []


MUTANTS = [
    # (table, template, changed entries, dropped parameters, open conditions,
    #  the direction that fails first)
    ("pi2", "pi2", {(5, 2): "a11*a41"}, (), None, "forward"),
    ("pi2", "pi2", {}, (), ("a11", "a11+a41", "a21"), "reverse"),
    ("pi2", "pi2", {}, (), ("a11",), "forward"),
    ("pi3", "pi3", {(5, 4): 0}, ("a54",), None, "reverse"),
    ("pi3", "pi3", {(4, 4): "-a11"}, (), None, "forward"),
    ("pi2", "pi3", {}, (), None, "reverse"),
    ("pi3", "pi2", {}, (), None, "forward"),
]


@pytest.mark.parametrize(
    "table, form, entries, drop, nonzero, direction", MUTANTS,
    ids=["pi2-52", "pi2-open-a21", "pi2-no-open-a11+a41", "pi3-a54-zero",
         "pi3-44-minus", "pi3-form-on-pi2", "pi2-form-on-pi3"],
)
def test_every_mutant_fails_with_a_counterexample(
    monkeypatch, mutant, table, form, entries, drop, nonzero, direction
):
    family = mutant(table, form, entries, drop, nonzero)
    if direction == "reverse":
        # the escaped automorphism is the generic map at a grid point
        # (stratify.reading_failure): nothing is drawn
        def draw(*_):
            raise AssertionError("a random number was drawn")

        monkeypatch.setattr(random.Random, "random", draw)
        monkeypatch.setattr(random.Random, "getrandbits", draw)
    report = verify_family(family)
    assert not report.ok
    phi = report.counterexample
    assert phi is not None
    if direction == "forward":
        assert report.detail == "a member of the family is no automorphism"
        assert template_match(family.template, phi) is not None
        assert (multiplicativity_failure(family.algebra, phi) is not None
                or not is_invertible(phi))
    else:
        assert report.detail == "an automorphism escapes the family"
        assert is_automorphism(family.algebra, phi)
        assert template_match(family.template, phi) is None


def test_images_not_fixed_by_generators_are_unsupported():
    # e1 e1 = e2 + e3: the generators are e1 and e2, and e3 is no product
    algebra = Algebra(name="split", dim=3, table={(0, 0): (0, 1, 1)})
    template = MatrixTemplate(
        dim=3, params=("a",),
        entries=tuple(tuple(poly(e) for e in row) for row in
                      (("a", 0, 0), (0, "a^2", 0), (0, 0, "a^2"))),
        nonzero=(poly("a"),),
    )
    with pytest.raises(UnsupportedError, match="one-term product"):
        verify_family(AutomorphismFamily(algebra, template))


def test_group_closure(fam2, fam3):
    for fam in (fam2, fam3):
        report = group_closure_report(fam)
        assert report.ok, report.detail


def test_products_and_inverses_explicitly(pi3, fam3):
    a = member(fam3, seed=1)
    b = member(fam3, seed=2)
    assert is_automorphism(pi3, a * b)
    assert is_automorphism(pi3, inverse(a))
    assert fam3.match(a * b) is not None
    assert fam3.match(inverse(a)) is not None

