"""Acceptance battery: the eleven machine-checked claims, one line each.

The full battery is computed once per session; each criterion then
reports as its own test with the canonical PASS/FAIL line, so a failure
names the violated claim directly.  The same battery backs the `suite`
CLI subcommand.
"""

import fractions
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import locsym
from locsym import (
    StratificationError,
    acceptance,
    linalg,
    local_automorphisms,
    poly as poly_module,
    rationals,
    templates,
)
from locsym.acceptance import CRITERIA, builtin_spaces, run_suite
from locsym.algebra import Algebra
from locsym.cli import main
from locsym.poly import poly

TITLES = [
    "01-structure-diagnostics",
    "02-derivation-dimensions",
    "03-local-derivation-spaces",
    "04-strict-inclusion-witnesses",
    "05-lie-closure",
    "06-automorphism-family",
    "07-local-automorphism-pattern",
    "08-exponential-bridge",
    "09-entry-series",
    "10-group-geometry",
    "11-shape-inference",
]

ACCEPTANCE_SEED = 0

# The directory that holds the imported package, for a child interpreter.
SRC_DIR = str(Path(locsym.__file__).resolve().parent.parent)

# the arguments of every LocDer solve the battery fixture makes
SOLVES = []
# calls of the pointwise LocAut kernels during the battery, by name
CALLS = Counter()


@pytest.fixture(scope="module")
def suite():
    solve = acceptance.local_derivation_space

    def counted(*args, **kwargs):
        SOLVES.append(args)
        return solve(*args, **kwargs)

    def tally(fn):
        def wrapper(*args, **kwargs):
            CALLS[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(acceptance, "local_derivation_space", counted)
        # every module global bound to a kernel, so no call site is missed
        for fn in (local_automorphisms.locaut_feasible_at,
                   local_automorphisms.find_witness):
            for module in (local_automorphisms, acceptance):
                if getattr(module, fn.__name__, None) is fn:
                    patch.setattr(module, fn.__name__, tally(fn))
        return run_suite(seed=ACCEPTANCE_SEED)


@pytest.fixture(scope="module")
def spaces():
    return builtin_spaces()


@pytest.mark.parametrize("index", range(len(TITLES)), ids=TITLES)
def test_criterion(suite, index):
    result = suite.results[index]
    print(result.line())
    assert result.passed, result.line()


def test_all_criteria_counted(suite):
    # the battery covers every registered criterion, numbered in order
    assert len(suite.results) == len(CRITERIA) == 11
    assert [r.number for r in suite.results] == list(range(1, 12))
    summary = suite.lines()[-1]
    print(summary)
    assert summary.startswith("11/11")


def test_locder_is_solved_once_per_builtin(suite):
    assert [args[0].name for args in SOLVES] == ["pi2", "pi3"]


def test_criterion_7_proves_both_halves_without_sampling(suite):
    # Both halves are proved from the orbit solves (10 leaves on pi2, 7 on
    # pi3): the forward half for all three templates, the reverse half from
    # the solve's relations and their split.  Only the two pinned witnesses
    # call the pointwise kernel, once each to confirm the refuting point.
    assert CALLS == {"locaut_feasible_at": 2, "find_witness": 2}
    detail = suite.results[6].detail
    for name, templates, leaves, relations, split in (
            ("pi2", "1 template", 10, 20, "1 leaf"),
            ("pi3", "2 templates", 7, 32, "2 leaves")):
        assert (f"{name}: the members of {templates} match an automorphism at "
                f"every x over C, proved on the {leaves} leaves of the orbit solve; "
                f"every local automorphism is a member, proved from the {relations} "
                f"relations of the orbit solve on the {split} of their split"
                in detail)
    assert "sampled" not in detail


@pytest.mark.parametrize("seed", (1, 2, 3, 4, 97, 351, 498, 953, 2 ** 64 - 1))
def test_the_battery_passes_at_other_seeds(suite, seed):
    # Every criterion is a proof or a pinned check, so the seed only labels
    # the report: the benchmark's seeds seed, seed + 1, ... all see the
    # battery of seed 0 (criterion 9 once failed at 351, 498 and 953 on
    # float cancellation, when it sampled).
    assert dict(run_suite(seed=seed).to_dict(), seed=None) == dict(
        suite.to_dict(), seed=None)


# Work of the exact kernel in one warm seed-0 battery, as recorded in
# CHANGES.md: Polys built by the checked public constructor, and Fractions
# constructed by linalg code (directly or through rationals).
CHECKED_POLYS = 1421
LINALG_FRACTIONS = 1901
# Poly.by_degree calls in the same battery: long division reads the
# divisor and each step's remainder by degree, and a one-term divisor
# (1,583 of the battery's 1,812 divisions) does not divide that way
BY_DEGREE_CALLS = 836


def test_a_battery_builds_few_checked_polys_and_linalg_fractions(monkeypatch):
    # a count, not a clock: a kernel that builds more Fractions or
    # re-checks its own results fails here on any machine
    assert run_suite(seed=0).ok  # the counted battery runs warm
    counts = Counter()
    init = poly_module.Poly.__init__
    new = Fraction.__new__
    passed = {fractions.__file__, rationals.__file__}

    def checked(self, *args, **kwargs):
        counts["poly"] += 1
        init(self, *args, **kwargs)

    def constructed(cls, *args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_code.co_filename in passed:
            frame = frame.f_back
        counts["linalg"] += frame.f_code.co_filename == linalg.__file__
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(poly_module.Poly, "__init__", checked)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(constructed))
    assert run_suite(seed=0).ok
    assert counts["poly"] <= CHECKED_POLYS
    assert counts["linalg"] <= LINALG_FRACTIONS


def test_a_battery_divides_by_one_term_without_long_division(monkeypatch):
    # a count, not a clock: one-term divisors sent back through long
    # division read about four times as many polynomials by degree
    assert run_suite(seed=0).ok
    calls = Counter()
    by_degree = poly_module.Poly.by_degree

    def counted(self, var):
        calls["by_degree"] += 1
        return by_degree(self, var)

    monkeypatch.setattr(poly_module.Poly, "by_degree", counted)
    assert run_suite(seed=0).ok
    assert calls["by_degree"] <= BY_DEGREE_CALLS


def test_a_passing_battery_draws_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a passing battery sampled")

    # every draw of every Random instance goes through one of these two
    monkeypatch.setattr(random.Random, "random", forbidden)
    monkeypatch.setattr(random.Random, "getrandbits", forbidden)
    assert run_suite(seed=0).ok


def test_a_passing_battery_leaves_numpy_unloaded():
    # only the float kernels need numpy, and a passing battery calls none
    code = ("import sys; from locsym.acceptance import run_suite; "
            "assert run_suite(0).ok; print('numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC_DIR, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_a_crashed_criterion_keeps_its_title(monkeypatch, spaces):
    def crash(spaces):
        raise RuntimeError("boom")

    monkeypatch.setattr(acceptance, "CRITERIA", (crash,) * len(CRITERIA))
    crashed = run_suite(seed=0).results
    assert [r.title for r in crashed] == list(acceptance.TITLES)
    assert not any(r.passed for r in crashed)
    assert crashed[0].detail == "raised RuntimeError: boom"
    # the crashed titles are the ones the criteria report when they run
    for index in (1, 8, 9):
        assert crashed[index].title == CRITERIA[index](spaces).title


def test_a_failed_solve_fails_every_criterion(monkeypatch):
    def refuse(algebra):
        raise StratificationError("pivot does not split")

    monkeypatch.setattr(acceptance, "local_derivation_space", refuse)
    crashed = run_suite(seed=0).results
    assert [r.title for r in crashed] == list(acceptance.TITLES)
    assert not any(r.passed for r in crashed)
    assert {r.detail for r in crashed} == {
        "raised StratificationError: pivot does not split"
    }


def test_a_changed_locder_template_fails_criterion_3(monkeypatch, spaces):
    # criterion 3 compares the solved space with the closed form, so a
    # wrong entry in the form (pi3's b22 = 2 b11 made 3 b11) must show
    pi3 = spaces["pi3"].algebra
    forms = templates.closed_forms(pi3)
    rows = [list(row) for row in forms.local_derivation.entries]
    rows[1][1] = poly("3*b11")
    monkeypatch.setitem(templates._CLOSED_FORMS, pi3.structure, replace(
        forms, local_derivation=replace(forms.local_derivation,
                                        entries=tuple(map(tuple, rows)))))
    result = acceptance.criterion_3(spaces)
    assert not result.passed
    assert result.detail == "LocDer(pi3) differs from its closed-form template"


def test_a_dropped_der_basis_vector_fails_criterion_2(spaces):
    # pi2's Der without its first basis vector: 6 dimensions, and a span
    # that no longer equals the closed form's
    ders = spaces["pi2"].derivations
    short = replace(ders, basis=ders.basis[1:])
    result = acceptance.criterion_2({**spaces, "pi2": replace(spaces["pi2"],
                                                              derivations=short)})
    assert not result.passed
    assert result.line() == (
        "FAIL  criterion  2  derivation spaces: dim Der(pi2) = 6, expected 7; "
        "Der(pi2) differs from its closed-form template")


def test_a_changed_der_template_fails_criterion_2(monkeypatch, spaces):
    # pi3's Der form with (3,2) = a21 instead of 2*a21: the dimension
    # stays 6, but the solved Der is not the form's span
    pi3 = spaces["pi3"].algebra
    forms = templates.closed_forms(pi3)
    rows = [list(row) for row in forms.derivation.entries]
    rows[2][1] = poly("a21")
    monkeypatch.setitem(templates._CLOSED_FORMS, pi3.structure, replace(
        forms, derivation=replace(forms.derivation, entries=tuple(map(tuple, rows)))))
    result = acceptance.criterion_2(spaces)
    assert not result.passed
    assert result.detail == "Der(pi3) differs from its closed-form template"


def test_a_space_that_is_not_bracket_closed_fails_criterion_5(spaces):
    # [E12, E21] = E11 - E22 lies outside the span of E12 and E21
    def unit(i, j):
        return linalg.Matrix([[int((r, c) == (i, j)) for c in range(5)] for r in range(5)])

    broken = replace(spaces["pi2"], basis=(unit(0, 1), unit(1, 0)))
    result = acceptance.criterion_5({**spaces, "pi2": broken})
    assert not result.passed
    assert result.line() == "FAIL  criterion  5  Lie closure: bracket left LocDer(pi2)"


def test_a_non_associative_table_fails_criterion_1(spaces):
    # pi2 without e2 e1 = e3: Algebra.multiply reads (e1 e1) e1 = 0 but
    # e1 (e1 e1) = e3, while the filtration (5,3,1,0), nilindex 4 and
    # characteristic sequence (3,2) stay as they are
    pi2 = spaces["pi2"].algebra
    table = {key: row for key, row in pi2.table.items() if key != (1, 0)}
    broken = replace(spaces["pi2"], algebra=Algebra(name="pi2", dim=5, table=table))
    result = acceptance.criterion_1({**spaces, "pi2": broken})
    assert not result.passed
    assert result.line() == (
        "FAIL  criterion  1  structure diagnostics: pi2 is not associative")


def test_a_non_multiplicative_aut_template_fails_criterion_6(
    monkeypatch, spaces, mutant
):
    # pi2's automorphism template with (5,2) = a11*a41: its multiplicativity
    # defects do not vanish, so a member is no automorphism
    pi2 = spaces["pi2"].algebra
    template = mutant("pi2", "pi2", {(5, 2): "a11*a41"}).template
    monkeypatch.setitem(templates._CLOSED_FORMS, pi2.structure, replace(
        templates.closed_forms(pi2), automorphism=template))
    result = acceptance.criterion_6(spaces)
    assert not result.passed
    assert result.line() == (
        "FAIL  criterion  6  automorphism families: verify_family(pi2): a member "
        "of the family is no automorphism; group closure(pi2): a product of "
        "members of templates 1 and 1 is in none")


def test_a_passing_criterion_file_does_not_reproduce(tmp_path, capsys):
    path = tmp_path / "criterion.json"
    path.write_text(json.dumps({"kind": "criterion", "numbers": [2, 9], "seed": 0}))
    assert main(["verify-counterexample", str(path)]) == 1
    assert "did NOT reproduce" in capsys.readouterr().out
