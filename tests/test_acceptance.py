"""Acceptance battery: the eleven machine-checked claims, one line each.

The full battery is computed once per session; each criterion then
reports as its own test with the canonical PASS/FAIL line, so a failure
names the violated claim directly.  The same battery backs the `suite`
CLI subcommand.
"""

import pytest

from locsym import acceptance
from locsym.acceptance import CRITERIA, run_suite

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


@pytest.fixture(scope="module")
def suite():
    return run_suite(seed=ACCEPTANCE_SEED)


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


def test_cheap_criteria_are_seed_deterministic():
    # determinism spot check on the fast criteria; the full battery is
    # exercised once above, and the CLI seeds route through the same path
    for criterion in (CRITERIA[1], CRITERIA[8], CRITERIA[9]):
        first = criterion(seed=42)
        second = criterion(seed=42)
        assert first.to_dict() == second.to_dict()


def test_a_crashed_criterion_keeps_its_title(monkeypatch):
    def crash(seed=0):
        raise RuntimeError("boom")

    monkeypatch.setattr(acceptance, "CRITERIA", (crash,) * len(CRITERIA))
    crashed = run_suite(seed=0).results
    assert [r.title for r in crashed] == list(acceptance.TITLES)
    assert not any(r.passed for r in crashed)
    assert crashed[0].detail == "raised RuntimeError: boom"
    # the crashed titles are the ones the criteria report when they run
    for index in (1, 8, 9):
        assert crashed[index].title == CRITERIA[index](seed=0).title
