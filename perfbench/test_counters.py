"""The traced run's machine-independent counters repeat exactly at a seed.

    python3 -m pytest perfbench/test_counters.py            # about 7 minutes
    python3 -m pytest perfbench/test_counters.py -k query   # about 1 minute
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent

# Counters the benchmark promises to keep comparable across commits.
NAMED = (
    "local_automorphisms.locaut_feasible_at.calls",
    "automorphisms.is_automorphism.calls",
    "templates.template_match.calls",
    "stratify.solve_parametric.leaves",
    "derivations.derivation_algebra.calls_per_algebra",
)


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def counters(result: dict) -> dict:
    """Every count and count ratio; times and the overhead ratio vary."""
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] in ("count", "ratio") and not name.startswith("trace.")
    }


@pytest.mark.parametrize("workload", ("suite", "solve", "query"))
def test_counters_repeat_at_a_fixed_seed(workload):
    first, second = traced_run(workload, 7), traced_run(workload, 7)
    assert first["correct"] and second["correct"]
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert set(NAMED) <= set(counters(first))
    assert counters(first) == counters(second)
