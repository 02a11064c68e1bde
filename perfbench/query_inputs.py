"""Seeded CLI call mix for the `query` workload.

One cycle runs every subcommand below once on pi2 and once on pi3, in a
seeded order, each call with its own seed.  Operator inputs are written
as JSON files into the benchmark's work directory:

* `member`: a random automorphism (small integer parameters), checked
  here to be multiplicative and invertible, so `aut check` and
  `locaut check` must exit 0;
* `refuted`: phi * B * psi for random automorphisms phi, psi and the
  paper's pinned non-local-automorphism B (b22 -> 2 on pi3, b44 -> 3 on
  pi2).  It is neither an automorphism nor a local automorphism, since
  Aut acts on LocAut from both sides, so `aut check`, `locaut check`
  and `locaut witness` must exit 1;
* `locder`: a multiple of the paper's strict-inclusion witness (E11+E44
  on pi2, E21 on pi3) for `exp`.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from locsym.algebra import builtin
from locsym.automorphisms import automorphism_family, random_member
from locsym.linalg import Matrix, save_operator

from solve_inputs import _apply, _inverse, _product

SCHEMA = "locsym-report/1"
N = 5


def _unit_matrix(entries: dict) -> Matrix:
    return Matrix([[entries.get((i, j), int(i == j)) for j in range(N)] for i in range(N)])


PINNED = {"pi3": _unit_matrix({(1, 1): 2}), "pi2": _unit_matrix({(3, 3): 3})}
WITNESS = {
    "pi2": {(0, 0): 1, (3, 3): 1},
    "pi3": {(1, 0): 1},
}

# (argv before the shared flags, operator kind or None, expected exit code)
COMMANDS = (
    (("algebra", "check"), None, 0),
    (("der", "basis"), None, 0),
    (("locder", "basis"), None, 0),
    (("locder", "witness"), None, 0),
    (("aut", "check"), "member", 0),
    (("aut", "check"), "refuted", 1),
    (("locaut", "check"), "member", 0),
    (("locaut", "check"), "refuted", 1),
    (("locaut", "witness"), "refuted", 1),
    (("exp",), "locder", 0),
    (("bridge",), None, 0),
    (("infer",), None, 0),
    (("report", "geometry"), None, 0),
)


def is_automorphism(name: str, phi: Matrix) -> bool:
    """Independent check: phi(e_i e_j) = phi(e_i) phi(e_j), phi invertible."""
    algebra = builtin(name)
    basis = [[Fraction(int(t == s)) for t in range(N)] for s in range(N)]
    images = [_apply(phi.rows, e) for e in basis]
    for i in range(N):
        for j in range(N):
            lhs = _apply(phi.rows, _product(algebra, basis[i], basis[j]))
            if lhs != _product(algebra, images[i], images[j]):
                return False
    return _inverse([list(row) for row in phi.rows]) is not None


def _operator(kind: str, name: str, rng: random.Random) -> Matrix:
    if kind == "locder":
        scale = rng.choice((-2, -1, 1, 2))
        return Matrix([
            [scale * WITNESS[name].get((i, j), 0) for j in range(N)] for i in range(N)
        ])
    family = automorphism_family(builtin(name))
    phi = random_member(family, rng, bound=3)
    if not is_automorphism(name, phi):
        raise RuntimeError(f"automorphism family of {name} produced a non-automorphism")
    if kind == "member":
        return phi
    psi = random_member(family, rng, bound=3)
    return phi * PINNED[name] * psi


def make_cycle(seed: int, cycle: int, workdir: Path) -> list[tuple[list[str], int]]:
    """(CLI argv, expected exit code) for every call of one cycle."""
    rng = random.Random(f"query-{seed}-{cycle}")
    calls = []
    for name in ("pi2", "pi3"):
        for words, kind, expected in COMMANDS:
            argv = [*words, "--algebra", name, "--format", "structured",
                    "--seed", str(rng.randrange(2**32))]
            if kind is not None:
                path = workdir / f"c{cycle}-{len(calls)}-{kind}-{name}.json"
                save_operator(str(path), _operator(kind, name, rng))
                argv += ["--matrix", str(path)]
            calls.append((argv, expected))
    rng.shuffle(calls)
    return calls


def check(expected: int, returncode: int, stdout: str) -> str | None:
    """None when the call exited as expected with a well-formed report."""
    if returncode != expected:
        return f"exit code {returncode}, expected {expected}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "structured output is not one JSON object"
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        return f"structured output lacks schema {SCHEMA}"
    if report.get("exit_code") != returncode:
        return "report exit_code differs from the process exit code"
    return None
