"""Geometry of the local-automorphism matrix sets.

The machine-checkable facts are the pattern dimension (rank of the
free-coordinate projection of the pattern) and, for two-branch
patterns, exact branch disjointness: the branch relations conflict
wherever the pattern's open conditions hold.  The smoothness of the
parametrizing charts and the conclusion drawn from connectedness are
prose arguments; the report reproduces them labeled "asserted, not
machine-checked" rather than claiming to verify them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import Algebra
from .errors import InternalCheckError
from .local_automorphisms import LocAutPattern, locaut_pattern
from .poly import unit_times_powers


@dataclass(frozen=True)
class GeometryReport:
    algebra: str
    dim: int
    components: int
    lie_group: bool
    rationale: str

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "dim": self.dim,
            "components": self.components,
            "lie_group": self.lie_group,
            "rationale": self.rationale,
        }


def branch_disjointness(pattern: LocAutPattern) -> bool:
    """Exact: distinct branches cannot be satisfied simultaneously.

    Every entry where two branch templates differ must differ by a unit
    times powers of the open conditions; such a difference cannot vanish
    on the pattern domain, so no matrix lies on both branches.
    """
    for first, second in itertools.combinations(pattern.templates, 2):
        gaps = [
            a - b
            for row_a, row_b in zip(first.entries, second.entries)
            for a, b in zip(row_a, row_b)
            if a != b
        ]
        if not gaps or not all(unit_times_powers(g, first.nonzero) for g in gaps):
            return False
    return True


def geometry_report(algebra: Algebra) -> GeometryReport:
    """Dimension, component count and Lie-group verdict of LocAut."""
    pattern = locaut_pattern(algebra)
    dim = pattern.dimension()
    components = len(pattern.branches)
    if not branch_disjointness(pattern):
        raise InternalCheckError(
            "branch disjointness probe failed on a builtin pattern"
        )
    if components == 1:
        rationale = (
            f"the matrix set is one affine chart of rank {dim} in the "
            f"free coordinates; the chart is an embedding, hence the set "
            f"is a smooth submanifold of dimension {dim} (smoothness "
            f"asserted, not machine-checked) and the group is a Lie group"
        )
        verdict = True
    else:
        rationale = (
            f"the matrix set splits into {components} branches, each a "
            f"polynomial chart of rank {dim}; the branches are disjoint "
            f"because their relations conflict wherever b11 is nonzero "
            f"(checked exactly), and the union of the two disjoint "
            f"pieces is asserted, not machine-checked, to fail to be a "
            f"smooth manifold, so the group is not a Lie group"
        )
        verdict = False
    return GeometryReport(
        algebra=algebra.name,
        dim=dim,
        components=components,
        lie_group=verdict,
        rationale=rationale,
    )
