"""Front quality indicators: exact 2-D hypervolume, additive epsilon, coverage.

Hypervolume drives the engine's stagnation detection and IMM credit;
epsilon and coverage are reporting-only indicators. Every indicator reads
its fronts through ``_points``, which gives (z1, z2) float pairs and
rejects a point without exactly two finite components, and then runs in
plain Python. Both hypervolume functions clip or reject the points at or
beyond the reference, then make one ``kernels.hv2d_sweep`` over the sorted
pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import kernels
from .errors import ContractViolation
from .moo import ObjectiveVector


@dataclass(frozen=True)
class ReferencePoint:
    """Hypervolume reference of two components; must be strictly worse than every front member."""

    values: tuple[float, float]

    def __init__(self, values: Sequence[float]):
        object.__setattr__(self, "values", tuple(float(v) for v in values))
        if len(self.values) != 2:
            raise ContractViolation(f"reference point must have 2 components, got {len(self.values)}")

    def __len__(self) -> int:
        return len(self.values)


def _points(front: Iterable) -> list[tuple[float, float]]:
    """The front's points as (z1, z2) float pairs; ``ObjectiveVector`` checks any point that is not one."""
    return [(p if isinstance(p, ObjectiveVector) else ObjectiveVector(p)).values for p in front]


def _hypervolume(front: Iterable, ref, clip: bool) -> float:
    r0, r1 = (ref if isinstance(ref, ReferencePoint) else ReferencePoint(ref)).values
    points = []
    for z in _points(front):
        if z[0] < r0 and z[1] < r1:
            points.append(z)
        elif not clip:
            raise ContractViolation(f"reference point {(r0, r1)} is not strictly dominated by front point {z}")
    return kernels.hv2d_sweep(sorted(points), r0, r1)


def hypervolume(front: Iterable, ref) -> float:
    """Exact hypervolume of a 2-objective front vs a 2-component reference point.

    Every front member must strictly dominate the reference in both
    components, else the call is rejected.
    """
    return _hypervolume(front, ref, clip=False)


def hypervolume_clipped(front: Iterable, ref) -> float:
    """Hypervolume of the subset strictly dominating the reference.

    Points at or beyond the reference contribute nothing instead of raising;
    this is the progress-trace variant used inside the engine, where late
    archive entries may fall outside the frozen reference box.
    """
    return _hypervolume(front, ref, clip=True)


def additive_epsilon(approx: Iterable, reference_front: Iterable) -> float:
    """Smallest shift after which the approximation weakly dominates the reference.

    max over reference points of min over approx points of max-coordinate
    difference (approx - reference). Signed: negative means the approximation
    strictly improves on the reference front.
    """
    A = _points(approx)
    R = _points(reference_front)
    if not A:
        raise ContractViolation("approximation front is empty")
    if not R:
        raise ContractViolation("reference front is empty")
    return max(min(max(a1 - r1, a2 - r2) for a1, a2 in A) for r1, r2 in R)


def coverage(a: Iterable, b: Iterable) -> float:
    """Fraction of b's points weakly dominated by at least one point of a."""
    A = _points(a)
    B = _points(b)
    if not A or not B:
        raise ContractViolation("coverage requires non-empty fronts")
    covered = sum(any(a1 <= b1 and a2 <= b2 for a1, a2 in A) for b1, b2 in B)
    return covered / len(B)
