"""Front quality indicators: exact 2-D hypervolume, additive epsilon, coverage.

Hypervolume drives the engine's stagnation detection and RED/IMM credit;
epsilon and coverage are reporting-only indicators. Both hypervolume
functions take one plain-Python path: check the points, clip or reject
those at or beyond the reference, then one ``kernels.hv2d_sweep`` over the
sorted pairs. Only epsilon and coverage use numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .errors import ContractViolation
from .moo import ObjectiveVector


@dataclass(frozen=True)
class ReferencePoint:
    """Hypervolume reference; must be strictly worse than every front member."""

    values: tuple[float, ...]

    def __init__(self, values: Sequence[float]):
        object.__setattr__(self, "values", tuple(float(v) for v in values))
        if len(self.values) < 1:
            raise ContractViolation("reference point must have at least one component")

    def __len__(self) -> int:
        return len(self.values)


def _front_matrix(front: Iterable) -> np.ndarray:
    rows = []
    for point in front:
        values = point.values if isinstance(point, ObjectiveVector) else tuple(point)
        rows.append([float(v) for v in values])
    if not rows:
        return np.zeros((0, 0), dtype=np.float64)
    if len({len(r) for r in rows}) != 1:
        raise ContractViolation("front mixes objective lengths")
    return np.asarray(rows, dtype=np.float64)


def _hypervolume(front: Iterable, ref, clip: bool) -> float:
    r = ref.values if isinstance(ref, ReferencePoint) else tuple(float(v) for v in ref)
    if len(r) != 2:
        raise ContractViolation(f"hypervolume takes 2 objectives, got a {len(r)}-component reference")
    r0, r1 = r
    points = []
    for point in front:
        values = point.values if isinstance(point, ObjectiveVector) else tuple(point)
        if len(values) != 2:
            raise ContractViolation(f"front has {len(values)} objectives, expected 2")
        z = (float(values[0]), float(values[1]))
        if z[0] < r0 and z[1] < r1:  # False for a NaN component
            points.append(z)
        elif not clip:
            raise ContractViolation(f"reference point {r} is not strictly dominated by front point {z}")
    return kernels.hv2d_sweep(sorted(points), r0, r1)


def hypervolume(front: Iterable, ref) -> float:
    """Exact hypervolume of a 2-objective front vs a 2-component reference point.

    Any other objective count raises ``ContractViolation``. Every front
    member must strictly dominate the reference in both components, else the
    call is rejected.
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
    A = _front_matrix(approx)
    R = _front_matrix(reference_front)
    if A.shape[0] == 0:
        raise ContractViolation("approximation front is empty")
    if R.shape[0] == 0:
        raise ContractViolation("reference front is empty")
    if A.shape[1] != R.shape[1]:
        raise ContractViolation(f"objective count mismatch: {A.shape[1]} vs {R.shape[1]}")
    diff = (A[:, None, :] - R[None, :, :]).max(axis=2)
    return float(diff.min(axis=0).max())


def coverage(a: Iterable, b: Iterable) -> float:
    """Fraction of b's points weakly dominated by at least one point of a."""
    A = _front_matrix(a)
    B = _front_matrix(b)
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ContractViolation("coverage requires non-empty fronts")
    if A.shape[1] != B.shape[1]:
        raise ContractViolation(f"objective count mismatch: {A.shape[1]} vs {B.shape[1]}")
    covered = (A[:, None, :] <= B[None, :, :]).all(axis=2).any(axis=0)
    return float(covered.sum() / B.shape[0])
