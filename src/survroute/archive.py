"""Nondominated archive with bounded-capacity reduction, plus Pareto ranking helpers.

The archive is a value: every operation returns a new archive. Members are
kept in canonical order (objectives lexicographic, then genotype key) so a
run's archive iterates identically regardless of insertion history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .errors import ConfigError, ContractViolation
from .moo import CandidateSolution

REDUCTION_OPERATORS = ("crowding_seq", "crowding_batch")


@dataclass(frozen=True)
class NondominatedArchive:
    """Mutually nondominated solutions, at most ``capacity`` of them (None = unbounded)."""

    members: tuple[CandidateSolution, ...]
    capacity: int | None = None

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def objective_matrix(self) -> np.ndarray:
        if not self.members:
            return np.zeros((0, 0), dtype=np.float64)
        return np.array([m.objectives.values for m in self.members], dtype=np.float64)

    def objective_set(self) -> set[tuple[float, ...]]:
        return {m.objectives.values for m in self.members}


def _canonical(members: Iterable[CandidateSolution]) -> tuple[CandidateSolution, ...]:
    return tuple(sorted(members, key=lambda s: s.sort_key()))


def _check_uniform_length(solutions: Sequence[CandidateSolution]) -> None:
    lengths = {len(s.objectives) for s in solutions}
    if len(lengths) > 1:
        raise ContractViolation(f"mixed objective lengths in archive input: {sorted(lengths)}")


def nondom(
    solutions: Iterable[CandidateSolution], capacity: int | None = None
) -> NondominatedArchive:
    """Archive of the input's nondominated members, genotype duplicates collapsed.

    If ``capacity`` is given and exceeded, the default crowding reduction is
    applied so the returned archive satisfies its own invariant.
    """
    if capacity is not None and capacity < 1:
        raise ConfigError(f"archive capacity must be >= 1, got {capacity}")
    unique: dict[str, CandidateSolution] = {}
    for s in sorted(solutions, key=lambda s: s.sort_key()):
        unique.setdefault(s.genotype_key, s)
    pool = list(unique.values())
    _check_uniform_length(pool)
    if pool:
        F = np.array([s.objectives.values for s in pool], dtype=np.float64)
        mask = kernels.nondominated_mask(F)
        pool = [s for s, keep in zip(pool, mask) if keep]
    arch = NondominatedArchive(members=_canonical(pool), capacity=capacity)
    if capacity is not None and len(arch) > capacity:
        arch = reduce(arch)
    return arch


def insert(
    archive: NondominatedArchive, s: CandidateSolution, policy: str = "crowding_seq"
) -> tuple[NondominatedArchive, bool]:
    """Insert one solution; returns (new archive, accepted).

    Rejected when dominated by a member or when its genotype is already
    present. On acceptance, members the newcomer dominates are dropped and
    the ``policy`` reduction runs if capacity is exceeded.
    """
    members = archive.members
    if members and len(members[0].objectives) != len(s.objectives):
        raise ContractViolation(
            f"objective length mismatch: archive {len(members[0].objectives)}, insert {len(s.objectives)}"
        )
    for m in members:
        if m.genotype_key == s.genotype_key:
            return archive, False
    sv = s.objectives.as_array()
    if members:
        F = archive.objective_matrix()
        if bool(kernels.dominance(F, sv).any()):
            return archive, False
        dominated = kernels.dominance(sv, F)
        survivors = [m for m, gone in zip(members, dominated) if not gone]
    else:
        survivors = []
    survivors.append(s)
    out = NondominatedArchive(members=_canonical(survivors), capacity=archive.capacity)
    if archive.capacity is not None and len(out) > archive.capacity:
        out = reduce(out, policy)
    return out, True


def crowding(members: Sequence[CandidateSolution]) -> np.ndarray:
    """Crowding distance of each member within this (front-level) group."""
    if not members:
        return np.zeros(0)
    F = np.array([m.objectives.values for m in members], dtype=np.float64)
    return kernels.crowding_distance(F)


def _extreme_witnesses(members: Sequence[CandidateSolution]) -> set[int]:
    """One member index per objective: the minimizer (ties: canonically smallest)."""
    protected: set[int] = set()
    n_obj = len(members[0].objectives)
    for i in range(n_obj):
        best = min(range(len(members)), key=lambda k: (members[k].objectives[i], members[k].sort_key()))
        protected.add(best)
    return protected


def _removal_order(members: Sequence[CandidateSolution], dist: np.ndarray, candidates: list[int]) -> list[int]:
    # smallest crowding removed first; ties drop the canonically largest member
    order = sorted(candidates, key=lambda i: members[i].sort_key(), reverse=True)
    return sorted(order, key=lambda i: dist[i])


def reduce(archive: NondominatedArchive, policy: str = "crowding_seq") -> NondominatedArchive:
    """Truncate to capacity by crowding distance, keeping per-objective extremes.

    ``crowding_seq`` removes the least-crowded member one at a time with
    recomputation; ``crowding_batch`` ranks once and removes the overflow in
    a single pass. Extreme witnesses are protected whenever capacity >= 2
    (possible as long as they fit; with capacity 1 the lexicographically
    smallest member survives).
    """
    if policy not in REDUCTION_OPERATORS:
        raise ConfigError(f"unknown reduction operator {policy!r}")
    capacity = archive.capacity
    if capacity is None or len(archive) <= capacity:
        return archive
    if capacity < 1:
        raise ConfigError(f"archive capacity must be >= 1, got {capacity}")

    members = list(archive.members)

    def removal_candidates(current: list[CandidateSolution]) -> list[int]:
        if capacity >= 2:
            protected = _extreme_witnesses(current)
            if len(protected) < len(current):
                return [i for i in range(len(current)) if i not in protected]
            # every member is an extreme witness (degenerate): fall through
        return list(range(len(current)))

    if policy == "crowding_batch":
        excess = len(members) - capacity
        dist = crowding(members)
        order = _removal_order(members, dist, removal_candidates(members))
        doomed = set(order[:excess])
        members = [m for i, m in enumerate(members) if i not in doomed]
    # crowding_seq removes one at a time; crowding_batch gets here only when
    # protection left fewer removable members than the overflow, and then
    # every member left is an extreme witness, so all are candidates
    while len(members) > capacity:
        dist = crowding(members)
        order = _removal_order(members, dist, removal_candidates(members))
        del members[order[0]]

    return NondominatedArchive(members=_canonical(members), capacity=capacity)


def pareto_ranks(F: np.ndarray) -> np.ndarray:
    """Nondominated-sorting rank (0 = best front) for each row of F."""
    n = F.shape[0]
    ranks = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return ranks
    dom = kernels.dominance_matrix(np.asarray(F, dtype=np.float64))
    dominators = dom.sum(axis=0).astype(np.int64)
    current = 0
    remaining = n
    while remaining > 0:
        front = (dominators == 0) & (ranks < 0)
        if not front.any():  # pragma: no cover - dominance is acyclic
            raise AssertionError("non-dominated sort failed to make progress")
        ranks[front] = current
        dominators -= dom[front].sum(axis=0)
        dominators[front] = -1
        remaining -= int(front.sum())
        current += 1
    return ranks


def rank_and_crowding(solutions: Sequence[CandidateSolution]) -> tuple[np.ndarray, np.ndarray]:
    """Pareto rank plus within-front crowding distance for a solution list."""
    n = len(solutions)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    F = np.array([s.objectives.values for s in solutions], dtype=np.float64)
    ranks = pareto_ranks(F)
    crowd = np.zeros(n)
    for r in np.unique(ranks):
        idx = np.flatnonzero(ranks == r)
        crowd[idx] = kernels.crowding_distance(F[idx])
    return ranks, crowd


def survival_order(solutions: Sequence[CandidateSolution]) -> list[int]:
    """Indices sorted best-first: rank asc, crowding desc, canonical key asc."""
    ranks, crowd = rank_and_crowding(solutions)
    return sorted(
        range(len(solutions)),
        key=lambda i: (int(ranks[i]), -crowd[i], solutions[i].sort_key()),
    )
