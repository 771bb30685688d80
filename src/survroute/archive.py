"""Nondominated archive with bounded-capacity reduction, plus Pareto ranking helpers.

The archive is a value: every operation returns a new archive. Members are
kept in canonical order (objectives lexicographic, then genotype key) so a
run's archive iterates identically regardless of insertion history; in that
order they form a staircase, which ``_dominated_at`` (for ``nondom`` and
``insert``) and ``reduce``'s extremes read.

Objectives are two-dimensional throughout, as ``ObjectiveVector`` enforces.
Ranking is one 2-D sweep over sorted points (``pareto_ranks``), with no
all-pairs dominance matrix, and ``crowded_keys`` is NSGA-II's one
crowded-comparison key. Everything here is plain Python on (z1, z2) tuples:
ranks are a list of ints, and crowding is ``kernels.crowding_distance`` on
each front's list of pairs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import kernels
from .errors import ConfigError
from .moo import CandidateSolution

@dataclass(frozen=True)
class NondominatedArchive:
    """Mutually nondominated solutions, at most ``capacity`` of them (None = unbounded)."""

    members: tuple[CandidateSolution, ...]
    capacity: int | None = None

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def objective_set(self) -> set[tuple[float, ...]]:
        return {m.objectives.values for m in self.members}


def _z1(s: CandidateSolution) -> float:
    return s.objectives.values[0]


def _dominated_at(members: Sequence[CandidateSolution], i: int, point: tuple[float, ...]) -> bool:
    """Whether a member dominates ``point``, where members[:i] are those with z1 <= point's z1.

    In canonical order the members form a staircase: z1 ascending, z2
    non-increasing, equal vectors side by side. So the point is dominated
    exactly when the last member with z1 <= its z1 has z2 <= its z2 and is
    not equal to it.
    """
    if i == 0:
        return False
    last = members[i - 1].objectives.values
    return last[1] <= point[1] and last != point


def nondom(
    solutions: Iterable[CandidateSolution], capacity: int | None = None
) -> NondominatedArchive:
    """Archive of the input's nondominated members, genotype duplicates collapsed.

    One sweep in canonical order keeps each solution that the members kept
    before it do not dominate (``_dominated_at``), so members with equal
    objective vectors are all kept. If ``capacity`` is given and exceeded,
    ``reduce`` truncates it so the returned archive satisfies its own
    invariant.
    """
    if capacity is not None and capacity < 1:
        raise ConfigError(f"archive capacity must be >= 1, got {capacity}")
    unique: dict[object, CandidateSolution] = {}
    for s in sorted(solutions, key=lambda s: s.sort_key()):
        unique.setdefault(s.genotype_key, s)
    kept: list[CandidateSolution] = []
    for s in unique.values():  # canonical order
        if not _dominated_at(kept, len(kept), s.objectives.values):
            kept.append(s)
    arch = NondominatedArchive(members=tuple(kept), capacity=capacity)
    if capacity is not None and len(arch) > capacity:
        arch = reduce(arch)
    return arch


def insert(archive: NondominatedArchive, s: CandidateSolution) -> tuple[NondominatedArchive, bool]:
    """Insert one solution; returns (new archive, accepted).

    Rejected when dominated by a member or when its genotype is already
    present. On acceptance, members the newcomer dominates are dropped and
    ``reduce`` runs if capacity is exceeded.

    Domination is decided on the members' staircase (``_dominated_at``).
    The members the newcomer (a, b) dominates are one run: they start at
    the first member with z1 >= a, after any members equal to it, and end
    at the first member with z2 < b.
    """
    point = s.objectives.values
    a, b = point
    members = archive.members
    i = bisect_right(members, a, key=_z1)
    if _dominated_at(members, i, point):
        return archive, False
    key = s.genotype_key
    for m in members:
        if m.genotype_key == key:
            return archive, False
    lo = bisect_left(members, a, hi=i, key=_z1)
    # members[lo:i] share z1 == a, so they share one vector: equal to the newcomer, or dominated by it
    kept = i if lo < i and members[lo].objectives.values == point else lo
    pos = bisect_left(members, s.sort_key(), lo, kept, key=CandidateSolution.sort_key)
    hi = kept
    while hi < len(members) and members[hi].objectives.values[1] >= b:
        hi += 1
    out = NondominatedArchive(members=members[:pos] + (s,) + members[pos:kept] + members[hi:], capacity=archive.capacity)
    if archive.capacity is not None and len(out) > archive.capacity:
        out = reduce(out)
    return out, True


def reduce(archive: NondominatedArchive) -> NondominatedArchive:
    """Truncate to capacity by crowding distance, keeping the extremes of both objectives.

    Removes the least-crowded member one at a time, recomputing crowding
    after each removal; ties drop the canonically largest member. With
    capacity >= 2 the extremes are protected: on the staircase, the first
    member (least z1) and the first of the last run of equal vectors (least
    z2). That leaves at least len - 2 >= 1 members to remove from. With
    capacity 1 the lexicographically smallest member survives.
    """
    capacity = archive.capacity
    if capacity is None or len(archive) <= capacity:
        return archive
    if capacity < 1:
        raise ConfigError(f"archive capacity must be >= 1, got {capacity}")

    members = list(archive.members)
    while len(members) > capacity:
        protected = {0, bisect_left(members, _z1(members[-1]), key=_z1)} if capacity >= 2 else set()
        dist = kernels.crowding_distance([m.objectives.values for m in members])
        candidates = [i for i in range(len(members)) if i not in protected]
        del members[max(candidates, key=lambda i: (-dist[i], members[i].sort_key()))]
    return NondominatedArchive(members=tuple(members), capacity=capacity)


def pareto_ranks(points: Sequence[tuple[float, float]]) -> list[int]:
    """Nondominated-sorting rank (0 = best front) of each (z1, z2) tuple, as a list of ints.

    The tuples are ``ObjectiveVector.values``, which checks the count. A
    sort and sweep (Jensen 2003, "Reducing the run-time complexity of
    multiobjective EAs"): in (z1, z2) order, a point is dominated by a front exactly when
    that front's last member so far has z2 <= its own and is not equal to
    it. The fronts' last z2 values do not decrease with rank, so the point
    joins the first front whose last z2 exceeds its own, found by bisection.
    Equal points do not dominate each other and share a rank.
    """
    ranks = [0] * len(points)
    last_z2: list[float] = []  # per front, the z2 of its last member so far
    prev = None
    rank = 0
    for i in sorted(range(len(points)), key=points.__getitem__):
        p = points[i]
        if p != prev:  # an equal point joins the front of the one before it
            rank = bisect_right(last_z2, p[1])
            if rank == len(last_z2):
                last_z2.append(p[1])
            else:
                last_z2[rank] = p[1]
            prev = p
        ranks[i] = rank
    return ranks


def rank_and_crowding(solutions: Sequence[CandidateSolution]) -> tuple[list[int], list[float]]:
    """Pareto rank plus within-front crowding distance for a solution list."""
    points = [s.objectives.values for s in solutions]
    ranks = pareto_ranks(points)
    fronts: dict[int, list[int]] = {}
    for i, rank in enumerate(ranks):
        fronts.setdefault(rank, []).append(i)
    crowd = [0.0] * len(points)
    for idx in fronts.values():
        for i, d in zip(idx, kernels.crowding_distance([points[i] for i in idx])):
            crowd[i] = d
    return ranks, crowd


def crowded_keys(solutions: Sequence[CandidateSolution]) -> list[tuple]:
    """NSGA-II's crowded-comparison key of each solution, smaller is better: (rank, -crowding, canonical key)."""
    ranks, crowd = rank_and_crowding(solutions)
    return [(rank, -d, s.sort_key()) for rank, d, s in zip(ranks, crowd, solutions)]


def survival_order(solutions: Sequence[CandidateSolution]) -> list[int]:
    """Indices sorted best-first by ``crowded_keys``: rank asc, crowding desc, canonical key asc."""
    return sorted(range(len(solutions)), key=crowded_keys(solutions).__getitem__)
