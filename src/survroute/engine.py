"""Memetic optimization loop: selection, variation, local search, replacement,
archive update, and stagnation-triggered random immigrants.

``run`` is one loop: each iteration runs the stages in that order, then
immigrates when the archive hypervolume has stalled. Variation picks its
operator from a success-driven scheduler pool (``VARIATION_OPERATORS``);
every other stage has one operator. Mating and
survival are those of NSGA-II (Deb et al. 2002): a binary tournament on
(rank, crowding) (``select_from``) and elitist rank-then-crowding survival
(``replace``). Local search is Pareto descent (``local_search``), the
archive update has one truncation (``archive.reduce``), and immigration
makes fresh random genotypes (``random_immigrants``). The run is fully
deterministic for a given seed: one PRNG is threaded through the pipeline
in a fixed draw order (see ``run``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import measures
from .archive import (
    NondominatedArchive,
    insert as archive_insert,
    nondom,
    rank_and_crowding,
    survival_order,
)
from .errors import ConfigError
from .measures import ReferencePoint
from .moo import CandidateSolution, Dominance, ObjectiveVector, Problem, dominates
from .scheduler import OperatorPool, choose, probabilities, report

VARIATION_OPERATORS = ("mutate", "crossover")
STAGNATION_TOLERANCE = 1e-9  # a smaller hypervolume gain per iteration, relative to the hypervolume, is a stall


@dataclass(frozen=True)
class RunParams:
    """Engine configuration. Defaults are sized for sub-5-second desk runs."""

    population_size: int = 50
    offspring_size: int = 50
    archive_capacity: int = 100
    evaluation_budget: int = 100_000
    stagnation_window: int = 10
    immigrant_fraction: float = 0.3  # 0 disables immigration
    local_search_budget: int = 20  # neighbor evaluations per individual
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 1:
            raise ConfigError("population_size must be >= 1")
        if not 1 <= self.offspring_size <= self.population_size:
            raise ConfigError("offspring_size must be in [1, population_size]")
        if self.archive_capacity < 1:
            raise ConfigError("archive_capacity must be >= 1")
        if self.evaluation_budget < 0:
            raise ConfigError("evaluation_budget must be >= 0")
        if self.stagnation_window < 1:
            raise ConfigError("stagnation_window must be >= 1")
        if not 0.0 <= self.immigrant_fraction <= 1.0:
            raise ConfigError("immigrant_fraction must be in [0, 1]")
        if self.local_search_budget < 0:
            raise ConfigError("local_search_budget must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass
class RunResult:
    """Everything a finished run reports.

    ``evaluations`` stays within one offspring batch of the budget
    (<= max(population_size, budget + offspring_size)); initialization is
    never truncated and local search / immigration are gated per evaluation.
    """

    archive: NondominatedArchive
    evaluations: int
    hv_trace: list[float]
    reference_point: tuple[float, ...]
    scheduler_stats: dict
    wall_clock_seconds: float = 0.0
    seed: int = 0


class Evaluator:
    """Counts objective evaluations (one per call, duplicates included) against a budget."""

    def __init__(self, problem: Problem, budget: int | None = None):
        self.problem = problem
        self.budget = budget
        self.count = 0

    @property
    def remaining(self) -> float:
        return math.inf if self.budget is None else self.budget - self.count

    def evaluate(self, genotype, objectives: ObjectiveVector | None = None) -> ObjectiveVector:
        """Count one evaluation of ``genotype`` and return its objectives.

        Pass ``objectives`` when they are already known (local search gets
        them from the neighborhood); the problem's evaluate is then skipped.
        """
        self.count += 1
        return self.problem.evaluate(genotype) if objectives is None else objectives

    def evaluate_many(self, genotypes: Sequence) -> list[ObjectiveVector]:
        """The objectives of ``genotypes`` from one ``Problem.evaluate_many`` call, each counted through ``evaluate``."""
        batch = self.problem.evaluate_many(genotypes)
        return [self.evaluate(g, objectives) for g, objectives in zip(genotypes, batch, strict=True)]

    def solutions(self, genotypes: Sequence) -> list[CandidateSolution]:
        """Each genotype with its objectives and key, evaluated as one batch (``evaluate_many``)."""
        key = self.problem.genotype_key
        return [CandidateSolution(g, objectives, key(g)) for g, objectives in zip(genotypes, self.evaluate_many(genotypes))]


def initialize(problem: Problem, params: RunParams, rng, evaluator: Evaluator | None = None) -> list[CandidateSolution]:
    """Random evaluated population of population_size members, evaluated as one batch."""
    ev = evaluator or Evaluator(problem)
    return ev.solutions([problem.random_genotype(rng) for _ in range(params.population_size)])


def select_from(
    pop: Sequence[CandidateSolution],
    arch: NondominatedArchive,
    count: int,
    rng,
) -> list[CandidateSolution]:
    """Draw ``count`` parents from population + archive by binary tournament.

    Two uniform picks per slot, all 2 x ``count`` integers from one
    ``rng.integers`` call, which draws what as many single
    ``rng.integers(n)`` calls would (the operators pick from doubles
    instead, ``netmodel``); the winner is the smaller (rank, -crowding,
    key) over the union.
    """
    union = list(pop) + list(arch.members)
    if not union:
        raise ConfigError("cannot select from an empty population")
    ranks, crowd = rank_and_crowding(union)
    keys = [(ranks[i], -crowd[i], union[i].sort_key()) for i in range(len(union))]
    picks = iter(rng.integers(len(union), size=2 * count).tolist())  # zip(picks, picks): (i, j) per slot
    return [union[i] if keys[i] <= keys[j] else union[j] for i, j in zip(picks, picks)]


def vary(
    parents: Sequence[CandidateSolution],
    problem: Problem,
    operator: str,
    rng,
    evaluator: Evaluator,
) -> list[tuple[Any, ObjectiveVector]]:
    """One evaluated offspring per parent slot via the chosen VAR operator, as a (genotype, objectives) pair.

    The offspring are evaluated as one batch, after the operator has made
    all of them. The pairs carry no key: ``local_search`` builds each
    output's solution, with its key, once.
    """
    lam = len(parents)
    if operator == "mutate":
        children = [problem.mutate(parent.genotype, rng) for parent in parents]
    elif operator == "crossover":
        children = [problem.crossover(parent.genotype, parents[(i + 1) % lam].genotype, rng)
                    for i, parent in enumerate(parents)]
    else:
        raise ConfigError(f"unknown variation operator {operator!r}")
    return list(zip(children, evaluator.evaluate_many(children)))


def local_search(
    offspring: Sequence[tuple[Any, ObjectiveVector]],
    problem: Problem,
    budget: int,
    evaluator: Evaluator,
) -> list[CandidateSolution]:
    """Pareto descent from each (genotype, objectives) pair over the problem neighborhood.

    Each walk moves to the first neighbor that Pareto-dominates its current
    point, until no neighbor does. ``budget`` caps neighbor evaluations per
    individual; the run budget gates each evaluation too. Returns one
    solution per pair, where its walk ended, keyed once; a neighbor that is
    scored and dropped builds no key.
    """
    out = []
    for genotype, objectives in offspring:
        used = 0
        improved = True
        while improved and used < budget and evaluator.remaining > 0:
            improved = False
            for g, known in problem.neighborhood(genotype):
                cand = evaluator.evaluate(g, known)
                used += 1
                if dominates(cand, objectives) is Dominance.DOMINATES:
                    genotype, objectives = g, cand
                    improved = True
                    break
                # gate after each evaluation, so a lazy neighborhood never walks an unused neighbor
                if used >= budget or evaluator.remaining <= 0:
                    break
        out.append(CandidateSolution(genotype, objectives, problem.genotype_key(genotype)))
    return out


def replace(pop: Sequence[CandidateSolution], offspring: Sequence[CandidateSolution]) -> list[CandidateSolution]:
    """Elitist survival over population + offspring: the len(pop) best by rank, then crowding."""
    union = list(pop) + list(offspring)
    return [union[i] for i in survival_order(union)[: len(pop)]]


def stagnation(hv_trace: Sequence[float], window: int, tolerance: float) -> bool:
    """True iff the last ``window`` hypervolume deltas are each below ``tolerance``."""
    if len(hv_trace) < window + 1:
        return False
    tail = hv_trace[-(window + 1):]
    return all(tail[i + 1] - tail[i] < tolerance for i in range(window))


def random_immigrants(
    pop: Sequence[CandidateSolution],
    problem: Problem,
    fraction: float,
    rng,
    evaluator: Evaluator,
    max_new: int | None = None,
) -> list[CandidateSolution]:
    """Replace the ceil(fraction * N) worst-ranked members with fresh random genotypes.

    The best-ranked member always survives, so at most N-1 are replaced.
    ``max_new`` (remaining budget) may shrink the batch at the end of a run.
    """
    n = len(pop)
    # tiny slack so exact products like 0.3 * 10 do not ceil to 4
    k = math.ceil(fraction * n - 1e-9)
    k = min(k, n - 1)
    if max_new is not None:
        k = min(k, max_new)
    if k <= 0:
        return list(pop)
    order = survival_order(pop)
    survivors = [pop[i] for i in order[: n - k]]
    return survivors + evaluator.solutions([problem.random_genotype(rng) for _ in range(k)])


def _reference_from(pop: Sequence[CandidateSolution]) -> ReferencePoint:
    """Frozen hypervolume reference: 10% beyond the worst value of each objective.

    The margin is taken on abs(w), so a negative worst value moves up too and
    every initial point strictly dominates the reference.
    """
    worst = [max(column) for column in zip(*(s.objectives.values for s in pop))]
    return ReferencePoint(tuple(w * 1.1 + 1e-9 if w >= 0 else w + abs(w) * 0.1 + 1e-9 for w in worst))


def run(problem: Problem, params: RunParams | None = None) -> RunResult:
    """Optimize until the evaluation budget is exhausted; returns the final archive.

    Ranking, dominance, the archive and the hypervolume are all
    two-objective: ``evaluate`` returns an ``ObjectiveVector``, which holds
    exactly two components. The seed is ``params.seed``.

    Structure: one loop, run while budget remains. Each iteration runs
    SelectFrom -> Vary -> LocalSearch -> Replace, folds the offspring into
    the archive, appends the archive hypervolume to the trace and credits
    the variation pool (VAR). It ends with the stagnation test: when budget
    remains, the immigrant fraction is above 0, and the hypervolume has
    gained less than ``STAGNATION_TOLERANCE`` (relative to the current
    hypervolume) in each of the last ``stagnation_window`` iterations,
    random immigrants refresh the population. The next test comes after the
    next iteration, so every immigration is followed by one iteration.

    Draw order per iteration, from one seeded generator: selection
    (two index draws per parent, in one call), VAR choose (1 draw), variation operator
    draws; local search and replacement draw nothing. An immigration that
    ends the iteration adds the draws of each immigrant's random genotype,
    and chooses nothing. This order is part of the reproducibility contract.

    Credit: VAR scores one outcome per offspring (accepted into the archive
    or not), reported to its pool as one batch per iteration.
    """
    params = params or RunParams()
    rng = np.random.default_rng(params.seed)
    started = time.perf_counter()

    evaluator = Evaluator(problem, params.evaluation_budget)
    pool = OperatorPool(operators=VARIATION_OPERATORS)
    trials = dict.fromkeys(VARIATION_OPERATORS, 0)
    successes = dict.fromkeys(VARIATION_OPERATORS, 0)

    pop = initialize(problem, params, rng, evaluator)
    arch = nondom(pop, capacity=params.archive_capacity)
    ref = _reference_from(pop)
    hv = measures.hypervolume_clipped([m.objectives for m in arch.members], ref)
    trace = [hv]

    while evaluator.remaining > 0:
        parents = select_from(pop, arch, params.offspring_size, rng)
        var_op = choose(pool, rng)
        offspring = vary(parents, problem, var_op, rng, evaluator)
        offspring = local_search(offspring, problem, params.local_search_budget, evaluator)
        pop = replace(pop, offspring)
        accepted = []
        for s in offspring:
            arch, ok = archive_insert(arch, s)
            accepted.append(ok)
        hv = measures.hypervolume_clipped([m.objectives for m in arch.members], ref)

        pool = report(pool, var_op, *accepted)
        trials[var_op] += len(accepted)
        successes[var_op] += sum(accepted)
        trace.append(hv)

        if (evaluator.remaining > 0 and params.immigrant_fraction > 0
                and stagnation(trace, params.stagnation_window, STAGNATION_TOLERANCE * max(1.0, hv))):
            pop = random_immigrants(
                pop, problem, params.immigrant_fraction, rng, evaluator, max_new=int(evaluator.remaining)
            )

    scheduler_stats = {"VAR": {
        "operators": list(VARIATION_OPERATORS),
        "probabilities": probabilities(pool),
        "trials": list(trials.values()),
        "successes": list(successes.values()),
    }}

    return RunResult(
        archive=arch,
        evaluations=evaluator.count,
        hv_trace=trace,
        reference_point=ref.values,
        scheduler_stats=scheduler_stats,
        wall_clock_seconds=time.perf_counter() - started,
        seed=params.seed,
    )
