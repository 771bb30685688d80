"""Memetic optimization loop: selection, variation, local search, replacement,
archive update, and stagnation-triggered random immigrants.

Selection, variation, local search and replacement each pick their operator
from a success-driven scheduler pool (``POOL_OPERATORS``); the archive update
has one truncation, ``archive.reduce``, and immigration one operator, fresh
random genotypes (``random_immigrants``). The run is fully deterministic
for a given seed: one PRNG is threaded through the pipeline in a fixed draw
order (see ``run``).
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
    count_dominated,
    insert as archive_insert,
    nondom,
    rank_and_crowding,
    survival_order,
)
from .errors import ConfigError
from .kernels import draw_index
from .measures import ReferencePoint
from .moo import CandidateSolution, Dominance, ObjectiveVector, Problem, dominates
from .scheduler import OperatorPool, choose, probabilities, report

SELECTION_OPERATORS = ("tournament", "uniform")
VARIATION_OPERATORS = ("mutate", "crossover")
LOCAL_SEARCH_OPERATORS = ("chebyshev", "pareto_step")
REPLACEMENT_OPERATORS = ("elitist", "generational_elite1")

POOL_OPERATORS = {
    "SEL": SELECTION_OPERATORS,
    "VAR": VARIATION_OPERATORS,
    "LS": LOCAL_SEARCH_OPERATORS,
    "REP": REPLACEMENT_OPERATORS,
}


@dataclass(frozen=True)
class RunParams:
    """Engine configuration. Defaults are sized for sub-5-second desk runs."""

    population_size: int = 50
    offspring_size: int = 50
    archive_capacity: int = 100
    evaluation_budget: int = 100_000
    stagnation_window: int = 10
    stagnation_tolerance: float = 1e-9  # relative to the current hypervolume
    immigrant_fraction: float = 0.3  # 0 disables immigration
    local_search_budget: int = 20  # neighbor evaluations per individual
    scheduler_window: int = 50
    scheduler_floor: float = 0.05
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
        if not (math.isfinite(self.stagnation_tolerance) and self.stagnation_tolerance >= 0):
            raise ConfigError("stagnation_tolerance must be finite and >= 0")
        if not 0.0 <= self.immigrant_fraction <= 1.0:
            raise ConfigError("immigrant_fraction must be in [0, 1]")
        if self.local_search_budget < 0:
            raise ConfigError("local_search_budget must be >= 0")
        if self.scheduler_window < 1:
            raise ConfigError("scheduler_window must be >= 1")
        if not 0.0 <= self.scheduler_floor <= 0.5:
            raise ConfigError("scheduler_floor must be in [0, 0.5] (pools have 2 operators)")
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

    def solution(self, genotype) -> CandidateSolution:
        """Evaluate ``genotype`` (one count) and wrap it with its key."""
        return CandidateSolution(genotype, self.evaluate(genotype), self.problem.genotype_key(genotype))


def initialize(problem: Problem, params: RunParams, rng, evaluator: Evaluator | None = None) -> list[CandidateSolution]:
    """Random evaluated population of population_size members."""
    ev = evaluator or Evaluator(problem)
    return [ev.solution(problem.random_genotype(rng)) for _ in range(params.population_size)]


def select_from(
    pop: Sequence[CandidateSolution],
    arch: NondominatedArchive,
    operator: str,
    count: int,
    rng,
) -> list[CandidateSolution]:
    """Draw ``count`` parents from population + archive with the given SEL operator.

    tournament: two uniform picks per slot, winner by (rank, crowding, key);
    uniform: one uniform pick per slot.
    """
    union = list(pop) + list(arch.members)
    if not union:
        raise ConfigError("cannot select from an empty population")
    if operator == "uniform":
        return [union[draw_index(rng, len(union))] for _ in range(count)]
    if operator != "tournament":
        raise ConfigError(f"unknown selection operator {operator!r}")
    ranks, crowd = rank_and_crowding(union)
    keys = [(ranks[i], -crowd[i], union[i].sort_key()) for i in range(len(union))]
    parents = []
    for _ in range(count):
        i = draw_index(rng, len(union))
        j = draw_index(rng, len(union))
        parents.append(union[i] if keys[i] <= keys[j] else union[j])
    return parents


def vary(
    parents: Sequence[CandidateSolution],
    problem: Problem,
    operator: str,
    rng,
    evaluator: Evaluator,
) -> list[tuple[Any, ObjectiveVector]]:
    """One evaluated offspring per parent slot via the chosen VAR operator, as a (genotype, objectives) pair.

    The pairs carry no key: ``local_search`` builds each output's solution,
    with its key, once.
    """
    lam = len(parents)
    offspring = []
    for i, parent in enumerate(parents):
        if operator == "mutate":
            g = problem.mutate(parent.genotype, rng)
        elif operator == "crossover":
            g = problem.crossover(parent.genotype, parents[(i + 1) % lam].genotype, rng)
        else:
            raise ConfigError(f"unknown variation operator {operator!r}")
        offspring.append((g, evaluator.evaluate(g)))
    return offspring


def _simplex_weights(rng) -> tuple[float, float]:
    # exponential trick; two uniform draws, strictly positive components
    w1 = max(-math.log(1.0 - rng.random()), 1e-12)
    w2 = max(-math.log(1.0 - rng.random()), 1e-12)
    total = w1 + w2
    return w1 / total, w2 / total


def local_search(
    offspring: Sequence[tuple[Any, ObjectiveVector]],
    problem: Problem,
    operator: str,
    budget: int,
    rng,
    evaluator: Evaluator,
) -> list[CandidateSolution]:
    """Improve each (genotype, objectives) pair by a first-improvement walk over the problem neighborhood.

    chebyshev: descend max_i(w_i * z_i) for a per-individual random simplex
    weight w (strictly positive, so an accepted move can never be dominated
    by the walk's starting point). pareto_step: accept the first neighbor
    that Pareto-dominates the current point. ``budget`` caps neighbor
    evaluations per individual; the run budget gates each evaluation too.
    Returns one solution per pair, where its walk ended, keyed once; a
    neighbor that is scored and dropped builds no key.
    """
    if operator not in LOCAL_SEARCH_OPERATORS:
        raise ConfigError(f"unknown local-search operator {operator!r}")
    out = []
    for genotype, objectives in offspring:
        if operator == "chebyshev":
            w1, w2 = _simplex_weights(rng)

            def score(values: tuple[float, ...]) -> float:
                return max(w1 * values[0], w2 * values[1])

            current_score = score(objectives.values)
        used = 0
        improved = True
        while improved and used < budget and evaluator.remaining > 0:
            improved = False
            for g, known in problem.neighborhood(genotype):
                cand = evaluator.evaluate(g, known)
                used += 1
                if operator == "chebyshev":
                    cand_score = score(cand.values)
                    if cand_score < current_score:
                        genotype, objectives, current_score = g, cand, cand_score
                        improved = True
                        break
                elif dominates(cand, objectives) is Dominance.DOMINATES:
                    genotype, objectives = g, cand
                    improved = True
                    break
                # gate after each evaluation, so a lazy neighborhood never walks an unused neighbor
                if used >= budget or evaluator.remaining <= 0:
                    break
        out.append(CandidateSolution(genotype, objectives, problem.genotype_key(genotype)))
    return out


def replace(
    pop: Sequence[CandidateSolution], offspring: Sequence[CandidateSolution], operator: str
) -> list[CandidateSolution]:
    """Survival selection over population + offspring, keeping len(pop) members.

    elitist: nondominated rank then crowding truncation. generational_elite1:
    the offspring survive (topped up by rank order if undersized), with the
    union's best-ranked member guaranteed a slot.
    """
    n = len(pop)
    union = list(pop) + list(offspring)
    order = survival_order(union)
    if operator == "elitist":
        return [union[i] for i in order[:n]]
    if operator != "generational_elite1":
        raise ConfigError(f"unknown replacement operator {operator!r}")
    chosen = list(range(len(pop), len(union)))[:n]
    if len(chosen) < n:
        taken = set(chosen)
        for i in order:
            if len(chosen) == n:
                break
            if i not in taken:
                chosen.append(i)
                taken.add(i)
    best = order[0]
    if best not in set(chosen):
        position = {idx: p for p, idx in enumerate(order)}
        worst = max(chosen, key=lambda i: position[i])
        chosen[chosen.index(worst)] = best
    return [union[i] for i in chosen]


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
    return survivors + [evaluator.solution(problem.random_genotype(rng)) for _ in range(k)]


def _nondominated_fraction(pop: Sequence[CandidateSolution], arch: NondominatedArchive) -> float:
    if not pop:
        return 0.0
    return 1.0 - count_dominated(arch, pop) / len(pop)


def _reference_from(pop: Sequence[CandidateSolution]) -> ReferencePoint:
    """Frozen hypervolume reference: 10% beyond the worst value of each objective.

    The margin is taken on abs(w), so a negative worst value moves up too and
    every initial point strictly dominates the reference.
    """
    worst = [max(column) for column in zip(*(s.objectives.values for s in pop))]
    return ReferencePoint(tuple(w * 1.1 + 1e-9 if w >= 0 else w + abs(w) * 0.1 + 1e-9 for w in worst))


def run(problem: Problem, params: RunParams | None = None) -> RunResult:
    """Optimize until the evaluation budget is exhausted; returns the final archive.

    Ranking, the archive, local-search weights and the hypervolume are all
    two-objective: ``evaluate`` returns an ``ObjectiveVector``, which holds
    exactly two components. The seed is ``params.seed``.

    Structure: an outer loop of inner passes; each inner iteration runs
    SelectFrom -> Vary -> LocalSearch -> Replace and folds the offspring
    into the archive, then credits every scheduler pool. When the archive
    hypervolume stalls for ``stagnation_window`` iterations, the inner loop
    ends and random immigrants refresh the population (each outer pass runs
    at least one inner iteration, so a zero immigrant fraction cannot wedge
    the loop).

    Draw order per inner iteration, from one seeded generator: SEL choose
    (1 draw), selection (1-2 index draws per parent), VAR choose, variation
    operator draws, LS choose, local-search draws (simplex weights for
    chebyshev), REP choose. Immigration adds the draws of each immigrant's
    random genotype, and chooses nothing. This order is part of the
    reproducibility contract.

    Credit: SEL/VAR/LS score one outcome per offspring (accepted into the
    archive or not), reported to each pool as one batch per iteration; REP
    scores whether the population's archive-nondominated fraction strictly
    improved.
    """
    params = params or RunParams()
    rng = np.random.default_rng(params.seed)
    started = time.perf_counter()

    evaluator = Evaluator(problem, params.evaluation_budget)
    pools = {
        kind: OperatorPool(operators=ops, window=params.scheduler_window, p_min=params.scheduler_floor)
        for kind, ops in POOL_OPERATORS.items()
    }
    stats = {kind: {op: [0, 0] for op in ops} for kind, ops in POOL_OPERATORS.items()}

    def note(kind: str, op: str, *successes: bool) -> None:
        pools[kind] = report(pools[kind], op, *successes)
        stats[kind][op][0] += len(successes)
        stats[kind][op][1] += sum(map(int, successes))

    pop = initialize(problem, params, rng, evaluator)
    arch = nondom(pop, capacity=params.archive_capacity)
    ref = _reference_from(pop)
    hv = measures.hypervolume_clipped([m.objectives for m in arch.members], ref)
    trace = [hv]

    while evaluator.remaining > 0:
        forced = True  # immigration resets stagnation: always run one iteration
        while evaluator.remaining > 0:
            tolerance = params.stagnation_tolerance * max(1.0, trace[-1])
            if not forced and stagnation(trace, params.stagnation_window, tolerance):
                break
            forced = False

            sel_op = choose(pools["SEL"], rng)
            parents = select_from(pop, arch, sel_op, params.offspring_size, rng)
            var_op = choose(pools["VAR"], rng)
            offspring = vary(parents, problem, var_op, rng, evaluator)
            ls_op = choose(pools["LS"], rng)
            offspring = local_search(
                offspring, problem, ls_op, params.local_search_budget, rng, evaluator
            )
            rep_op = choose(pools["REP"], rng)
            new_pop = replace(pop, offspring, rep_op)
            accepted = []
            for s in offspring:
                arch, ok = archive_insert(arch, s)
                accepted.append(ok)
            hv = measures.hypervolume_clipped([m.objectives for m in arch.members], ref)

            note("SEL", sel_op, *accepted)
            note("VAR", var_op, *accepted)
            note("LS", ls_op, *accepted)
            note("REP", rep_op, _nondominated_fraction(new_pop, arch) > _nondominated_fraction(pop, arch))

            pop = new_pop
            trace.append(hv)

        if evaluator.remaining > 0 and params.immigrant_fraction > 0:
            pop = random_immigrants(
                pop, problem, params.immigrant_fraction, rng, evaluator, max_new=int(evaluator.remaining)
            )

    scheduler_stats = {}
    for kind, pool in pools.items():
        scheduler_stats[kind] = {
            "operators": list(pool.operators),
            "probabilities": probabilities(pool),
            "trials": [stats[kind][op][0] for op in pool.operators],
            "successes": [stats[kind][op][1] for op in pool.operators],
        }

    return RunResult(
        archive=arch,
        evaluations=evaluator.count,
        hv_trace=trace,
        reference_point=ref.values,
        scheduler_stats=scheduler_stats,
        wall_clock_seconds=time.perf_counter() - started,
        seed=params.seed,
    )
