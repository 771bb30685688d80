"""Pipeline stages and full runs: determinism, budget accounting, oracle recovery."""

import numpy as np
import pytest

from survroute import kernels, measures
from survroute.archive import NondominatedArchive, nondom, rank_and_crowding, survival_order
from survroute.engine import (
    VARIATION_OPERATORS,
    Evaluator,
    RunParams,
    initialize,
    local_search,
    random_immigrants,
    replace,
    run,
    select_from,
    stagnation,
    vary,
)
from survroute.errors import ConfigError, ContractViolation
from survroute.moo import CandidateSolution, Dominance, ObjectiveVector, Problem, dominates
from survroute.netmodel import RouteProblem, brute_force_pareto, invalid_reason

from conftest import GridProblem, make_sol


class CountingProblem:
    """Delegating wrapper that independently counts objective computations.

    Every source counts: evaluate() calls, each genotype of an
    evaluate_many() batch, and neighbors the neighborhood hands out together
    with their objectives. Without its own evaluate_many, ``__getattr__``
    would hand the batch straight to the inner problem, uncounted.
    """

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def evaluate(self, genotype):
        self.calls += 1
        return self.inner.evaluate(genotype)

    def evaluate_many(self, genotypes):
        self.calls += len(genotypes)
        return self.inner.evaluate_many(genotypes)

    def neighborhood(self, genotype):
        for pair in self.inner.neighborhood(genotype):
            self.calls += 1
            yield pair


def pairs(solutions):
    """Solutions as the (genotype, objectives) pairs that vary hands to local search."""
    return [(s.genotype, s.objectives) for s in solutions]


class NegatedLine(Problem):
    """Toy problem with negative objectives: genotype x in [0, n), objectives (-(x + 1), -(n - x)).

    Every point is nondominated, and the worst value of each objective is
    negative. Only initialization runs on it (evaluation budget 0).
    """

    def __init__(self, n: int = 30):
        self.n = n

    def evaluate(self, genotype):
        return ObjectiveVector((-(genotype + 1), -(self.n - genotype)))

    def random_genotype(self, rng):
        return int(rng.integers(self.n))


class TestRunParams:
    def test_defaults_valid(self):
        RunParams()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 0},
            {"offspring_size": 0},
            {"offspring_size": 60, "population_size": 50},
            {"archive_capacity": 0},
            {"evaluation_budget": -1},
            {"stagnation_window": 0},
            {"immigrant_fraction": 1.5},
            {"local_search_budget": -1},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            RunParams(**kwargs)


class TestInitialize:
    def test_population_size(self, standard_instance):
        problem = RouteProblem(standard_instance)
        params = RunParams(population_size=10, offspring_size=10)
        pop = initialize(problem, params, np.random.default_rng(0))
        assert len(pop) == 10

    def test_seed_determinism(self, standard_instance):
        problem = RouteProblem(standard_instance)
        params = RunParams(population_size=10, offspring_size=10)
        a = initialize(problem, params, np.random.default_rng(5))
        b = initialize(problem, params, np.random.default_rng(5))
        assert [s.genotype_key for s in a] == [s.genotype_key for s in b]

    def test_members_valid_and_evaluated(self, standard_instance):
        problem = RouteProblem(standard_instance)
        pop = initialize(problem, RunParams(), np.random.default_rng(1))
        for s in pop:
            assert invalid_reason(standard_instance, s.genotype) is None
            assert s.objectives.values == problem.evaluate(s.genotype).values


class TestSelectFrom:
    def test_empty_archive_selects_from_population(self):
        pop = [make_sol(i, 10 - i, key=f"p{i}") for i in range(5)]
        arch = NondominatedArchive(members=())
        parents = select_from(pop, arch, 20, np.random.default_rng(0))
        assert len(parents) == 20
        assert {p.genotype_key for p in parents} <= {p.genotype_key for p in pop}

    def test_tournament_favors_dominating_archive_member(self):
        pop = [make_sol(5, 5, key=f"p{i}") for i in range(4)]
        arch = nondom([make_sol(1, 1, key="star")])
        u = len(pop) + 1
        expected = 1.0 - (1.0 - 1.0 / u) ** 2  # wins whenever it is paired
        n = 10_000
        parents = select_from(pop, arch, n, np.random.default_rng(2))
        freq = sum(p.genotype_key == "star" for p in parents) / n
        assert freq == pytest.approx(expected, abs=0.02)
        assert freq >= expected - 0.02

    @pytest.mark.parametrize("seed", range(12))
    def test_one_integers_call_draws_what_single_draws_would(self, seed):
        # the 2 x count picks of one rng.integers call are those of 2 x count single rng.integers calls,
        # and leave the generator in the same state, a buffered 32-bit half (has_uint32) included
        def select_by_single_draws(pop, arch, count, rng):
            union = list(pop) + list(arch.members)
            ranks, crowd = rank_and_crowding(union)
            keys = [(ranks[i], -crowd[i], union[i].sort_key()) for i in range(len(union))]
            parents = []
            for _ in range(count):
                i, j = int(rng.integers(len(union))), int(rng.integers(len(union)))
                parents.append(union[i] if keys[i] <= keys[j] else union[j])
            return parents

        sizes = np.random.default_rng(seed).integers(1, 12, size=2).tolist()
        pop = [make_sol(i % 5, 9 - i % 7, key=f"p{i}") for i in range(sizes[0])]
        arch = nondom([make_sol(i, 4 - i, key=f"a{i}") for i in range(sizes[1] % 5)])
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        if seed % 2:
            for rng in (ours, reference):
                rng.integers(7)
            assert ours.bit_generator.state["has_uint32"] == 1
        for count in (1, 7, 50):
            assert select_from(pop, arch, count, ours) == select_by_single_draws(pop, arch, count, reference)
            assert ours.bit_generator.state == reference.bit_generator.state


class TestVary:
    def test_zero_move_probability_returns_parents(self):
        problem = GridProblem(8, move_prob=0.0)
        evaluator = Evaluator(problem)
        rng = np.random.default_rng(0)
        parents = evaluator.solutions([problem.random_genotype(rng) for _ in range(6)])
        offspring = vary(parents, problem, "mutate", rng, evaluator)
        assert [g for g, _objectives in offspring] == [p.genotype for p in parents]

    def test_crossover_of_identical_parents(self):
        problem = GridProblem(8)
        evaluator = Evaluator(problem)
        rng = np.random.default_rng(1)
        [twin] = evaluator.solutions([(3, 4)])
        offspring = vary([twin, twin], problem, "crossover", rng, evaluator)
        assert offspring == [((3, 4), twin.objectives)] * 2

    def test_offspring_valid_on_fixture(self, standard_instance):
        problem = RouteProblem(standard_instance)
        evaluator = Evaluator(problem)
        rng = np.random.default_rng(2)
        parents = evaluator.solutions([problem.random_genotype(rng) for _ in range(10)])
        for op in ("mutate", "crossover"):
            for _ in range(100):
                for child, objectives in vary(parents, problem, op, rng, evaluator):
                    assert invalid_reason(standard_instance, child) is None
                    assert objectives == problem.evaluate(child)

    def test_counts_one_evaluation_per_offspring(self):
        problem = GridProblem(8)
        evaluator = Evaluator(problem)
        rng = np.random.default_rng(3)
        parents = evaluator.solutions([problem.random_genotype(rng) for _ in range(7)])
        before = evaluator.count
        vary(parents, problem, "mutate", rng, evaluator)
        assert evaluator.count - before == 7


class TestLocalSearch:
    def test_zero_budget_is_identity(self, standard_instance):
        problem = RouteProblem(standard_instance)
        evaluator = Evaluator(problem)
        rng = np.random.default_rng(0)
        sols = evaluator.solutions([problem.random_genotype(rng) for _ in range(5)])
        out = local_search(pairs(sols), problem, 0, evaluator)
        assert out == sols
        assert [s.genotype for s in out] == [s.genotype for s in sols]

    def test_pareto_front_point_is_fixed(self, standard_instance):
        problem = RouteProblem(standard_instance)
        evaluator = Evaluator(problem)
        witness = brute_force_pareto(standard_instance)[0][1]
        [start] = evaluator.solutions([witness])
        out = local_search(pairs([start]), problem, 50, evaluator)
        assert out[0].genotype == witness

    def test_pareto_step_output_dominates_or_equals_start(self, standard_instance):
        problem = RouteProblem(standard_instance)
        evaluator = Evaluator(problem)
        rng = np.random.default_rng(2)
        # worst assignment by both objectives among valid ones
        starts = evaluator.solutions([problem.random_genotype(rng) for _ in range(50)])
        for start in starts:
            out = local_search(pairs([start]), problem, 30, evaluator)[0]
            assert dominates(out.objectives, start.objectives) in (
                Dominance.DOMINATES,
                Dominance.EQUAL,
            )

    def test_respects_global_budget_gate(self, standard_instance):
        problem = RouteProblem(standard_instance)
        evaluator = Evaluator(problem, budget=3)
        evaluator.count = 0
        rng = np.random.default_rng(4)
        [start] = Evaluator(problem).solutions([problem.random_genotype(rng)])
        local_search(pairs([start, start]), problem, 100, evaluator)
        assert evaluator.count <= 3


def test_local_search_walks_only_neighbors_it_uses(synthetic40_instance, monkeypatch):
    problem = RouteProblem(synthetic40_instance)
    rng = np.random.default_rng(5)
    starts = Evaluator(problem).solutions([problem.random_genotype(rng) for _ in range(4)])
    walks = {True: 0, False: 0}
    original = kernels.eval_route

    def counting_eval_route(*args):
        result = original(*args)
        walks[bool(result[2])] += 1
        return result

    monkeypatch.setattr(kernels, "eval_route", counting_eval_route)
    evaluator = Evaluator(problem)
    local_search(pairs(starts), problem, 20, evaluator)
    assert evaluator.count > 0
    # each walk is either a neighbor that was evaluated or an invalid one that was skipped
    assert walks[True] + walks[False] <= evaluator.count + walks[False]


def test_local_search_builds_keys_only_for_kept_solutions(synthetic40_instance):
    problem = RouteProblem(synthetic40_instance)
    keyed = []
    build_key = problem.genotype_key

    def counting_key(genotype):
        keyed.append(genotype)
        return build_key(genotype)

    problem.genotype_key = counting_key
    rng = np.random.default_rng(7)
    starts = [problem.random_genotype(rng) for _ in range(8)]
    offspring = vary([CandidateSolution(g, problem.evaluate(g), "") for g in starts], problem, "mutate", rng,
                     Evaluator(problem))
    assert keyed == []  # variation builds no key
    evaluator = Evaluator(problem)
    out = local_search(offspring, problem, 10, evaluator)
    assert evaluator.count > len(out)  # candidates were scored and dropped
    moved = [s for s, (g, _objectives) in zip(out, offspring) if s.genotype is not g]
    assert 0 < len(moved) < len(out)
    # one key per output, moved or not, built once; a dropped neighbor builds none
    assert keyed == [s.genotype for s in out]
    for s, (g, objectives) in zip(out, offspring):
        if s.genotype is g:
            assert s.objectives is objectives  # a walk that did not move keeps its pair
        assert s.genotype_key == build_key(s.genotype)
        assert s.objectives.values == problem.evaluate(s.genotype).values


def _naive_rank(front):
    pts = [s.objectives.values for s in front]
    remaining = set(range(len(pts)))
    ranks = [None] * len(pts)
    level = 0
    while remaining:
        layer = {
            i
            for i in remaining
            if not any(
                j in remaining
                and all(a <= b for a, b in zip(pts[j], pts[i]))
                and pts[j] != pts[i]
                for j in remaining
            )
        }
        for i in layer:
            ranks[i] = level
        remaining -= layer
        level += 1
    return ranks


class TestReplace:
    def test_elitist_keeps_population_when_offspring_dominated(self):
        pop = [make_sol(i, 4 - i, key=f"p{i}") for i in range(5)]  # mutually nondominated
        offspring = [make_sol(i + 5, 9 - i, key=f"o{i}") for i in range(5)]
        survivors = replace(pop, offspring)
        assert {s.genotype_key for s in survivors} == {s.genotype_key for s in pop}

    def test_elitist_full_turnover(self):
        pop = [make_sol(i + 5, 9 - i, key=f"p{i}") for i in range(5)]
        offspring = [make_sol(i, 4 - i, key=f"o{i}") for i in range(5)]
        survivors = replace(pop, offspring)
        assert {s.genotype_key for s in survivors} == {s.genotype_key for s in offspring}

    def test_elitist_survivor_ranks_match_naive_ranking(self, standard_instance):
        problem = RouteProblem(standard_instance)
        evaluator = Evaluator(problem)
        rng = np.random.default_rng(5)
        pop = evaluator.solutions([problem.random_genotype(rng) for _ in range(12)])
        off = evaluator.solutions([problem.random_genotype(rng) for _ in range(12)])
        union = pop + off
        ranks = dict(zip([id(s) for s in union], _naive_rank(union)))
        survivors = replace(pop, off)
        survivor_ids = {id(s) for s in survivors}
        worst_kept = max(ranks[id(s)] for s in survivors)
        best_dropped = min(ranks[id(s)] for s in union if id(s) not in survivor_ids)
        assert worst_kept <= best_dropped


class TestStagnation:
    def test_flat_trace_is_stagnant(self):
        assert stagnation([5.0, 5.0, 5.0, 5.0], 3, 1e-9)

    def test_live_delta_blocks(self):
        assert not stagnation([5.0, 5.0, 6.0, 6.0], 3, 1e-9)

    def test_short_trace_not_stagnant(self):
        assert not stagnation([5.0, 5.0], 3, 1e-9)
        assert not stagnation([5.0, 5.0, 5.0], 3, 1e-9)


class TestRandomImmigrants:
    def _population(self, problem, evaluator, rng, n):
        return evaluator.solutions([problem.random_genotype(rng) for _ in range(n)])

    def test_replaces_exact_ceiling(self, standard_instance):
        problem = RouteProblem(standard_instance)
        evaluator = Evaluator(problem)
        rng = np.random.default_rng(0)
        pop = self._population(problem, evaluator, rng, 10)
        out = random_immigrants(pop, problem, 0.3, rng, evaluator)
        kept = {id(s) for s in pop} & {id(s) for s in out}
        assert len(out) == 10
        assert len(kept) == 7  # exactly ceil(0.3 * 10) = 3 replaced

    def test_full_fraction_keeps_best(self, standard_instance):
        problem = RouteProblem(standard_instance)
        evaluator = Evaluator(problem)
        rng = np.random.default_rng(1)
        pop = self._population(problem, evaluator, rng, 10)
        out = random_immigrants(pop, problem, 1.0, rng, evaluator)
        survivors = {id(s) for s in pop} & {id(s) for s in out}
        assert len(out) == 10
        assert survivors == {id(pop[survival_order(pop)[0]])}  # elite guard: the best-ranked member

    def test_zero_fraction_noop(self, standard_instance):
        problem = RouteProblem(standard_instance)
        evaluator = Evaluator(problem)
        rng = np.random.default_rng(2)
        pop = self._population(problem, evaluator, rng, 6)
        out = random_immigrants(pop, problem, 0.0, rng, evaluator)
        assert [id(s) for s in out] == [id(s) for s in pop]

    def test_budget_cap(self, standard_instance):
        problem = RouteProblem(standard_instance)
        evaluator = Evaluator(problem)
        rng = np.random.default_rng(3)
        pop = self._population(problem, evaluator, rng, 10)
        before = evaluator.count
        random_immigrants(pop, problem, 1.0, rng, evaluator, max_new=2)
        assert evaluator.count - before == 2

    def test_immigrants_valid(self, stress_instance):
        problem = RouteProblem(stress_instance)
        evaluator = Evaluator(problem)
        rng = np.random.default_rng(4)
        pop = self._population(problem, evaluator, rng, 10)
        for _ in range(100):
            pop = random_immigrants(pop, problem, 0.4, rng, evaluator)
            assert len(pop) == 10
            for s in pop:
                assert invalid_reason(stress_instance, s.genotype) is None


class TestRun:
    def test_seed_determinism(self, standard_instance):
        problem = RouteProblem(standard_instance)
        params = RunParams(population_size=20, offspring_size=20, evaluation_budget=2000, seed=7)
        r1 = run(problem, params)
        r2 = run(problem, params)
        assert [m.genotype_key for m in r1.archive.members] == [m.genotype_key for m in r2.archive.members]
        assert r1.hv_trace == r2.hv_trace
        assert r1.evaluations == r2.evaluations
        assert r1.scheduler_stats == r2.scheduler_stats

    def test_recovers_oracle_front(self, standard_instance):
        problem = RouteProblem(standard_instance)
        result = run(problem, RunParams(evaluation_budget=10_000, seed=0))
        oracle = {ov.values for ov, _w in brute_force_pareto(standard_instance)}
        assert result.archive.objective_set() == oracle

    def test_recovers_toy_grid_front(self):
        problem = GridProblem(8)
        result = run(problem, RunParams(population_size=20, offspring_size=20, evaluation_budget=4000, seed=1))
        expected = {(float(x), float(7 - x)) for x in range(8)}
        assert result.archive.objective_set() == expected

    def test_zero_budget_returns_nondom_of_init(self, standard_instance):
        problem = RouteProblem(standard_instance)
        params = RunParams(population_size=15, offspring_size=15, evaluation_budget=0, seed=3)
        result = run(problem, params)
        rng = np.random.default_rng(3)
        pop = initialize(problem, params, rng)
        assert result.archive.objective_set() == nondom(pop).objective_set()
        assert result.evaluations == 15
        assert len(result.hv_trace) == 1

    def test_negative_objectives_all_initial_points_count(self):
        params = RunParams(population_size=12, offspring_size=12, evaluation_budget=0, seed=7)
        result = run(NegatedLine(), params)
        assert all(r < 0 for r in result.reference_point)
        init = [m.objectives.values for m in result.archive.members]
        assert len(init) > 1
        # hypervolume() rejects any point that does not strictly dominate the reference
        assert result.hv_trace[0] == measures.hypervolume(init, result.reference_point) > 0

    def test_budget_accounting_exact_and_bounded(self, standard_instance):
        wrapper = CountingProblem(RouteProblem(standard_instance))
        params = RunParams(population_size=10, offspring_size=10, evaluation_budget=500, seed=4, local_search_budget=5)
        result = run(wrapper, params)
        assert result.evaluations == wrapper.calls
        assert result.evaluations <= params.evaluation_budget + params.offspring_size

    def test_hv_trace_monotone_with_ample_capacity(self, stress_instance):
        problem = RouteProblem(stress_instance)
        result = run(problem, RunParams(population_size=20, offspring_size=20, evaluation_budget=3000, seed=5))
        trace = result.hv_trace
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_archive_always_mutually_nondominated(self, stress_instance):
        from itertools import combinations

        problem = RouteProblem(stress_instance)
        for budget in (0, 100, 500, 2000):
            result = run(problem, RunParams(population_size=10, offspring_size=10, evaluation_budget=budget, seed=6))
            for a, b in combinations(result.archive.members, 2):
                assert dominates(a.objectives, b.objectives) in (Dominance.INCOMPARABLE, Dominance.EQUAL)

    def test_scheduler_stats_consistent(self, standard_instance):
        problem = RouteProblem(standard_instance)
        result = run(problem, RunParams(population_size=10, offspring_size=10, evaluation_budget=1500, seed=8))
        assert result.scheduler_stats.keys() == {"VAR"}
        entry = result.scheduler_stats["VAR"]
        assert entry["operators"] == list(VARIATION_OPERATORS) == ["mutate", "crossover"]
        assert abs(sum(entry["probabilities"]) - 1.0) < 1e-9
        assert all(t >= s for t, s in zip(entry["trials"], entry["successes"]))
        # VAR gets one report per offspring per iteration, and each iteration appends one HV
        assert sum(result.scheduler_stats["VAR"]["trials"]) == 10 * (len(result.hv_trace) - 1)

    def test_undeclared_third_objective_is_a_contract_violation(self):
        class ReturnsThree(GridProblem):
            def evaluate(self, genotype):
                return ObjectiveVector(super().evaluate(genotype).values + (0.0,))

        with pytest.raises(ContractViolation):
            run(ReturnsThree(), RunParams(population_size=4, offspring_size=4, evaluation_budget=20))

    def test_immigration_disabled_still_terminates(self, standard_instance):
        problem = RouteProblem(standard_instance)
        params = RunParams(
            population_size=10, offspring_size=10, evaluation_budget=800,
            stagnation_window=2, immigrant_fraction=0.0, seed=9,
        )
        result = run(problem, params)
        assert result.evaluations >= 800
