"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import itertools
import json
import time

import numpy as np
import pytest

from survroute.archive import NondominatedArchive, insert
from survroute.cli import main as cli_main
from survroute.engine import Evaluator, RunParams, local_search, random_immigrants, run
from survroute.measures import hypervolume
from survroute.moo import Dominance, dominates
from survroute.netmodel import (
    RouteProblem,
    brute_force_pareto,
    crossover_parentmix,
    heavy_reattach,
    invalid_reason,
    mutate_reattach,
    random_assignment,
)
from survroute.scheduler import OperatorPool, choose, probabilities

from conftest import INSTANCE_DIR, make_sol

STANDARD = str(INSTANCE_DIR / "standard_3mr.net")


def criterion(name: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def oracle_runs(standard_instance):
    """20 seeded engine runs on the standard fixture at B=1e4 (criteria 1 and 4)."""
    problem = RouteProblem(standard_instance)
    runs = []
    for seed in range(20):
        t0 = time.perf_counter()
        result = run(problem, RunParams(evaluation_budget=10_000, seed=seed))
        runs.append((result, time.perf_counter() - t0))
    return runs


@pytest.fixture(scope="module")
def immigration_runs(stress_instance):
    """Paired stagnating runs with and without immigration (criteria 4 and 8)."""
    problem = RouteProblem(stress_instance)
    pairs = []
    for seed in range(20):
        base = dict(
            population_size=20,
            offspring_size=20,
            evaluation_budget=12_000,
            stagnation_window=2,
            local_search_budget=5,
            seed=seed,
        )
        with_imm = run(problem, RunParams(immigrant_fraction=0.3, **base))
        without = run(problem, RunParams(immigrant_fraction=0.0, **base))
        pairs.append((with_imm, without))
    return pairs


def test_criterion_1_oracle_equivalence(standard_instance, oracle_runs):
    assert standard_instance.compiled.search_space <= 1000
    oracle = sorted(ov.values for ov, _w in brute_force_pareto(standard_instance))

    def matches(archive) -> bool:
        got = sorted(archive.objective_set())
        if len(got) != len(oracle):
            return False
        return all(
            abs(a - b) <= 1e-12 for g, o in zip(got, oracle) for a, b in zip(g, o)
        )

    hits = sum(matches(result.archive) for result, _t in oracle_runs)
    slowest = max(t for _r, t in oracle_runs)
    criterion(
        "C1 oracle equivalence",
        hits >= 19 and slowest < 5.0,
        f"{hits}/20 exact fronts, slowest run {slowest:.2f}s",
    )


def test_criterion_2_archive_invariants():
    rng = np.random.default_rng(20240817)
    capacity = 8
    arch = NondominatedArchive(members=(), capacity=capacity)
    best = [np.inf, np.inf]
    violations = 0
    for i in range(100_000):
        point = (float(rng.integers(0, 16)), float(rng.integers(0, 16)))
        arch, _ = insert(arch, make_sol(*point, key=f"g{i}"))
        if len(arch) > capacity:
            violations += 1
            break
        if any(
            dominates(a.objectives, b.objectives) in (Dominance.DOMINATES, Dominance.DOMINATED_BY)
            for a, b in itertools.combinations(arch.members, 2)
        ):
            violations += 1
            break
        mins = [min(column) for column in zip(*(m.objectives.values for m in arch.members))]
        if mins[0] > best[0] + 0.0 or mins[1] > best[1] + 0.0:
            violations += 1  # an extreme was lost
            break
        best = [min(best[0], mins[0]), min(best[1], mins[1])]
    criterion("C2 archive invariants", violations == 0, "100000 insert/reduce operations")


def test_criterion_3_hypervolume_against_monte_carlo():
    worked = hypervolume([(1, 2), (2, 1)], (3, 3))
    rng = np.random.default_rng(7)
    failures = 0
    for _case in range(100):
        k = int(rng.integers(2, 15))
        pts = rng.random((k, 2))
        keep = [
            i
            for i in range(k)
            if not any(
                (pts[j] <= pts[i]).all() and (pts[j] < pts[i]).any()
                for j in range(k)
                if j != i
            )
        ]
        front = pts[keep]
        ref = np.array([1.2, 1.2])
        exact = hypervolume(front, ref)
        lo = front.min(axis=0)
        box = float(np.prod(ref - lo))
        samples = rng.uniform(lo, ref, size=(1_000_000, 2))
        covered = np.zeros(len(samples), dtype=bool)
        for p in front:
            covered |= (samples >= p).all(axis=1)
        p_hat = covered.mean()
        sigma = box * float(np.sqrt(p_hat * (1 - p_hat) / len(samples)))
        if abs(exact - box * p_hat) > 3 * sigma:
            failures += 1
    criterion(
        "C3 hypervolume correctness",
        worked == 3.0 and failures == 0,
        f"worked value {worked}, {failures}/100 fronts outside 3 sigma",
    )


def test_criterion_4_monotone_hv_traces(oracle_runs, immigration_runs):
    traces = [r.hv_trace for r, _t in oracle_runs]
    for with_imm, without in immigration_runs:
        traces.append(with_imm.hv_trace)
        traces.append(without.hv_trace)
    bad = sum(any(b < a for a, b in zip(t, t[1:])) for t in traces)
    criterion("C4 monotone hypervolume traces", bad == 0, f"{len(traces)} traces checked, tolerance 0")


def test_criterion_5_scheduler_sanity():
    rng = np.random.default_rng(99)
    bad = 0
    for _ in range(10_000):
        k = int(rng.integers(1, 6))
        p_min = float(rng.random()) / k
        outcomes = tuple(
            tuple(int(x) for x in rng.integers(0, 2, size=rng.integers(0, 12)))
            for _ in range(k)
        )
        pool = OperatorPool(operators=tuple(f"op{i}" for i in range(k)), window=12, p_min=p_min, outcomes=outcomes)
        p = probabilities(pool)
        if abs(sum(p) - 1.0) > 1e-12 or any(x < p_min - 1e-15 for x in p):
            bad += 1
    # exact (0.7, 0.3) pool: rates (0.75, 0.25) with floor 0.1
    pool = OperatorPool(operators=("a", "b"), window=50, p_min=0.1, outcomes=((1, 1), (0, 0)))
    draws = np.random.default_rng(4242)
    n = 100_000
    freq = sum(choose(pool, draws) == "a" for _ in range(n)) / n
    criterion(
        "C5 scheduler sanity",
        bad == 0 and abs(freq - 0.7) <= 0.01,
        f"{bad}/10000 bad windows, choose frequency {freq:.4f} vs 0.7",
    )


def test_criterion_6_run_determinism(tmp_path):
    args = [
        "run", "--instance", STANDARD, "--budget", "3000", "--population", "20",
        "--offspring", "20", "--seed", "11",
    ]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    front_same = (tmp_path / "a" / "front.csv").read_bytes() == (tmp_path / "b" / "front.csv").read_bytes()
    sa = json.loads((tmp_path / "a" / "summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "summary.json").read_text())
    sa.pop("wall_clock_seconds")
    sb.pop("wall_clock_seconds")
    criterion("C6 determinism", front_same and sa == sb, "byte-identical front.csv, summary modulo wall clock")


def test_criterion_7_operator_closure(stress_instance):
    inst = stress_instance
    problem = RouteProblem(inst)
    rng = np.random.default_rng(3)
    invalid = 0

    a = random_assignment(inst, rng)
    for _ in range(10_000):
        a = mutate_reattach(inst, a, rng)
        invalid += invalid_reason(inst, a) is not None

    pool = [random_assignment(inst, rng) for _ in range(25)]
    for _ in range(10_000):
        i, j = int(rng.integers(25)), int(rng.integers(25))
        child = crossover_parentmix(inst, pool[i], pool[j], rng)
        invalid += invalid_reason(inst, child) is not None

    evaluator = Evaluator(problem)
    starts = [evaluator.solution(random_assignment(inst, rng)) for _ in range(100)]
    ls_outputs = 0
    while ls_outputs < 10_000:
        op = "chebyshev" if ls_outputs % 2 else "pareto_step"
        batch = [starts[int(rng.integers(len(starts)))] for _ in range(100)]
        for out in local_search([(s.genotype, s.objectives) for s in batch], problem, op, 3, rng, evaluator):
            invalid += invalid_reason(inst, out.genotype) is not None
            ls_outputs += 1

    pop = [evaluator.solution(random_assignment(inst, rng)) for _ in range(10)]
    for _ in range(10_000):
        pop = random_immigrants(pop, problem, 0.3, rng, evaluator)
        invalid += sum(invalid_reason(inst, s.genotype) is not None for s in pop)

    # heavy mutation has no engine caller, but stays a netmodel operator
    a = random_assignment(inst, rng)
    for _ in range(10_000):
        a = heavy_reattach(inst, a, rng)
        invalid += invalid_reason(inst, a) is not None
    criterion("C7 operator closure", invalid == 0, "10000 applications per operator family")


def test_criterion_8_immigration_effectiveness(immigration_runs):
    wins = sum(
        with_imm.hv_trace[-1] >= without.hv_trace[-1]
        for with_imm, without in immigration_runs
    )
    strict = sum(
        with_imm.hv_trace[-1] > without.hv_trace[-1]
        for with_imm, without in immigration_runs
    )
    criterion(
        "C8 immigration effectiveness",
        wins >= 15,
        f"{wins}/20 paired seeds with HV(rho=0.3) >= HV(rho=0), {strict} strict",
    )
