"""Golden front hashes: `survroute run` output pinned across code changes.

Each case runs the CLI with a fixed seed (default local search, with a
population of 6 in the 3-MR case, the evolutionary-only settings of the
200-MR case, or the small-archive settings of the last case) and compares the sha1 of the written
``front.csv`` bytes, and the VAR pool's entry in ``summary.json``, with recorded values.
The other determinism tests compare two runs of the same code; this one
fails when a refactor changes any front, RNG draw order or tie-break.
A deliberate change of results must update these values and say why.
"""

import hashlib
import json

import pytest

from survroute import engine, netmodel
from survroute.cli import main

from conftest import INSTANCE_DIR, synthetic_net_text


# case -> (shipped instance name, or (MRs, seed) of a synthetic one; CLI flags)
CASES = {
    # a population of 6 and budget 100 leave its front one point short of the exact one, so the front
    # depends on the draw order (test_standard_3mr_pins_the_draw_order)
    "standard_3mr": ("standard_3mr", ["--budget", "100", "--seed", "3", "--population", "6", "--offspring", "6"]),
    "stress_5mr": ("stress_5mr", ["--budget", "5000", "--seed", "7"]),
    "synthetic_40mr": ((40, 11), ["--budget", "2000", "--seed", "3"]),
    "synthetic_200mr": ((200, 13), ["--budget", "1000", "--seed", "5"]),
    # 200 MRs, no local search: mutation, crossover repair and long route walks
    "200mr_without_local_search": ((200, 13), [
        "--budget", "500", "--seed", "5",
        "--ls-budget", "0", "--population", "100", "--offspring", "100", "--capacity", "100",
    ]),
    # capacity 3 and a 2-iteration stagnation window: archive reduction on most insertions,
    # and immigration
    "small_archive_with_immigration": ("stress_5mr", [
        "--budget", "3000", "--seed", "3", "--capacity", "3", "--stagnation-window", "2",
        "--ls-budget", "5", "--population", "20", "--offspring", "20",
    ]),
}
GOLDEN = {
    "standard_3mr": "1560bf14ea0ff4f6e8b462eedadab634044619ad",
    "stress_5mr": "0ff61869c2bb88b628868e88c702638fe2587d97",
    "synthetic_40mr": "23659751cfce8e8d5e888cb7573a0d03281fb085",
    "synthetic_200mr": "a5cc2edf4ec5864c5f23c287fda1c408aa042be0",
    "200mr_without_local_search": "7a8c263e5424d38b15312bdc73e3756cebeb7dc8",
    "small_archive_with_immigration": "4e06c7ee4626b856b8563f3cf981e952449fd05a",
}

# summary.json["scheduler"] of each case: (probabilities, trials, successes) of the VAR pool, whose
# operators are mutate and crossover. It is the one output that sees the pool's window and floor: a
# floor of 0.1 changes every case's probabilities, a window of 49 those of synthetic_200mr, and
# neither changes any front.
SCHEDULER = {
    "standard_3mr": ([0.65, 0.35], [6, 6], [3, 1]),
    "stress_5mr": ([0.77, 0.22999999999999998], [150, 200], [8, 24]),
    "synthetic_40mr": ([0.5409090909090909, 0.4590909090909091], [50, 50], [5, 4]),
    "synthetic_200mr": ([0.8857142857142858, 0.1142857142857143], [0, 50], [0, 1]),
    "200mr_without_local_search": ([0.275, 0.7250000000000001], [200, 200], [9, 11]),
    "small_archive_with_immigration": ([0.4829113924050633, 0.5170886075949368], [240, 260], [170, 210]),
}

# The results of the engine that chose its selection (tournament or uniform) and its replacement
# (elitist or generational_elite1) from two scheduler pools, when those pools always returned
# tournament and elitist, the two operators left. Each choice made one draw: right before
# selection, and right after local search, which draws nothing, so right after variation.
# standard_3mr is left out: at its settings then (budget 5000, seed 7), its front was the exact one with
# or without those draws.
WITH_CHOOSE_DRAWS = {
    "stress_5mr": "9a483fe7e614df9627f78fb6ae4fa6f07c1a0673",
    "synthetic_40mr": "3f83ca0c724ad55e590a1f4fc4d7787b9725c9a0",
    "synthetic_200mr": "69d0f445fc62fbfc790bed40646f7e2b86b52f7d",
    "200mr_without_local_search": "0f4c9913d163290c56516c6bc05b0ca6772660e2",
    "small_archive_with_immigration": "c536f13acded22d96eb7c05dc5c5aa8d757f34cd",
}


def _run(case, tmp_path):
    """Run the case's CLI command; returns (instance path, output directory)."""
    instance, flags = CASES[case]
    if isinstance(instance, tuple):
        n_mr, instance_seed = instance
        path = tmp_path / "synthetic.net"
        path.write_text(synthetic_net_text(n_mr, 6, 6, seed=instance_seed), encoding="utf-8")
    else:
        path = INSTANCE_DIR / f"{instance}.net"
    out = tmp_path / "out"
    assert main(["run", "--instance", str(path), "--out", str(out), *flags]) == 0
    return path, out


def _sha1(path):
    return hashlib.sha1(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", ["standard_3mr", "stress_5mr", "synthetic_200mr", "synthetic_40mr"])
def test_front_hash(case, tmp_path):
    _path, out = _run(case, tmp_path)
    assert _sha1(out / "front.csv") == GOLDEN[case]


def test_front_hash_200mr_without_local_search(tmp_path):
    _path, out = _run("200mr_without_local_search", tmp_path)
    assert _sha1(out / "front.csv") == GOLDEN["200mr_without_local_search"]


def test_front_hash_small_archive_with_immigration(tmp_path):
    _path, out = _run("small_archive_with_immigration", tmp_path)
    assert _sha1(out / "front.csv") == GOLDEN["small_archive_with_immigration"]


@pytest.mark.parametrize("case", sorted(SCHEDULER))
def test_scheduler_summary(case, tmp_path):
    _path, out = _run(case, tmp_path)
    probabilities, trials, successes = SCHEDULER[case]
    assert json.loads((out / "summary.json").read_text())["scheduler"] == {"VAR": {
        "operators": ["mutate", "crossover"],
        "probabilities": probabilities,
        "trials": trials,
        "successes": successes,
    }}


def test_standard_3mr_pins_the_draw_order(tmp_path, monkeypatch):
    # one more draw after each variation gives another front: the case pins the order of the draws
    vary = engine.vary

    def vary_then_draw(parents, problem, operator, rng, evaluator):
        offspring = vary(parents, problem, operator, rng, evaluator)
        rng.random()
        return offspring

    monkeypatch.setattr(engine, "vary", vary_then_draw)
    _path, out = _run("standard_3mr", tmp_path)
    assert _sha1(out / "front.csv") != GOLDEN["standard_3mr"]


def test_200mr_without_local_search_pins_the_attachment_outputs(tmp_path, monkeypatch):
    # one more raw 32-bit output after each random_assignment gives another front: random attachment
    # must leave the generator exactly where its draws left it, not one output past or short of it
    random_assignment = netmodel.random_assignment

    def assign_then_take_one(inst, rng):
        a = random_assignment(inst, rng)
        rng.integers(2**32)
        return a

    monkeypatch.setattr(netmodel, "random_assignment", assign_then_take_one)
    _path, out = _run("200mr_without_local_search", tmp_path)
    assert _sha1(out / "front.csv") != GOLDEN["200mr_without_local_search"]


@pytest.mark.parametrize("case", sorted(WITH_CHOOSE_DRAWS))
def test_choose_draws_restore_the_fixed_choice_results(case, tmp_path, monkeypatch):
    # with the SEL choice's draw put back before each selection and the REP choice's draw after
    # each variation, every front is that of the pooled engine choosing tournament and elitist:
    # deleting the two pools changed the random stream only
    select_from, vary = engine.select_from, engine.vary

    def draw_then_select(pop, arch, count, rng):
        rng.random()
        return select_from(pop, arch, count, rng)

    def vary_then_draw(parents, problem, operator, rng, evaluator):
        offspring = vary(parents, problem, operator, rng, evaluator)
        rng.random()
        return offspring

    monkeypatch.setattr(engine, "select_from", draw_then_select)
    monkeypatch.setattr(engine, "vary", vary_then_draw)
    _path, out = _run(case, tmp_path)
    assert _sha1(out / "front.csv") == WITH_CHOOSE_DRAWS[case]
