"""Golden front hashes: `survroute run` output pinned across code changes.

Each case runs the CLI with a fixed seed (default local search, the
evolutionary-only settings of the 200-MR case, or the small-archive
settings of the last case) and compares the sha1 of the written
``front.csv`` bytes with a recorded value.
The other determinism tests compare two runs of the same code; this one
fails when a refactor changes any front, RNG draw order or tie-break.
A deliberate change of results must update these values and say why.
"""

import hashlib

import pytest

from survroute import engine
from survroute.cli import main

from conftest import INSTANCE_DIR, synthetic_net_text


# case -> (shipped instance name, or (MRs, seed) of a synthetic one; CLI flags)
CASES = {
    "standard_3mr": ("standard_3mr", ["--budget", "5000", "--seed", "7"]),
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
    "standard_3mr": "e536b57affe97bb7a7b9f7422d8d6330aae2bf84",
    "stress_5mr": "6694ce4efcad78467ec6ed006fff3564b5e47980",
    "synthetic_40mr": "8609174830706d676d3e63257262d5cec4bc4399",
    "synthetic_200mr": "4a6adbc52e3037797fde01f17520f8668e7ee05b",
    "200mr_without_local_search": "6f448752996af60e8d191c5735daf23689c3b10d",
    "small_archive_with_immigration": "c536f13acded22d96eb7c05dc5c5aa8d757f34cd",
}

# The results of the engine that chose its local search from a pool, LS (a Chebyshev walk or
# Pareto descent), with one draw right after variation, when that pool always returned Pareto
# descent, the one local search left.
WITH_LS_DRAW = {
    "standard_3mr": "e536b57affe97bb7a7b9f7422d8d6330aae2bf84",
    "stress_5mr": "8d59da2f551592fdb9d4611e408c053379d36669",
    "synthetic_40mr": "8609174830706d676d3e63257262d5cec4bc4399",
    "synthetic_200mr": "4a6adbc52e3037797fde01f17520f8668e7ee05b",
    "200mr_without_local_search": "ea69597d9e7c2834112a62be6b663e74f3c78637",
    "small_archive_with_immigration": "c536f13acded22d96eb7c05dc5c5aa8d757f34cd",
}

# The results of the engine that chose its archive truncation from a sixth pool, RED, with one
# more draw right after the REP choice. Its two truncations removed the same member, since an
# insert overflows the archive by at most one, so that draw was the only difference. That engine
# also drew an LS choice, which could pick the deleted Chebyshev walk; only the cases whose
# front does not depend on it can be reproduced. The case that makes immigrants is left out: its
# six-pool run chose heavy mutation, now deleted.
WITH_RED_DRAW = {
    "standard_3mr": "e536b57affe97bb7a7b9f7422d8d6330aae2bf84",
    "synthetic_200mr": "4a6adbc52e3037797fde01f17520f8668e7ee05b",
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


def _draw_after_vary(monkeypatch):
    """Put one draw back right after each variation, where the LS choice drew."""
    vary = engine.vary

    def vary_then_draw(parents, problem, operator, rng, evaluator):
        offspring = vary(parents, problem, operator, rng, evaluator)
        rng.random()
        return offspring

    monkeypatch.setattr(engine, "vary", vary_then_draw)


@pytest.mark.parametrize("case", sorted(WITH_LS_DRAW))
def test_ls_draw_restores_the_pareto_step_results(case, tmp_path, monkeypatch):
    # with the LS choice's draw put back before each local search, every front is that of the
    # pooled engine choosing Pareto descent: deleting the pool changed the random stream only
    _draw_after_vary(monkeypatch)
    _path, out = _run(case, tmp_path)
    assert _sha1(out / "front.csv") == WITH_LS_DRAW[case]


@pytest.mark.parametrize("case", sorted(WITH_RED_DRAW))
def test_red_draw_restores_the_six_pool_results(case, tmp_path, monkeypatch):
    # with the LS choice's draw and the RED choice's draw after each REP choice put back, these
    # fronts are those of the six-pool engine: deleting RED changed the random stream only
    _draw_after_vary(monkeypatch)
    choose = engine.choose

    def choose_then_draw(pool, rng):
        op = choose(pool, rng)
        if pool.operators == engine.REPLACEMENT_OPERATORS:
            rng.random()
        return op

    monkeypatch.setattr(engine, "choose", choose_then_draw)
    _path, out = _run(case, tmp_path)
    assert _sha1(out / "front.csv") == WITH_RED_DRAW[case]
