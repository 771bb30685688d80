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
import json

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
    # and immigration by both IMM operators (fresh random and heavy mutation)
    "small_archive_with_immigration": ("stress_5mr", [
        "--budget", "3000", "--seed", "3", "--capacity", "3", "--stagnation-window", "2",
        "--ls-budget", "5", "--population", "20", "--offspring", "20",
    ]),
}
GOLDEN = {
    "standard_3mr": "e536b57affe97bb7a7b9f7422d8d6330aae2bf84",
    "stress_5mr": "05eca8fc89c5464bbbd8ff902da0e0f4cf9fd10e",
    "synthetic_40mr": "618c9c89bdc2bf00779839b8b0ec4e7111b850b1",
    "synthetic_200mr": "4a6adbc52e3037797fde01f17520f8668e7ee05b",
    "200mr_without_local_search": "c7cd660b0e5ce051cc6224eb59c8f6209aaacff4",
    "small_archive_with_immigration": "c536f13acded22d96eb7c05dc5c5aa8d757f34cd",
}

# The results of the engine that chose its archive truncation from a sixth pool, RED, with one
# more draw right after the REP choice. Its two truncations removed the same member, since an
# insert overflows the archive by at most one, so that draw was the only difference.
WITH_RED_DRAW = {
    "standard_3mr": "e536b57affe97bb7a7b9f7422d8d6330aae2bf84",
    "stress_5mr": "1d95d5c42a8551db42ebb0ed50994be92fb1a604",
    "synthetic_40mr": "3b8d331e7435727bf6e615dfb68ebded47bce1f1",
    "synthetic_200mr": "4a6adbc52e3037797fde01f17520f8668e7ee05b",
    "200mr_without_local_search": "203363065ac6798c4c91690da826fc4153dec94f",
    "small_archive_with_immigration": "893a8448cd19acb96f9e0d01a26c7efae85d26c6",
}
# sha1 of that engine's summary.json (sorted-key JSON) without "wall_clock_seconds", "instance"
# (checked on its own) and the RED pool's scheduler entry
SUMMARY_WITH_RED_DRAW = {"small_archive_with_immigration": "7b93d0a8d4ca1e27583496c54e2ecc779cb98d9a"}


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


@pytest.mark.parametrize("case", sorted(CASES))
def test_red_draw_restores_the_six_pool_results(case, tmp_path, monkeypatch):
    # with the RED choice's draw put back after each REP choice, every front and the
    # summary are those of the six-pool engine: deleting RED changed the random stream only
    choose = engine.choose

    def choose_then_draw(pool, rng):
        op = choose(pool, rng)
        if pool.operators == engine.REPLACEMENT_OPERATORS:
            rng.random()
        return op

    monkeypatch.setattr(engine, "choose", choose_then_draw)
    path, out = _run(case, tmp_path)
    assert _sha1(out / "front.csv") == WITH_RED_DRAW[case]
    if case in SUMMARY_WITH_RED_DRAW:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary.pop("instance") == str(path)
        del summary["wall_clock_seconds"]
        assert sorted(summary["scheduler"]) == ["IMM", "LS", "REP", "SEL", "VAR"]
        digest = hashlib.sha1(json.dumps(summary, sort_keys=True).encode()).hexdigest()
        assert digest == SUMMARY_WITH_RED_DRAW[case]
