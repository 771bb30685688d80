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
    # and immigration
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
# insert overflows the archive by at most one, so that draw was the only difference. Those cases
# make no immigrants; the six-pool run of the case that does chose heavy mutation, now deleted.
WITH_RED_DRAW = {
    "standard_3mr": "e536b57affe97bb7a7b9f7422d8d6330aae2bf84",
    "stress_5mr": "1d95d5c42a8551db42ebb0ed50994be92fb1a604",
    "synthetic_40mr": "3b8d331e7435727bf6e615dfb68ebded47bce1f1",
    "synthetic_200mr": "4a6adbc52e3037797fde01f17520f8668e7ee05b",
    "200mr_without_local_search": "203363065ac6798c4c91690da826fc4153dec94f",
}

# The results of the engine that chose immigration from a pool, IMM (fresh random or heavy
# mutation), with one draw before each batch, when that pool always returned fresh random:
# the front's sha1, and the sha1 of summary.json (sorted-key JSON) without "wall_clock_seconds",
# "instance" (checked on its own) and the IMM pool's scheduler entry.
WITH_IMM_DRAW = (
    "small_archive_with_immigration",
    "1e2de941042a83c6c3c306f5282dc76e70620e59",
    "0926929622a2c0c80ba99cfc8bbcb56dbf9526d2",
)


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


@pytest.mark.parametrize("case", sorted(WITH_RED_DRAW))
def test_red_draw_restores_the_six_pool_results(case, tmp_path, monkeypatch):
    # with the RED choice's draw put back after each REP choice, every front is that of
    # the six-pool engine: deleting RED changed the random stream only
    choose = engine.choose

    def choose_then_draw(pool, rng):
        op = choose(pool, rng)
        if pool.operators == engine.REPLACEMENT_OPERATORS:
            rng.random()
        return op

    monkeypatch.setattr(engine, "choose", choose_then_draw)
    _path, out = _run(case, tmp_path)
    assert _sha1(out / "front.csv") == WITH_RED_DRAW[case]


def test_imm_draw_restores_fresh_random_results(tmp_path, monkeypatch):
    # with the IMM choice's draw put back before each immigrant batch, the front and the
    # summary are those of the pooled engine choosing fresh random: deleting the pool and
    # heavy mutation changed the random stream only
    case, front_sha1, summary_sha1 = WITH_IMM_DRAW
    random_immigrants = engine.random_immigrants
    batches = []  # one entry per immigrant batch

    def draw_then_immigrants(pop, problem, fraction, rng, evaluator, max_new=None):
        rng.random()
        batches.append(None)
        return random_immigrants(pop, problem, fraction, rng, evaluator, max_new)

    monkeypatch.setattr(engine, "random_immigrants", draw_then_immigrants)
    path, out = _run(case, tmp_path)
    assert batches  # the case makes immigrants
    assert _sha1(out / "front.csv") == front_sha1
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary.pop("instance") == str(path)
    del summary["wall_clock_seconds"]
    assert sorted(summary["scheduler"]) == ["LS", "REP", "SEL", "VAR"]
    digest = hashlib.sha1(json.dumps(summary, sort_keys=True).encode()).hexdigest()
    assert digest == summary_sha1
