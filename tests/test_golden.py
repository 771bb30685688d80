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

from survroute.cli import main

from conftest import INSTANCE_DIR, synthetic_net_text


GOLDEN = {
    "standard_3mr": ("5000", "7", "e536b57affe97bb7a7b9f7422d8d6330aae2bf84"),
    "stress_5mr": ("5000", "7", "1d95d5c42a8551db42ebb0ed50994be92fb1a604"),
    "synthetic_40mr": ("2000", "3", "3b8d331e7435727bf6e615dfb68ebded47bce1f1"),
    "synthetic_200mr": ("1000", "5", "4a6adbc52e3037797fde01f17520f8668e7ee05b"),
}
SYNTHETIC = {"synthetic_40mr": (40, 11), "synthetic_200mr": (200, 13)}  # case -> (MRs, instance seed)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_front_hash(case, tmp_path):
    budget, seed, expected = GOLDEN[case]
    if case in SYNTHETIC:
        n_mr, instance_seed = SYNTHETIC[case]
        instance = tmp_path / "synthetic.net"
        instance.write_text(synthetic_net_text(n_mr, 6, 6, seed=instance_seed), encoding="utf-8")
    else:
        instance = INSTANCE_DIR / f"{case}.net"
    out = tmp_path / "out"
    assert main(["run", "--instance", str(instance), "--out", str(out), "--budget", budget, "--seed", seed]) == 0
    assert hashlib.sha1((out / "front.csv").read_bytes()).hexdigest() == expected


def test_front_hash_200mr_without_local_search(tmp_path):
    # 200 MRs, no local search: mutation, crossover repair and long route walks
    instance = tmp_path / "synthetic200.net"
    instance.write_text(synthetic_net_text(200, 6, 6, seed=13), encoding="utf-8")
    out = tmp_path / "out"
    assert main([
        "run", "--instance", str(instance), "--out", str(out), "--budget", "500", "--seed", "5",
        "--ls-budget", "0", "--population", "100", "--offspring", "100", "--capacity", "100",
    ]) == 0
    assert hashlib.sha1((out / "front.csv").read_bytes()).hexdigest() == "203363065ac6798c4c91690da826fc4153dec94f"


def test_front_hash_small_archive_with_immigration(tmp_path):
    # capacity 3 and a 2-iteration stagnation window: archive reduction under both RED
    # policies, and immigration by both IMM operators (fresh random and heavy mutation)
    out = tmp_path / "out"
    assert main([
        "run", "--instance", str(INSTANCE_DIR / "stress_5mr.net"), "--out", str(out), "--budget", "3000",
        "--seed", "3", "--capacity", "3", "--stagnation-window", "2", "--ls-budget", "5",
        "--population", "20", "--offspring", "20",
    ]) == 0
    assert hashlib.sha1((out / "front.csv").read_bytes()).hexdigest() == "893a8448cd19acb96f9e0d01a26c7efae85d26c6"
