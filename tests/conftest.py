"""Shared fixtures: instance paths, parsed instances, a seeded synthetic instance, a run that stalls, a toy grid problem, a crowding reference."""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import pytest

from survroute.cli import main
from survroute.moo import CandidateSolution, ObjectiveVector, Problem
from survroute.netmodel import load_instance, parse_instance

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"


@pytest.fixture(scope="session")
def trivial_instance():
    return load_instance(INSTANCE_DIR / "trivial_1mr.net")


@pytest.fixture(scope="session")
def standard_instance():
    return load_instance(INSTANCE_DIR / "standard_3mr.net")


@pytest.fixture(scope="session")
def stress_instance():
    return load_instance(INSTANCE_DIR / "stress_5mr.net")


def synthetic_net_text(n_mr: int, links_per_mr: int, max_depth: int, seed: int) -> str:
    """Seeded feasible instance: each MR gets one access-router link plus MR-MR links.

    An MR has at most n_mr links (one to an access router, one to each other
    MR), so ``links_per_mr > n_mr`` raises ValueError.
    """
    if links_per_mr > n_mr:
        raise ValueError(f"{links_per_mr} links per MR need at least as many MRs, got {n_mr}")
    rng = random.Random(seed)
    lines = ["BS b0 0.05", "BS b1 0.2", "AR a0 b0", "AR a1 b1"]
    mrs = [f"m{i:03d}" for i in range(n_mr)]
    lines += [f"MR {m}" for m in mrs]
    for i, m in enumerate(mrs):
        parents = {f"a{rng.randrange(2)}"}
        while len(parents) < links_per_mr:
            j = rng.randrange(n_mr)
            if j != i:
                parents.add(mrs[j])
        for p in sorted(parents):
            lines.append(f"LINK {m} {p} {rng.uniform(0.5, 5.0):.3f} {rng.uniform(0.0, 0.3):.3f}")
    lines.append(f"MAXDEPTH {max_depth}")
    return "\n".join(lines) + "\n"


def layered_net_text(levels: int, width: int, max_depth: int, seed: int) -> str:
    """Seeded deep instance on which randomized attachment stalls: ``levels`` levels of ``width`` >= 2 MRs.

    Each MR of level L has one link up to a random MR of level L - 1 (to the
    access router for level 0) and one to its same-level neighbour
    (i + 1) % width. Only the up links reach the access router, and the
    all-up assignment is valid, at depth L + 1, when levels <= max_depth.
    """
    rng = random.Random(seed)
    # named index first, so an MR's up link sorts before or after its neighbour link
    rows = [[f"m{i}_{level}" for i in range(width)] for level in range(levels)]
    lines = ["BS b0 0.05", "AR a0 b0"] + [f"MR {m}" for row in rows for m in row]
    for level, row in enumerate(rows):
        for i, m in enumerate(row):
            up = "a0" if level == 0 else rng.choice(rows[level - 1])
            for p in (up, row[(i + 1) % width]):
                lines.append(f"LINK {m} {p} {rng.uniform(0.5, 5.0):.3f} {rng.uniform(0.0, 0.3):.3f}")
    lines.append(f"MAXDEPTH {max_depth}")
    return "\n".join(lines) + "\n"


def run_stagnating(tmp_path, monkeypatch, window: int, fraction: str, ls_budget: int) -> Path:
    """Run `survroute run` on a 12-MR instance whose archive stalls within its 600 evaluations; returns the output directory.

    The run works in ``tmp_path`` with relative paths, so ``summary.json``
    names the same instance file on every run.
    """
    monkeypatch.chdir(tmp_path)
    Path("stagnating.net").write_text(synthetic_net_text(12, 3, 4, 7), encoding="utf-8")
    assert main([
        "run", "--instance", "stagnating.net", "--out", "out",
        "--population", "8", "--offspring", "6", "--capacity", "5", "--budget", "600", "--seed", "1",
        "--stagnation-window", str(window), "--immigrant-fraction", fraction, "--ls-budget", str(ls_budget),
    ]) == 0
    return tmp_path / "out"


def summary_without_clock(out) -> dict:
    """``out``'s summary.json, less wall_clock_seconds: what two runs of one seed must agree on."""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    del summary["wall_clock_seconds"]
    return summary


@pytest.fixture(scope="session")
def synthetic40_instance():
    return parse_instance(synthetic_net_text(40, 6, 6, seed=11))


def numpy_crowding(points):
    """Reference crowding distance: the numpy form ``kernels.crowding_distance`` had, one array per call.

    Each objective is ordered by a stable argsort (mergesort), so ties keep
    their row order. The plain-Python kernel must match it bit for bit.
    """
    F = np.array(points, dtype=np.float64).reshape(-1, 2)
    n, d = F.shape
    dist = np.zeros(n, np.float64)
    if n == 0:
        return dist
    for m in range(d):
        order = np.argsort(F[:, m], kind="mergesort")
        dist[order[0]] = np.inf
        dist[order[n - 1]] = np.inf
        span = F[order[n - 1], m] - F[order[0], m]
        if span > 0.0:
            for k in range(1, n - 1):
                dist[order[k]] += (F[order[k + 1], m] - F[order[k - 1], m]) / span
    return dist


def make_sol(*values, key: str | None = None) -> CandidateSolution:
    """Bare solution around an objective vector, for archive/engine tests."""
    vec = tuple(float(v) for v in values)
    return CandidateSolution(
        genotype=vec,
        objectives=ObjectiveVector(vec),
        genotype_key=key if key is not None else repr(vec),
    )


class GridProblem(Problem):
    """Toy problem on an n x n integer grid.

    Genotype (x, y); objectives (x + y, (n-1 - x) + y): the y = 0 row is the
    Pareto front, and larger y is strictly worse. ``move_prob`` gates whether
    mutation moves at all.
    """

    def __init__(self, n: int = 8, move_prob: float = 1.0):
        self.n = n
        self.move_prob = move_prob

    def evaluate(self, genotype):
        x, y = genotype
        return ObjectiveVector((float(x + y), float((self.n - 1 - x) + y)))

    def random_genotype(self, rng):
        return (int(rng.integers(self.n)), int(rng.integers(self.n)))

    def is_valid(self, genotype):
        x, y = genotype
        return 0 <= x < self.n and 0 <= y < self.n

    def genotype_key(self, genotype):
        return f"{genotype[0]},{genotype[1]}"

    def mutate(self, genotype, rng):
        if rng.random() >= self.move_prob:
            return genotype
        x, y = genotype
        axis = int(rng.integers(2))
        step = 1 if rng.random() < 0.5 else -1
        if axis == 0:
            x = min(self.n - 1, max(0, x + step))
        else:
            y = min(self.n - 1, max(0, y + step))
        return (x, y)

    def crossover(self, a, b, rng):
        return (a[0], b[1]) if rng.random() < 0.5 else (b[0], a[1])

    def neighborhood(self, genotype):
        x, y = genotype
        for dx, dy in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            g = (x + dx, y + dy)
            if self.is_valid(g):
                yield g, self.evaluate(g)
