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

import numpy as np
import pytest

from survroute import engine, netmodel
from survroute.cli import main

from conftest import INSTANCE_DIR, synthetic_net_text
from integer_draws import IndexBlock, index_draws


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
    "standard_3mr": "c582a24b0c1b10399facffa2e6710cf914d9e959",
    "stress_5mr": "1c605854be7272755a37ac2c8cbb596595ee57f9",
    "synthetic_40mr": "a3637f678710c43685297fad1c13db19fcd49e12",
    "synthetic_200mr": "f17545b08d48f90c40a1305d9888ea21626be9be",
    "200mr_without_local_search": "e861e34ac60d0d9513992a3b6c3b0fcdd9b29cb3",
    "small_archive_with_immigration": "c536f13acded22d96eb7c05dc5c5aa8d757f34cd",
}

# The fronts of the operators that picked among f links or MRs with one Generator.integers(f) draw (none
# at f == 1), before each pick became int(u * f) for one double u of Generator.random. Same settings.
WITH_INTEGER_PICKS = {
    "standard_3mr": "1560bf14ea0ff4f6e8b462eedadab634044619ad",
    "stress_5mr": "0ff61869c2bb88b628868e88c702638fe2587d97",
    "synthetic_40mr": "23659751cfce8e8d5e888cb7573a0d03281fb085",
    "synthetic_200mr": "a5cc2edf4ec5864c5f23c287fda1c408aa042be0",
    "200mr_without_local_search": "7a8c263e5424d38b15312bdc73e3756cebeb7dc8",
    "small_archive_with_immigration": "4e06c7ee4626b856b8563f3cf981e952449fd05a",
}

# summary.json["scheduler"] of each case: (probabilities, trials, successes) of the VAR pool, whose
# operators are mutate and crossover. It is the one output that sees the pool's window and floor: a
# floor of 0.1 changes every case's probabilities, a window of 49 those of synthetic_40mr,
# synthetic_200mr and small_archive_with_immigration, and neither changes any front.
SCHEDULER = {
    "standard_3mr": ([0.425, 0.5750000000000001], [12, 0], [4, 0]),
    "stress_5mr": ([0.7250000000000001, 0.275], [250, 50], [31, 1]),
    "synthetic_40mr": ([0.5750000000000001, 0.42500000000000004], [50, 50], [6, 4]),
    "synthetic_200mr": ([0.8568965517241379, 0.14310344827586208], [0, 50], [0, 2]),
    "200mr_without_local_search": ([0.6928571428571428, 0.3071428571428571], [300, 100], [21, 1]),
    "small_archive_with_immigration": ([0.46707317073170734, 0.5329268292682927], [260, 220], [205, 179]),
}

# The results of the engine that chose its selection (tournament or uniform) and its replacement
# (elitist or generational_elite1) from two scheduler pools, when those pools always returned
# tournament and elitist, the two operators left. Each choice made one draw: right before
# selection, and right after local search, which draws nothing, so right after variation.
# standard_3mr is left out: at its settings then (budget 5000, seed 7), its front was the exact one with
# or without those draws. That engine picked with integer draws, so these run under _IntegerPicks too.
WITH_CHOOSE_DRAWS = {
    "stress_5mr": "9a483fe7e614df9627f78fb6ae4fa6f07c1a0673",
    "synthetic_40mr": "3f83ca0c724ad55e590a1f4fc4d7787b9725c9a0",
    "synthetic_200mr": "69d0f445fc62fbfc790bed40646f7e2b86b52f7d",
    "200mr_without_local_search": "0f4c9913d163290c56516c6bc05b0ca6772660e2",
    "small_archive_with_immigration": "c536f13acded22d96eb7c05dc5c5aa8d757f34cd",
}


class _Pick:
    """Stands for one double u of ``Generator.random``: ``u * f`` makes the integer pick ``draw(f)`` instead.

    ``draw`` is an ``integer_draws`` draw, which equals ``rng.integers(f)``
    and draws nothing at f == 1, as the integer picks did. A comparison or
    ``float(u)`` realizes u as one real double, drawn on first use, for the
    coins and the scheduler's draw.
    """

    def __init__(self, rng, draw):
        self._rng, self._draw, self._value = rng, draw, None

    def __mul__(self, f):
        return self._draw(f)

    def __float__(self):
        if self._value is None:
            self._value = self._rng.random()
        return self._value

    def __lt__(self, x):
        return float(self) < x


class _Picks:
    """Stands for ``Generator.random(size)``: ``tolist()`` gives ``_Pick``s, and a comparison draws the real doubles."""

    def __init__(self, owner, size):
        self._owner, self._size = owner, size

    def tolist(self):
        return self._owner.block_picks(self._size)

    def __ge__(self, x):
        return self._owner._rng.random(self._size) >= x


class _IntegerPicks:
    """A ``Generator`` whose ``random`` hands out stand-ins that pick with the pre-change integer draws.

    A single pick is a draw of one ``index_draws`` drawer, as mutation's
    were. The picks of ``random(size).tolist()`` are read from an
    ``IndexBlock``, as random attachment's were (crossover repair drew the
    same values from a drawer); the block stays open while the sweep picks
    and closes at the next call on the generator. Every other call is the
    real generator's.
    """

    def __init__(self, rng):
        self._rng, self._draw, self._block = rng, index_draws(rng), None

    def _close_block(self):
        if self._block is not None:
            self._block.__exit__(None, None, None)
            self._block = None

    def block_picks(self, size):
        self._close_block()
        block = self._block = IndexBlock(self._rng, size)

        def draw(n):  # Lemire's step on the block's outputs, as IndexBlock's docstring makes it
            if n == 1:
                return 0
            m = block.outputs[block.used] * n
            block.used += 1
            if m & 0xFFFFFFFF < n:
                m, block.used = block.redraw(n, m, block.used)
            return m >> 32

        return [_Pick(self._rng, draw) for _ in range(size)]

    def random(self, size=None):
        self._close_block()
        return _Pick(self._rng, self._draw) if size is None else _Picks(self, size)

    def __getattr__(self, name):
        self._close_block()
        return getattr(self._rng, name)


def _pick_with_integers(monkeypatch):
    """Make every generator the engine creates an ``_IntegerPicks``: each pick among f is one integer draw again."""
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _IntegerPicks(default_rng(seed)))


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
    # must leave the generator exactly where its n doubles left it, not one output past or short of it
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
    # (the pooled engine picked with integer draws, so the run picks with them too)
    select_from, vary = engine.select_from, engine.vary

    def draw_then_select(pop, arch, count, rng):
        float(rng.random())
        return select_from(pop, arch, count, rng)

    def vary_then_draw(parents, problem, operator, rng, evaluator):
        offspring = vary(parents, problem, operator, rng, evaluator)
        float(rng.random())
        return offspring

    _pick_with_integers(monkeypatch)
    monkeypatch.setattr(engine, "select_from", draw_then_select)
    monkeypatch.setattr(engine, "vary", vary_then_draw)
    _path, out = _run(case, tmp_path)
    assert _sha1(out / "front.csv") == WITH_CHOOSE_DRAWS[case]


@pytest.mark.parametrize("case", sorted(WITH_INTEGER_PICKS))
def test_integer_picks_restore_the_pre_change_results(case, tmp_path, monkeypatch):
    # with the pre-change integer draw (integer_draws) put back in place of each pick's double, every front is
    # that of the integer picks: picking int(u * f) changed the random stream only
    _pick_with_integers(monkeypatch)
    _path, out = _run(case, tmp_path)
    assert _sha1(out / "front.csv") == WITH_INTEGER_PICKS[case]
