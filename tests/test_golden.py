"""Golden front hashes: `survroute run` and `survroute oracle` output pinned across code changes.

Each case runs the CLI with a fixed seed (default local search, with a
population of 6 in the 3-MR case, the evolutionary-only settings of the
200-MR case, or the small-archive settings of the last case) and compares the sha1 of the written
``front.csv`` bytes, and the VAR pool's entry in ``summary.json``, with recorded values.
``ORACLE_GOLDEN`` pins `survroute oracle`'s ``front.csv`` the same way, on
synthetic spaces of up to 390,625 assignments, and ``STAGNATION_GOLDEN`` pins
`survroute run`'s front and summary on runs that stall and immigrate.
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

from conftest import INSTANCE_DIR, run_stagnating, summary_without_clock, synthetic_net_text
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

# sha1 of `survroute oracle`'s front.csv on synthetic_net_text(MRs, links per MR, MAXDEPTH, seed): spaces of
# 262,144 to 390,625 assignments, where test_committed_oracle_fronts_are_fresh reaches only 1,024. At
# MAXDEPTH 3 the walk cap marks 112,457 more assignments invalid than at 6 and leaves the same front;
# at MAXDEPTH 2 it changes the front.
ORACLE_GOLDEN = {
    (8, 5, 6, 1): "7c11382603c5be81dbb4e7e0d4cf089d3704c689",
    (8, 5, 6, 2): "15021ee24dad9f69904da02b030da2cc9f832d43",
    (9, 4, 6, 1): "5593aa654b5e392d39f2ecfeede496f0dea2a236",
    (8, 5, 3, 1): "7c11382603c5be81dbb4e7e0d4cf089d3704c689",
    (8, 5, 2, 1): "4a96da2841bf42fd3b27a68f64fcbcb6a8e0d33e",
}

# The stagnation path, which no benchmark workload and one GOLDEN case reach: conftest.run_stagnating
# with (stagnation window, immigrant fraction, local-search budget) -> sha1 of front.csv, and of
# summary.json without wall_clock_seconds (its HV trace, evaluations and VAR pool). Each run with a
# fraction above 0 immigrates 1 to 55 times; with a fraction of 0 a stall only lets the run go on.
STAGNATION_GOLDEN = {
    (1, "0", 0): ("c3c7d04f14ba3546aa54a9a77b948e7afb8fb1d3", "a80ff6acf4a06adc75c6f90b2cf9b11cf5908a28"),
    (1, "0", 3): ("c4e7327b9f1c7fb4a3f1595f1d00d3dade144d18", "13af75e940f20be7299fd93bffef81a021c15885"),
    (1, "0.3", 0): ("9a5b7121d067dfcaaddd521572796bd6ad4964ed", "d8e58ac393295d32b34a50cec1c88fd90cf4338a"),
    (1, "0.3", 3): ("1a9f6f6bbb97514299d656016c077ec7ab29da50", "25613e28d9ff4d5f18826ad899f423372864d830"),
    (1, "1.0", 0): ("aefaba0919b6f53373ca5ee3d21ff439c252790c", "e28eda3c5e32ad866cb2ef56f202f68bee4e3d4a"),
    (1, "1.0", 3): ("15e81825cb8beb7220a883540111dc5c426926d7", "477dc9a05eb1aba5a9fe6db6b371023342136ef1"),
    (3, "0", 0): ("c3c7d04f14ba3546aa54a9a77b948e7afb8fb1d3", "9ba4419b07153d3ef6123de9504b139f22e7c605"),
    (3, "0", 3): ("c4e7327b9f1c7fb4a3f1595f1d00d3dade144d18", "a292db4213541789deb6a06462373043ad114bd8"),
    (3, "0.3", 0): ("aefaba0919b6f53373ca5ee3d21ff439c252790c", "6bdc411126281cebd114cd200449db10368649ce"),
    (3, "0.3", 3): ("087cf9ecfaf5688968dfbd73b87ad6198737690d", "d665ce54ba25ce5e375ef3f65d8a2970dc70900d"),
    (3, "1.0", 0): ("be40a7d1001bc167c344dc084c8dd3e31d4e450d", "5045befb28aa0207fe310bfdab4f166865bd52f1"),
    (3, "1.0", 3): ("087cf9ecfaf5688968dfbd73b87ad6198737690d", "c54b8ebf28ed51748db33dc37af92d6bfbcff274"),
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


@pytest.mark.parametrize("case", sorted(ORACLE_GOLDEN))
def test_oracle_front_hash(case, tmp_path):
    path, out = tmp_path / "synthetic.net", tmp_path / "front.csv"
    path.write_text(synthetic_net_text(*case), encoding="utf-8")
    assert main(["oracle", str(path), "--out", str(out)]) == 0
    assert _sha1(out) == ORACLE_GOLDEN[case]


def test_front_hash_200mr_without_local_search(tmp_path):
    _path, out = _run("200mr_without_local_search", tmp_path)
    assert _sha1(out / "front.csv") == GOLDEN["200mr_without_local_search"]


def test_front_hash_small_archive_with_immigration(tmp_path):
    _path, out = _run("small_archive_with_immigration", tmp_path)
    assert _sha1(out / "front.csv") == GOLDEN["small_archive_with_immigration"]


@pytest.mark.parametrize("case", sorted(STAGNATION_GOLDEN), ids=lambda case: "window{}-fraction{}-ls{}".format(*case))
def test_stagnation_hash(case, tmp_path, monkeypatch):
    out = run_stagnating(tmp_path, monkeypatch, *case)
    summary = json.dumps(summary_without_clock(out), sort_keys=True).encode()
    assert (_sha1(out / "front.csv"), hashlib.sha1(summary).hexdigest()) == STAGNATION_GOLDEN[case]


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
