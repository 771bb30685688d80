"""Quality against the exact front: `run`'s archive measured by the oracle's front.

Three small synthetic instances are enumerated in full by
``brute_force_pareto``. Each run's archive is scored with two indicators
(Zitzler et al. 2003, "Performance assessment of multiobjective optimizers"):

- ``exact_hv_ratio``: its hypervolume over the exact front's, against one
  reference point per instance (the exact front's worst values plus a tenth
  of its range), clipping archive points beyond it;
- ``exact_front_recall``: the share of exact points whose objective vector the
  archive holds (evaluation is bit-identical to the enumeration, so equality
  is exact).

Both lie in (0, 1]. The values are pinned with exact equality, as
``test_golden`` pins front hashes: a change that alters results must
re-record them and say whether quality went up or down.
"""

import pytest

from survroute import engine
from survroute.engine import RunParams, run
from survroute.measures import hypervolume_clipped
from survroute.netmodel import RouteProblem, brute_force_pareto, parse_instance

from conftest import synthetic_net_text

# name -> (MRs, links per MR, instance seed); MAXDEPTH 6. Spaces of 390,625, 1,048,576 and 531,441 assignments.
INSTANCES = {"8x5": (8, 5, 1), "10x4": (10, 4, 2), "12x3": (12, 3, 3)}
RUN_SEEDS = (1, 2)
# name -> (run settings, whether immigration fires)
SETTINGS = {
    # default settings: one iteration is up to 1050 evaluations, so 10 stagnant ones never fit
    "default_10000": ({"evaluation_budget": 10_000}, False),
    # a 3-iteration stagnation window and short iterations: immigration fires several times a run
    "stagnating_5000": (
        {
            "population_size": 20, "offspring_size": 20, "local_search_budget": 5,
            "stagnation_window": 3, "evaluation_budget": 5_000,
        },
        True,
    ),
}
# (setting, instance, run seed) -> (exact_hv_ratio, exact_front_recall)
GOLDEN = {
    ("default_10000", "8x5", 1): (0.9937104538939933, 0.8),
    ("default_10000", "8x5", 2): (0.998823969595297, 0.8666666666666667),
    ("default_10000", "10x4", 1): (0.9918449159980113, 0.8),
    ("default_10000", "10x4", 2): (0.958325672910448, 0.68),
    ("default_10000", "12x3", 1): (0.9916577983834972, 0.7407407407407407),
    ("default_10000", "12x3", 2): (0.9725634178529196, 0.5185185185185185),
    ("stagnating_5000", "8x5", 1): (1.0, 1.0),
    ("stagnating_5000", "8x5", 2): (1.0, 1.0),
    ("stagnating_5000", "10x4", 1): (0.9976704854386322, 0.92),
    ("stagnating_5000", "10x4", 2): (0.9925805777326179, 0.92),
    ("stagnating_5000", "12x3", 1): (0.997713534843031, 0.9259259259259259),
    ("stagnating_5000", "12x3", 2): (1.0, 1.0),
}


@pytest.fixture(scope="module")
def exact_fronts():
    fronts = {}
    for name, (n_mr, links, seed) in INSTANCES.items():
        inst = parse_instance(synthetic_net_text(n_mr, links, 6, seed=seed))
        fronts[name] = (inst, [ov.values for ov, _witness in brute_force_pareto(inst, guard=2_000_000)])
    return fronts


def quality(archive, exact):
    """(exact_hv_ratio, exact_front_recall) of an archive against the exact front."""
    z1, z2 = zip(*exact)
    ref = (max(z1) + 0.1 * (max(z1) - min(z1)), max(z2) + 0.1 * (max(z2) - min(z2)))
    found = [m.objectives.values for m in archive.members]
    ratio = hypervolume_clipped(found, ref) / hypervolume_clipped(exact, ref)
    return ratio, len(set(found) & set(exact)) / len(exact)


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_quality_against_exact_front(setting, exact_fronts, monkeypatch):
    params, fires = SETTINGS[setting]
    random_immigrants = engine.random_immigrants
    batches = []  # one entry per immigrant batch

    def counted_immigrants(*args, **kwargs):
        batches.append(None)
        return random_immigrants(*args, **kwargs)

    monkeypatch.setattr(engine, "random_immigrants", counted_immigrants)
    measured = {
        (setting, name, seed): quality(run(RouteProblem(inst), RunParams(seed=seed, **params)).archive, exact)
        for name, (inst, exact) in exact_fronts.items()
        for seed in RUN_SEEDS
    }
    assert bool(batches) == fires
    for ratio, recall in measured.values():
        assert 0.0 < ratio <= 1.0 and 0.0 < recall <= 1.0
    assert measured == {key: value for key, value in GOLDEN.items() if key[0] == setting}
