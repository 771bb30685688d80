#!/usr/bin/env python3
"""Exact-front yardstick: how close `run` gets to the oracle's front on small instances.

Usage (from the repository root):

    PYTHONPATH=src python3 benchmarks/yardstick.py [--budget 20000] [run flags]

The run flags are those of ``survroute run`` (``--population``,
``--ls-budget``, ``--stagnation-window``, ...); ``--seed`` is not one, since
the yardstick fixes the seeds. Nine instances are drawn with
``perfbench/netcheck.make_net``: 8 MRs x 5 links, 10 x 4 and 12 x 3, MAXDEPTH
6, with value seeds 1-3 each. ``brute_force_pareto`` enumerates each one in
full, and ``run`` optimizes each at run seeds 7-18, so a row is 108 runs.

Each run's archive is scored against its instance's exact front, as in
``tests/test_quality.py``: the HV ratio is its hypervolume over the exact
front's, with the reference point at the exact front's worst values plus a
tenth of its range, and recall is the share of exact points whose objective
vector the archive holds. The last line of standard output is one JSON
object: the mean HV ratio, the mean recall, the number of runs that found
the whole exact front, and the worst run's HV ratio.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from netcheck import make_net  # noqa: E402

from survroute.cli import _RUN_PARAMS, _build_params  # noqa: E402
from survroute.engine import run  # noqa: E402
from survroute.measures import hypervolume_clipped  # noqa: E402
from survroute.netmodel import RouteProblem, brute_force_pareto, parse_instance  # noqa: E402

SHAPES = ((8, 5), (10, 4), (12, 3))  # (MRs, links per MR)
VALUE_SEEDS = (1, 2, 3)
RUN_SEEDS = range(7, 19)
MAX_DEPTH = 6


def instances():
    """(name, instance) of the nine yardstick instances."""
    for n_mr, links in SHAPES:
        for vs in VALUE_SEEDS:
            net = make_net(n_mr, links, MAX_DEPTH, random.Random(f"topo-{n_mr}x{links}-{vs}"), random.Random(vs))
            yield f"{n_mr}x{links}-{vs}", parse_instance(net.text)


def score(found, exact) -> tuple[float, float]:
    """(HV ratio, recall) of the objective vectors ``found`` against the exact front."""
    z1, z2 = zip(*exact)
    ref = (max(z1) + 0.1 * (max(z1) - min(z1)), max(z2) + 0.1 * (max(z2) - min(z2)))
    ratio = hypervolume_clipped(found, ref) / hypervolume_clipped(exact, ref)
    return ratio, len(set(found) & set(exact)) / len(exact)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    for key, (field, kind) in _RUN_PARAMS.items():
        if key != "seed":
            parser.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, help=field.replace("_", " "))
    parser.set_defaults(budget=20_000)
    settings = vars(parser.parse_args(argv))

    started = perf_counter()
    ratios, recalls = [], []
    for name, inst in instances():
        exact = [ov.values for ov, _witness in brute_force_pareto(inst)]
        for seed in RUN_SEEDS:
            archive = run(RouteProblem(inst), _build_params({**settings, "seed": seed})).archive
            ratio, recall = score([m.objectives.values for m in archive.members], exact)
            ratios.append(ratio)
            recalls.append(recall)
        print(f"{name}: mean HV ratio {statistics.fmean(ratios[-len(RUN_SEEDS):]):.4f}, "
              f"mean recall {statistics.fmean(recalls[-len(RUN_SEEDS):]):.3f}", file=sys.stderr)
    print(json.dumps({
        "settings": {key: value for key, value in settings.items() if value is not None},
        "runs": len(ratios),
        "mean_hv_ratio": round(statistics.fmean(ratios), 4),
        "mean_recall": round(statistics.fmean(recalls), 3),
        "whole_fronts": sum(recall == 1.0 for recall in recalls),
        "worst_hv_ratio": round(min(ratios), 3),
        "seconds": round(perf_counter() - started, 1),
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
