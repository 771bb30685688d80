"""z1 and z2 checked against their README definitions, from an instance's text alone.

- z1, route cost: every chosen link cost summed along each MR's path to its
  access router.
- z2, service-loss risk: the expected number of MRs cut off when links and
  base stations fail independently with their configured probabilities.

The package, the oracle and the test helpers all compute z2 from one product
formula per path. Here z2 is the definition itself: every failure scenario of
the instance's links and base stations is enumerated, weighted by its
probability, and the MRs it cuts off are counted. Validity is decided by a
walk of each MR's parent chain over the text's ids. On an instance too large
to enumerate, failure scenarios are sampled instead, and z2 must lie within
a few standard errors of the mean number of MRs cut off.
"""

import itertools

import numpy as np
import pytest

from survroute.netmodel import (
    RouteProblem, assignment_from_parent_map, invalid_reason, load_instance, parse_instance, random_assignment,
)

from conftest import INSTANCE_DIR, synthetic_net_text

DEFAULT_MAX_DEPTH = 4  # the README's default for an instance without a MAXDEPTH record


def read_records(text):
    """(base station -> failure probability, access router -> base station, MR ids, links, MAXDEPTH) of an instance text.

    ``links`` lists (child, parent, cost, failure probability) in file order.
    """
    stations, routers, mrs, links, max_depth = {}, {}, [], [], DEFAULT_MAX_DEPTH
    for line in text.splitlines():
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        kind, args = fields[0], fields[1:]
        if kind == "BS":
            stations[args[0]] = float(args[1])
        elif kind == "AR":
            routers[args[0]] = args[1]
        elif kind == "MR":
            mrs.append(args[0])
        elif kind == "LINK":
            links.append((args[0], args[1], float(args[2]), float(args[3])))
        elif kind == "MAXDEPTH":
            max_depth = int(args[0])
    return stations, routers, mrs, links, max_depth


def path_of(mr, parent, routers, max_depth):
    """The chosen links (child, parent) from ``mr`` to its access router, or None when the walk cycles or runs past MAXDEPTH links."""
    path, cur = [], mr
    while cur not in routers:
        if len(path) == max_depth or any(child == cur for child, _ in path):
            return None
        path.append((cur, parent[cur]))
        cur = parent[cur]
    return path


@pytest.mark.parametrize("name, scenarios", [("standard_3mr", 2**14), ("trivial_1mr", 2**3)])
def test_objectives_match_their_definitions(name, scenarios):
    path = INSTANCE_DIR / f"{name}.net"
    stations, routers, mrs, links, max_depth = read_records(path.read_text(encoding="utf-8"))
    link_at = {(child, parent): (cost, p) for child, parent, cost, p in links}
    # every component that can fail, and each scenario as a bit mask over them (bit set: failed)
    components = [(child, parent) for child, parent, _cost, _p in links] + list(stations)
    assert 2 ** len(components) == scenarios
    fail = [link_at[c][1] if c in link_at else stations[c] for c in components]
    masks = np.arange(scenarios, dtype=np.int64)
    weight = np.ones(scenarios)
    for bit, p in enumerate(fail):
        weight *= np.where(masks >> bit & 1, p, 1.0 - p)
    assert abs(weight.sum() - 1.0) < 1e-12
    bit_of = {c: 1 << bit for bit, c in enumerate(components)}

    inst = load_instance(path)
    problem = RouteProblem(inst)
    options = [[parent for child, parent, _cost, _p in links if child == mr] for mr in mrs]
    valid = 0
    for parents in itertools.product(*options):
        parent = dict(zip(mrs, parents))
        paths = [path_of(mr, parent, routers, max_depth) for mr in mrs]
        a = assignment_from_parent_map(inst, parent)
        assert (invalid_reason(inst, a) is None) == all(p is not None for p in paths)
        if not all(p is not None for p in paths):
            continue
        valid += 1
        # z1: each MR's path cost, from the MR up, summed over the MRs in file order
        z1 = 0.0
        for p in paths:
            cost = 0.0
            for link in p:
                cost += link_at[link][0]
            z1 += cost
        # z2: an MR is cut off in a scenario where a link of its path or its access router's base station fails
        cut_off = np.zeros(scenarios)
        for p in paths:
            needed = bit_of[routers[p[-1][1]]]
            for link in p:
                needed |= bit_of[link]
            cut_off += (masks & needed) != 0
        z2 = float(weight @ cut_off)
        got = problem.evaluate(a).values
        assert got[0] == z1
        assert abs(got[1] - z2) < 1e-12
    assert valid > 0


def test_z2_matches_sampled_failure_scenarios():
    # 40 MRs x 6 links: 242 components, far too many scenarios to enumerate
    text = synthetic_net_text(40, 6, 6, 13)
    stations, routers, mrs, links, max_depth = read_records(text)
    components = [(child, parent) for child, parent, _cost, _p in links] + list(stations)
    column = {c: j for j, c in enumerate(components)}
    fail = np.array([p for _child, _parent, _cost, p in links] + list(stations.values()))
    inst = parse_instance(text)
    problem = RouteProblem(inst)
    rng = np.random.default_rng(2024)
    samples, chunk = 20_000, 5_000
    for a in (random_assignment(inst, rng) for _ in range(3)):
        parent = {mr: labels[k].split("=")[1] for mr, labels, k in zip(mrs, inst.compiled.mr_labels, a.choices)}
        # needs[j, i]: MR i is cut off when component j fails (a link of its path, or its access router's station)
        needs = np.zeros((len(components), len(mrs)))
        for i, mr in enumerate(mrs):
            path = path_of(mr, parent, routers, max_depth)
            for j in [column[link] for link in path] + [column[routers[path[-1][1]]]]:
                needs[j, i] = 1.0
        # each component fails on its own, with its own probability; count the MRs each scenario cuts off
        cut_off = np.concatenate([
            ((rng.random((chunk, len(components))) < fail) @ needs > 0).sum(axis=1)
            for _ in range(samples // chunk)
        ])
        error = cut_off.std(ddof=1) / np.sqrt(samples)
        assert abs(cut_off.mean() - problem.evaluate(a).values[1]) < 5 * error
