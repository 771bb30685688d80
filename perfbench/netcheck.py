"""Synthetic instances and an independent model of them for checking outputs.

The generator writes the `.net` text the program reads and keeps the same
links as Python floats, so fronts can be re-evaluated here without the
program's own evaluator. The walk accumulates in the order the program
documents (MRs in sorted id order, links in walk order, then the base
station), so re-evaluated objectives match the printed `%.12g` text exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FRONT_HEADER = "z1,z2,genotype"
BASE_STATIONS = (("b0", "0.05"), ("b1", "0.2"))
ACCESS_ROUTERS = (("a0", "b0"), ("a1", "b1"))


@dataclass(frozen=True)
class Net:
    text: str
    mrs: tuple[str, ...]  # sorted, the program's canonical order
    links: dict  # child -> {parent: (cost, fail_prob)}
    ar_fail: dict  # access router -> failure probability of its base station
    max_depth: int


def make_net(n_mr: int, links_per_mr: int, max_depth: int, topology: random.Random, values: random.Random) -> Net:
    """Random feasible instance: every MR has one access-router link plus MR-MR links.

    ``topology`` draws which links exist, ``values`` their costs and failure probabilities.
    """
    bs_fail = dict(BASE_STATIONS)
    lines = [f"BS {bs} {p}" for bs, p in BASE_STATIONS]
    lines += [f"AR {ar} {bs}" for ar, bs in ACCESS_ROUTERS]
    mrs = tuple(f"m{i:03d}" for i in range(n_mr))
    lines += [f"MR {m}" for m in mrs]
    links: dict = {}
    for i, m in enumerate(mrs):
        parents = {ACCESS_ROUTERS[topology.randrange(len(ACCESS_ROUTERS))][0]}
        while len(parents) < links_per_mr:
            j = topology.randrange(n_mr)
            if j != i:
                parents.add(mrs[j])
        links[m] = {}
        for p in sorted(parents):
            cost, fail = f"{values.uniform(0.5, 5.0):.3f}", f"{values.uniform(0.0, 0.3):.3f}"
            lines.append(f"LINK {m} {p} {cost} {fail}")
            links[m][p] = (float(cost), float(fail))
    lines.append(f"MAXDEPTH {max_depth}")
    ar_fail = {ar: float(bs_fail[bs]) for ar, bs in ACCESS_ROUTERS}
    return Net("\n".join(lines) + "\n", mrs, links, ar_fail, max_depth)


def evaluate(net: Net, parents: dict) -> tuple[float, float] | None:
    """(z1, z2) of a parent map, or None when it is not a forest within MAXDEPTH."""
    z1 = 0.0
    z2 = 0.0
    for m in net.mrs:
        cur, cost, surv = m, 0.0, 1.0
        for _step in range(net.max_depth):
            parent = parents[cur]
            link_cost, link_fail = net.links[cur][parent]
            cost += link_cost
            surv *= 1.0 - link_fail
            if parent in net.ar_fail:
                surv *= 1.0 - net.ar_fail[parent]
                break
            cur = parent
        else:
            return None
        z1 += cost
        z2 += 1.0 - surv
    return z1, z2


def random_parents(net: Net, rng: random.Random) -> dict:
    """Random valid parent map: attach MRs in random order beneath rooted parents."""
    depth: dict = {}
    parents: dict = {}
    order = list(net.mrs)
    rng.shuffle(order)
    for m in order:
        options = [p for p in net.links[m] if p in net.ar_fail or depth.get(p, net.max_depth) < net.max_depth]
        parents[m] = rng.choice(options)  # never empty: every MR has an access-router link
        depth[m] = 1 if parents[m] in net.ar_fail else depth[parents[m]] + 1
    return parents


def dominates(a, b) -> bool:
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def hv2d(points, ref) -> float:
    """Hypervolume of the points that strictly dominate ``ref`` (minimization)."""
    inside = sorted(p for p in points if p[0] < ref[0] and p[1] < ref[1])
    vol, prev_y = 0.0, ref[1]
    for x, y in inside:
        if y < prev_y:
            vol += (ref[0] - x) * (prev_y - y)
            prev_y = y
    return vol


def random_front_hv(net: Net, points, samples: int = 101, seed: str = "ref") -> float:
    """Hypervolume of ``points`` over that of ``samples`` random valid assignments.

    Both use the worst objective values of those assignments as reference
    point, so the value depends on the instance and the points alone, never
    on the run that produced them.
    """
    rng = random.Random(seed)
    zs = [evaluate(net, random_parents(net, rng)) for _ in range(samples)]
    ref = (max(z[0] for z in zs), max(z[1] for z in zs))
    return hv2d(points, ref) / hv2d(zs, ref)


def check_front(net: Net, text: str, capacity: int | None = None) -> tuple[list, list[str]]:
    """Check a front CSV against the instance; returns (objective points, problems).

    Every row must name a valid forest whose re-evaluated objectives print as
    the row's `%.12g` text; rows are unique, sorted, mutually nondominated and
    at most ``capacity`` many.
    """
    problems: list[str] = []
    lines = text.split("\n")
    if lines[0] != FRONT_HEADER or lines[-1] != "" or "\r" in text:
        return [], ["front: bad header or line endings"]
    rows = []
    for n, line in enumerate(lines[1:-1], start=2):
        z1s, _, rest = line.partition(",")
        z2s, _, genotype = rest.partition(",")
        parents = dict(part.partition("=")[::2] for part in genotype.split(";"))
        canonical = ";".join(f"{m}={parents.get(m)}" for m in net.mrs)
        if genotype != canonical or any(parents[m] not in net.links[m] for m in net.mrs):
            problems.append(f"front line {n}: genotype is not a canonical candidate-link map")
            continue
        z = evaluate(net, parents)
        if z is None:
            problems.append(f"front line {n}: genotype is not a valid forest")
        elif (f"{z[0]:.12g}", f"{z[1]:.12g}") != (z1s, z2s):
            problems.append(f"front line {n}: printed {z1s},{z2s} but re-evaluates to {z[0]:.12g},{z[1]:.12g}")
        else:
            rows.append((z[0], z[1], genotype))
    if len({g for _z1, _z2, g in rows}) != len(rows):
        problems.append("front: duplicate genotypes")
    if rows != sorted(rows):
        problems.append("front: rows not sorted by objectives then genotype")
    points = [(z1, z2) for z1, z2, _g in rows]
    if any(dominates(a, b) for a in points for b in points):
        problems.append("front: rows are not mutually nondominated")
    if capacity is not None and len(lines) - 2 > capacity:
        problems.append(f"front: {len(lines) - 2} rows exceed capacity {capacity}")
    return points, problems
