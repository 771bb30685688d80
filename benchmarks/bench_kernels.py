#!/usr/bin/env python3
"""Benchmark the numeric kernels and the mutation and neighborhood operators.

Usage:
    python3 benchmarks/bench_kernels.py [--repeats 5]

Each case reports the best of ``--repeats`` timings. Route walks run on
valid genotypes (from ``random_assignment``) at 40 and 200 MRs, on each
instance's link tables (``inst.compiled``: per MR, plain tuples indexed by
the MR's choice). Beside the 200-MR
walks, ``RouteProblem.evaluate`` is timed on 400 ``mutate_reattach``
children, which carry their per-MR terms, so it adds them instead of
walking; their objectives are checked against a full walk first. Two rows
take 100 of those 200-MR parents, carrying their terms as in a run: 100
``crossover_parentmix`` children of consecutive pairs, and the 100 keys
``RouteProblem.genotype_key`` builds for them (the engine keys every kept
solution).
``enumerate_routes``, the oracle's walk of each MR's path tree, is timed
against one ``eval_route`` walk per assignment of a 6-MR space, and alone
at the ``oracle_n8`` workload's size (8 MRs x 5 links, 390,625
assignments) and at 9 MRs x 5 links (1,953,125), beside ``front_rows`` on
its valid rows and the whole oracle, ``brute_force_pareto``, which runs
both and builds the witnesses; the 9-MR row shows how each scales.
``mutate_reattach``, which finds the moved MR's subtree through the
instance's static reverse links (``mr_users``) and decides each candidate
link on the forest, is timed per call at 40, 200 and 1000 MRs with 6 links
each, where its cost stays nearly flat (the subtree's in-links plus radix
times depth, not the MR count), against a reference that decides each
candidate by a full route walk. An all-to-all row (200 MRs x 200 links)
shows the dense trade-off: there each subtree MR has up to n in-links to
scan. ``heavy_reattach`` is timed per call at 200 MRs, and
``random_assignment`` (initialization: randomized attachment of every MR,
which picks with one double per MR from a single ``Generator.random`` call;
it does not walk) per call at 40, 200 and 1000 MRs; and
``crossover_parentmix`` (a uniform mix of two parents' links, whose broken
MRs the same attachment repairs) at 40 and 200 MRs. ``assignment_string`` is timed per call (one label per MR; ``run`` writes one per
``front.csv`` row) on the genotypes ``random_assignment`` makes. The full walks of a generation are
timed at 40, 200 and 1000 MRs on 100 random genotypes: the batch walk
``kernels.route_terms_many`` against 100 scalar walks (``netmodel._walked``),
and ``RouteProblem.evaluate_many`` (batch check, batch walk and batch sums)
against a scalar walk and an ``evaluate`` per genotype, after a check that
both give the same objectives. The
genotypes the operator rows start from are evaluated in one batch first, so
they carry their terms, as in a run. A last case times the
delta-scored neighborhood (``iter_neighbors``: one term walk of the
genotype, then a re-walk of the moved subtree per neighbor) against one full
route walk per candidate, at 40, 200 and 1000 MRs, both for the first 20
neighbors (local search's default budget) and for the full list; it checks
that both yield the same pairs, bit for bit, and prints the ratios.

The objective-space rows time the archive's 2-D sweeps: ``pareto_ranks`` on
200 points of a 20 x 20 integer grid (many ties and repeated points), beside
the all-pairs ``dominance_matrix``, and 1000 ``insert`` calls of random
newcomers, each into the same 100-member archive. ``crowding_distance`` and
``hv2d_sweep`` take lists of (z1, z2) pairs, as the engine passes them, and
``measures.hypervolume_clipped`` is timed on that 100-member archive's
objective values, as the engine calls it once per iteration.
"""

from __future__ import annotations

import argparse
import time
from itertools import islice

import numpy as np

from survroute import kernels, measures
from survroute.archive import NondominatedArchive, insert, pareto_ranks
from survroute.moo import CandidateSolution, ObjectiveVector
from survroute.netmodel import (
    RouteAssignment, RouteProblem, _walked, assignment_string, brute_force_pareto, crossover_parentmix,
    heavy_reattach, iter_neighbors, mutate_reattach, parse_instance, random_assignment,
)


def synthetic_instance(n_mr: int, links_per_mr: int, seed: int = 0):
    """Random feasible instance: every MR can reach an AR, extra MR-MR links allowed."""
    rng = np.random.default_rng(seed)
    lines = ["BS b0 0.05", "BS b1 0.2", "AR a0 b0", "AR a1 b1"]
    mrs = [f"m{i:03d}" for i in range(n_mr)]
    lines += [f"MR {m}" for m in mrs]
    for i, m in enumerate(mrs):
        parents = {f"a{rng.integers(2)}"}
        while len(parents) < links_per_mr:
            j = int(rng.integers(n_mr))
            if j != i:
                parents.add(mrs[j])
        for p in sorted(parents):
            lines.append(f"LINK {m} {p} {rng.uniform(0.5, 5.0):.3f} {rng.uniform(0.0, 0.3):.3f}")
    lines.append("MAXDEPTH 6")
    return parse_instance("\n".join(lines))


def best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def route_batch(n_mr: int, count: int, seed: int):
    """eval_route arguments for ``count`` valid genotypes from random_assignment, and their valid share.

    The tables are the instance's ``inst.compiled``. Every walk runs in full.
    """
    inst = synthetic_instance(n_mr=n_mr, links_per_mr=6, seed=seed)
    rng = np.random.default_rng(seed)
    walks = [(random_assignment(inst, rng).choices, inst.compiled) for _ in range(count)]
    valid = sum(bool(kernels.eval_route(*args)[2]) for args in walks) / count
    return walks, valid


def walk_mutate(inst, a, rng):
    """``mutate_reattach`` with each candidate link decided by a full route walk (same RNG draws)."""
    m = int(rng.random() * inst.n_mr)
    work = list(a.choices)
    feasible = []
    for k in range(inst.compiled.radices[m]):
        if k != a.choices[m]:
            work[m] = k
            if kernels.eval_route(work, inst.compiled)[2]:
                feasible.append(k)
    if not feasible:
        return a
    work[m] = feasible[int(rng.random() * len(feasible))]
    return RouteAssignment(tuple(work))


def walk_neighbors(inst, a):
    """``iter_neighbors`` with each candidate decided and scored by one full route walk (same pairs, same order)."""
    work = list(a.choices)
    for m, radix in enumerate(inst.compiled.radices):
        for k in range(radix):
            if k != a.choices[m]:
                work[m] = k
                z1, z2, ok = kernels.eval_route(work, inst.compiled)
                if ok:
                    yield RouteAssignment(tuple(work)), ObjectiveVector((z1, z2))
        work[m] = a.choices[m]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    rng = np.random.default_rng(42)

    # single-assignment evaluation walks on valid genotypes
    walk_sets = {n_mr: route_batch(n_mr, count, seed=1) for n_mr, count in ((40, 2000), (200, 400))}
    for n_mr, (walks, valid) in walk_sets.items():
        print(f"eval_route genotypes at {n_mr} MRs: {len(walks)}, valid share {valid:.0%}")

    def eval_many(n_mr):
        walks = walk_sets[n_mr][0]

        def body():
            for args in walks:
                kernels.eval_route(*args)
        return body

    # evaluation of mutation children that carry their terms: no walk, two in-order sums
    inst200 = synthetic_instance(n_mr=200, links_per_mr=6, seed=1)
    problem200 = RouteProblem(inst200)
    draws = np.random.default_rng(1)
    parents = [random_assignment(inst200, draws) for _ in range(400)]
    problem200.evaluate_many(parents)
    children = [mutate_reattach(inst200, a, draws) for a in parents]
    for child in children:
        if problem200.evaluate(child).values != kernels.eval_route(child.choices, inst200.compiled)[:2]:
            raise AssertionError("evaluate of carried terms disagrees with a full walk")

    def cross100():
        mix = np.random.default_rng(3)
        return [crossover_parentmix(inst200, a, b, mix) for a, b in zip(parents[:100], parents[1:101])]

    # batch objective-space kernels; the plain-Python ones take (z1, z2) tuples of floats, as the engine passes them
    F = rng.random((200, 2))
    pairs = [tuple(p) for p in F.tolist()]
    # a sorted staircase: z1 ascending, z2 descending
    front = list(zip(sorted(rng.random(500).tolist()), sorted(rng.random(500).tolist(), reverse=True)))
    ties = [tuple(p) for p in rng.integers(0, 20, size=(200, 2)).astype(np.float64).tolist()]

    def sol(z1, z2, key):
        return CandidateSolution(None, ObjectiveVector((z1, z2)), key)

    # a 100-member staircase, and newcomers spread over its box: most are dominated, some join
    archive = NondominatedArchive(members=tuple(sol(float(i), float(100 - i), f"m{i}") for i in range(100)))
    newcomers = [sol(float(a), float(b), f"n{i}") for i, (a, b) in enumerate(rng.uniform(0, 100, size=(1000, 2)))]
    archive_values = [m.objectives.values for m in archive.members]

    cases = [
        ("eval_route x2000 (40 MRs)", eval_many(40)),
        ("eval_route x400 (200 MRs)", eval_many(200)),
        ("RouteProblem.evaluate x400 (200 MRs, carried)", lambda: [problem200.evaluate(c) for c in children]),
        ("crossover_parentmix x100 (200 MRs)", cross100),
        ("RouteProblem.genotype_key x100 (200 MRs, carried)", lambda: [problem200.genotype_key(a) for a in parents[:100]]),
        ("dominance_matrix (200x2)", lambda: kernels.dominance_matrix(F)),
        ("archive.pareto_ranks (200x2, ties)", lambda: pareto_ranks(ties)),
        ("archive.insert x1000 (100-member archive)", lambda: [insert(archive, s) for s in newcomers]),
        ("crowding_distance (200 pairs)", lambda: kernels.crowding_distance(pairs)),
        ("hv2d_sweep (500 pairs)", lambda: kernels.hv2d_sweep(front, 2.0, 2.0)),
        ("hypervolume_clipped (100-member archive)",
         lambda: measures.hypervolume_clipped(archive_values, (101.0, 101.0))),
    ]
    print(f"{'kernel':<52} {'time':>12}")
    for name, fn in cases:
        print(f"{name:<52} {best_of(fn, args.repeats) * 1e3:>10.2f}ms")

    # exhaustive enumeration (the oracle's inner loop) against a walk per assignment
    small = synthetic_instance(n_mr=6, links_per_mr=5, seed=2)
    sc = small.compiled
    space = [tuple(int(k) for k in np.unravel_index(flat, sc.radices)) for flat in range(sc.search_space)]
    t_tree = best_of(lambda: kernels.enumerate_routes(sc), args.repeats)
    t_loop = best_of(lambda: [kernels.eval_route(row, sc) for row in space], args.repeats)
    print(f"enumerate_routes over {sc.search_space} assignments (6 MRs):")
    print(f"  path-tree walk             {t_tree * 1e3:>8.2f}ms")
    print(f"  eval_route per assignment  {t_loop * 1e3:>8.2f}ms  ({t_loop / t_tree:.1f}x)")
    for n_mr, note in ((8, ", the oracle_n8 size"), (9, "")):
        large = synthetic_instance(n_mr=n_mr, links_per_mr=5, seed=2)
        lc = large.compiled
        t_tree = best_of(lambda: kernels.enumerate_routes(lc), args.repeats)
        valid, z1, z2 = kernels.enumerate_routes(lc)
        idx = np.flatnonzero(valid)
        z1, z2 = z1[idx], z2[idx]
        t_front = best_of(lambda: kernels.front_rows(z1, z2, idx), args.repeats)
        t_oracle = best_of(lambda: brute_force_pareto(large), args.repeats)
        print(f"enumerate_routes over {lc.search_space} assignments ({n_mr} MRs{note}):")
        print(f"  path-tree walk             {t_tree * 1e3:>8.2f}ms")
        print(f"  {f'front_rows ({idx.size} valid)':<27}{t_front * 1e3:>8.2f}ms")
        print(f"  brute_force_pareto         {t_oracle * 1e3:>8.2f}ms")

    # mutation: the forest check against one route walk per candidate link
    print("mutate_reattach per call, forest check vs a route walk per candidate:")
    for n_mr, links, count in ((40, 6, 200), (200, 6, 200), (1000, 6, 200), (200, 200, 50)):
        inst = synthetic_instance(n_mr=n_mr, links_per_mr=links, seed=1)
        rng = np.random.default_rng(1)
        starts = [random_assignment(inst, rng) for _ in range(count)]
        RouteProblem(inst).evaluate_many(starts)

        def mutate_all(fn):
            draws = np.random.default_rng(2)
            return [fn(inst, a, draws) for a in starts]

        if mutate_all(mutate_reattach) != mutate_all(walk_mutate):
            raise AssertionError("mutate_reattach disagrees with the walk-per-candidate reference")
        t_forest = best_of(lambda: mutate_all(mutate_reattach), args.repeats)
        t_walk = best_of(lambda: mutate_all(walk_mutate), args.repeats)
        per = 1e6 / len(starts)
        print(f"  {f'{n_mr} MRs x {links} links:':<22} forest {t_forest * per:>8.1f}us  walks {t_walk * per:>9.1f}us"
              f"  ({t_walk / t_forest:.1f}x)")

    # heavy mutation reattaches half the MRs, each on the forest the moves before it left
    inst = synthetic_instance(n_mr=200, links_per_mr=6, seed=1)
    rng = np.random.default_rng(1)
    starts = [random_assignment(inst, rng) for _ in range(50)]
    t_heavy = best_of(lambda: [heavy_reattach(inst, a, np.random.default_rng(2)) for a in starts], args.repeats)
    print(f"heavy_reattach per call at 200 MRs: {t_heavy / len(starts) * 1e3:>8.2f}ms")

    # initialization: every MR attached in a random order; crossover: two parents' links mixed, and the
    # broken MRs attached again
    for n_mr in (40, 200, 1000):
        inst = synthetic_instance(n_mr=n_mr, links_per_mr=6, seed=1)

        def assign_many():
            draws = np.random.default_rng(2)
            return [random_assignment(inst, draws) for _ in range(50)]

        t_assign = best_of(assign_many, args.repeats) / 50
        print(f"random_assignment per call at {n_mr:>4} MRs:   {t_assign * 1e3:>7.3f}ms")
        if n_mr == 1000:
            continue
        mates = assign_many()

        def cross_many():
            draws = np.random.default_rng(3)
            return [crossover_parentmix(inst, a, b, draws) for a, b in zip(mates, mates[1:])]

        t_cross = best_of(cross_many, args.repeats) / (len(mates) - 1)
        print(f"crossover_parentmix per call at {n_mr:>4} MRs: {t_cross * 1e3:>7.3f}ms")

    # a generation's full walks: one batch walk, or one scalar walk per genotype
    print("full walks of 100 random genotypes, one batch vs a scalar walk each:")
    for n_mr in (40, 200, 1000):
        inst = synthetic_instance(n_mr=n_mr, links_per_mr=6, seed=1)
        problem = RouteProblem(inst)
        draws = np.random.default_rng(2)
        rows = [random_assignment(inst, draws).choices for _ in range(100)]
        choices = np.array(rows, np.int64)
        if problem.evaluate_many([RouteAssignment(row) for row in rows]) != [
            problem.evaluate(_walked(inst, row)) for row in rows
        ]:
            raise AssertionError("evaluate_many disagrees with a scalar walk per genotype")
        t_kernel = best_of(lambda: kernels.route_terms_many(choices, inst.compiled), args.repeats)
        t_walked = best_of(lambda: [_walked(inst, row) for row in rows], args.repeats)
        t_many = best_of(lambda: problem.evaluate_many([RouteAssignment(row) for row in rows]), args.repeats)
        t_each = best_of(lambda: [problem.evaluate(_walked(inst, row)) for row in rows], args.repeats)
        print(f"  {n_mr:>4} MRs: route_terms_many {t_kernel * 1e3:>7.2f}ms  _walked x100 {t_walked * 1e3:>7.2f}ms"
              f"  ({t_walked / t_kernel:.1f}x)")
        print(f"            evaluate_many    {t_many * 1e3:>7.2f}ms  _walked + evaluate x100 {t_each * 1e3:>7.2f}ms"
              f"  ({t_each / t_many:.1f}x)")

    # serialization: each front.csv row joins one label per MR
    for n_mr in (40, 200):
        inst = synthetic_instance(n_mr=n_mr, links_per_mr=6, seed=1)
        draws = np.random.default_rng(2)
        carried = [random_assignment(inst, draws) for _ in range(500)]
        RouteProblem(inst).evaluate_many(carried)
        t_key = best_of(lambda: [assignment_string(inst, a) for a in carried], args.repeats)
        print(f"assignment_string per call at {n_mr:>3} MRs: {t_key / len(carried) * 1e6:>7.2f}us")

    # delta scoring: one term walk per genotype, then only the moved subtree per neighbor;
    # local search pulls at most its budget (20) of the lazy neighborhood
    print("neighborhood per genotype, delta-scored iter_neighbors vs a route walk per candidate:")
    for n_mr, count in ((40, 20), (200, 5), (1000, 1)):
        inst = synthetic_instance(n_mr=n_mr, links_per_mr=6, seed=1)
        rng = np.random.default_rng(1)
        starts = [random_assignment(inst, rng) for _ in range(count)]
        RouteProblem(inst).evaluate_many(starts)
        for a in starts:
            if list(iter_neighbors(inst, a)) != list(walk_neighbors(inst, a)):
                raise AssertionError("iter_neighbors disagrees with the walk-per-candidate reference")
        size = sum(len(list(iter_neighbors(inst, a))) for a in starts) / count
        print(f"  {n_mr} MRs ({size:.0f} valid neighbors on average):")
        for label, limit in (("first 20", 20), ("full list", None)):
            t_delta = best_of(lambda: [list(islice(iter_neighbors(inst, a), limit)) for a in starts], args.repeats)
            t_walk = best_of(lambda: [list(islice(walk_neighbors(inst, a), limit)) for a in starts], args.repeats)
            print(f"    {label:<10} delta {t_delta / count * 1e3:>9.2f}ms  walks {t_walk / count * 1e3:>9.2f}ms"
                  f"  ({t_walk / t_delta:.1f}x)")


if __name__ == "__main__":
    main()
