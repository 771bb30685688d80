"""Archive behaviour: nondominated filtering, insertion, capacity reduction."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survroute import kernels
from survroute.archive import (
    NondominatedArchive,
    insert,
    nondom,
    pareto_ranks,
    rank_and_crowding,
    reduce,
)
from survroute.errors import ContractViolation
from survroute.engine import Evaluator
from survroute.moo import Dominance, dominates
from survroute.netmodel import RouteProblem, brute_force_pareto

from conftest import make_sol, numpy_crowding


def objective_set(archive):
    return archive.objective_set()


class TestNondom:
    def test_filters_dominated(self):
        arch = nondom([make_sol(1, 2), make_sol(2, 1), make_sol(2, 2)])
        assert objective_set(arch) == {(1.0, 2.0), (2.0, 1.0)}

    def test_singleton(self):
        arch = nondom([make_sol(1, 1)])
        assert objective_set(arch) == {(1.0, 1.0)}

    def test_collapses_genotype_duplicates(self):
        a = make_sol(1, 2, key="same")
        b = make_sol(1, 2, key="same")
        assert len(nondom([a, b])) == 1

    def test_keeps_equal_objectives_with_distinct_genotypes(self):
        arch = nondom([make_sol(1, 2, key="g1"), make_sol(1, 2, key="g2")])
        assert len(arch) == 2

    def test_mixed_lengths_rejected(self):
        # the 3-objective solution fails at construction: ObjectiveVector holds exactly two components
        with pytest.raises(ContractViolation):
            nondom([make_sol(1, 2), make_sol(1, 2, 3)])

    def test_matches_enumeration_oracle_front(self, standard_instance):
        # nondom over every valid assignment must equal the exact front
        problem = RouteProblem(standard_instance)
        solutions = []
        ranges = [range(r) for r in standard_instance.compiled.radices]
        from survroute.netmodel import RouteAssignment, invalid_reason

        for choices in itertools.product(*ranges):
            a = RouteAssignment(choices)
            if invalid_reason(standard_instance, a) is None:
                solutions += Evaluator(problem).solutions([a])
        arch = nondom(solutions)
        oracle = {ov.values for ov, _ in brute_force_pareto(standard_instance)}
        assert objective_set(arch) == oracle


class TestInsert:
    def test_incomparable_accepted(self):
        arch = nondom([make_sol(1, 2)])
        arch, accepted = insert(arch, make_sol(2, 1))
        assert accepted and objective_set(arch) == {(1.0, 2.0), (2.0, 1.0)}

    def test_dominated_rejected(self):
        arch = nondom([make_sol(1, 2)])
        arch, accepted = insert(arch, make_sol(1, 3))
        assert not accepted and objective_set(arch) == {(1.0, 2.0)}

    def test_dominating_sweeps_members(self):
        arch = nondom([make_sol(1, 2), make_sol(2, 1)])
        arch, accepted = insert(arch, make_sol(0, 0))
        assert accepted and objective_set(arch) == {(0.0, 0.0)}

    def test_duplicate_genotype_rejected(self):
        arch = nondom([make_sol(1, 2, key="g")])
        arch, accepted = insert(arch, make_sol(1, 2, key="g"))
        assert not accepted and len(arch) == 1

    def test_equal_objectives_new_genotype_accepted(self):
        arch = nondom([make_sol(1, 2, key="g1")])
        arch, accepted = insert(arch, make_sol(1, 2, key="g2"))
        assert accepted and len(arch) == 2

    def test_three_objectives_rejected(self):
        # each 3-objective solution fails at construction, before the archive sees it:
        # ObjectiveVector holds exactly two components
        with pytest.raises(ContractViolation):
            insert(NondominatedArchive(members=()), make_sol(1, 2, 3))
        with pytest.raises(ContractViolation):
            insert(nondom([make_sol(1, 2)]), make_sol(0, 0, 0))
        with pytest.raises(ContractViolation):
            nondom([make_sol(1, 2, 3)])

    def test_capacity_triggers_reduce(self):
        arch = NondominatedArchive(members=(), capacity=2)
        for point in [(0, 4), (4, 0), (2, 2)]:
            arch, _ = insert(arch, make_sol(*point))
        assert len(arch) == 2
        assert objective_set(arch) == {(0.0, 4.0), (4.0, 0.0)}


class TestReduce:
    def test_interior_point_dropped_first(self):
        arch = nondom([make_sol(0, 4), make_sol(2, 2), make_sol(4, 0)])
        arch = NondominatedArchive(members=arch.members, capacity=2)
        assert objective_set(reduce(arch)) == {(0.0, 4.0), (4.0, 0.0)}

    def test_within_capacity_is_noop(self):
        arch = NondominatedArchive(members=nondom([make_sol(1, 2)]).members, capacity=5)
        assert reduce(arch) is arch

    def test_capacity_one_keeps_lexicographically_smallest(self):
        arch = NondominatedArchive(
            members=nondom([make_sol(0, 4), make_sol(4, 0)]).members, capacity=1
        )
        assert objective_set(reduce(arch)) == {(0.0, 4.0)}

    def test_extremes_survive(self):
        points = {(float(i), float(20 - i)) for i in range(20)}
        sols = [make_sol(*p) for p in points]
        arch = NondominatedArchive(members=nondom(sols).members, capacity=5)
        reduced = reduce(arch)
        objs = reduced.objective_set()
        assert len(reduced) == 5
        assert min(o[0] for o in objs) == 0.0  # extreme in z1 kept
        assert min(o[1] for o in objs) == 1.0  # extreme in z2 kept (point (19, 1))

    def test_duplicate_extreme_cannot_push_out_the_other_extreme(self):
        # both copies of (0, 4) and (4, 0) get infinite crowding; unprotected, the tie would drop the
        # canonically largest member, (4, 0), and lose the z2 extreme
        sols = [make_sol(0, 4, key="a"), make_sol(0, 4, key="b"), make_sol(2, 2), make_sol(4, 0)]
        arch = NondominatedArchive(members=nondom(sols).members, capacity=2)
        reduced = reduce(arch)
        assert [(m.objectives.values, m.genotype_key) for m in reduced.members] == [
            ((0.0, 4.0), "a"),
            ((4.0, 0.0), "(4.0, 0.0)"),
        ]


points = st.tuples(
    st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
)


@settings(max_examples=200, deadline=None)
@given(st.lists(points, min_size=1, max_size=25))
def test_insert_sequences_stay_mutually_nondominated(seq):
    arch = NondominatedArchive(members=(), capacity=6)
    for i, p in enumerate(seq):
        arch, _ = insert(arch, make_sol(*p, key=f"g{i}"))
        assert len(arch) <= 6
        for a, b in itertools.combinations(arch.members, 2):
            assert dominates(a.objectives, b.objectives) in (
                Dominance.INCOMPARABLE,
                Dominance.EQUAL,
            )


@settings(max_examples=100, deadline=None)
@given(st.lists(points, min_size=1, max_size=12), st.randoms(use_true_random=False))
def test_unbounded_insert_is_order_insensitive(seq, shuffler):
    sols = [make_sol(*p, key=f"g{i}") for i, p in enumerate(seq)]
    arch1 = NondominatedArchive(members=())
    for s in sols:
        arch1, _ = insert(arch1, s)
    shuffled = list(sols)
    shuffler.shuffle(shuffled)
    arch2 = NondominatedArchive(members=())
    for s in shuffled:
        arch2, _ = insert(arch2, s)
    assert {m.genotype_key for m in arch1.members} == {m.genotype_key for m in arch2.members}
    assert objective_set(arch1) == objective_set(arch2)


def _naive_ranks(F):
    F = [tuple(row) for row in F]
    remaining = set(range(len(F)))
    ranks = [None] * len(F)
    level = 0
    while remaining:
        front = {
            i
            for i in remaining
            if not any(
                j in remaining
                and all(x <= y for x, y in zip(F[j], F[i]))
                and F[j] != F[i]
                for j in remaining
            )
        }
        for i in front:
            ranks[i] = level
        remaining -= front
        level += 1
    return ranks


def test_pareto_ranks_against_naive():
    rng = np.random.default_rng(2)
    for _ in range(20):
        F = rng.integers(0, 5, size=(rng.integers(1, 30), 2)).astype(float)
        assert pareto_ranks([tuple(p) for p in F.tolist()]) == _naive_ranks(F)


# coordinates from a small integer grid (heavy ties) or anywhere in a float range
coords = st.one_of(st.integers(0, 4).map(float), st.floats(-100.0, 100.0, allow_nan=False))


@st.composite
def point_lists(draw):
    """2-D points with ties in each coordinate and repeated vectors."""
    pts = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=40))
    pts += draw(st.lists(st.sampled_from(pts), max_size=15))  # repeats
    return draw(st.permutations(pts))


@settings(max_examples=300, deadline=None)
@given(point_lists())
def test_pareto_ranks_sweep_equals_naive_peel(pts):
    expected = _naive_ranks(pts)
    assert pareto_ranks(pts) == expected


def _rebuilt_insert(members, s, capacity):
    """Reference insert: decide by pairwise comparisons, rebuild the canonical order, then reduce."""
    if any(m.genotype_key == s.genotype_key for m in members):
        return members, False
    if any(dominates(m.objectives, s.objectives) is Dominance.DOMINATES for m in members):
        return members, False
    kept = [m for m in members if dominates(s.objectives, m.objectives) is not Dominance.DOMINATES]
    kept = tuple(sorted(kept + [s], key=lambda m: m.sort_key()))
    if capacity is not None and len(kept) > capacity:
        kept = reduce(NondominatedArchive(members=kept, capacity=capacity)).members
    return kept, True


@st.composite
def insert_sequences(draw):
    """Newcomers drawn from a few points, so equal vectors recur under different keys.

    Keys come from a small pool too, so some newcomers repeat a member's genotype key.
    """
    pts = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=12))
    return draw(st.lists(st.tuples(st.sampled_from(pts), st.integers(0, 30)), min_size=1, max_size=40))


@settings(max_examples=300, deadline=None)
@given(
    insert_sequences(),
    st.sampled_from([None, 1, 2, 3, 6]),
)
def test_insert_matches_rebuilt_reference(seq, capacity):
    arch = NondominatedArchive(members=(), capacity=capacity)
    members = ()
    for (z1, z2), k in seq:
        s = make_sol(z1, z2, key=f"g{k}")
        arch, accepted = insert(arch, s)
        members, expected = _rebuilt_insert(members, s, capacity)
        assert accepted == expected
        assert arch.members == members


def test_rank_and_crowding_shapes():
    sols = [make_sol(0, 2), make_sol(1, 1), make_sol(2, 0), make_sol(3, 3)]
    ranks, crowd = rank_and_crowding(sols)
    assert ranks == [0, 0, 0, 1]
    assert crowd[0] == crowd[2] == crowd[3] == math.inf


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=2, max_size=30),
    st.data(),
)
def test_reduce_ties_match_numpy_crowding(pts, data):
    # a 5 x 5 grid, one key per point: equal vectors under many keys, so crowding distances tie often
    members = nondom([make_sol(*p, key=f"g{i}") for i, p in enumerate(pts)]).members
    capacity = data.draw(st.integers(1, max(1, len(members) - 1)))
    arch = NondominatedArchive(members=members, capacity=capacity)
    with mock.patch.object(kernels, "crowding_distance", numpy_crowding):
        expected = reduce(arch).members
    assert reduce(arch).members == expected


def _rank0_nondom(solutions):
    """Reference ``nondom`` without capacity: canonical order, genotype duplicates collapsed, then rank 0 of a peel."""
    unique = {}
    for s in sorted(solutions, key=lambda s: s.sort_key()):
        unique.setdefault(s.genotype_key, s)
    pool = list(unique.values())
    ranks = _naive_ranks([s.objectives.values for s in pool])
    return tuple(s for s, rank in zip(pool, ranks) if rank == 0)


def _extreme_witnesses(members):
    """Reference extremes: the z1 minimizer and the z2 minimizer, ties broken by the canonical key."""
    by_z1 = min(range(len(members)), key=lambda k: members[k].sort_key())
    by_z2 = min(range(len(members)), key=lambda k: (members[k].objectives.values[1], members[k].sort_key()))
    return {by_z1, by_z2}


def _witness_reduce(members, capacity):
    """Reference ``reduce``: drop the least-crowded member not protected by ``_extreme_witnesses``, one at a time."""
    members = list(members)
    while len(members) > capacity:
        protected = _extreme_witnesses(members) if capacity >= 2 else set()
        dist = kernels.crowding_distance([m.objectives.values for m in members])
        candidates = [i for i in range(len(members)) if i not in protected]
        del members[max(candidates, key=lambda i: (-dist[i], members[i].sort_key()))]
    return tuple(members)


@settings(max_examples=300, deadline=None)
@given(insert_sequences(), st.sampled_from([None, 1, 2, 3, 6]))
def test_nondom_matches_the_rank_zero_filter(seq, capacity):
    # repeated vectors under several keys, and repeated keys: equal extremes and collapsed duplicates
    sols = [make_sol(z1, z2, key=f"g{k}") for (z1, z2), k in seq]
    expected = _rank0_nondom(sols)
    if capacity is not None and len(expected) > capacity:
        expected = _witness_reduce(expected, capacity)
    assert nondom(sols, capacity).members == expected


@settings(max_examples=300, deadline=None)
@given(insert_sequences(), st.data())
def test_reduce_keeps_what_the_extreme_witnesses_keep(seq, data):
    members = _rank0_nondom([make_sol(z1, z2, key=f"g{k}") for (z1, z2), k in seq])
    capacity = data.draw(st.integers(1, max(1, len(members) - 1)))
    arch = NondominatedArchive(members=members, capacity=capacity)
    assert reduce(arch).members == _witness_reduce(members, capacity)
