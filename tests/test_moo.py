"""Dominance relation, objective-vector invariants, evaluation contract."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from survroute.errors import ContractViolation, ValidityError
from survroute.moo import CandidateSolution, Dominance, ObjectiveVector, dominates, evaluate, make_solution
from survroute.netmodel import RouteProblem, RouteAssignment, brute_force_pareto

from conftest import GridProblem


def vec(*values):
    return ObjectiveVector(values)


class TestObjectiveVector:
    def test_rejects_empty(self):
        with pytest.raises(ContractViolation):
            ObjectiveVector(())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ContractViolation):
            ObjectiveVector((1.0, bad))

    def test_sequence_protocol(self):
        v = vec(1, 2, 3)
        assert len(v) == 3
        assert list(v) == [1.0, 2.0, 3.0]
        assert v[1] == 2.0
        assert v.as_array().dtype == np.float64


class TestDominates:
    def test_componentwise_improvement(self):
        assert dominates(vec(1, 2), vec(2, 3)) is Dominance.DOMINATES

    def test_trade_off_incomparable(self):
        assert dominates(vec(1, 3), vec(3, 1)) is Dominance.INCOMPARABLE

    def test_identity_equal(self):
        assert dominates(vec(2, 2), vec(2, 2)) is Dominance.EQUAL

    def test_weak_improvement_dominates(self):
        assert dominates(vec(1, 2), vec(1, 3)) is Dominance.DOMINATES
        assert dominates(vec(1, 3), vec(1, 2)) is Dominance.DOMINATED_BY

    def test_length_mismatch(self):
        with pytest.raises(ContractViolation):
            dominates(vec(1, 2), vec(1, 2, 3))


coords = st.integers(min_value=0, max_value=3).map(float)
vectors = st.tuples(coords, coords, coords).map(ObjectiveVector)


@given(vectors, vectors)
def test_dominates_antisymmetric(a, b):
    ab, ba = dominates(a, b), dominates(b, a)
    flipped = {
        Dominance.DOMINATES: Dominance.DOMINATED_BY,
        Dominance.DOMINATED_BY: Dominance.DOMINATES,
        Dominance.INCOMPARABLE: Dominance.INCOMPARABLE,
        Dominance.EQUAL: Dominance.EQUAL,
    }
    assert ba is flipped[ab]


@given(vectors)
def test_dominates_irreflexive(a):
    assert dominates(a, a) is Dominance.EQUAL


@given(vectors, vectors, vectors)
def test_dominates_transitive(a, b, c):
    if dominates(a, b) is Dominance.DOMINATES and dominates(b, c) is Dominance.DOMINATES:
        assert dominates(a, c) is Dominance.DOMINATES


class TestEvaluate:
    def test_single_chain_cost(self, trivial_instance):
        # one MR over link of cost 1 / fail 0.3, BS fail 0
        problem = RouteProblem(trivial_instance)
        v = evaluate(problem, RouteAssignment((0,)))
        assert v[0] == 1.0
        assert abs(v[1] - 0.3) < 1e-12

    def test_zero_risk_when_probabilities_zero(self, trivial_instance):
        problem = RouteProblem(trivial_instance)
        v = evaluate(problem, RouteAssignment((1,)))
        assert v.values == (5.0, 0.0)

    def test_invalid_genotype_raises_validity_error(self, standard_instance):
        problem = RouteProblem(standard_instance)
        # m1 under m2 and m2 under m1 is a 2-cycle
        cyclic = RouteAssignment((2, 2, 0))
        assert not problem.is_valid(cyclic)
        with pytest.raises(ValidityError):
            evaluate(problem, cyclic)

    def test_full_front_matches_enumeration_oracle(self, standard_instance):
        # every witness the oracle returns re-evaluates to its reported vector
        problem = RouteProblem(standard_instance)
        for ov, witness in brute_force_pareto(standard_instance):
            assert evaluate(problem, witness).values == ov.values

    def test_determinism_1000_random_genotypes(self, standard_instance):
        problem = RouteProblem(standard_instance)
        rng = np.random.default_rng(7)
        genotypes = [problem.random_genotype(rng) for _ in range(1000)]
        first = [evaluate(problem, g).values for g in genotypes]
        second = [evaluate(problem, g).values for g in genotypes]
        assert first == second  # bit-for-bit


def test_make_solution_carries_key():
    problem = GridProblem(4)
    s = make_solution(problem, (1, 2))
    assert s.genotype_key == "1,2"
    assert s.objectives.values == (3.0, 4.0)
    assert math.isfinite(s.objectives[0])


def test_deferred_key_is_built_once_and_behaves_like_a_given_key():
    calls = []

    def key_of(genotype):
        calls.append(genotype)
        return f"{genotype[0]},{genotype[1]}"

    ov = ObjectiveVector((1.0, 2.0))
    given_key = CandidateSolution(genotype=(1, 2), objectives=ov, genotype_key="1,2")
    deferred = CandidateSolution((1, 2), ov, key_of=key_of)
    assert calls == []
    assert deferred == given_key and hash(deferred) == hash(given_key)
    assert deferred.sort_key() == given_key.sort_key() == ((1.0, 2.0), "1,2")
    assert repr(deferred) == repr(given_key) == (
        "CandidateSolution(genotype=(1, 2), objectives=ObjectiveVector(values=(1.0, 2.0)), genotype_key='1,2')"
    )
    assert calls == [(1, 2)]
    assert deferred != CandidateSolution((1, 2), ov, genotype_key="other")
    for clone in (
        copy.copy(CandidateSolution((1, 2), ov, key_of=key_of)),
        copy.deepcopy(CandidateSolution((1, 2), ov, key_of=key_of)),
        pickle.loads(pickle.dumps(CandidateSolution((1, 2), ov, key_of=key_of))),
    ):
        assert clone == given_key and repr(clone) == repr(given_key)
        assert clone._key_of is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        deferred.genotype_key = "x"
    with pytest.raises(ContractViolation):
        CandidateSolution((1, 2), ov)
    with pytest.raises(ContractViolation):
        CandidateSolution((1, 2), ov, "1,2", key_of=key_of)
