"""Dominance relation, objective-vector invariants, evaluation contract."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from survroute.errors import ContractViolation, ValidityError
from survroute.engine import Evaluator
from survroute.moo import CandidateSolution, Dominance, ObjectiveVector, dominates
from survroute.netmodel import RouteProblem, RouteAssignment, brute_force_pareto, validate_assignment

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
        v = problem.evaluate(RouteAssignment((0,)))
        assert v[0] == 1.0
        assert abs(v[1] - 0.3) < 1e-12

    def test_zero_risk_when_probabilities_zero(self, trivial_instance):
        problem = RouteProblem(trivial_instance)
        v = problem.evaluate(RouteAssignment((1,)))
        assert v.values == (5.0, 0.0)

    def test_invalid_genotype_raises_validity_error(self, standard_instance):
        problem = RouteProblem(standard_instance)
        # m1 under m2 and m2 under m1 is a 2-cycle
        cyclic = RouteAssignment((2, 2, 0))
        assert not validate_assignment(standard_instance, cyclic)
        with pytest.raises(ValidityError):
            problem.evaluate(cyclic)

    def test_full_front_matches_enumeration_oracle(self, standard_instance):
        # every witness the oracle returns re-evaluates to its reported vector
        problem = RouteProblem(standard_instance)
        for ov, witness in brute_force_pareto(standard_instance):
            assert problem.evaluate(witness).values == ov.values

    def test_determinism_1000_random_genotypes(self, standard_instance):
        problem = RouteProblem(standard_instance)
        rng = np.random.default_rng(7)
        genotypes = [problem.random_genotype(rng) for _ in range(1000)]
        first = [problem.evaluate(g).values for g in genotypes]
        second = [problem.evaluate(g).values for g in genotypes]
        assert first == second  # bit-for-bit


def test_evaluator_solution_carries_key():
    problem = GridProblem(4)
    evaluator = Evaluator(problem)
    s = evaluator.solution((1, 2))
    assert s.genotype_key == "1,2"
    assert s.objectives.values == (3.0, 4.0)
    assert math.isfinite(s.objectives[0])
    assert evaluator.count == 1


def test_solution_is_a_frozen_dataclass_keyed_by_objectives_and_key():
    ov = ObjectiveVector((1.0, 2.0))
    s = CandidateSolution(genotype=(1, 2), objectives=ov, genotype_key="1,2")
    other_genotype = CandidateSolution([9], ov, "1,2")
    assert s == other_genotype and hash(s) == hash(other_genotype)  # the genotype is not compared
    assert hash(s) == hash((ov, "1,2"))
    assert s != CandidateSolution((1, 2), ov, "other")
    assert s != CandidateSolution((1, 2), ObjectiveVector((1.0, 3.0)), "1,2")
    assert s.sort_key() == ((1.0, 2.0), "1,2")
    assert repr(s) == (
        "CandidateSolution(genotype=(1, 2), objectives=ObjectiveVector(values=(1.0, 2.0)), genotype_key='1,2')"
    )
    assert [f.name for f in dataclasses.fields(s)] == ["genotype", "objectives", "genotype_key"]
    for clone in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert clone == s and repr(clone) == repr(s)
    moved = dataclasses.replace(s, genotype_key="2,1")
    assert moved.genotype == (1, 2) and moved.genotype_key == "2,1" and moved != s
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.genotype_key = "x"
