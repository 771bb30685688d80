"""Operator-pool statistics, probability matching, and sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survroute.errors import ContractViolation
from survroute.scheduler import OperatorPool, choose, probabilities, report, success_rates


def pool_with(outcomes, window=50, p_min=0.1, ops=("alpha", "beta")):
    return OperatorPool(operators=ops, window=window, p_min=p_min, outcomes=outcomes)


class _FixedDraw:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestPoolInvariants:
    def test_rejects_empty_operator_list(self):
        with pytest.raises(ContractViolation):
            OperatorPool(operators=())

    def test_rejects_floor_above_uniform(self):
        with pytest.raises(ContractViolation):
            OperatorPool(operators=("a", "b"), p_min=0.6)

    def test_unknown_operator_report(self):
        pool = pool_with(())
        with pytest.raises(ContractViolation):
            report(pool, "gamma", True)


class TestProbabilities:
    def test_empty_windows_are_uniform(self):
        pool = pool_with((), p_min=0.1)
        assert probabilities(pool) == [0.5, 0.5]

    def test_worked_rates(self):
        # alpha: 2 successes of 2 -> (2+1)/(2+2) = 0.75; beta: 0 of 2 -> 0.25
        pool = pool_with(((1, 1), (0, 0)), p_min=0.1)
        assert success_rates(pool) == [0.75, 0.25]
        p = probabilities(pool)
        assert p[0] == pytest.approx(0.7, abs=1e-12)
        assert p[1] == pytest.approx(0.3, abs=1e-12)

    def test_singleton_pool(self):
        pool = OperatorPool(operators=("only",), p_min=0.3)
        assert probabilities(pool) == [1.0]


class TestChoose:
    def test_uniform_draw_below_half_picks_first(self):
        pool = pool_with((), p_min=0.1)
        assert choose(pool, _FixedDraw(0.4)) == "alpha"

    def test_draw_past_first_mass_picks_second(self):
        pool = pool_with(((1, 1), (0, 0)), p_min=0.1)  # probabilities (0.7, 0.3)
        assert choose(pool, _FixedDraw(0.85)) == "beta"

    def test_monte_carlo_frequencies(self):
        pool = pool_with(((1, 1), (0, 0)), p_min=0.1)
        rng = np.random.default_rng(123)
        n = 100_000
        hits = sum(choose(pool, rng) == "alpha" for _ in range(n))
        assert abs(hits / n - 0.7) < 0.01


class TestReport:
    def test_success_moves_laplace_rate(self):
        pool = pool_with(())
        assert success_rates(pool)[0] == 0.5
        pool = report(pool, "alpha", True)
        assert success_rates(pool)[0] == pytest.approx(2.0 / 3.0)

    def test_window_eviction(self):
        pool = pool_with((), window=4)
        for outcome in (True, False, True, True, False):
            pool = report(pool, "alpha", outcome)
        assert pool.outcomes[0] == (0, 1, 1, 0)  # oldest success evicted

    def test_all_failures_full_window(self):
        W = 6
        pool = pool_with((), window=W)
        for _ in range(W):
            pool = report(pool, "beta", False)
        assert success_rates(pool)[1] == pytest.approx(1.0 / (W + 2))


windows = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=20).map(tuple)


def numpy_success_rates(pool):
    rates = np.empty(len(pool.operators))
    for i, window in enumerate(pool.outcomes):
        rates[i] = (sum(window) + 1.0) / (len(window) + 2.0)
    return rates


def numpy_probabilities(pool):
    rates = numpy_success_rates(pool)
    k = len(pool.operators)
    return pool.p_min + (1.0 - k * pool.p_min) * rates / rates.sum()


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_rates_and_probabilities_equal_numpy_forms(k, data):
    outcomes = data.draw(st.tuples(*[windows] * k))
    p_min = data.draw(st.floats(min_value=0.0, max_value=1.0 / k))
    pool = OperatorPool(operators=tuple(f"op{i}" for i in range(k)), window=20, p_min=p_min, outcomes=outcomes)
    rates, p = success_rates(pool), probabilities(pool)
    assert all(type(x) is float for x in rates + p)
    assert [x.hex() for x in rates] == [float(x).hex() for x in numpy_success_rates(pool)]
    assert [x.hex() for x in p] == [float(x).hex() for x in numpy_probabilities(pool)]


@settings(max_examples=300, deadline=None)
@given(st.tuples(windows, windows, windows), st.floats(min_value=0.0, max_value=1.0 / 3.0))
def test_probability_axioms(outcome_triple, p_min):
    pool = OperatorPool(operators=("a", "b", "c"), window=20, p_min=p_min, outcomes=outcome_triple)
    p = probabilities(pool)
    assert abs(sum(p) - 1.0) < 1e-12
    assert all(x >= p_min - 1e-15 for x in p)
    if p_min > 0:
        assert all(x > 0 for x in p)  # no starvation


@settings(max_examples=200, deadline=None)
@given(st.tuples(windows, windows))
def test_success_monotonicity(outcome_pair):
    pool = OperatorPool(operators=("a", "b"), window=25, p_min=0.05, outcomes=outcome_pair)
    before = probabilities(pool)[0]
    after = probabilities(report(pool, "a", True))[0]
    assert after >= before - 1e-15


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.booleans(), max_size=40),
    st.lists(st.booleans(), max_size=60),
    st.integers(min_value=1, max_value=25),
)
def test_batch_report_equals_one_by_one(earlier, batch, window):
    # flag sequences run longer than the window, so batches evict as single reports do
    pool = OperatorPool(operators=("a", "b"), window=window, p_min=0.05)
    for flag in earlier:
        pool = report(pool, "b", flag)
    one_by_one = pool
    for flag in batch:
        one_by_one = report(one_by_one, "b", flag)
    assert report(pool, "b", *batch) == one_by_one
    assert one_by_one.outcomes[1] == tuple(int(flag) for flag in earlier + batch)[-window:]
