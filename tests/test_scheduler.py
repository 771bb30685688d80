"""Operator-pool statistics, probability matching, and sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survroute.errors import ContractViolation
from survroute.scheduler import FLOOR, WINDOW, OperatorPool, choose, probabilities, report, success_rates


def pool_with(outcomes):
    return OperatorPool(operators=("alpha", "beta"), outcomes=outcomes)


class _FixedDraw:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestPoolInvariants:
    def test_rejects_empty_operator_list(self):
        with pytest.raises(ContractViolation):
            OperatorPool(operators=())

    def test_rejects_more_operators_than_the_floor_allows(self):
        # every operator keeps at least FLOOR, so 1/FLOOR operators take all the probability
        most = round(1 / FLOOR)
        assert probabilities(OperatorPool(operators=tuple(f"op{i}" for i in range(most)))) == [FLOOR] * most
        with pytest.raises(ContractViolation):
            OperatorPool(operators=tuple(f"op{i}" for i in range(most + 1)))

    def test_unknown_operator_report(self):
        pool = pool_with(())
        with pytest.raises(ContractViolation):
            report(pool, "gamma", True)


class TestProbabilities:
    def test_empty_windows_are_uniform(self):
        pool = pool_with(())
        assert probabilities(pool) == [0.5, 0.5]

    def test_worked_rates(self):
        # alpha: 2 successes of 2 -> (2+1)/(2+2) = 0.75; beta: 0 of 2 -> 0.25
        # floor 0.05: 0.05 + 0.9 * 0.75 = 0.725 and 0.05 + 0.9 * 0.25 = 0.275
        pool = pool_with(((1, 1), (0, 0)))
        assert success_rates(pool) == [0.75, 0.25]
        p = probabilities(pool)
        assert p[0] == pytest.approx(0.725, abs=1e-12)
        assert p[1] == pytest.approx(0.275, abs=1e-12)

    def test_singleton_pool(self):
        pool = OperatorPool(operators=("only",))
        assert probabilities(pool) == [1.0]


class TestChoose:
    def test_uniform_draw_below_half_picks_first(self):
        pool = pool_with(())
        assert choose(pool, _FixedDraw(0.4)) == "alpha"

    def test_draw_past_first_mass_picks_second(self):
        pool = pool_with(((1, 1), (0, 0)))  # probabilities (0.725, 0.275)
        assert choose(pool, _FixedDraw(0.85)) == "beta"

    def test_monte_carlo_frequencies(self):
        pool = pool_with(((1, 1), (0, 0)))
        rng = np.random.default_rng(123)
        n = 100_000
        hits = sum(choose(pool, rng) == "alpha" for _ in range(n))
        assert abs(hits / n - 0.725) < 0.01


class TestReport:
    def test_success_moves_laplace_rate(self):
        pool = pool_with(())
        assert success_rates(pool)[0] == 0.5
        pool = report(pool, "alpha", True)
        assert success_rates(pool)[0] == pytest.approx(2.0 / 3.0)

    def test_window_eviction(self):
        pool = pool_with(())
        for outcome in (True,) + (False, True) * (WINDOW // 2):
            pool = report(pool, "alpha", outcome)
        assert pool.outcomes[0] == (0, 1) * (WINDOW // 2)  # oldest success evicted

    def test_all_failures_full_window(self):
        pool = pool_with(())
        for _ in range(WINDOW + 3):
            pool = report(pool, "beta", False)
        assert success_rates(pool)[1] == pytest.approx(1.0 / (WINDOW + 2))


windows = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=20).map(tuple)


def numpy_success_rates(pool):
    rates = np.empty(len(pool.operators))
    for i, window in enumerate(pool.outcomes):
        rates[i] = (sum(window) + 1.0) / (len(window) + 2.0)
    return rates


def numpy_probabilities(pool):
    rates = numpy_success_rates(pool)
    k = len(pool.operators)
    return FLOOR + (1.0 - k * FLOOR) * rates / rates.sum()


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_rates_and_probabilities_equal_numpy_forms(k, data):
    outcomes = data.draw(st.tuples(*[windows] * k))
    pool = OperatorPool(operators=tuple(f"op{i}" for i in range(k)), outcomes=outcomes)
    rates, p = success_rates(pool), probabilities(pool)
    assert all(type(x) is float for x in rates + p)
    assert [x.hex() for x in rates] == [float(x).hex() for x in numpy_success_rates(pool)]
    assert [x.hex() for x in p] == [float(x).hex() for x in numpy_probabilities(pool)]


@settings(max_examples=300, deadline=None)
@given(st.tuples(windows, windows, windows))
def test_probability_axioms(outcome_triple):
    pool = OperatorPool(operators=("a", "b", "c"), outcomes=outcome_triple)
    p = probabilities(pool)
    assert abs(sum(p) - 1.0) < 1e-12
    assert all(x >= FLOOR - 1e-15 for x in p)  # no starvation


@settings(max_examples=200, deadline=None)
@given(st.tuples(windows, windows))
def test_success_monotonicity(outcome_pair):
    pool = OperatorPool(operators=("a", "b"), outcomes=outcome_pair)
    before = probabilities(pool)[0]
    after = probabilities(report(pool, "a", True))[0]
    assert after >= before - 1e-15


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.booleans(), max_size=40),
    st.lists(st.booleans(), max_size=60),
)
def test_batch_report_equals_one_by_one(earlier, batch):
    # flag sequences run longer than the window, so batches evict as single reports do
    pool = OperatorPool(operators=("a", "b"))
    for flag in earlier:
        pool = report(pool, "b", flag)
    one_by_one = pool
    for flag in batch:
        one_by_one = report(one_by_one, "b", flag)
    assert report(pool, "b", *batch) == one_by_one
    assert one_by_one.outcomes[1] == tuple(int(flag) for flag in earlier + batch)[-WINDOW:]
