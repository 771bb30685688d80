"""Adaptive operator selection: per-pool success windows and probability matching.

Variation picks its operator from one pool, VAR (the engine's
``VARIATION_OPERATORS``); every other engine stage has one operator. A pool
tracks the last ``WINDOW`` outcome flags per operator; selection samples
operators proportionally to Laplace-smoothed window success rates, with a
probability floor ``FLOOR`` so no operator starves. Everything here is plain
Python on lists of floats.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import reduce

from .errors import ContractViolation

WINDOW = 50  # outcome flags kept per operator
FLOOR = 0.05  # least selection probability of any operator; a pool holds at most 1/FLOOR operators


@dataclass(frozen=True)
class OperatorPool:
    """Operator identifiers plus per-operator outcome windows (oldest first)."""

    operators: tuple[str, ...]
    outcomes: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if not self.operators:
            raise ContractViolation("operator pool must not be empty")
        if len(set(self.operators)) != len(self.operators):
            raise ContractViolation("duplicate operator identifiers in pool")
        if len(self.operators) * FLOOR > 1.0:
            raise ContractViolation(f"a pool holds at most {int(1 / FLOOR)} operators, got {len(self.operators)}")
        if not self.outcomes:
            object.__setattr__(self, "outcomes", tuple(() for _ in self.operators))
        elif len(self.outcomes) != len(self.operators):
            raise ContractViolation("one outcome window required per operator")

    def operator_index(self, op: str) -> int:
        try:
            return self.operators.index(op)
        except ValueError:
            raise ContractViolation(f"operator {op!r} not in pool {self.operators}") from None


def success_rates(pool: OperatorPool) -> list[float]:
    """Laplace-smoothed window success rate per operator: (wins + 1) / (trials + 2)."""
    return [(sum(window) + 1.0) / (len(window) + 2.0) for window in pool.outcomes]


def probabilities(pool: OperatorPool) -> list[float]:
    """Selection probabilities: p_i = FLOOR + (1 - k*FLOOR) * s_i / sum(s).

    The rates are summed left to right from 0.0, as numpy sums fewer than
    eight floats, so pools of up to seven operators match ``numpy.sum`` bit
    for bit.
    """
    rates = success_rates(pool)
    total = reduce(operator.add, rates, 0.0)
    scale = 1.0 - len(rates) * FLOOR
    return [FLOOR + scale * r / total for r in rates]


def choose(pool: OperatorPool, rng) -> str:
    """Sample one operator with a single rng draw (cumulative inversion)."""
    draw = rng.random()
    cumulative = 0.0
    for op, p in zip(pool.operators, probabilities(pool)):
        cumulative += p
        if draw < cumulative:
            return op
    return pool.operators[-1]  # guard against cumulative rounding just below 1


def report(pool: OperatorPool, op: str, *successes: bool) -> OperatorPool:
    """Push outcome flags, oldest first, into the operator's window, evicting beyond ``WINDOW``.

    One call with a batch of flags gives the same pool as one call per flag.
    """
    idx = pool.operator_index(op)
    windows = list(pool.outcomes)
    windows[idx] = (windows[idx] + tuple(1 if s else 0 for s in successes))[-WINDOW:]
    return replace(pool, outcomes=tuple(windows))
