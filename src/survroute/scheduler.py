"""Adaptive operator selection: per-pool success windows and probability matching.

Four engine stages pick their operators from one pool each (the engine's
``POOL_OPERATORS``: SEL, VAR, LS, REP). A pool tracks a sliding window
of outcome flags per operator; selection samples operators proportionally
to Laplace-smoothed window success rates, with a probability floor so no
operator starves. Everything here is plain Python on lists of floats.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import reduce

from .errors import ContractViolation


@dataclass(frozen=True)
class OperatorPool:
    """Operator identifiers plus per-operator outcome windows (oldest first)."""

    operators: tuple[str, ...]
    window: int = 50
    p_min: float = 0.05
    outcomes: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if not self.operators:
            raise ContractViolation("operator pool must not be empty")
        if len(set(self.operators)) != len(self.operators):
            raise ContractViolation("duplicate operator identifiers in pool")
        if self.window < 1:
            raise ContractViolation(f"window must be >= 1, got {self.window}")
        if not 0.0 <= self.p_min <= 1.0 / len(self.operators):
            raise ContractViolation(
                f"p_min must lie in [0, 1/{len(self.operators)}], got {self.p_min}"
            )
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
    """Selection probabilities: p_i = p_min + (1 - k*p_min) * s_i / sum(s).

    The rates are summed left to right from 0.0, as numpy sums fewer than
    eight floats, so pools of up to seven operators match ``numpy.sum`` bit
    for bit.
    """
    rates = success_rates(pool)
    total = reduce(operator.add, rates, 0.0)
    scale = 1.0 - len(rates) * pool.p_min
    return [pool.p_min + scale * r / total for r in rates]


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
    """Push outcome flags, oldest first, into the operator's window, evicting beyond W.

    One call with a batch of flags gives the same pool as one call per flag.
    """
    idx = pool.operator_index(op)
    windows = list(pool.outcomes)
    windows[idx] = (windows[idx] + tuple(1 if s else 0 for s in successes))[-pool.window :]
    return replace(pool, outcomes=tuple(windows))
