"""Objective-space primitives: objective vectors, Pareto dominance, the problem interface.

Everything here is a plain immutable value; minimization is assumed
throughout (callers negate objectives if they need maximization).
Objectives are two-dimensional, route cost z1 and service-loss risk z2:
``ObjectiveVector`` is the one place that count is checked, so dominance,
the archive and the engine take two components without checking again.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from .errors import ContractViolation


class Dominance(enum.Enum):
    """Outcome of comparing two objective vectors under minimization."""

    DOMINATES = "dominates"
    DOMINATED_BY = "dominated_by"
    INCOMPARABLE = "incomparable"
    EQUAL = "equal"


@dataclass(frozen=True)
class ObjectiveVector:
    """A point in objective space: exactly two components, both finite."""

    values: tuple[float, float]

    def __init__(self, values: Sequence[float]):
        vals = tuple(float(v) for v in values)
        if len(vals) != 2:
            raise ContractViolation(f"objective vector must have 2 components, got {len(vals)}")
        for v in vals:
            if not math.isfinite(v):
                raise ContractViolation(f"objective component is not finite: {v!r}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]


@dataclass(frozen=True)
class CandidateSolution:
    """An evaluated solution: genotype plus its objective vector.

    ``genotype_key`` is the problem's canonical serialization of the
    genotype; it drives duplicate detection and deterministic tie-breaking,
    and with the objectives it defines equality (the raw genotype may be
    any opaque object and is not compared).
    """

    genotype: Any = field(compare=False)
    objectives: ObjectiveVector
    genotype_key: str

    def sort_key(self) -> tuple[tuple[float, float], str]:
        return (self.objectives.values, self.genotype_key)


class Problem:
    """Capability record every optimization target implements.

    ``evaluate`` must be pure and deterministic: the same genotype always
    maps to the same objective vector, bit for bit, and it must be safe to
    call concurrently. ``neighborhood`` yields ``(neighbor, objectives)``
    pairs whose objectives are exactly what ``evaluate`` would return.
    """

    def evaluate(self, genotype) -> ObjectiveVector:
        raise NotImplementedError

    def random_genotype(self, rng):
        """A random valid genotype.

        Like ``mutate`` and ``crossover``, it must return a valid genotype:
        the engine evaluates what they return unchecked. It also makes the
        immigrants that refresh a stagnating population.
        """
        raise NotImplementedError

    def genotype_key(self, genotype) -> str:
        return repr(genotype)

    # variation operators (VAR pool)
    def mutate(self, genotype, rng):
        raise NotImplementedError

    def crossover(self, a, b, rng):
        raise NotImplementedError

    # local-move neighborhood (LS pools walk this in the returned order)
    def neighborhood(self, genotype) -> Iterable[tuple[Any, ObjectiveVector]]:
        """Valid neighbors of ``genotype`` as ``(neighbor, objectives)`` pairs, in a fixed order.

        Each pair's objectives must equal ``evaluate(neighbor)`` bit for bit;
        local search uses them in place of a second evaluation. Yield lazily
        where neighbors are costly: local search stops after its budget.
        """
        raise NotImplementedError


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> Dominance:
    """Classify a vs b under weak Pareto dominance (minimization).

    Comparison is exact floating point: evaluation is deterministic, so
    duplicated genotypes compare EQUAL exactly, and a tolerance would break
    transitivity of the partial order.
    """
    (a1, a2), (b1, b2) = a.values, b.values
    a_le = a1 <= b1 and a2 <= b2
    b_le = b1 <= a1 and b2 <= a2
    if a_le and b_le:
        return Dominance.EQUAL
    if a_le:
        return Dominance.DOMINATES
    if b_le:
        return Dominance.DOMINATED_BY
    return Dominance.INCOMPARABLE
