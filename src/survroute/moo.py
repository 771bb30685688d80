"""Objective-space primitives: objective vectors, Pareto dominance, the problem interface.

Everything here is a plain immutable value; minimization is assumed
throughout (callers negate objectives if they need maximization).
"""

from __future__ import annotations

import enum
import math
from dataclasses import FrozenInstanceError, dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ContractViolation, ValidityError


class Dominance(enum.Enum):
    """Outcome of comparing two objective vectors under minimization."""

    DOMINATES = "dominates"
    DOMINATED_BY = "dominated_by"
    INCOMPARABLE = "incomparable"
    EQUAL = "equal"


@dataclass(frozen=True)
class ObjectiveVector:
    """A point in objective space. All components finite, length >= 1."""

    values: tuple[float, ...]

    def __init__(self, values: Sequence[float]):
        vals = tuple(float(v) for v in values)
        if len(vals) == 0:
            raise ContractViolation("objective vector must have at least one component")
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

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


class CandidateSolution:
    """An evaluated solution: genotype plus its objective vector.

    ``genotype_key`` is the problem's canonical serialization of the
    genotype; it drives duplicate detection and deterministic tie-breaking,
    and it defines equality (the raw genotype may be any opaque object).

    Give either the key itself or ``key_of``, a function of the genotype
    that returns it; ``key_of`` is then called once, on the first read of
    ``genotype_key`` (an equality test, a hash or ``sort_key`` reads it), so
    a solution that is scored and dropped never builds its key. Instances
    are immutable, compare and hash by (objectives, genotype_key), and print
    like the frozen dataclass they replace; they are not a dataclass (no
    ``dataclasses.fields`` or ``replace``). A copy or pickle carries the
    built key, never ``key_of``.
    """

    __slots__ = ("genotype", "objectives", "genotype_key", "_key_of")

    def __init__(
        self,
        genotype: Any,
        objectives: ObjectiveVector,
        genotype_key: str | None = None,
        *,
        key_of: Callable[[Any], str] | None = None,
    ):
        if (genotype_key is None) == (key_of is None):
            raise ContractViolation("give exactly one of genotype_key and key_of")
        setattr_ = object.__setattr__
        setattr_(self, "genotype", genotype)
        setattr_(self, "objectives", objectives)
        setattr_(self, "_key_of", key_of)
        if genotype_key is not None:
            setattr_(self, "genotype_key", genotype_key)

    def __getattr__(self, name):
        # reached only while a deferred genotype_key slot is still empty
        if name != "genotype_key":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        key = self._key_of(self.genotype)
        object.__setattr__(self, "genotype_key", key)
        object.__setattr__(self, "_key_of", None)
        return key

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild from the key, not from key_of
        return (CandidateSolution, (self.genotype, self.objectives, self.genotype_key))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.objectives, self.genotype_key) == (other.objectives, other.genotype_key)

    def __hash__(self) -> int:
        return hash((self.objectives, self.genotype_key))

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(genotype={self.genotype!r}, "
            f"objectives={self.objectives!r}, genotype_key={self.genotype_key!r})"
        )

    def sort_key(self) -> tuple[tuple[float, ...], str]:
        return (self.objectives.values, self.genotype_key)


class Problem:
    """Capability record every optimization target implements.

    ``evaluate`` must be pure and deterministic: the same genotype always
    maps to the same objective vector, bit for bit, and it must be safe to
    call concurrently. ``neighborhood`` yields ``(neighbor, objectives)``
    pairs whose objectives are exactly what ``evaluate`` would return.
    """

    objective_count: int = 0

    def evaluate(self, genotype) -> ObjectiveVector:
        raise NotImplementedError

    def random_genotype(self, rng):
        raise NotImplementedError

    def is_valid(self, genotype) -> bool:
        raise NotImplementedError

    def invalid_reason(self, genotype) -> str | None:
        """None when valid, else a short reason code."""
        return None if self.is_valid(genotype) else "invalid"

    def genotype_key(self, genotype) -> str:
        return repr(genotype)

    # variation operators (VAR pool)
    def mutate(self, genotype, rng):
        raise NotImplementedError

    def crossover(self, a, b, rng):
        raise NotImplementedError

    # heavy mutation backs the archive-based immigration operator (IMM pool)
    def heavy_mutate(self, genotype, rng):
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
    av, bv = a.values, b.values
    if len(av) != len(bv):
        raise ContractViolation(f"objective length mismatch: {len(av)} vs {len(bv)}")
    a_le = True
    b_le = True
    for x, y in zip(av, bv):
        if x > y:
            a_le = False
        elif x < y:
            b_le = False
    if a_le and b_le:
        return Dominance.EQUAL
    if a_le:
        return Dominance.DOMINATES
    if b_le:
        return Dominance.DOMINATED_BY
    return Dominance.INCOMPARABLE


def evaluate(problem: Problem, genotype) -> ObjectiveVector:
    """Evaluate a genotype after checking the problem's validity predicate."""
    reason = problem.invalid_reason(genotype)
    if reason is not None:
        raise ValidityError(f"invalid genotype ({reason})")
    objectives = problem.evaluate(genotype)
    if len(objectives) != problem.objective_count:
        raise ContractViolation(
            f"problem returned {len(objectives)} objectives, declared {problem.objective_count}"
        )
    return objectives


def make_solution(problem: Problem, genotype) -> CandidateSolution:
    """Evaluate and wrap a genotype as a CandidateSolution."""
    return CandidateSolution(
        genotype=genotype,
        objectives=evaluate(problem, genotype),
        genotype_key=problem.genotype_key(genotype),
    )
