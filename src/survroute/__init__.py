"""Survivability-aware route optimization for nested mobile networks.

A multi-objective memetic engine (nondominated archive, one success-driven
scheduler pool for the variation operator, stagnation-triggered random
immigrants) applied to minimizing route cost and expected service loss when
mobile routers attach into a forest beneath access routers.
"""

from .archive import NondominatedArchive, insert, nondom, reduce
from .engine import RunParams, RunResult, run
from .errors import (
    ConfigError,
    ContractViolation,
    InstanceError,
    OracleScopeError,
    ParseError,
    SurvrouteError,
    ValidityError,
)
from .measures import ReferencePoint, additive_epsilon, coverage, hypervolume
from .moo import CandidateSolution, Dominance, ObjectiveVector, Problem, dominates
from .netmodel import (
    NetworkInstance,
    RouteAssignment,
    RouteProblem,
    brute_force_pareto,
    load_instance,
    parse_instance,
)
from .scheduler import OperatorPool, choose, probabilities, report

__version__ = "0.1.0"

__all__ = [
    "CandidateSolution",
    "ConfigError",
    "ContractViolation",
    "Dominance",
    "InstanceError",
    "NetworkInstance",
    "NondominatedArchive",
    "ObjectiveVector",
    "OperatorPool",
    "OracleScopeError",
    "ParseError",
    "Problem",
    "ReferencePoint",
    "RouteAssignment",
    "RouteProblem",
    "RunParams",
    "RunResult",
    "SurvrouteError",
    "ValidityError",
    "additive_epsilon",
    "brute_force_pareto",
    "choose",
    "coverage",
    "dominates",
    "hypervolume",
    "insert",
    "load_instance",
    "nondom",
    "parse_instance",
    "probabilities",
    "reduce",
    "report",
    "run",
    "__version__",
]
