"""Secrecy rate regions for relay broadcast channels.

Closed-form Gaussian strategy regions (decode-forward, noise-forward,
compress-forward, no-relay baselines), discrete-memoryless evaluation of the
twelve-bound catalog, Pareto frontier sweeps, and a CSV-emitting CLI.
"""

from .bounds import (
    AuxiliaryCoupling,
    BoundEvaluation,
    THEOREMS,
    build_cf_coupling,
    compose_full_joint,
    corollary_constraints,
    corollary_member,
    evaluate_membership,
    mi_terms,
)
from .dmc import DMCModel, RateTuple
from .errors import (
    BudgetExceededError,
    InfeasibleError,
    ModelAssumptionError,
    RelaySecError,
    UsageError,
    ValidationError,
)
from .gaussian import GaussianNetwork, RatePair, StrategyParams, cf_rstar_max, evaluate_strategy
from .pmf import FactorizationPattern, JointPMF, cond_mutual_info
from .regionsearch import brute_force_best, secrecy_region_extremes
from .scenario import Scenario, load_scenario
from .sweep import (
    Curve,
    Frontier,
    GridSpec,
    max_r1_vs_alpha,
    pareto_filter,
    region_boundary,
    sweep_frontier,
)

__version__ = "0.1.0"

__all__ = [
    "AuxiliaryCoupling",
    "BoundEvaluation",
    "BudgetExceededError",
    "Curve",
    "DMCModel",
    "FactorizationPattern",
    "Frontier",
    "GaussianNetwork",
    "GridSpec",
    "InfeasibleError",
    "JointPMF",
    "ModelAssumptionError",
    "RatePair",
    "RateTuple",
    "RelaySecError",
    "Scenario",
    "StrategyParams",
    "THEOREMS",
    "UsageError",
    "ValidationError",
    "brute_force_best",
    "build_cf_coupling",
    "cf_rstar_max",
    "compose_full_joint",
    "cond_mutual_info",
    "corollary_constraints",
    "corollary_member",
    "evaluate_membership",
    "evaluate_strategy",
    "load_scenario",
    "max_r1_vs_alpha",
    "mi_terms",
    "pareto_filter",
    "region_boundary",
    "secrecy_region_extremes",
    "sweep_frontier",
]
