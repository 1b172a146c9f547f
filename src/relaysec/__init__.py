"""Secrecy rate regions for relay broadcast channels.

Closed-form Gaussian strategy regions (decode-forward, noise-forward,
compress-forward, no-relay baselines), discrete-memoryless evaluation of the
twelve-bound catalog, Pareto frontier sweeps, and a CSV-emitting CLI.

Each public name resolves on first use, importing only its defining module,
so the Gaussian engine never loads the discrete-memoryless one.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": ("AuxiliaryCoupling", "BoundEvaluation", "THEOREMS", "build_cf_coupling",
               "compose_full_joint", "corollary_constraints", "corollary_member",
               "evaluate_membership", "mi_terms"),
    "dmc": ("DMCModel", "RateTuple"),
    "errors": ("BudgetExceededError", "InfeasibleError", "ModelAssumptionError",
               "RelaySecError", "UsageError", "ValidationError"),
    "gaussian": ("GaussianNetwork", "RatePair", "StrategyParams", "cf_rstar_max",
                 "evaluate_strategy"),
    "pmf": ("FactorizationPattern", "JointPMF", "cond_mutual_info"),
    "regionsearch": ("brute_force_best", "secrecy_region_extremes"),
    "scenario": ("Scenario", "load_scenario"),
    "sweep": ("Curve", "Frontier", "GridSpec", "max_r1_vs_alpha", "pareto_filter",
              "region_boundary", "sweep_frontier"),
}
_DEFINED_IN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_DEFINED_IN)


def __getattr__(name: str):
    """Import a public name's module on first access (PEP 562)."""
    if name not in _DEFINED_IN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_DEFINED_IN[name]}", __name__), name)
    globals()[name] = value
    return value
