"""Deterministic simulator and solver suite for passive pod repositioning in
robotic mobile fulfillment systems."""

from .core import (NO_OP, BudgetExceededError, CostModel, GameError,
                   InfeasibleActionError, Instance, InvalidInstanceError,
                   OccupationInterval, Replay, Schedule, StepInfo, Verdict,
                   check_feasible, departure_schedule, load_actions,
                   load_instance, occupation_intervals, save_actions,
                   save_instance, terminal_cost, total_cost, validate_instance)
from .exact import SolveResult, export_bip, solve_exact, solve_iterative
from .genetic import GaConfig, GaResult, evolve
from .harness import (ResultRow, brute_force_optimum, run_comparison,
                      run_policy, seasonal_study, uniformity_study)
from .instances import (build_medium_system, build_small_system,
                        generate_departures, geometric_weights, rng_from_seed)
from .policies import (CheapestPolicy, FixedPolicy, RandomPolicy,
                       compute_fixed_assignment, rearranged_instance)
from .tetris import tetris

__version__ = "0.1.0"

__all__ = [
    "NO_OP", "BudgetExceededError", "CostModel", "GameError",
    "InfeasibleActionError", "Instance", "InvalidInstanceError",
    "OccupationInterval", "Replay", "Schedule", "StepInfo", "Verdict",
    "check_feasible", "departure_schedule", "load_actions", "load_instance",
    "occupation_intervals", "save_actions", "save_instance", "terminal_cost",
    "total_cost", "validate_instance", "SolveResult", "export_bip",
    "solve_exact", "solve_iterative", "GaConfig", "GaResult", "evolve",
    "ResultRow", "brute_force_optimum", "run_comparison", "run_policy",
    "seasonal_study", "uniformity_study", "build_medium_system",
    "build_small_system", "generate_departures", "geometric_weights",
    "rng_from_seed", "CheapestPolicy", "FixedPolicy", "RandomPolicy",
    "compute_fixed_assignment", "rearranged_instance", "tetris",
]
