"""Experiment orchestration: named policy runs, comparisons, the uniformity and
seasonal studies, result persistence, and the exhaustive-enumeration oracle.

Every persisted result is reproducible from (instance, policy names, seed):
the deterministic outputs (costs CSV, charts) never contain wall-clock data;
timings go to a separate manifest.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import exact, genetic, tetris
from .core import (BudgetExceededError, Instance, CostModel, Replay,
                   departure_schedule, require_zero_terminal, total_cost,
                   validate_instance)
from .instances import (REGIMES, build_tiny_symmetric, co_simulated_departures,
                        generate_departures, geometric_weights,
                        medium_system_in_seasons, random_initial_storage,
                        rng_from_seed, MEDIUM_N_PODS, MEDIUM_WEIGHT_RATIO)
from .policies import (CHEAPEST_DECISION, CHEAPEST_ON_AVERAGE,
                       CHEAPEST_TO_STORAGE, CheapestPolicy, FixedPolicy,
                       RandomPolicy, compute_fixed_assignment,
                       rearranged_instance)


# --- exhaustive oracle -----------------------------------------------------

# the largest search the oracle takes on: leaves, and depth in time steps
# (its recursion stays well inside Python's default limit of 1000 frames)
BRUTE_LEAF_CAP = 5_000_000
BRUTE_MAX_DEPTH = 500


def estimate_brute_leaves(inst: Instance) -> int:
    """Exact leaf count of the exhaustive enumeration (action-independent)."""
    return math.prod(departure_schedule(inst).choices)


def brute_force_optimum(inst: Instance) -> tuple[list[int], float]:
    """Exhaustive depth-first enumeration of all feasible action sequences,
    accumulating step costs in time order.  Ties resolve to the
    lexicographically smallest sequence (actions tried in ascending order).
    Refuses a non-zero terminal cost, and a horizon or leaf count beyond the
    oracle's scale."""
    require_zero_terminal(inst)
    if inst.horizon > BRUTE_MAX_DEPTH:
        raise BudgetExceededError(f"horizon {inst.horizon} exceeds the oracle's "
                                  f"depth of {BRUTE_MAX_DEPTH} steps")
    leaves = estimate_brute_leaves(inst)
    if leaves > BRUTE_LEAF_CAP:
        raise BudgetExceededError(f"about {leaves} leaves exceeds cap {BRUTE_LEAF_CAP}")
    steps = departure_schedule(inst).steps
    horizon = inst.horizon
    costs = inst.costs
    pod_at = [0] * (inst.n_places + 1)
    place_of = [0] * (inst.n_pods + 1)
    for p, h in enumerate(inst.initial_storage, start=1):
        if h is not None:
            pod_at[p] = h
            place_of[h] = p
    best_cost: Optional[float] = None
    best_path: Optional[list[int]] = None
    path: list[int] = []

    def rec(t: int, g: float) -> None:
        nonlocal best_cost, best_path
        if t == horizon:
            if best_cost is None or g < best_cost:
                best_cost = g
                best_path = list(path)
            return
        info = steps[t]
        dep_place = place_of[info.pod]
        to_leg = costs.to_stn(dep_place, info.station)
        pod_at[dep_place] = 0
        place_of[info.pod] = 0
        if info.fill:
            path.append(0)
            rec(t + 1, g + to_leg)
            path.pop()
        else:
            ret = info.returning_pod
            for p in range(1, inst.n_places + 1):
                if pod_at[p] != 0:
                    continue
                pod_at[p] = ret
                place_of[ret] = p
                path.append(p)
                rec(t + 1, g + to_leg + costs.from_stn(info.station, p))
                path.pop()
                pod_at[p] = 0
                place_of[ret] = 0
        pod_at[dep_place] = info.pod
        place_of[info.pod] = dep_place

    rec(0, 0.0)
    return best_path, best_cost


# --- policy names ----------------------------------------------------------

class _PositiveIntegers:
    """The decimal strings of the positive integers (``iterative``'s window)."""

    def __contains__(self, param: str) -> bool:
        try:
            return param.isdecimal() and int(param) > 0
        except ValueError:  # more digits than int() converts
            return False


# base name -> the parameters it accepts after a colon; without one, each
# runs on its default
POLICY_PARAMETERS = {
    "random": (),
    "cheapest": (CHEAPEST_TO_STORAGE, CHEAPEST_ON_AVERAGE, CHEAPEST_DECISION),
    "most-expensive": (),
    "fixed": (),
    "tetris": (tetris.SORT_FREQUENCY, tetris.SORT_DURATION),
    "genetic1": (),
    "genetic2": (genetic.GAMMA_CLOSE, genetic.GAMMA_FAR, genetic.GAMMA_ZIGZAG,
                 genetic.GAMMA_AVG_COST),
    "exact": (),
    "iterative": _PositiveIntegers(),
    "brute-force": (),
}


def parse_policy_name(name: str) -> tuple[str, str]:
    """Split ``base`` or ``base:param`` into (base, param); raise
    ``ValueError`` unless :data:`POLICY_PARAMETERS` accepts both."""
    base, colon, param = name.partition(":")
    if base not in POLICY_PARAMETERS or colon and param not in POLICY_PARAMETERS[base]:
        raise ValueError(f"unknown policy: {name}")
    return base, param


def run_policy(inst: Instance, name: str, seed: int = 0) -> tuple[list[int], float, float]:
    """Run one named policy or solver; returns (actions, cost, wall_seconds).

    A name is ``base`` or ``base:param`` (:func:`parse_policy_name`).  The
    cost is the total of an independent replay of the plan, after the clock
    stops: it alone prices an online plan, and a solver's own sum must match
    it (:func:`verify_cost`).  The solvers optimise under zero terminal cost
    and refuse any other cost model; ``exact`` and ``iterative`` also refuse
    a search that ``exact.EXACT_NODE_BUDGET`` cut.
    The ``fixed`` policy replays a cost-free rearranged initial state and is
    therefore not directly comparable with the others.
    """
    base, param = parse_policy_name(name)
    run_inst = inst
    policy = None  # set by the online policies, which replay it below
    replay = None  # set with the policy when it runs on a shared replay
    started = time.perf_counter()
    if base == "random":
        policy = RandomPolicy(seed)
    elif base == "cheapest":
        policy = CheapestPolicy(inst, param or CHEAPEST_DECISION)
    elif base == "most-expensive":
        # the start that tetris shares: played once per instance
        policy, replay = tetris.most_expensive_start(inst)
    elif base == "fixed":
        assignment = compute_fixed_assignment(inst)
        run_inst = rearranged_instance(inst, assignment)
        policy = FixedPolicy(assignment)
    elif base == "tetris":
        actions, cost = tetris.tetris(inst, param or tetris.SORT_FREQUENCY)
    elif base in ("genetic1", "genetic2"):
        result = genetic.evolve(inst, base, gamma_name=param or genetic.GAMMA_AVG_COST,
                                config=genetic.GaConfig(seed=seed))
        actions, cost = result.actions, result.cost
    elif base in ("exact", "iterative"):
        result = (exact.solve_iterative(inst, int(param or 10)) if base == "iterative"
                  else exact.solve_exact(inst))
        if not result.optimal:
            raise BudgetExceededError(
                f"{name}: node budget {exact.EXACT_NODE_BUDGET} exhausted before "
                f"the search finished: best cost {result.cost}, lower bound "
                f"{result.lower_bound}, {result.gap_text}")
        actions, cost = result.actions, result.cost
    else:
        actions, cost = brute_force_optimum(inst)
    if policy is not None:
        actions = list((replay or Replay(run_inst)).run(policy).actions)
    wall = time.perf_counter() - started
    if policy is not None:
        return actions, total_cost(run_inst, actions), wall
    return actions, verify_cost(run_inst, name, actions, cost), wall


class CostMismatchError(RuntimeError):
    """A replay of a reported plan does not reproduce its reported cost."""


def verify_cost(inst: Instance, name: str, actions: list[int], cost: float) -> float:
    """The total of an independent replay of ``actions``, which callers
    report, so one plan has one cost.  Raise :class:`CostMismatchError`
    unless it equals ``cost`` up to a relative ``1e-9``: tetris and the
    window solver sum the same legs in another order than the replay, and two
    summation orders of the same legs differ by rounding only."""
    check = total_cost(inst, actions)
    if not math.isclose(check, cost, rel_tol=1e-9, abs_tol=1e-9):
        raise CostMismatchError(f"{name}: reported cost {cost} != replayed cost {check}")
    return check


@dataclass
class ResultRow:
    policy: str
    cost: float
    relative_cost: float
    wall_time: float
    decisions: int
    actions: list[int] = field(repr=False)


def run_comparison(inst: Instance, policy_names: Sequence[str], seed: int = 0,
                   out_dir: Optional[Path] = None) -> list[ResultRow]:
    """Replay every policy on the identical instance.

    Costs are reported relative to the random baseline (run with the same
    seed even when not requested).  Each distinct policy runs once; the
    random baseline doubles as the ``random`` row.  The most-expensive start
    that the ``most-expensive`` and ``tetris`` rows share is played before
    the first of them, so no row's wall time holds it.  When ``out_dir`` is
    given, writes a deterministic ``results.csv`` plus a ``timings.json``
    manifest, which times the start as ``"most-expensive start"``.
    """
    names = list(policy_names)
    for name in names:
        parse_policy_name(name)
    decisions = sum(1 for info in departure_schedule(inst).steps if not info.fill)
    runs = {"random": run_policy(inst, "random", seed)}
    start_s = None  # the shared most-expensive start, timed on its own
    for name in names:
        if name in runs:
            continue
        if start_s is None and parse_policy_name(name)[0] in ("most-expensive", "tetris"):
            started = time.perf_counter()
            policy, replay = tetris.most_expensive_start(inst)
            replay.run(policy)
            start_s = time.perf_counter() - started
        runs[name] = run_policy(inst, name, seed)
    random_cost = runs["random"][1]
    rows = []
    for name in names:
        actions, cost, wall = runs[name]
        rows.append(ResultRow(policy=name, cost=cost,
                              relative_cost=cost / random_cost if random_cost else 1.0,
                              wall_time=wall, decisions=decisions, actions=actions))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_results_csv(rows, out_dir / "results.csv")
        manifest = {row.policy: {"wall_time": row.wall_time} for row in rows}
        if start_s is not None:
            manifest["most-expensive start"] = {"wall_time": start_s}
        (out_dir / "timings.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return rows


def write_results_csv(rows: Sequence[ResultRow], path) -> None:
    """Deterministic CSV: no wall-clock columns."""
    lines = ["policy,cost,relative_cost,decisions"]
    for row in rows:
        lines.append(f"{row.policy},{row.cost:.6f},{row.relative_cost:.9f},{row.decisions}")
    Path(path).write_text("\n".join(lines) + "\n")


# --- tiny instance builders (oracle-scale fixtures) ------------------------

def build_tiny_random(seed: int) -> Instance:
    """A random oracle-scale instance: at most 6 places, 6 pods, 8 steps."""
    rng = rng_from_seed(seed)
    n_places = int(rng.integers(4, 7))
    n_pods = int(rng.integers(3, n_places + 1))
    n_stations = int(rng.integers(1, 3))
    capacities = tuple([1] * n_stations)
    to_station = tuple(tuple(float(c) for c in rng.integers(1, 10, size=n_stations))
                       for _ in range(n_places))
    from_station = tuple(tuple(float(c) for c in rng.integers(1, 10, size=n_places))
                         for _ in range(n_stations))
    initial_storage = random_initial_storage(n_pods, n_places, rng)
    initial_queues = tuple(() for _ in range(n_stations))
    n = int(rng.integers(5, 9))
    departures = generate_departures(
        n_pods, capacities, initial_storage, initial_queues,
        regime="random-uniform", seed=int(rng.integers(2 ** 62)), n=n)
    inst = Instance(n_pods=n_pods, n_places=n_places,
                    station_capacities=capacities,
                    costs=CostModel(to_station=to_station, from_station=from_station),
                    initial_storage=initial_storage, initial_queues=initial_queues,
                    departures=departures)
    validate_instance(inst)
    return inst


# --- studies ---------------------------------------------------------------

@dataclass
class UniformityReport:
    """Cheapest-place cost over exact optimum, per departure regime."""

    ratios: dict[str, list[float]] = field(default_factory=dict)

    def mean(self, regime: str) -> float:
        return statistics.fmean(self.ratios[regime])


UNIFORMITY_N_PODS = 6  # pods and places of the tiny line system
UNIFORMITY_STEPS = 8


def uniformity_study(seeds: Sequence[int]) -> UniformityReport:
    """Compare cheapest-place against the exhaustive optimum on tiny line
    systems under the four uniformity regimes; :func:`run_policy` re-verifies
    both costs."""
    report = UniformityReport(ratios={regime: [] for regime in REGIMES})
    for regime in REGIMES:
        for seed in seeds:
            inst = build_tiny_symmetric(UNIFORMITY_N_PODS, regime=regime, seed=seed,
                                        n=UNIFORMITY_STEPS)
            cheapest = run_policy(inst, "cheapest:decision")[1]
            optimum = run_policy(inst, "brute-force")[1]
            report.ratios[regime].append(cheapest / optimum if optimum else 1.0)
    return report


@dataclass
class SeasonalReport:
    seasonal_frequency: list[float] = field(default_factory=list)
    seasonal_duration: list[float] = field(default_factory=list)
    plain_frequency: list[float] = field(default_factory=list)
    plain_duration: list[float] = field(default_factory=list)

    def median(self, name: str) -> float:
        return statistics.median(getattr(self, name))


SEASONAL_CONCENTRATION = 0.1  # of the symmetric Dirichlet the weights come from


def seasonal_medium_instance(seed: int, n: int = 10000, epoch: int = 2000) -> Instance:
    """Medium system whose pod weights are re-randomized every ``epoch``
    steps.

    Each season draws a fresh random probability vector from a sparse
    symmetric Dirichlet, so a few dozen pods dominate the demand of every
    season and the dominant set changes completely between seasons.
    """
    alpha = [SEASONAL_CONCENTRATION] * MEDIUM_N_PODS
    # the tiny floor keeps every stored pod drawable in every season
    return medium_system_in_seasons(seed, n, epoch,
                                    lambda rng: rng.dirichlet(alpha) + 1e-300)


def plain_medium_instance(seed: int, n: int = 10000) -> Instance:
    """Medium system with fixed geometric weights (no seasonal changes)."""
    base = np.asarray(geometric_weights(MEDIUM_N_PODS, MEDIUM_WEIGHT_RATIO))
    return medium_system_in_seasons(seed, n, max(n, 1),
                                    lambda rng: base[rng.permutation(MEDIUM_N_PODS)])


def seasonal_study(seeds: Sequence[int], n: int = 10000,
                   epoch: int = 2000) -> SeasonalReport:
    """Frequency-sorted vs duration-sorted tetris on seasonal and plain
    medium-system data, paired by seed; :func:`run_policy` re-verifies every
    cost."""
    report = SeasonalReport()
    for seed in seeds:
        inst = seasonal_medium_instance(seed, n=n, epoch=epoch)
        report.seasonal_frequency.append(run_policy(inst, "tetris:frequency")[1])
        report.seasonal_duration.append(run_policy(inst, "tetris:duration")[1])
        inst = plain_medium_instance(seed, n=n)
        report.plain_frequency.append(run_policy(inst, "tetris:frequency")[1])
        report.plain_duration.append(run_policy(inst, "tetris:duration")[1])
    return report
