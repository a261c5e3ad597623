"""Experiment orchestration: named policy runs, comparisons, the uniformity and
seasonal studies, result persistence, and the exhaustive-enumeration oracle.

Every persisted result is reproducible from (instance, policy names, seed):
the deterministic outputs (costs CSV, charts) never contain wall-clock data;
timings go to a separate manifest.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import exact, genetic, tetris
from .core import (TERMINAL_ZERO, Instance, CostModel, Replay, Schedule,
                   departure_schedule, terminal_cost, total_cost,
                   validate_instance)
from .instances import (REGIME_PERIODIC, REGIME_RANDOM_GEOMETRIC,
                        _draw_pod, _pick, _pod_weight_vector, _station_cdf,
                        co_simulated_departures, generate_departures,
                        geometric_weights, medium_cost_model,
                        random_initial_storage, rng_from_seed,
                        MEDIUM_N_PODS, MEDIUM_N_PLACES, MEDIUM_QUEUE_CAPACITY,
                        MEDIUM_STATION_WEIGHTS)
from .policies import (CHEAPEST_DECISION, CheapestPolicy, FixedPolicy,
                       RandomPolicy, compute_fixed_assignment,
                       rearranged_instance)


class BudgetExceededError(Exception):
    """The exhaustive oracle refused: the search tree is too large."""


# --- exhaustive oracle -----------------------------------------------------

def estimate_brute_leaves(inst: Instance, schedule: Optional[Schedule] = None) -> int:
    """Exact leaf count of the exhaustive enumeration (action-independent)."""
    if schedule is None:
        schedule = departure_schedule(inst)
    stored = sum(1 for h in inst.initial_storage if h is not None)
    leaves = 1
    for info in schedule.steps:
        stored -= 1
        if not info.fill:
            leaves *= inst.n_places - stored
            stored += 1
    return leaves


def brute_force_optimum(inst: Instance, cap: int = 5_000_000,
                        schedule: Optional[Schedule] = None) -> tuple[list[int], float]:
    """Exhaustive depth-first enumeration of all feasible action sequences,
    accumulating step costs in time order.  Ties resolve to the
    lexicographically smallest sequence (actions tried in ascending order)."""
    if schedule is None:
        schedule = departure_schedule(inst)
    leaves = estimate_brute_leaves(inst, schedule)
    if leaves > cap:
        raise BudgetExceededError(f"about {leaves} leaves exceeds cap {cap}")
    steps = schedule.steps
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

_ONLINE_POLICIES = ("random", "cheapest", "most-expensive", "fixed")
_SOLVERS = ("tetris", "genetic1", "genetic2", "exact", "iterative", "brute-force")
_PARAMETRIC = ("cheapest", "tetris", "genetic2", "iterative")


def run_policy(inst: Instance, name: str, seed: int = 0,
               schedule: Optional[Schedule] = None,
               node_budget: Optional[int] = None) -> tuple[list[int], float, float]:
    """Run one named policy or solver; returns (actions, cost, wall_seconds).

    A name is ``base`` or ``base:param``; only cheapest, tetris, genetic2
    and iterative take a parameter, and it must not be empty.  The online
    policies report their replay total plus the terminal cost; the solvers
    optimise under zero terminal cost and refuse any other cost model.  The
    reported cost is re-verified against an independent replay.  The
    ``fixed`` policy replays a cost-free rearranged initial state and is
    therefore not directly comparable with the others.
    """
    base, colon, param = name.partition(":")
    if (base not in _ONLINE_POLICIES + _SOLVERS
            or colon and (base not in _PARAMETRIC or not param)):
        raise ValueError(f"unknown policy: {name}")
    if schedule is None:
        schedule = departure_schedule(inst)
    run_inst = inst
    started = time.perf_counter()
    if base in _ONLINE_POLICIES:
        if base == "random":
            policy = RandomPolicy(seed)
        elif base == "cheapest":
            policy = CheapestPolicy(inst, param or CHEAPEST_DECISION)
        elif base == "most-expensive":
            policy = tetris.MostExpensivePlacePolicy()
        else:
            assignment = compute_fixed_assignment(inst, schedule)
            run_inst = rearranged_instance(inst, assignment)
            # same departures, queues and stored pods, hence the same schedule
            policy = FixedPolicy(assignment)
        replay = Replay(run_inst, schedule).run(policy)
        actions = replay.actions
        cost = replay.total + terminal_cost(run_inst, replay.storage_tuple(),
                                            schedule.final_queues)
    elif inst.costs.terminal != TERMINAL_ZERO:
        raise ValueError(f"{name} optimises under zero terminal cost, "
                         f"not {inst.costs.terminal!r}")
    elif base == "tetris":
        actions, cost = tetris.tetris(inst, param or tetris.SORT_FREQUENCY, schedule)
    elif base in ("genetic1", "genetic2"):
        result = genetic.evolve(inst, base, gamma_name=param or genetic.GAMMA_AVG_COST,
                                config=genetic.GaConfig(seed=seed), schedule=schedule)
        actions, cost = result.actions, result.cost
    elif base == "exact":
        result = exact.solve_exact(inst, node_budget=node_budget)
        actions, cost = result.actions, result.cost
    elif base == "iterative":
        result = exact.solve_iterative(inst, int(param) if param else 10,
                                       node_budget=node_budget)
        actions, cost = result.actions, result.cost
    else:
        actions, cost = brute_force_optimum(inst, schedule=schedule)
    wall = time.perf_counter() - started
    check = total_cost(run_inst, actions, schedule)
    if abs(check - cost) > 1e-9:
        raise RuntimeError(f"{name}: reported cost {cost} != replayed cost {check}")
    return actions, cost, wall


@dataclass
class ResultRow:
    policy: str
    cost: float
    relative_cost: float
    wall_time: float
    decisions: int
    actions: list[int] = field(repr=False)


def run_comparison(inst: Instance, policy_names: Sequence[str], seed: int = 0,
                   out_dir: Optional[Path] = None,
                   node_budget: Optional[int] = None) -> list[ResultRow]:
    """Replay every policy on the identical instance.

    Costs are reported relative to the random baseline (run with the same
    seed even when not requested).  Each distinct policy runs once; the
    random baseline doubles as the ``random`` row.  When ``out_dir`` is
    given, writes a deterministic ``results.csv`` plus a ``timings.json``
    manifest.
    """
    schedule = departure_schedule(inst)
    names = list(policy_names)
    decisions = sum(1 for info in schedule.steps if not info.fill)
    runs = {"random": run_policy(inst, "random", seed, schedule, node_budget)}
    for name in names:
        if name not in runs:
            runs[name] = run_policy(inst, name, seed, schedule, node_budget)
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
    storage: list[Optional[int]] = [None] * n_places
    for h, p in enumerate(rng.choice(n_places, size=n_pods, replace=False), start=1):
        storage[int(p)] = h
    initial_storage = tuple(storage)
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


def build_tiny_symmetric(n_pods: int, base_cost: int = 4,
                         regime: str = REGIME_PERIODIC, seed: int = 0,
                         n: int = 8, ratio: float = 20.0) -> Instance:
    """Scaled-down line system (pods = places, two symmetric stations of
    capacity 1, cost p + base), with departures under any regime."""
    n_places = n_pods
    capacities = (1, 1)
    to_station = tuple((float(p + base_cost),) * 2 for p in range(1, n_places + 1))
    from_station = tuple(tuple(float(p + base_cost) for p in range(1, n_places + 1))
                         for _ in range(2))
    initial_storage = tuple(range(1, n_pods + 1))
    initial_queues = ((), ())
    pod_weights = geometric_weights(n_pods, ratio)
    departures = generate_departures(
        n_pods, capacities, initial_storage, initial_queues,
        regime=regime, seed=seed, n=n, pod_weights=pod_weights,
        station_weights=(0.5, 0.5))
    inst = Instance(n_pods=n_pods, n_places=n_places, station_capacities=capacities,
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


def uniformity_study(seeds: Sequence[int], n_pods: int = 6,
                     n: int = 8) -> UniformityReport:
    """Compare cheapest-place against the exhaustive optimum on tiny line
    systems under the four uniformity regimes."""
    from .instances import REGIMES
    report = UniformityReport(ratios={regime: [] for regime in REGIMES})
    for regime in REGIMES:
        for seed in seeds:
            inst = build_tiny_symmetric(n_pods, regime=regime, seed=seed, n=n)
            schedule = departure_schedule(inst)
            replay = Replay(inst, schedule).run(CheapestPolicy(inst, CHEAPEST_DECISION))
            _, optimum = brute_force_optimum(inst, schedule=schedule)
            report.ratios[regime].append(replay.total / optimum if optimum else 1.0)
    return report


@dataclass
class SeasonalReport:
    seasonal_frequency: list[float] = field(default_factory=list)
    seasonal_duration: list[float] = field(default_factory=list)
    plain_frequency: list[float] = field(default_factory=list)
    plain_duration: list[float] = field(default_factory=list)

    def median(self, name: str) -> float:
        return statistics.median(getattr(self, name))


def _medium_instance_with(departure_draw: Callable, seed: int, n: int,
                          queue_capacity: int = MEDIUM_QUEUE_CAPACITY) -> Instance:
    rng = rng_from_seed(seed)
    initial_storage = random_initial_storage(MEDIUM_N_PODS, MEDIUM_N_PLACES, rng)
    capacities = (queue_capacity, queue_capacity)
    initial_queues = ((), ())
    departures = co_simulated_departures(
        MEDIUM_N_PODS, capacities, initial_storage, initial_queues, n,
        departure_draw(rng))
    inst = Instance(n_pods=MEDIUM_N_PODS, n_places=MEDIUM_N_PLACES,
                    station_capacities=capacities, costs=medium_cost_model(),
                    initial_storage=initial_storage, initial_queues=initial_queues,
                    departures=departures)
    validate_instance(inst)
    return inst


def seasonal_medium_instance(seed: int, n: int = 10000, epoch: int = 2000,
                             concentration: float = 0.1) -> Instance:
    """Medium system whose pod weights are re-randomized every ``epoch``
    steps.

    Each season draws a fresh random probability vector from a sparse
    symmetric Dirichlet, so a few dozen pods dominate the demand of every
    season and the dominant set changes completely between seasons.
    """
    stations = _station_cdf(MEDIUM_STATION_WEIGHTS)
    alpha = [concentration] * MEDIUM_N_PODS

    def make_draw(rng):
        # the tiny floor keeps every stored pod drawable in every season
        state = {"weights": _pod_weight_vector(rng.dirichlet(alpha) + 1e-300),
                 "epoch": 0}

        def draw(t: int, in_storage: np.ndarray) -> tuple[int, int]:
            if t // epoch != state["epoch"]:
                state["epoch"] = t // epoch
                state["weights"] = _pod_weight_vector(rng.dirichlet(alpha) + 1e-300)
            pod = _draw_pod(state["weights"], in_storage, rng)
            return pod, _pick(stations, rng) + 1

        return draw

    return _medium_instance_with(make_draw, seed, n)


def plain_medium_instance(seed: int, n: int = 10000, ratio: float = 20.0) -> Instance:
    """Medium system with fixed geometric weights (no seasonal changes)."""
    base = np.asarray(geometric_weights(MEDIUM_N_PODS, ratio))
    stations = _station_cdf(MEDIUM_STATION_WEIGHTS)

    def make_draw(rng):
        weights = _pod_weight_vector(base[rng.permutation(MEDIUM_N_PODS)])

        def draw(t: int, in_storage: np.ndarray) -> tuple[int, int]:
            pod = _draw_pod(weights, in_storage, rng)
            return pod, _pick(stations, rng) + 1

        return draw

    return _medium_instance_with(make_draw, seed, n)


def seasonal_study(seeds: Sequence[int], n: int = 10000,
                   epoch: int = 2000) -> SeasonalReport:
    """Frequency-sorted vs duration-sorted tetris on seasonal and plain
    medium-system data, paired by seed."""
    report = SeasonalReport()
    for seed in seeds:
        inst = seasonal_medium_instance(seed, n=n, epoch=epoch)
        schedule = departure_schedule(inst)
        report.seasonal_frequency.append(tetris.tetris(inst, tetris.SORT_FREQUENCY, schedule)[1])
        report.seasonal_duration.append(tetris.tetris(inst, tetris.SORT_DURATION, schedule)[1])
        inst = plain_medium_instance(seed, n=n)
        schedule = departure_schedule(inst)
        report.plain_frequency.append(tetris.tetris(inst, tetris.SORT_FREQUENCY, schedule)[1])
        report.plain_duration.append(tetris.tetris(inst, tetris.SORT_DURATION, schedule)[1])
    return report
