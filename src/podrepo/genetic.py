"""Genetic solvers.

Two encodings, each scored a population at a time with numpy: genetic-1's
raw places per time step, checked on their occupation intervals and costed
by ``_genetic1_fitness`` (``INFEASIBLE`` where ``total_cost`` would refuse
the plan), and genetic-2's free-place indices under a place order gamma,
decoded by ``_decode2_batch`` (total by construction -- every gene vector
decodes to a feasible action sequence).  Genetic-1's start plans are
``RandomPolicy`` plans, drawn and decoded by ``_random_plans``.  A population
is one array, individuals x steps, from the random start to the result; only
the best plan becomes a list, when it improves.  Operators follow a plain
generational scheme with the paper's fixed settings:
``POPULATION`` individuals, tournament selection of ``TOURNAMENT_SIZE``,
two-point crossover at rate ``CROSSOVER_RATE``, per-gene mutation with
``MUTATIONS_PER_CHROMOSOME`` expected mutations per chromosome, elitism of
one, and a stop after ``STALL_GENERATIONS`` generations without a new best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .core import NO_OP, Instance, departure_schedule, require_zero_terminal
from .exact import derive_bip_parameters
from .instances import rng_from_seed
from .policies import avg_costs

GENETIC1 = "genetic1"
GENETIC2 = "genetic2"

GAMMA_CLOSE = "close"
GAMMA_FAR = "far"
GAMMA_ZIGZAG = "zigzag"
GAMMA_AVG_COST = "avg-cost"

INFEASIBLE = math.inf

TOURNAMENT_SIZE = 3
CROSSOVER_RATE = 0.9
MUTATIONS_PER_CHROMOSOME = 3.0
POPULATION = 100
STALL_GENERATIONS = 100


def place_order(inst: Instance, name: str) -> list[int]:
    """A bijection position -> place id used to rank the free places."""
    n = inst.n_places
    if name == GAMMA_CLOSE:
        return list(range(1, n + 1))
    if name == GAMMA_FAR:
        return list(range(n, 0, -1))
    if name == GAMMA_ZIGZAG:
        half = (n + 1) // 2
        order = []
        for i in range(half):
            order.append(i + 1)
            if half + i + 1 <= n:
                order.append(half + i + 1)
        return order
    if name == GAMMA_AVG_COST:
        avg = avg_costs(inst)
        return sorted(range(1, n + 1), key=lambda p: (avg[p - 1], p))
    raise ValueError(f"unknown place order: {name}")


def _decode2_batch(inst: Instance, genes: np.ndarray,
                   gamma: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Decode every row of ``genes`` (individuals x steps, int64 or a
    narrower integer dtype) at once.

    A copy of the ``Replay.step`` dynamics, vectorised over the individuals:
    the schedule is shared, so only the occupancy differs between rows.
    ``free`` is each row's free mask in gamma order and ``place_of[pod]``
    each row's flat index into it.  The number of free places does not
    depend on the actions, so a decision step's pick is one entry of
    ``np.flatnonzero(free)``, fixed in advance by the gene.  A step's cost is
    summed as ``Replay.step`` sums it, so the totals are bit-identical to a
    replay of the actions.  The genes, negative and extreme int64 ones
    included, are reduced with ``%`` straight into one steps x rows ``intp``
    array.  Returns the totals and the actions (individuals x steps, place
    ids, ``NO_OP`` on fills).
    """
    rows, length = genes.shape
    n_places = inst.n_places
    gamma_arr = np.asarray(gamma, dtype=np.min_scalar_type(n_places))
    rank = np.empty(n_places + 1, dtype=np.intp)
    rank[gamma_arr] = np.arange(n_places)
    row_start = np.arange(rows) * n_places
    # per station: the two legs by flat index, gamma order repeated per row
    to_leg = [np.tile(col, rows) for col in
              np.array(inst.costs.to_station)[gamma_arr - 1].T]
    from_leg = [np.tile(row, rows) for row in
                np.array(inst.costs.from_station)[:, gamma_arr - 1]]

    free = np.ones((rows, n_places), dtype=bool)
    # a departed pod's entry is not read again before it returns
    place_of = np.zeros((inst.n_pods + 1, rows), dtype=np.intp)
    for p, h in enumerate(inst.initial_storage, start=1):
        if h is not None:
            free[:, rank[p]] = False
            place_of[h] = row_start + rank[p]
    schedule = departure_schedule(inst)
    steps = schedule.steps[:length]
    # admissible-set size per step; 1 on a fill step keeps the division defined
    sizes = np.array(schedule.choices[:length], dtype=np.int64)
    # pick[t, r]: the entry of np.flatnonzero(free) that row r takes at step t
    pick = np.empty((length, rows), dtype=np.intp)
    np.remainder(genes.T, sizes[:, None], out=pick)
    for r in range(1, rows):
        pick[:, r] += sizes * r

    flat = free.reshape(-1)
    total = np.zeros(rows)
    chosen_at = np.zeros((length, rows), dtype=gamma_arr.dtype)
    fills = np.zeros(length, dtype=bool)
    for t, (pod, station, fill, returning, _, _) in enumerate(steps):
        s = station - 1
        dep = place_of[pod]
        flat[dep] = True
        if fill:
            fills[t] = True
            total += to_leg[s][dep]
            continue
        chosen = flat.nonzero()[0][pick[t]]
        flat[chosen] = False
        place_of[returning] = chosen
        chosen_at[t] = chosen - row_start
        total += to_leg[s][dep] + from_leg[s][chosen]
    actions = gamma_arr[chosen_at.T]
    actions[:, fills] = NO_OP
    return total, actions


def _random_plans(inst: Instance, seeds: Sequence[int]) -> np.ndarray:
    """The plans of ``RandomPolicy(seed)``, one row per seed, decoded at once.

    The policy draws ``integers(k)`` once per decision, with ``k`` the
    admissible count that ``Schedule.choices`` fixes before any action, and
    takes the k-th admissible place in ascending order.  So a seed's draws
    are one array call, and its plan is the genetic-2 decode of the draws
    under the close order.
    """
    schedule = departure_schedule(inst)
    decisions = [t for t, info in enumerate(schedule.steps) if not info.fill]
    highs = np.array(schedule.choices, dtype=np.int64)[decisions]
    genes = np.zeros((len(seeds), inst.horizon), dtype=np.min_scalar_type(inst.n_places))
    for row, seed in zip(genes, seeds):
        row[decisions] = rng_from_seed(seed).integers(highs)
    return _decode2_batch(inst, genes, place_order(inst, GAMMA_CLOSE))[1]


def _genetic1_fitness(inst: Instance) -> Callable[[np.ndarray], np.ndarray]:
    """Genetic-1's fitness over a population of plans (individuals x steps,
    place ids in ``np.min_scalar_type(n_places)``): a plan's ``total_cost``,
    bit for bit, or ``INFEASIBLE`` exactly where ``total_cost`` raises.

    A copy of the free rule of ``occupation_intervals`` over the interval
    model of ``exact.derive_bip_parameters``: every fill step holds the
    no-op, every decision a place, and the intervals ``[t + 1, busy_end)``
    on one place, taken in step order, begin no earlier than the one before
    ends or, for a place's first, than its initial pod leaves.  A step's
    to-leg is read from the place its departing pod was stored on: step
    ``t`` departs the pod of the one interval that ends at ``t + 1``, stored
    by a decision (an action-independent step index) or initially.  The legs
    are summed per step and then cumulatively, in ``Replay.step``'s order.
    The population is screened on the first two rules at once; the rest runs
    per plan, so temporaries stay about one plan in size.
    """
    params = derive_bip_parameters(inst)
    n, n_places = inst.horizon, inst.n_places
    place_type = np.min_scalar_type(n_places)
    decisions = np.array(params.decision_steps, dtype=np.intp)
    fill = np.ones(n, dtype=bool)
    fill[decisions] = False
    begins = decisions + 1
    ends = np.array(params.busy_ends, dtype=np.int64)
    first_free = np.array((0, *params.initial_busy_end), dtype=np.int64)
    stations = np.array([s - 1 for _, s in inst.departures], dtype=np.intp)
    decision_stations = stations[decisions]
    # stored_by[t + 1]: where step t's departing pod was, as an index into the
    # plan followed by places 1..n_places (entries 0 and n + 1 are never read)
    stored_by = np.empty(n + 2, dtype=np.intp)
    stored_by[ends] = decisions
    stored_by[first_free[1:]] = np.arange(n, n + n_places)
    source = stored_by[1:n + 1]
    places = np.arange(1, n_places + 1, dtype=place_type)
    to_station = np.array(inst.costs.to_station)
    from_station = np.array(inst.costs.from_station)

    def cost(plan: np.ndarray) -> float:
        chosen = plan[decisions]
        order = np.argsort(chosen, kind="stable")
        place = chosen[order]
        ready = np.empty(len(order), dtype=np.int64)  # when each place is free
        ready[1:] = ends[order[:-1]]
        first = np.ones(len(order), dtype=bool)
        first[1:] = place[1:] != place[:-1]
        ready[first] = first_free[place[first]]
        if (ready > begins[order]).any():
            return INFEASIBLE
        leaving = np.concatenate((plan, places))[source]
        step_cost = to_station[leaving - 1, stations]
        step_cost[decisions] += from_station[decision_stations, chosen - 1]
        return float(np.cumsum(step_cost)[-1])

    def fitness(plans: np.ndarray) -> np.ndarray:
        chosen = plans[:, decisions]
        screened = (~plans[:, fill].any(axis=1)
                    & ((chosen >= 1) & (chosen <= n_places)).all(axis=1))
        return np.array([cost(plan) if ok else INFEASIBLE for plan, ok in zip(plans, screened)])

    return fitness


@dataclass
class GaConfig:
    max_generations: Optional[int] = None
    seed: int = 0


@dataclass
class GaResult:
    actions: list[int]
    cost: float
    history: list[float] = field(default_factory=list)
    generations: int = 0
    evaluations: int = 0
    infeasible_evaluations: int = 0

    @property
    def infeasible_fraction(self) -> float:
        return self.infeasible_evaluations / max(self.evaluations, 1)


def evolve(inst: Instance, encoding: str = GENETIC2,
           gamma_name: str = GAMMA_AVG_COST,
           config: Optional[GaConfig] = None) -> GaResult:
    """Generational GA; returns the best feasible individual found, with the
    per-generation best-cost history (zero terminal cost only).

    Each encoding binds its random start population, its population fitness
    and its gene range once, above the shared loop.  An empty horizon gives
    the empty plan at cost 0.
    """
    require_zero_terminal(inst)
    if encoding not in (GENETIC1, GENETIC2):
        raise ValueError(f"unknown encoding: {encoding}")
    cfg = config or GaConfig()
    n = inst.horizon
    rng = rng_from_seed(cfg.seed)
    # Both encodings hold genes in ``np.min_scalar_type(n_places)``, the
    # plans' dtype: numpy's stable argsort in genetic-1's fitness is a radix
    # sort only for integers of 16 bits or fewer, and a genetic-2 population
    # takes an eighth of int64's memory (``_decode2_batch`` still reduces
    # int64 genes with ``%``).
    if encoding == GENETIC2:
        low = 0  # genes are free-place indices
        fitness_of = partial(_decode2_batch, inst, gamma=place_order(inst, gamma_name))
        population = np.empty((POPULATION, n), dtype=np.min_scalar_type(inst.n_places))
        # one call per individual: a single (POPULATION, n) call draws a
        # different stream, as each call discards its last unused 32 bits
        for row in population:
            row[:] = rng.integers(0, inst.n_places, size=n)
    else:
        low = 1  # genes are place ids
        score = _genetic1_fitness(inst)
        population = _random_plans(inst, rng.integers(2 ** 62, size=POPULATION).tolist())

        def fitness_of(population: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return score(population), population
    if n == 0:
        return GaResult(actions=[], cost=0.0)
    mutation_rate = MUTATIONS_PER_CHROMOSOME / n

    def crossover(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Copies of ``a`` and ``b`` as rows, a slice swapped at ``CROSSOVER_RATE``."""
        pair = np.stack((a, b))
        if rng.random() < CROSSOVER_RATE:
            i, j = sorted(rng.integers(0, n, size=2))
            pair[:, i:j] = pair[::-1, i:j]  # numpy copies an overlapping source first
        return pair

    def mutate(genes: np.ndarray) -> None:
        """Redraw each gene of ``genes`` in place with ``mutation_rate``."""
        for i in np.flatnonzero(rng.random(n) < mutation_rate):
            genes[i] = rng.integers(low, low + inst.n_places)

    best_genes = best_plan = None
    best_fitness = INFEASIBLE
    infeasible = 0

    def evaluate_all(population: np.ndarray) -> tuple[np.ndarray, bool]:
        """Fitness of ``population``, and whether its first cheapest
        individual beat the best so far and became the new best."""
        nonlocal best_genes, best_plan, best_fitness, infeasible
        fitness, plans = fitness_of(population)
        infeasible += int((fitness == INFEASIBLE).sum())
        best = int(fitness.argmin())
        if fitness[best] >= best_fitness:
            return fitness, False
        best_fitness = float(fitness[best])
        best_genes, best_plan = population[best], plans[best].tolist()
        return fitness, True

    fitness, _ = evaluate_all(population)

    def tournament() -> np.ndarray:
        picks = rng.integers(0, POPULATION, size=TOURNAMENT_SIZE)
        return population[min(picks, key=lambda i: (fitness[i], i))]

    history: list[float] = []
    stall = 0
    generation = 0
    while stall < STALL_GENERATIONS:
        if cfg.max_generations is not None and generation >= cfg.max_generations:
            break
        generation += 1
        offspring = np.empty_like(population)
        offspring[0] = best_genes  # elitism of one
        for k in range(1, POPULATION, 2):
            children = crossover(tournament(), tournament())[:POPULATION - k]
            for child in children:
                mutate(child)
            offspring[k:k + 2] = children
        population = offspring
        fitness, improved = evaluate_all(population)
        history.append(best_fitness)
        stall = 0 if improved else stall + 1
    if best_plan is None:
        raise RuntimeError("no feasible individual was ever evaluated")
    # every evaluation scores one whole population
    return GaResult(actions=best_plan, cost=best_fitness, history=history,
                    generations=generation,
                    evaluations=POPULATION * (generation + 1),
                    infeasible_evaluations=infeasible)
