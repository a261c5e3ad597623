"""Genetic solvers.

Two encodings: genetic-1's raw places per time step, a plan scored by
``total_cost`` (``INFEASIBLE`` when the replay refuses it), and genetic-2's
free-place indices under a place order gamma, decoded a population at a time
by ``_decode2_batch`` (total by construction -- every gene vector decodes to
a feasible action sequence).  Operators follow a plain generational scheme
with the paper's fixed settings: ``POPULATION`` individuals, tournament
selection of ``TOURNAMENT_SIZE``, two-point crossover at rate
``CROSSOVER_RATE``, per-gene mutation with ``MUTATIONS_PER_CHROMOSOME``
expected mutations per chromosome, elitism of one, and a stop after
``STALL_GENERATIONS`` generations without a new best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (NO_OP, InfeasibleActionError, Instance, Replay,
                   departure_schedule, require_zero_terminal, total_cost)
from .instances import rng_from_seed
from .policies import RandomPolicy, avg_costs

GENETIC1 = "genetic1"
GENETIC2 = "genetic2"

GAMMA_CLOSE = "close"
GAMMA_FAR = "far"
GAMMA_ZIGZAG = "zigzag"
GAMMA_AVG_COST = "avg-cost"

INFEASIBLE = math.inf
_PlanOf = Callable[[int], list[int]]  # an individual's index -> its plan

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
    """Decode every row of ``genes`` (individuals x steps, int64) at once.

    A copy of the ``Replay.step`` dynamics, vectorised over the individuals:
    the schedule is shared, so only the occupancy differs between rows.
    ``free`` is each row's free mask in gamma order and ``place_of[pod]``
    each row's flat index into it.  The number of free places does not
    depend on the actions, so a decision step's pick is one entry of
    ``np.flatnonzero(free)``, fixed in advance by the gene.  A step's cost is
    summed as ``Replay.step`` sums it, so the totals are bit-identical to a
    replay of the actions.  Returns the totals and the actions (individuals
    x steps, place ids, ``NO_OP`` on fills).
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
    pick = np.ascontiguousarray(genes.T % sizes[:, None])
    pick += sizes[:, None] * np.arange(rows)

    flat = free.reshape(-1)
    total = np.zeros(rows)
    chosen_at = np.zeros((length, rows), dtype=gamma_arr.dtype)
    fills = np.zeros(length, dtype=bool)
    for t, info in enumerate(steps):
        s = info.station - 1
        dep = place_of[info.pod]
        flat[dep] = True
        if info.fill:
            fills[t] = True
            total += to_leg[s][dep]
            continue
        chosen = flat.nonzero()[0][pick[t]]
        flat[chosen] = False
        place_of[info.returning_pod] = chosen
        chosen_at[t] = chosen - row_start
        total += to_leg[s][dep] + from_leg[s][chosen]
    actions = gamma_arr[chosen_at.T]
    actions[:, fills] = NO_OP
    return total, actions


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

    Each encoding binds its random individual, its population fitness and
    its gene range once, above the shared loop.  An empty horizon gives the
    empty plan at cost 0.
    """
    require_zero_terminal(inst)
    if encoding not in (GENETIC1, GENETIC2):
        raise ValueError(f"unknown encoding: {encoding}")
    cfg = config or GaConfig()
    n = inst.horizon
    rng = rng_from_seed(cfg.seed)
    if encoding == GENETIC2:
        gamma = place_order(inst, gamma_name)
        low = 0  # genes are free-place indices

        def random_individual() -> list[int]:
            return rng.integers(0, inst.n_places, size=n).tolist()

        def fitness_of(population: list[list[int]]) -> tuple[list[float], _PlanOf]:
            totals, plans = _decode2_batch(inst, np.array(population, dtype=np.int64), gamma)
            return totals.tolist(), lambda i: plans[i].tolist()
    else:
        low = 1  # genes are place ids

        def random_individual() -> list[int]:
            policy = RandomPolicy(seed=int(rng.integers(2 ** 62)))
            return Replay(inst).run(policy).actions

        def cost(plan: list[int]) -> float:
            try:
                return total_cost(inst, plan)
            except InfeasibleActionError:
                return INFEASIBLE

        def fitness_of(population: list[list[int]]) -> tuple[list[float], _PlanOf]:
            return [cost(plan) for plan in population], population.__getitem__
    if n == 0:
        return GaResult(actions=[], cost=0.0)
    mutation_rate = MUTATIONS_PER_CHROMOSOME / n

    def mutate(genes: list[int]) -> list[int]:
        mask = rng.random(n) < mutation_rate
        if not mask.any():
            return genes
        out = list(genes)
        for i in np.flatnonzero(mask):
            out[i] = int(rng.integers(low, low + inst.n_places))
        return out

    def crossover(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
        if rng.random() >= CROSSOVER_RATE:
            return list(a), list(b)
        i, j = sorted(int(x) for x in rng.integers(0, n, size=2))
        return (a[:i] + b[i:j] + a[j:], b[:i] + a[i:j] + b[j:])

    best_genes = best_plan = None
    best_fitness = INFEASIBLE
    infeasible = 0

    def evaluate_all(population: list[list[int]]) -> tuple[list[float], bool]:
        """Fitness of ``population``, and whether its first cheapest
        individual beat the best so far and became the new best."""
        nonlocal best_genes, best_plan, best_fitness, infeasible
        fitness, plan_of = fitness_of(population)
        infeasible += fitness.count(INFEASIBLE)
        best = None
        for i, f in enumerate(fitness):
            if f < best_fitness:
                best_fitness, best = f, i
        if best is None:
            return fitness, False
        best_genes, best_plan = population[best], plan_of(best)
        return fitness, True

    population = [random_individual() for _ in range(POPULATION)]
    fitness, _ = evaluate_all(population)

    def tournament() -> list[int]:
        picks = rng.integers(0, POPULATION, size=TOURNAMENT_SIZE)
        winner = min(picks, key=lambda i: (fitness[i], i))
        return population[winner]

    history: list[float] = []
    stall = 0
    generation = 0
    while stall < STALL_GENERATIONS:
        if cfg.max_generations is not None and generation >= cfg.max_generations:
            break
        generation += 1
        offspring = [list(best_genes)]  # elitism of one
        while len(offspring) < POPULATION:
            c1, c2 = crossover(tournament(), tournament())
            offspring.append(mutate(c1))
            if len(offspring) < POPULATION:
                offspring.append(mutate(c2))
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
