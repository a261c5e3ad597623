"""Genetic solvers.

Two encodings: raw places per time step (may decode to an infeasible replay)
and free-place indices under a place order gamma (total by construction --
every gene vector decodes to a feasible action sequence).  Operators follow
a plain generational scheme with the paper's fixed settings: tournament
selection of ``TOURNAMENT_SIZE``, two-point crossover at rate
``CROSSOVER_RATE``, per-gene mutation with ``MUTATIONS_PER_CHROMOSOME``
expected mutations per chromosome, elitism of one, and a stop after a fixed
number of stall generations.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (NO_OP, REASON_LENGTH, InfeasibleActionError, Instance,
                   Replay, departure_schedule, require_zero_terminal)
from .instances import rng_from_seed
from .policies import RandomPolicy, avg_costs

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


def decode2(inst: Instance, genes: Sequence[int], gamma: Sequence[int]) -> list[int]:
    """Decode free-place indices into actions by co-simulating the game.

    Genes are reduced modulo the admissible-set size with Python's ``%``, so
    decoding is total; fill-phase genes are ignored.  A gene list shorter
    than the horizon decodes that prefix; a longer one raises a
    ``length-mismatch`` :class:`InfeasibleActionError`, and a gene outside
    the int64 range raises ``ValueError``.
    """
    if len(genes) > inst.horizon:
        raise InfeasibleActionError(inst.horizon, REASON_LENGTH,
                                    f"{len(genes)} genes for {inst.horizon} steps")
    row = [operator.index(g) for g in genes]
    bounds = np.iinfo(np.int64)
    for i, g in enumerate(row):
        if not bounds.min <= g <= bounds.max:
            raise ValueError(f"gene {g} at index {i} is outside the int64 range")
    one_row = np.array(row, dtype=np.int64).reshape(1, len(row))
    return _decode2_batch(inst, one_row, gamma)[1][0].tolist()


@dataclass
class GaConfig:
    population: int = 100
    stall_generations: int = 100
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


class _Evaluator:
    """Fitness of a whole population: the replayed total cost, infinity
    sentinel for infeasible genetic-1 decodes.  Returns the fitness list and
    a function from an individual's index to its actions."""

    def __init__(self, inst: Instance, encoding: str, gamma: Optional[Sequence[int]]):
        self.inst = inst
        self.encoding = encoding
        self.gamma = gamma
        self.evaluations = 0
        self.infeasible = 0

    def __call__(self, population: list[list[int]]
                 ) -> tuple[list[float], Callable[[int], Optional[list[int]]]]:
        self.evaluations += len(population)
        if self.encoding == GENETIC2:
            genes = np.array(population, dtype=np.int64).reshape(
                len(population), self.inst.horizon)
            totals, actions = _decode2_batch(self.inst, genes, self.gamma)
            return totals.tolist(), lambda i: actions[i].tolist()
        fitness: list[float] = []
        plans: list[Optional[list[int]]] = []
        for genes in population:
            replay = Replay(self.inst)
            try:
                for gene in genes:
                    replay.step(gene)
            except InfeasibleActionError:
                self.infeasible += 1
                fitness.append(INFEASIBLE)
                plans.append(None)
            else:
                fitness.append(replay.total)
                plans.append(replay.actions)
        return fitness, plans.__getitem__


def evolve(inst: Instance, encoding: str = GENETIC2,
           gamma_name: str = GAMMA_AVG_COST,
           config: Optional[GaConfig] = None) -> GaResult:
    """Generational GA; returns the best feasible individual found, with the
    per-generation best-cost history (zero terminal cost only)."""
    require_zero_terminal(inst)
    if encoding not in (GENETIC1, GENETIC2):
        raise ValueError(f"unknown encoding: {encoding}")
    cfg = config or GaConfig()
    n = inst.horizon
    rng = rng_from_seed(cfg.seed)
    gamma = place_order(inst, gamma_name) if encoding == GENETIC2 else None
    evaluate = _Evaluator(inst, encoding, gamma)
    mutation_rate = MUTATIONS_PER_CHROMOSOME / n

    def random_individual() -> list[int]:
        if encoding == GENETIC2:
            return rng.integers(0, inst.n_places, size=n).tolist()
        policy = RandomPolicy(seed=int(rng.integers(2 ** 62)))
        return Replay(inst).run(policy).actions

    def mutate(genes: list[int]) -> list[int]:
        mask = rng.random(n) < mutation_rate
        if not mask.any():
            return genes
        out = list(genes)
        for i in np.flatnonzero(mask):
            if encoding == GENETIC2:
                out[i] = int(rng.integers(0, inst.n_places))
            else:
                out[i] = int(rng.integers(1, inst.n_places + 1))
        return out

    def crossover(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
        if rng.random() >= CROSSOVER_RATE:
            return list(a), list(b)
        i, j = sorted(int(x) for x in rng.integers(0, n, size=2))
        return (a[:i] + b[i:j] + a[j:], b[:i] + a[i:j] + b[j:])

    best_genes = None
    best_fitness = INFEASIBLE
    best_actions: Optional[list[int]] = None

    def evaluate_all(population: list[list[int]]) -> tuple[list[float], bool]:
        """Fitness of ``population``, and whether its first cheapest
        individual beat the best so far and became the new best."""
        nonlocal best_genes, best_fitness, best_actions
        fitness, actions_of = evaluate(population)
        best = None
        for i, f in enumerate(fitness):
            if f < best_fitness:
                best_fitness, best = f, i
        if best is None:
            return fitness, False
        best_genes, best_actions = population[best], actions_of(best)
        return fitness, True

    population = [random_individual() for _ in range(cfg.population)]
    fitness, _ = evaluate_all(population)

    def tournament() -> list[int]:
        picks = rng.integers(0, cfg.population, size=TOURNAMENT_SIZE)
        winner = min(picks, key=lambda i: (fitness[i], i))
        return population[winner]

    history: list[float] = []
    stall = 0
    generation = 0
    while stall < cfg.stall_generations:
        if cfg.max_generations is not None and generation >= cfg.max_generations:
            break
        generation += 1
        offspring = [list(best_genes)]  # elitism of one
        while len(offspring) < cfg.population:
            c1, c2 = crossover(tournament(), tournament())
            offspring.append(mutate(c1))
            if len(offspring) < cfg.population:
                offspring.append(mutate(c2))
        population = offspring
        fitness, improved = evaluate_all(population)
        history.append(best_fitness)
        stall = 0 if improved else stall + 1
    if best_actions is None:
        raise RuntimeError("no feasible individual was ever evaluated")
    return GaResult(actions=best_actions, cost=best_fitness, history=history,
                    generations=generation, evaluations=evaluate.evaluations,
                    infeasible_evaluations=evaluate.infeasible)
