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
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (NO_OP, InfeasibleActionError, Instance, Replay,
                   require_zero_terminal)
from .core import departure_schedule  # noqa: F401 -- perfbench/spans.py wraps it here
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


def _decode2_replay(inst: Instance, genes: Sequence[int], gamma: Sequence[int]) -> Replay:
    rank = [0] * (inst.n_places + 1)
    for i, p in enumerate(gamma):
        rank[p] = i
    replay = Replay(inst)
    for gene in genes:
        if replay.current.fill:
            replay.step(NO_OP)
        else:
            admissible = sorted(replay.admissible(), key=rank.__getitem__)
            replay.step(admissible[gene % len(admissible)])
    return replay


def decode2(inst: Instance, genes: Sequence[int], gamma: Sequence[int]) -> list[int]:
    """Decode free-place indices into actions by co-simulating the game.

    Genes are reduced modulo the admissible-set size, so decoding is total;
    fill-phase genes are ignored.
    """
    return _decode2_replay(inst, genes, gamma).actions


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
    """Replay-based fitness: the replayed total cost, infinity sentinel for
    infeasible genetic-1 decodes."""

    def __init__(self, inst: Instance, encoding: str, gamma: Optional[Sequence[int]]):
        self.inst = inst
        self.encoding = encoding
        self.gamma = gamma
        self.evaluations = 0
        self.infeasible = 0

    def __call__(self, genes: Sequence[int]) -> tuple[float, Optional[list[int]]]:
        self.evaluations += 1
        if self.encoding == GENETIC2:
            replay = _decode2_replay(self.inst, genes, self.gamma)
        else:
            replay = Replay(self.inst)
            for gene in genes:
                try:
                    replay.step(gene)
                except InfeasibleActionError:
                    self.infeasible += 1
                    return INFEASIBLE, None
        return replay.total, replay.actions


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
            return [int(g) for g in rng.integers(0, inst.n_places, size=n)]
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

    population = [random_individual() for _ in range(cfg.population)]
    fitness = []
    best_genes = None
    best_fitness = INFEASIBLE
    best_actions: Optional[list[int]] = None
    for genes in population:
        f, actions = evaluate(genes)
        fitness.append(f)
        if f < best_fitness:
            best_fitness, best_genes, best_actions = f, genes, actions

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
        fitness = []
        improved = False
        for genes in population:
            f, actions = evaluate(genes)
            fitness.append(f)
            if f < best_fitness:
                best_fitness, best_genes, best_actions = f, genes, actions
                improved = True
        history.append(best_fitness)
        stall = 0 if improved else stall + 1
    if best_actions is None:
        raise RuntimeError("no feasible individual was ever evaluated")
    return GaResult(actions=best_actions, cost=best_fitness, history=history,
                    generations=generation, evaluations=evaluate.evaluations,
                    infeasible_evaluations=evaluate.infeasible)
