"""Differential checks over the space of tiny instances.

The hand-built fixtures and ``build_tiny_random`` leave parts of the small
instance space untouched: station capacities above 1, non-empty initial
queues, three stations and fractional costs.  The strategy here draws from
all of it at a bounded example count.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from podrepo import harness
from podrepo.core import (TERMINAL_RETURN_ALL, CostModel, Instance, Replay,
                          validate_instance)
from podrepo.exact import solve_exact
from podrepo.genetic import (GENETIC1, GENETIC2, GaConfig, _genetic1_fitness,
                             _random_plans, evolve)
from podrepo.instances import REGIME_RANDOM_UNIFORM, generate_departures
from podrepo.policies import RandomPolicy
from reference import check_interval_model, reference_cost, total_or_infeasible

ONLINE = ("random", "cheapest:to-storage", "cheapest:avg",
          "cheapest:decision", "most-expensive", "fixed")
OFFLINE = ("tetris:frequency", "tetris:duration", "iterative:2")


@st.composite
def tiny_instances(draw):
    """1-3 stations of capacity 1-3 whose queues all start non-empty, up to
    five steps, and costs that are whole numbers or, on half the instances,
    eighths."""
    n_stations = draw(st.integers(1, 3))
    capacities = tuple(draw(st.integers(1, 3)) for _ in range(n_stations))
    queue_lengths = [draw(st.integers(1, c)) for c in capacities]
    free_slots = sum(capacities) - sum(queue_lengths)
    # storage never empties: it holds more pods than the queues have room for
    n_stored = draw(st.integers(free_slots + 1, free_slots + 2))
    n_pods = n_stored + sum(queue_lengths)
    # a free place for every pod: the fixed policy and the return-all-pods
    # terminal cost need one
    n_places = n_pods + draw(st.integers(0, 1))
    pods = draw(st.permutations(range(1, n_pods + 1)))
    places = draw(st.permutations(range(n_places)))
    storage = [None] * n_places
    for p, h in zip(places, pods[:n_stored]):
        storage[p] = h
    queues, rest = [], list(pods[n_stored:])
    for length in queue_lengths:
        queues.append(tuple(rest[:length]))
        rest = rest[length:]
    eighths = draw(st.booleans())
    cost = st.integers(1, 72).map(lambda c: c / 8) if eighths else st.integers(1, 9).map(float)
    costs = CostModel(
        to_station=tuple(tuple(draw(cost) for _ in range(n_stations)) for _ in range(n_places)),
        from_station=tuple(tuple(draw(cost) for _ in range(n_places)) for _ in range(n_stations)))
    departures = generate_departures(
        n_pods, capacities, tuple(storage), tuple(queues), regime=REGIME_RANDOM_UNIFORM,
        seed=draw(st.integers(0, 2 ** 32)), n=draw(st.integers(1, 5)))
    inst = Instance(n_pods=n_pods, n_places=n_places, station_capacities=capacities,
                    costs=costs, initial_storage=tuple(storage),
                    initial_queues=tuple(queues), departures=departures)
    validate_instance(inst)
    return inst


@given(inst=tiny_instances())
@settings(max_examples=150, deadline=None)
def test_every_solver_and_policy_on_tiny_instances(inst):
    brute_actions, brute_cost = harness.brute_force_optimum(inst)
    result = solve_exact(inst)
    assert result.optimal
    assert (result.actions, result.cost) == (brute_actions, brute_cost)
    assert reference_cost(inst, result.actions) == result.cost
    # run_policy raises CostMismatchError when its re-verification fails
    for name in OFFLINE:
        assert harness.run_policy(inst, name)[1] >= brute_cost
    returning = replace(inst, costs=replace(inst.costs, terminal=TERMINAL_RETURN_ALL))
    for name in ONLINE:
        harness.run_policy(inst, name, seed=3)
        harness.run_policy(returning, name, seed=3)


@given(inst=tiny_instances())
@settings(max_examples=150, deadline=None)
def test_interval_model_restates_the_schedule(inst):
    check_interval_model(inst)


@given(inst=tiny_instances(), seed=st.integers(0, 2 ** 32))
@settings(max_examples=100, deadline=None)
def test_genetic1_start_plans_and_fitness_on_tiny_instances(inst, seed):
    seeds = [seed, seed + 1, seed + 2]
    plans = _random_plans(inst, seeds)
    assert plans.tolist() == [Replay(inst).run(RandomPolicy(s)).actions for s in seeds]
    # each start plan again with one gene moved, fill steps included
    rng = np.random.default_rng(seed)
    mutants = plans.copy()
    for plan in mutants:
        plan[rng.integers(inst.horizon)] = rng.integers(1, inst.n_places + 1)
    population = np.vstack((plans, mutants)).astype(np.min_scalar_type(inst.n_places))
    fitness = _genetic1_fitness(inst)(population).tolist()
    assert ([f.hex() for f in fitness]
            == [total_or_infeasible(inst, plan).hex() for plan in population.tolist()])


@given(inst=tiny_instances(), seed=st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_genetic_encodings_never_beat_the_optimum(inst, seed):
    _, optimum = harness.brute_force_optimum(inst)
    for encoding in (GENETIC1, GENETIC2):
        result = evolve(inst, encoding, config=GaConfig(max_generations=3, seed=seed))
        assert result.cost >= optimum
