"""Evolutionary solvers: place orders, decoding, evolution loop."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from podrepo import harness
from podrepo.core import (NO_OP, REASON_BUSY, REASON_PHASE, CostModel,
                          Instance, Replay, Verdict, check_feasible,
                          initial_busy_ends, total_cost)
from podrepo.genetic import (GAMMA_AVG_COST, GAMMA_CLOSE, GAMMA_FAR,
                             GAMMA_ZIGZAG, GENETIC1, GENETIC2, INFEASIBLE,
                             GaConfig, _decode2_batch, _genetic1_fitness,
                             _random_plans, evolve, place_order)
from podrepo.instances import (build_medium_system, build_small_system,
                               rng_from_seed)
from podrepo.policies import RandomPolicy
from reference import total_or_infeasible


def walkthrough_instance() -> Instance:
    """Ten places, eight pods, both station queues full.

    Pod 3 (place 9) departs first to station 1, pod 4 (place 10) then departs
    to station 2; the queue heads 5 and 7 return in those two steps.
    """
    costs = CostModel(
        to_station=tuple((float(p + 4), float(p + 4)) for p in range(1, 11)),
        from_station=tuple(tuple(float(p + 4) for p in range(1, 11))
                           for _ in range(2)),
    )
    return Instance(
        n_pods=8, n_places=10, station_capacities=(2, 2), costs=costs,
        initial_storage=(1, 2, None, None, None, None, None, None, 3, 4),
        initial_queues=((5, 6), (7, 8)),
        departures=((3, 1), (4, 2)),
    )


class TestPlaceOrder:
    def test_close_and_far(self):
        inst = walkthrough_instance()
        assert place_order(inst, GAMMA_CLOSE) == list(range(1, 11))
        assert place_order(inst, GAMMA_FAR) == list(range(10, 0, -1))

    def test_zigzag_interleaves_halves(self):
        inst = walkthrough_instance()
        assert place_order(inst, GAMMA_ZIGZAG) == [1, 6, 2, 7, 3, 8, 4, 9, 5, 10]

    def test_avg_cost_is_a_permutation(self):
        inst = harness.build_tiny_random(0)
        order = place_order(inst, GAMMA_AVG_COST)
        assert sorted(order) == list(range(1, inst.n_places + 1))

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            place_order(walkthrough_instance(), "spiral")


def decode_row(inst: Instance, genes, gamma) -> list[int]:
    """One gene row decoded by the batched decoder."""
    return _decode2_batch(inst, np.array([genes], dtype=np.int64), gamma)[1][0].tolist()


class TestDecode:
    def test_close_chromosome(self):
        inst = walkthrough_instance()
        gamma = place_order(inst, GAMMA_CLOSE)
        assert decode_row(inst, (1, 1), gamma) == [4, 5]

    def test_far_chromosome(self):
        inst = walkthrough_instance()
        gamma = place_order(inst, GAMMA_FAR)
        assert decode_row(inst, (5, 5), gamma) == [4, 5]

    def test_zigzag_chromosome(self):
        inst = walkthrough_instance()
        gamma = place_order(inst, GAMMA_ZIGZAG)
        assert decode_row(inst, (4, 5), gamma) == [4, 5]

    def test_mutated_zigzag_chain_effect(self):
        # mutating the first gene moves the second decision from 5 to 9
        inst = walkthrough_instance()
        gamma = place_order(inst, GAMMA_ZIGZAG)
        assert decode_row(inst, (6, 5), gamma) == [5, 9]

    @pytest.mark.parametrize("seed", range(5))
    def test_total_decoding(self, seed):
        inst = harness.build_tiny_random(seed)
        gamma = place_order(inst, GAMMA_AVG_COST)
        rng = rng_from_seed(seed)
        for _ in range(20):
            genes = [int(g) for g in rng.integers(0, 1000, size=inst.horizon)]
            actions = decode_row(inst, genes, gamma)
            assert check_feasible(inst, actions).ok


def replay_decode2(inst: Instance, genes, gamma) -> Replay:
    """The genetic-2 decode walked through ``Replay``: the oracle for the
    batched decoder."""
    rank = [0] * (inst.n_places + 1)
    for i, p in enumerate(gamma):
        rank[p] = i
    replay = Replay(inst)
    for gene in genes:
        if replay.schedule.steps[replay.t].fill:
            replay.step(NO_OP)
        else:
            admissible = sorted(replay.admissible(), key=rank.__getitem__)
            replay.step(admissible[gene % len(admissible)])
    return replay


def fractional(inst: Instance) -> Instance:
    """A copy with every cost divided by 7, so that sums round."""
    def scale(table):
        return tuple(tuple(c / 7 for c in row) for row in table)

    return replace(inst, costs=replace(inst.costs,
                                       to_station=scale(inst.costs.to_station),
                                       from_station=scale(inst.costs.from_station)))


DIFFERENTIAL_CASES = {
    **{f"tiny-{seed}": (lambda seed=seed: harness.build_tiny_random(seed))
       for seed in range(5)},
    "small": lambda: build_small_system(1, n=1000),
    "medium": lambda: build_medium_system(1, n=500),
    "small-fractional": lambda: fractional(build_small_system(1, n=1000)),
    "tiny-fractional": lambda: fractional(harness.build_tiny_random(3)),
}


class TestBatchedDecode:
    @pytest.mark.parametrize("case", DIFFERENTIAL_CASES)
    @pytest.mark.parametrize("gamma_name", [GAMMA_AVG_COST, GAMMA_ZIGZAG])
    def test_matches_the_replay_walk(self, case, gamma_name):
        inst = DIFFERENTIAL_CASES[case]()
        gamma = place_order(inst, gamma_name)
        rng = rng_from_seed(list(DIFFERENTIAL_CASES).index(case))
        genes = rng.integers(0, 1000, size=(24, inst.horizon))
        genes[rng.random(genes.shape) < 0.1] *= -1
        totals, actions = _decode2_batch(inst, genes, gamma)
        assert totals.shape == (24,) and actions.shape == (24, inst.horizon)
        for row, total, plan in zip(genes.tolist(), totals.tolist(), actions.tolist()):
            oracle = replay_decode2(inst, row, gamma)
            assert plan == oracle.actions
            assert total == oracle.total  # bit-identical, not approximate

    def test_prefix_is_decoded(self):
        inst = harness.build_tiny_random(0)
        gamma = place_order(inst, GAMMA_CLOSE)
        assert decode_row(inst, [0] * 3, gamma) == [0, 0, 1]
        assert decode_row(inst, [], gamma) == []

    def test_negative_genes_reduce_like_python(self):
        inst = build_small_system(1, n=200)
        gamma = place_order(inst, GAMMA_AVG_COST)
        genes = [-(t % 23) - 1 for t in range(inst.horizon)]
        assert decode_row(inst, genes, gamma) == replay_decode2(inst, genes, gamma).actions

    def test_int64_extremes_decode(self):
        inst = harness.build_tiny_random(0)
        gamma = place_order(inst, GAMMA_CLOSE)
        genes = [0, 2 ** 63 - 1, -2 ** 63]
        assert decode_row(inst, genes, gamma) == replay_decode2(inst, genes, gamma).actions


START_CASES = {
    **{f"tiny-{seed}": (lambda seed=seed: harness.build_tiny_random(seed))
       for seed in range(50)},
    "small": lambda: build_small_system(2, n=1000),
    "medium": lambda: build_medium_system(1, n=300),
}


def plan_array(inst: Instance, plans) -> np.ndarray:
    """Plans as genetic-1 holds a population: one row each, in the smallest
    dtype that fits a place id."""
    return np.array(plans, dtype=np.min_scalar_type(inst.n_places))


def stepped(inst: Instance, plan, t: int) -> Replay:
    """A replay of the first ``t`` actions of ``plan``."""
    replay = Replay(inst)
    for a in plan[:t]:
        replay.step(a)
    return replay


def held_by_initial_pod(inst, plan, t):
    """A place whose initial pod is still stored at decision step ``t``."""
    ends = initial_busy_ends(inst)
    return next(p for p in range(1, inst.n_places + 1) if ends[p - 1] > t + 1)


def held_by_decision(inst, plan, t):
    """A place that an earlier decision of ``plan`` filled and that is still
    held, not by the pod that departs at ``t``."""
    replay = stepped(inst, plan, t)
    steps = replay.schedule.steps
    leaving = replay.place_of[steps[t].pod]
    return next(plan[d] for d in range(t) if not steps[d].fill and plan[d] != leaving
                and replay.pod_at[plan[d]] == steps[d].returning_pod)


# way to fail -> (step kind, the action at that step, the verdict's reason)
INFEASIBLE_CASES = {
    "move-on-fill-step": ("fill", lambda inst, plan, t: 1, REASON_PHASE),
    "no-op-on-decision": ("first-decision", lambda inst, plan, t: NO_OP, REASON_PHASE),
    "place-beyond-range": ("first-decision", lambda inst, plan, t: inst.n_places + 1, REASON_BUSY),
    "held-by-initial-pod": ("first-decision", held_by_initial_pod, REASON_BUSY),
    "held-by-decision": ("late-decision", held_by_decision, REASON_BUSY),
}


class TestBatchedGenetic1:
    @pytest.mark.parametrize("case", START_CASES)
    def test_start_plans_are_random_policy_plans(self, case):
        inst = START_CASES[case]()
        seeds = rng_from_seed(list(START_CASES).index(case)).integers(2 ** 62, size=4).tolist()
        plans = _random_plans(inst, seeds)
        assert plans.shape == (4, inst.horizon)
        for seed, plan in zip(seeds, plans.tolist()):
            assert plan == Replay(inst).run(RandomPolicy(seed)).actions

    @pytest.mark.parametrize("case", DIFFERENTIAL_CASES)
    def test_fitness_matches_total_cost(self, case):
        inst = DIFFERENTIAL_CASES[case]()
        rng = rng_from_seed(list(DIFFERENTIAL_CASES).index(case))
        population = _random_plans(inst, range(8)).tolist()
        for plan in list(population):
            for _ in range(3):  # one gene moved to a random place, fill steps included
                mutant = list(plan)
                mutant[int(rng.integers(inst.horizon))] = int(rng.integers(1, inst.n_places + 1))
                population.append(mutant)
        fitness = _genetic1_fitness(inst)(plan_array(inst, population)).tolist()
        oracle = [total_or_infeasible(inst, plan) for plan in population]
        assert [f.hex() for f in fitness] == [f.hex() for f in oracle]
        assert INFEASIBLE in fitness and min(fitness) < INFEASIBLE

    @pytest.mark.parametrize("case", INFEASIBLE_CASES)
    def test_each_way_to_fail(self, case):
        inst = build_small_system(1, n=200)
        plan = Replay(inst).run(RandomPolicy(0)).actions
        kind, action_at, reason = INFEASIBLE_CASES[case]
        fills = [t for t, a in enumerate(plan) if a == NO_OP]
        decisions = [t for t, a in enumerate(plan) if a != NO_OP]
        t = {"fill": fills[0], "first-decision": decisions[0],
             "late-decision": decisions[len(decisions) // 2]}[kind]
        plan[t] = action_at(inst, plan, t)
        assert check_feasible(inst, plan) == Verdict(ok=False, step=t, reason=reason)
        assert _genetic1_fitness(inst)(plan_array(inst, [plan])).tolist() == [INFEASIBLE]

    def test_evolve_runs_no_replay(self, monkeypatch):
        replays = []
        init = Replay.__init__
        monkeypatch.setattr(Replay, "__init__",
                            lambda self, inst: replays.append(inst) or init(self, inst))
        evolve(build_small_system(1, n=200), GENETIC1, config=GaConfig(max_generations=2))
        assert replays == []

    def test_place_left_at_the_same_step_is_feasible(self):
        inst = build_small_system(1, n=200)
        plan = Replay(inst).run(RandomPolicy(0)).actions
        t = [t for t, a in enumerate(plan) if a != NO_OP][10]
        replay = stepped(inst, plan, t)
        leaving = replay.place_of[replay.schedule.steps[t].pod]
        assert plan[t] != leaving
        replay.step(leaving)
        plan = replay.run(RandomPolicy(1)).actions
        fitness = _genetic1_fitness(inst)(plan_array(inst, [plan])).tolist()
        assert fitness[0].hex() == total_cost(inst, plan).hex()


class TestEvolve:
    def test_unknown_encoding(self):
        with pytest.raises(ValueError):
            evolve(harness.build_tiny_random(0), "genetic3")

    @pytest.mark.parametrize("encoding", [GENETIC1, GENETIC2])
    def test_tiny_instance_bounds(self, encoding):
        inst = harness.build_tiny_random(1)
        _, optimum = harness.brute_force_optimum(inst)
        result = evolve(inst, encoding,
                        config=GaConfig(max_generations=30, seed=0))
        assert check_feasible(inst, result.actions).ok
        assert result.cost >= optimum - 1e-9
        random_total = Replay(inst).run(RandomPolicy(0)).total
        assert result.cost <= max(random_total, optimum) + 1e-9

    @pytest.mark.parametrize("encoding", [GENETIC1, GENETIC2])
    def test_cost_is_the_replay_total(self, encoding):
        inst = build_small_system(n=120)
        result = evolve(inst, encoding,
                        config=GaConfig(max_generations=3, seed=2))
        assert result.cost == total_cost(inst, result.actions)
        assert result.history[-1] == result.cost

    def test_history_is_nonincreasing(self):
        inst = harness.build_tiny_random(2)
        result = evolve(inst, GENETIC2,
                        config=GaConfig(max_generations=25, seed=3))
        assert all(a >= b - 1e-9 for a, b in zip(result.history,
                                                 result.history[1:]))

    def test_seed_determinism(self):
        inst = harness.build_tiny_random(4)
        cfg = GaConfig(max_generations=15, seed=11)
        a = evolve(inst, GENETIC2, config=cfg)
        b = evolve(inst, GENETIC2, config=cfg)
        assert a.cost == b.cost and a.actions == b.actions

    def test_genetic2_result_pinned(self):
        result = evolve(build_small_system(1, n=1000), GENETIC2,
                        config=GaConfig(seed=1, max_generations=10))
        assert result.cost == 17733
        assert result.history[-3:] == [17866, 17798, 17733]
        assert result.generations == 10
        assert result.evaluations == 1100

    def test_genetic2_zigzag_result_pinned(self):
        result = evolve(build_small_system(1, n=1000), GENETIC2, GAMMA_ZIGZAG,
                        config=GaConfig(seed=1, max_generations=10))
        assert result.cost == 17822
        assert result.history[-3:] == [17932, 17902, 17822]
        assert result.generations == 10
        assert result.evaluations == 1100
        assert result.infeasible_evaluations == 0

    def test_genetic1_result_pinned(self):
        # small-search's genetic-1 run; its cost is not in that workload's cost.sum
        result = evolve(build_small_system(1, n=1000), GENETIC1, GAMMA_AVG_COST,
                        GaConfig(seed=1, max_generations=10))
        assert result.cost == 18562.0
        assert result.history == [18562.0] * 10
        assert result.generations == 10
        assert result.evaluations == 1100
        assert result.infeasible_evaluations == 989
        assert hashlib.sha256(json.dumps(result.actions).encode()).hexdigest() == (
            "db151a58c02604ebf7caa33eb27814145513ad1856a82cca3c648e3d1a968c17")

    @pytest.mark.parametrize("encoding,cost,history,infeasible,digest", [
        (GENETIC1, 12190.0, [12190.0] * 3, 297,
         "740d473d06bc3dabb6af9dcdcf8f31f8f28528ff3931e3b50383dd0a55fe884f"),
        (GENETIC2, 11982.0, [12181.0, 12091.0, 11982.0], 0,
         "9dc1c25d6566acffd19a274baae71fdeeae55a043be1f7d291705eae0a7f63ca"),
    ])
    def test_medium_result_pinned(self, encoding, cost, history, infeasible, digest):
        # 504 places: genetic-1's genes are uint16, genetic-2's int64
        result = evolve(build_medium_system(1, n=300), encoding,
                        config=GaConfig(seed=1, max_generations=3))
        assert result.cost == cost and result.history == history
        assert result.evaluations == 400
        assert result.infeasible_evaluations == infeasible
        assert hashlib.sha256(json.dumps(result.actions).encode()).hexdigest() == digest
        # plain Python numbers, no numpy scalars
        assert type(result.cost) is float
        assert all(type(h) is float for h in result.history)
        assert all(type(a) is int for a in result.actions)

    def test_genetic2_never_infeasible(self):
        inst = build_small_system(n=120)
        result = evolve(inst, GENETIC2,
                        config=GaConfig(max_generations=10, seed=0))
        assert result.infeasible_evaluations == 0
        assert result.infeasible_fraction == 0.0

    def test_genetic1_reports_infeasible_fraction(self):
        inst = build_small_system(n=120)
        result = evolve(inst, GENETIC1,
                        config=GaConfig(max_generations=10, seed=0))
        assert result.evaluations > 0
        assert 0.0 < result.infeasible_fraction < 1.0
        assert check_feasible(inst, result.actions).ok
