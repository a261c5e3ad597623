"""Evolutionary solvers: place orders, decoding, evolution loop."""

import pytest

from podrepo import harness
from podrepo.core import (CostModel, Instance, Replay, check_feasible,
                          total_cost)
from podrepo.genetic import (GAMMA_AVG_COST, GAMMA_CLOSE, GAMMA_FAR,
                             GAMMA_ZIGZAG, GENETIC1, GENETIC2, GaConfig,
                             decode2, evolve, place_order)
from podrepo.instances import build_small_system, rng_from_seed
from podrepo.policies import RandomPolicy


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


class TestDecode:
    def test_close_chromosome(self):
        inst = walkthrough_instance()
        gamma = place_order(inst, GAMMA_CLOSE)
        assert decode2(inst, (1, 1), gamma) == [4, 5]

    def test_far_chromosome(self):
        inst = walkthrough_instance()
        gamma = place_order(inst, GAMMA_FAR)
        assert decode2(inst, (5, 5), gamma) == [4, 5]

    def test_zigzag_chromosome(self):
        inst = walkthrough_instance()
        gamma = place_order(inst, GAMMA_ZIGZAG)
        assert decode2(inst, (4, 5), gamma) == [4, 5]

    def test_mutated_zigzag_chain_effect(self):
        # mutating the first gene moves the second decision from 5 to 9
        inst = walkthrough_instance()
        gamma = place_order(inst, GAMMA_ZIGZAG)
        assert decode2(inst, (6, 5), gamma) == [5, 9]

    @pytest.mark.parametrize("seed", range(5))
    def test_total_decoding(self, seed):
        inst = harness.build_tiny_random(seed)
        gamma = place_order(inst, GAMMA_AVG_COST)
        rng = rng_from_seed(seed)
        for _ in range(20):
            genes = [int(g) for g in rng.integers(0, 1000, size=inst.horizon)]
            actions = decode2(inst, genes, gamma)
            assert check_feasible(inst, actions).ok


class TestEvolve:
    def test_unknown_encoding(self):
        with pytest.raises(ValueError):
            evolve(harness.build_tiny_random(0), "genetic3")

    @pytest.mark.parametrize("encoding", [GENETIC1, GENETIC2])
    def test_tiny_instance_bounds(self, encoding):
        inst = harness.build_tiny_random(1)
        _, optimum = harness.brute_force_optimum(inst)
        result = evolve(inst, encoding,
                        config=GaConfig(population=30, max_generations=30,
                                        stall_generations=30, seed=0))
        assert check_feasible(inst, result.actions).ok
        assert result.cost >= optimum - 1e-9
        random_total = Replay(inst).run(RandomPolicy(0)).total
        assert result.cost <= max(random_total, optimum) + 1e-9

    @pytest.mark.parametrize("encoding", [GENETIC1, GENETIC2])
    def test_cost_is_the_replay_total(self, encoding):
        inst = build_small_system(n=120)
        result = evolve(inst, encoding,
                        config=GaConfig(population=10, max_generations=3, seed=2))
        assert result.cost == total_cost(inst, result.actions)
        assert result.history[-1] == result.cost

    def test_history_is_nonincreasing(self):
        inst = harness.build_tiny_random(2)
        result = evolve(inst, GENETIC2,
                        config=GaConfig(population=20, max_generations=25,
                                        seed=3))
        assert all(a >= b - 1e-9 for a, b in zip(result.history,
                                                 result.history[1:]))

    def test_seed_determinism(self):
        inst = harness.build_tiny_random(4)
        cfg = GaConfig(population=20, max_generations=15, seed=11)
        a = evolve(inst, GENETIC2, config=cfg)
        b = evolve(inst, GENETIC2, config=cfg)
        assert a.cost == b.cost and a.actions == b.actions

    def test_genetic2_never_infeasible(self):
        inst = build_small_system(n=120)
        result = evolve(inst, GENETIC2,
                        config=GaConfig(population=20, max_generations=10,
                                        seed=0))
        assert result.infeasible_evaluations == 0
        assert result.infeasible_fraction == 0.0

    def test_genetic1_reports_infeasible_fraction(self):
        inst = build_small_system(n=120)
        result = evolve(inst, GENETIC1,
                        config=GaConfig(population=20, max_generations=10,
                                        seed=0))
        assert result.evaluations > 0
        assert 0.0 < result.infeasible_fraction < 1.0
        assert check_feasible(inst, result.actions).ok
