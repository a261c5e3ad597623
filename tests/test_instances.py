"""Test-system builders and departure-sequence generation."""

import numpy as np
import pytest

from podrepo.core import InvalidInstanceError, validate_instance
from podrepo.instances import (MEDIUM_N_PLACES, MEDIUM_N_PODS,
                               MEDIUM_STATION_WEIGHTS, REGIMES,
                               build_medium_system, build_small_system,
                               co_simulated_departures,
                               generate_departures, geometric_weights,
                               next_departure, rng_from_seed,
                               small_cost_model)


class TestGeometricWeights:
    def test_small_system_first_weight(self):
        w = geometric_weights(10, 20.0)
        assert w[0] == pytest.approx(0.29365446, abs=1e-7)

    def test_medium_system_first_weight(self):
        w = geometric_weights(441, 20.0)
        assert w[0] == pytest.approx(0.0071399315, abs=1e-9)

    def test_normalized_and_monotone(self):
        for n, ratio in ((10, 20.0), (441, 20.0), (7, 3.5)):
            w = geometric_weights(n, ratio)
            assert sum(w) == pytest.approx(1.0, abs=1e-12)
            assert all(a > b for a, b in zip(w, w[1:]))
            assert w[0] / w[-1] == pytest.approx(ratio, rel=1e-9)

    def test_uniform_degenerate_cases(self):
        assert geometric_weights(1, 20.0) == [1.0]
        assert geometric_weights(4, 1.0) == [0.25] * 4

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            geometric_weights(0, 20.0)
        with pytest.raises(ValueError):
            geometric_weights(5, 0.5)


class TestNextDeparture:
    def test_single_pod_single_station(self):
        rng = rng_from_seed(0)
        assert next_departure([7], [1.0] * 7, [1.0], rng) == (7, 1)

    def test_never_selects_absent_pod(self):
        rng = rng_from_seed(1)
        weights = geometric_weights(6, 20.0)
        for _ in range(200):
            pod, station = next_departure([2, 5], weights, [0.5, 0.5], rng)
            assert pod in (2, 5) and station in (1, 2)

    def test_uniform_frequencies(self):
        rng = rng_from_seed(2)
        counts = {}
        n = 40_000
        for _ in range(n):
            key = next_departure([1, 2], [0.5, 0.5], [0.5, 0.5], rng)
            counts[key] = counts.get(key, 0) + 1
        for key in ((1, 1), (1, 2), (2, 1), (2, 2)):
            assert counts[key] / n == pytest.approx(0.25, abs=0.015)

    def test_empty_storage_rejected(self):
        with pytest.raises(ValueError):
            next_departure([], [1.0], [1.0], rng_from_seed(0))


class TestGenerateDepartures:
    def setup_method(self):
        self.storage = tuple(range(1, 7))
        self.queues = ((), ())
        self.caps = (1, 1)

    def gen(self, regime, seed=3, n=20):
        return generate_departures(6, self.caps, self.storage, self.queues,
                                   regime=regime, seed=seed, n=n)

    def test_periodic_pattern(self):
        deps = generate_departures(10, (2, 2), tuple(range(1, 11)), ((), ()),
                                   regime="periodic", seed=0, n=4)
        assert deps == ((1, 1), (2, 2), (3, 1), (4, 2))

    def test_periodic_period_lengths(self):
        deps = self.gen("periodic", n=18)
        pods = [h for h, _ in deps]
        stations = [s for _, s in deps]
        assert pods == [(t % 6) + 1 for t in range(18)]
        assert stations == [(t % 2) + 1 for t in range(18)]

    @pytest.mark.parametrize("regime", REGIMES)
    def test_deterministic_per_seed(self, regime):
        assert self.gen(regime) == self.gen(regime)

    @pytest.mark.parametrize("regime", ["random-geometric", "random-uniform",
                                        "periodic-random"])
    def test_seed_changes_sequence(self, regime):
        assert self.gen(regime, seed=3, n=30) != self.gen(regime, seed=4, n=30)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_sequences_are_feasible(self, regime):
        from podrepo.core import CostModel, Instance
        deps = self.gen(regime, n=40)
        costs = CostModel(
            to_station=tuple((1.0, 1.0) for _ in range(6)),
            from_station=((1.0,) * 6, (1.0,) * 6))
        inst = Instance(n_pods=6, n_places=6, station_capacities=self.caps,
                        costs=costs, initial_storage=self.storage,
                        initial_queues=self.queues, departures=deps)
        validate_instance(inst)

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            self.gen("weekly")


class TestSmallSystem:
    def test_published_cost_values(self):
        costs = small_cost_model()
        assert costs.to_stn(1, 1) == 5.0 and costs.to_stn(1, 2) == 5.0
        assert costs.from_stn(1, 5) == 9.0 and costs.from_stn(2, 5) == 9.0

    def test_station_symmetry(self):
        costs = small_cost_model()
        for p in range(1, 11):
            assert costs.to_stn(p, 1) == costs.to_stn(p, 2)
            assert costs.from_stn(1, p) == costs.from_stn(2, p)

    def test_shipped_instance_shape(self):
        inst = build_small_system()
        assert inst.n_pods == inst.n_places == 10
        assert inst.station_capacities == (2, 2)
        assert inst.horizon == 1000
        assert inst.initial_storage == tuple(range(1, 11))
        validate_instance(inst)

    def test_reproducible(self):
        assert build_small_system(seed=9, n=100) == build_small_system(seed=9, n=100)


class TestMediumSystem:
    def test_shipped_instance_shape(self):
        inst = build_medium_system(seed=1, n=500)
        assert inst.n_places == MEDIUM_N_PLACES == 504
        assert inst.n_pods == MEDIUM_N_PODS == 441
        assert MEDIUM_STATION_WEIGHTS == (0.6, 0.4)
        validate_instance(inst)

    def test_all_places_reachable(self):
        inst = build_medium_system(seed=1, n=100)
        assert all(c > 0 and np.isfinite(c)
                   for row in inst.costs.to_station for c in row)
        assert all(c > 0 and np.isfinite(c)
                   for row in inst.costs.from_station for c in row)

    def test_station_asymmetry(self):
        inst = build_medium_system(seed=1, n=100)
        assert any(inst.costs.to_stn(p, 1) != inst.costs.to_stn(p, 2)
                   for p in range(1, inst.n_places + 1))


class TestDrawErrors:
    """The hand-written draw keeps ``Generator.choice``'s error behaviour."""

    @pytest.mark.parametrize("weights", [[-0.5, 1.5, 1.0], [np.nan, 1.0, 1.0],
                                         [np.inf, 1.0, 1.0], [0.0, 0.0, 1.0]])
    def test_bad_weights_among_stored_pods(self, weights):
        with pytest.raises(ValueError):
            next_departure([1, 2], weights, [0.5, 0.5], rng_from_seed(0))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_weight_sum_overflow(self):
        with pytest.raises(ValueError):
            next_departure([1, 2], [1e308, 1e308], [1.0], rng_from_seed(0))

    @pytest.mark.parametrize("station_weights", [[0.5, 0.6], [-0.5, 1.5], [np.nan, 1.0]])
    def test_bad_station_weights(self, station_weights):
        with pytest.raises(ValueError):
            next_departure([1], [1.0], station_weights, rng_from_seed(0))

    def test_generate_checks_pod_weights(self):
        with pytest.raises(ValueError):
            generate_departures(3, (1,), (1, 2, 3), ((),), regime="random-geometric",
                                seed=0, n=5, pod_weights=[1.0, -1.0, 1.0])

    def test_empty_storage_in_generation(self):
        # one place, one pod, and a queue of two: the second draw finds
        # storage empty
        with pytest.raises(ValueError, match="storage is empty"):
            generate_departures(1, (2,), (1,), ((),), regime="random-uniform",
                                seed=0, n=2)

    @pytest.mark.parametrize("pod", [0, -1, 4, 2])
    def test_draw_outside_storage_is_invalid(self, pod):
        # pod 2 sits in the queue, 0, -1 and 4 are no pods at all
        with pytest.raises(InvalidInstanceError, match="not in storage"):
            co_simulated_departures(3, (1,), (1, None, 3), ((2,),), 1,
                                    lambda t, in_storage: (pod, 1))

    @pytest.mark.parametrize("station", [0, -1, 2])
    def test_draw_with_unknown_station_is_invalid(self, station):
        with pytest.raises(InvalidInstanceError, match="unknown station"):
            co_simulated_departures(3, (1,), (1, 2, 3), ((),), 1,
                                    lambda t, in_storage: (1, station))

    def test_draw_sees_membership_mask(self):
        seen = []

        def draw(t, in_storage):
            seen.append(np.flatnonzero(in_storage).tolist())
            return seen[-1][0], 1

        deps = co_simulated_departures(3, (1,), (1, None, 3), ((2,),), 3, draw)
        assert seen == [[1, 3], [2, 3], [1, 3]]
        assert deps == ((1, 1), (2, 1), (1, 1))

    @pytest.mark.parametrize("regime", REGIMES)
    def test_departures_are_plain_ints(self, regime):
        deps = generate_departures(6, (1, 1), tuple(range(1, 7)), ((), ()),
                                   regime=regime, seed=3, n=30)
        assert all(type(h) is int and type(s) is int for h, s in deps)
