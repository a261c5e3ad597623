"""Test-system builders and departure-sequence generation."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from podrepo import instances
from podrepo.core import InvalidInstanceError, validate_instance
from podrepo.instances import (MEDIUM_N_PLACES, MEDIUM_N_PODS,
                               MEDIUM_STATION_WEIGHTS, REGIMES, _Storage,
                               _draw_pod, _pick, _pod_weight_vector, _station_cdf,
                               build_medium_system, build_small_system,
                               co_simulated_departures,
                               generate_departures, geometric_weights,
                               rng_from_seed)


def draw_departure(storage_pods, pod_weights, station_weights, rng):
    """One departure drawn the way ``generate_departures`` draws it: the
    station by weight, then a stored pod by weight."""
    in_storage = np.zeros(len(pod_weights) + 1, dtype=bool)
    in_storage[list(storage_pods)] = True
    station = _pick(_station_cdf(station_weights, len(station_weights)), rng) + 1
    return _draw_pod(_pod_weight_vector(pod_weights, len(pod_weights)), in_storage, rng.random()), station


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
        assert draw_departure([7], [1.0] * 7, [1.0], rng) == (7, 1)

    def test_never_selects_absent_pod(self):
        rng = rng_from_seed(1)
        weights = geometric_weights(6, 20.0)
        for _ in range(200):
            pod, station = draw_departure([2, 5], weights, [0.5, 0.5], rng)
            assert pod in (2, 5) and station in (1, 2)

    def test_uniform_frequencies(self):
        rng = rng_from_seed(2)
        counts = {}
        n = 40_000
        for _ in range(n):
            key = draw_departure([1, 2], [0.5, 0.5], [0.5, 0.5], rng)
            counts[key] = counts.get(key, 0) + 1
        for key in ((1, 1), (1, 2), (2, 1), (2, 2)):
            assert counts[key] / n == pytest.approx(0.25, abs=0.015)

    def test_empty_storage_rejected(self):
        with pytest.raises(ValueError):
            draw_departure([], [1.0], [1.0], rng_from_seed(0))


# ties, zeros next to positive weights, and the seasonal builder's floor
WEIGHT = st.one_of(st.sampled_from([0.0, 1e-300, 0.25, 1.0, 3.0]),
                   st.floats(1e-300, 1e6))


@st.composite
def stored_weights(draw):
    """Pod weights (a list, a sparse Dirichlet with the ``1e-300`` floor that
    the seasonal builder adds, or geometric) and which pods are stored."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["list", "dirichlet", "geometric"]))
    if kind == "dirichlet":
        rng = rng_from_seed(draw(st.integers(0, 2 ** 32)))
        weights = rng.dirichlet([0.1] * n) + 1e-300
    elif kind == "geometric":
        weights = np.array(geometric_weights(n, draw(st.floats(1.0, 1e3))))
    else:
        weights = np.array(draw(st.lists(WEIGHT, min_size=n, max_size=n)))
    return weights, draw(st.lists(st.booleans(), min_size=n, max_size=n))


class TestDrawPodMatchesChoice:
    """``_draw_pod`` must pick the very pod that ``Generator.choice`` picks
    from the same double."""

    @given(case=stored_weights(), seed=st.integers(0, 2 ** 32))
    @settings(max_examples=300, deadline=None)
    def test_same_pod_as_choice(self, case, seed):
        weights, stored = case
        pods = [h for h in range(1, len(weights) + 1) if stored[h - 1]]
        w = weights[[h - 1 for h in pods]]
        assume(pods and w.sum() > 0)
        in_storage = np.array([False, *stored])
        vector = _pod_weight_vector(weights, len(weights))
        rng_a, rng_b = rng_from_seed(seed), rng_from_seed(seed)
        for _ in range(20):
            assert (_draw_pod(vector, in_storage, rng_a.random())
                    == pods[rng_b.choice(len(pods), p=w / w.sum())])
        # doubles on and next to choice's normalised cdf entries, where a
        # cdf rounded another way could move the index by one
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        for edge in cdf[:-1]:
            for u in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
                if u < 1.0:  # the range of ``Generator.random``
                    assert (_draw_pod(vector, in_storage, float(u))
                            == pods[cdf.searchsorted(u, side="right")])


def _outcome(draw, *args):
    """A draw's pod, or the text of the ``ValueError`` it raises."""
    try:
        return draw(*args)
    except ValueError as error:
        return str(error)


def _edges(weights, in_storage):
    """Doubles on and next to ``choice``'s normalised cdf entries over the
    stored pods, inside the range of ``Generator.random``."""
    w = weights[in_storage]
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    near = [u for edge in cdf[:-1]
            for u in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0))]
    return [float(u) for u in near if 0.0 <= u < 1.0]


class TestStorageDraw:
    """``_Storage.draw`` picks from an exact prefix-sum tree and must pick
    the very pod that the reference ``_draw_pod`` picks from the same double,
    falling back to it where the tree cannot tell."""

    @given(case=stored_weights(), walk=st.lists(st.integers(1, 40), max_size=12),
           scale=st.sampled_from([1.0, 2.0 ** -1000, 2.0 ** 1000]),
           seed=st.integers(0, 2 ** 32))
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_same_pod_as_reference_along_a_walk(self, case, walk, scale, seed):
        weights, stored = case
        n = len(weights)
        vector = _pod_weight_vector(weights * scale, n)
        storage = _Storage(n, [h for h in range(1, n + 1) if stored[h - 1]])
        rng = rng_from_seed(seed)
        for i, h in enumerate(walk):
            h = (h - 1) % n + 1
            if i == len(walk) // 2:  # an equal array in a new object rebuilds the tree
                vector = vector.copy()
            for u in (*rng.random(4).tolist(), 0.0, 2.0 ** -53):
                assert (_outcome(storage.draw, vector, u)
                        == _outcome(_draw_pod, vector, storage.mask.copy(), u))
            (storage.leave if storage.mask[h] else storage.store)(h)
        if 0 < vector[storage.mask].sum() < np.inf:
            for u in _edges(vector, storage.mask):
                assert storage.draw(vector, u) == _draw_pod(vector, storage.mask.copy(), u)

    @given(case=stored_weights(), walk=st.lists(st.integers(1, 40), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_tree_holds_exact_stored_sums_after_a_walk(self, case, walk):
        weights, stored = case
        n = len(weights)
        vector = _pod_weight_vector(weights, n)
        storage = _Storage(n, [h for h in range(1, n + 1) if stored[h - 1]])
        storage._build(vector)
        for h in walk:
            h = (h - 1) % n + 1
            (storage.leave if storage.mask[h] else storage.store)(h)
        unit = Fraction(1, 2 ** storage._shift)
        exact = [Fraction(float(w)) if on else Fraction(0)
                 for w, on in zip(vector, storage.mask)]
        exact += [Fraction(0)] * (len(storage._tree) - len(exact))
        assert storage._total * unit == sum(exact)
        # each node holds the exact sum of its range of pod ids
        for i in range(1, len(storage._tree)):
            assert storage._tree[i] * unit == sum(exact[i - (i & -i) + 1:i + 1])
        # the walked paths leave the very tree a build from the mask gives
        rebuilt = _Storage(n, storage.mask.nonzero()[0].tolist())
        rebuilt._build(vector)
        assert (storage._tree, storage._total) == (rebuilt._tree, rebuilt._total)

    def test_paths_are_the_fenwick_walk(self):
        for n in range(1, 1025):
            storage = _Storage(n, [])
            size = len(storage._tree) - 1
            for pod in range(1, n + 1):
                walk, i = [], pod
                while i <= size:
                    walk.append(i)
                    i += i & -i
                assert storage._paths[pod] == walk

    def test_edge_double_takes_the_fallback(self, monkeypatch):
        calls = []

        def reference(*args):
            calls.append(args[2])
            return _draw_pod(*args)

        monkeypatch.setattr(instances, "_draw_pod", reference)
        vector = _pod_weight_vector([1.0, 1.0, 2.0], 3)
        storage = _Storage(3, [1, 2, 3])
        # 0.25 is a cdf edge: choice's entry for pod 1 equals it exactly
        assert storage.draw(vector, 0.25) == 2 and calls == [0.25]
        # far from every edge, the tree alone decides
        assert storage.draw(vector, 0.4) == 2 and storage.draw(vector, 0.9) == 3
        assert calls == [0.25]


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
        costs = build_small_system(n=10).costs
        assert costs.to_stn(1, 1) == 5.0 and costs.to_stn(1, 2) == 5.0
        assert costs.from_stn(1, 5) == 9.0 and costs.from_stn(2, 5) == 9.0

    def test_station_symmetry(self):
        costs = build_small_system(n=10).costs
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
            draw_departure([1, 2], weights, [0.5, 0.5], rng_from_seed(0))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_weight_sum_overflow(self):
        with pytest.raises(ValueError):
            draw_departure([1, 2], [1e308, 1e308], [1.0], rng_from_seed(0))

    @pytest.mark.parametrize("station_weights", [[0.5, 0.6], [-0.5, 1.5], [np.nan, 1.0]])
    def test_bad_station_weights(self, station_weights):
        with pytest.raises(ValueError):
            draw_departure([1], [1.0], station_weights, rng_from_seed(0))

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

    def test_empty_storage_in_periodic_random_generation(self):
        # two pods fill a queue of two: the third step finds storage empty.
        # A child process, so a draw that loops forever fails on the timeout.
        code = ("from podrepo.instances import generate_departures\n"
                "try:\n"
                "    generate_departures(2, (2,), (1, 2), ((),), 'periodic-random', 0, 5)\n"
                "except ValueError as error:\n"
                "    print(error)\n")
        src = str(Path(instances.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=10)
        assert done.stdout == "storage is empty\n", done.stderr

    @pytest.mark.parametrize("kwargs, count", [
        (dict(pod_weights=[0.5, 0.5]), "3 pod weights, got 2"),
        (dict(pod_weights=[0.25] * 4), "3 pod weights, got 4"),
        (dict(station_weights=[1.0]), "2 station weights, got 1"),
        (dict(station_weights=[0.5, 0.25, 0.25]), "2 station weights, got 3"),
    ], ids=["two-pod-weights", "four-pod-weights", "one-station-weight",
            "three-station-weights"])
    def test_weight_vectors_of_the_wrong_length(self, kwargs, count):
        with pytest.raises(ValueError, match=f"expected {count}"):
            generate_departures(3, (1, 1), (1, 2, 3), ((), ()), "random-geometric",
                                0, 40, **kwargs)

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

        def draw(t, storage):
            seen.append(np.flatnonzero(storage.mask).tolist())
            return seen[-1][0], 1

        deps = co_simulated_departures(3, (1,), (1, None, 3), ((2,),), 3, draw)
        assert seen == [[1, 3], [2, 3], [1, 3]]
        assert deps == ((1, 1), (2, 1), (1, 1))

    @pytest.mark.parametrize("regime", REGIMES)
    def test_departures_are_plain_ints(self, regime):
        deps = generate_departures(6, (1, 1), tuple(range(1, 7)), ((), ()),
                                   regime=regime, seed=3, n=30)
        assert all(type(h) is int and type(s) is int for h, s in deps)
