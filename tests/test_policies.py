"""Online policies and the fixed-place assignment."""

import hashlib
import itertools
import json

import pytest

from podrepo import harness
from podrepo.core import NO_OP, Replay, check_feasible, departure_schedule
from podrepo.genetic import GENETIC1, GaConfig, evolve
from podrepo.instances import build_medium_system, build_small_system
from podrepo.policies import (CHEAPEST_DECISION, CHEAPEST_ON_AVERAGE,
                              CHEAPEST_TO_STORAGE, CheapestPolicy, FixedPolicy,
                              RandomPolicy, avg_costs, compute_fixed_assignment,
                              decision_cost, fixed_assignment_costs,
                              rearranged_instance, sorted_fixed_assignment,
                              station_fractions, station_frequencies)
from podrepo.tetris import MostExpensivePlacePolicy


class TestAvgCosts:
    def test_small_periodic_place_one(self):
        inst = build_small_system(n=100, regime="periodic")
        assert station_fractions(inst) == [0.5, 0.5]
        assert avg_costs(inst)[0] == 10.0

    def test_single_station_reduces_to_round_trip(self):
        inst = harness.build_tiny_random(11)
        if inst.n_stations != 1:
            inst = next(harness.build_tiny_random(s) for s in range(40)
                        if harness.build_tiny_random(s).n_stations == 1)
        avg = avg_costs(inst)
        for p in range(1, inst.n_places + 1):
            assert avg[p - 1] == inst.costs.to_stn(p, 1) + inst.costs.from_stn(1, p)


class TestRandomPolicy:
    def test_forced_choice(self):
        inst = build_small_system(n=50)
        policy = RandomPolicy(0)

        def checked(replay, info):
            action = policy(replay, info)
            assert action in replay.admissible()
            return action

        Replay(inst).run(checked)

    def test_seed_determinism(self):
        inst = build_small_system(n=200)
        a = Replay(inst).run(RandomPolicy(7)).actions
        b = Replay(inst).run(RandomPolicy(7)).actions
        c = Replay(inst).run(RandomPolicy(8)).actions
        assert a == b
        assert a != c

    @pytest.mark.parametrize("build, digest", [
        (lambda: build_small_system(1, n=1000),
         "0ee07ef741222d7667de3b112268854b3b539bc65ac3d8ce7bf36d3e362d4e10"),
        (lambda: build_medium_system(1, n=2000),
         "5c49fbf9e5aa010b2eec689aec10052136b938258e052b93885a46b4ab8ebb5c"),
    ], ids=["small", "medium"])
    def test_action_stream_pinned(self, build, digest):
        """One PCG64 draw per decision, over the admissible set in ascending
        place order: any change to either changes the actions."""
        inst = build()
        assert _digest(Replay(inst).run(RandomPolicy(7)).actions) == digest

    def test_stream_continues_over_replays(self):
        """One policy object over two replays in sequence: the second replay
        takes the draws that follow the first one's."""
        policy = RandomPolicy(7)
        first = Replay(build_small_system(1, n=300)).run(policy)
        second = Replay(build_medium_system(1, n=2000)).run(policy)
        assert _digest(first.actions) == (
            "8ede394d22f8128650740f133706f9c237ce31bd2faf3eac8e1c92635702a794")
        assert first.total.hex() == "0x1.6390000000000p+12"
        assert _digest(second.actions) == (
            "bb62e7aed6771f003bbb14d5432396e7f897be28ff9af4464c735eb8264dedef")
        assert second.total.hex() == "0x1.502f000000000p+16"

    def test_stream_after_manual_steps(self):
        """A replay stepped by hand through its first five decisions: the
        policy draws for the remaining decisions only."""
        replay = Replay(build_small_system(1, n=300))
        decided = 0
        while decided < 5:
            if replay.schedule.steps[replay.t].fill:
                replay.step(NO_OP)
            else:
                replay.step(min(replay.admissible()))
                decided += 1
        assert replay.t == 9
        replay.run(RandomPolicy(3))
        assert _digest(replay.actions) == (
            "b6ab29294d8f3fd686850acab1f9026b74f3a8c52450459cc22464b3512ff33f")
        assert replay.total.hex() == "0x1.5e00000000000p+12"

    @staticmethod
    def to_decision(replay):
        """Step the no-op up to the replay's next decision; the replay and
        that decision's record, the arguments ``Replay.run`` passes."""
        steps = replay.schedule.steps
        while steps[replay.t].fill:
            replay.step(NO_OP)
        return replay, steps[replay.t]

    def test_second_replay_while_draws_pending(self):
        inst = build_small_system(1, n=100)
        policy = RandomPolicy(0)
        policy(*self.to_decision(Replay(inst)))
        with pytest.raises(ValueError, match="not the next decision"):
            policy(*self.to_decision(Replay(inst)))

    def test_repeated_step(self):
        replay, info = self.to_decision(Replay(build_small_system(1, n=100)))
        policy = RandomPolicy(0)
        policy(replay, info)
        with pytest.raises(ValueError, match="not the next decision"):
            policy(replay, info)

    def test_skipped_step(self):
        replay, info = self.to_decision(Replay(build_small_system(1, n=100)))
        policy = RandomPolicy(0)
        replay.step(policy(replay, info))
        # one decision taken by hand
        self.to_decision(replay)
        replay.step(min(replay.admissible()))
        with pytest.raises(ValueError, match="not the next decision"):
            policy(*self.to_decision(replay))

    def test_repeated_last_decision(self):
        replay = Replay(build_small_system(1, n=100))
        policy = RandomPolicy(0)
        replay.run(policy)
        last = max(t for t, info in enumerate(replay.schedule.steps) if not info.fill)
        with pytest.raises(ValueError, match="every decision of this replay"):
            policy(replay, replay.schedule.steps[last])

    def test_fill_step_is_not_a_decision(self):
        replay = Replay(build_small_system(1, n=100))
        info = replay.schedule.steps[0]
        assert info.fill
        with pytest.raises(ValueError, match="not a decision"):
            RandomPolicy(0)(replay, info)

    def test_genetic1_start_population_pinned(self):
        # genetic-1 seeds its start population through RandomPolicy
        result = evolve(build_small_system(1, n=300), GENETIC1,
                        config=GaConfig(max_generations=3))
        assert result.cost == 5387.0
        assert _digest(result.actions) == (
            "a3189114ae55d1c9cc12acc83c8d4cf35d43d76937621b720ca757f05060ab79")
        assert result.history == [5387.0] * 3
        assert result.generations == 3
        assert result.evaluations == 400
        assert result.infeasible_evaluations == 294


def _digest(actions):
    return hashlib.sha256(json.dumps(actions).encode()).hexdigest()


class TestCheapestPolicy:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            CheapestPolicy(build_small_system(n=10), "psychic")

    def test_to_storage_picks_nearest(self):
        inst = build_small_system(n=100)
        policy = CheapestPolicy(inst, CHEAPEST_TO_STORAGE)

        def checked(replay, info):
            action = policy(replay, info)
            # cost grows with the place id, so the smallest id wins
            assert action == min(replay.admissible())
            return action

        Replay(inst).run(checked)

    def test_decision_cost_without_future_leg(self):
        inst = build_small_system(n=10)
        assert decision_cost(inst, 3, 1, None) == inst.costs.from_stn(1, 3)
        assert decision_cost(inst, 3, 1, 2) == (inst.costs.from_stn(1, 3)
                                                + inst.costs.to_stn(3, 2))

    def test_variants_agree_on_small_system(self):
        inst = build_small_system()
        totals = [Replay(inst).run(CheapestPolicy(inst, v)).total
                  for v in (CHEAPEST_TO_STORAGE, CHEAPEST_ON_AVERAGE,
                            CHEAPEST_DECISION)]
        assert max(totals) - min(totals) < 1e-9


@pytest.fixture(scope="module")
def medium_2000():
    return build_medium_system(1, n=2000)


class TestGreedyActionStreams:
    """Cost-level scans at 504 places, where the place masks span several
    machine words: any change to a level's order or tie-break changes the
    actions."""

    @pytest.mark.parametrize("variant, digest", [
        (CHEAPEST_TO_STORAGE,
         "334d83694e6ca93718052f6f76ee6d84eaef76a71b120b2c16af92659bba7a0e"),
        (CHEAPEST_ON_AVERAGE,
         "08d83651ffef5d3573642ce660eaac9e931ff1416392432e61fe9e9046dfb09d"),
        (CHEAPEST_DECISION,
         "b991fe019284f83ee4bd3ad517a1b7b99b0c52643a05636b2c0c11323ba51856"),
    ])
    def test_cheapest_pinned(self, medium_2000, variant, digest):
        replay = Replay(medium_2000).run(CheapestPolicy(medium_2000, variant))
        assert _digest(replay.actions) == digest

    def test_most_expensive_pinned(self, medium_2000):
        replay = Replay(medium_2000).run(MostExpensivePlacePolicy(medium_2000))
        assert _digest(replay.actions) == (
            "fab2c64d372cf7187cb5cb2f44ef78bbe5796e34e21cdd1f149eb1a5b0503881")

    def test_fixed_pinned(self, medium_2000):
        fa = compute_fixed_assignment(medium_2000)
        replay = Replay(rearranged_instance(medium_2000, fa)).run(FixedPolicy(fa))
        assert _digest(replay.actions) == (
            "2c18bdee49f86e38d87260a8d1a6d270f9ca7d40c1f41b09534c56d57d69dae1")
        assert replay.total.hex() == "0x1.b8da000000000p+15"


class TestStationFrequencies:
    def test_counts_match_departures(self):
        inst = harness.build_tiny_random(2)
        f_to, f_from = station_frequencies(inst)
        for h in range(1, inst.n_pods + 1):
            expected = sum(1 for hh, _ in inst.departures if hh == h)
            assert sum(f_to[h - 1]) == expected
        schedule = departure_schedule(inst)
        returns = sum(1 for info in schedule.steps if not info.fill)
        assert sum(map(sum, f_from)) == returns


class TestFixedAssignment:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_enumeration(self, seed):
        inst = harness.build_tiny_random(seed)
        matrix = fixed_assignment_costs(inst)
        best = min(sum(matrix[h, p] for h, p in enumerate(perm))
                   for perm in itertools.permutations(range(inst.n_places),
                                                      inst.n_pods))
        fa = compute_fixed_assignment(inst)
        assert sorted(fa) == list(range(1, inst.n_pods + 1))
        assert len(set(fa.values())) == inst.n_pods
        got = sum(matrix[h - 1, p - 1] for h, p in fa.items())
        assert got == pytest.approx(best, abs=1e-9)

    def test_single_pod_single_place(self):
        inst = harness.build_tiny_random(0)
        from dataclasses import replace
        small = replace(
            inst, n_pods=1, n_places=1,
            initial_storage=(1,), initial_queues=tuple(() for _ in
                                                       inst.station_capacities),
            departures=((1, 1),) * 0,
            costs=replace(inst.costs,
                          to_station=(inst.costs.to_station[0],),
                          from_station=tuple((row[0],) for row in
                                             inst.costs.from_station)))
        assert compute_fixed_assignment(small) == {1: 1}

    def test_more_pods_than_places_rejected(self):
        inst = harness.build_tiny_random(0)
        from dataclasses import replace
        bad = replace(inst, n_places=inst.n_pods - 1)
        with pytest.raises(ValueError):
            compute_fixed_assignment(bad)

    @pytest.mark.parametrize("seed", range(6))
    def test_sorted_shortcut_on_uniform_station_mix(self, seed):
        inst = harness.build_tiny_symmetric(4 + seed % 3, regime="periodic",
                                            seed=seed, n=8)
        matrix = fixed_assignment_costs(inst)
        opt = compute_fixed_assignment(inst)
        shortcut = sorted_fixed_assignment(inst)
        c_opt = sum(matrix[h - 1, p - 1] for h, p in opt.items())
        c_short = sum(matrix[h - 1, p - 1] for h, p in shortcut.items())
        assert c_short == pytest.approx(c_opt, abs=1e-9)

    def test_objective_beats_random_samples(self):
        import numpy as np
        inst = harness.build_tiny_random(9)
        matrix = fixed_assignment_costs(inst)
        fa = compute_fixed_assignment(inst)
        best = sum(matrix[h - 1, p - 1] for h, p in fa.items())
        rng = np.random.default_rng(0)
        for _ in range(300):
            perm = rng.permutation(inst.n_places)[:inst.n_pods]
            assert best <= sum(matrix[h, p] for h, p in enumerate(perm)) + 1e-9


class TestFixedPolicy:
    def test_rearranged_replay_is_feasible(self):
        inst = build_small_system(n=300)
        fa = compute_fixed_assignment(inst)
        arranged = rearranged_instance(inst, fa)
        replay = Replay(arranged).run(FixedPolicy(fa))
        assert check_feasible(arranged, replay.actions).ok
        decisions = [a for a in replay.actions if a != 0]
        schedule = departure_schedule(arranged)
        returned = [info.returning_pod for info in schedule.steps if not info.fill]
        assert decisions == [fa[h] for h in returned]

    def test_inconsistent_initial_state_detected(self):
        inst = build_small_system(n=300)
        fa = compute_fixed_assignment(inst)
        shifted = {h: (p % inst.n_places) + 1 for h, p in fa.items()}
        with pytest.raises(ValueError):
            Replay(inst).run(FixedPolicy(shifted))
