"""Interval-moving heuristic and its most-expensive-place initialization."""

import gc
import importlib
import weakref
from dataclasses import replace

import numpy as np
import pytest

from podrepo import harness
from podrepo.core import (CostModel, Replay, check_feasible,
                          occupation_intervals, total_cost)
from podrepo.instances import (REGIME_RANDOM_UNIFORM, build_medium_system,
                               build_small_system)
from podrepo.policies import CheapestPolicy, decision_cost
from podrepo.tetris import (SORT_DURATION, SORT_FREQUENCY,
                            MostExpensivePlacePolicy, most_expensive_start,
                            tetris)
from reference import tetris_bisect

# ``podrepo.tetris`` is the function the package re-exports, not the module
tetris_module = importlib.import_module("podrepo.tetris")


class TestMostExpensivePlace:
    def test_argmax_of_decision_cost(self):
        inst = build_small_system(n=200)
        policy = MostExpensivePlacePolicy(inst)

        def checked(replay, info):
            action = policy(replay, info)
            best = max(decision_cost(inst, p, info.station, info.return_next_station)
                       for p in replay.admissible())
            assert decision_cost(inst, action, info.station,
                                 info.return_next_station) == best
            return action

        Replay(inst).run(checked)

    def test_keeps_cheap_places_free(self):
        inst = build_small_system(n=200)
        expensive = Replay(inst).run(MostExpensivePlacePolicy(inst))
        cheap = Replay(inst).run(CheapestPolicy(inst))
        # place 1 is the cheapest; the reverse policy uses it less
        used_exp = sum(1 for a in expensive.actions if a == 1)
        used_cheap = sum(1 for a in cheap.actions if a == 1)
        assert used_exp < used_cheap


class TestTetris:
    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            tetris(harness.build_tiny_random(0), "alphabetical")

    @pytest.mark.parametrize("mode", [SORT_FREQUENCY, SORT_DURATION])
    @pytest.mark.parametrize("seed", range(6))
    def test_sandwich_between_optimum_and_init(self, mode, seed):
        inst = harness.build_tiny_random(seed)
        init = Replay(inst).run(MostExpensivePlacePolicy(inst))
        _, optimum = harness.brute_force_optimum(inst)
        actions, cost = tetris(inst, mode)
        assert optimum - 1e-9 <= cost <= init.total + 1e-9

    @pytest.mark.parametrize("mode", [SORT_FREQUENCY, SORT_DURATION])
    def test_feasible_and_cost_consistent(self, mode):
        inst = build_small_system(n=400)
        actions, cost = tetris(inst, mode)
        assert check_feasible(inst, actions).ok
        assert total_cost(inst, actions) == pytest.approx(cost, abs=1e-9)

    def test_beats_cheapest_on_small_system(self):
        inst = build_small_system()
        _, cost = tetris(inst, SORT_FREQUENCY)
        cheapest = Replay(inst).run(CheapestPolicy(inst)).total
        assert cost < cheapest

    def test_modes_agree_under_full_symmetry(self):
        # periodic departures give every pod the same frequency, and with
        # three pods every decided interval also has the same length, so the
        # two sort orders process the intervals identically
        inst = harness.build_tiny_symmetric(3, regime="periodic", seed=0, n=8)
        a_freq, c_freq = tetris(inst, SORT_FREQUENCY)
        ivs = [iv for iv in occupation_intervals(inst, a_freq)
               if iv.decision_step is not None]
        lengths = {min(iv.end, inst.horizon + 1) - iv.begin for iv in ivs}
        assert len(lengths) == 1
        a_dur, c_dur = tetris(inst, SORT_DURATION)
        assert c_freq == pytest.approx(c_dur, abs=1e-12)
        assert a_freq == a_dur

    def test_truncated_tail_intervals_separate_the_modes(self):
        # with four pods the final cycle's intervals are cut off by the
        # horizon; their shorter effective lengths reorder the duration sort
        # while the frequency sort is unaffected
        inst = harness.build_tiny_symmetric(4, regime="periodic", seed=0, n=8)
        c_freq = tetris(inst, SORT_FREQUENCY)[1]
        c_dur = tetris(inst, SORT_DURATION)[1]
        _, optimum = harness.brute_force_optimum(inst)
        assert c_freq == optimum
        assert c_dur > c_freq

    def test_one_cost_table_per_run(self, monkeypatch):
        # the sweep reuses the table its most-expensive start was built with
        calls = []
        build = tetris_module.decision_cost_table

        def counting(inst):
            calls.append(inst)
            return build(inst)

        monkeypatch.setattr(tetris_module, "decision_cost_table", counting)
        inst = build_small_system(n=200)
        tetris(inst, SORT_FREQUENCY)
        assert calls == [inst]

    def test_interval_plan_disjoint_after_moves(self):
        inst = build_small_system(n=400)
        actions, _ = tetris(inst, SORT_FREQUENCY)
        per_place = {}
        for iv in occupation_intervals(inst, actions):
            per_place.setdefault(iv.place, []).append((iv.begin, iv.end))
        for spans in per_place.values():
            spans.sort()
            for (b1, e1), (b2, e2) in zip(spans, spans[1:]):
                assert e1 <= b2


MODES = [SORT_FREQUENCY, SORT_DURATION]
SHARING = ["most-expensive", "tetris:frequency", "tetris:duration"]


class TestSharedStart:
    """The most-expensive row and both tetris modes play one start replay
    per instance object."""

    def test_one_start_per_comparison(self, monkeypatch):
        policies, replays = [], []
        policy_init = MostExpensivePlacePolicy.__init__
        monkeypatch.setattr(MostExpensivePlacePolicy, "__init__",
                            lambda self, inst: policies.append(inst) or policy_init(self, inst))
        monkeypatch.setattr(tetris_module, "Replay",
                            lambda inst: replays.append(inst) or Replay(inst))
        inst = build_small_system(n=300)
        rows = harness.run_comparison(inst, SHARING)
        assert policies == [inst] and replays == [inst]
        assert rows[0].actions == Replay(inst).run(MostExpensivePlacePolicy(inst)).actions

    @pytest.mark.parametrize("first", SHARING)
    def test_results_do_not_depend_on_the_order(self, first):
        expected = {name: harness.run_policy(build_small_system(n=300), name)[:2]
                    for name in SHARING}
        inst = build_small_system(n=300)
        order = [first] + [name for name in SHARING if name != first]
        assert {name: harness.run_policy(inst, name)[:2] for name in order} == expected

    @pytest.mark.parametrize("mode", MODES)
    def test_returned_actions_are_copies(self, mode):
        expected = tetris(build_small_system(n=300), mode)
        inst = build_small_system(n=300)
        actions = harness.run_policy(inst, "most-expensive")[0]
        actions[:] = [0] * len(actions)
        assert tetris(inst, mode) == expected
        row = harness.run_comparison(inst, ["most-expensive"])[0]
        row.actions.reverse()
        assert tetris(inst, mode) == expected

    def test_replaced_copy_gets_its_own_start(self):
        inst = build_small_system(n=300)
        start = most_expensive_start(inst)
        assert most_expensive_start(inst) is start
        copy = replace(inst)
        assert tetris(copy, SORT_FREQUENCY) == tetris(inst, SORT_FREQUENCY)
        copy_policy, copy_replay = most_expensive_start(copy)
        assert copy_policy is not start[0] and copy_replay is not start[1]

    def test_compared_instance_is_freed_without_the_collector(self):
        inst = build_small_system(n=300)
        harness.run_comparison(inst, SHARING)
        assert not hasattr(most_expensive_start(inst)[1], "inst")
        ref = weakref.ref(inst)
        gc.disable()
        try:
            del inst
            assert ref() is None
        finally:
            gc.enable()


class TestBitmapSweepMatchesBisect:
    """The occupancy-bitmap sweep against the per-place bisection sweep of
    ``tests/reference.py``: same candidate order and strictly-cheaper rule,
    so the same actions and the same float total."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(50))
    def test_tiny_random(self, mode, seed):
        inst = harness.build_tiny_random(seed)
        assert tetris(inst, mode) == tetris_bisect(inst, mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_small_system(self, mode, seed):
        inst = build_small_system(seed)
        assert tetris(inst, mode) == tetris_bisect(inst, mode)

    @pytest.mark.parametrize("n_pods", [63, 64, 65])
    def test_word_boundaries(self, n_pods):
        # places 63 and 64 are the last bit of the first word and the first
        # bit of the second; random place costs (the line system's rise with
        # the place id) send intervals onto them and off them
        base = harness.build_tiny_symmetric(n_pods, regime=REGIME_RANDOM_UNIFORM, n=300)
        boundary_moves = 0
        for cost_seed in range(4):
            rng = np.random.default_rng(cost_seed)
            rows = [tuple(float(c) for c in rng.integers(1, 20, size=n_pods))
                    for _ in range(base.n_stations)]
            inst = replace(base, costs=CostModel(to_station=tuple(zip(*rows)),
                                                 from_station=tuple(rows)))
            start = Replay(inst).run(MostExpensivePlacePolicy(inst)).actions
            for mode in MODES:
                actions, total = tetris(inst, mode)
                assert (actions, total) == tetris_bisect(inst, mode)
                boundary_moves += sum(max(a, b) >= 63
                                      for a, b in zip(start, actions) if a != b)
        assert boundary_moves

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("build", [lambda n: harness.seasonal_medium_instance(0, n=n),
                                       lambda n: harness.plain_medium_instance(0, n=n),
                                       lambda n: build_medium_system(1, n=n)],
                             ids=["seasonal", "plain", "medium"])
    def test_medium_instances(self, mode, build):
        inst = build(2000)
        assert tetris(inst, mode) == tetris_bisect(inst, mode)


@pytest.mark.parametrize("build", [lambda: build_small_system(1),
                                   lambda: build_medium_system(1, n=2000),
                                   lambda: harness.seasonal_medium_instance(0, n=2000),
                                   lambda: harness.plain_medium_instance(0, n=2000)],
                         ids=["small", "medium", "seasonal", "plain"])
def test_movable_interval_begins_are_unique(build):
    # the sweep's lexsort orders by (primary key, begin) and leaves out the
    # pod tie-break of the tuple sort: unique begins make it never decide
    inst = build()
    start = Replay(inst).run(MostExpensivePlacePolicy(inst)).actions
    begins = [iv.begin for iv in occupation_intervals(inst, start)
              if iv.decision_step is not None]
    assert len(begins) == len(set(begins)) > 0
