"""Experiment orchestration, the exhaustive oracle, and the studies."""

import json
from dataclasses import replace

import pytest

from podrepo import exact, harness
from podrepo.core import (TERMINAL_RETURN_ALL, BudgetExceededError, Replay,
                          check_feasible, departure_schedule, total_cost)
from podrepo.exact import solve_exact, solve_iterative
from podrepo.genetic import GENETIC1, GENETIC2, GaConfig, evolve
from podrepo.instances import REGIME_PERIODIC, build_small_system
from podrepo.policies import compute_fixed_assignment, rearranged_instance
from podrepo.tetris import tetris
from reference import (admissible_actions, fractional_medium, initial_state,
                       reference_cost, transition)


class TestBruteForce:
    def test_leaf_estimate_is_exact(self):
        inst = harness.build_tiny_random(0)

        def count(state):
            if not state.future_departures:
                return 1
            return sum(count(transition(inst, state, a))
                       for a in admissible_actions(inst, state))

        assert count(initial_state(inst)) == harness.estimate_brute_leaves(inst)

    def test_refuses_oversized_search(self):
        inst = build_small_system()
        with pytest.raises(harness.BudgetExceededError):
            harness.brute_force_optimum(inst)

    def test_optimum_is_feasible_and_minimal(self):
        inst = harness.build_tiny_random(6)
        actions, cost = harness.brute_force_optimum(inst)
        assert check_feasible(inst, actions).ok
        assert total_cost(inst, actions) == pytest.approx(cost, abs=1e-12)

    def test_empty_horizon(self):
        from dataclasses import replace
        inst = replace(harness.build_tiny_random(0), departures=())
        actions, cost = harness.brute_force_optimum(inst)
        assert actions == [] and cost == 0.0


class TestRunPolicy:
    def test_unknown_policy(self):
        inst = build_small_system(n=50)
        # only cheapest, tetris, genetic2 and iterative take a :param, each
        # from its own list; iterative's is a positive integer
        for name in ("telepathy", "cheapestx", "tetris-frequency", "genetic2abc",
                     "iterativeX", "random:1", "exact:5", "cheapest:",
                     "cheapest:bogus", "tetris:bogus", "genetic2:bogus",
                     "iterative:abc", "iterative:0", "iterative:" + "1" * 5000):
            with pytest.raises(ValueError, match="unknown policy"):
                harness.run_policy(inst, name)

    @pytest.mark.parametrize("name", ["random", "cheapest:decision",
                                      "cheapest:to-storage", "most-expensive",
                                      "tetris:frequency", "tetris:duration",
                                      "fixed", "iterative:5"])
    def test_reported_cost_replays(self, name):
        inst = build_small_system(n=200)
        actions, cost, wall = harness.run_policy(inst, name, seed=0)
        assert len(actions) == inst.horizon
        assert wall >= 0.0

    @pytest.mark.parametrize("name", harness.POLICY_PARAMETERS)
    def test_empty_horizon(self, name):
        actions, cost, _ = harness.run_policy(build_small_system(1, n=0), name)
        assert (actions, cost) == ([], 0.0)

    def test_exact_on_tiny(self):
        inst = harness.build_tiny_random(1)
        _, brute_cost = harness.brute_force_optimum(inst)
        _, cost, _ = harness.run_policy(inst, "exact")
        assert cost == brute_cost

    def test_exact_without_proof_is_refused(self, monkeypatch):
        monkeypatch.setattr(exact, "EXACT_NODE_BUDGET", 1000)
        with pytest.raises(BudgetExceededError,
                           match=r"node budget 1000 .*best cost .*lower bound .*gap"):
            harness.run_policy(build_small_system(1, n=100), "exact")

    def test_iterative_shares_the_exact_budget(self, monkeypatch):
        """Windows of 20 on 1000 small steps need tens of millions of nodes:
        the shared budget refuses them like ``exact``."""
        monkeypatch.setattr(exact, "EXACT_NODE_BUDGET", 20000)
        with pytest.raises(BudgetExceededError, match="node budget exhausted"):
            harness.run_policy(build_small_system(1, n=1000), "iterative:20")

    def test_budget_cut_iterative_is_refused(self, monkeypatch):
        """A plan whose last window was cut is no solver row either."""
        monkeypatch.setattr(exact, "EXACT_NODE_BUDGET", 3)
        assert not solve_iterative(harness.build_tiny_random(4), 3).optimal
        with pytest.raises(BudgetExceededError,
                           match=r"^iterative:3: node budget 3 .*best cost .*gap"):
            harness.run_policy(harness.build_tiny_random(4), "iterative:3")

    def test_rearranged_instance_keeps_the_schedule(self):
        """``fixed`` replays and re-verifies the rearranged instance on the
        schedule of the original one."""
        from podrepo.policies import compute_fixed_assignment, rearranged_instance
        moved_any = False
        for inst in [build_small_system(n=200)] + [harness.build_tiny_random(s)
                                                   for s in range(10)]:
            moved = rearranged_instance(inst, compute_fixed_assignment(inst))
            moved_any |= moved.initial_storage != inst.initial_storage
            assert departure_schedule(moved) == departure_schedule(inst)
        assert moved_any


@pytest.fixture(scope="module")
def return_all_pods():
    inst = build_small_system(n=200)
    return replace(inst, costs=replace(inst.costs, terminal=TERMINAL_RETURN_ALL))


class TestReturnAllPods:
    """The online policies add the terminal cost; the solvers refuse the
    cost model, because they optimise under zero terminal cost."""

    @pytest.mark.parametrize("name", ["random", "cheapest:decision",
                                      "most-expensive", "fixed"])
    def test_online_cost_includes_terminal(self, return_all_pods, name):
        inst = return_all_pods
        actions, cost, _ = harness.run_policy(inst, name, seed=1)
        if name == "fixed":
            inst = rearranged_instance(inst, compute_fixed_assignment(inst))
        assert cost == total_cost(inst, actions)
        replay = Replay(inst)
        for a in actions:
            replay.step(a)
        assert cost > replay.total

    @pytest.mark.parametrize("name", ["tetris:frequency", "genetic1", "genetic2",
                                      "exact", "iterative:5", "brute-force"])
    def test_solvers_refuse(self, return_all_pods, name):
        with pytest.raises(ValueError, match="return-all-pods"):
            harness.run_policy(return_all_pods, name)

    def test_exact_solvers_refuse(self, return_all_pods):
        with pytest.raises(ValueError, match="return-all-pods"):
            solve_exact(return_all_pods, node_budget=1)
        with pytest.raises(ValueError, match="return-all-pods"):
            solve_iterative(return_all_pods, 5, node_budget=1)

    @pytest.mark.parametrize("name", ["tetris", "genetic1", "genetic2",
                                      "brute-force"])
    def test_entry_points_refuse_when_called_directly(self, return_all_pods, name):
        call = {
            "tetris": tetris,
            "genetic1": lambda inst: evolve(inst, GENETIC1,
                                            config=GaConfig(max_generations=1)),
            "genetic2": lambda inst: evolve(inst, GENETIC2,
                                            config=GaConfig(max_generations=1)),
            "brute-force": harness.brute_force_optimum,
        }[name]
        with pytest.raises(ValueError, match="return-all-pods"):
            call(return_all_pods)

    def test_oracle_refuses_before_enumerating(self):
        # small enough to enumerate, so only the cost model can refuse it
        inst = harness.build_tiny_random(0)
        inst = replace(inst, costs=replace(inst.costs, terminal=TERMINAL_RETURN_ALL))
        with pytest.raises(ValueError, match="return-all-pods"):
            harness.brute_force_optimum(inst)


# every policy run_policy accepts: each base name, each cheapest variant,
# tetris mode and genetic-2 place order, and a few iterative windows
ONLINE_NAMES = ("random", "cheapest", "cheapest:to-storage", "cheapest:avg",
                "cheapest:decision", "most-expensive", "fixed")
SOLVER_NAMES = ("tetris", "tetris:frequency", "tetris:duration", "exact",
                "iterative", "iterative:1", "iterative:3", "brute-force")
# about 0.4 s per tiny run with the default GaConfig, so only a few seeds
GENETIC_RUNS = (("genetic1", (0, 1)), ("genetic2", (0, 1)),
                ("genetic2:close", (2,)), ("genetic2:far", (3,)),
                ("genetic2:zigzag", (4,)), ("genetic2:avg-cost", (5,)))


class TestReferenceDifferential:
    """The actions every policy reports, stepped through the reference
    ``transition``/``step_cost``, give the reported cost."""

    @staticmethod
    def check(inst, name, seed):
        actions, cost, _ = harness.run_policy(inst, name, seed=seed)
        if name == "fixed":
            inst = rearranged_instance(inst, compute_fixed_assignment(inst))
        assert abs(reference_cost(inst, actions) - cost) <= 1e-9

    def test_every_policy_is_covered(self):
        names = ONLINE_NAMES + SOLVER_NAMES + tuple(n for n, _ in GENETIC_RUNS)
        assert {n.partition(":")[0] for n in names} == set(harness.POLICY_PARAMETERS)
        for base, params in harness.POLICY_PARAMETERS.items():
            if isinstance(params, tuple):
                assert {f"{base}:{p}" for p in params} <= set(names)

    @pytest.mark.parametrize("name", ONLINE_NAMES + SOLVER_NAMES)
    def test_zero_terminal(self, name):
        for seed in range(10):
            self.check(harness.build_tiny_random(seed), name, seed)

    @pytest.mark.parametrize("name", ONLINE_NAMES)
    def test_return_all_pods(self, name):
        for seed in range(10):
            inst = harness.build_tiny_random(seed)
            costs = replace(inst.costs, terminal=TERMINAL_RETURN_ALL)
            self.check(replace(inst, costs=costs), name, seed)

    @pytest.mark.parametrize("name, seeds", GENETIC_RUNS)
    def test_genetic(self, name, seeds):
        for seed in seeds:
            self.check(harness.build_tiny_random(seed), name, seed)


class TestRunComparison:
    def test_each_policy_runs_once(self, monkeypatch):
        calls = []
        run_policy = harness.run_policy

        def counting(inst, name, *args, **kwargs):
            calls.append(name)
            return run_policy(inst, name, *args, **kwargs)

        monkeypatch.setattr(harness, "run_policy", counting)
        inst = build_small_system(n=150)
        rows = harness.run_comparison(inst, ["cheapest:decision", "random"], seed=3)
        assert sorted(calls) == ["cheapest:decision", "random"]
        assert [row.policy for row in rows] == ["cheapest:decision", "random"]
        assert rows[1].relative_cost == 1.0
        _, random_cost, _ = run_policy(inst, "random", seed=3)
        assert rows[0].relative_cost == rows[0].cost / random_cost

    def test_names_are_checked_before_any_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_policy",
                            lambda inst, name, *args: calls.append(name))
        inst = build_small_system(n=150)
        with pytest.raises(ValueError, match="unknown policy: tetrsi"):
            harness.run_comparison(inst, ["tetris:frequency", "tetrsi"])
        assert calls == []

    def test_relative_cost_of_random_is_one(self):
        inst = build_small_system(n=150)
        rows = harness.run_comparison(inst, ["random", "cheapest:decision"])
        assert rows[0].policy == "random"
        assert rows[0].relative_cost == pytest.approx(1.0)
        assert rows[1].relative_cost < 1.0

    def test_csv_outputs_are_deterministic(self, tmp_path):
        inst = build_small_system(n=150)
        names = ["random", "cheapest:decision", "tetris:frequency"]
        harness.run_comparison(inst, names, seed=5, out_dir=tmp_path / "a")
        harness.run_comparison(inst, names, seed=5, out_dir=tmp_path / "b")
        csv_a = (tmp_path / "a" / "results.csv").read_bytes()
        csv_b = (tmp_path / "b" / "results.csv").read_bytes()
        assert csv_a == csv_b
        assert (tmp_path / "a" / "timings.json").exists()

    def test_shared_start_is_timed_on_its_own(self, tmp_path, monkeypatch):
        """The most-expensive start is played before the first row that
        shares it, so that row's wall time does not hold it."""
        played = []
        run_policy = harness.run_policy

        def spy(inst, name, seed=0):
            start = getattr(inst, "_start", None)
            played.append((name, start is not None and start[1].done))
            return run_policy(inst, name, seed)

        monkeypatch.setattr(harness, "run_policy", spy)
        inst = build_small_system(n=150)
        names = ["random", "cheapest:decision", "tetris:duration", "most-expensive"]
        harness.run_comparison(inst, names, out_dir=tmp_path)
        assert played == [("random", False), ("cheapest:decision", False),
                          ("tetris:duration", True), ("most-expensive", True)]
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert list(timings) == [*names, "most-expensive start"]

    def test_instance_not_mutated(self):
        inst = build_small_system(n=150)
        frozen = inst
        harness.run_comparison(inst, ["random", "tetris:duration"])
        assert inst == frozen


class TestTinyBuilders:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_builder_bounds(self, seed):
        inst = harness.build_tiny_random(seed)
        assert 4 <= inst.n_places <= 6
        assert 3 <= inst.n_pods <= inst.n_places
        assert 5 <= inst.horizon <= 8
        assert harness.estimate_brute_leaves(inst) <= 5_000_000

    def test_symmetric_builder(self):
        inst = harness.build_tiny_symmetric(5, regime=REGIME_PERIODIC, seed=0)
        assert inst.n_pods == inst.n_places == 5
        assert inst.departures[:4] == ((1, 1), (2, 2), (3, 1), (4, 2))
        for p in range(1, 6):
            assert inst.costs.to_stn(p, 1) == inst.costs.from_stn(2, p)


class TestVerifyCost:
    """Re-verification compares up to rounding: the solvers sum the same legs
    in another order than the replay."""

    @pytest.fixture(scope="class")
    def fractional(self):
        return fractional_medium()

    @pytest.mark.parametrize("name", ["tetris:frequency", "tetris:duration",
                                      "iterative:1", "iterative:2"])
    def test_other_summation_order_passes(self, fractional, monkeypatch, name):
        verify = harness.verify_cost
        own = []  # the run's own sum, as it reaches the check

        def recording(inst, name, actions, cost):
            own.append(cost)
            return verify(inst, name, actions, cost)

        monkeypatch.setattr(harness, "verify_cost", recording)
        actions, cost = harness.run_policy(fractional, name)[:2]
        check = total_cost(fractional, actions)
        # the orders do differ in the last bits on this instance
        assert own[0] != check
        assert own[0] == pytest.approx(check, rel=1e-12)
        assert cost == check

    @pytest.mark.parametrize("name", ["iterative:1", "cheapest:decision",
                                      "tetris:frequency", "tetris:duration",
                                      "iterative:2"])
    def test_reported_cost_is_the_replayed_total(self, fractional, name):
        actions, cost = harness.run_policy(fractional, name)[:2]
        assert cost == total_cost(fractional, actions)

    def test_one_plan_has_one_cost(self, fractional):
        window = harness.run_policy(fractional, "iterative:1")
        greedy = harness.run_policy(fractional, "cheapest:decision")
        assert window[0] == greedy[0]
        assert window[1] == greedy[1]

    @pytest.mark.parametrize("tamper", [0.1, -0.1])
    def test_one_tenth_leg_still_raises(self, fractional, monkeypatch, tamper):
        run = harness.tetris.tetris

        def tampered(inst, mode):
            actions, cost = run(inst, mode)
            return actions, cost + tamper

        monkeypatch.setattr(harness.tetris, "tetris", tampered)
        with pytest.raises(harness.CostMismatchError, match="replayed cost"):
            harness.run_policy(fractional, "tetris:frequency")


class TestStudies:
    def test_uniformity_periodic_ratio_is_one(self):
        report = harness.uniformity_study(range(2))
        assert report.mean(REGIME_PERIODIC) == pytest.approx(1.0, abs=1e-12)
        for regime, ratios in report.ratios.items():
            assert all(r >= 1.0 - 1e-12 for r in ratios)

    def test_uniformity_geometric_exceeds_periodic(self):
        report = harness.uniformity_study(range(3))
        assert report.mean("random-geometric") > 1.0

    def test_uniformity_study_reverifies_optimum(self, monkeypatch):
        optimum = harness.brute_force_optimum

        def tampered(inst):
            actions, cost = optimum(inst)
            return actions, cost - 1.0

        monkeypatch.setattr(harness, "brute_force_optimum", tampered)
        with pytest.raises(harness.CostMismatchError, match="brute-force: reported cost"):
            harness.uniformity_study(range(1))

    def test_seasonal_instances_reproducible(self):
        a = harness.seasonal_medium_instance(3, n=400)
        b = harness.seasonal_medium_instance(3, n=400)
        assert a == b
        c = harness.plain_medium_instance(3, n=400)
        assert c.departures != a.departures

    @pytest.mark.parametrize("epoch", [0, -5])
    def test_seasonal_epoch_below_one_refused(self, epoch):
        with pytest.raises(ValueError, match="epoch"):
            harness.seasonal_study(range(1), n=300, epoch=epoch)

    def test_seasonal_study_reverifies_tetris_costs(self, monkeypatch):
        run = harness.tetris.tetris

        def tampered(inst, mode):
            actions, cost = run(inst, mode)
            return actions, cost - 1.0

        monkeypatch.setattr(harness.tetris, "tetris", tampered)
        with pytest.raises(RuntimeError, match="replayed cost"):
            harness.seasonal_study(range(1), n=300, epoch=100)

    def test_seasonal_study_shapes(self):
        report = harness.seasonal_study(range(2), n=600, epoch=200)
        for name in ("seasonal_frequency", "seasonal_duration",
                     "plain_frequency", "plain_duration"):
            values = getattr(report, name)
            assert len(values) == 2
            assert all(v > 0 for v in values)
