"""Branch-and-bound solver, windowed variant, model export."""

import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from podrepo import exact, harness
from podrepo.core import (TERMINAL_RETURN_ALL, BudgetExceededError, CostModel,
                          Instance, Replay, check_feasible, departure_schedule,
                          occupation_intervals, total_cost, validate_instance)
from podrepo.exact import (BipParameters, decision_weights, derive_bip_parameters,
                           export_bip, solve_exact, solve_iterative)
from podrepo.instances import build_medium_system, build_small_system
from podrepo.policies import CHEAPEST_DECISION, CheapestPolicy, RandomPolicy
from reference import check_interval_model
from test_imports import run_fresh


class TestCostDecomposition:
    """base_cost plus per-decision weights must equal the stepwise game cost."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_replay_total(self, seed):
        inst = harness.build_tiny_random(seed)
        schedule = departure_schedule(inst)
        params = derive_bip_parameters(inst)
        weights = decision_weights(inst, params)
        replay = Replay(inst).run(RandomPolicy(seed))
        decomposed = params.base_cost + sum(
            weights[t][a - 1] for t, a in enumerate(replay.actions)
            if not schedule.steps[t].fill)
        assert decomposed == pytest.approx(replay.total, abs=1e-9)

    def test_matches_on_small_system(self):
        inst = build_small_system(n=400)
        schedule = departure_schedule(inst)
        params = derive_bip_parameters(inst)
        weights = decision_weights(inst, params)
        replay = Replay(inst).run(CheapestPolicy(inst))
        decomposed = params.base_cost + sum(
            weights[t][a - 1] for t, a in enumerate(replay.actions)
            if not schedule.steps[t].fill)
        assert decomposed == pytest.approx(replay.total, abs=1e-9)

    def test_busy_intervals_describe_next_departures(self):
        inst = harness.build_tiny_random(1)
        steps = departure_schedule(inst).steps
        for t in derive_bip_parameters(inst).decision_steps:
            assert t + 1 < steps[t].busy_end <= inst.horizon + 1


class TestIntervalModel:
    """``derive_bip_parameters`` restates the schedule: decision steps, busy
    ends, cost-row keys, first free steps and the base cost."""

    @pytest.mark.parametrize("seed", range(60))
    def test_tiny_random(self, seed):
        check_interval_model(harness.build_tiny_random(seed))

    @pytest.mark.parametrize("build", [lambda: build_small_system(1, 1000),
                                       lambda: build_medium_system(1, 2000)],
                             ids=["small", "medium"])
    def test_line_and_grid_systems(self, build):
        check_interval_model(build())

    def test_empty_place_and_pod_that_never_departs(self):
        # place 1's pod departs at step 0, place 2 starts empty and place 3's
        # pod never departs; the queue head (pod 3) returns at step 0 and
        # leaves again at step 1, when pod 1 returns for good
        inst = Instance(n_pods=3, n_places=3, station_capacities=(1,),
                        costs=CostModel(to_station=((2.0,), (3.0,), (5.0,)),
                                        from_station=((1.0, 4.0, 6.0),)),
                        initial_storage=(1, None, 2), initial_queues=((3,),),
                        departures=((1, 1), (3, 1)))
        validate_instance(inst)
        check_interval_model(inst)
        params = derive_bip_parameters(inst)
        assert params == BipParameters(decision_steps=(0, 1), busy_ends=(2, 3),
                                       keys=((1, 1), (1, None)),
                                       initial_busy_end=(1, 0, 3), base_cost=2.0)
        initial = [iv for iv in occupation_intervals(inst, [2, 1])
                   if iv.decision_step is None]
        assert [(iv.place, iv.end, iv.to_station) for iv in initial] == [(1, 1, 1),
                                                                          (3, 3, None)]


class TestSolveExact:
    @pytest.mark.parametrize("seed", range(50))
    def test_agrees_with_brute_force(self, seed):
        inst = harness.build_tiny_random(seed)
        brute_actions, brute_cost = harness.brute_force_optimum(inst)
        result = solve_exact(inst)
        assert result.optimal
        assert result.cost == brute_cost
        assert result.actions == brute_actions
        assert result.lower_bound <= result.cost + 1e-9

    def test_cost_recomputes_under_replay(self):
        inst = harness.build_tiny_random(3)
        result = solve_exact(inst)
        assert check_feasible(inst, result.actions).ok
        assert total_cost(inst, result.actions) == pytest.approx(result.cost,
                                                                 abs=1e-9)

    def test_budget_exhaustion_flagged(self):
        inst = build_small_system(n=300)
        result = solve_exact(inst, node_budget=500)
        assert not result.optimal
        assert check_feasible(inst, result.actions).ok

    def test_recursion_limit_restored(self):
        """The search keeps its own stack: a 1000-step solve runs in a fresh
        interpreter under a recursion limit of 100, never sets the limit and
        leaves it as it was."""
        code = ("import sys\n"
                "from podrepo.exact import solve_exact\n"
                "from podrepo.instances import build_small_system\n"
                "inst = build_small_system(1, n=1000)\n"
                "calls = []\n"
                "set_limit = sys.setrecursionlimit\n"
                "sys.setrecursionlimit = lambda n: (calls.append(n), set_limit(n))\n"
                "sys.setrecursionlimit(100)\n"
                "result = solve_exact(inst, node_budget=20000)\n"
                "print(result.nodes, calls, sys.getrecursionlimit())\n")
        assert run_fresh(code) == ["20000", "[100]", "100"]


class TestSolveIterative:
    @pytest.mark.parametrize("seed", range(50))
    def test_single_window_equals_exact(self, seed):
        inst = harness.build_tiny_random(seed)
        exact = solve_exact(inst)
        windowed = solve_iterative(inst, inst.horizon)
        assert windowed.actions == exact.actions
        assert windowed.cost == pytest.approx(exact.cost, abs=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_unit_window_equals_greedy(self, seed):
        inst = harness.build_tiny_random(seed)
        greedy = Replay(inst).run(CheapestPolicy(inst, CHEAPEST_DECISION))
        windowed = solve_iterative(inst, 1)
        assert windowed.actions == greedy.actions
        assert windowed.cost == pytest.approx(greedy.total, abs=1e-9)

    def test_window_size_validation(self):
        with pytest.raises(ValueError):
            solve_iterative(harness.build_tiny_random(0), 0)

    def test_intermediate_window_feasible(self):
        inst = build_small_system(n=300)
        result = solve_iterative(inst, 7)
        assert check_feasible(inst, result.actions).ok
        assert total_cost(inst, result.actions) == pytest.approx(result.cost,
                                                                 abs=1e-9)


def _digest(actions):
    return hashlib.sha256(json.dumps(actions).encode()).hexdigest()


def _record_searches(monkeypatch):
    """Wrap ``exact._search``; the list it returns collects each call's
    ``(budget, nodes, budget ran out)``."""
    calls = []
    search = exact._search

    def recorded(window, busy_until, node_budget):
        out = search(window, busy_until, node_budget)
        calls.append((node_budget, out[2], out[3]))
        return out
    monkeypatch.setattr(exact, "_search", recorded)
    return calls


class TestNodeBudget:
    """One budget bounds every solve: all windows together, by default
    ``EXACT_NODE_BUDGET``."""

    @pytest.mark.parametrize("window", [1, 5, 20])
    def test_windows_never_pass_the_default_budget(self, window, monkeypatch):
        monkeypatch.setattr(exact, "EXACT_NODE_BUDGET", 20000)
        calls = _record_searches(monkeypatch)
        try:
            result = solve_iterative(build_small_system(1, n=1000), window)
        except BudgetExceededError:
            result = None
        assert (result is None) == (window == 20)  # cut at steps 20-39
        spent = sum(nodes for _, nodes, _ in calls)
        assert spent <= 20000
        assert result is None or result.nodes == spent
        assert calls[0][0] == 20000

    def test_budget_cut_search_restores_busy_until(self):
        """A search cut three levels down leaves the state list as it found
        it; a stale trial placement would wrongly block the next window."""
        order = [(1.0, 1), (2.0, 2), (3.0, 3)]
        decisions = [(t, t + 3, order) for t in range(6)]
        busy_until = [0, 0, 0, 5]
        best_cost, best_path, nodes, exhausted = exact._search(decisions, busy_until, 3)
        assert (best_path, nodes, exhausted) == (None, 3, True)
        assert busy_until == [0, 0, 0, 5]


class TestPinnedResults:
    """Every ``SolveResult`` field on the small system, pinned, and where a
    shared budget runs out."""

    def test_exact_at_node_budget(self):
        result = solve_exact(build_small_system(1, n=1000), node_budget=200000)
        assert (result.cost, result.nodes, result.optimal, result.lower_bound) == (
            14642.0, 200000, False, 10025.0)
        assert _digest(result.actions) == (
            "a636fed7c0fd9414bb3d35fffb8dcb87ff4daf6216af82c8c839fcb3d0caf73e")

    def test_iterative_windows_of_ten(self):
        result = solve_iterative(build_small_system(1, n=1000), 10)
        assert (result.cost, result.nodes, result.optimal, result.lower_bound) == (
            13942.0, 99471, True, 10025.0)
        assert _digest(result.actions) == (
            "bac3a1f31302df2bd12b531e979ca689c8042caa396024bd17abc3a5db639428")

    def test_iterative_budget_shared_by_the_windows(self, monkeypatch):
        """Windows of 7 share 50 nodes: the first spends 10, the second is
        cut at the 40 left, and the third has none left and no plan."""
        calls = _record_searches(monkeypatch)
        with pytest.raises(BudgetExceededError,
                           match=r"^node budget exhausted: 50 nodes .* steps 14-20$"):
            solve_iterative(build_small_system(1, n=300), 7, node_budget=50)
        assert calls == [(50, 10, False), (40, 40, True), (0, 0, True)]


class TestLowerBound:
    """Both solvers report the place-disjointness relaxation: the base cost
    plus every decision's cheapest weight among the places that no initial
    pod holds when its interval begins."""

    @pytest.mark.parametrize("seed", range(8))
    def test_iterative_bound_equals_exact_bound(self, seed):
        inst = harness.build_tiny_random(seed)
        params = derive_bip_parameters(inst)
        weights = decision_weights(inst, params)
        relaxed = params.base_cost + sum(
            min(w for w, first_free in zip(weights[t], params.initial_busy_end)
                if first_free <= t + 1)
            for t in params.decision_steps)
        unmasked = params.base_cost + sum(min(weights[t]) for t in params.decision_steps)
        bound = solve_exact(inst).lower_bound
        assert bound == pytest.approx(relaxed, abs=1e-9)
        assert bound >= unmasked
        for window in (1, 3):
            result = solve_iterative(inst, window)
            assert result.lower_bound == bound
            assert result.lower_bound <= result.cost + 1e-9

    def test_initial_pods_raise_the_bound(self):
        """Seed 7's cheapest places are held by initial pods at first: the
        mask lifts its bound from 47 to 56, the optimum."""
        result = solve_exact(harness.build_tiny_random(7))
        assert (result.lower_bound, result.cost) == (56.0, 56.0)


def _terms(expr):
    """``{variable: coefficient}`` of an LP expression ``[c] x + [c] x ...``."""
    terms = {}
    for term in expr.split(" + "):
        coef, _, var = term.rpartition(" ")
        terms[var] = float(coef) if coef else 1.0
    return terms


def _read_lp(path):
    """Objective, rows, binaries and constant cost of an LP file as
    :func:`export_bip` writes it."""
    lines = path.read_text().splitlines()
    comment = "\\ constant cost not in objective: "
    assert lines[1].startswith(comment)
    base = float(lines[1][len(comment):])
    objective, rows, binary, section = {}, [], [], None
    for line in lines[2:]:
        if line in ("Minimize", "Subject To", "Binary", "End"):
            section = line
        elif section == "Minimize":
            objective = _terms(line.partition(": ")[2])
        elif section == "Subject To":
            expr, sense, rhs = line.partition(": ")[2].rsplit(" ", 2)
            rows.append((_terms(expr), sense, float(rhs)))
        elif section == "Binary":
            binary.append(line.strip())
    assert section == "End"
    return objective, rows, binary, base


def _solve_lp_file(path):
    """Integer optimum of the written model, constant cost included."""
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import coo_array

    objective, rows, binary, base = _read_lp(path)
    column = {var: j for j, var in enumerate(binary)}
    assert set(objective) <= set(column)
    c = np.array([objective.get(var, 0.0) for var in binary])
    i, j, a, lb, ub = [], [], [], [], []
    for r, (terms, sense, rhs) in enumerate(rows):
        assert sense in ("=", "<=")
        for var, coef in terms.items():
            i.append(r)
            j.append(column[var])
            a.append(coef)
        lb.append(rhs if sense == "=" else -np.inf)
        ub.append(rhs)
    matrix = coo_array((a, (i, j)), shape=(len(rows), len(binary)))
    res = milp(c, constraints=LinearConstraint(matrix, lb, ub),
               integrality=np.ones(len(c)), bounds=(0, 1))
    assert res.success
    return base + res.fun


class TestModelExport:
    @pytest.mark.parametrize("seed", range(12))
    def test_external_solver_agreement(self, seed, tmp_path):
        inst = harness.build_tiny_random(seed)
        path = tmp_path / "model.lp"
        export_bip(inst, path)
        assert _solve_lp_file(path) == pytest.approx(solve_exact(inst).cost,
                                                     abs=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_fractional_costs_written_exactly(self, seed, tmp_path):
        """Weights are written to full precision, not rounded to six digits."""
        inst = harness.build_tiny_random(seed)
        costs = inst.costs
        inst = replace(inst, costs=replace(
            costs, to_station=tuple(tuple(c / 7 for c in row) for row in costs.to_station),
            from_station=tuple(tuple(c / 7 for c in row) for row in costs.from_station)))
        path = tmp_path / "model.lp"
        export_bip(inst, path)
        assert _solve_lp_file(path) == pytest.approx(solve_exact(inst).cost,
                                                     abs=1e-9)

    def test_lp_file_structure(self, tmp_path):
        inst = harness.build_tiny_random(0)
        path = tmp_path / "model.lp"
        export_bip(inst, path)
        text = path.read_text()
        for section in ("Minimize", "Subject To", "Binary", "End"):
            assert section in text
        params = derive_bip_parameters(inst)
        for t in params.decision_steps:
            assert f"assign_{t}:" in text
        n_vars = len(params.decision_steps) * inst.n_places
        assert sum(line.startswith(" x_") for line in text.splitlines()) == n_vars
        rows = text.partition("Subject To\n")[2].partition("Binary\n")[0]
        assert all(row.startswith((" assign_", " place_")) for row in rows.splitlines())

    def test_small_system_export_pinned(self, tmp_path):
        path = tmp_path / "model.lp"
        export_bip(build_small_system(1, n=1000), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "05126ec05a1265d35f593994d77dfe4f8f144f20eb197ce5c42c52e566dd35f0")

    def test_rows_are_written_as_they_are_built(self, tmp_path):
        """The export holds about one row at a time, never the whole text."""
        inst = build_small_system(1, n=1000)
        path = tmp_path / "model.lp"
        export_bip(inst, path)
        tracemalloc.start()
        try:
            export_bip(inst, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size

    def test_objective_is_written_one_decision_at_a_time(self, tmp_path):
        """The objective, the longest row, is not built whole: joining its
        ten thousand terms at once peaks at about 0.9 MB here."""
        inst = build_small_system(1, n=1000)
        path = tmp_path / "model.lp"
        export_bip(inst, path)
        tracemalloc.start()
        try:
            export_bip(inst, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000

    def test_refuses_oversized_model_before_writing(self, tmp_path, monkeypatch):
        inst = build_small_system(1, n=1000)
        path = tmp_path / "model.lp"
        export_bip(inst, path)
        written = sum(line.count(" x_") for line in path.read_text().splitlines()
                      if line.startswith(" place_"))
        path.unlink()
        monkeypatch.setattr(exact, "EXPORT_TERM_CAP", written - 1)
        with pytest.raises(BudgetExceededError) as err:
            export_bip(inst, path)
        assert not path.exists()
        # the estimate counts every place row, also the ones left out
        estimate = int(str(err.value).split()[1])
        assert written <= estimate <= written + inst.n_places

    @pytest.mark.parametrize("build, n, terms", [(build_small_system, 1000, 59530),
                                                 (build_medium_system, 200, 6364512)],
                             ids=["small", "medium"])
    def test_term_estimate_is_pinned(self, tmp_path, monkeypatch, build, n, terms):
        monkeypatch.setattr(exact, "EXPORT_TERM_CAP", 0)
        with pytest.raises(BudgetExceededError, match=f"^about {terms} place-row terms"):
            export_bip(build(1, n=n), tmp_path / "model.lp")

    def test_refuses_return_all_pods(self, tmp_path):
        """The model has no terminal-cost term, like the solvers."""
        inst = harness.build_tiny_random(0)
        inst = replace(inst, costs=replace(inst.costs, terminal=TERMINAL_RETURN_ALL))
        path = tmp_path / "model.lp"
        with pytest.raises(ValueError, match="return-all-pods"):
            export_bip(inst, path)
        assert not path.exists()
