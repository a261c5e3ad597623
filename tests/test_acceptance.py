"""End-to-end acceptance gate.

Each test prints one CRITERION line so a log scan shows the verdicts at a
glance.  All scenarios are seeded and deterministic.
"""

import time
from pathlib import Path

import pytest

from podrepo import harness
from podrepo.chart import (ChartSpec, distinct_pods_per_place, emit_chart,
                           record_trace)
from podrepo.core import Replay, check_feasible, total_cost
from podrepo.exact import solve_exact, solve_iterative
from podrepo.genetic import GENETIC1, GENETIC2, GaConfig, evolve
from podrepo.instances import (REGIME_PERIODIC, build_medium_system,
                               build_small_system)
from podrepo.policies import (CHEAPEST_DECISION, CHEAPEST_ON_AVERAGE,
                              CHEAPEST_TO_STORAGE, CheapestPolicy, FixedPolicy,
                              RandomPolicy, compute_fixed_assignment,
                              fixed_assignment_costs, rearranged_instance,
                              sorted_fixed_assignment)
from podrepo.tetris import (SORT_DURATION, SORT_FREQUENCY,
                            MostExpensivePlacePolicy, tetris)

GOLDEN_SVG = Path(__file__).parent / "golden" / "small_cheapest_0_60.svg"


@pytest.fixture()
def report(capsys):
    """Print one CRITERION line straight to the terminal, bypassing capture."""
    def _report(n: int, message: str) -> None:
        with capsys.disabled():
            print(f"\nCRITERION {n} PASS: {message}")
    return _report


def test_criterion_1_exact_matches_exhaustive_oracle(report):
    """On 50 random oracle-scale instances, the branch-and-bound solver and
    the exhaustive enumeration agree on cost and action sequence, in under
    a minute total."""
    started = time.perf_counter()
    for seed in range(50):
        inst = harness.build_tiny_random(seed)
        brute_actions, brute_cost = harness.brute_force_optimum(
            inst)
        result = solve_exact(inst)
        assert result.optimal
        assert result.cost == pytest.approx(brute_cost, abs=1e-9)
        assert result.actions == brute_actions
        assert check_feasible(inst, result.actions).ok
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(1, f"50 seeds, solver == exhaustive oracle, {elapsed:.1f}s")


def test_criterion_2_cheapest_is_optimal_under_periodic_departures(report):
    """On 10 symmetric instances with perfectly regular departures, the
    greedy cheapest-place policy attains the exhaustive optimum exactly."""
    for seed in range(10):
        inst = harness.build_tiny_symmetric(
            4 + seed % 3, regime=REGIME_PERIODIC, seed=seed, n=6 + seed % 3)
        greedy = Replay(inst).run(
            CheapestPolicy(inst, CHEAPEST_DECISION))
        _, optimum = harness.brute_force_optimum(inst)
        assert greedy.total == optimum
    report(2, "10 periodic instances, greedy cost == exhaustive optimum")


def test_criterion_3_cheapest_variants_agree_on_symmetric_system(report):
    """On the 10-place system with symmetric stations, the three cheapest
    scoring variants yield identical total cost."""
    inst = build_small_system()
    totals = {}
    for variant in (CHEAPEST_TO_STORAGE, CHEAPEST_ON_AVERAGE, CHEAPEST_DECISION):
        totals[variant] = Replay(inst).run(CheapestPolicy(inst, variant)).total
    values = list(totals.values())
    assert max(values) - min(values) < 1e-9
    report(3, f"three cheapest variants all cost {values[0]:.1f}")


def test_criterion_4_solver_hierarchy_on_small_system(report):
    """On the shipped 10-place system: budget-limited search beats cheapest,
    cheapest beats random, and the frequency tetris heuristic is at least
    as good as cheapest; every reported cost survives an independent replay."""
    inst = build_small_system()
    random_total = Replay(inst).run(RandomPolicy(0)).total
    cheapest_total = Replay(inst).run(
        CheapestPolicy(inst, CHEAPEST_DECISION)).total
    search = solve_exact(inst, node_budget=200_000)
    tetris_actions, tetris_total = tetris(inst, SORT_FREQUENCY)
    assert search.cost < cheapest_total < random_total
    assert tetris_total <= cheapest_total
    assert total_cost(inst, search.actions) == pytest.approx(search.cost, abs=1e-9)
    assert total_cost(inst, tetris_actions) == pytest.approx(tetris_total, abs=1e-9)
    report(4, f"search {search.cost:.0f} < cheapest {cheapest_total:.0f} "
              f"< random {random_total:.0f}; tetris {tetris_total:.0f}")


def test_criterion_5_window_solver_limits(report):
    """The windowed solver degenerates correctly at both extremes: a window
    covering the whole horizon reproduces the one-shot solver bitwise, and a
    window of one reproduces the greedy cheapest-decision policy."""
    for seed in range(20):
        inst = harness.build_tiny_random(seed)
        one_shot = solve_exact(inst)
        whole = solve_iterative(inst, inst.horizon)
        assert whole.actions == one_shot.actions
        assert whole.cost == one_shot.cost
        myopic = solve_iterative(inst, 1)
        greedy = Replay(inst).run(CheapestPolicy(inst, CHEAPEST_DECISION))
        assert myopic.actions == greedy.actions
    report(5, "20 seeds: window=horizon == one-shot, window=1 == greedy")


def test_criterion_6_tetris_sandwich_and_medium_runtime(report):
    """The interval-moving heuristic never does worse than its own starting
    plan and never beats the optimum; on the 504-place system with 20000
    steps it finishes in under a minute."""
    for seed in range(50):
        inst = harness.build_tiny_random(seed)
        init = Replay(inst).run(MostExpensivePlacePolicy(inst))
        _, optimum = harness.brute_force_optimum(inst)
        for mode in (SORT_FREQUENCY, SORT_DURATION):
            _, cost = tetris(inst, mode)
            assert optimum - 1e-9 <= cost <= init.total + 1e-9
    medium = build_medium_system(seed=1)
    started = time.perf_counter()
    actions, cost = tetris(medium, SORT_FREQUENCY)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    assert check_feasible(medium, actions).ok
    report(6, f"50-seed sandwich holds; medium 20000-step run {elapsed:.1f}s")


def test_criterion_7_genetic_encodings_dichotomy(report):
    """The repair-free encoding never produces an infeasible chromosome and
    beats random on the 10-place system; the raw place encoding reports a
    positive infeasible fraction."""
    inst = build_small_system()
    random_total = Replay(inst).run(RandomPolicy(0)).total
    result2 = evolve(inst, GENETIC2,
                     config=GaConfig(seed=0, max_generations=100))
    assert result2.infeasible_evaluations == 0
    assert result2.cost < random_total
    assert check_feasible(inst, result2.actions).ok
    result1 = evolve(inst, GENETIC1,
                     config=GaConfig(seed=0, max_generations=10))
    assert result1.infeasible_fraction > 0.0
    report(7, f"repair-free: 0 infeasible, cost {result2.cost:.0f} < random "
              f"{random_total:.0f}; raw encoding infeasible fraction "
              f"{result1.infeasible_fraction:.3f}")


def test_criterion_8_fixed_place_assignment(report):
    """Every pod keeps a single place under the fixed policy; the assignment
    optimizer matches exhaustive permutation search on small cases; on
    symmetric systems with regular departures the sort-by-frequency shortcut
    attains the same objective."""
    inst = build_small_system()
    fa = compute_fixed_assignment(inst)
    arranged = rearranged_instance(inst, fa)
    replay = Replay(arranged).run(FixedPolicy(fa))
    trace = record_trace(arranged, replay.actions)
    assert all(len(pods) <= 1 for pods in distinct_pods_per_place(trace))
    import itertools

    def objective(matrix, assignment):
        return sum(matrix[h - 1, p - 1] for h, p in assignment.items())

    for seed in range(20):
        tiny = harness.build_tiny_random(seed)
        matrix = fixed_assignment_costs(tiny)
        best_cost = objective(matrix, compute_fixed_assignment(tiny))
        brute = min(sum(matrix[h, p] for h, p in enumerate(places))
                    for places in itertools.permutations(
                        range(tiny.n_places), tiny.n_pods))
        assert best_cost == pytest.approx(brute, abs=1e-9)
    for seed in range(6):
        sym = harness.build_tiny_symmetric(5, regime=REGIME_PERIODIC,
                                           seed=seed, n=8)
        matrix = fixed_assignment_costs(sym)
        optimal = objective(matrix, compute_fixed_assignment(sym))
        shortcut = objective(matrix, sorted_fixed_assignment(sym))
        assert shortcut == pytest.approx(optimal, abs=1e-9)
    report(8, "one place per pod; optimizer == permutation search; "
              "frequency-sort shortcut matches on symmetric systems")


def test_criterion_9_seasonal_demand_flips_sort_preference(report):
    """Across 20 seeds of the 504-place system: under seasonal demand the
    duration-sorted heuristic wins in the median, under stationary demand
    the frequency-sorted heuristic wins."""
    rep = harness.seasonal_study(range(20))
    med = {name: rep.median(name)
           for name in ("seasonal_frequency", "seasonal_duration",
                        "plain_frequency", "plain_duration")}
    assert med["seasonal_duration"] <= med["seasonal_frequency"]
    assert med["plain_frequency"] <= med["plain_duration"]
    report(9, f"seasonal: duration {med['seasonal_duration']:.0f} <= "
              f"frequency {med['seasonal_frequency']:.0f}; plain: frequency "
              f"{med['plain_frequency']:.0f} <= duration {med['plain_duration']:.0f}")


def test_criterion_10_deterministic_artifacts(tmp_path, report):
    """Repeated runs produce byte-identical result CSVs, and the shipped
    chart matches its frozen rendering byte for byte."""
    inst = build_small_system(n=300)
    names = ["random", "cheapest:decision", "tetris:frequency", "tetris:duration"]
    harness.run_comparison(inst, names, seed=7, out_dir=tmp_path / "a")
    harness.run_comparison(inst, names, seed=7, out_dir=tmp_path / "b")
    csv_a = (tmp_path / "a" / "results.csv").read_bytes()
    csv_b = (tmp_path / "b" / "results.csv").read_bytes()
    assert csv_a == csv_b
    full = build_small_system()
    replay = Replay(full).run(CheapestPolicy(full))
    trace = record_trace(full, replay.actions)
    out = tmp_path / "chart.svg"
    emit_chart(trace, ChartSpec(t_from=0, t_to=60), out)
    assert out.read_bytes() == GOLDEN_SVG.read_bytes()
    report(10, "byte-identical CSVs and frozen chart rendering")
