"""Command-line interface: subcommands and exit codes."""

import copy
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from podrepo import exact, harness
from podrepo.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, EXIT_UNVERIFIED, main
from podrepo.core import (TERMINAL_RETURN_ALL, CostModel, Instance, Replay,
                          instance_to_dict, load_actions, load_instance,
                          save_instance, total_cost)
from podrepo.harness import build_tiny_random
from podrepo.instances import build_small_system
from reference import fractional_medium


@pytest.fixture()
def tiny_path(tmp_path):
    path = tmp_path / "tiny.json"
    save_instance(build_tiny_random(1), path)
    return path


@pytest.fixture()
def small_path(tmp_path):
    path = tmp_path / "small.json"
    save_instance(build_small_system(n=150), path)
    return path


class TestGen:
    def test_small_system_with_sidecar(self, tmp_path):
        out = tmp_path / "inst.json"
        assert main(["gen", "--system", "small", "--steps", "80",
                     "--out", str(out)]) == EXIT_OK
        inst = load_instance(out)
        assert inst.horizon == 80
        meta = json.loads((tmp_path / "inst.json.meta.json").read_text())
        assert meta["system"] == "small"
        assert meta["regime"] == "random-geometric"

    def test_tiny_system(self, tmp_path):
        out = tmp_path / "tiny.json"
        assert main(["gen", "--system", "tiny", "--seed", "4",
                     "--out", str(out)]) == EXIT_OK
        assert load_instance(out) == build_tiny_random(4)

    def test_periodic_random_instance_is_saved(self, tmp_path):
        out = tmp_path / "pr.json"
        assert main(["gen", "--system", "small", "--steps", "60",
                     "--regime", "periodic-random", "--out", str(out)]) == EXIT_OK
        assert load_instance(out) == build_small_system(n=60, regime="periodic-random")

    def test_unwritable_output_is_config_error(self, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "x.json"
        assert main(["gen", "--out", str(out)]) == EXIT_CONFIG

    @pytest.mark.parametrize("option", [["--steps", "500"],
                                        ["--regime", "periodic"]])
    def test_tiny_system_refuses_steps_and_regime(self, tmp_path, option):
        out = tmp_path / "tiny.json"
        assert main(["gen", "--system", "tiny", *option,
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_bad_flag_is_config_error(self):
        assert main(["gen", "--system", "giant", "--out", "x.json"]) == EXIT_CONFIG

    def test_negative_steps_refused(self, tmp_path):
        out = tmp_path / "neg.json"
        assert main(["gen", "--steps", "-5", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "run", "compare"])
def test_negative_seed_is_named(command, small_path, tmp_path, capsys):
    args = {"gen": ["--out", str(tmp_path / "neg.json")],
            "run": [str(small_path)],
            "compare": [str(small_path), "--policy", "random"]}[command]
    assert main([command, *args, "--seed", "-1"]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert "--seed" in err and not out
    assert not (tmp_path / "neg.json").exists()


class TestRun:
    def test_writes_results_and_actions(self, small_path, tmp_path):
        out_dir = tmp_path / "out"
        actions = tmp_path / "actions.json"
        code = main(["run", str(small_path), "--policy", "cheapest:decision",
                     "--out-dir", str(out_dir), "--actions-out", str(actions)])
        assert code == EXIT_OK
        csv = (out_dir / "results.csv").read_text()
        assert csv.startswith("policy,cost,relative_cost,decisions\n")
        assert "cheapest:decision" in csv
        inst = load_instance(small_path)
        assert len(load_actions(actions)) == inst.horizon

    def test_actions_out_runs_the_policy_once(self, small_path, tmp_path,
                                             monkeypatch):
        calls = []
        run_policy = harness.run_policy

        def counting(inst, name, *args, **kwargs):
            calls.append(name)
            return run_policy(inst, name, *args, **kwargs)

        monkeypatch.setattr(harness, "run_policy", counting)
        actions = tmp_path / "actions.json"
        assert main(["run", str(small_path), "--policy", "cheapest:decision",
                     "--actions-out", str(actions)]) == EXIT_OK
        # the policy plus the random baseline
        assert sorted(calls) == ["cheapest:decision", "random"]
        inst = load_instance(small_path)
        assert load_actions(actions) == run_policy(inst, "cheapest:decision")[0]

    def test_solver_on_return_all_pods_is_config_error(self, tmp_path):
        inst = build_small_system(n=150)
        path = tmp_path / "return-all.json"
        save_instance(replace(inst, costs=replace(inst.costs,
                                                  terminal=TERMINAL_RETURN_ALL)), path)
        assert main(["run", str(path), "--policy", "tetris"]) == EXIT_CONFIG
        assert main(["solve", str(path), "--exact",
                     "--node-budget", "1"]) == EXIT_CONFIG
        assert main(["run", str(path), "--policy", "cheapest"]) == EXIT_OK

    def test_return_all_pods_without_room_runs_no_replay(self, tmp_path, monkeypatch,
                                                         capsys):
        crowded = Instance(n_pods=3, n_places=2, station_capacities=(1,),
                           costs=CostModel(to_station=((1.0,), (2.0,)),
                                           from_station=((1.0, 2.0),),
                                           terminal=TERMINAL_RETURN_ALL),
                           initial_storage=(1, 2), initial_queues=((3,),),
                           departures=((1, 1), (2, 1)))
        path = tmp_path / "crowded.json"
        save_instance(crowded, path)
        replays = []
        init = Replay.__init__
        monkeypatch.setattr(Replay, "__init__",
                            lambda self, inst: replays.append(inst) or init(self, inst))
        assert main(["run", str(path)]) == EXIT_CONFIG
        assert "3 pods, 2 places" in capsys.readouterr().err
        assert replays == []

    def test_unknown_policy_is_config_error(self, small_path):
        assert main(["run", str(small_path), "--policy", "magic"]) == EXIT_CONFIG

    def test_oversized_brute_force_is_budget_error(self, small_path):
        assert main(["run", str(small_path),
                     "--policy", "brute-force"]) == EXIT_BUDGET

    def test_exact_without_proof_is_budget_error(self, small_path, monkeypatch, capsys):
        monkeypatch.setattr(exact, "EXACT_NODE_BUDGET", 1000)
        assert main(["run", str(small_path), "--policy", "exact"]) == EXIT_BUDGET
        assert "node budget 1000" in capsys.readouterr().err

    def test_too_deep_brute_force_is_budget_error(self, tmp_path, capsys):
        # one leaf, but 3000 steps: deeper than the oracle recurses
        deep = Instance(n_pods=2, n_places=1, station_capacities=(1,),
                        costs=CostModel(to_station=((1.0,),), from_station=((1.0,),)),
                        initial_storage=(1,), initial_queues=((2,),),
                        departures=tuple((1 + t % 2, 1) for t in range(3000)))
        assert harness.estimate_brute_leaves(deep) == 1
        path = tmp_path / "deep.json"
        save_instance(deep, path)
        assert main(["run", str(path), "--policy", "brute-force"]) == EXIT_BUDGET
        assert "horizon 3000" in capsys.readouterr().err

    def test_corrupt_instance_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"pods\": 1}")
        assert main(["run", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize("edit, field", [
        pytest.param(lambda d: d["cost_to_station"][0].__setitem__(0, float("nan")),
                     "cost_to_station", id="nan-cost"),
        pytest.param(lambda d: d["cost_from_station"][0].__setitem__(0, float("inf")),
                     "cost_from_station", id="inf-cost"),
        pytest.param(lambda d: d["cost_to_station"][0].__setitem__(0, 1e308),
                     "costs too large", id="overflowing-costs"),
        pytest.param(lambda d: d["departures"][0].__setitem__(0, True),
                     "departure", id="bool-pod"),
        pytest.param(lambda d: d["departures"][0].__setitem__(0, 1.5),
                     "departure", id="float-pod"),
        pytest.param(lambda d: d["initial_storage"].__setitem__(0, 2.0),
                     "initial_storage", id="float-stored-pod"),
        pytest.param(lambda d: d.update(stations=[{}]), "stations", id="station-without-id"),
    ])
    def test_hostile_instance_is_config_error(self, tiny_path, tmp_path, capsys,
                                              edit, field):
        doc = json.loads(tiny_path.read_text())
        edit(doc)
        bad = tmp_path / "hostile.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad)]) == EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "error: an instance document is an object, not list"),
        ({"pods": 3}, "error: instance document lacks places, stations,"),
    ], ids=["list", "pods-only"])
    def test_hostile_document_is_named(self, tmp_path, capsys, doc, message):
        bad = tmp_path / "hostile.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_deeply_nested_instance_is_config_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["run", str(deep)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error: instance file" in err and "nested too deeply" in err
        assert "Traceback" not in err


FUZZ_DOC = instance_to_dict(build_small_system(1, n=30))
DELETE = object()  # an edit that deletes the field


def _field_paths(node, prefix=()):
    """The key path of every field of ``node`` and, recursively, of theirs."""
    keys = (node.keys() if type(node) is dict
            else range(len(node)) if type(node) is list else ())
    for key in keys:
        yield prefix + (key,)
        yield from _field_paths(node[key], prefix + (key,))


def _edited(edits):
    """A copy of ``FUZZ_DOC`` with ``edits`` applied in turn; an edit whose
    path an earlier one removed is skipped."""
    doc = json.loads(json.dumps(FUZZ_DOC))
    for path, value in edits:
        try:
            node = doc
            for key in path[:-1]:
                node = node[key]
            if value is DELETE:
                del node[path[-1]]
            else:
                node[path[-1]] = copy.deepcopy(value)  # [] and {} are shared
        except (KeyError, IndexError, TypeError):
            pass
    return doc


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "hostile.json"


@given(edits=st.lists(st.tuples(
           st.sampled_from(list(_field_paths(FUZZ_DOC))),
           st.sampled_from([DELETE, None, -1, 1.5, "x", [], {}, True, 1e308, math.nan])),
           min_size=1, max_size=3),
       policy=st.sampled_from(["random", "cheapest:decision", "most-expensive",
                               "tetris:frequency", "fixed"]))
@example(edits=[(("cost_from_station", 0, 9), 1e308), (("cost_to_station", 9, 0), 1e308)],
         policy="tetris:frequency")
@settings(max_examples=100, deadline=None)
def test_hostile_document_runs_or_is_refused(fuzz_path, edits, policy):
    """A mutated instance document either runs to a finite cost or is
    refused with exit code 1; no exception escapes."""
    fuzz_path.write_text(json.dumps(_edited(edits)))
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["run", str(fuzz_path), "--policy", policy])
    assert code in (EXIT_OK, EXIT_CONFIG)
    if code == EXIT_OK:
        cost, relative = re.search(r": cost (\S+) \(relative (\S+),", out.getvalue()).groups()
        assert math.isfinite(float(cost)) and math.isfinite(float(relative))


@pytest.fixture(scope="module")
def fractional_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fractional") / "fractional.json"
    save_instance(fractional_medium(), path)
    return path


class TestCompare:
    def test_fractional_costs_verify(self, fractional_path, tmp_path):
        # tetris sums its legs in another order than the verifying replay
        assert main(["compare", str(fractional_path), "--policy", "tetris:frequency",
                     "--out-dir", str(tmp_path)]) == EXIT_OK

    def test_deterministic_csv(self, small_path, tmp_path):
        args = ["compare", str(small_path), "--policy", "random",
                "--policy", "tetris:frequency", "--seed", "3"]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == EXIT_OK
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == EXIT_OK
        assert ((tmp_path / "a" / "results.csv").read_bytes()
                == (tmp_path / "b" / "results.csv").read_bytes())


def small_30_steps(tmp_path, leg=None):
    """The 30-step small system, with ``cost_from_station[0][9]`` and
    ``cost_to_station[9][0]`` set to ``leg`` when one is given."""
    path = tmp_path / "small.json"
    assert main(["gen", "--system", "small", "--seed", "1", "--steps", "30",
                 "--out", str(path)]) == EXIT_OK
    if leg is not None:
        data = json.loads(path.read_text())
        data["cost_from_station"][0][9] = data["cost_to_station"][9][0] = leg
        path.write_text(json.dumps(data))
    return path


class TestSolve:
    def test_exact_with_actions(self, tiny_path, tmp_path):
        actions = tmp_path / "solution.json"
        assert main(["solve", str(tiny_path), "--exact",
                     "--actions-out", str(actions)]) == EXIT_OK
        inst = load_instance(tiny_path)
        assert len(load_actions(actions)) == inst.horizon

    def test_window_mode(self, tiny_path):
        assert main(["solve", str(tiny_path), "--window", "2"]) == EXIT_OK

    def test_window_mode_on_fractional_costs(self, fractional_path):
        assert main(["solve", str(fractional_path), "--window", "1"]) == EXIT_OK

    @pytest.mark.parametrize("mode", [["--exact"], ["--window", "5"]])
    def test_exhausted_node_budget_is_budget_error(self, small_path, mode, capsys):
        assert main(["solve", str(small_path), *mode,
                     "--node-budget", "0"]) == EXIT_BUDGET
        assert "node budget exhausted" in capsys.readouterr().err

    def test_window_mode_defaults_to_the_policy_budget(self, small_path, monkeypatch,
                                                         capsys):
        monkeypatch.setattr(exact, "EXACT_NODE_BUDGET", 20000)
        assert main(["solve", str(small_path), "--window", "20"]) == EXIT_BUDGET
        assert "node budget exhausted: 20000 nodes" in capsys.readouterr().err

    def test_exact_defaults_to_the_policy_budget(self, small_path, monkeypatch, capsys):
        monkeypatch.setattr(exact, "EXACT_NODE_BUDGET", 1000)
        assert main(["solve", str(small_path), "--exact"]) == EXIT_OK
        assert "(budget-limited, 1000 nodes)" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", [["--exact"], ["--window", "5"]])
    def test_negative_node_budget_is_config_error(self, tiny_path, mode, capsys):
        assert main(["solve", str(tiny_path), *mode,
                     "--node-budget", "-1"]) == EXIT_CONFIG
        assert "--node-budget" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [["--exact"], ["--window", "5"]])
    def test_prints_lower_bound_and_gap(self, tiny_path, mode, capsys):
        assert main(["solve", str(tiny_path), *mode]) == EXIT_OK
        inst = load_instance(tiny_path)
        result = (exact.solve_exact(inst) if mode == ["--exact"]
                  else exact.solve_iterative(inst, 5))
        line = capsys.readouterr().out
        label = "optimal" if mode == ["--exact"] else "windows exact"
        match = re.fullmatch(rf"cost (\S+) \({label}, \d+ nodes\), "
                             r"lower bound (\S+), gap (\S+)%\n", line)
        assert match, line
        cost, bound, gap = map(float, match.groups())
        assert 0 < bound < cost
        assert bound == pytest.approx(result.lower_bound, abs=1e-6)
        assert gap == pytest.approx(100 * (result.cost - result.lower_bound) / result.cost,
                                    abs=0.005)

    @pytest.mark.parametrize("leg, ending", [
        (None, "lower bound 325.000000, gap 20.15%\n"),
        (1e300, "which meets the best cost: the budget ran out while breaking ties\n"),
    ])
    def test_budget_cut_tie_break_is_not_a_zero_gap(self, tmp_path, monkeypatch, capsys,
                                                     leg, ending):
        """At 1e300 the float sums absorb every other leg, so the bound meets
        the incumbent while the strict search still breaks ties: neither
        `solve` nor the refusal of `run --policy exact` prints a 0% gap."""
        path = small_30_steps(tmp_path, leg)
        capsys.readouterr()
        assert main(["solve", str(path), "--exact", "--node-budget", "20000"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "(budget-limited, 20000 nodes)" in out and out.endswith(ending)
        monkeypatch.setattr(exact, "EXACT_NODE_BUDGET", 20000)
        assert main(["run", str(path), "--policy", "exact"]) == EXIT_BUDGET
        err = capsys.readouterr().err
        assert err.endswith(ending.replace(".000000", ".0")), err

    def test_finished_windows_are_not_labelled_optimal(self, tmp_path, capsys):
        path = tmp_path / "small.json"
        assert main(["gen", "--system", "small", "--seed", "1", "--steps", "300",
                     "--out", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["solve", str(path), "--window", "10"]) == EXIT_OK
        assert capsys.readouterr().out.startswith(
            "cost 4098.000000 (windows exact, 23286 nodes)")

    def test_reported_cost_is_reverified(self, tiny_path, tmp_path, monkeypatch, capsys):
        solve_exact = exact.solve_exact

        def off_by_one(inst, **kwargs):
            result = solve_exact(inst, **kwargs)
            return replace(result, cost=result.cost + 1)

        monkeypatch.setattr(exact, "solve_exact", off_by_one)
        actions = tmp_path / "solution.json"
        assert main(["solve", str(tiny_path), "--exact",
                     "--actions-out", str(actions)]) == EXIT_UNVERIFIED == 3
        assert not actions.exists()
        out, err = capsys.readouterr()
        assert "cost" not in out
        assert "error: solve: reported cost" in err and "replayed cost" in err

    def test_exclusive_flags(self, tiny_path):
        assert main(["solve", str(tiny_path), "--exact",
                     "--window", "2"]) == EXIT_CONFIG
        assert main(["solve", str(tiny_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("refused", [["--exact", "--window", "3"], ["--window", "0"]])
    def test_refused_options_write_no_lp(self, tiny_path, tmp_path, capsys, refused):
        lp = tmp_path / "x.lp"
        assert main(["solve", str(tiny_path), "--export-lp", str(lp), *refused]) == EXIT_CONFIG
        assert not lp.exists()
        out, err = capsys.readouterr()
        assert "wrote" not in out and "--window" in err

    def test_export_lp(self, tiny_path, tmp_path):
        lp = tmp_path / "model.lp"
        assert main(["solve", str(tiny_path), "--export-lp", str(lp)]) == EXIT_OK
        assert "Minimize" in lp.read_text()

    def test_export_lp_refuses_return_all_pods(self, tmp_path):
        inst = build_tiny_random(1)
        path = tmp_path / "return-all.json"
        save_instance(replace(inst, costs=replace(inst.costs,
                                                  terminal=TERMINAL_RETURN_ALL)), path)
        lp = tmp_path / "model.lp"
        assert main(["solve", str(path), "--export-lp", str(lp)]) == EXIT_CONFIG
        assert not lp.exists()

    def test_oversized_export_is_budget_error(self, tiny_path, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.setattr(exact, "EXPORT_TERM_CAP", 10)
        lp = tmp_path / "model.lp"
        assert main(["solve", str(tiny_path), "--export-lp", str(lp)]) == EXIT_BUDGET
        assert not lp.exists()
        assert "place-row terms exceed the export cap 10" in capsys.readouterr().err


NUMBER = re.compile(r"\d[\d.]*(?:e[+-]\d+)?")


def test_huge_costs_print_six_significant_digits(tmp_path, capsys):
    """With two 1e300 legs every number that `run`, `compare`, `solve` and
    `chart` print fits in 20 characters, and each printed cost is the
    replayed total to six significant digits."""
    path = small_30_steps(tmp_path, 1e300)
    inst = load_instance(path)
    most, cheapest = (total_cost(inst, harness.run_policy(inst, name)[0])
                      for name in ("most-expensive", "cheapest:decision"))
    best = total_cost(inst, exact.solve_exact(inst, node_budget=20000).actions)
    actions, svg = tmp_path / "actions.json", tmp_path / "chart.svg"
    commands = [
        (["run", str(path), "--policy", "most-expensive", "--actions-out", str(actions)],
         [most]),
        (["compare", str(path), "--policy", "most-expensive",
          "--policy", "cheapest:decision"], [most, cheapest]),
        (["solve", str(path), "--exact", "--node-budget", "20000"], [best]),
        (["chart", str(path), str(actions), "--out", str(svg)], [most]),
    ]
    capsys.readouterr()
    for args, totals in commands:
        assert main(args) == EXIT_OK
        out = capsys.readouterr().out.replace(str(svg), "chart.svg")
        assert all(len(number) <= 20 for number in NUMBER.findall(out)), out
        costs = [float(cost) for cost in re.findall(r"\bcost (\S+?)[ )]", out)]
        assert costs == pytest.approx(totals, rel=1e-6), out
        assert min(totals) >= 1e15


class TestChart:
    def test_renders_svg_and_csv(self, tiny_path, tmp_path):
        actions = tmp_path / "actions.json"
        assert main(["solve", str(tiny_path), "--exact",
                     "--actions-out", str(actions)]) == EXIT_OK
        svg = tmp_path / "chart.svg"
        csv = tmp_path / "trace.csv"
        assert main(["chart", str(tiny_path), str(actions), "--out", str(svg),
                     "--trace-csv", str(csv)]) == EXIT_OK
        assert svg.read_text().startswith("<?xml")
        assert csv.read_text().startswith("t,place,pod")

    def test_infeasible_actions_rejected(self, tiny_path, tmp_path):
        inst = load_instance(tiny_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([1] * inst.horizon))
        out = tmp_path / "chart.svg"
        assert main(["chart", str(tiny_path), str(bad),
                     "--out", str(out)]) == EXIT_CONFIG

    def test_hostile_action_file_rejected(self, tiny_path, tmp_path, capsys):
        inst = load_instance(tiny_path)
        hostile = tmp_path / "hostile.json"
        hostile.write_text(json.dumps([1.9] + [0] * (inst.horizon - 1)))
        out = tmp_path / "chart.svg"
        assert main(["chart", str(tiny_path), str(hostile),
                     "--out", str(out)]) == EXIT_CONFIG
        assert "error: actions must be integers" in capsys.readouterr().err
        assert not out.exists()

    def test_deeply_nested_action_file_rejected(self, tiny_path, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "chart.svg"
        assert main(["chart", str(tiny_path), str(deep), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error: action file" in err and "nested too deeply" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_refused_window_writes_no_file(self, tiny_path, tmp_path):
        actions = tmp_path / "actions.json"
        assert main(["solve", str(tiny_path), "--exact",
                     "--actions-out", str(actions)]) == EXIT_OK
        out = tmp_path / "chart.svg"
        assert main(["chart", str(tiny_path), str(actions), "--from", "5",
                     "--to", "3", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("window", [["--from", "5", "--to", "3"],
                                        ["--to", "999"], ["--from", "999"]])
    def test_refused_window_runs_no_replay(self, tiny_path, tmp_path,
                                           monkeypatch, capsys, window):
        actions = tmp_path / "actions.json"
        assert main(["solve", str(tiny_path), "--exact",
                     "--actions-out", str(actions)]) == EXIT_OK
        replays = []
        init = Replay.__init__
        monkeypatch.setattr(Replay, "__init__",
                            lambda self, inst: replays.append(inst) or init(self, inst))
        assert main(["chart", str(tiny_path), str(actions), *window,
                     "--out", str(tmp_path / "chart.svg")]) == EXIT_CONFIG
        assert "chart window outside the trace" in capsys.readouterr().err
        assert replays == []


class TestStudy:
    def test_uniformity_report(self, tmp_path):
        out = tmp_path / "uniformity.csv"
        assert main(["study", "uniformity", "--seeds", "2",
                     "--out", str(out)]) == EXIT_OK
        assert out.read_text() == ("regime,mean_ratio\n"
                                   "random-geometric,1.054069767\n"
                                   "random-uniform,1.027994067\n"
                                   "periodic-random,1.026595745\n"
                                   "periodic,1.000000000\n")

    def test_seasonal_report(self, tmp_path):
        out = tmp_path / "seasonal.csv"
        assert main(["study", "seasonal", "--seeds", "2", "--steps", "400",
                     "--epoch", "100", "--out", str(out)]) == EXIT_OK
        assert out.read_text() == (
            "seed,seasonal_frequency,seasonal_duration,plain_frequency,plain_duration\n"
            "0,10561.000000,10799.000000,11752.000000,12409.000000\n"
            "1,10927.000000,11016.000000,11521.000000,12354.000000\n")

    def test_uniformity_seeds_below_one_refused(self, capsys):
        assert main(["study", "uniformity", "--seeds", "0"]) == EXIT_CONFIG
        assert "--seeds" in capsys.readouterr().err

    def test_seasonal_seeds_below_one_refused(self, capsys):
        assert main(["study", "seasonal", "--seeds", "-2", "--steps", "100"]) == EXIT_CONFIG
        assert "--seeds" in capsys.readouterr().err

    def test_seasonal_negative_steps_refused(self, capsys):
        assert main(["study", "seasonal", "--seeds", "1", "--steps", "-3"]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert "--steps" in err and "median" not in out

    def test_seasonal_epoch_below_one_refused(self, capsys):
        assert main(["study", "seasonal", "--seeds", "1", "--steps", "100",
                     "--epoch", "0"]) == EXIT_CONFIG
        assert "error: epoch must be >= 1" in capsys.readouterr().err
