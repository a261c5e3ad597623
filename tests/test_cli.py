"""Command-line interface: subcommands and exit codes."""

import json
from dataclasses import replace

import pytest

from podrepo import harness
from podrepo.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, main
from podrepo.core import (TERMINAL_RETURN_ALL, load_actions, load_instance,
                          save_instance)
from podrepo.harness import build_tiny_random
from podrepo.instances import build_small_system


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

    def test_bad_flag_is_config_error(self):
        assert main(["gen", "--system", "giant", "--out", "x.json"]) == EXIT_CONFIG


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

    def test_unknown_policy_is_config_error(self, small_path):
        assert main(["run", str(small_path), "--policy", "magic"]) == EXIT_CONFIG

    def test_oversized_brute_force_is_budget_error(self, small_path):
        assert main(["run", str(small_path),
                     "--policy", "brute-force"]) == EXIT_BUDGET

    def test_corrupt_instance_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"pods\": 1}")
        assert main(["run", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize("edit, field", [
        pytest.param(lambda d: d["cost_to_station"][0].__setitem__(0, float("nan")),
                     "cost_to_station", id="nan-cost"),
        pytest.param(lambda d: d["cost_from_station"][0].__setitem__(0, float("inf")),
                     "cost_from_station", id="inf-cost"),
        pytest.param(lambda d: d["departures"][0].__setitem__(0, True),
                     "departure", id="bool-pod"),
        pytest.param(lambda d: d["departures"][0].__setitem__(0, 1.5),
                     "departure", id="float-pod"),
        pytest.param(lambda d: d["initial_storage"].__setitem__(0, 2.0),
                     "initial_storage", id="float-stored-pod"),
    ])
    def test_hostile_instance_is_config_error(self, tiny_path, tmp_path, capsys,
                                              edit, field):
        doc = json.loads(tiny_path.read_text())
        edit(doc)
        bad = tmp_path / "hostile.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad)]) == EXIT_CONFIG
        assert field in capsys.readouterr().err


class TestCompare:
    def test_deterministic_csv(self, small_path, tmp_path):
        args = ["compare", str(small_path), "--policy", "random",
                "--policy", "tetris:frequency", "--seed", "3"]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == EXIT_OK
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == EXIT_OK
        assert ((tmp_path / "a" / "results.csv").read_bytes()
                == (tmp_path / "b" / "results.csv").read_bytes())


class TestSolve:
    def test_exact_with_actions(self, tiny_path, tmp_path):
        actions = tmp_path / "solution.json"
        assert main(["solve", str(tiny_path), "--exact",
                     "--actions-out", str(actions)]) == EXIT_OK
        inst = load_instance(tiny_path)
        assert len(load_actions(actions)) == inst.horizon

    def test_window_mode(self, tiny_path):
        assert main(["solve", str(tiny_path), "--window", "2"]) == EXIT_OK

    def test_exclusive_flags(self, tiny_path):
        assert main(["solve", str(tiny_path), "--exact",
                     "--window", "2"]) == EXIT_CONFIG
        assert main(["solve", str(tiny_path)]) == EXIT_CONFIG

    def test_export_lp(self, tiny_path, tmp_path):
        lp = tmp_path / "model.lp"
        assert main(["solve", str(tiny_path), "--export-lp", str(lp)]) == EXIT_OK
        assert "Minimize" in lp.read_text()


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


class TestStudy:
    def test_uniformity_report(self, tmp_path):
        out = tmp_path / "uniformity.csv"
        assert main(["study", "uniformity", "--seeds", "2",
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "regime,mean_ratio"
        assert len(lines) == 5

    def test_seasonal_report(self, tmp_path):
        out = tmp_path / "seasonal.csv"
        assert main(["study", "seasonal", "--seeds", "2", "--steps", "400",
                     "--epoch", "100", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
