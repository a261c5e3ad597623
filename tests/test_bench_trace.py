"""The traced benchmark still fits the library.

``perfbench/spans.py`` wraps podrepo functions by name in the modules that
call them, and ``perfbench/layers.py`` derives the per-layer metrics from the
spans.  A function that a change renames, or a module that stops importing a
wrapped name, breaks the traced run; these tests catch that here.
"""

import importlib
from pathlib import Path

import pytest

from podrepo import exact, genetic, harness
from podrepo.core import departure_schedule
from podrepo.instances import build_small_system

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("spans")
    # the tracer patches modules already imported
    for name in module.WRAPPED:
        importlib.import_module(name)
    return module


def test_wrapped_names_resolve(spans):
    for module_name, attrs in spans.WRAPPED.items():
        module = importlib.import_module(module_name)
        missing = [a for a in attrs if not callable(getattr(module, a, None))]
        assert not missing, f"{module_name} lacks {missing}"


def test_traced_comparison_gives_layer_metrics(spans):
    layers = importlib.import_module("layers")
    inst = build_small_system(n=200)
    with spans.Tracer() as tracer:
        harness.run_comparison(inst, ["random", "cheapest", "most-expensive",
                                      "tetris:frequency", "tetris:duration", "fixed"])
    metrics = layers.layer_metrics(tracer.spans)
    assert set(metrics) == set(layers.METRICS)
    assert metrics["harness.policy_runs"] == 6
    # both modes read the shared start's decisions from their own span
    decisions = sum(not info.fill for info in departure_schedule(inst).steps)
    assert metrics["tetris.intervals"] == 2 * decisions > 0
    # every policy class is seen through its traced ``Replay.run(decide)``
    for policy in ("random", "cheapest", "most_expensive", "fixed"):
        assert metrics[f"policies.us_per_decision.{policy}"] > 0, policy


def test_traced_offline_solvers_give_layer_metrics(spans, tmp_path):
    layers = importlib.import_module("layers")
    inst = build_small_system(n=200)
    # called through their modules, where the tracer wraps them
    with spans.Tracer() as tracer:
        exact.solve_exact(inst, node_budget=2000)
        exact.solve_iterative(inst, 5)
        exact.export_bip(inst, tmp_path / "model.lp")
        genetic.evolve(inst, genetic.GENETIC1, config=genetic.GaConfig(max_generations=2))
    metrics = layers.layer_metrics(tracer.spans)
    for name in ("exact.solve_s", "exact.nodes", "exact.iterative_s",
                 "exact.export_s", "exact.lp_bytes", "genetic.evaluations.genetic1"):
        assert metrics[name] > 0, name
