"""The settable values of the library, counted and pinned by name.

A settable value is a parameter with a default in a public function or in a
public class's public method (``__init__`` included), or a field of
``GaConfig`` or ``ChartSpec``.  ``cli.py`` is left out: its options are the
command line, not the library.  A new entry here needs two callers outside
the tests that want different values.
"""

import ast
from pathlib import Path

import podrepo

CONFIG_CLASSES = ("GaConfig", "ChartSpec")

SETTINGS = {
    "chart.ChartSpec.t_from",
    "chart.ChartSpec.t_to",
    "exact.solve_exact(node_budget)",
    "exact.solve_iterative(node_budget)",
    "genetic.GaConfig.max_generations",
    "genetic.GaConfig.seed",
    "genetic.evolve(config)",
    "genetic.evolve(encoding)",
    "genetic.evolve(gamma_name)",
    "harness.plain_medium_instance(n)",
    "harness.run_comparison(out_dir)",
    "harness.run_comparison(seed)",
    "harness.run_policy(seed)",
    "harness.seasonal_medium_instance(epoch)",
    "harness.seasonal_medium_instance(n)",
    "harness.seasonal_study(epoch)",
    "harness.seasonal_study(n)",
    "instances.build_medium_system(n)",
    "instances.build_medium_system(regime)",
    "instances.build_small_system(n)",
    "instances.build_small_system(regime)",
    "instances.build_small_system(seed)",
    "instances.build_tiny_symmetric(n)",
    "instances.build_tiny_symmetric(regime)",
    "instances.build_tiny_symmetric(seed)",
    "instances.generate_departures(pod_weights)",
    "instances.generate_departures(station_weights)",
    "policies.CheapestPolicy.__init__(variant)",
    "policies.RandomPolicy.__init__(seed)",
    "tetris.tetris(mode)",
}


def _defaulted(fn: ast.FunctionDef) -> list[str]:
    args = fn.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    return names + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def settings() -> set[str]:
    found = set()
    for path in Path(podrepo.__file__).parent.glob("*.py"):
        if path.name == "cli.py":
            continue
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                found |= {f"{module}.{node.name}({a})" for a in _defaulted(node)}
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        found |= {f"{module}.{node.name}.{item.name}({a})"
                                  for a in _defaulted(item)}
                    elif node.name in CONFIG_CLASSES and isinstance(item, ast.AnnAssign):
                        found.add(f"{module}.{node.name}.{item.target.id}")
    return found


def test_settings_are_pinned():
    assert settings() == SETTINGS
    assert len(SETTINGS) == 30
