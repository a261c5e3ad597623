"""Span tracing around calls into podrepo's public functions.

Spans are recorded from the benchmark's own code: while a :class:`Tracer` is
installed, the listed functions are replaced by timing wrappers in the
namespace of the module that *calls* them (a module-level function is looked
up in its caller's globals, so ``podrepo.harness.total_cost`` is wrapped in
``harness``).  ``Replay.__init__`` and ``Replay.run`` are wrapped on the
class; ``Replay.step`` never is, because it runs once per time step.  Nothing
under ``src/`` changes, and the originals are restored on exit.

Each span records its name (defining module and function), start, end,
parent span and run id, plus a few scalar facts read from the call's
arguments and result after the span has closed.  Spans stay in memory and
are written out by the caller at the end of the benchmark.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# caller module -> functions it calls that are traced there
WRAPPED = {
    "podrepo.core": ("departure_schedule", "check_feasible", "total_cost",
                     "occupation_intervals", "validate_instance",
                     "load_instance", "save_instance"),
    "podrepo.instances": ("build_small_system", "build_medium_system",
                          "generate_departures", "co_simulated_departures",
                          "random_initial_storage", "validate_instance"),
    "podrepo.policies": ("departure_schedule", "fixed_assignment_costs",
                         "station_frequencies"),
    "podrepo.tetris": ("departure_schedule", "occupation_intervals", "tetris"),
    "podrepo.genetic": ("departure_schedule", "evolve"),
    "podrepo.exact": ("departure_schedule", "derive_bip_parameters",
                      "decision_weights", "initial_busy_ends", "solve_exact",
                      "solve_iterative", "export_bip"),
    "podrepo.chart": ("record_trace", "chart_svg", "trace_csv"),
    "podrepo.harness": ("departure_schedule", "total_cost", "validate_instance",
                        "run_policy", "run_comparison", "write_results_csv",
                        "compute_fixed_assignment", "rearranged_instance",
                        "seasonal_study", "seasonal_medium_instance",
                        "plain_medium_instance", "co_simulated_departures",
                        "random_initial_storage"),
}
REPLAY_METHODS = ("__init__", "run")


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    run: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Facts read after a call returns; they never run inside the span's time.
def _replay_run(args, kwargs, result):
    replay = args[0]
    return {"policy": type(_arg(args, kwargs, 1, "decide")).__name__,
            "decisions": sum(1 for a in replay.actions if a),
            "total": replay.total}


def _tetris(args, kwargs, result):
    return {"mode": _arg(args, kwargs, 1, "mode", "frequency"),
            "actions": result[0], "cost": result[1]}


def _intervals(args, kwargs, result):
    # tetris mutates the action list it passed in; keep the starting plan
    return {"start_actions": list(_arg(args, kwargs, 1, "actions"))}


def _evolve(args, kwargs, result):
    return {"encoding": _arg(args, kwargs, 1, "encoding", "genetic2"),
            "evaluations": result.evaluations,
            "infeasible": result.infeasible_evaluations,
            "horizon": _arg(args, kwargs, 0, "inst").horizon}


def _solve(args, kwargs, result):
    return {"nodes": result.nodes, "optimal": int(result.optimal)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _steps(args, kwargs, result):
    return {"steps": len(result)}


PROBES: dict[str, Callable] = {
    "core.Replay.run": _replay_run,
    "tetris.tetris": _tetris,
    "core.occupation_intervals": _intervals,
    "genetic.evolve": _evolve,
    "exact.solve_exact": _solve,
    "exact.solve_iterative": _solve,
    "exact.export_bip": _file_bytes,
    "core.save_instance": _file_bytes,
    "chart.chart_svg": lambda args, kwargs, result: {"bytes": len(result)},
    "instances.generate_departures": _steps,
    "instances.co_simulated_departures": _steps,
}


def _span_name(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1] + "." + fn.__qualname__


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit.

    ``run`` selects the run id for the spans recorded next."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn):
        name = _span_name(fn)
        probe = PROBES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(len(tracer.spans), name,
                        stack[-1].id if stack else None, tracer.run,
                        time.perf_counter())
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if probe is not None:
                span.attrs = probe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original))

    def __enter__(self) -> "Tracer":
        for module_name, attrs in WRAPPED.items():
            module = sys.modules[module_name]
            for attr in attrs:
                self._patch(module, attr)
        replay = sys.modules["podrepo.core"].Replay
        for attr in REPLAY_METHODS:
            self._patch(replay, attr)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        """Write every span as one JSON line, scalar attributes only."""
        with open(path, "w") as fh:
            for s in self.spans:
                attrs = {k: v for k, v in s.attrs.items()
                         if isinstance(v, (int, float, str))}
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "run": s.run, "start": s.start, "end": s.end,
                                     "attrs": attrs}) + "\n")
