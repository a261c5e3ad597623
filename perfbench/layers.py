"""Per-layer metrics derived from the spans of one traced round.

A round is one traced set-up plus one traced workload body.  Every metric is
reported on every workload; a layer the workload never calls reads 0.  Times
are inclusive unless the name says ``self`` or ``sweep`` (self time: the span
minus the time its direct child spans cover).
"""

from __future__ import annotations

from collections import defaultdict

from spans import Span

POLICY_CLASSES = {"RandomPolicy": "random", "CheapestPolicy": "cheapest",
                  "MostExpensivePlacePolicy": "most_expensive",
                  "FixedPolicy": "fixed"}
TETRIS_MODES = ("frequency", "duration")
ENCODINGS = ("genetic2", "genetic1")

# name -> (unit, better); the order is the order of the report
METRICS = {
    "instances.build_s": ("s", "lower"),
    "instances.departures_s": ("s", "lower"),
    "instances.us_per_step": ("us", "lower"),
    "core.schedule_s": ("s", "lower"),
    "core.schedule_calls": ("count", "lower"),
    "core.replays": ("count", "lower"),
    "core.verify_s": ("s", "lower"),
    "core.verify_calls": ("count", "lower"),
    "core.intervals_s": ("s", "lower"),
    "core.load_s": ("s", "lower"),
    "core.save_s": ("s", "lower"),
    "core.json_bytes": ("bytes", "lower"),
    **{f"policies.us_per_decision.{p}": ("us", "lower") for p in POLICY_CLASSES.values()},
    "policies.fixed_assignment_s": ("s", "lower"),
    **{f"tetris.s.{m}": ("s", "lower") for m in TETRIS_MODES},
    **{f"tetris.sweep_s.{m}": ("s", "lower") for m in TETRIS_MODES},
    "tetris.intervals": ("count", "lower"),
    "tetris.moved": ("count", "higher"),
    "tetris.move_ratio": ("ratio", "higher"),
    "tetris.saved": ("cost", "higher"),
    **{f"genetic.s.{e}": ("s", "lower") for e in ENCODINGS},
    **{f"genetic.evaluations.{e}": ("count", "lower") for e in ENCODINGS},
    **{f"genetic.evals_per_s.{e}": ("1/s", "higher") for e in ENCODINGS},
    **{f"genetic.us_per_eval_step.{e}": ("us", "lower") for e in ENCODINGS},
    "genetic.infeasible_frac.genetic1": ("ratio", "lower"),
    "exact.solve_s": ("s", "lower"),
    "exact.nodes": ("count", "lower"),
    "exact.nodes_per_s": ("1/s", "higher"),
    "exact.optimal": ("flag", "higher"),
    "exact.iterative_s": ("s", "lower"),
    "exact.iterative_nodes_per_s": ("1/s", "higher"),
    "exact.export_s": ("s", "lower"),
    "exact.lp_bytes": ("bytes", "lower"),
    "chart.trace_s": ("s", "lower"),
    "chart.svg_s": ("s", "lower"),
    "chart.csv_s": ("s", "lower"),
    "chart.svg_bytes": ("bytes", "lower"),
    "harness.compare_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "harness.policy_runs": ("count", "lower"),
    "harness.study_s": ("s", "lower"),
    "harness.instance_s.seasonal": ("s", "lower"),
    "harness.instance_s.plain": ("s", "lower"),
    # median traced body minus median untraced body; filled in by run.py
    "trace.overhead_s": ("s", "lower"),
}

# counts that must repeat exactly for the same code and seed
EXACT_COUNTS = ("core.schedule_calls", "harness.policy_runs", "core.replays",
                "exact.nodes", "genetic.evaluations.genetic2",
                "genetic.evaluations.genetic1", "tetris.moved")

DEPARTURE_GENERATORS = ("instances.generate_departures",
                        "instances.co_simulated_departures")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def named(*names: str) -> list[Span]:
        return [s for s in spans if s.name in names]

    def probed(name: str) -> list[Span]:
        """Spans of ``name`` whose call returned, so its probe ran."""
        return [s for s in spans if s.name == name and s.attrs]

    def total(*names: str) -> float:
        return sum(s.duration for s in named(*names))

    def self_time(span: Span) -> float:
        return span.duration - sum(c.duration for c in children[span.id])

    def outermost(group: list[Span], inside) -> list[Span]:
        """Spans of ``group`` with no ancestor that ``inside`` accepts."""
        out = []
        for s in group:
            p = s.parent
            while p is not None and not inside(by_id[p]):
                p = by_id[p].parent
            if p is None:
                out.append(s)
        return out

    m = dict.fromkeys(METRICS, 0.0)

    builders = [s for s in spans if s.layer == "instances"]
    m["instances.build_s"] = sum(
        s.duration for s in outermost(builders, lambda a: a.layer == "instances"))
    departures = outermost([s for name in DEPARTURE_GENERATORS for s in probed(name)],
                           lambda a: a.name in DEPARTURE_GENERATORS)
    m["instances.departures_s"] = sum(s.duration for s in departures)
    m["instances.us_per_step"] = 1e6 * _ratio(
        m["instances.departures_s"], sum(s.attrs["steps"] for s in departures))

    m["core.schedule_s"] = total("core.departure_schedule")
    m["core.schedule_calls"] = len(named("core.departure_schedule"))
    m["core.replays"] = len(named("core.Replay.__init__"))
    verify = named("core.total_cost", "core.check_feasible")
    m["core.verify_s"] = sum(s.duration for s in verify)
    m["core.verify_calls"] = len(verify)
    m["core.intervals_s"] = total("core.occupation_intervals")
    m["core.load_s"] = total("core.load_instance")
    m["core.save_s"] = total("core.save_instance")
    m["core.json_bytes"] = sum(s.attrs["bytes"] for s in probed("core.save_instance"))

    for cls, key in POLICY_CLASSES.items():
        runs = [s for s in probed("core.Replay.run") if s.attrs["policy"] == cls]
        m[f"policies.us_per_decision.{key}"] = 1e6 * _ratio(
            sum(s.duration for s in runs), sum(s.attrs["decisions"] for s in runs))
    m["policies.fixed_assignment_s"] = total("policies.compute_fixed_assignment")

    for mode in TETRIS_MODES:
        runs = [s for s in probed("tetris.tetris") if s.attrs["mode"] == mode]
        m[f"tetris.s.{mode}"] = sum(s.duration for s in runs)
        m[f"tetris.sweep_s.{mode}"] = sum(self_time(s) for s in runs)
    for s in probed("tetris.tetris"):
        kids = children[s.id]
        start = next(c for c in kids if c.name == "core.Replay.run")
        plan = next(c for c in kids if c.name == "core.occupation_intervals")
        m["tetris.intervals"] += start.attrs["decisions"]
        m["tetris.moved"] += sum(a != b for a, b in
                                 zip(plan.attrs["start_actions"], s.attrs["actions"]))
        m["tetris.saved"] += start.attrs["total"] - s.attrs["cost"]
    m["tetris.move_ratio"] = _ratio(m["tetris.moved"], m["tetris.intervals"])

    for enc in ENCODINGS:
        runs = [s for s in probed("genetic.evolve") if s.attrs["encoding"] == enc]
        secs = sum(s.duration for s in runs)
        evals = sum(s.attrs["evaluations"] for s in runs)
        m[f"genetic.s.{enc}"] = secs
        m[f"genetic.evaluations.{enc}"] = evals
        m[f"genetic.evals_per_s.{enc}"] = _ratio(evals, secs)
        m[f"genetic.us_per_eval_step.{enc}"] = 1e6 * _ratio(
            secs, sum(s.attrs["evaluations"] * s.attrs["horizon"] for s in runs))
        if enc == "genetic1":
            m["genetic.infeasible_frac.genetic1"] = _ratio(
                sum(s.attrs["infeasible"] for s in runs), evals)

    solves = probed("exact.solve_exact")
    m["exact.solve_s"] = sum(s.duration for s in solves)
    m["exact.nodes"] = sum(s.attrs["nodes"] for s in solves)
    m["exact.nodes_per_s"] = _ratio(m["exact.nodes"], m["exact.solve_s"])
    m["exact.optimal"] = float(bool(solves) and all(s.attrs["optimal"] for s in solves))
    iterative = probed("exact.solve_iterative")
    m["exact.iterative_s"] = sum(s.duration for s in iterative)
    m["exact.iterative_nodes_per_s"] = _ratio(
        sum(s.attrs["nodes"] for s in iterative), m["exact.iterative_s"])
    m["exact.export_s"] = total("exact.export_bip")
    m["exact.lp_bytes"] = sum(s.attrs["bytes"] for s in probed("exact.export_bip"))

    m["chart.trace_s"] = total("chart.record_trace")
    m["chart.svg_s"] = total("chart.chart_svg")
    m["chart.csv_s"] = total("chart.trace_csv")
    m["chart.svg_bytes"] = sum(s.attrs["bytes"] for s in probed("chart.chart_svg"))

    m["harness.compare_s"] = total("harness.run_comparison")
    m["harness.self_s"] = sum(self_time(s) for s in spans if s.layer == "harness")
    m["harness.policy_runs"] = len(named("harness.run_policy"))
    m["harness.study_s"] = total("harness.seasonal_study")
    m["harness.instance_s.seasonal"] = total("harness.seasonal_medium_instance")
    m["harness.instance_s.plain"] = total("harness.plain_medium_instance")
    return {k: float(v) for k, v in m.items()}
