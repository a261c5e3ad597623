"""Storage-area charts and run traces.

A storage-area chart is a Gantt view of a replay: one row per place, one
column per time step, cells colored by the occupying pod's usage rank on a
256-step blue-to-red ramp (least used = dark blue, most used = dark red,
free = white).  SVG output is deterministic byte-for-byte for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Instance, Replay, departure_schedule

RAMP_START = (0, 0, 139)   # dark blue
RAMP_END = (139, 0, 0)     # dark red
RAMP_STEPS = 256
CELL = 10                  # pixels per side of a square cell


@dataclass(frozen=True)
class RunTrace:
    """Per-step snapshots of a feasible replay plus its cost series."""

    instance: Instance
    snapshots: tuple[tuple[Optional[int], ...], ...]  # length horizon + 1
    step_costs: tuple[float, ...]

    @property
    def cumulative_cost(self) -> float:
        return sum(self.step_costs)


@dataclass(frozen=True)
class ChartSpec:
    t_from: int
    t_to: int


def record_trace(inst: Instance, actions: Sequence[int]) -> RunTrace:
    """Replay ``actions`` and record every intermediate state."""
    replay = Replay(inst)
    snapshots = [replay.storage_tuple()]
    costs = []
    for action in actions:
        costs.append(replay.step(action))
        snapshots.append(replay.storage_tuple())
    return RunTrace(instance=inst, snapshots=tuple(snapshots),
                    step_costs=tuple(costs))


def usage_ranks(inst: Instance) -> list[int]:
    """Rank pods by departure count, ascending; ties by pod id."""
    counts = [len(d) for d in departure_schedule(inst).pod_departure_steps]
    order = sorted(range(1, inst.n_pods + 1), key=lambda h: (counts[h - 1], h))
    ranks = [0] * (inst.n_pods + 1)
    for rank, h in enumerate(order):
        ranks[h] = rank
    return ranks


def pod_color(rank: int, n_pods: int) -> str:
    """Hex color on the blue-to-red ramp for a usage rank."""
    if n_pods <= 1:
        i = RAMP_STEPS - 1
    else:
        i = round(rank * (RAMP_STEPS - 1) / (n_pods - 1))
    rgb = tuple(RAMP_START[c] + round((RAMP_END[c] - RAMP_START[c]) * i / (RAMP_STEPS - 1))
                for c in range(3))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def chart_svg(trace: RunTrace, spec: ChartSpec) -> str:
    """Render the storage-area chart as an SVG document string."""
    inst = trace.instance
    if not 0 <= spec.t_from < spec.t_to <= len(trace.snapshots):
        raise ValueError("chart window outside the trace")
    ranks = usage_ranks(inst)
    width = (spec.t_to - spec.t_from) * CELL
    height = inst.n_places * CELL
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for col, t in enumerate(range(spec.t_from, spec.t_to)):
        snapshot = trace.snapshots[t]
        for p in range(1, inst.n_places + 1):
            pod = snapshot[p - 1]
            if pod is None:
                continue
            color = pod_color(ranks[pod], inst.n_pods)
            parts.append(f'<rect x="{col * CELL}" y="{(p - 1) * CELL}" '
                         f'width="{CELL}" height="{CELL}" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_chart(trace: RunTrace, spec: ChartSpec, path) -> None:
    svg = chart_svg(trace, spec)  # a refused window leaves no file behind
    with open(path, "w") as fh:
        fh.write(svg)


def trace_csv(trace: RunTrace) -> str:
    """(t, place, pod) triples for every occupied cell, CSV text."""
    lines = ["t,place,pod"]
    for t, snapshot in enumerate(trace.snapshots):
        for p, pod in enumerate(snapshot, start=1):
            if pod is not None:
                lines.append(f"{t},{p},{pod}")
    return "\n".join(lines) + "\n"


def distinct_pods_per_place(trace: RunTrace) -> list[set[int]]:
    """Which pods ever occupy each place; a fixed-place run has at most one."""
    per_place: list[set[int]] = [set() for _ in range(trace.instance.n_places)]
    for snapshot in trace.snapshots:
        for p, pod in enumerate(snapshot):
            if pod is not None:
                per_place[p].add(pod)
    return per_place
