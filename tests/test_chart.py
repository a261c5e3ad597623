"""Storage-area chart rendering and run traces."""

from pathlib import Path

import pytest

from podrepo.chart import (ChartSpec, chart_svg, pod_color, record_trace,
                           trace_csv, usage_ranks)
from podrepo.core import Replay
from podrepo.instances import build_small_system
from podrepo.policies import (CheapestPolicy, FixedPolicy,
                              compute_fixed_assignment, rearranged_instance)
from reference import distinct_pods_per_place

GOLDEN = Path(__file__).parent / "golden" / "small_cheapest_0_60.svg"


def cheapest_trace(n=120):
    inst = build_small_system(n=n)
    replay = Replay(inst).run(CheapestPolicy(inst))
    return inst, record_trace(inst, replay.actions)


class TestUsageRanks:
    def test_rank_order_matches_departure_counts(self):
        inst = build_small_system()
        ranks = usage_ranks(inst)
        counts = [0] * (inst.n_pods + 1)
        for h, _ in inst.departures:
            counts[h] += 1
        by_rank = sorted(range(1, inst.n_pods + 1), key=lambda h: ranks[h])
        assert all(counts[a] <= counts[b] for a, b in zip(by_rank, by_rank[1:]))


class TestPodColor:
    def test_ramp_endpoints(self):
        assert pod_color(0, 10) == "#00008b"
        assert pod_color(9, 10) == "#8b0000"

    def test_single_pod(self):
        assert pod_color(0, 1) == "#8b0000"

    def test_monotone_red_channel(self):
        reds = [int(pod_color(r, 10)[1:3], 16) for r in range(10)]
        assert reds == sorted(reds)


class TestRecordTrace:
    def test_snapshot_count_and_costs(self):
        inst, trace = cheapest_trace()
        assert len(trace.snapshots) == inst.horizon + 1
        assert len(trace.step_costs) == inst.horizon
        replay = Replay(inst).run(CheapestPolicy(inst))
        assert trace.cumulative_cost == pytest.approx(replay.total)
        assert trace.snapshots[-1] == replay.storage_tuple()


class TestChartSvg:
    def test_window_validation(self):
        _, trace = cheapest_trace(30)
        with pytest.raises(ValueError):
            chart_svg(trace, ChartSpec(t_from=5, t_to=5))
        with pytest.raises(ValueError):
            chart_svg(trace, ChartSpec(t_from=0, t_to=99))

    def test_cell_iff_occupied(self):
        inst, trace = cheapest_trace(40)
        spec = ChartSpec(t_from=0, t_to=41)
        svg = chart_svg(trace, spec)
        occupied = sum(sum(1 for pod in snap if pod is not None)
                       for snap in trace.snapshots)
        # one background rect plus one per occupied cell
        assert svg.count("<rect") == occupied + 1

    def test_golden_small_system_chart(self):
        inst = build_small_system()
        replay = Replay(inst).run(CheapestPolicy(inst))
        trace = record_trace(inst, replay.actions)
        svg = chart_svg(trace, ChartSpec(t_from=0, t_to=60))
        assert svg.encode() == GOLDEN.read_bytes()


class TestTraceCsv:
    def test_triples_match_snapshots(self):
        inst, trace = cheapest_trace(25)
        lines = trace_csv(trace).strip().splitlines()
        assert lines[0] == "t,place,pod"
        cells = {(int(t), int(p)): int(h)
                 for t, p, h in (line.split(",") for line in lines[1:])}
        for t, snap in enumerate(trace.snapshots):
            for p, pod in enumerate(snap, start=1):
                assert cells.get((t, p)) == pod


class TestFixedRunStructure:
    def test_at_most_one_pod_per_place_row(self):
        inst = build_small_system()
        fa = compute_fixed_assignment(inst)
        arranged = rearranged_instance(inst, fa)
        replay = Replay(arranged).run(FixedPolicy(fa))
        trace = record_trace(arranged, replay.actions)
        assert all(len(pods) <= 1 for pods in distinct_pods_per_place(trace))
