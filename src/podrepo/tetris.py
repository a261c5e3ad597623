"""The tetris heuristic.

Start from a most-expensive-place replay (leaving the cheap places free),
then sweep the occupation intervals once -- in pod-frequency or in
interval-duration order -- and drop each interval onto the cheapest strictly
cheaper place that is free for its whole time span.  Interval time spans are
fixed by the departure sequence; only the place coordinate moves.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .core import (Instance, Replay, departure_schedule, occupation_intervals,
                   require_zero_terminal)
from .policies import decision_cost_table

SORT_FREQUENCY = "frequency"
SORT_DURATION = "duration"


class MostExpensivePlacePolicy:
    """Reverse cheapest-place on the instance it was built for: argmax of the
    decision cost, ties to the smallest place id."""

    def __init__(self, inst: Instance):
        self.table = decision_cost_table(inst)

    def __call__(self, replay: Replay) -> int:
        info = replay.current
        row = self.table[(info.station, info.return_next_station)]
        return max(replay.admissible(), key=row.__getitem__)


def tetris(inst: Instance, mode: str = SORT_FREQUENCY) -> tuple[list[int], float]:
    """Run the heuristic; returns the action sequence and its total cost
    (zero terminal cost only)."""
    require_zero_terminal(inst)
    if mode not in (SORT_FREQUENCY, SORT_DURATION):
        raise ValueError(f"unknown tetris mode: {mode}")

    start = MostExpensivePlacePolicy(inst)
    replay = Replay(inst).run(start)
    actions = list(replay.actions)
    total = replay.total

    intervals = occupation_intervals(inst, actions)
    # per place: the begins and the ends of its disjoint intervals, both
    # ascending, since the intervals arrive sorted by begin
    begins_at: list[list[int]] = [[] for _ in range(inst.n_places + 1)]
    ends_at: list[list[int]] = [[] for _ in range(inst.n_places + 1)]
    for iv in intervals:
        begins_at[iv.place].append(iv.begin)
        ends_at[iv.place].append(iv.end)

    movable = [iv for iv in intervals if iv.decision_step is not None]
    if mode == SORT_FREQUENCY:
        freq = [len(d) for d in departure_schedule(inst).pod_departure_steps]
        movable.sort(key=lambda iv: (-freq[iv.pod - 1], iv.begin, iv.pod))
    else:
        movable.sort(key=lambda iv: (iv.end - iv.begin, iv.begin, iv.pod))

    # (cost, place) pairs in ascending order for each (from, to) combination
    table = start.table
    places = range(1, inst.n_places + 1)
    orders = {key: sorted(zip(row[1:], places)) for key, row in table.items()}

    # ``p`` is free over [begin, end) when its first interval that ends after
    # ``begin`` starts at or after ``end``; the interval then goes in at that
    # index
    for iv in movable:
        key = (iv.from_station, iv.to_station)
        here = table[key][iv.place]
        begin, end = iv.begin, iv.end
        for cost, p in orders[key]:
            if cost >= here:
                break
            ends = ends_at[p]
            i = bisect_right(ends, begin)
            if i == len(ends) or begins_at[p][i] >= end:
                j = bisect_left(begins_at[iv.place], begin)
                del begins_at[iv.place][j], ends_at[iv.place][j]
                begins_at[p].insert(i, begin)
                ends.insert(i, end)
                actions[begin - 1] = p
                total += cost - here
                break
    return actions, total
